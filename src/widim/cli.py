"""Command line entry point: seeded batch experiments with CSV/JSON output.

Commands map onto the library modules: ``bounds`` renders width-bound
brackets over parameter grids, ``map`` applies the sparsifying threshold
map to a vector, ``certify`` runs one distortion certification, ``oracle``
evaluates the polytope maximum behind the key scalar inequality, and
``group`` drives the lattice harness (ratio table or embedding check).

Reproducibility rules: the seed defaults to 0x5EED so bare invocations are
deterministic, every echoed parameter lands in the output header, and the
worker count is deliberately not echoed because it cannot affect output
bytes. ``--q inf`` (and ``--p inf`` where a sup-norm ball makes sense) is
the spelling for an infinite exponent. The text format itself lives in
:mod:`widim._output`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._output import csv_document, csv_row, json_exponent
from ._streams import DEFAULT_SEED
from .bounds import bracket, widim_equal_case
from .certify import (
    adversarial_certify,
    key_lemma_oracle_max,
    monte_carlo_certify,
    report_csv_header,
    report_to_csv_row,
    report_to_json,
)
from .core import _check_exponent, make_exponents
from .group_dynamics import (
    LatticeBox,
    embedding_check,
    embedding_csv_header,
    embedding_report_to_json,
    embedding_to_csv_row,
    geometric_weight_metric,
    mean_dimension_table,
    table_csv_header,
    table_to_csv_rows,
    table_to_json,
)
from .threshold_map import distortion, f_equivariant

__all__ = ["main"]


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return workers


def _parse_exponent(text: str) -> float:
    return math.inf if text.strip().lower() == "inf" else float(text)


def _parse_floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _write(args, command, params, doc, header, rows) -> None:
    """Write one command's output in the requested format.

    ``doc`` returns the JSON text and ``rows`` the CSV data lines below
    ``header``; only the one the format asks for is called.
    """
    if args.format == "json":
        text = doc() + "\n"
    else:
        text = csv_document(command, params, header, rows())
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# bounds


def _run_bounds(args) -> int:
    p = _check_exponent(args.p, "ball exponent p")
    q = _check_exponent(args.q, "distance exponent q")
    e = make_exponents(p, q) if q > p else None
    reports = []
    for n in args.n:
        for eps in args.eps:
            if e is not None:
                rep = bracket(n, eps, e)
                r, lower, upper, exact = rep.exponents.r, rep.lower, rep.upper, rep.exact
            else:
                r, lower = None, widim_equal_case(n, eps, p, q)
                upper, exact = lower, lower is not None
            reports.append({
                "n": n, "epsilon": eps, "p": p, "q": q, "r": r,
                "lower": lower, "upper": upper, "exact": exact,
                "status": "ok" if lower is not None else "out_of_range",
            })
    doc = {"command": "bounds", "p": json_exponent(p), "q": json_exponent(q),
           "seed": args.seed, "reports": reports}
    params = {"p": p, "q": q, "eps": args.eps, "n": args.n, "seed": args.seed}

    def csv_rows():
        for row in reports:
            ok = row["status"] == "ok"
            lower, upper = (row["lower"], row["upper"]) if ok else ("out_of_range",) * 2
            yield csv_row([row["n"], row["epsilon"], lower, upper, row["exact"]])

    _write(args, "bounds", params, lambda: json.dumps(doc), "n,epsilon,lower,upper,exact",
           csv_rows)
    return 0


# --------------------------------------------------------------------------
# map


def _run_map(args) -> int:
    if args.infile == "-":
        line = sys.stdin.readline()
    else:
        with open(args.infile) as fh:
            line = fh.readline()
    x = np.array([float(v) for v in line.split()], dtype=np.float64)
    if x.size == 0:
        raise ValueError("input vector is empty")
    y = f_equivariant(x, args.m)
    params = {"m": args.m}
    dist = None
    if args.q is not None:
        dist = float(distortion(x, args.m, args.q))
        params.update(q=args.q, distortion=dist)
    doc = {
        "command": "map",
        "m": args.m,
        "q": None if args.q is None else json_exponent(args.q),
        "input": [float(v) for v in x],
        "output": [float(v) for v in y],
        "nonzero_count": int(np.count_nonzero(y)),
        "distortion": dist,
    }
    _write(args, "map", params, lambda: json.dumps(doc), None, lambda: [csv_row(y)])
    return 0


# --------------------------------------------------------------------------
# certify


def _run_certify(args) -> int:
    e = make_exponents(args.p, args.q)
    if args.method == "mc":
        report = monte_carlo_certify(
            args.n, args.m, e, args.samples, seed=args.seed, workers=args.workers
        )
        budget = {"samples": args.samples}
    else:
        report = adversarial_certify(
            args.n, args.m, e, args.restarts, seed=args.seed, workers=args.workers
        )
        budget = {"restarts": args.restarts}
    params = {"method": args.method, "n": args.n, "m": args.m, "p": args.p, "q": args.q,
              **budget, "seed": args.seed}
    _write(args, "certify", params, lambda: report_to_json(report), report_csv_header(),
           lambda: [report_to_csv_row(report)])
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# oracle


def _run_oracle(args) -> int:
    rows = []
    for s in args.s:
        for c in args.c:
            for t in args.t:
                for n in args.n:
                    observed = key_lemma_oracle_max(
                        s, c, t, n, samples=args.samples, seed=args.seed
                    )
                    bound = c * t ** (s - 1.0)
                    passed = observed <= bound + 1e-12 * max(1.0, abs(bound))
                    rows.append({"s": s, "c": c, "t": t, "n": n, "observed_max": observed,
                                 "bound": bound, "passed": passed})
    doc = {"command": "oracle", "samples": args.samples, "seed": args.seed, "rows": rows}
    params = {"s": args.s, "c": args.c, "t": args.t, "n": args.n,
              "samples": args.samples, "seed": args.seed}
    _write(args, "oracle", params, lambda: json.dumps(doc), "s,c,t,n,observed_max,bound,passed",
           lambda: (csv_row(row.values()) for row in rows))
    return 0 if all(row["passed"] for row in rows) else 1


# --------------------------------------------------------------------------
# group


def _run_group(args) -> int:
    metric = geometric_weight_metric(
        dim_d=args.dim, base=args.weight_base, total=args.weight_total
    )
    params = {"task": args.task, "dim": args.dim, "p": args.p, "eps": args.eps,
              "weight": metric.description}
    if args.task == "table":
        table = mean_dimension_table(metric, args.p, args.eps, args.n)
        params.update(n=args.n, seed=args.seed)
        _write(args, "group", params, lambda: table_to_json(table), table_csv_header(),
               lambda: table_to_csv_rows(table))
        return 0
    # embedding check over the box [-radius, radius]^d
    if len(args.n) != 1:
        raise ValueError("the embed task takes exactly one probe-box radius in --n")
    omega = LatticeBox((0,) * args.dim, args.n[0])
    report = embedding_check(
        metric,
        omega,
        args.p,
        args.eps,
        args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    params.update(n=args.n[0], samples=args.samples, seed=args.seed)
    _write(args, "group", params, lambda: embedding_report_to_json(report),
           embedding_csv_header(), lambda: [embedding_to_csv_row(report)])
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# parser


def _add_common(sub, *, workers=False):
    sub.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                     help="64-bit seed; default 0x5EED")
    if workers:
        sub.add_argument("--workers", type=_parse_workers, default=1,
                         help="worker threads; never affects output bytes")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widim",
        description="Sparsification maps, width bounds, and their certification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bounds", help="width-bound brackets over an (n, eps) grid")
    b.add_argument("--p", type=_parse_exponent, required=True)
    b.add_argument("--q", type=_parse_exponent, required=True)
    b.add_argument("--eps", type=_parse_floats, required=True,
                   help="comma-separated scales")
    b.add_argument("--n", type=_parse_ints, required=True,
                   help="comma-separated dimensions")
    _add_common(b)
    b.set_defaults(func=_run_bounds)

    m = subs.add_parser("map", help="apply the sparsifying threshold map to a vector")
    m.add_argument("--m", type=int, required=True, help="coordinates to keep")
    m.add_argument("--q", type=_parse_exponent, default=None,
                   help="also report the q-distance moved")
    m.add_argument("--in", dest="infile", default="-",
                   help="one-line whitespace-separated vector file, '-' for stdin")
    _add_common(m)
    m.set_defaults(func=_run_map)

    c = subs.add_parser("certify", help="certify the distortion bound")
    c.add_argument("--p", type=_parse_exponent, required=True)
    c.add_argument("--q", type=_parse_exponent, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--method", choices=("mc", "adversarial"), default="mc")
    c.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo sample count")
    c.add_argument("--restarts", type=int, default=32,
                   help="hill-climb restarts (adversarial method)")
    _add_common(c, workers=True)
    c.set_defaults(func=_run_certify)

    o = subs.add_parser("oracle", help="polytope maximum behind the key inequality")
    o.add_argument("--s", type=_parse_floats, required=True)
    o.add_argument("--c", type=_parse_floats, required=True)
    o.add_argument("--t", type=_parse_floats, required=True)
    o.add_argument("--n", type=_parse_ints, required=True)
    o.add_argument("--samples", type=int, default=4096)
    _add_common(o)
    o.set_defaults(func=_run_oracle)

    g = subs.add_parser("group", help="lattice harness: ratio table or embedding check")
    g.add_argument("--task", choices=("table", "embed"), default="table")
    g.add_argument("--dim", type=int, default=1, help="lattice dimension d")
    g.add_argument("--p", type=_parse_exponent, default=1.0)
    g.add_argument("--eps", type=float, default=0.5)
    g.add_argument("--n", type=_parse_ints, default=[1, 2, 3, 4, 5, 6, 7],
                   help="box radii (table) or one probe radius (embed)")
    g.add_argument("--samples", type=int, default=10_000)
    g.add_argument("--weight-base", type=float, default=2.0,
                   help="per-axis geometric decay base of the weight")
    g.add_argument("--weight-total", type=float, default=0.75,
                   help="closed-form total mass of the weight")
    _add_common(g, workers=True)
    g.set_defaults(func=_run_group)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a failed internal cross-check
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
