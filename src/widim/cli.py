"""Command line entry point: seeded batch experiments with CSV/JSON output.

Commands map onto the library modules: ``bounds`` renders width-bound
brackets over parameter grids, ``map`` applies the sparsifying threshold
map to a vector, ``certify`` runs one distortion certification, ``oracle``
evaluates the polytope maximum behind the key scalar inequality, and
``group`` drives the lattice harness (ratio table or embedding check).

Reproducibility rules: the seed defaults to 0x5EED so bare invocations are
deterministic, every command refuses a seed outside [0, 2^64) (exit 2),
every echoed parameter lands in the output header, and the worker count
is deliberately not echoed because it cannot affect output bytes. ``--q
inf`` (and ``--p inf`` where a sup-norm ball makes sense) is the spelling
for an infinite exponent. The text format itself lives in
:mod:`widim._output`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from ._output import cell, csv_document, csv_lines, csv_row, json_exponent, table_csv_lines, to_json
from ._streams import DEFAULT_SEED
from .bounds import EqualCase, _caps, bracket, widim_equal_case  # noqa: F401 (traced by perfbench)
from .certify import (
    _key_lemma_bound,
    _within,
    adversarial_certify,
    key_lemma_oracle_max,
    monte_carlo_certify,
)
from .core import _check_exponent, _check_int, _check_scale, _check_seed, make_exponents
from .group_dynamics import (LatticeBox, embedding_check, geometric_weight_metric,
                             mean_dimension_table)
from .threshold_map import distortion, f_closed

__all__ = ["main"]


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _parse_floats(text: str, kind=float) -> list:
    values = [kind(v) for v in text.split(",") if v.strip()]
    if not values:  # an empty list would leave the values of the other lists unchecked
        raise argparse.ArgumentTypeError("expected at least one comma-separated value")
    return values


def _parse_ints(text: str) -> list:
    return _parse_floats(text, int)


def _write(args, command, params, doc, lines) -> None:
    """Write one command's output in the requested format.

    ``doc`` returns the JSON text (written before its newline, not copied
    with it) and ``lines`` the CSV lines below the parameters, header first;
    only the one the format asks for is called.
    """
    if args.format == "json":
        parts = (doc(), "\n")
    else:
        parts = (csv_document(command, params, lines()),)
    if args.out == "-":
        sys.stdout.writelines(parts)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.writelines(parts)


# --------------------------------------------------------------------------
# bounds


def _run_bounds(args) -> int:
    p = _check_exponent(args.p, "ball exponent p")
    q = _check_exponent(args.q, "distance exponent q")
    e = make_exponents(p, q) if q > p else EqualCase(p, q)
    ns = [_check_int(n, "dimension n", 1) for n in args.n]
    grid = [_check_scale(eps) for eps in args.eps]
    # each scale's (lower, upper) caps on n, taken once; None where out of range
    columns = [(eps, _caps(eps, e)) for eps in grid]
    if any(caps and not 0 <= caps[0] <= caps[1] for _, caps in columns):
        raise ArithmeticError("a lower width plateau exceeds its upper plateau")
    params = {"p": p, "q": q, "eps": args.eps, "n": args.n, "seed": args.seed}

    def lines(prefix, field, tail, out_of_range):
        # each row is prefix(n) + field(eps) + tail(bracket), the bracket being (n, n) at
        # or below the lower cap, the capped pair at or above the upper cap (no n reaches
        # an infinite one) and (lower cap, n) between: a tail is formatted once per bracket
        tail = functools.cache(tail)
        scales = [(field(eps), *caps, tail(*caps) if math.isfinite(caps[1]) else None) if caps
                  else (field(eps), 0, 0, out_of_range)  # every n >= 1 takes the fixed tail
                  for eps, caps in columns]
        for n in ns:
            head, same = prefix(n), tail(n, n)
            for body, lower, upper, top in scales:
                yield head + body + (same if n <= lower else top if n >= upper else tail(lower, n))

    # a row echoes an infinite p or q as the non-strict JSON token Infinity (the head
    # says "inf"); the benchmark pins these bytes by digest, so a new spelling has to
    # come with a change to the benchmark
    r = e.r if q > p else None
    exps = f'"p": {json.dumps(p)}, "q": {json.dumps(q)}, "r": {json.dumps(r)}, '

    def json_doc():  # the bytes json.dumps gives the document of row dicts
        head = json.dumps({"command": "bounds", "p": json_exponent(p), "q": json_exponent(q),
                           "seed": args.seed, "reports": []})
        return head[:-2] + ", ".join(lines(  # the rows go between the reports list's brackets
            lambda n: f'{{"n": {n}, ',
            lambda eps: f'"epsilon": {json.dumps(eps)}, {exps}',
            lambda lower, upper: f'"lower": {lower}, "upper": {upper}, "exact": '
                                 f'{"true" if lower == upper else "false"}, "status": "ok"}}',
            '"lower": null, "upper": null, "exact": false, "status": "out_of_range"}')) + "]}"

    def csv_doc():
        return itertools.chain(["n,epsilon,lower,upper,exact"], lines(
            lambda n: f"{n},", lambda eps: f"{cell(eps)},",
            lambda lower, upper: csv_row([lower, upper, lower == upper]),
            csv_row(["out_of_range", "out_of_range", False])))

    _write(args, "bounds", params, json_doc, csv_doc)
    return 0


# --------------------------------------------------------------------------
# map


def _run_map(args) -> int:
    if args.infile == "-":
        line = sys.stdin.readline()
    else:
        with open(args.infile) as fh:
            line = fh.readline()
    x = [float(v) for v in line.split()]
    y = f_closed(x, args.m)
    params = {"m": args.m}
    dist = None
    if args.q is not None:
        dist = float(distortion(x, args.m, args.q))
        params.update(q=args.q, distortion=dist)
    doc = {
        "command": "map",
        "m": args.m,
        "q": None if args.q is None else json_exponent(args.q),
        "input": x,
        "output": [float(v) for v in y],
        "nonzero_count": int(np.count_nonzero(y)),
        "distortion": dist,
    }
    _write(args, "map", params, lambda: json.dumps(doc), lambda: [csv_row(y)])
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
    _write(args, "certify", params, lambda: to_json(report), lambda: csv_lines(report))
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# oracle


def _run_oracle(args) -> int:
    rows = []
    for s, c, t, n in itertools.product(args.s, args.c, args.t, args.n):
        observed = key_lemma_oracle_max(s, c, t, n, samples=args.samples, seed=args.seed)
        bound = _key_lemma_bound(s, c, t)
        rows.append({"s": s, "c": c, "t": t, "n": n, "observed_max": observed,
                     "bound": bound, "passed": _within(observed, bound)})
    doc = {"command": "oracle", "samples": args.samples, "seed": args.seed, "rows": rows}
    params = {"s": args.s, "c": args.c, "t": args.t, "n": args.n,
              "samples": args.samples, "seed": args.seed}
    _write(args, "oracle", params, lambda: json.dumps(doc), lambda: [
        "s,c,t,n,observed_max,bound,passed", *(csv_row(row.values()) for row in rows)])
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
        _write(args, "group", params, lambda: to_json(table), lambda: table_csv_lines(table))
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
    _write(args, "group", params, lambda: to_json(report), lambda: csv_lines(report))
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# parser


def _add_common(sub, *, workers=False):
    sub.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                     help="64-bit seed; default 0x5EED")
    if workers:
        sub.add_argument("--workers", type=int, default=1,
                         help="worker threads; never affects output bytes")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


@functools.cache  # built on the first main call, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widim",
        description="Sparsification maps, width bounds, and their certification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bounds", help="width-bound brackets over an (n, eps) grid")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--q", type=float, required=True)
    b.add_argument("--eps", type=_parse_floats, required=True,
                   help="comma-separated scales")
    b.add_argument("--n", type=_parse_ints, required=True,
                   help="comma-separated dimensions")
    _add_common(b)
    b.set_defaults(func=_run_bounds)

    m = subs.add_parser("map", help="apply the sparsifying threshold map to a vector")
    m.add_argument("--m", type=int, required=True, help="coordinates to keep")
    m.add_argument("--q", type=float, default=None,
                   help="also report the q-distance moved")
    m.add_argument("--in", dest="infile", default="-",
                   help="one-line whitespace-separated vector file, '-' for stdin")
    _add_common(m)
    m.set_defaults(func=_run_map)

    c = subs.add_parser("certify", help="certify the distortion bound")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--q", type=float, required=True)
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
    g.add_argument("--p", type=float, default=1.0)
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
        _check_seed(args.seed)
        _check_int(getattr(args, "workers", 1), "workers", 1)
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a failed internal cross-check
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
