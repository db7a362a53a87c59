"""The four workloads: their CLI jobs and the checks on every report.

Each job is one ``widim`` CLI call with ``--format json``. The checks use
invariants that hold under any random-stream layout, so a deliberate
layout change does not read as a failure. Only the ``bounds-grid``
outputs, which use no randomness, are pinned by digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

#: Relative slack for recomputed floating-point quantities.
REL_TOL = 1e-12
#: The program's own certification tolerance, absolute.
BOUND_TOL = 1e-9


class CheckError(Exception):
    """A report broke one of its invariants."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _exponent(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _lq_norm(values, q: float) -> float:
    if math.isinf(q):
        return max(values, default=0.0)
    return sum(v**q for v in values) ** (1.0 / q)


@dataclass(frozen=True)
class Job:
    """One CLI call. ``argv`` omits --seed, --format and --out."""

    name: str
    argv: tuple
    items: int
    check: Callable[["Job", str, int], None]


def options(job: Job) -> dict:
    """The job's ``--flag value`` pairs, after the command name."""
    return dict(zip(job.argv[1::2], job.argv[2::2]))


# --------------------------------------------------------------------------
# certify


def _check_certify(job: Job, raw: str, seed: int) -> None:
    args = options(job)
    n, m = int(args["--n"]), int(args["--m"])
    p, q = _exponent(args["--p"]), _exponent(args["--q"])
    count = int(args.get("--samples") or args["--restarts"])
    doc = json.loads(raw)
    _require((doc["n"], doc["m"], doc["seed"]) == (n, m, seed), "echoed n, m or seed differ")
    _require(doc["sample_count"] == count, "sample_count differs from the request")
    _require(doc["exponents"]["q"] == ("inf" if math.isinf(q) else q), "echoed q differs")
    bound = (m + 1) ** -(1.0 / p - 1.0 / q)
    _require(_close(doc["bound"], bound), f"bound {doc['bound']} != {bound}")
    value = doc["max_observed_distortion"]
    _require(value <= doc["bound"] + BOUND_TOL, "certification failed")
    _require(_close(doc["margin"], doc["bound"] - value), "margin != bound - max")
    # The extremal point (m+1 equal coordinates on the sphere) attains the bound.
    extremal = _lq_norm([(m + 1) ** (-1.0 / p)] * (m + 1), q)
    _require(value >= extremal * (1.0 - REL_TOL), "max below the extremal distortion")
    x = doc["argmax_vector"]
    _require(len(x) == n, "argmax vector has the wrong length")
    _require(_lq_norm([abs(v) for v in x], p) <= 1.0 + BOUND_TOL, "argmax outside the ball")
    # The map moves coordinate i by min(|x_i|, tau), tau the (m+1)-th largest |x_i|.
    tau = sorted((abs(v) for v in x), reverse=True)[m] if m < n else 0.0
    moved = _lq_norm([min(abs(v), tau) for v in x], q)
    _require(_close(moved, value, 1e-9), f"argmax distortion {moved} != reported {value}")


def mc_certify(smoke: bool) -> list:
    samples = 1024 if smoke else 8192
    jobs = []
    for p, q in (("1", "2"), ("2", "inf")):
        for n in (8, 64):
            for m in (1, 3):
                argv = ("certify", "--method", "mc", "--p", p, "--q", q,
                        "--n", str(n), "--m", str(m), "--samples", str(samples))
                jobs.append(Job(f"mc p={p} q={q} n={n} m={m}", argv, samples, _check_certify))
    return jobs


def adversarial_certify(smoke: bool) -> list:
    restarts = 2 if smoke else 8
    jobs = []
    for p, q in (("1", "2"), ("2", "4")):
        for n in (8, 16):
            argv = ("certify", "--method", "adversarial", "--p", p, "--q", q,
                    "--n", str(n), "--m", "3", "--restarts", str(restarts))
            jobs.append(Job(f"adversarial p={p} q={q} n={n}", argv, restarts, _check_certify))
    return jobs


# --------------------------------------------------------------------------
# lattice embedding


def _check_embed(job: Job, raw: str, seed: int) -> None:
    args = options(job)
    dim, radius, samples = int(args["--dim"]), int(args["--n"]), int(args["--samples"])
    doc = json.loads(raw)
    _require((doc["dim_d"], doc["seed"]) == (dim, seed), "echoed dim or seed differ")
    _require(doc["sample_count"] == samples, "sample_count differs from the request")
    _require(len(doc["omega"]) == (2 * radius + 1) ** dim, "probe set has the wrong size")
    _require(doc["failure_count"] == 0 and doc["witness"] is None, "embedding failures")
    _require(0 <= doc["checked_count"] <= samples, "checked_count outside [0, samples]")
    worst = doc["worst_margin"]
    _require(worst is None or worst <= BOUND_TOL, f"worst margin {worst} above tolerance")


def lattice_embed(smoke: bool) -> list:
    samples = 60 if smoke else 500
    jobs = []
    for dim, radius in ((1, 2), (1, 4), (2, 1)):
        argv = ("group", "--task", "embed", "--eps", "0.5", "--dim", str(dim),
                "--n", str(radius), "--samples", str(samples))
        jobs.append(Job(f"embed d={dim} radius={radius}", argv, samples, _check_embed))
    return jobs


# --------------------------------------------------------------------------
# bounds grid

#: Logarithmic n grid from 1 to 10^6, eight points per decade.
BOUNDS_N = tuple(sorted({round(10 ** (k / 8)) for k in range(49)}))
#: eps grid: the integer points eps = 2/sqrt(k), where (2/eps)^2 = k, plus
#: ten points per decade from 1 down to 10^-3.
BOUNDS_EPS = tuple(sorted({2.0 / math.sqrt(k) for k in range(1, 65)}
                          | {10 ** (-k / 10) for k in range(31)}))
TABLE_RADII = tuple(range(1, 200))

#: SHA-256 of each output with its echoed seed set to null, taken at the
#: commit that added the benchmark.
DIGESTS = {
    "bounds p=1 q=2": "bf70f6969d981d40dad60c22c4a8c35820c227a249b84ed2abc9e2a2feff6628",
    "bounds p=1 q=inf": "631550dba2ada6c4896f99a0277d0ffac5bfc024f753f908711ed960f917bed0",
    "bounds p=2 q=4": "f96dbec58842260c3885c1ef21420155df659dd7ce191b06551c9a001343fdb3",
    "bounds p=2 q=2": "74f703336997514c02e5a33d28c0da2a2b50bef0ff2f5dcc14603dd675e98913",
    "table d=2 eps=0.25": "25de599f35879f9b15033f588d12b4622bcd2f0ea13e19b59ad8652ea78692f3",
}


def _digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(dict(doc, seed=None)).encode()).hexdigest()


def _check_pinned(job: Job, raw: str, doc: dict) -> None:
    _require(raw == json.dumps(doc) + "\n", "output is not one canonical JSON line")
    got = _digest(doc)
    _require(got == DIGESTS[job.name], f"digest {got} differs from the pinned one")


def _check_bounds(job: Job, raw: str, seed: int) -> None:
    args = options(job)
    p, q = _exponent(args["--p"]), _exponent(args["--q"])
    doc = json.loads(raw)
    _require(doc["seed"] == seed, "echoed seed differs")
    rows = doc["reports"]
    _require(len(rows) == len(BOUNDS_N) * len(BOUNDS_EPS), "wrong row count")
    for row in rows:
        n, eps = row["n"], row["epsilon"]
        if row["status"] == "out_of_range":
            _require(q <= p and eps >= 1.0, f"row n={n} eps={eps} out of range")
            continue
        lower, upper = row["lower"], row["upper"]
        _require(0 <= lower <= upper <= n, f"row n={n} eps={eps}: bad bracket")
        _require(not row["exact"] or lower == upper, f"row n={n} eps={eps}: inexact")
        _require(not math.isinf(q) or row["exact"], f"row n={n} eps={eps}: q=inf not exact")
    _check_pinned(job, raw, doc)


def _check_table(job: Job, raw: str, seed: int) -> None:
    doc = json.loads(raw)
    constant = doc["widim_constant"]
    _require([r["radius"] for r in doc["rows"]] == list(TABLE_RADII), "wrong radii")
    for r in doc["rows"]:
        size = (2 * r["radius"] + 1) ** doc["dim_d"]
        _require(r["omega_size"] == size, f"radius {r['radius']}: wrong box size")
        _require(_close(r["ratio"], constant / size), f"radius {r['radius']}: wrong ratio")
    _check_pinned(job, raw, doc)


def bounds_grid(smoke: bool) -> list:
    del smoke  # the grid is cheap, and the pinned digests cover only this size
    n_arg = ",".join(str(n) for n in BOUNDS_N)
    eps_arg = ",".join(repr(e) for e in BOUNDS_EPS)
    rows = len(BOUNDS_N) * len(BOUNDS_EPS)
    jobs = [
        Job(f"bounds p={p} q={q}", ("bounds", "--p", p, "--q", q, "--n", n_arg, "--eps", eps_arg),
            rows, _check_bounds)
        for p, q in (("1", "2"), ("1", "inf"), ("2", "4"), ("2", "2"))
    ]
    argv = ("group", "--task", "table", "--dim", "2", "--eps", "0.25",
            "--n", ",".join(str(r) for r in TABLE_RADII))
    jobs.append(Job("table d=2 eps=0.25", argv, len(TABLE_RADII), _check_table))
    return jobs


#: Workload name -> function making its job list. Each takes the smoke flag,
#: which shrinks the work per job for the self-test.
WORKLOADS = {
    "mc-certify": mc_certify,
    "adversarial-certify": adversarial_certify,
    "lattice-embed": lattice_embed,
    "bounds-grid": bounds_grid,
}
