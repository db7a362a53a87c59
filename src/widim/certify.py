"""Randomized and adversarial certification of the distortion bound.

The threshold map promises a dimension-free distortion ceiling
``(m+1)^-(1/p-1/q)`` over the unit p-ball. This module attacks that claim
three ways: uniform Monte Carlo sampling of the ball, derivative-free hill
climbing from random starts plus the analytic extremal configuration, and
exhaustive grid oracles for the two scalar inequalities the bound rests on.

Determinism contract: a report is a pure function of its parameters and
seed. Monte Carlo samples come in blocks of a fixed size independent of the
worker count; block b draws all of its rows from the isolated stream
(seed, domain, b), and always draws the full block, so sample i is the same
whatever the requested sample count. The maximum is reduced in block order
with ties broken toward the smallest sample index, so the same seed yields
bit-identical reports for any ``workers`` value. Hill-climbing start k
draws from the isolated stream (seed, domain, k).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._streams import (
    DEFAULT_SEED,
    DOMAIN_BALL,
    DOMAIN_CLIMB,
    DOMAIN_POLYTOPE,
    StreamFactory,
    fresh_stream,
)
from ._output import csv_row, json_exponent
from .core import Exponents, _check_exponent, _check_int, _check_nonnegative
from .threshold_map import distortion, distortion_bound, extremal_vector

__all__ = [
    "sample_lp_ball",
    "sample_lp_ball_rows",
    "CertificationReport",
    "monte_carlo_certify",
    "adversarial_certify",
    "check_lemma_swap",
    "check_key_lemma",
    "key_lemma_oracle_max",
    "report_to_json",
    "report_from_json",
    "report_csv_header",
    "report_to_csv_row",
    "DEFAULT_SEED",
]

#: Success threshold on the margin, absolute.
BOUND_TOLERANCE = 1e-9

#: Samples per evaluation block and per random stream. Fixed, so the block
#: layout (and therefore the reduced maximum) never depends on the worker
#: count or on the sample count.
BLOCK = 4096

#: Hill-climbing schedule.
CLIMB_SWEEPS = 200
CLIMB_INITIAL_STEP = 0.25
CLIMB_MIN_STEP = 1e-12

#: Moves per chain scored in one ``distortion`` call by the hill climb.
CLIMB_WINDOW = 8


def sample_lp_ball(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One point uniform in the unit p-ball of dimension n.

    Finite p uses the standard construction: coordinates with density
    proportional to exp(-|t|^p) (a signed Gamma(1/p) power), one auxiliary
    exponential variate, and a joint normalization. This is exactly uniform
    for every finite p >= 1 with no rejection step. ``p = inf`` draws
    coordinates independently uniform on [-1, 1].

    Draw order per sample is fixed: magnitudes, then signs, then the
    auxiliary exponential.
    """
    _check_int(n, "dimension n", 1)
    p = _check_exponent(p, "ball exponent p")
    if math.isinf(p):
        return rng.uniform(-1.0, 1.0, n)
    w = rng.gamma(1.0 / p, 1.0, n)  # |g_i|^p
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    y = rng.standard_exponential()
    return (signs * w ** (1.0 / p)) / ((np.sum(w) + y) ** (1.0 / p))


def sample_lp_ball_rows(rows: int, n: int, p: float, rng: np.random.Generator,
                        sizes=None) -> np.ndarray:
    """``rows`` points uniform in the unit p-ball of dimension n, one per row.

    The construction of :func:`sample_lp_ball`, vectorized over rows. Draw
    order for the whole batch is fixed: every magnitude (row by row), then
    every sign, then one auxiliary exponential per row. With ``sizes``, row
    r is uniform in the ball of its first sizes[r] coordinates and zero
    beyond: unused magnitudes are drawn but masked before the normalizing sum.
    """
    _check_int(rows, "rows", 1)
    _check_int(n, "dimension n", 1)
    p = _check_exponent(p, "ball exponent p")
    unused = None if sizes is None else np.arange(n) >= np.asarray(sizes)[:, None]
    if math.isinf(p):
        X = rng.uniform(-1.0, 1.0, (rows, n))
    else:
        w = rng.gamma(1.0 / p, 1.0, (rows, n))  # |g_ij|^p
        signs = rng.integers(0, 2, (rows, n)) * 2.0 - 1.0
        y = rng.standard_exponential(rows)
        if unused is not None:
            w[unused] = 0.0
        scale = (np.sum(w, axis=1) + y) ** (1.0 / p)
        X = w ** (1.0 / p)
        X *= signs
        X /= scale[:, None]
    if unused is not None:
        X[unused] = 0.0
    return X


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one certification run.

    ``margin = bound - max_observed_distortion``; the run certifies the
    bound iff ``margin >= -1e-9``. Serialized documents keep an ``elapsed``
    column that is always null (JSON) or empty (CSV).
    """

    n: int
    m: int
    exponents: Exponents
    sample_count: int
    seed: int
    max_observed_distortion: float
    bound: float
    margin: float
    argmax_vector: tuple

    @property
    def passed(self) -> bool:
        return self.margin >= -BOUND_TOLERANCE


def report_to_json(report: CertificationReport) -> str:
    """One-line JSON document; infinite q spelled "inf", elapsed nulled."""
    doc = {
        "n": report.n,
        "m": report.m,
        "exponents": {
            "p": report.exponents.p,
            "q": json_exponent(report.exponents.q),
            "r": report.exponents.r,
        },
        "sample_count": report.sample_count,
        "seed": report.seed,
        "max_observed_distortion": report.max_observed_distortion,
        "bound": report.bound,
        "margin": report.margin,
        "argmax_vector": list(report.argmax_vector),
        "elapsed": None,
    }
    return json.dumps(doc)


def report_from_json(text: str) -> CertificationReport:
    doc = json.loads(text)
    e = doc["exponents"]
    q = math.inf if e["q"] == "inf" else float(e["q"])
    return CertificationReport(
        n=int(doc["n"]),
        m=int(doc["m"]),
        exponents=Exponents(p=float(e["p"]), q=q, r=float(e["r"])),
        sample_count=int(doc["sample_count"]),
        seed=int(doc["seed"]),
        max_observed_distortion=float(doc["max_observed_distortion"]),
        bound=float(doc["bound"]),
        margin=float(doc["margin"]),
        argmax_vector=tuple(float(v) for v in doc["argmax_vector"]),
    )


def report_csv_header() -> str:
    return (
        "n,m,p,q,r,sample_count,seed,max_observed_distortion,"
        "bound,margin,argmax_vector,elapsed"
    )


def report_to_csv_row(report: CertificationReport) -> str:
    """One CSV row, 17 significant digits, vector ;-joined, elapsed empty."""
    e = report.exponents
    return csv_row([
        report.n, report.m, e.p, e.q, e.r, report.sample_count, report.seed,
        report.max_observed_distortion, report.bound, report.margin,
        report.argmax_vector, None,
    ])


def _validate_run(n, m, e, count, count_name, workers):
    if not isinstance(e, Exponents):
        raise ValueError(f"expected an Exponents triple, got {e!r}")
    n, m = _check_int(n, "dimension n", 1), _check_int(m, "sparsity m", 0)
    count = _check_int(count, count_name, 1)
    _check_int(workers, "workers", 1)
    return n, m, count


def _sample_block(seed, b, n, p) -> np.ndarray:
    """Block b of the Monte Carlo sample set: BLOCK rows from stream b."""
    return sample_lp_ball_rows(BLOCK, n, p, fresh_stream(seed, DOMAIN_BALL, b))


def monte_carlo_certify(
    n: int,
    m: int,
    e: Exponents,
    samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CertificationReport:
    """Evaluate the distortion on uniform ball samples plus the extremal point.

    The analytic extremal configuration participates as pseudo-index -1, so
    it wins ties and the reported maximum can never undershoot the known
    equality case. Deterministic for a fixed seed, independent of workers.
    """
    n, m, samples = _validate_run(n, m, e, samples, "samples", workers)
    seed = int(seed)
    bound = distortion_bound(m, e)

    def eval_block(b):
        lo = b * BLOCK
        X = _sample_block(seed, b, n, e.p)[: samples - lo]
        d = distortion(X, m, e.q)
        off = int(np.argmax(d))  # first occurrence: smallest index wins ties
        return float(d[off]), lo + off, X[off].copy()

    blocks = range(-(-samples // BLOCK))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(eval_block, blocks))
    else:
        results = [eval_block(b) for b in blocks]

    candidates = []
    if m < n:
        ext = extremal_vector(m, e.p, n)
        candidates.append((float(distortion(ext, m, e.q)), -1, ext))
    candidates.extend(results)

    best = candidates[0]
    for cand in candidates[1:]:  # index-ordered scan: ties keep the earlier index
        if cand[0] > best[0]:
            best = cand
    value = best[0]
    return CertificationReport(
        n=n,
        m=m,
        exponents=e,
        sample_count=samples,
        seed=seed,
        max_observed_distortion=value,
        bound=bound,
        margin=bound - value,
        argmax_vector=tuple(float(v) for v in best[2]),
    )


def adversarial_certify(
    n: int,
    m: int,
    e: Exponents,
    restarts: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CertificationReport:
    """Hill-climb the distortion from random starts and the extremal point.

    Moves perturb one coordinate by +-step; a point pushed outside the ball
    is renormalized back to the sphere. A sweep offers every chain the moves
    (coordinate 0, +), (0, -), (1, +), ... in order, and a chain keeps the
    first move that beats its best. A chain that completes a sweep with no
    improvement halves its step; at most 200 sweeps. All chains advance in
    one fixed vectorized schedule, so the result is deterministic and the
    ``workers`` argument (accepted for interface uniformity) cannot affect
    it.

    Moves are scored in windows: each chain's next ``CLIMB_WINDOW`` moves,
    all built from its current point, go into one ``distortion`` call. The
    first winner of a window is the move the one-move-at-a-time schedule
    accepts, since every earlier move lost against the same point and best;
    the chain's next window starts right after it. The schedule, and so the
    report, is bit for bit the same as scoring one move at a time.
    """
    n, m, restarts = _validate_run(n, m, e, restarts, "restarts", workers)
    seed = int(seed)
    bound = distortion_bound(m, e)
    p, q = e.p, e.q

    starts = np.empty((restarts + 1, n), dtype=np.float64)
    # Chain 0 is the analytic extremal configuration (reported as index -1).
    starts[0] = extremal_vector(m, p, n) if m < n else 0.0
    factory = StreamFactory(seed, DOMAIN_CLIMB)
    for k in range(restarts):
        starts[k + 1] = sample_lp_ball(n, p, factory.generator(k))

    X = starts
    best = np.asarray(distortion(X, m, q))
    steps = np.full(restarts + 1, CLIMB_INITIAL_STEP)
    # Move j of a sweep adds +step (j even) or -step (j odd) to coordinate
    # j // 2; the tables are padded so a window may run past the last move.
    moves = 2 * n
    j = np.arange(moves + CLIMB_WINDOW)
    coord = np.minimum(j, moves - 1) // 2
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    window = np.arange(CLIMB_WINDOW)
    for _ in range(CLIMB_SWEEPS):
        improved = np.zeros(restarts + 1, dtype=bool)
        pos = np.zeros(restarts + 1, dtype=np.intp)  # each chain's next move
        active = np.arange(restarts + 1)
        while active.size:
            J = pos[active, None] + window
            Y = np.repeat(X[active], CLIMB_WINDOW, axis=0)
            Y[np.arange(Y.shape[0]), coord[J].ravel()] += (sign[J] * steps[active, None]).ravel()
            norms = np.sum(np.abs(Y) ** p, axis=1)
            over = norms > 1.0
            if np.any(over):
                Y[over] *= (norms[over] ** (-1.0 / p))[:, None]
            d = np.asarray(distortion(Y, m, q))
            win = (d.reshape(-1, CLIMB_WINDOW) > best[active, None]) & (J < moves)
            first = np.argmax(win, axis=1)
            hit = np.flatnonzero(win.any(axis=1))
            row = hit * CLIMB_WINDOW + first[hit]
            won = active[hit]
            X[won], best[won] = Y[row], d[row]
            improved[won] = True
            pos[active] += CLIMB_WINDOW
            pos[won] = J[hit, first[hit]] + 1
            active = active[pos[active] < moves]
        steps = np.where(improved, steps, steps * 0.5)
        if float(np.max(steps)) < CLIMB_MIN_STEP:
            break

    at = int(np.argmax(best))  # first occurrence: extremal chain wins ties
    value = float(best[at])
    return CertificationReport(
        n=n,
        m=m,
        exponents=e,
        sample_count=restarts,
        seed=seed,
        max_observed_distortion=value,
        bound=bound,
        margin=bound - value,
        argmax_vector=tuple(float(v) for v in X[at]),
    )


def check_lemma_swap(s: float, x: float, y: float, z: float) -> bool:
    """Verify x^s + (y+z)^s <= (x+z)^s + y^s for s >= 1, x >= y >= 0, z >= 0.

    Shifting mass z onto the larger of two values can only increase the sum
    of s-th powers. Checked with relative slack 1e-12.
    """
    s, x, y, z = _check_exponent(s, "power s"), float(x), float(y), float(z)
    if min(x, y, z) < 0.0:
        raise ValueError("arguments must be nonnegative")
    if x < y:
        raise ValueError(f"need x >= y, got x={x}, y={y}")
    lhs = x**s + (y + z) ** s
    rhs = (x + z) ** s + y**s
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def check_key_lemma(s: float, c: float, t: float, xs) -> bool:
    """Verify sum(x_i^s) <= c * t^(s-1) for 0 <= x_i <= t with sum(x_i) <= c.

    Preconditions are enforced (with relative slack 1e-12) and violations
    raise. The inequality itself is checked with the same slack.
    """
    s = _check_exponent(s, "power s")
    c, t = _check_nonnegative(c, "budget c"), _check_nonnegative(t, "cap t")
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("xs must be a nonempty 1-D list of reals")
    slack = 1e-12 * max(1.0, t, c)
    if np.any(arr < -slack) or np.any(arr > t + slack):
        raise ValueError(f"coordinates must lie in [0, {t}]")
    if float(np.sum(arr)) > c + slack:
        raise ValueError(f"coordinate sum exceeds the budget {c}")
    lhs = float(np.sum(np.clip(arr, 0.0, None) ** s))
    rhs = c * t ** (s - 1.0)
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def key_lemma_oracle_max(
    s: float,
    c: float,
    t: float,
    n: int,
    samples: int = 4096,
    seed: int = DEFAULT_SEED,
) -> float:
    """True maximum of sum(x_i^s) over {0 <= x_i <= t, sum <= c}, n coords.

    A convex objective on a polytope peaks at a vertex; the vertex family is
    k coordinates at t, one at min(t, c - k*t), the rest zero, for feasible
    k. Dense random interior sampling cross-checks the enumeration (it can
    confirm but never exceed the vertex maximum).
    """
    s = _check_exponent(s, "power s")
    c, t = _check_nonnegative(c, "budget c"), _check_nonnegative(t, "cap t")
    n = _check_int(n, "coordinate count n", 1)
    samples = _check_int(samples, "samples", 0)

    best = 0.0
    for k in range(n + 1):
        if k * t > c:
            break
        value = k * t**s
        if k < n:
            value += min(t, c - k * t) ** s
        best = max(best, value)

    if samples > 0 and t > 0.0:
        # cross-check only: scaled samples stay inside the polytope, so any
        # apparent excess beyond rounding means the vertex scan is wrong
        rng = StreamFactory(seed, DOMAIN_POLYTOPE).generator(0)
        U = rng.uniform(0.0, t, size=(samples, n))
        sums = np.sum(U, axis=1)
        over = sums > c
        if np.any(over):
            U[over] *= (c / sums[over])[:, None]
        sampled = float(np.max(np.sum(U**s, axis=1)))
        if sampled > best + 1e-9 * max(1.0, abs(best)):
            raise ArithmeticError(
                f"sampled objective {sampled} exceeds the vertex maximum {best}"
            )
    return best
