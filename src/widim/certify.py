"""Randomized and adversarial certification of the distortion bound.

The threshold map promises a dimension-free distortion ceiling
``(m+1)^-(1/p-1/q)`` over the unit p-ball. This module attacks that claim
three ways: uniform Monte Carlo sampling of the ball, derivative-free hill
climbing from random starts plus the analytic extremal configuration, and
exhaustive grid oracles for the two scalar inequalities the bound rests on.

Determinism contract: a report is a pure function of its parameters and
seed. Monte Carlo samples come in blocks of a fixed size independent of the
worker count; block b draws its rows from the isolated stream (seed, domain, b)
as consecutive chunks of a fixed row count that depends only on n, each drawn
whole and scored before the next is drawn. A run stops after the chunk that
holds its last sample, so sample i is the same whatever the requested sample
count. The maximum is reduced in chunk and block order with ties broken toward
the smallest sample index, so the same seed yields bit-identical reports for any
``workers`` value. Hill-climbing start k draws from the isolated stream (seed,
domain, k). These are the schedules; every draw is made in :mod:`widim._streams`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._streams import (DEFAULT_SEED, DOMAIN_BALL, DOMAIN_CLIMB, DOMAIN_POLYTOPE,
                       _fill_ball_rows, _signs, fresh_stream, sample_lp_ball)
from ._output import checked, pair_entries, read_pair, spelled
from .core import (BOUND_TOLERANCE, Exponents, _ball_mass, _check_cells, _check_exponent,
                   _check_finite, _check_float_int, _check_int, _check_nonnegative, _check_pair,
                   _check_seed, _lq_rows, _lq_slack, as_vector)
from .threshold_map import _distortion_rows, distortion, distortion_bound, extremal_vector

__all__ = [
    "CertificationReport",
    "monte_carlo_certify",
    "adversarial_certify",
    "check_lemma_swap",
    "check_key_lemma",
    "key_lemma_oracle_max",
]

#: Samples per evaluation block and per random stream. Fixed, so the block
#: layout (and therefore the reduced maximum) never depends on the worker
#: count or on the sample count. A block is drawn and scored in chunks of
#: max(1, _CHUNK_CELLS // n) rows, so no array of a run holds a whole block.
BLOCK = 4096

# Cells of one Monte Carlo chunk: 2^14 doubles, 128 KiB, which is glibc's
# default mmap threshold, so a chunk-sized temporary is mapped afresh or
# trimmed and faulted back in depending on the heap's history. A block
# therefore draws every chunk into one workspace allocated once.
_CHUNK_CELLS = 1 << 14

#: Hill-climbing schedule.
CLIMB_SWEEPS = 200
CLIMB_INITIAL_STEP = 0.25
CLIMB_MIN_STEP = 1e-12

#: Moves per chain scored in one batch by the hill climb.
CLIMB_WINDOW = 8


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one certification run.

    ``margin = bound - max_observed_distortion``; the run certifies the
    bound iff ``margin >= -1e-9``. ``elapsed`` is always None, so the report
    texts keep a null (JSON) or empty (CSV) ``elapsed`` column.
    """

    n: int = checked(_check_int, "dimension n", 1)
    m: int = checked(_check_float_int, "sparsity m", 0)
    exponents: Exponents = spelled(json=pair_entries, csv=pair_entries, read=read_pair)
    sample_count: int = checked(_check_int, "sample count", 1)
    seed: int = checked(_check_seed)
    max_observed_distortion: float = checked(_check_nonnegative, "max observed distortion")
    bound: float = checked(_check_nonnegative, "bound")
    margin: float = checked(_check_finite, "margin")
    argmax_vector: tuple = spelled(read=lambda x: tuple(as_vector(x).tolist()))
    elapsed: float | None = field(default=None, init=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.margin >= -BOUND_TOLERANCE


def _validate_run(n, m, e, count, count_name, workers, seed):
    """The checked (n, m, count, seed) of a run."""
    _check_pair(e)
    n, m = _check_int(n, "dimension n", 1), _check_float_int(m, "sparsity m", 0)
    count, _ = _check_int(count, count_name, 1), _check_int(workers, "workers", 1)
    return n, m, count, _check_seed(seed)


def _report(n, m, e, count, seed, value, x) -> CertificationReport:
    """The report of a run whose largest distortion ``value`` was found at ``x``."""
    bound = distortion_bound(m, e)
    return CertificationReport(n, m, e, count, seed, value, bound, bound - value,
                               tuple(float(v) for v in x))


def _sample_block(seed, b, n, p):
    """Block b of the Monte Carlo sample set: BLOCK rows from stream b, drawn
    whole as consecutive chunks of max(1, _CHUNK_CELLS // n) rows into one
    workspace per call. A chunk is yielded as its magnitudes, a view valid until
    the next chunk is drawn (|X| at p = 2 and p = inf, the drawn batch elsewhere),
    and a function that returns row r, signed, as a fresh array: it reads only
    signs r * n to r * n + n - 1 of the chunk's sign words."""
    rng = fresh_stream(seed, DOMAIN_BALL, b)
    rows = max(1, _CHUNK_CELLS // n)
    X, S = np.empty((2, min(rows, BLOCK), n))
    for lo in range(0, BLOCK, rows):
        k = min(rows, BLOCK - lo)
        words = _fill_ball_rows(X[:k], S[:k], p, rng, None)
        if words is None:
            yield np.abs(X[:k], out=S[:k]), lambda r: X[r].copy()
        else:
            yield X[:k], lambda r, w=words: X[r] * _signs(w, r * n, n)


def monte_carlo_certify(
    n: int,
    m: int,
    e: Exponents,
    samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CertificationReport:
    """Evaluate the distortion on uniform ball samples plus the extremal point.

    The analytic extremal configuration participates as pseudo-index -1, so it wins
    ties and the reported maximum can never undershoot the known equality case. The
    map moves no coordinate by more than its magnitude, so a block scores, with the
    unchecked row kernel, only the chunk rows whose q-norm times
    :func:`~widim.core._lq_slack` beats its best so far, which starts at the extremal
    distortion (m < n): a row left out can neither beat the best nor win a tie. Only
    a winning row is signed. Deterministic for a fixed seed, independent of workers.
    """
    n, m, samples, seed = _validate_run(n, m, e, samples, "samples", workers, seed)
    _check_cells(BLOCK, n, "Monte Carlo block")  # counted whole, though drawn in chunks
    ext = extremal_vector(m, e.p, n) if m < n else None
    start = (-math.inf, None, None) if ext is None else (float(distortion(ext, m, e.q)), -1, ext)

    def eval_block(b):
        lo, best = b * BLOCK, start
        for A, signed in _sample_block(seed, b, n, e.p):
            A = A[: samples - lo]
            rows = np.flatnonzero(_lq_rows(A, e.q) * _lq_slack(n) > best[0])
            if rows.size:
                d = _distortion_rows(A.take(rows, axis=0), m, e.q)
                off = int(np.argmax(d))  # first occurrence: smallest index wins ties
                if d[off] > best[0]:  # the extremal point and earlier chunks win ties
                    best = float(d[off]), lo + int(rows[off]), signed(rows[off])
            lo += len(A)
            if lo >= samples:
                break
        return best

    blocks = range(-(-samples // BLOCK))
    if workers > 1:
        threads = min(int(workers), os.cpu_count() or 1, len(blocks))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_block, blocks))
    else:
        results = [eval_block(b) for b in blocks]

    value, _, x = max([start, *results], key=lambda cand: cand[0])  # ties keep the earlier index
    return _report(n, m, e, samples, seed, value, x)


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

    Moves are scored in windows: every chain's next ``CLIMB_WINDOW`` moves,
    all built from its current point, go into one fixed-shape batch scored
    by the unchecked kernel of ``distortion``. The first winner of a window
    is the move the one-move-at-a-time schedule accepts, since every earlier
    move lost against the same point and best; the chain's next window
    starts right after it. The schedule, and so the report, is bit for bit
    the same as scoring one move at a time.
    """
    n, m, restarts, seed = _validate_run(n, m, e, restarts, "restarts", workers, seed)
    _check_cells(CLIMB_WINDOW * (restarts + 1), n, "hill-climb window")
    p, q = e.p, e.q

    starts = np.empty((restarts + 1, n), dtype=np.float64)
    # Chain 0 is the analytic extremal configuration (reported as index -1).
    starts[0] = extremal_vector(m, p, n) if m < n else 0.0
    for k in range(restarts):
        starts[k + 1] = sample_lp_ball(n, p, fresh_stream(seed, DOMAIN_CLIMB, k))

    X = starts
    best = distortion(X, m, q)
    steps = np.full(restarts + 1, CLIMB_INITIAL_STEP)
    # Move j of a sweep adds +step (j even) or -step (j odd) to coordinate
    # j // 2; the tables are padded so a window may run past the last move.
    moves = 2 * n
    j = np.arange(moves + CLIMB_WINDOW)
    coord = np.minimum(j, moves - 1) // 2
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    chains = np.arange(restarts + 1)
    window = np.arange(CLIMB_WINDOW)
    # Chain c's move w of a window is row c * CLIMB_WINDOW + w of Y, whose
    # first entry sits at flat offset cell[c, w].
    row0 = chains * CLIMB_WINDOW
    cell = (row0[:, None] + window) * n
    for _ in range(CLIMB_SWEEPS):
        improved = np.zeros(restarts + 1, dtype=bool)
        pos = np.zeros(restarts + 1, dtype=np.intp)  # each chain's next move
        # Every window scores all chains; a chain past its last move has no
        # legal move (J >= moves) left, so it can never win.
        while pos.min() < moves:
            J = np.minimum(pos, moves)[:, None] + window
            Y = X.repeat(CLIMB_WINDOW, axis=0)
            Y.ravel()[(cell + coord.take(J)).ravel()] += (steps[:, None] * sign.take(J)).ravel()
            A = np.abs(Y)
            # Rows inside the ball get f = 1.0, which is exact. |f y| = f |y|
            # for f > 0, so A is scaled here and Y only in the rows kept.
            f = (np.maximum(_ball_mass(A, p), 1.0) ** (-1.0 / p))[:, None]
            A *= f
            d = _distortion_rows(A, m, q)
            win = (d.reshape(-1, CLIMB_WINDOW) > best[:, None]) & (J < moves)
            first = win.argmax(axis=1)  # 0 when nothing wins
            row = row0 + first
            hit = win.ravel().take(row)
            np.copyto(X, Y.take(row, axis=0) * f.take(row, axis=0), where=hit[:, None])
            best = np.where(hit, d.take(row), best)
            improved |= hit
            pos += np.where(hit, first + 1, CLIMB_WINDOW)
        steps = np.where(improved, steps, steps * 0.5)
        if float(np.max(steps)) < CLIMB_MIN_STEP:
            break

    at = int(np.argmax(best))  # first occurrence: extremal chain wins ties
    return _report(n, m, e, restarts, seed, float(best[at]), X[at])


def _within(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the lemma checks' relative slack of 1e-12."""
    return lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def _key_lemma_bound(s: float, c: float, t: float) -> float:
    """The key lemma's ceiling c * t^(s-1) on sum(x_i^s)."""
    try:
        return c * t ** (s - 1.0)
    except OverflowError:
        raise ValueError(f"the key lemma's bound c * t^(s-1) overflows a float at s = {s}, "
                         f"t = {t}") from None


def check_lemma_swap(s: float, x: float, y: float, z: float) -> bool:
    """Verify x^s + (y+z)^s <= (x+z)^s + y^s for s >= 1, x >= y >= 0, z >= 0.

    Shifting mass z onto the larger of two values can only increase the sum
    of s-th powers. Checked with relative slack 1e-12; x, y and z must be
    finite.
    """
    s = _check_exponent(s, "power s")
    x, y, z = (_check_nonnegative(x, "value x"), _check_nonnegative(y, "value y"),
               _check_nonnegative(z, "shift z"))
    if x < y:
        raise ValueError(f"need x >= y, got x={x}, y={y}")
    try:
        return _within(x**s + (y + z) ** s, (x + z) ** s + y**s)
    except OverflowError:
        raise ValueError(f"the swap's powers x^s, (y+z)^s, (x+z)^s and y^s overflow a float at "
                         f"s = {s}, x = {x}, y = {y}, z = {z}") from None


def check_key_lemma(s: float, c: float, t: float, xs) -> bool:
    """Verify sum(x_i^s) <= c * t^(s-1) for 0 <= x_i <= t with sum(x_i) <= c.

    Preconditions are enforced (with relative slack 1e-12) and violations
    raise. The inequality itself is checked with the same slack.
    """
    s = _check_exponent(s, "power s")
    c, t = _check_nonnegative(c, "budget c"), _check_nonnegative(t, "cap t")
    arr = as_vector(xs)
    slack = 1e-12 * max(1.0, t, c)
    if np.any(arr < -slack) or np.any(arr > t + slack):
        raise ValueError(f"coordinates must lie in [0, {t}]")
    if float(np.sum(arr)) > c + slack:
        raise ValueError(f"coordinate sum exceeds the budget {c}")
    return _within(float(np.sum(np.clip(arr, 0.0, None) ** s)), _key_lemma_bound(s, c, t))


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
    k, and the greedy vertex k = min(n, floor(c/t)) or the one before it
    holds the maximum. Dense random interior sampling cross-checks it (it
    can confirm but never exceed the vertex maximum).
    """
    s = _check_exponent(s, "power s")
    c, t = _check_nonnegative(c, "budget c"), _check_nonnegative(t, "cap t")
    n = _check_float_int(n, "coordinate count n", 1)  # the vertex test k * t <= c
    samples = _check_int(samples, "samples", 0)
    seed = _check_seed(seed)
    _check_cells(samples, n, "oracle sample set")

    # Vertex k scores k t^s + min(t, c - k t)^s, which rises with k up to the
    # last k with k * t <= c (that float test, bisected); rounding may favour
    # the vertex before it, so both are evaluated.
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid * t <= c else (lo, mid - 1)
    best = 0.0
    try:
        for k in range(max(lo - 1, 0), lo + 1):
            value = k * t**s if k else 0.0  # vertex 0 has no coordinate at t
            if k < n:
                value += min(t, c - k * t) ** s
            best = max(best, value)
    except OverflowError:
        raise ValueError(f"the key lemma's vertex value k * t^s + min(t, c - k * t)^s overflows "
                         f"a float at s = {s}, t = {t}") from None

    if samples > 0 and t > 0.0:
        # cross-check only: scaled samples stay inside the polytope, so any
        # apparent excess beyond rounding means the vertex scan is wrong
        rng = fresh_stream(seed, DOMAIN_POLYTOPE, 0)
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
