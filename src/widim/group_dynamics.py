"""Desk-scale lattice dynamics: weighted metrics, tail sets, and the embedding check.

Points here are finitely supported elements of the unit p-ball over the
integer lattice Z^d. A summable positive weight induces a distance
``d(x, y) = sum_gamma w(gamma) |x_gamma - y_gamma|``, and translating both
points over a finite probe set Omega gives the dynamical distance
``d_Omega = max over translates``. Because the weight's tail is certified
by a closed form, every probe direction only sees a finite coordinate box
up to eps/4 of mass, and projecting to the union of those boxes followed by
the sparsifying threshold map embeds the ball at scale eps with a
coordinate count that does not grow with Omega. The ratio of that constant
to the size of growing boxes is the vanishing quantity the
:func:`mean_dimension_table` tabulates.

The embedding check draws pair i in fixed block i // PAIR_DRAW (512 pairs), one
stream per block, by the sparse ball draw of :mod:`widim._streams`, scores a block's
close pairs in slices of SCORE_ROWS (64) and merges them in index order, so a report
is a pure function of its parameters and seed. Each probe's weights are a slice of one
box of weights, which the geometric weight builds per norm |gamma|_1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._streams import DEFAULT_SEED, DOMAIN_PAIRS, _sparse_ball_rows, fresh_stream
from ._streams import sample_lp_ball  # noqa: F401 (perfbench/tracing.py wraps this name)
from ._output import checked, exponent, spelled
from .bounds import _power, guarded_count
from .core import (BOUND_TOLERANCE, _ball_mass, _check_cells, _check_exponent, _check_finite,
                   _check_in_ball, _check_int, _check_nonnegative, _check_reals, _check_scale,
                   _check_seed, _lq_rows)

__all__ = [
    "LatticeBox",
    "WeightedGroupMetric",
    "geometric_weight_metric",
    "FinitelySupportedPoint",
    "translate",
    "weighted_distance",
    "omega_distance",
    "tail_set",
    "widim_constant",
    "EmbeddingReport",
    "embedding_check",
    "MeanDimensionTable",
    "mean_dimension_table",
]

#: Cap on drawn support sizes, keeping sampled points genuinely sparse.
MAX_SUPPORT = 8
MAX_OUTSIDE_SUPPORT = 6


def _coords(gamma) -> tuple:
    seq = gamma if isinstance(gamma, (tuple, list)) else np.atleast_1d(gamma)
    return tuple(_check_int(v, "lattice coordinate", None) for v in seq)


def _as_point(gamma, dim: int) -> tuple:
    pt = _coords(gamma)
    if len(pt) != dim:
        raise ValueError(f"lattice point {pt} does not match dimension {dim}")
    return pt


def _probe_set(omega, dim: int) -> tuple:
    """The probe set Omega as sorted distinct lattice points of dimension ``dim``, nonempty."""
    deltas = tuple(sorted(_as_point(d, dim) for d in omega))
    if not deltas or len(set(deltas)) < len(deltas):
        raise ValueError("omega must be a nonempty set of distinct lattice points")
    return deltas


@dataclass(frozen=True)
class LatticeBox:
    """The cube of lattice points within sup-distance ``radius`` of ``center``."""

    center: tuple
    radius: int

    def __post_init__(self):
        center = _coords(self.center)
        if len(center) < 1:
            raise ValueError("box center must have at least one coordinate")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _check_int(self.radius, "box radius", 0))

    @property
    def dim(self) -> int:
        return len(self.center)

    def __len__(self) -> int:
        return (2 * self.radius + 1) ** self.dim

    def __contains__(self, gamma) -> bool:
        pt = _as_point(gamma, self.dim)
        return all(abs(a - b) <= self.radius for a, b in zip(pt, self.center))

    def __iter__(self):
        side = range(-self.radius, self.radius + 1)
        for offset in itertools.product(side, repeat=self.dim):
            yield tuple(c + o for c, o in zip(self.center, offset))


@dataclass(frozen=True, eq=False)
class WeightedGroupMetric:
    """A positive summable weight on Z^d with certified mass accounting.

    ``weight`` maps a lattice point to its mass. ``total_bound`` is a closed
    form upper bound (at most 1) on the full sum, and ``tail_bound(K)``
    certifies the mass outside the centered box of radius K, exactly for the
    built-in geometric family. Weights and tails are nonnegative finite reals.
    """

    dim_d: int
    weight: Callable[[tuple], float]
    tail_bound: Callable[[int], float]
    total_bound: float
    description: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "dim_d", _check_int(self.dim_d, "lattice dimension d", 1))
        total = _check_scale(self.total_bound, "total weight bound")
        if total > 1.0:
            raise ValueError(f"total weight bound must lie in (0, 1], got {total}")
        object.__setattr__(self, "total_bound", total)

    def _tail_exceeds(self, radius: int, target: float) -> bool:
        """Whether the certified mass outside the box of this radius exceeds target."""
        return _check_nonnegative(self.tail_bound(radius), "weight tail") > target

    def _box_weights(self, reach: int) -> np.ndarray:
        """w(o) at index o + reach for every offset o in the box [-reach, reach]^d:
        one weight call per box point, in :class:`LatticeBox` order."""
        box = LatticeBox((0,) * self.dim_d, reach)
        return np.array([_check_nonnegative(self.weight(o), "weight")
                         for o in box]).reshape((2 * reach + 1,) * self.dim_d)


def geometric_weight_metric(
    dim_d: int = 1, base: float = 2.0, total: float = 0.75
) -> WeightedGroupMetric:
    """The default weight family: w(gamma) = scale * base^-|gamma|_1.

    ``scale`` is chosen in closed form so the full sum equals ``total``
    (for d = 1, base = 2, total = 3/4 this gives w(0) = 1/4). Per-axis
    geometric decay makes box partial sums a product of geometric series,
    so the tail bound is an exact closed form, not an estimate.
    """
    dim_d = _check_int(dim_d, "lattice dimension d", 1)
    base, total = _check_scale(base, "decay base"), _check_scale(total, "total weight bound")
    if base <= 1.0:  # the weights base^-|k| must decay
        raise ValueError(f"decay base must be a finite real above 1, got {base!r}")
    axis_total = (base + 1.0) / (base - 1.0)  # sum over one axis of base^-|k|
    try:
        scale = total / axis_total**dim_d
    except OverflowError:
        raise ValueError(f"lattice dimension d = {dim_d} is too large for decay base {base:g}:"
                         f" the weight normalizer ((base + 1)/(base - 1))^d overflows") from None

    def weight(gamma) -> float:
        pt = _as_point(gamma, dim_d)
        return scale * base ** (-sum(abs(v) for v in pt))

    def tail_bound(radius: int) -> float:
        # total * (1 - (1 - 2 base^-R / (base + 1))^d), the mass outside the
        # box, in a form without cancellation: total minus the box sum
        # rounds to 0 once the tail falls below total's last bit.
        radius = _check_int(radius, "tail radius", 0)
        shrink = -2.0 * base ** (-radius) / (base + 1.0)
        return -total * math.expm1(dim_d * math.log1p(shrink))

    return _GeometricWeight(
        dim_d=dim_d,
        weight=weight,
        tail_bound=tail_bound,
        total_bound=total,
        description=f"geometric(d={dim_d}, base={base:g}, total={total:g})",
        base=base,
    )


@dataclass(frozen=True, eq=False)
class _GeometricWeight(WeightedGroupMetric):
    """The geometric family, which keeps its base to know its tail exactly."""

    base: float = 2.0

    def _tail_exceeds(self, radius: int, target: float) -> bool:
        """Whether total * (1 - (1 - 2 base^-R / (base + 1))^d) > target. A tail
        bound within a relative 1e-9 of target is replaced by the exact rational
        tail, so a tie is decided by the weight's float parameters rather than
        by the rounding of its closed form."""
        tail = self.tail_bound(radius)
        if abs(tail - target) > 1e-9 * target:
            return tail > target
        from fractions import Fraction  # imported here: only ties need it

        b = Fraction(self.base)
        inside = 1 - 2 / ((b + 1) * b**radius)
        return Fraction(self.total_bound) * (1 - inside**self.dim_d) > Fraction(target)

    def _box_weights(self, reach: int) -> np.ndarray:
        """The weight depends only on |gamma|_1: one weight call per norm k, at
        the axis point (k, 0, ..., 0), so every entry is the closure's own
        Python float (numpy's vector power can differ from it in the last bit)."""
        rest, axis = (0,) * (self.dim_d - 1), np.abs(np.arange(-reach, reach + 1))
        norms = sum(np.ix_(*[axis] * self.dim_d))  # |o|_1 at index o + reach
        return np.array([self.weight((k,) + rest) for k in range(self.dim_d * reach + 1)])[norms]


def _sparse(support, values) -> tuple:
    """Lattice points of one dimension and one finite real per point, as two lists."""
    pts = [_coords(pt) for pt in support]
    vals = _check_reals(values, "point values")[0][0].tolist() if len(values) else []
    if len(pts) != len(vals):
        raise ValueError("support and values must have equal length")
    if len(set(len(pt) for pt in pts)) > 1:
        raise ValueError("support points must share one dimension")
    return pts, vals


@dataclass(frozen=True)
class FinitelySupportedPoint:
    """A lattice point assignment with finite support inside the unit p-ball.

    Stored canonically: support sorted lexicographically, exact zeros
    dropped. Construction validates ball membership with
    :data:`~widim.core.BALL_TOLERANCE` slack.
    """

    support: tuple
    values: tuple
    p: float
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = _check_exponent(self.p, "ball exponent p")
        pts, vals = _sparse(self.support, self.values)
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be distinct")
        kept = sorted((pt, v) for pt, v in zip(pts, vals) if v != 0.0)
        pts = tuple(pt for pt, _ in kept)
        vals = tuple(v for _, v in kept)
        if vals:
            _check_in_ball(np.array([vals]), p)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_index", dict(zip(pts, vals)))

    @property
    def dim(self) -> Optional[int]:
        return len(self.support[0]) if self.support else None

    def value_at(self, gamma) -> float:
        return self._index.get(_coords(gamma), 0.0)

    __hash__ = None


def translate(x: FinitelySupportedPoint, delta) -> FinitelySupportedPoint:
    """Shift the point: the new value at gamma is the old value at delta + gamma."""
    if not x.support:
        return x
    d = _as_point(delta, len(x.support[0]))
    moved = tuple(tuple(c - o for c, o in zip(pt, d)) for pt in x.support)
    return FinitelySupportedPoint(moved, x.values, x.p)


def weighted_distance(
    x: FinitelySupportedPoint, y: FinitelySupportedPoint, M: WeightedGroupMetric
) -> float:
    """Exact weighted coordinate-difference sum over the union of supports.

    Terms are accumulated in sorted support order, so equal inputs produce
    bit-equal sums.
    """
    if x.p != y.p:
        raise ValueError(f"points use different ball exponents: {x.p} vs {y.p}")
    total = 0.0
    for gamma in sorted(set(x.support) | set(y.support)):
        w = _check_nonnegative(M.weight(gamma), "weight")
        total += w * abs(x.value_at(gamma) - y.value_at(gamma))
    return total


def omega_distance(
    x: FinitelySupportedPoint,
    y: FinitelySupportedPoint,
    M: WeightedGroupMetric,
    omega,
) -> float:
    """max over delta in omega of the weighted distance between translates."""
    return max(weighted_distance(translate(x, delta), translate(y, delta), M)
               for delta in _probe_set(omega, M.dim_d))


def tail_set(M: WeightedGroupMetric, delta, eps: float) -> LatticeBox:
    """Smallest certified box around delta whose complement weighs at most eps/4,
    as the weight's own tail test decides it: the geometric family decides a
    near tie in exact rationals.
    """
    eps = _check_scale(eps)
    center = _as_point(delta, M.dim_d)
    radius = 0
    while M._tail_exceeds(radius, eps / 4.0):
        radius += 1
        if radius > 100_000:
            raise ValueError("weight tail decays too slowly for this scale")
    return LatticeBox(center=center, radius=radius)


def widim_constant(p: float, eps: float) -> Optional[int]:
    """The probe-set-independent width ceiling ceil((4/eps)^p) - 1.

    Uses the same guarded ceiling as the bound formulas; returns None in
    the saturation regime (astronomically small eps).
    """
    p, eps = _check_exponent(p, "ball exponent p"), _check_scale(eps)
    return guarded_count(_power(4.0 / eps, p))


# --------------------------------------------------------------------------
# Embedding check


def _read_witness(doc: dict) -> dict:
    """A report's witness: an index of at least 0, a finite margin, points x and y."""
    witness = {"index": _check_int(doc["index"], "witness index", 0),
               "margin": _check_finite(doc["margin"], "witness margin")}
    for k in ("x", "y"):
        support, values = _sparse(doc[k]["support"], doc[k]["values"])
        witness[k] = {"support": [list(pt) for pt in support], "values": values}
    return witness


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of the projection-embedding soundness run.

    For every sampled pair whose projections to the union box agree within
    eps/2 in the sup norm, the dynamical distance must stay at or below eps
    (+ 1e-9). ``worst_margin`` is the largest d_Omega - eps among checked
    pairs (negative is healthy); ``witness`` carries the first violating
    pair, if any. ``elapsed`` is always None, so the report texts keep a
    null (JSON) or empty (CSV) ``elapsed`` column.
    """

    dim_d: int = checked(_check_int, "dimension d", 1)
    p: float = exponent("ball exponent p")
    eps: float = checked(_check_scale)
    omega: tuple = spelled(csv=lambda omega: {"omega_size": len(omega)}, read=lambda points:
                           _probe_set(points, len(_coords(points[0])) if len(points) else 1))
    omega_prime_size: int = checked(_check_int, "omega_prime_size", 0)
    sample_count: int = checked(_check_int, "sample count", 1)
    seed: int = checked(_check_seed)
    checked_count: int = checked(_check_int, "checked count", 0)
    failure_count: int = checked(_check_int, "failure count", 0)
    worst_margin: Optional[float] = checked(_check_finite, "worst margin", null=True)
    witness: Optional[dict] = checked(_read_witness, null=True, csv=lambda witness: {})
    elapsed: Optional[float] = field(default=None, init=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


#: Pairs drawn from one stream in one pass.
PAIR_DRAW = 512

#: Close pairs of a block scored together, so that a block's one d_Omega temporary stays that
#: of a 64-pair block: |Omega| * SCORE_ROWS * 22 doubles whatever the window, at most 23 MiB,
#: as core.MAX_CELLS caps |Omega| * |window| and the window contains Omega, so |Omega| <= 2^11.
SCORE_ROWS = 64


def _union(xc, xv, yc, yv) -> tuple:
    """Per pair of sparse rows: the union of its columns in ascending order, C,
    and |x - y| on them, D.

    The slots of x and of -y are ordered by one stable sort of their columns,
    so a column both points hold has x's slot first; x's value is added into
    y's slot (a + (-b) is exactly the dense a - b) and x's slot is zeroed.
    Unused slots have column -1 and value 0, so merging them changes nothing.
    """
    C = np.concatenate([xc, yc], axis=1)
    order = np.argsort(C, axis=1, kind="stable")
    C = np.take_along_axis(C, order, axis=1)
    V = np.take_along_axis(np.concatenate([xv, -yv], axis=1), order, axis=1)
    shared = C[:, 1:] == C[:, :-1]
    V[:, 1:][shared] += V[:, :-1][shared]
    V[:, :-1][shared] = 0.0
    return C, np.abs(V)


class _Window:
    """Pairs as sparse rows over the window [-R, R]^d in lexicographic order.

    Row k of the weight table holds w(gamma - delta_k) for the window points
    gamma, a slice of the weights on [-reach, reach]^d (reach = R + max
    |delta|_inf), so translating both points by delta_k only selects a row. A
    pair's products are folded left to right in ascending column order, the
    order :func:`weighted_distance` sums in (translation keeps lexicographic
    order), and a zeroed or unused slot adds exactly +0.0. So
    :meth:`omega_distances` equals the sparse :func:`omega_distance` bit for
    bit, which ``np.sum`` or a matrix product, summing in another order, need not.
    """

    def __init__(self, M, deltas, tail_radius: int, window_radius: int | None = None):
        shift = max(max(abs(c) for c in delta) for delta in deltas)  # max |delta|_inf
        window_radius = 2 * (shift + tail_radius) if window_radius is None else window_radius
        side, reach = 2 * window_radius + 1, window_radius + shift
        _check_cells(len(deltas), side**M.dim_d, "weight table |omega| x |window|")
        _check_cells(1, (2 * reach + 1) ** M.dim_d, "weight box")
        box, self.radius, self.shape = M._box_weights(reach), window_radius, (side,) * M.dim_d
        self.weights, inside = np.empty((len(deltas), side**M.dim_d)), np.zeros(self.shape, bool)
        lo, hi = window_radius - tail_radius, window_radius + tail_radius + 1
        for row, delta in zip(self.weights, deltas):
            # window index gamma + R holds w(gamma - delta), at box index gamma - delta + reach;
            # a union-box slice clamps both ends at 0, as a probe may lie past the window edge
            row[:] = box[tuple(slice(shift - c, shift - c + side) for c in delta)].ravel()
            inside[tuple(slice(max(c + lo, 0), max(c + hi, 0)) for c in delta)] = True
        self.inside = inside.ravel()
        self.outside_columns = np.flatnonzero(~self.inside)

    def draw_block(self, gen, first: int, p: float, eps: float) -> tuple:
        """Pairs first .. first + PAIR_DRAW - 1 as sparse rows: x_cols, x_vals,
        y_cols, y_vals, where column -1 and value 0 mark an unused slot.

        Kinds cycle with the index: independent, tail-only, perturbed. Points
        (every x, then the y of each kind-0 pair) are sparse ball draws on 1 to
        min(window, MAX_SUPPORT) columns. Kind 1 keeps x inside the union box,
        then draws on 0 to min(outside, MAX_OUTSIDE_SUPPORT) outside columns,
        scaled by the budget (1 - inside mass)^(1/p), unless none is outside.
        Kind 2 adds noise in [-eps/8, eps/8) where x is nonzero and scales
        the row back into the ball if it left it.
        """
        ncol, outside = self.weights.shape[1], self.outside_columns
        kinds = (first + np.arange(PAIR_DRAW)) % 3
        own, tail, jitter = (np.flatnonzero(kinds == k) for k in range(3))
        width, cap = min(ncol, MAX_SUPPORT), min(outside.size, MAX_OUTSIDE_SUPPORT)
        cols, vals = _sparse_ball_rows(PAIR_DRAW + own.size, 1, width, ncol, p, gen)
        xc, xv = cols[:PAIR_DRAW], vals[:PAIR_DRAW]
        yc, yv = np.full((PAIR_DRAW, width + cap), -1), np.zeros((PAIR_DRAW, width + cap))
        yc[own, :width], yv[own, :width] = cols[PAIR_DRAW:], vals[PAIR_DRAW:]
        # Kind 1 tests the tail branch: x inside the union box, fresh mass outside.
        inside = (xc[tail] >= 0) & self.inside[xc[tail]]
        yc[tail, :width] = np.where(inside, xc[tail], -1)
        yv[tail, :width] = np.where(inside, xv[tail], 0.0)
        if cap:
            picks, fresh = _sparse_ball_rows(tail.size, 0, cap, outside.size, p, gen)
            if not math.isinf(p):
                mass_in = _ball_mass(np.abs(yv[tail, :width]), p)
                fresh *= (np.maximum(1.0 - mass_in, 0.0) ** (1.0 / p))[:, None]
            yc[tail, width:] = np.where(picks >= 0, outside[picks], -1)
            yv[tail, width:] = fresh
        # Kind 2: a sup-norm perturbation well inside the hypothesis threshold.
        noise = gen.uniform(-eps / 8.0, eps / 8.0, (jitter.size, width))
        v = xv[jitter] + noise * (xv[jitter] != 0.0)
        norm = _lq_rows(np.abs(v), p)
        yc[jitter, :width], yv[jitter, :width] = xc[jitter], v / np.maximum(norm, 1.0)[:, None]
        return xc, xv, yc, yv

    def payload(self, cols, vals, p) -> dict:
        """The witness form of one sparse row, checked as a point."""
        used = cols >= 0
        support = np.stack(np.unravel_index(cols[used], self.shape), axis=-1) - self.radius
        x = FinitelySupportedPoint(tuple(map(tuple, support.tolist())), vals[used].tolist(), p)
        return {"support": [list(pt) for pt in x.support], "values": list(x.values)}

    def gaps(self, C: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Per pair of :func:`_union`: the sup-norm distance of the
        projections to the union box."""
        return _lq_rows(np.where((C >= 0) & self.inside[C], D, 0.0), math.inf)

    def omega_distances(self, C: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Per pair of :func:`_union`: d_Omega, every probe row in one pass."""
        W = self.weights[:, C]  # the one temporary: the products, then their running sums
        return np.cumsum(np.multiply(W, D, out=W), axis=2, out=W)[..., -1].max(axis=0)


def embedding_check(
    M: WeightedGroupMetric,
    omega,
    p: float,
    eps: float,
    samples: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> EmbeddingReport:
    """Sample point pairs and verify the projection-embedding inequality.

    Builds the union of per-probe tail boxes, draws pairs with support in a
    window twice the union's radius (so a controlled share of mass sits
    outside the projection), and whenever two points project within eps/2
    of each other in the sup norm asserts their dynamical distance is at
    most eps + 1e-9. Pair kinds cycle through independent draws, pairs
    differing only outside the union box, and small perturbations, so both
    halves of the estimate (projection term and tail term) are exercised.
    Runs whose weight table (|Omega| times the window size) or box of weights
    would exceed :data:`core.MAX_CELLS` entries are refused with ``ValueError``.

    Pair i belongs to block b = i // :data:`PAIR_DRAW` (512 pairs), drawn in
    full from stream (seed, b) in one pass, so pair i never depends on
    ``samples``. Each block is scored on its sparse rows: their values are
    checked for finiteness and ball membership as the point constructor
    checks them, one vectorised pass computes their gaps over the union of
    each pair's columns, and the close pairs' d_Omega is computed in slices
    of :data:`SCORE_ROWS` (64) rows, so a block's memory grows neither with
    the window nor with the block size. Rows are independent and results
    merge in index order, so the slice size cannot change the report, and a
    :class:`FinitelySupportedPoint` is built only for the first failure's
    witness. ``workers`` is accepted for interface uniformity and cannot
    affect the report.
    """
    p, eps = _check_exponent(p, "ball exponent p"), _check_scale(eps)
    samples = _check_int(samples, "samples", 1)
    _check_int(workers, "workers", 1)  # serial scan; see docstring
    seed = _check_seed(seed)

    if hasattr(omega, "__len__"):  # called directly: len() overflows past sys.maxsize
        size = omega.__len__()  # the window holds Omega, so the table holds |Omega|^2 cells
        _check_cells(size, size, "probe set")
    deltas = _probe_set(omega, M.dim_d)

    # Every tail box has the same radius; only its center moves with delta.
    window = _Window(M, deltas, tail_set(M, deltas[0], eps).radius)

    checked = failures = 0
    worst = witness = None
    for first in range(0, samples, PAIR_DRAW):
        gen = fresh_stream(seed, DOMAIN_PAIRS, first // PAIR_DRAW)
        xc, xv, yc, yv = (a[: samples - first] for a in window.draw_block(gen, first, p, eps))
        _check_in_ball(xv, p)
        _check_in_ball(yv, p)
        C, D = _union(xc, xv, yc, yv)
        close = np.flatnonzero(window.gaps(C, D) <= eps / 2.0)
        if not close.size:
            continue
        slices = (close[lo: lo + SCORE_ROWS] for lo in range(0, close.size, SCORE_ROWS))
        margins = np.concatenate([window.omega_distances(C[s], D[s]) for s in slices]) - eps
        checked += close.size
        top = float(margins.max())
        worst = top if worst is None else max(worst, top)
        bad = np.flatnonzero(margins > BOUND_TOLERANCE)
        failures += bad.size
        if bad.size and witness is None:
            r = int(close[bad[0]])
            witness = {
                "index": first + r,
                "margin": float(margins[bad[0]]),
                "x": window.payload(xc[r], xv[r], p),
                "y": window.payload(yc[r], yv[r], p),
            }

    return EmbeddingReport(
        dim_d=M.dim_d,
        p=p,
        eps=eps,
        omega=deltas,
        omega_prime_size=int(window.inside.sum()),
        sample_count=samples,
        seed=seed,
        checked_count=checked,
        failure_count=failures,
        worst_margin=worst,
        witness=witness,
    )


# --------------------------------------------------------------------------
# Mean dimension table


@dataclass(frozen=True)
class MeanDimensionTable:
    """Rows (radius, box size, constant, ratio) for growing probe boxes.

    The width ceiling is a constant in the box size, so the ratio column
    decreases strictly to zero: the per-coordinate dimension count of the
    ball vanishes.
    """

    dim_d: int = checked(_check_int, "dimension d", 1)
    p: float = exponent("ball exponent p")
    eps: float = checked(_check_scale)
    constant: int = checked(_check_int, "widim constant", 0, key="widim_constant")
    rows: tuple = spelled(  # of (radius, omega_size, ratio), each a JSON object
        json=lambda rows: [{"radius": r, "omega_size": size, "ratio": ratio}
                           for r, size, ratio in rows],
        read=lambda rows: tuple((_check_int(row["radius"], "box radius", 0),
                                 _check_int(row["omega_size"], "omega size", 1),
                                 _check_nonnegative(row["ratio"], "ratio")) for row in rows))


def mean_dimension_table(
    M: WeightedGroupMetric, p: float, eps: float, box_radii
) -> MeanDimensionTable:
    """Tabulate constant / |box| for probe boxes [-i, i]^d, i in box_radii."""
    radii = [_check_int(r, "box radius", 0) for r in box_radii]
    if not radii:
        raise ValueError("need at least one box radius")
    if any(a >= b for a, b in zip(radii, radii[1:])):
        raise ValueError("box radii must be strictly increasing")
    p, eps = _check_exponent(p, "ball exponent p"), _check_scale(eps)
    constant = widim_constant(p, eps)
    if constant is None:
        if math.isinf(p):
            raise ValueError("p = inf needs eps >= 4: (4/eps)^p is infinite for every eps < 4")
        raise ValueError("scale so small the width constant saturates; increase eps")
    sizes = [(2 * r + 1) ** M.dim_d for r in radii]
    rows = tuple((r, size, constant / size) for r, size in zip(radii, sizes))
    return MeanDimensionTable(M.dim_d, p, eps, constant, rows)
