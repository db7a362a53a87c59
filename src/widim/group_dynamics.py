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

The embedding check draws pair i from its own derived stream and scans the
pairs in index order, so a report is a pure function of its parameters and
seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._streams import DEFAULT_SEED, DOMAIN_PAIRS, StreamFactory
from ._output import csv_row, json_exponent
from .bounds import _power, guarded_count
from .certify import BOUND_TOLERANCE, _is_integer, sample_lp_ball

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
    "embedding_report_to_json",
    "embedding_report_from_json",
    "embedding_csv_header",
    "embedding_to_csv_row",
    "table_to_json",
    "table_csv_header",
    "table_to_csv_rows",
]

#: Cap on drawn support sizes, keeping sampled points genuinely sparse.
MAX_SUPPORT = 8
MAX_OUTSIDE_SUPPORT = 6

#: Cap on |Omega| * |window|, the entry count of embedding_check's weight
#: table (2^22 doubles, 32 MiB). Larger runs are refused before allocating.
MAX_WINDOW_CELLS = 1 << 22


def _as_point(gamma, dim: int) -> tuple:
    pt = tuple(int(v) for v in np.atleast_1d(gamma))
    if len(pt) != dim:
        raise ValueError(f"lattice point {pt} does not match dimension {dim}")
    return pt


@dataclass(frozen=True)
class LatticeBox:
    """The cube of lattice points within sup-distance ``radius`` of ``center``."""

    center: tuple
    radius: int

    def __post_init__(self):
        center = tuple(int(v) for v in self.center)
        if len(center) < 1:
            raise ValueError("box center must have at least one coordinate")
        if int(self.radius) < 0:
            raise ValueError(f"box radius must be nonnegative, got {self.radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", int(self.radius))

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
    certifies the mass outside the centered box of radius K. Both are exact
    for the built-in geometric family.
    """

    dim_d: int
    weight: Callable[[tuple], float]
    tail_bound: Callable[[int], float]
    total_bound: float
    description: str = "custom"

    def __post_init__(self):
        if int(self.dim_d) < 1:
            raise ValueError(f"lattice dimension must be positive, got {self.dim_d}")
        object.__setattr__(self, "dim_d", int(self.dim_d))
        total = float(self.total_bound)
        if not 0.0 < total <= 1.0:
            raise ValueError(f"total weight bound must lie in (0, 1], got {total}")
        object.__setattr__(self, "total_bound", total)


def geometric_weight_metric(
    dim_d: int = 1, base: float = 2.0, total: float = 0.75
) -> WeightedGroupMetric:
    """The default weight family: w(gamma) = scale * base^-|gamma|_1.

    ``scale`` is chosen in closed form so the full sum equals ``total``
    (for d = 1, base = 2, total = 3/4 this gives w(0) = 1/4). Per-axis
    geometric decay makes box partial sums a product of geometric series,
    so the tail bound is an exact closed form, not an estimate.
    """
    dim_d = int(dim_d)
    base, total = float(base), float(total)
    if dim_d < 1:
        raise ValueError(f"lattice dimension must be positive, got {dim_d}")
    if not base > 1.0:
        raise ValueError(f"decay base must exceed 1, got {base}")
    if not 0.0 < total <= 1.0:
        raise ValueError(f"total weight must lie in (0, 1], got {total}")
    axis_total = (base + 1.0) / (base - 1.0)  # sum over one axis of base^-|k|
    scale = total / axis_total**dim_d

    def weight(gamma) -> float:
        pt = _as_point(gamma, dim_d)
        return scale * base ** (-sum(abs(v) for v in pt))

    def tail_bound(radius: int) -> float:
        # total * (1 - (1 - 2 base^-R / (base + 1))^d), the mass outside the
        # box, in a form without cancellation: total minus the box sum
        # rounds to 0 once the tail falls below total's last bit.
        if radius < 0:
            raise ValueError("tail radius must be nonnegative")
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

    def tail_exceeds(self, radius: int, target: float) -> bool:
        """Whether total * (1 - (1 - 2 base^-R / (base + 1))^d) > target,
        decided in exact rationals from the float parameters."""
        from fractions import Fraction  # imported here: only ties need it

        b = Fraction(self.base)
        inside = 1 - 2 / ((b + 1) * b**radius)
        return Fraction(self.total_bound) * (1 - inside**self.dim_d) > Fraction(target)


@dataclass(frozen=True, eq=False)
class FinitelySupportedPoint:
    """A lattice point assignment with finite support inside the unit p-ball.

    Stored canonically: support sorted lexicographically, exact zeros
    dropped. Construction validates ball membership with 1e-12 slack.
    """

    support: tuple
    values: tuple
    p: float
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"ball exponent must satisfy p >= 1 or p = inf, got {p}")
        pts = [tuple(int(c) for c in pt) for pt in self.support]
        vals = [float(v) for v in self.values]
        if len(pts) != len(vals):
            raise ValueError("support and values must have equal length")
        if len(set(len(pt) for pt in pts)) > 1:
            raise ValueError("support points must share one dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("support points must be distinct")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("values must be finite")
        kept = sorted((pt, v) for pt, v in zip(pts, vals) if v != 0.0)
        pts = tuple(pt for pt, _ in kept)
        vals = tuple(v for _, v in kept)
        if math.isinf(p):
            mass = max((abs(v) for v in vals), default=0.0)
        else:
            mass = sum(abs(v) ** p for v in vals)
        if mass > 1.0 + 1e-12:
            raise ValueError(f"point lies outside the unit ball: mass {mass}")
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_index", dict(zip(pts, vals)))

    @property
    def dim(self) -> Optional[int]:
        return len(self.support[0]) if self.support else None

    def value_at(self, gamma) -> float:
        return self._index.get(tuple(int(c) for c in np.atleast_1d(gamma)), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitelySupportedPoint):
            return NotImplemented
        return (
            self.p == other.p
            and self.support == other.support
            and self.values == other.values
        )

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
        total += M.weight(gamma) * abs(x.value_at(gamma) - y.value_at(gamma))
    return total


def omega_distance(
    x: FinitelySupportedPoint,
    y: FinitelySupportedPoint,
    M: WeightedGroupMetric,
    omega,
) -> float:
    """max over delta in omega of the weighted distance between translates."""
    deltas = sorted(tuple(int(c) for c in np.atleast_1d(d)) for d in omega)
    if not deltas:
        raise ValueError("omega must be a nonempty set of lattice points")
    best = -math.inf
    for delta in deltas:
        dist = weighted_distance(translate(x, delta), translate(y, delta), M)
        if dist > best:
            best = dist
    return best


def tail_set(M: WeightedGroupMetric, delta, eps: float) -> LatticeBox:
    """Smallest certified box around delta whose complement weighs at most eps/4.

    For the geometric family, a tail bound within a relative 1e-9 of eps/4
    is replaced by the exact rational tail, so a tie is decided by the
    weight's float parameters rather than by the rounding of its closed form.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    center = _as_point(delta, M.dim_d)
    target = eps / 4.0

    def too_heavy(radius):
        tail = M.tail_bound(radius)
        if isinstance(M, _GeometricWeight) and abs(tail - target) <= 1e-9 * target:
            return M.tail_exceeds(radius, target)
        return tail > target

    radius = 0
    while too_heavy(radius):
        radius += 1
        if radius > 100_000:
            raise ValueError("weight tail decays too slowly for this scale")
    return LatticeBox(center=center, radius=radius)


def widim_constant(p: float, eps: float) -> Optional[int]:
    """The probe-set-independent width ceiling ceil((4/eps)^p) - 1.

    Uses the same guarded ceiling as the bound formulas; returns None in
    the saturation regime (astronomically small eps).
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"ball exponent must satisfy p >= 1, got {p}")
    eps = float(eps)
    if not eps > 0.0 or not math.isfinite(eps):
        raise ValueError(f"scale must be a positive finite real, got {eps}")
    return guarded_count(_power(4.0 / eps, p))


# --------------------------------------------------------------------------
# Embedding check


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of the projection-embedding soundness run.

    For every sampled pair whose projections to the union box agree within
    eps/2 in the sup norm, the dynamical distance must stay at or below eps
    (+ 1e-9). ``worst_margin`` is the largest d_Omega - eps among checked
    pairs (negative is healthy); ``witness`` carries the first violating
    pair, if any. Serialized documents keep an ``elapsed`` column that is
    always null (JSON) or empty (CSV).
    """

    dim_d: int
    p: float
    eps: float
    omega: tuple
    omega_prime_size: int
    sample_count: int
    seed: int
    checked_count: int
    failure_count: int
    worst_margin: Optional[float]
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def _point_payload(x: FinitelySupportedPoint) -> dict:
    return {"support": [list(pt) for pt in x.support], "values": list(x.values)}


#: Pairs drawn into dense rows and scored per distance pass in embedding_check,
#: fewer where a window is so wide that the block would exceed 2^18 entries.
PAIR_BLOCK = 64
_BLOCK_CELLS = 1 << 18


class _DenseWindow:
    """Pairs as dense rows over the lexicographic window.

    Row k of the weight table holds w(gamma - delta_k) for the window points
    gamma, so translating both points by delta_k only selects a row. The
    row's products with |x - y| are folded left to right in window order,
    which is the sorted order :func:`weighted_distance` sums in (translation
    preserves lexicographic order), and every column outside the union of
    supports adds exactly +0.0. So :meth:`omega_distances` equals the sparse
    :func:`omega_distance` bit for bit; ``np.sum`` or a matrix product
    would sum in another order and could move the last bit.
    """

    def __init__(self, M, deltas, window_pts, prime_pts):
        self.points = window_pts
        column = {gamma: j for j, gamma in enumerate(window_pts)}
        weight = {}  # M.weight by offset: many (gamma, delta) share one
        rows = []
        for delta in deltas:
            row = []
            for gamma in window_pts:
                offset = tuple(g - c for g, c in zip(gamma, delta))
                if offset not in weight:
                    weight[offset] = M.weight(offset)
                row.append(weight[offset])
            rows.append(row)
        self.weights = np.array(rows, dtype=np.float64)
        self.prime_columns = np.array([column[gamma] for gamma in prime_pts], dtype=np.intp)
        self.inside = np.zeros(len(window_pts), dtype=bool)
        self.inside[self.prime_columns] = True
        self.outside_columns = np.flatnonzero(~self.inside)

    def _draw_point(self, gen, row, p) -> None:
        ncol = len(self.points)
        k = int(gen.integers(1, min(ncol, MAX_SUPPORT) + 1))
        cols = gen.choice(ncol, size=k, replace=False)
        row[cols] = sample_lp_ball(k, p, gen)

    def draw_pair(self, gen, kind, x, y, p, eps) -> None:
        """Draw pair (x, y) into two zeroed rows. Kinds cycle: independent,
        tail-only, perturbed.

        A drawn index set is the column set, because the window is sorted,
        and a point's support in sorted order with exact zeros dropped is
        ``np.flatnonzero`` of its row. The stream calls and every float
        operation are those of drawing sparse points in that canonical form.
        """
        self._draw_point(gen, x, p)
        if kind == 0:
            self._draw_point(gen, y, p)
            return
        support = np.flatnonzero(x)
        if kind == 1:
            # Same inside the union box, fresh mass outside: exercises the
            # tail branch of the distance estimate with an always-true
            # hypothesis.
            inside = support[self.inside[support]]
            y[inside] = x[inside]
            if math.isinf(p):
                budget_scale = 1.0
            else:
                mass_in = sum(abs(v) ** p for v in x[inside].tolist())
                budget_scale = max(1.0 - mass_in, 0.0) ** (1.0 / p)
            outside = self.outside_columns
            cap = min(len(outside), MAX_OUTSIDE_SUPPORT)
            k2 = int(gen.integers(0, cap + 1)) if cap else 0
            if k2 > 0:
                idx = gen.choice(len(outside), size=k2, replace=False)
                y[outside[idx]] = budget_scale * sample_lp_ball(k2, p, gen)
            return
        # kind == 2: sup-norm perturbation well inside the hypothesis threshold.
        noise = gen.uniform(-eps / 8.0, eps / 8.0, size=len(support))
        vals = x[support] + noise
        if math.isinf(p):
            peak = float(np.max(np.abs(vals))) if vals.size else 0.0
            if peak > 1.0:
                vals /= peak
        else:
            mass = float(np.sum(np.abs(vals) ** p))
            if mass > 1.0:
                vals *= mass ** (-1.0 / p)
        y[support] = vals

    def point(self, row, p) -> FinitelySupportedPoint:
        support = np.flatnonzero(row)
        return FinitelySupportedPoint(
            tuple(self.points[j] for j in support), tuple(row[support].tolist()), p
        )

    def gaps(self, D: np.ndarray) -> np.ndarray:
        """Per row of D = |X - Y|: the sup-norm distance of the projections
        to the union box."""
        return D[:, self.prime_columns].max(axis=1)

    def omega_distances(self, D: np.ndarray) -> np.ndarray:
        """Per row of D = |X - Y|: d_Omega, folded one probe row at a time."""
        best = np.cumsum(D * self.weights[0], axis=1)[:, -1]
        for w in self.weights[1:]:
            np.maximum(best, np.cumsum(D * w, axis=1)[:, -1], out=best)
        return best


def _check_in_ball(B: np.ndarray, p) -> None:
    """The membership checks of :class:`FinitelySupportedPoint`, per row of B."""
    if not np.isfinite(B).all():
        raise ValueError("values must be finite")
    A = np.abs(B)
    mass = A.max(axis=1) if math.isinf(p) else (A**p).sum(axis=1)
    outside = np.flatnonzero(mass > 1.0 + 1e-12)
    if outside.size:
        raise ValueError(f"point lies outside the unit ball: mass {float(mass[outside[0]])}")


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
    Runs whose weight table, |Omega| times the window size, would exceed
    :data:`MAX_WINDOW_CELLS` entries are refused with ``ValueError``.

    Pair i is drawn from stream (seed, i) straight into two dense rows over
    the lexicographic window, with the stream calls and float operations of
    drawing it as two canonical sparse points. Pairs are scored in blocks of
    :data:`PAIR_BLOCK` (fewer on windows above 4096 cells, to bound the
    block's memory): each block's rows are checked for finiteness and
    ball membership as the point constructor checks them, and one
    vectorised pass computes their gaps and d_Omega. Results merge in index
    order, so the report does not depend on the block size, and a
    :class:`FinitelySupportedPoint` is built only for the first failure's
    witness. ``workers`` is accepted for interface uniformity and cannot
    affect the report.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if not _is_integer(samples) or int(samples) < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    samples = int(samples)
    seed = int(seed)
    del workers  # serial scan; see docstring

    if hasattr(omega, "__len__") and len(omega) > MAX_WINDOW_CELLS:
        raise ValueError(f"probe set of {len(omega)} points exceeds the window cap")
    deltas = tuple(sorted(_as_point(d, M.dim_d) for d in omega))
    if not deltas:
        raise ValueError("omega must be a nonempty set of lattice points")

    # Every tail box has the same radius; only its center moves with delta.
    tail_radius = tail_set(M, deltas[0], eps).radius
    window_radius = 2 * (max(max(abs(c) for c in delta) for delta in deltas) + tail_radius)
    cells = len(deltas) * (2 * window_radius + 1) ** M.dim_d
    if cells > MAX_WINDOW_CELLS:
        raise ValueError(
            f"|omega| * |window| = {cells} exceeds the cap of {MAX_WINDOW_CELLS};"
            " use a smaller probe set, lattice dimension or a larger scale"
        )
    prime: set = set()
    for delta in deltas:
        prime |= set(LatticeBox(delta, tail_radius))
    prime_pts = tuple(sorted(prime))
    window_pts = tuple(sorted(LatticeBox((0,) * M.dim_d, window_radius)))
    window = _DenseWindow(M, deltas, window_pts, prime_pts)

    factory = StreamFactory(seed, DOMAIN_PAIRS)
    block = max(1, min(PAIR_BLOCK, _BLOCK_CELLS // len(window_pts)))
    X = np.zeros((block, len(window_pts)))
    Y = np.zeros_like(X)
    checked = failures = 0
    worst = None
    witness = None
    for start in range(0, samples, block):
        size = min(block, samples - start)
        X.fill(0.0)
        Y.fill(0.0)
        for r in range(size):
            i = start + r
            window.draw_pair(factory.generator(i), i % 3, X[r], Y[r], p, eps)
        _check_in_ball(X[:size], p)
        _check_in_ball(Y[:size], p)
        D = np.abs(X[:size] - Y[:size])
        rows = np.flatnonzero(window.gaps(D) <= eps / 2.0)
        if not rows.size:
            continue
        margins = window.omega_distances(D[rows]) - eps
        checked += rows.size
        top = float(margins.max())
        if worst is None or top > worst:
            worst = top
        bad = np.flatnonzero(margins > BOUND_TOLERANCE)
        failures += bad.size
        if bad.size and witness is None:
            r = int(rows[bad[0]])
            witness = {
                "index": start + r,
                "margin": float(margins[bad[0]]),
                "x": _point_payload(window.point(X[r], p)),
                "y": _point_payload(window.point(Y[r], p)),
            }

    return EmbeddingReport(
        dim_d=M.dim_d,
        p=float(p),
        eps=eps,
        omega=deltas,
        omega_prime_size=len(prime_pts),
        sample_count=samples,
        seed=seed,
        checked_count=checked,
        failure_count=failures,
        worst_margin=worst,
        witness=witness,
    )


def embedding_report_to_json(report: EmbeddingReport) -> str:
    doc = {
        "dim_d": report.dim_d,
        "p": json_exponent(report.p),
        "eps": report.eps,
        "omega": [list(pt) for pt in report.omega],
        "omega_prime_size": report.omega_prime_size,
        "sample_count": report.sample_count,
        "seed": report.seed,
        "checked_count": report.checked_count,
        "failure_count": report.failure_count,
        "worst_margin": report.worst_margin,
        "witness": report.witness,
        "elapsed": None,
    }
    return json.dumps(doc)


def embedding_report_from_json(text: str) -> EmbeddingReport:
    doc = json.loads(text)
    return EmbeddingReport(
        dim_d=int(doc["dim_d"]),
        p=math.inf if doc["p"] == "inf" else float(doc["p"]),
        eps=float(doc["eps"]),
        omega=tuple(tuple(int(c) for c in pt) for pt in doc["omega"]),
        omega_prime_size=int(doc["omega_prime_size"]),
        sample_count=int(doc["sample_count"]),
        seed=int(doc["seed"]),
        checked_count=int(doc["checked_count"]),
        failure_count=int(doc["failure_count"]),
        worst_margin=doc["worst_margin"],
        witness=doc["witness"],
    )


def embedding_csv_header() -> str:
    return (
        "dim_d,p,eps,omega_size,omega_prime_size,sample_count,seed,"
        "checked_count,failure_count,worst_margin,elapsed"
    )


def embedding_to_csv_row(report: EmbeddingReport) -> str:
    return csv_row([
        report.dim_d, report.p, report.eps, len(report.omega),
        report.omega_prime_size, report.sample_count, report.seed,
        report.checked_count, report.failure_count, report.worst_margin, None,
    ])


# --------------------------------------------------------------------------
# Mean dimension table


@dataclass(frozen=True)
class MeanDimensionTable:
    """Rows (radius, box size, constant, ratio) for growing probe boxes.

    The width ceiling is a constant in the box size, so the ratio column
    decreases strictly to zero: the per-coordinate dimension count of the
    ball vanishes.
    """

    dim_d: int
    p: float
    eps: float
    constant: int
    rows: tuple  # of (radius, omega_size, ratio)


def mean_dimension_table(
    M: WeightedGroupMetric, p: float, eps: float, box_radii
) -> MeanDimensionTable:
    """Tabulate constant / |box| for probe boxes [-i, i]^d, i in box_radii."""
    radii = [int(r) for r in box_radii]
    if not radii:
        raise ValueError("need at least one box radius")
    if any(r < 0 for r in radii):
        raise ValueError("box radii must be nonnegative")
    if any(a >= b for a, b in zip(radii, radii[1:])):
        raise ValueError("box radii must be strictly increasing")
    constant = widim_constant(p, eps)
    if constant is None:
        if math.isinf(float(p)):
            raise ValueError("p = inf needs eps >= 4: (4/eps)^p is infinite for every eps < 4")
        raise ValueError("scale so small the width constant saturates; increase eps")
    rows = []
    for r in radii:
        size = (2 * r + 1) ** M.dim_d
        rows.append((r, size, constant / size))
    return MeanDimensionTable(
        dim_d=M.dim_d, p=float(p), eps=float(eps), constant=constant, rows=tuple(rows)
    )


def table_to_json(table: MeanDimensionTable) -> str:
    doc = {
        "dim_d": table.dim_d,
        "p": json_exponent(table.p),
        "eps": table.eps,
        "widim_constant": table.constant,
        "rows": [
            {"radius": r, "omega_size": size, "ratio": ratio}
            for r, size, ratio in table.rows
        ],
    }
    return json.dumps(doc)


def table_csv_header() -> str:
    return "radius,omega_size,widim_constant,ratio"


def table_to_csv_rows(table: MeanDimensionTable) -> list:
    return [csv_row([r, size, table.constant, ratio]) for r, size, ratio in table.rows]
