"""Closed-form width bound formulas.

Widths here count the least number of degrees of freedom a continuous
low-dimensional substitute needs before it must merge points farther than
epsilon apart. For the unit ball of the p-norm measured in the q-distance
(p < q) the count brackets between ``ceil(eps^-r) - 1`` and
``ceil((2/eps)^r) - 1`` capped at the dimension, where 1/r = 1/p - 1/q.
The q = inf case is exact, and the q <= p regime collapses to the full
dimension for every eps < 1.

Ceilings are guarded: a power within 1e-9, or within a relative 1e-13, of
an integer snaps to it before the ceiling is taken, because ceil(.)-1 jumps
at integer points and float noise there would flip a bound by one. The
relative band takes over above 1e4, so the snap stays wider than the
power's rounding error once one ulp exceeds 1e-9 (values above about 1e7).
Powers beyond 2^62 saturate to an explicit ``None`` marker rather than
overflowing; the n-capped bounds then return n, which is the correct value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (Exponents, _check_exponent, _check_float_int, _check_int, _check_pair,
                   _check_scale)

__all__ = [
    "guarded_count",
    "widim_upper",
    "widim_lower",
    "widim_upper_plateau",
    "widim_lower_plateau",
    "widim_equal_case",
    "EqualCase",
    "WidimBoundReport",
    "bracket",
    "asymptotic_exponent_fit",
    "ball_inclusion_max_radius",
]

#: Integer-snap distance for the guarded ceiling, absolute and relative.
CEILING_GUARD = 1e-9
CEILING_BAND = 1e-13

#: Counts above this saturate to None instead of risking float overflow lies.
SATURATION_LIMIT = 2.0**62


def guarded_count(value: float) -> Optional[int]:
    """ceil(value) - 1 with an integer snap, or None when value exceeds 2^62.

    Values within 1e-9 of an integer, or within 1e-13 times the value, are
    treated as that integer before the ceiling. The result is clamped at
    zero. ``None`` is the saturation marker: the count is astronomically
    large but a min against any real dimension is still exact.
    """
    if not value >= 0.0:  # NaN too
        raise ValueError(f"count argument must be nonnegative, got {value}")
    if value > SATURATION_LIMIT:  # inf too
        return None
    nearest = round(value)
    off = abs(value - nearest)
    snap = off <= CEILING_GUARD or off <= CEILING_BAND * value
    count = nearest if snap else math.ceil(value)
    return max(count - 1, 0)


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def widim_upper_plateau(eps: float, e: Exponents) -> Optional[int]:
    """The dimension-free upper count ceil((2/eps)^r) - 1; None if saturated."""
    return guarded_count(_power(2.0 / _check_scale(eps), _check_pair(e).r))


def widim_lower_plateau(eps: float, e: Exponents) -> Optional[int]:
    """The dimension-free lower count ceil(eps^-r) - 1; None if saturated."""
    return guarded_count(_power(_check_scale(eps), -_check_pair(e).r))


def widim_upper(n: int, eps: float, e: Exponents) -> int:
    """Upper width bound min(n, ceil((2/eps)^r) - 1)."""
    return min(_check_int(n, "dimension n", 1), _cap(widim_upper_plateau(eps, e)))


def widim_lower(n: int, eps: float, e: Exponents) -> int:
    """Lower width bound min(n, ceil(eps^-r) - 1)."""
    return min(_check_int(n, "dimension n", 1), _cap(widim_lower_plateau(eps, e)))


def _cap(plateau: Optional[int]) -> Union[int, float]:
    """A plateau as a cap on n: the saturation marker None caps nothing."""
    return math.inf if plateau is None else plateau


def _caps(eps: float, e: Union[Exponents, EqualCase]) -> Optional[tuple]:
    """(lower, upper) caps on n at scale eps; at q = inf both are the exact width's.
    The equal case has no cap (width n) below eps = 1 and no closed form (None)
    from there on."""
    if isinstance(e, EqualCase):
        return (math.inf, math.inf) if eps < 1.0 else None
    upper = _cap(widim_upper_plateau(eps, e))
    return (upper if math.isinf(e.q) else _cap(widim_lower_plateau(eps, e))), upper


def widim_equal_case(n: int, eps: float, p: float, q: float) -> Optional[int]:
    """Exact width n in the q <= p regime for eps < 1.

    Returns None (the out-of-covered-range marker) for eps >= 1, where no
    closed form is available. Raises if q > p; use the bracketing bounds
    there instead.
    """
    n, eps = _check_int(n, "dimension n", 1), _check_scale(eps)
    caps = _caps(eps, EqualCase(p, q))
    return None if caps is None else min(n, caps[0])


@dataclass(frozen=True)
class EqualCase:
    """Marker exponent pair for the q <= p regime (no derived rate exists)."""

    p: float
    q: float

    def __post_init__(self):
        p = _check_exponent(self.p, "ball exponent p")
        q = _check_exponent(self.q, "distance exponent q")
        if p < q:
            raise ValueError(f"equal case needs q <= p, got p={p}, q={q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class WidimBoundReport:
    """One bound query: dimension, scale, exponents, and the bracket."""

    n: int
    epsilon: float
    exponents: Union[Exponents, EqualCase]
    lower: int
    upper: int

    def __post_init__(self):
        n = _check_int(self.n, "dimension n", 1)
        _check_scale(self.epsilon)
        if not isinstance(self.exponents, EqualCase):
            _check_pair(self.exponents)
        lower = _check_int(self.lower, "lower bound", 0)
        upper = _check_int(self.upper, "upper bound", 0)
        if not lower <= upper <= n:
            raise ValueError(
                f"invalid bracket: lower={self.lower}, upper={self.upper}, n={self.n}"
            )

    @property
    def exact(self) -> bool:
        """Whether the bracket pins the width: lower == upper."""
        return self.lower == self.upper


def bracket(n: int, eps: float, e: Union[Exponents, EqualCase]) -> WidimBoundReport:
    """Lower and upper bounds as one report: exact at q = inf, and n in the equal
    case (q <= p) below eps = 1, where eps >= 1 raises for want of a closed form."""
    n, eps = _check_int(n, "dimension n", 1), _check_scale(eps)
    caps = _caps(eps, e)
    if caps is None:
        raise ValueError(f"no closed form covers eps >= 1 in the equal case (eps={eps})")
    lower, upper = (min(n, cap) for cap in caps)
    return WidimBoundReport(n, eps, e, lower, upper)


def asymptotic_exponent_fit(e: Exponents, eps_grid, use: str = "upper") -> float:
    """Least-squares slope of log(count) against |log eps|.

    Uses the dimension-free plateau counts of the chosen bound family. As
    the grid refines toward zero the slope converges to the rate r for both
    families. The grid must have at least 4 entries, strictly decreasing,
    all inside (0, 1).
    """
    grid = [_check_scale(v) for v in eps_grid]
    if len(grid) < 4:
        raise ValueError("need at least 4 grid points for a meaningful fit")
    if any(v >= 1.0 for v in grid):
        raise ValueError("grid values must lie strictly inside (0, 1)")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    plateau = {"upper": widim_upper_plateau, "lower": widim_lower_plateau}.get(use)
    if plateau is None:
        raise ValueError(f"bound family must be 'upper' or 'lower', got {use!r}")
    counts = [plateau(v, e) for v in grid]
    if any(c is None for c in counts):
        raise ValueError("grid reaches the saturation regime; shrink it")
    if any(c < 1 for c in counts):
        raise ValueError("grid too coarse: zero counts have no logarithm")
    xs = np.array([abs(math.log(v)) for v in grid])
    ys = np.array([math.log(c) for c in counts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def ball_inclusion_max_radius(m: int, e: Exponents) -> float:
    """Largest rho with the q-ball of radius rho inside the unit p-ball, m coords.

    The norm comparison ||x||_p <= m^(1/r) ||x||_q on m coordinates gives
    rho = m^(-1/r), attained by the constant-coordinate corner vector.
    """
    return float(_check_float_int(m, "coordinate count m", 1) ** (-_check_pair(e).inverse_rate))
