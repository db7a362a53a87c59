"""Numeric primitives shared by every other module.

Vectors are plain 1-D float64 numpy arrays validated by :func:`as_vector`.
Distances and norms branch explicitly on an infinite exponent instead of
approximating it with a large float, and every reduction runs in a fixed
order so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_vector",
    "lq_distance",
    "lp_norm_power",
    "in_lp_ball",
    "Exponents",
    "make_exponents",
]

#: Default slack on the p-th power sum when testing ball membership.
#: Extremal vectors sit exactly on the boundary, so a strict `<= 1` would
#: reject them on rounding noise alone.
BALL_TOLERANCE = 1e-12


# The input rules every public entry point applies, and the one place they
# are written down. Each helper returns the value in its working type, and
# builds its message only when it raises, so hot paths can call it per call.


def _check_int(value, what: str, least: int) -> int:
    """An ``int`` or numpy integer, never a ``bool``, that is at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _check_exponent(value, what: str, finite: bool = False) -> float:
    """A real of at least 1, not NaN; inf is allowed unless ``finite``."""
    x = float(value)
    if isinstance(value, bool) or not x >= 1.0 or (finite and x == math.inf):
        rule = "a finite real of at least 1" if finite else "at least 1 or inf"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return x


def _check_scale(eps) -> float:
    """A positive finite real."""
    x = float(eps)
    if isinstance(eps, bool) or not 0.0 < x < math.inf:
        raise ValueError(f"scale eps must be a positive finite real, got {eps!r}")
    return x


def _check_nonnegative(value, what: str) -> float:
    """A nonnegative finite real."""
    x = float(value)
    if isinstance(value, bool) or not 0.0 <= x < math.inf:
        raise ValueError(f"{what} must be a nonnegative finite real, got {value!r}")
    return x


def _check_rows(X: np.ndarray) -> np.ndarray:
    """A 2-D float batch with at least one column and only finite values."""
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D batch of row vectors, got shape {X.shape}")
    if X.shape[1] < 1:
        raise ValueError("vectors must have at least one coordinate")
    if not np.isfinite(X).all():
        raise ValueError("values must be finite")
    return X


def as_vector(x) -> np.ndarray:
    """Validate and return ``x`` as a 1-D float64 array.

    Accepts any sequence of real numbers. Rejects empty input, higher
    dimensional arrays, and non-finite entries. The returned array may share
    memory with the input; callers treat vectors as immutable values.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    _check_rows(arr[None, :])
    return arr


def lq_distance(x, y, q: float) -> float:
    """Distance (sum_k |x_k - y_k|^q)^(1/q), with q = inf meaning max_k |x_k - y_k|.

    Both arguments must have the same dimension. The same power-sum
    expression is used for every finite q, including q = 1 and q = 2, so the
    scalar value agrees bitwise with the row-wise batch reductions used by
    the certification drivers. The root is taken on a one-element array so
    that it runs through the same vectorized power loop as the batch rows;
    numpy's scalar power can round differently in the last place.
    """
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    q = _check_exponent(q, "distance exponent q")
    diff = np.abs(xv - yv)
    if math.isinf(q):
        return float(np.max(diff))
    return float((np.sum(diff**q, keepdims=True) ** (1.0 / q))[0])


def lp_norm_power(x, p: float) -> float:
    """Return sum_k |x_k|^p, the quantity a ball-membership test compares to 1.

    For ``p = inf`` the power sum degenerates to ``max_k |x_k|`` and the same
    membership predicate applies.
    """
    xv = as_vector(x)
    p = _check_exponent(p, "ball exponent p")
    a = np.abs(xv)
    if math.isinf(p):
        return float(np.max(a))
    return float(np.sum(a**p))


def in_lp_ball(x, p: float, tol: float = BALL_TOLERANCE) -> bool:
    """Membership test for the unit ball: lp_norm_power(x, p) <= 1 + tol."""
    return lp_norm_power(x, p) <= 1.0 + tol


@dataclass(frozen=True)
class Exponents:
    """The triple (p, q, r) with 1/p - 1/q = 1/r.

    ``p`` is the ball exponent, ``q`` the distance exponent, and ``r`` the
    derived rate that drives every width bound. ``q = math.inf`` is the
    distinguished infinite value, in which case ``r = p`` exactly.
    """

    p: float
    q: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p, "ball exponent p", finite=True))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r", float(self.r))
        if not self.q > self.p:
            raise ValueError(f"need q > p, got p={self.p}, q={self.q}")
        if math.isinf(self.q):
            if self.r != self.p:
                raise ValueError(f"q = inf requires r = p, got r={self.r}, p={self.p}")
        else:
            if not math.isfinite(self.r) or self.r <= 0.0:
                raise ValueError(f"invalid rate r={self.r}")
            # r (q - p) = pq, divided by q so that it cannot overflow; unlike
            # 1/p - 1/q = 1/r it does not cancel when q is close to p
            if abs(self.r * ((self.q - self.p) / self.q) - self.p) > 1e-12 * self.p:
                raise ValueError(
                    f"rate mismatch: need r (q - p) = pq, got r={self.r}"
                    f" for p={self.p}, q={self.q}"
                )

    @property
    def inverse_rate(self) -> float:
        """1/r computed from p and q directly; 0 never occurs since q > p."""
        if math.isinf(self.q):
            return 1.0 / self.p
        return 1.0 / self.p - 1.0 / self.q


def make_exponents(p: float, q: float) -> Exponents:
    """Build the exponent triple from p and q, deriving r = pq/(q-p).

    ``q = math.inf`` gives r = p. Raises on p < 1 or p >= q.
    """
    p, q = _check_exponent(p, "ball exponent p", finite=True), float(q)
    if not q > p:
        raise ValueError(f"need p < q, got p={p}, q={q}")
    r = p if math.isinf(q) else p * q / (q - p)
    return Exponents(p=p, q=q, r=r)
