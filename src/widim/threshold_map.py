"""The sparsifying threshold map, implemented twice on purpose.

Both implementations keep the m largest coordinates by absolute value and
shrink them toward zero by the (m+1)-th largest absolute value, zeroing
everything else:

* :func:`f_equivariant` follows the paper's group route in array form: a
  stable sort by magnitude and the signs of the sorted values move each row
  into the sorted-nonnegative cone, the cone block is shrunk as the cone map
  :func:`f0` does, and the same permutation and signs move it back. The
  test suite pins it bit for bit to the object route of
  :mod:`widim.signed_perm` (``canonicalize``, :func:`f0`, ``act`` by the
  inverse), which no run path calls.
* :func:`f_closed` evaluates the closed form
  ``sign(x_i) * max(|x_i| - tau, 0)`` directly, selecting the threshold
  ``tau`` with a linear-time partition; :func:`distortion` shares that
  kernel, for a single vector and for a batch.

The two routes share no selection or ordering code, which makes each an
independent oracle for the other; the test suite requires them to agree bit
for bit. Extensions beyond the core range 1 <= m < n: m = 0 maps everything
to zero, and m >= n is the identity.

Conventions that make bitwise agreement possible: a zero coordinate counts
as positive, and outputs are normalized so every zero is +0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (Exponents, _check_exponent, _check_float_int, _check_int, _check_pair,
                   _check_reals, _lq_rows, _row_max, as_vector)
from .signed_perm import ConePoint, _in_cone

__all__ = [
    "f0",
    "f_equivariant",
    "f_closed",
    "distortion",
    "distortion_bound",
    "extremal_vector",
]

def _shrink(a: np.ndarray, m: int) -> np.ndarray:
    """Row-wise ``max(a - tau, 0)`` for ``a >= 0``, with ``tau`` the (m+1)-th
    largest entry of the row; requires m < n. The partitioned copy of ``a``
    is the result's only row-batch allocation."""
    k = a.shape[1] - 1 - m
    out = np.partition(a, k, axis=1)
    tau = out[:, k, None].copy()
    np.subtract(a, tau, out=out)
    return np.maximum(out, 0.0, out=out)


def f0(y, m: int) -> ConePoint:
    """Cone form of the map: subtract the (m+1)-th coordinate, zero the rest.

    ``y`` is a :class:`~widim.signed_perm.ConePoint` or a vector that must
    lie in the sorted-nonnegative cone; every input is checked, and
    violations larger than 1e-12 raise. For m >= n the map is the
    identity. The kept block is clamped at zero, which changes nothing for
    exact cone input and guards the invariant against sub-tolerance dirt.
    """
    m = _check_int(m, "sparsity m", 0)
    yv = as_vector(y.coords if isinstance(y, ConePoint) else y)
    if not _in_cone(yv, 1e-12):
        raise ValueError("input is not sorted non-increasingly and nonnegative (beyond 1e-12)")
    n = yv.shape[0]
    keep = min(m, n)
    tau = yv[m] if m < n else 0.0
    z = np.zeros(n, dtype=np.float64)
    z[:keep] = np.maximum(yv[:keep] - tau, 0.0)
    return ConePoint(z + 0.0)


def f_equivariant(x, m: int) -> np.ndarray:
    """Group route: move x into the cone, shrink there as :func:`f0`, move back.

    Accepts a single vector or a 2-D array of row vectors; a single vector is
    a one-row batch of the same array code. The permutation is the stable sort
    of ``-|x|`` and the sign flips are the signs of the sorted values (zero
    counts as positive), the element that ``canonicalize`` picks. The test
    suite pins the result bit for bit to ``act(inverse(g), f0(y, m).coords)``
    with ``g, y = canonicalize(x)``.
    """
    m = _check_int(m, "sparsity m", 0)
    X, single = _check_reals(x, "x", rows=True)
    if m >= X.shape[1]:
        out = X + 0.0
    else:
        # the shrink reads the first m + 1 sorted coordinates and writes the
        # first m; every other output coordinate is +0.0
        rows = np.arange(X.shape[0])[:, None]
        order = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :m + 1]
        gx = X[rows, order]
        signs = np.where(gx[:, :m] >= 0.0, 1.0, -1.0)
        y = np.abs(gx)
        z = signs * np.maximum(y[:, :m] - y[:, m:], 0.0)
        out = np.zeros_like(X)
        out[rows, order[:, :m]] = z + 0.0
    return out[0] if single else out


def f_closed(x, m: int) -> np.ndarray:
    """Closed-form route: shrink by the (m+1)-th largest absolute value.

    ``tau`` is that order statistic (0 when m >= n) and the result is
    ``sign(x_i) * max(|x_i| - tau, 0)`` with sign(0) = +1. Accepts a single
    vector or a 2-D array of row vectors. Agrees with
    :func:`f_equivariant` bit for bit on every input.
    """
    m = _check_int(m, "sparsity m", 0)
    X, single = _check_reals(x, "x", rows=True)
    if m >= X.shape[1]:
        out = X + 0.0
    else:
        shrunk = _shrink(np.abs(X), m)
        out = np.where(X >= 0.0, shrunk, -shrunk) + 0.0
    return out[0] if single else out


def distortion(x, m: int, q: float) -> float | np.ndarray:
    """How far the map moves x: lq_distance(x, f(x), q).

    Accepts a single vector (returns a float) or a 2-D array of row vectors
    (returns a vector of row distances); a single vector is a one-row batch.
    Rows use the closed form ``|x_i - f(x)_i| = a_i - max(a_i - tau, 0)``
    with ``a = |x|`` and ``tau`` the (m+1)-th largest ``a``: the same float
    arithmetic as ``abs(x - f(x))`` without the sign flips, which are exact,
    so every row agrees with ``lq_distance(x, f_equivariant(x, m), q)`` bit
    for bit.
    """
    m = _check_int(m, "sparsity m", 0)
    q = _check_exponent(q, "distance exponent q")
    X, single = _check_reals(x, "x", rows=True)
    with np.errstate(over="ignore"):  # _lq_rows recomputes an overflowed row
        out = _distortion_rows(np.abs(X), m, q)
    return float(out[0]) if single else out


def _distortion_rows(A: np.ndarray, m: int, q: float) -> np.ndarray:
    """Unchecked core of :func:`distortion`: the row distortions of a batch
    from its magnitudes ``A = |X|``, which it leaves unchanged. The moved
    amounts ``A - max(A - tau, 0)`` are built in :func:`_shrink`'s copy, and
    :func:`_lq_rows` powers that copy in place, so a call holds one batch
    beside A.

    At q = inf the row maximum is taken over the partition's top m + 1
    columns only, with the same bits: every value a before column k = n-1-m
    is at most tau, so it moves by ``a - max(a - tau, 0) = a`` exactly, never
    above the amount tau that column k itself moves. The path is kept for the
    hill climb, whose q = inf climbs in acceptance criterion 2 ran 10-18%
    slower without it on a 2-vCPU Xeon, while Monte Carlo's (2, inf) n = 8
    jobs showed no difference beyond that host's noise."""
    if m >= A.shape[1]:
        return np.zeros(A.shape[0])
    if math.isinf(q):
        k = A.shape[1] - 1 - m
        top = np.partition(A, k, axis=1)[:, k:]
        D = np.subtract(top, top[:, :1])
        return _row_max(np.subtract(top, np.maximum(D, 0.0, out=D), out=D))
    D = _shrink(A, m)
    return _lq_rows(np.subtract(A, D, out=D), q, lambda rows: A[rows] - _shrink(A[rows], m))


def distortion_bound(m: int, e: Exponents) -> float:
    """The dimension-free distortion ceiling (m+1)^-(1/p - 1/q).

    Computed from p and q directly rather than through r, matching the
    arithmetic of the extremal configuration as closely as possible. m + 1
    must lie in the float range.
    """
    m = _check_float_int(m, "sparsity m", 0)
    return float((m + 1) ** (-_check_pair(e).inverse_rate))


def extremal_vector(m: int, p: float, n: int) -> np.ndarray:
    """The boundary configuration that attains the distortion bound.

    m+1 leading coordinates equal to (m+1)^(-1/p), zeros elsewhere. All
    m+1 entries tie for the threshold, so the map collapses the vector to
    zero and the distortion equals the bound exactly. Requires m < n.
    """
    m = _check_int(m, "sparsity m", 0)
    p = _check_exponent(p, "ball exponent p")
    n = _check_int(n, "dimension n", 1)
    if m >= n:
        raise ValueError(f"extremal configuration needs m < n, got m={m}, n={n}")
    out = np.zeros(n, dtype=np.float64)
    out[: m + 1] = (m + 1) ** (-1.0 / p)
    return out
