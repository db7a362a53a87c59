"""The sparsifying threshold map, implemented twice on purpose.

Both implementations keep the m largest coordinates by absolute value and
shrink them toward zero by the (m+1)-th largest absolute value, zeroing
everything else:

* :func:`f_equivariant` routes through the signed-permutation machinery:
  canonicalize to the sorted-nonnegative cone, apply the cone map
  :func:`f0`, then undo the group element.
* :func:`f_closed` evaluates the closed form
  ``sign(x_i) * max(|x_i| - tau, 0)`` directly, selecting the threshold
  ``tau`` with a linear-time partition; the batch :func:`distortion` shares
  that kernel.

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

from .core import Exponents, _check_exponent, _check_int, _check_rows, as_vector, lq_distance
from .signed_perm import ConePoint, act, canonicalize, inverse

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
    largest entry of the row; requires m < n."""
    k = a.shape[1] - 1 - m
    tau = np.partition(a, k, axis=1)[:, k, None]
    return np.maximum(a - tau, 0.0)


def f0(y, m: int, tol: float = 1e-12) -> ConePoint:
    """Cone form of the map: subtract the (m+1)-th coordinate, zero the rest.

    ``y`` must lie in the sorted-nonnegative cone; violations larger than
    ``tol`` raise. For m >= n the map is the identity. The kept block is
    clamped at zero, which changes nothing for exact cone input and guards
    the invariant against sub-tolerance dirt.
    """
    m = _check_int(m, "sparsity m", 0)
    trusted = isinstance(y, ConePoint)
    if trusted:
        yv = y.coords
    else:
        yv = as_vector(y)
        n = yv.shape[0]
        if n > 1 and np.any(np.diff(yv) > tol):
            raise ValueError("input is not sorted non-increasingly (beyond tolerance)")
        if yv[-1] < -tol:
            raise ValueError("input has a negative coordinate (beyond tolerance)")
    n = yv.shape[0]
    keep = min(m, n)
    tau = yv[m] if m < n else 0.0
    z = np.zeros(n, dtype=np.float64)
    z[:keep] = np.maximum(yv[:keep] - tau, 0.0)
    z += 0.0
    # exact cone input maps into the cone; tolerated input is checked again
    return ConePoint._trusted(z) if trusted else ConePoint(z)


def f_equivariant(x, m: int) -> np.ndarray:
    """Group-theoretic route: canonicalize, apply f0, undo the group element.

    Accepts a single vector or a 2-D array of row vectors. The row-wise path
    runs the same ordering arithmetic vectorized; a unit test pins it to the
    single-vector route bit for bit.
    """
    m = _check_int(m, "sparsity m", 0)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        return _equivariant_rows(arr, m)
    xv = as_vector(arr)
    if m >= xv.shape[0]:
        return xv + 0.0
    g, y = canonicalize(xv)
    z = f0(y, m)
    return act(inverse(g), z.coords)


def _equivariant_rows(X: np.ndarray, m: int) -> np.ndarray:
    if m >= _check_rows(X).shape[1]:
        return X + 0.0
    order = np.argsort(-np.abs(X), axis=1, kind="stable")
    gx = np.take_along_axis(X, order, axis=1)
    signs = np.where(gx >= 0.0, 1.0, -1.0)
    y = signs * gx
    z = np.zeros_like(y)
    if m > 0:
        z[:, :m] = np.maximum(y[:, :m] - y[:, m][:, None], 0.0)
    out = np.empty_like(X)
    np.put_along_axis(out, order, signs * z, axis=1)
    return out + 0.0


def f_closed(x, m: int) -> np.ndarray:
    """Closed-form route: shrink by the (m+1)-th largest absolute value.

    ``tau`` is that order statistic (0 when m >= n) and the result is
    ``sign(x_i) * max(|x_i| - tau, 0)`` with sign(0) = +1. Accepts a single
    vector or a 2-D array of row vectors. Agrees with
    :func:`f_equivariant` bit for bit on every input.
    """
    m = _check_int(m, "sparsity m", 0)
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    arr = as_vector(arr)[None, :] if single else _check_rows(arr)
    if m >= arr.shape[1]:
        out = arr + 0.0
        return out[0] if single else out
    shrunk = _shrink(np.abs(arr), m)
    out = np.where(arr >= 0.0, shrunk, -shrunk) + 0.0
    return out[0] if single else out


def distortion(x, m: int, q: float) -> float | np.ndarray:
    """How far the map moves x: lq_distance(x, f(x), q).

    Accepts a single vector (returns a float) or a 2-D array of row vectors
    (returns a vector of row distances computed by the identical reduction).

    A single vector goes through :func:`f_equivariant`. Rows use the closed
    form ``|x_i - f(x)_i| = a_i - max(a_i - tau, 0)`` with ``a = |x|`` and
    ``tau`` the (m+1)-th largest ``a``: the same float arithmetic as
    ``abs(x - f(x))`` without the sign flips, which are exact, so every row
    agrees with the single-vector route bit for bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        m = _check_int(m, "sparsity m", 0)
        q = _check_exponent(q, "distance exponent q")
        if m >= _check_rows(arr).shape[1]:
            diff = np.zeros_like(arr)
        else:
            diff = np.abs(arr)
            if m > 0:  # m = 0 shrinks every entry to 0
                diff -= _shrink(diff, m)
        if math.isinf(q):
            return np.max(diff, axis=1)
        return np.sum(diff**q, axis=1) ** (1.0 / q)
    xv = as_vector(arr)
    return lq_distance(xv, f_equivariant(xv, m), q)


def distortion_bound(m: int, e: Exponents) -> float:
    """The dimension-free distortion ceiling (m+1)^-(1/p - 1/q).

    Computed from p and q directly rather than through r, matching the
    arithmetic of the extremal configuration as closely as possible.
    """
    m = _check_int(m, "sparsity m", 0)
    return float((m + 1) ** (-e.inverse_rate))


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
