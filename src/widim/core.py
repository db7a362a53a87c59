"""Numeric primitives shared by every other module.

Vectors and row batches are plain float64 numpy arrays read by one reader,
:func:`_check_reals`, whose one-vector case is :func:`as_vector`.
Distances and norms branch explicitly on an infinite exponent instead of
approximating it with a large float, and every reduction runs in a fixed
order so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "as_vector",
    "lq_distance",
    "lp_norm_power",
    "in_lp_ball",
    "Exponents",
    "make_exponents",
]

#: Slack on the p-th power sum when testing ball membership.
#: Extremal vectors sit exactly on the boundary, so a strict `<= 1` would
#: reject them on rounding noise alone.
BALL_TOLERANCE = 1e-12

#: The least normal double: a row's power sum below it has lost precision.
_NORMAL_MIN = np.finfo(np.float64).tiny

#: Cap on the cells of a run (2^22 doubles, 32 MiB): every driver counts the
#: largest table it would allocate, and larger runs are refused before allocating.
MAX_CELLS = 1 << 22


# The input rules every public entry point applies, and the one place they
# are written down. Each helper returns the value in its working type, and
# builds its message only when it raises, so hot paths can call it per call.


def _is_real(value) -> bool:
    """Whether ``value`` is a real: an ``int``, ``float``, numpy integer or numpy
    floating scalar, never a ``bool``; :func:`_real` reads anything else as NaN."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _real(value) -> float:
    try:  # NaN, which every real rule refuses, also for an int beyond the float range
        return float(value) if _is_real(value) else math.nan
    except OverflowError:
        return math.nan


def _check_int(value, what: str, least: int | None) -> int:
    """An ``int`` or numpy integer, never a ``bool``, that is at least ``least``
    (any integer when ``least`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        rule = "an integer" if least is None else f"an integer of at least {least}"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return int(value)


def _check_int_array(values, what: str) -> np.ndarray:
    """A fresh intp array of ``values`` under the rule of :func:`_check_int` for
    every entry (any integer, never a ``bool``). An integer array passes on its
    dtype alone; any other input, a list included, is checked entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.intp)
    arr = np.array(values, dtype=object)
    return np.array([_check_int(v, what, None) for v in arr.flat],
                    dtype=np.intp).reshape(arr.shape)


def _check_row_sizes(sizes, rows: int, n: int) -> np.ndarray:
    """One integer in [0, n] per row of a batch of ``rows`` rows, as an intp array."""
    sizes = _check_int_array(sizes, "row size")
    if sizes.shape != (rows,) or not np.all((sizes >= 0) & (sizes <= n)):
        raise ValueError(f"row sizes must be {rows} integers in [0, {n}], got {sizes!r}")
    return sizes


def _check_seed(value, what: str = "seed") -> int:
    """An integer of at least 0 and below 2^64, the width of a stream key word."""
    value = _check_int(value, what, 0)
    if value >> 64:
        raise ValueError(f"{what} must be an integer of at least 0 and below 2^64, got {value}")
    return value


def _check_float_int(value, what: str, least: int) -> int:
    """An integer that a formula turns into a float, such as the sparsity m of
    the bound (m+1)^-(1/p-1/q): at least ``least``, with value + 1 inside the
    float range, so the value and its successor both convert."""
    value = _check_int(value, what, least)
    if math.isnan(_real(value + 1)):
        raise ValueError(f"{what} must be an integer of at least {least} below about 1.8e308, "
                         f"the float range; got {value.bit_length()} bits")
    return value


def _check_cells(rows: int, n: int, what: str) -> None:
    """The run-size rule: ``what``, a table of ``rows`` x ``n`` cells, fits in MAX_CELLS."""
    if rows * n > MAX_CELLS:
        raise ValueError(f"{what}: {rows} x {n} = {rows * n} cells, above the cap of {MAX_CELLS}")


def _check_exponent(value, what: str, finite: bool = False) -> float:
    """A real of at least 1, not NaN; inf is allowed unless ``finite``."""
    x = _real(value)
    if not x >= 1.0 or (finite and x == math.inf):
        rule = "a finite real of at least 1" if finite else "at least 1 or inf"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return x


def _check_scale(value, what: str = "scale eps") -> float:
    """A positive finite real."""
    x = _real(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be a positive finite real, got {value!r}")
    return x


def _check_finite(value, what: str) -> float:
    """A finite real."""
    x = _real(value)
    if not abs(x) < math.inf:
        raise ValueError(f"{what} must be a finite real, got {value!r}")
    return x


def _check_nonnegative(value, what: str) -> float:
    """A nonnegative finite real."""
    x = _real(value)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{what} must be a nonnegative finite real, got {value!r}")
    return x


def _check_pair(e) -> Exponents:
    """An exponent pair (p, q) as :func:`make_exponents` builds it."""
    if not isinstance(e, Exponents):
        raise ValueError(f"exponent pair must be an Exponents from make_exponents, got {e!r}")
    return e


def _check_reals(x, what: str = "vector", rows: bool = False) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 batch of row vectors, and whether it was one vector
    (read as a one-row batch); a 2-D ``x`` is a batch only with ``rows``. An
    integer or float array is read on its dtype alone, and any other input (a
    list, or a bool, string, complex or object array) entry by entry under
    :func:`_is_real`, so numpy's cast never decides what a real is. An empty
    vector and a non-finite value are refused. The batch may share memory with x."""
    X = x if isinstance(x, np.ndarray) and x.dtype.kind in "iuf" else np.array(x, dtype=object)
    if X.dtype == object and not all(_is_real(v) for v in X.flat):
        raise ValueError(f"{what} must hold reals, not bools or strings")
    X = np.asarray(np.frompyfunc(_real, 1, 1)(X) if X.dtype == object else X, dtype=np.float64)
    if X.ndim != 1 and not (rows and X.ndim == 2):
        shape = "a vector or a 2-D batch of row vectors" if rows else "a 1-D vector"
        raise ValueError(f"{what} must be {shape}, got shape {X.shape}")
    single = X.ndim == 1
    X = X[None] if single else X
    if X.shape[1] < 1:
        raise ValueError("vectors must have at least one coordinate")
    if not np.isfinite(X).all():
        raise ValueError("values must be finite")
    return X, single


def as_vector(x) -> np.ndarray:
    """Validate and return ``x`` as a 1-D float64 array: the one-vector case of
    :func:`_check_reals`, which may share memory with ``x``; callers treat
    vectors as immutable values."""
    return _check_reals(x)[0][0]


def lq_distance(x, y, q: float) -> float:
    """Distance (sum_k |x_k - y_k|^q)^(1/q), with q = inf meaning max_k |x_k - y_k|.

    Both arguments must have the same dimension. The difference is a
    one-row batch of :func:`_lq_rows`, the kernel the batch distortions
    use, so the scalar and the row values agree bit for bit.
    """
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    q = _check_exponent(q, "distance exponent q")
    with np.errstate(over="ignore"):  # _lq_rows recomputes an overflowed row
        return float(_lq_rows(np.abs(xv - yv)[None, :], q)[0])


def _lq_rows(A: np.ndarray, q: float, redo=None) -> np.ndarray:
    """Per row of magnitudes A (at least one column): (sum_k a_k^q)^(1/q), or
    max_k a_k at q = inf, for every q-norm of a row batch. A row whose power sum
    is 0, subnormal or inf is recomputed as top * (sum_k (a_k/top)^q)^(1/q), top
    its largest entry; other rows keep their bits. Given ``redo``, A is scratch
    that is raised to the power q in place, and ``redo(rows)`` rebuilds the
    magnitudes of the rows to recompute. Checked callers mute overflow."""
    if math.isinf(q):
        return _row_max(A)
    if redo is None:
        sums, redo = (A**q).sum(axis=1), A.__getitem__
    else:
        A **= q  # the same bits as A**q
        sums = A.sum(axis=1)
    out = sums ** (1.0 / q)
    if not (sums.min() >= _NORMAL_MIN and sums.max() < math.inf):
        rows = np.flatnonzero(~(sums >= _NORMAL_MIN) | (sums == math.inf))
        B = redo(rows)
        top = _row_max(B)
        scaled = B / np.where(top > 0.0, top, 1.0)[:, None]  # an all-zero row stays 0
        out[rows] = top * (scaled**q).sum(axis=1) ** (1.0 / q)
    return out


def _lq_slack(n: int) -> float:
    """1 + (n + 4) 2^-50: for rows of n entries with 0 <= B <= A, :func:`_lq_rows` of B is at
    most this times that of A. Exactly |b|_q <= |a|_q, and with u = 2^-53 a norm errs by at most
    (3n + 15) u: n powers of 4 ulp (8u), or 2^-1074 (2u of a normal sum) if subnormal, n - 1
    adds and a root of 4 ulp; a rescaled row errs less. Two errors and a rounding fit 8(n + 4) u."""
    return 1.0 + (n + 4) * 2.0**-50


def _ball_mass(A: np.ndarray, p: float) -> np.ndarray:
    """Per row of magnitudes A: sum_k a_k^p, or max_k a_k at p = inf (0 for an
    empty row); signed callers pass ``np.abs`` of their rows."""
    return _row_max(A) if math.isinf(p) else (A**p).sum(axis=1)


def _row_max(A: np.ndarray) -> np.ndarray:
    """Per row: ``A.max(axis=1)`` bit for bit, by a faster segmented reduce; 0.0 if empty."""
    n = A.shape[1]
    return np.maximum.reduceat(A.ravel(), np.arange(0, A.size, n)) if n else np.zeros(len(A))


def lp_norm_power(x, p: float) -> float:
    """Return sum_k |x_k|^p, the quantity a ball-membership test compares to 1.

    For ``p = inf`` the power sum degenerates to ``max_k |x_k|`` and the same
    membership predicate applies.
    """
    xv = as_vector(x)
    return float(_ball_mass(np.abs(xv)[None, :], _check_exponent(p, "ball exponent p"))[0])


def in_lp_ball(x, p: float) -> bool:
    """Membership test for the unit ball: lp_norm_power(x, p) <= 1 + BALL_TOLERANCE."""
    return lp_norm_power(x, p) <= 1.0 + BALL_TOLERANCE


def _check_in_ball(B, p: float) -> None:
    """Ball membership per row of B: finite values and mass at most 1 + tolerance."""
    mass = _ball_mass(np.abs(_check_reals(B, "point values", rows=True)[0]), p)
    outside = np.flatnonzero(mass > 1.0 + BALL_TOLERANCE)
    if outside.size:
        raise ValueError(f"point lies outside the unit ball: mass {float(mass[outside[0]])}")


@dataclass(frozen=True)
class Exponents:
    """The triple (p, q, r) with 1/p - 1/q = 1/r, built from p and q alone.

    ``p`` is the ball exponent and ``q > p`` the distance exponent. The rate ``r``
    of every width bound is derived, never passed: ``pq/(q - p)``, or ``p/(1 - p/q)``
    where ``p * q`` overflows, and exactly ``p`` at ``q = math.inf``.
    """

    p: float
    q: float
    r: float = field(init=False)

    def __post_init__(self):
        p = _check_exponent(self.p, "ball exponent p", finite=True)
        q = _check_exponent(self.q, "distance exponent q")
        if not q > p:
            raise ValueError(f"need p < q, got p={p}, q={q}")
        r = p if math.isinf(q) else p * q / (q - p)
        if math.isinf(r):  # p * q overflows
            r = p / (1.0 - p / q)
        if math.isinf(r):
            raise ValueError(f"the rate of p={p}, q={q} is not a finite float")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @property
    def inverse_rate(self) -> float:
        """1/r computed from p and q directly; 0 never occurs since q > p."""
        if math.isinf(self.q):
            return 1.0 / self.p
        return 1.0 / self.p - 1.0 / self.q


def make_exponents(p: float, q: float) -> Exponents:
    """The exponent triple of p and q; ``q = math.inf`` gives r = p.
    Raises on p < 1 or p >= q."""
    return Exponents(p, q)
