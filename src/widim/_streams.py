"""Per-index random streams on a counter-based generator, and the draws made from them.

Every randomized driver derives an isolated stream per unit of work from
(seed, domain, index), so results never depend on how work is split across
threads: Monte Carlo draws stream (seed, domain, b) for its block b of samples,
chunk by chunk, the embedding check one per block of lattice pairs, and the
hill climb one per start. The generator is Philox, whose state is a 128-bit
counter plus a 128-bit key. Index i sits in the high counter word, a stride of
2^192 draw blocks, so no realistic volume makes two streams overlap, and each
driver's domain constant in the key keeps equal indices of drivers apart.

The drivers keep their schedules and draw here: uniform points of the unit
p-ball (:func:`sample_lp_ball_rows`), uniform subsets (:func:`_subsets`), sparse
ball points on them (:func:`_sparse_ball_rows`) and signs: sign i of a
:func:`_sign_words` draw is plus iff bit i % 64 of word i // 64 is set, read as
+-1.0 by :func:`_signs`. Three one-line numpy draws stay where they are used:
``certify.key_lemma_oracle_max``'s uniform cross-check, the embedding check's
noise on perturbed pairs (``group_dynamics._Window.draw_block``) and
``signed_perm.random_element``'s permutation.
"""

from __future__ import annotations

import numpy as np

from .core import _check_exponent, _check_int, _check_row_sizes, _check_seed

__all__ = ["StreamFactory", "fresh_stream", "DEFAULT_SEED", "sample_lp_ball",
           "sample_lp_ball_rows"]

#: Documented default seed for every randomized entry point.
DEFAULT_SEED = 0x5EED

# Domain constants, one per randomized driver.
DOMAIN_BALL = 0xBA11
DOMAIN_CLIMB = 0xC11B
DOMAIN_POLYTOPE = 0x9017
DOMAIN_PAIRS = 0x9A12


class StreamFactory:
    """The streams of one (seed, domain) pair: :meth:`generator` returns
    :func:`fresh_stream` of an index. Nothing in the package calls it; it
    stays because the benchmark's kernel probe draws through it and its
    tracer wraps :meth:`generator`."""

    def __init__(self, seed: int, domain: int):
        self._seed, self._domain = seed, domain

    def generator(self, index: int) -> np.random.Generator:
        return fresh_stream(self._seed, self._domain, index)


def fresh_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """A fresh Generator on the stream of (seed, domain, index), each a word below 2^64."""
    key = np.array([_check_seed(seed), _check_seed(domain, "stream domain")], dtype=np.uint64)
    counter = np.array([0, 0, 0, _check_seed(index, "stream index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def sample_lp_ball(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One point uniform in the unit p-ball of dimension n: the one-row batch."""
    return sample_lp_ball_rows(1, n, p, rng)[0]


def sample_lp_ball_rows(rows: int, n: int, p: float, rng: np.random.Generator,
                        sizes=None) -> np.ndarray:
    """``rows`` points uniform in the unit p-ball of dimension n, one per row.

    Finite p uses the construction of Barthe, Guedon, Mendelson and Naor:
    coordinates with density proportional to exp(-|t|^p) (a signed
    Gamma(1/p) power), one auxiliary exponential variate per row, and a
    joint normalization, exact for every finite p >= 1 with no rejection
    step. Draw order for the whole batch is fixed: every magnitude (row by
    row), then every sign, then one exponential per row; at p = 1 the
    magnitudes are standard exponentials, Gamma(1)'s values draw for draw.
    At p = 2 the coordinates are standard normals Z (Z / sqrt 2 has that
    density, and sign(Z) is a fair sign), so a row is Z / sqrt(|Z|^2 + 2E),
    drawn as every normal, then one exponential per row. ``p = inf`` draws
    coordinates independently uniform on [-1, 1].

    With ``sizes``, one integer in [0, n] per row, row r is uniform in the
    ball of its first sizes[r] coordinates and zero beyond: unused
    coordinates are drawn but masked before the normalizing sum.
    """
    rows, n = _check_int(rows, "rows", 1), _check_int(n, "dimension n", 1)
    p = _check_exponent(p, "ball exponent p")
    unused = None if sizes is None else np.arange(n) >= _check_row_sizes(sizes, rows, n)[:, None]
    X, S = np.empty((rows, n)), np.empty((rows, n))
    words = _fill_ball_rows(X, S, p, rng, unused)
    if words is not None:  # signs +-1.0 as a product, faster than a masked negate
        X *= _signs(words, 0, X.shape, out=S)
    if unused is not None:
        X[unused] = 0.0
    return X


def _fill_ball_rows(X: np.ndarray, S: np.ndarray, p: float, rng: np.random.Generator,
                    unused) -> np.ndarray | None:
    """Unchecked kernel of :func:`sample_lp_ball_rows`: fill the C-contiguous
    float batch X in the documented draw order, unused cells not yet zeroed, with
    the points at p = 2 and p = inf (returning None), elsewhere with the magnitudes
    ``w^(1/p) / scale``, returning the sign words of X's cells in row-major order,
    so a caller reads only the signs it uses (``(w s) / scale`` is ``(w / scale) s``
    bit for bit). S is scratch for p = 2's squares; all runs in place."""
    words = None
    if p == np.inf:
        rng.random(out=X)  # uniform(-1, 1) is -1 + 2u, and 2u is exact
        X *= 2.0
        X -= 1.0
    elif p == 2.0:
        rng.standard_normal(out=X)
        y = rng.standard_exponential(len(X))
        if unused is not None:
            X[unused] = 0.0
        np.multiply(X, X, out=S)
        X /= np.sqrt(S.sum(axis=1) + 2.0 * y)[:, None]
    else:
        if p == 1.0:  # |g_ij|^p: Gamma(1) is the standard exponential, draw for draw
            w = rng.standard_exponential(out=X)
        else:
            w = rng.gamma(1.0 / p, 1.0, X.shape)
        words = _sign_words(rng, X.size)
        y = rng.standard_exponential(len(X))
        if unused is not None:
            w[unused] = 0.0
        scale = (w.sum(axis=1) + y) ** (1.0 / p)
        if p != 1.0:
            np.power(w, 1.0 / p, out=X)
        X /= scale[:, None]
    return words


def _subsets(gen, sizes, width: int, n: int) -> np.ndarray:
    """Uniform subsets of range(n), sizes[r] <= width of them in row r (-1 pads).

    Floyd's algorithm in O(rows * width^2), whatever n: step s of a row of
    size k takes t uniform in [0, n - k + s] (one ``integers`` call for all
    steps; unused ones draw from [0, 0]), or n - k + s if t is taken.
    """
    used = np.arange(width) < sizes[:, None]
    top = n - sizes[:, None] + np.arange(width)
    t = gen.integers(0, np.where(used, top, 0), endpoint=True).T.copy()  # step-major
    for s in range(1, width):
        np.copyto(t[s], top[:, s], where=(t[:s] == t[s]).any(axis=0))
    t[~used.T] = -1
    return t.T


def _sparse_ball_rows(rows: int, least: int, width: int, n: int, p: float, gen) -> tuple:
    """``rows`` sparse points of the unit p-ball over range(n), as (columns, values) with
    column -1 and value 0 in unused slots: sizes uniform in [least, width], then their
    columns by :func:`_subsets`, then their values by :func:`sample_lp_ball_rows`."""
    sizes = gen.integers(least, width, size=rows, endpoint=True)
    return _subsets(gen, sizes, width, n), sample_lp_ball_rows(rows, width, p, gen, sizes)


def _sign_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` fair signs as the bits of ``ceil(count / 64)`` uniform 64-bit words,
    one documented draw for every bit generator: sign i is plus iff bit i % 64 of
    word i // 64 is set."""
    return rng.integers(0, 1 << 64, -(-count // 64), dtype=np.uint64)


def _signs(words: np.ndarray, lo: int, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Signs lo, lo + 1, ... of :func:`_sign_words` as +-1.0 in ``shape``, in ``out`` if given."""
    S = np.empty(shape) if out is None else out
    octets = words.astype("<u8", copy=False).view(np.uint8)[lo // 8: -(-(lo + S.size) // 8)]
    bits = np.unpackbits(octets, bitorder="little")[lo % 8: lo % 8 + S.size]
    np.multiply(bits.reshape(shape), 2.0, out=S)
    return np.subtract(S, 1.0, out=S)
