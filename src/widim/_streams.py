"""Per-index random streams on a counter-based generator.

Every randomized driver in this package derives an isolated stream per
unit of work from (seed, domain, index), so results never depend on how
work is split across threads. The unit is the driver's choice: Monte Carlo
certification draws a whole fixed-size block of samples, chunk by chunk,
from stream (seed, domain, b) for block b, and so does the embedding check for each
fixed block of lattice pairs, while hill-climbing starts draw one stream
per start. The generator is Philox: its state is a pure 128-bit counter
plus a 128-bit key, so a stream is just a counter position.

Index i is placed in the high counter word, giving consecutive indices a
stride of 2^192 draw blocks; no realistic draw volume can make two streams
overlap. Distinct drivers use distinct domain constants in the key so that
equal indices never collide across drivers.

Every random sign comes from :func:`_sign_halves`, bit for bit the draw
``rng.integers(0, 2, count)``, and is read as +-1.0 by :func:`_signs`.
"""

from __future__ import annotations

import numpy as np

from .core import _check_seed

__all__ = ["StreamFactory", "fresh_stream", "DEFAULT_SEED"]

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


def _sign_halves(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` signs as 32-bit halves of raw words, sign i plus iff bit 31 of
    half i is set: bit for bit ``rng.integers(0, 2, count) == 1``, which turns
    each half into one value by a Lemire step that never rejects, and leaving
    the generator in that call's state. A 64-bit word gives its low half
    first; a half that numpy holds back is read first, and an odd count holds
    back its spare half. The words are not unpacked, so a caller reads only
    the signs it uses. A bit generator other than numpy's four 64-bit ones
    takes numpy's own draw, shifted to bit 31."""
    bg = rng.bit_generator  # generators named here: numpy loads numpy.random on first use
    if not isinstance(bg, (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                           np.random.SFC64)):
        return rng.integers(0, 2, count, dtype=np.uint32) << 31
    held = bg.state["has_uint32"]
    words = bg.random_raw((count - held + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")
    state = bg.state
    if held:
        halves = np.concatenate((np.full(1, state["uinteger"], "<u4"), halves))
    state["has_uint32"] = len(halves) - count
    if len(words):  # numpy keeps the last word's high half, held or not
        state["uinteger"] = int(words[-1] >> 32)
    bg.state = state
    return halves[:count]


def _signs(halves: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The signs of :func:`_sign_halves` as +-1.0, plus iff bit 31 is set, in ``out`` if given."""
    S = np.right_shift(halves, 31, out=np.empty(halves.shape) if out is None else out)
    return np.subtract(np.multiply(S, 2.0, out=S), 1.0, out=S)
