"""Per-index random streams on a counter-based generator.

Every randomized driver in this package derives an isolated stream per
unit of work from (seed, domain, index), so results never depend on how
work is split across threads. The unit is the driver's choice: Monte Carlo
certification draws a whole fixed-size block of samples from stream
(seed, domain, b) for block b, and so does the embedding check for each
fixed block of lattice pairs, while hill-climbing starts draw one stream
per start. The generator is Philox: its state is a pure 128-bit counter
plus a 128-bit key, so a stream is just a counter position.

Index i is placed in the high counter word, giving consecutive indices a
stride of 2^192 draw blocks; no realistic draw volume can make two streams
overlap. Distinct drivers use distinct domain constants in the key so that
equal indices never collide across drivers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamFactory", "fresh_stream", "DEFAULT_SEED"]

#: Documented default seed for every randomized entry point.
DEFAULT_SEED = 0x5EED

# Domain constants, one per randomized driver.
DOMAIN_BALL = 0xBA11
DOMAIN_CLIMB = 0xC11B
DOMAIN_POLYTOPE = 0x9017
DOMAIN_PAIRS = 0x9A12

_MASK64 = (1 << 64) - 1


class StreamFactory:
    """Hands out a Generator positioned at the isolated stream of an index.

    One Philox instance and one Generator are constructed per factory;
    :meth:`generator` repositions them by resetting the bit generator state,
    which is several times faster than building fresh objects per index and
    produces identical bits (pinned by a test). The returned Generator is
    shared, so draw from it before requesting the next index, and use one
    factory per thread.
    """

    def __init__(self, seed: int, domain: int):
        key = np.array([int(seed) & _MASK64, int(domain) & _MASK64], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        self._template = dict(self._bg.state)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._key = key
        self._buffer = np.zeros(4, dtype=np.uint64)

    def generator(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError(f"stream index must be nonnegative, got {index}")
        st = dict(self._template)
        self._counter[3] = index  # high word: streams sit 2^192 blocks apart
        st["state"] = {"counter": self._counter, "key": self._key}
        st["buffer"] = self._buffer
        st["buffer_pos"] = 4  # empty buffer: first draw advances the counter
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen


def fresh_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Reference construction of a single stream, one fresh object per call.

    Slower than :class:`StreamFactory` but trivially correct; the test suite
    pins the factory to this function bit for bit.
    """
    key = np.array([int(seed) & _MASK64, int(domain) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
