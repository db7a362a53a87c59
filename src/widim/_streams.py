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
    :func:`fresh_stream` of an index. No driver in this package uses it; it
    stays for callers that hold a factory.
    """

    def __init__(self, seed: int, domain: int):
        self._seed, self._domain = seed, domain

    def generator(self, index: int) -> np.random.Generator:
        return fresh_stream(self._seed, self._domain, index)


def fresh_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """A fresh Generator on the stream of (seed, domain, index), each a word below 2^64."""
    key = np.array([_check_seed(seed), _check_seed(domain, "stream domain")], dtype=np.uint64)
    counter = np.array([0, 0, 0, _check_seed(index, "stream index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
