"""Per-index stream derivation: factory vs reference construction."""

import math

import numpy as np
import pytest

from widim._streams import (
    DEFAULT_SEED,
    DOMAIN_BALL,
    DOMAIN_CLIMB,
    DOMAIN_PAIRS,
    StreamFactory,
    _sign_halves,
    _signs,
    _sparse_ball_rows,
    _subsets,
    fresh_stream,
    sample_lp_ball_rows,
)


def test_default_seed_value():
    assert DEFAULT_SEED == 0x5EED


def test_factory_matches_fresh_stream_bitwise():
    factory = StreamFactory(DEFAULT_SEED, DOMAIN_BALL)
    for index in (0, 1, 2, 17, 4095, 2**40):
        a = factory.generator(index)
        draws_a = (a.integers(0, 2**63, 8).tolist(), a.uniform(size=5).tolist(),
                   float(a.gamma(0.5, 1.0)), float(a.standard_exponential()))
        b = fresh_stream(DEFAULT_SEED, DOMAIN_BALL, index)
        draws_b = (b.integers(0, 2**63, 8).tolist(), b.uniform(size=5).tolist(),
                   float(b.gamma(0.5, 1.0)), float(b.standard_exponential()))
        assert draws_a == draws_b


def test_factory_reset_is_exact_after_interleaving():
    factory = StreamFactory(7, DOMAIN_BALL)
    first = factory.generator(5).uniform(size=6).tolist()
    factory.generator(9).uniform(size=3)  # interleaved use of another index
    again = factory.generator(5).uniform(size=6).tolist()
    assert first == again


def test_streams_are_distinct():
    u0 = fresh_stream(1, DOMAIN_BALL, 0).uniform(size=4).tolist()
    u1 = fresh_stream(1, DOMAIN_BALL, 1).uniform(size=4).tolist()
    u_dom = fresh_stream(1, DOMAIN_CLIMB, 0).uniform(size=4).tolist()
    u_seed = fresh_stream(2, DOMAIN_BALL, 0).uniform(size=4).tolist()
    assert len({tuple(u0), tuple(u1), tuple(u_dom), tuple(u_seed)}) == 4


def test_philox_counter_word_is_high_stride():
    # index goes into the last counter word; 2^192 blocks apart means heavy
    # draw volume from index i can never run into index i+1
    g = fresh_stream(3, DOMAIN_BALL, 12)
    state = g.bit_generator.state["state"]
    assert state["counter"].tolist() == [0, 0, 0, 12]


def test_negative_index_rejected():
    with pytest.raises(ValueError, match="stream index"):
        StreamFactory(1, DOMAIN_BALL).generator(-1)


def test_seed_and_domain_above_64_bits_are_refused():
    # a seed of 2^64 + 5 once drew seed 5's stream; each word of the key and
    # counter is now checked by the seed rule, never masked
    for seed, domain in ((2**64 + 5, DOMAIN_BALL), (5, 2**64 + DOMAIN_BALL)):
        with pytest.raises(ValueError, match="below 2\\^64"):
            fresh_stream(seed, domain, 0)


def test_numpy_generator_draws_are_stable():
    # the certification record format freezes these draws; a numpy upgrade
    # that changes them must be caught loudly, not absorbed silently
    g = fresh_stream(DEFAULT_SEED, DOMAIN_BALL, 0)
    assert g.uniform() == 0.13251119731759053


def _state(g):
    """The full state of g's bit generator, arrays as lists, for ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(w) for k, w in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(g.bit_generator.state)


_SIGN_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
                    np.random.MT19937)


@pytest.mark.parametrize("count", (1, 2, 333, 16379, 16384))
@pytest.mark.parametrize("before", (None, (0, 5, 3), (0, 5, 4)),
                         ids=("fresh", "half-held", "none-held"))
@pytest.mark.parametrize("bits", _SIGN_GENERATORS, ids=lambda b: b.__name__)
def test_sign_halves_are_numpys_integers_draw(bits, before, count):
    # every random sign in the package is bit 31 of a raw 32-bit half; this
    # rests on numpy's bounded-integer algorithm (one Lemire step per half for
    # a range of 2), which numpy does not document, so a numpy release that
    # changes it fails here rather than moving every stream. integers(0, 5, 3)
    # leaves a half held back in a 64-bit generator, integers(0, 5, 4) none
    a, b = np.random.Generator(bits(2026)), np.random.Generator(bits(2026))
    if before is not None:
        a.integers(*before)
        b.integers(*before)
    want = a.integers(0, 2, count)
    halves = _sign_halves(b, count)
    assert halves.shape == (count,)
    assert np.array_equal(halves >> 31, want)
    assert _state(b) == _state(a)
    assert np.array_equal(_sign_halves(b, 3) >> 31, a.integers(0, 2, 3))  # a held half carries
    assert b.random() == a.random()


@pytest.mark.parametrize("shape", ((1,), (7,), (4, 5)))
def test_signs_read_bit_31_as_plus_one(shape):
    # +1.0 iff bit 31 of a half is set, whatever the other bits, fresh or into
    # a float workspace, so x * sign is x or exactly -x
    halves = np.random.default_rng(3).integers(0, 2**32, shape, dtype=np.uint32)
    want = np.where(halves >> 31 == 1, 1.0, -1.0)
    assert np.array_equal(_signs(halves), want)
    out = np.full(shape, 9.0)
    assert _signs(halves, out=out) is out and np.array_equal(out, want)
    x = np.random.default_rng(4).standard_normal(shape)
    assert np.array_equal(x * _signs(halves), np.where(halves >> 31 == 1, x, -x))


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("p", (1.0, 2.0, 1.5, math.inf))
@pytest.mark.parametrize("least", (0, 1))
def test_sparse_ball_rows_is_the_size_subset_ball_sequence(least, p, width):
    # the one call both embed draws make is the sequence they made inline:
    # sizes, then their subsets, then ball values on them, bit for bit, and it
    # leaves the generator where that sequence left it
    for n in (width, width + 5):
        a, b = (fresh_stream(11, DOMAIN_PAIRS, 100 * n + width) for _ in range(2))
        cols, vals = _sparse_ball_rows(37, least, width, n, p, a)
        sizes = b.integers(least, width, size=37, endpoint=True)
        want_cols = _subsets(b, sizes, width, n)
        want_vals = sample_lp_ball_rows(37, width, p, b, sizes)
        assert cols.dtype == want_cols.dtype and np.array_equal(cols, want_cols)
        assert vals.tobytes() == want_vals.tobytes()
        assert _state(a) == _state(b)
