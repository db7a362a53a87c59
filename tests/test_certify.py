"""Certification drivers: sampling, Monte Carlo, hill climbing, lemma oracles."""

import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widim import certify, core, group_dynamics, threshold_map
from widim.certify import (
    BLOCK,
    CLIMB_INITIAL_STEP,
    CLIMB_MIN_STEP,
    CLIMB_SWEEPS,
    CLIMB_WINDOW,
    CertificationReport,
    adversarial_certify,
    check_key_lemma,
    check_lemma_swap,
    key_lemma_oracle_max,
    monte_carlo_certify,
)
from widim._output import csv_lines, from_json, to_json
from widim.core import MAX_CELLS, in_lp_ball, lp_norm_power, make_exponents
from widim.group_dynamics import LatticeBox, embedding_check, geometric_weight_metric, tail_set
from widim._streams import (DOMAIN_BALL, DOMAIN_CLIMB, StreamFactory, fresh_stream,
                            sample_lp_ball, sample_lp_ball_rows)
from widim.threshold_map import distortion_bound, extremal_vector


# --- uniform ball sampling ----------------------------------------------------


def draw_scalar(N, n, p, rng):
    return np.vstack([sample_lp_ball(n, p, rng) for _ in range(N)])


def draw_rows(N, n, p, rng):
    return sample_lp_ball_rows(N, n, p, rng)


SAMPLERS = (draw_scalar, draw_rows)


def block_chunks(seed, b, n, p):
    """The chunks of a Monte Carlo block as (magnitudes, signed rows), copied
    out of the workspace, each row signed through the chunk's own signer."""
    return [(A.copy(), np.array([signed(r) for r in range(len(A))]).reshape(A.shape))
            for A, signed in certify._sample_block(seed, b, n, p)]


def test_samples_lie_in_the_ball():
    for draw in SAMPLERS:
        rng = np.random.default_rng(41)
        for p in (1.0, 2.0, 3.5, math.inf):
            for _ in range(300):
                n = int(rng.integers(1, 20))
                X = draw(3, n, p, rng)
                assert X.shape == (3, n)
                assert all(in_lp_ball(x, p) for x in X)
    # the Monte Carlo blocks themselves, including the boundary-heavy p = 1:
    # BLOCK rows in chunks of max(1, _CHUNK_CELLS // n) rows, the last one short
    # (a chunk is valid until the next draw, so each is copied); membership is
    # checked on the signed rows, and the yielded magnitudes are theirs
    for p in (1.0, 2.0, math.inf):
        for n, sizes in ((1, [BLOCK]), (5, [3276, 820]), (64, [256] * 16)):
            chunks = block_chunks(41, 2, n, p)
            assert [X.shape for _, X in chunks] == [(k, n) for k in sizes]
            assert all(in_lp_ball(x, p) for _, X in chunks for x in X)
            assert all(np.array_equal(A, np.abs(X)) for A, X in chunks)


def test_sample_coordinate_means_vanish():
    N, n = 100_000, 4
    for draw in SAMPLERS:
        rng = np.random.default_rng(42)
        for p in (1.0, 2.0):
            X = draw(N, n, p, rng)
            mean = X.mean(axis=0)
            sigma = X.std(axis=0) / math.sqrt(N)
            assert np.all(np.abs(mean) <= 4.0 * sigma)


def test_sample_is_uniform_disk_area_ratio():
    # p=2, n=2: P(|x| <= 1/2) is the area ratio 1/4
    N = 100_000
    sigma = math.sqrt(0.25 * 0.75 / N)
    for draw in SAMPLERS:
        X = draw(N, 2, 2.0, np.random.default_rng(43))
        frac = float(np.mean(np.sum(X * X, axis=1) <= 0.25))
        assert abs(frac - 0.25) <= 4.0 * sigma


def test_p2_radius_law_with_and_without_sizes():
    # uniform in B_2^k: |x|^k is uniform on [0, 1]; P(|x|^k <= 1/4) = 1/4
    N = 20_000
    rng = np.random.default_rng(47)
    for n in (1, 3, 64):
        for sizes in (None, rng.integers(1, n, size=N, endpoint=True)):
            X = sample_lp_ball_rows(N, n, 2.0, rng, sizes)
            k = np.full(N, n) if sizes is None else sizes
            U = np.sqrt(np.sum(X * X, axis=1)) ** k
            assert abs(float(U.mean()) - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / N)
            frac = float(np.mean(U <= 0.25))
            assert abs(frac - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / N)
            masked = X[np.arange(n) >= k[:, None]]
            assert np.all(masked == 0.0) and not np.any(np.signbit(masked))


def test_sample_validation():
    rng = np.random.default_rng(44)
    for draw in SAMPLERS:
        with pytest.raises(ValueError):
            draw(2, 0, 2.0, rng)
        with pytest.raises(ValueError):
            draw(2, 3, 0.5, rng)
        with pytest.raises(ValueError):
            draw(2, 3, math.nan, rng)
        for n in (True, 2.0, 2.5, "3"):
            with pytest.raises(ValueError):
                draw(2, n, 2.0, rng)


def reference_chunk(g, rows, n, p):
    """``rows`` ball points drawn from g as all magnitudes, then all signs,
    then one exponential per row; at p = 2 as all normals, then one
    exponential per row."""
    if math.isinf(p):
        return g.uniform(-1.0, 1.0, (rows, n))
    if p == 2.0:
        Z = g.standard_normal((rows, n))
        y = g.standard_exponential(rows)
        return Z / np.sqrt(np.sum(Z * Z, axis=1) + 2.0 * y)[:, None]
    w = g.gamma(1.0 / p, 1.0, (rows, n))
    words = g.integers(0, 1 << 64, -(-rows * n // 64), dtype=np.uint64).tolist()
    signs = np.reshape([1.0 if words[i // 64] >> i % 64 & 1 else -1.0  # bit i % 64 of word i // 64
                        for i in range(rows * n)], (rows, n))
    y = g.standard_exponential(rows)
    return signs * w ** (1.0 / p) / ((np.sum(w, axis=1) + y) ** (1.0 / p))[:, None]


def test_block_matches_fresh_stream_reference():
    # block b is BLOCK rows from stream (seed, DOMAIN_BALL, b), drawn in order
    # as chunks of max(1, _CHUNK_CELLS // n) rows, each chunk drawn whole; a
    # chunk's magnitudes are |R| and its signed rows R, bit for bit. At n = 11
    # (1489 x 11 cells) and n = 17 (963 x 17) a chunk's sign count is not a
    # multiple of 64, so its last word's unused bits are dropped
    for p in (1.0, 2.0, 3.5, math.inf):
        for n, b in ((1, 0), (5, 7), (8, 3), (11, 5), (17, 1), (64, 2**40)):
            g = fresh_stream(9, DOMAIN_BALL, b)
            rows = max(1, certify._CHUNK_CELLS // n)
            ref = [reference_chunk(g, min(rows, BLOCK - lo), n, p)
                   for lo in range(0, BLOCK, rows)]
            got = block_chunks(9, b, n, p)
            assert len(got) == len(ref)
            for (A, X), R in zip(got, ref):
                assert np.array_equal(X.view(np.uint64), R.view(np.uint64))
                assert np.array_equal(A.view(np.uint64), np.abs(R).view(np.uint64))


def test_block_chunks_share_one_workspace():
    # a block draws every chunk into one buffer allocated per call: consecutive
    # full chunks are views of the same memory, and the short last chunk too
    for p in (1.0, 2.0, 3.5, math.inf):
        for n in (5, 64, 1024):
            chunks = certify._sample_block(9, 1, n, p)
            first, _ = next(chunks)
            for A, _ in chunks:
                assert np.shares_memory(first, A)


def test_gamma_one_is_the_standard_exponential():
    # the p = 1 magnitudes are drawn with standard_exponential, which gives
    # gamma(1.0, 1.0)'s values draw for draw on the same stream
    for shape in (7, (300, 7), (2, 4096)):
        a = fresh_stream(3, DOMAIN_BALL, 5).gamma(1.0, 1.0, shape)
        b = fresh_stream(3, DOMAIN_BALL, 5).standard_exponential(shape)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# sha256 prefixes of sample_lp_ball_rows(37, 9, p, fresh_stream(7, DOMAIN_BALL, 3),
# sizes) with sizes None or 1 + (7 r) % 9 for row r; the p = 1, 1.5 and 3 entries
# were re-recorded when each sign became one bit of a 64-bit sign word
SAMPLER_GOLDEN = {
    (1.0, False): "e70d38c7e0ea88b8",
    (1.0, True): "f96ac144efdda1be",
    (1.5, False): "5d249c1cd08d47fd",
    (1.5, True): "d34ae1214f81dd9c",
    (2.0, False): "3d73e807d6defdb1",
    (2.0, True): "07c600a8e096e4e4",
    (3.0, False): "8a762b536d3b4d1b",
    (3.0, True): "c9bbf2a0cad70c3d",
    (math.inf, False): "ba81e5c832ea151e",
    (math.inf, True): "4434ffb07aac61a6",
}


@pytest.mark.parametrize("p, with_sizes", list(SAMPLER_GOLDEN))
def test_sampler_golden_bytes(p, with_sizes):
    sizes = [1 + (7 * r) % 9 for r in range(37)] if with_sizes else None
    X = sample_lp_ball_rows(37, 9, p, fresh_stream(7, DOMAIN_BALL, 3), sizes)
    assert hashlib.sha256(X.tobytes()).hexdigest()[:16] == SAMPLER_GOLDEN[p, with_sizes]


def test_monte_carlo_samples_are_prefix_stable(monkeypatch):
    # sample i is the same whatever the sample count: a run of k samples
    # filters exactly the magnitudes of the first k rows of the full blocks,
    # one row-norm pass per chunk, which every drawn row goes through, and
    # draws no chunk past the one that holds sample k - 1
    seen = []
    real = certify._lq_rows

    def spy(A, q):
        seen.append(A.copy())
        return real(A, q)

    monkeypatch.setattr(certify, "_lq_rows", spy)
    e = make_exponents(1.5, 3)
    rows = certify._CHUNK_CELLS // 5  # 3276: chunks of 3276 and 820 rows
    full = [[A for A, _ in block_chunks(21, b, 5, e.p)] for b in (0, 1)]
    assert [len(A) for A in full[0]] == [rows, BLOCK - rows]
    whole = np.vstack(full[0] + full[1])
    for k, chunks in ((1, 1), (17, 1), (rows, 1), (rows + 1, 2), (BLOCK - 1, 2), (BLOCK, 2),
                      (BLOCK + 3, 3), (BLOCK + rows + 1, 4)):
        seen.clear()
        monte_carlo_certify(5, 2, e, k, seed=21)
        assert len(seen) == chunks
        assert np.array_equal(np.vstack(seen), whole[:k])


# --- Monte Carlo certification -------------------------------------------------


def test_monte_carlo_pinned_extremal_equality():
    e = make_exponents(1, 2)
    rep = monte_carlo_certify(16, 3, e, 5000)
    assert rep.passed
    assert abs(rep.max_observed_distortion - 0.5) <= 1e-12  # (3+1)^(-1/2)
    assert np.array_equal(rep.argmax_vector, extremal_vector(3, 1.0, 16))


def test_monte_carlo_identity_regime():
    rep = monte_carlo_certify(8, 8, make_exponents(1, 2), BLOCK + 1000)
    assert rep.max_observed_distortion == 0.0
    assert rep.passed
    # every sample ties at 0 across two blocks: the lowest sample index wins
    assert rep.argmax_vector == tuple(block_chunks(rep.seed, 0, 8, 1.0)[0][1][0])


def monte_carlo_oracle(n, m, e, samples, seed):
    """The largest distortion and its point, from one ``distortion`` call on
    the concatenated chunks of every block: the first argmax, unless the
    extremal point (m < n) reaches it."""
    blocks = range(-(-samples // BLOCK))
    X = np.vstack([C for b in blocks for _, C in block_chunks(seed, b, n, e.p)])[:samples]
    d = threshold_map.distortion(X, m, e.q)
    at = int(np.argmax(d))
    value, x = float(d[at]), X[at]
    if m < n:
        ext = certify.extremal_vector(m, e.p, n)
        d_ext = float(threshold_map.distortion(ext, m, e.q))
        if d_ext >= value:
            value, x = d_ext, ext
    return value, x


_PQ = [(1.0, 1.05), (1.0, 2.0), (1.0, math.inf), (1.5, 4.0), (2.0, 3.0), (2.0, 10000.0),
       (2.0, math.inf), (3.0, 5.0)]


def _half_extremal(m, p, n):
    return 0.5 * extremal_vector(m, p, n)


@settings(max_examples=40, deadline=None)
@given(
    nm=st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 1))),
    pq=st.sampled_from(_PQ),
    samples=st.integers(1, 2 * BLOCK + 5),
    seed=st.integers(0, 2**64 - 1),
)
@example(nm=(64, 64), pq=(1.0, 2.0), samples=2 * BLOCK + 5, seed=3)  # all ties
@example(nm=(5, 6), pq=(2.0, math.inf), samples=BLOCK + 1, seed=0)
@example(nm=(80, 3), pq=(1.5, 4.0), samples=BLOCK - 1, seed=1)
@example(nm=(5, 2), pq=(1.0, 2.0), samples=3277, seed=4)  # one row past the first chunk
@example(nm=(64, 1), pq=(1.0, 1.05), samples=2 * BLOCK + 5, seed=1)  # winners near the best
def test_monte_carlo_matches_the_whole_block_oracle(nm, pq, samples, seed):
    # filtering and scoring chunk by chunk and reducing in chunk order gives
    # the maximum and the first argmax of one distortion call on the whole
    # sample set. The extremal point attains the bound, so samples rarely beat
    # it; started from half its scale, samples win and the filter decides
    n, m = nm
    e = make_exponents(*pq)
    for extremal in (extremal_vector, _half_extremal):
        with mock.patch.object(certify, "extremal_vector", extremal):
            rep = monte_carlo_certify(n, m, e, samples, seed=seed)
            value, x = monte_carlo_oracle(n, m, e, samples, seed)
        assert rep.max_observed_distortion == value
        assert np.array_equal(np.asarray(rep.argmax_vector).view(np.uint64),
                              np.asarray(x).view(np.uint64))
    if m >= n:  # every sample ties at 0: sample 0 wins
        assert value == 0.0
        assert rep.argmax_vector == tuple(block_chunks(seed, 0, n, e.p)[0][1][0])


@pytest.mark.parametrize("p, q, n, m, limit", [(1.0, 2.0, 64, 1, 100), (1.0, 2.0, 64, 3, 100),
                                               (2.0, math.inf, 8, 3, 2 * BLOCK)])
def test_monte_carlo_scores_only_the_rows_that_can_win(monkeypatch, p, q, n, m, limit):
    # a row whose q-norm cannot beat the best so far is never scored: at n = 64
    # almost no sample comes near the extremal distortion, while at n = 8 and
    # q = inf most rows still pass; the report is the oracle's either way
    scored = []
    real = certify._distortion_rows
    monkeypatch.setattr(certify, "_distortion_rows",
                        lambda A, m, q: scored.append(len(A)) or real(A, m, q))
    e = make_exponents(p, q)
    rep = monte_carlo_certify(n, m, e, 2 * BLOCK, seed=1)
    assert sum(scored) < limit
    assert rep.max_observed_distortion == monte_carlo_oracle(n, m, e, 2 * BLOCK, 1)[0]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_monte_carlo_signs_the_reported_sample(p):
    # with m >= n every sample ties at 0, so sample 0 is reported: signed from
    # its chunk's magnitudes, it is row 0 of the sampler's first chunk-sized
    # batch from stream (seed, DOMAIN_BALL, 0), bit for bit; a run needs a
    # finite p, so at p = inf the block's own signer is checked alone
    for n, seed in ((1, 5), (3, 0), (16, 24301), (64, 2**64 - 1)):
        rows = min(BLOCK, max(1, certify._CHUNK_CELLS // n))
        want = sample_lp_ball_rows(rows, n, p, fresh_stream(seed, DOMAIN_BALL, 0))[0]
        _, signed = next(certify._sample_block(seed, 0, n, p))
        got = [signed(0)]
        if not math.isinf(p):
            rep = monte_carlo_certify(n, n + seed % 2, make_exponents(p, math.inf), 2, seed=seed)
            got.append(np.array(rep.argmax_vector))
        for x in got:
            assert np.array_equal(x.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("p, q", [(1.0, 2.0), (1.5, 4.0), (2.0, math.inf)])
def test_monte_carlo_holds_no_block_sized_array(p, q):
    # one 4096 x 64 block of doubles is 2 MiB; a run draws and scores it in
    # chunks of 256 rows, so its traced peak stays below 1 MiB
    e = make_exponents(p, q)
    monte_carlo_certify(64, 3, e, BLOCK)
    tracemalloc.start()
    try:
        monte_carlo_certify(64, 3, e, BLOCK, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_monte_carlo_m0_sup_bound():
    rep = monte_carlo_certify(4, 0, make_exponents(1, math.inf), 1000)
    assert rep.max_observed_distortion <= 1.0
    assert rep.bound == 1.0


def test_adversarial_pinned():
    e = make_exponents(1, 2)
    adv = adversarial_certify(8, 1, e, 32)
    mc = monte_carlo_certify(8, 1, e, 32)
    assert adv.max_observed_distortion >= mc.max_observed_distortion
    assert abs(adv.max_observed_distortion - 2.0**-0.5) <= 1e-9
    assert adv.passed

    rep = adversarial_certify(3, 2, make_exponents(2, math.inf), 8)
    assert abs(rep.max_observed_distortion - 3.0**-0.5) <= 1e-6
    assert rep.passed


# --- hill climbing against the one-move-at-a-time reference --------------------


def reference_climb(n, m, e, restarts, seed):
    """The hill climb scored one move at a time, which the windowed climb
    must match bit for bit: every chain tries move j (coordinate j // 2,
    + then -) from its current point and keeps it if it beats its best."""
    p, q = e.p, e.q
    X = np.empty((restarts + 1, n))
    X[0] = certify.extremal_vector(m, p, n) if m < n else 0.0
    factory = StreamFactory(seed, DOMAIN_CLIMB)
    for k in range(restarts):
        X[k + 1] = sample_lp_ball(n, p, factory.generator(k))
    best = np.asarray(threshold_map.distortion(X, m, q))
    steps = np.full(restarts + 1, CLIMB_INITIAL_STEP)
    for _ in range(CLIMB_SWEEPS):
        improved = np.zeros(restarts + 1, dtype=bool)
        for i in range(n):
            for sign in (1.0, -1.0):
                Y = X.copy()
                Y[:, i] += sign * steps
                norms = np.sum(np.abs(Y) ** p, axis=1)
                over = norms > 1.0
                if np.any(over):
                    Y[over] *= (norms[over] ** (-1.0 / p))[:, None]
                d = np.asarray(threshold_map.distortion(Y, m, q))
                win = d > best
                X[win], best[win] = Y[win], d[win]
                improved |= win
        steps = np.where(improved, steps, steps * 0.5)
        if float(np.max(steps)) < CLIMB_MIN_STEP:
            break
    at = int(np.argmax(best))
    bound = distortion_bound(m, e)
    return CertificationReport(n, m, e, restarts, seed, float(best[at]), bound,
                               bound - float(best[at]), tuple(float(v) for v in X[at]))


# SHA-256 of to_json(adversarial_certify(n, m, make_exponents(p, q),
# restarts, seed)), keyed by (p, q, n, m, restarts, seed), recorded before
# the climb scored its moves in windows: the 16 criterion-2 configurations
# at n = 8, two at n = 64, and edge cases (n = 1, m = 0, m >= n).
ADVERSARIAL_GOLDEN = {
    (1.0, 2.0, 8, 0, 32, 24301): "dc43c2f16c99c505a32c9e13fedbd8cbe34bd26ef5ef5f73b881cb46bf10f672",
    (1.0, 2.0, 8, 1, 32, 24301): "8187d343c2202e0c681c7de93a201fe21661d73beb13de95b9d84cf8ef752d76",
    (1.0, 2.0, 8, 3, 32, 24301): "06dd46e3b8f9f3dea329ac511bdd4cda1eebf11e03a4b7ddf04976da840441dc",
    (1.0, 2.0, 8, 7, 32, 24301): "38e97c910d23d8fafeaf5796b6e2ee18380279edd0a6deb5afddc3c15717effb",
    (1.0, math.inf, 8, 0, 32, 24301): "6e4adead273eb3c8c6510072756cef20452fabdf11e06fbb324cbffce52afdf0",
    (1.0, math.inf, 8, 1, 32, 24301): "4ca5b68cff58d886b4c7d43272e95f5cbaded97eea8c83258c9ca5c531c91a7f",
    (1.0, math.inf, 8, 3, 32, 24301): "ab232899ac2f5a35fb2d1f5dc803612fca53afbe64a891b854c1e9b4caa2fe2f",
    (1.0, math.inf, 8, 7, 32, 24301): "b06fefb6814b988f61bf45de77def0187c8ad22548a461e7420c70081ada0bf5",
    (2.0, math.inf, 8, 0, 32, 24301): "b1361681d5e283222ea35da6c1a7bc968594d5087b1bb19342faae7a17e48615",
    (2.0, math.inf, 8, 1, 32, 24301): "22248ab3e31a2e8ba376388ae533edc71814dd17d8bce1226e06e2731e5a5516",
    (2.0, math.inf, 8, 3, 32, 24301): "b95c32cd5b764347b66dee9e1647f11c45dcc15310716f03c9a3b80a55cb6b0b",
    (2.0, math.inf, 8, 7, 32, 24301): "3bb1ac1a3bf7223e3d333bf8f4ffc9574134895eefda5640bc52f8300a1c1dd0",
    (2.0, 4.0, 8, 0, 32, 24301): "40829c295a00f41cbf132e7a6fd69024b7294d36df4260e6ea8f05fb8d1190c7",
    (2.0, 4.0, 8, 1, 32, 24301): "8fef932fcd57bc7da2e4098d94390c0241fbf504c44cf0f2ad96b9d4c98ada24",
    (2.0, 4.0, 8, 3, 32, 24301): "3c4d0c8ee9b09dfda677329a37c540da39bd292a9e251fe2bdd1f00fd30c272d",
    (2.0, 4.0, 8, 7, 32, 24301): "4beeb22e6575257d047a7c7721daacfa953eed7cd22b58c11df3af35defc70a8",
    (1.0, 2.0, 64, 3, 32, 24301): "e19976353a81ee99409690ecbdb79123343565e643858812cea224ed3ee1b4f6",
    (2.0, 4.0, 64, 7, 32, 24301): "8753a4005608eb6b8627c3a19abd07cfb8d6076e760b3e53cb9f8120e2e22c54",
    (1.0, 2.0, 1, 0, 5, 24301): "23da5027c0cb344708ce484e09b2608a41dbd36066133a4f778730e171e1d158",
    (2.0, math.inf, 1, 1, 5, 24301): "ba2746030b20716560bc50ad13cd5ddb66e0600c971707e0d90fb931adc875d9",
    (1.5, 3.0, 6, 0, 4, 7): "53c6493053f057f81f95f263ff2cbc705e107fe29af03131c782a6120cbe8d34",
    (1.5, 3.0, 4, 4, 3, 24301): "d73bd0b3c762295da0acce8190ceb8e7405afc691793be1b61fa8492e210d33e",
    (1.0, math.inf, 3, 5, 3, 24301): "959f47be4cfe8cd83e5db9c47b21e19c0a63729d0bc4df65deab4d2933713d75",
}


@pytest.mark.parametrize("config", list(ADVERSARIAL_GOLDEN))
def test_adversarial_golden_bytes(config):
    p, q, n, m, restarts, seed = config
    rep = adversarial_certify(n, m, make_exponents(p, q), restarts, seed=seed)
    assert hashlib.sha256(to_json(rep).encode()).hexdigest() == ADVERSARIAL_GOLDEN[config]


@settings(max_examples=40, deadline=None)
@given(
    nm=st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 1))),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    q_kind=st.sampled_from(("2p", "7.25", "inf")),
    restarts=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_climb_matches_reference(nm, p, q_kind, restarts, seed):
    n, m = nm
    q = {"2p": 2.0 * p, "7.25": 7.25, "inf": math.inf}[q_kind]
    e = make_exponents(p, q)
    got = adversarial_certify(n, m, e, restarts, seed=seed)
    assert to_json(got) == to_json(reference_climb(n, m, e, restarts, seed))
    # The extremal chain attains the bound and wins ties, so it is usually
    # the reported argmax and hides the other chains' paths. Started at half
    # its scale it has to climb, and the best climbed point is reported.
    def half(m, p, n):
        return 0.5 * extremal_vector(m, p, n)

    with mock.patch.object(certify, "extremal_vector", half):
        got = adversarial_certify(n, m, e, restarts, seed=seed)
        want = reference_climb(n, m, e, restarts, seed)
    assert to_json(got) == to_json(want)


def test_climb_batches_its_moves(monkeypatch):
    # one n = 16 job must stay well under the 2n calls per sweep of the
    # one-move-at-a-time loop; the climb scores its windows with the unchecked
    # kernel, so the spy sits on that name as certify imports it
    calls = []
    real = certify._distortion_rows

    def spy(A, m, q):
        calls.append(A.shape)
        return real(A, m, q)

    n, e, restarts = 16, make_exponents(1, 2), 8
    monkeypatch.setattr(certify, "_distortion_rows", spy)
    adversarial_certify(n, 3, e, restarts, seed=1)
    assert 0 < len(calls) < 2 * n * CLIMB_SWEEPS / 3
    # every window is one fixed batch: all chains, CLIMB_WINDOW moves each
    assert set(calls) == {(CLIMB_WINDOW * (restarts + 1), n)}


def test_margin_and_bound_fields():
    e = make_exponents(2, 4)
    rep = monte_carlo_certify(6, 2, e, 500, seed=99)
    assert rep.bound == distortion_bound(2, e)
    assert rep.margin == rep.bound - rep.max_observed_distortion
    assert rep.n == 6 and rep.m == 2 and rep.sample_count == 500 and rep.seed == 99


def test_determinism_across_workers_and_reruns():
    e = make_exponents(1, 2)
    base = monte_carlo_certify(16, 3, e, 6000, seed=5)
    for workers in (2, 5):
        other = monte_carlo_certify(16, 3, e, 6000, seed=5, workers=workers)
        assert other == base
        assert to_json(other) == to_json(base)
        assert csv_lines(other) == csv_lines(base)
    assert adversarial_certify(6, 1, e, 8, seed=5, workers=3) == adversarial_certify(
        6, 1, e, 8, seed=5
    )


@pytest.mark.parametrize("cores, threads", [(64, 3), (2, 2), (None, 1)])
def test_monte_carlo_pool_is_capped_by_cores_and_blocks(cores, threads):
    # a recorder in place of the pool runs the blocks serially, so a huge
    # workers value starts no thread at all
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    e = make_exponents(1, 2)
    base = monte_carlo_certify(4, 1, e, 3 * certify.BLOCK - 1, seed=5)  # 3 blocks
    with mock.patch.object(certify, "ThreadPoolExecutor", SerialPool), \
            mock.patch.object(certify.os, "cpu_count", return_value=cores):
        report = monte_carlo_certify(4, 1, e, 3 * certify.BLOCK - 1, seed=5, workers=10**6)
    assert made == [threads]
    assert to_json(report) == to_json(base)
    assert csv_lines(report) == csv_lines(base)


def test_seed_changes_the_run():
    # the extremal pseudo-sample pins argmax, so seed sensitivity is
    # observable at the sampling layer, not in the report maximum
    a = sample_lp_ball(12, 1.0, fresh_stream(1, DOMAIN_BALL, 0))
    b = sample_lp_ball(12, 1.0, fresh_stream(2, DOMAIN_BALL, 0))
    assert not np.array_equal(a, b)
    e = make_exponents(1, 2)
    assert monte_carlo_certify(12, 4, e, 200, seed=9).seed == 9


def test_max_observed_monotone_in_m():
    # shared sample set: the per-sample distortion shrinks as m grows
    e = make_exponents(1, 2)
    values = [
        monte_carlo_certify(10, m, e, 4000, seed=77).max_observed_distortion
        for m in range(0, 11)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_run_validation():
    e = make_exponents(1, 2)
    with pytest.raises(ValueError):
        monte_carlo_certify(0, 1, e, 100)
    with pytest.raises(ValueError):
        monte_carlo_certify(4, -1, e, 100)
    with pytest.raises(ValueError):
        monte_carlo_certify(4, 1, e, 0)
    with pytest.raises(ValueError):
        monte_carlo_certify(4, 1.0, e, 100)
    with pytest.raises(ValueError):
        monte_carlo_certify(True, 0, e, True)
    with pytest.raises(ValueError):
        monte_carlo_certify(4, True, e, 100)
    with pytest.raises(ValueError):
        adversarial_certify(4, 1, e, True)
    with pytest.raises(ValueError):
        adversarial_certify(4, 1, "not exponents", 8)


_M4 = geometric_weight_metric(dim_d=4)


# (run, what it counts): one case per capped size, each just above the cap or far above it
@pytest.mark.parametrize("run, what", [
    (lambda e: monte_carlo_certify(300_000, 2, e, 1), "Monte Carlo block: 4096 x 300000"),
    (lambda e: monte_carlo_certify(MAX_CELLS // BLOCK + 1, 2, e, 1),
     "Monte Carlo block: 4096 x 1025"),
    (lambda e: adversarial_certify(20_000, 2, e, 32), "hill-climb window: 264 x 20000"),
    (lambda e: adversarial_certify(4, 2, e, MAX_CELLS // (4 * CLIMB_WINDOW)),
     "hill-climb window: 1048584 x 4"),
    (lambda e: key_lemma_oracle_max(2, 1, 0.5, 10**9), "oracle sample set: 4096 x 1000000000"),
    (lambda e: key_lemma_oracle_max(2, 1, 0.5, MAX_CELLS, samples=2),
     "oracle sample set: 2 x 4194304"),
    (lambda e: embedding_check(_M4, LatticeBox((0,) * 4, 23), 1.0, 0.5, 1),
     "probe set: 4879681 x 4879681"),
    # 2^11 + 1 points, whose weight table could never fit: refused before it is listed
    (lambda e: embedding_check(geometric_weight_metric(), LatticeBox((0,), 1024), 1.0, 0.5, 1),
     "probe set: 2049 x 2049"),
    # more points than sys.maxsize, which len() cannot report
    (lambda e: embedding_check(_M4, LatticeBox((0,) * 4, 10**5), 1.0, 0.5, 10),
     f"probe set: {(2 * 10**5 + 1)**4} x {(2 * 10**5 + 1)**4}"),
    (lambda e: embedding_check(_M4, [(0,) * 4], 1.0, 1e-3, 1),
     "weight table |omega| x |window|: 1 x 7890481"),
    # one probe far from the origin: its table of 1613^2 cells fits, but the
    # box that holds its offsets, [-1206, 1206]^2, does not
    (lambda e: embedding_check(geometric_weight_metric(dim_d=2), [(400, 0)], 1.0, 0.5, 1),
     "weight box: 1 x 5822569"),
], ids=["mc", "mc-edge", "climb", "climb-edge", "oracle", "oracle-edge", "embed-probe",
        "embed-probe-edge", "embed-probe-past-maxsize", "embed-table", "embed-box"])
def test_oversized_runs_are_refused_before_allocating(run, what, monkeypatch):
    # MC always draws a whole BLOCK x n block, the climb scores
    # CLIMB_WINDOW x (restarts + 1) x n moves at once, the oracle draws
    # samples x n and the embedding check tabulates |omega| x |window|
    # weights: a run above the cap used to die in numpy with a MemoryError
    # (exit 1) or hold gigabytes. Nothing may be drawn, so a missing guard
    # fails here without allocating.
    def no_draw(*args):
        raise AssertionError("an oversized run drew its samples")

    monkeypatch.setattr(certify, "_sample_block", no_draw)
    monkeypatch.setattr(certify, "fresh_stream", no_draw)
    monkeypatch.setattr(group_dynamics, "fresh_stream", no_draw)
    e = make_exponents(1, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            run(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, n = map(int, what.split(": ")[1].split(" x "))
    assert str(info.value) == f"{what} = {rows * n} cells, above the cap of {MAX_CELLS}"
    assert peak < 1 << 20


def test_runs_at_the_cell_cap_are_admitted(monkeypatch):
    e = make_exponents(1, 2)
    monkeypatch.setattr(core, "MAX_CELLS", BLOCK * 4)
    assert monte_carlo_certify(4, 1, e, 10).passed
    with pytest.raises(ValueError, match="Monte Carlo block: 4096 x 5 = 20480 cells"):
        monte_carlo_certify(5, 1, e, 10)
    monkeypatch.setattr(core, "MAX_CELLS", CLIMB_WINDOW * 3 * 4)
    assert adversarial_certify(4, 1, e, 2).passed
    with pytest.raises(ValueError, match="hill-climb window: 24 x 5 = 120 cells"):
        adversarial_certify(5, 1, e, 2)
    assert key_lemma_oracle_max(2, 1, 0.5, 4, samples=24) == 0.5
    with pytest.raises(ValueError, match="oracle sample set: 25 x 4 = 100 cells"):
        key_lemma_oracle_max(2, 1, 0.5, 4, samples=25)
    # one probe point at the origin: the window has radius twice the tail's
    M = geometric_weight_metric()
    window = 4 * tail_set(M, (0,), 0.5).radius + 1
    monkeypatch.setattr(core, "MAX_CELLS", window)
    assert embedding_check(M, [(0,)], 1.0, 0.5, 10).passed
    monkeypatch.setattr(core, "MAX_CELLS", window - 1)
    with pytest.raises(ValueError, match=rf"weight table \|omega\| x \|window\|: 1 x {window} "):
        embedding_check(M, [(0,)], 1.0, 0.5, 10)
    # one probe at (1,): a table of 4t + 5 cells, sliced from a box of 4t + 7 weights
    box = 4 * tail_set(M, (1,), 0.5).radius + 7
    monkeypatch.setattr(core, "MAX_CELLS", box)
    assert embedding_check(M, [(1,)], 1.0, 0.5, 10).passed
    monkeypatch.setattr(core, "MAX_CELLS", box - 1)
    with pytest.raises(ValueError, match=f"weight box: 1 x {box} = {box} cells"):
        embedding_check(M, [(1,)], 1.0, 0.5, 10)
    # a probe set counted at exactly the cap, |Omega|^2 cells, passes its own
    # count and meets the table's, which holds at least as many
    monkeypatch.setattr(core, "MAX_CELLS", 9)
    with pytest.raises(ValueError, match="weight table"):
        embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 10)
    monkeypatch.setattr(core, "MAX_CELLS", 8)
    with pytest.raises(ValueError, match="probe set: 3 x 3 = 9 cells, above the cap of 8"):
        embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 10)


class _Admitted(Exception):
    """Raised by the first draw of a run that passed the cell cap."""


@pytest.mark.parametrize("run, limit", [
    (lambda e, n: monte_carlo_certify(n, 2, e, 1), 1024),
    (lambda e, n: adversarial_certify(n, 2, e, 32), 15887),
    (lambda e, n: key_lemma_oracle_max(2, 1, 0.5, n, samples=4096), 1024),
], ids=["mc", "climb", "oracle"])
def test_admission_limits_of_the_cell_cap(run, limit, monkeypatch):
    # the largest admitted n reaches its first draw; one more is refused before it
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(certify, "fresh_stream", admitted)
    e = make_exponents(1, 2)
    with pytest.raises(_Admitted):
        run(e, limit)
    with pytest.raises(ValueError, match=f"above the cap of {MAX_CELLS}"):
        run(e, limit + 1)


# --- report serialization ------------------------------------------------------


def test_report_json_round_trip():
    for q in (2.0, math.inf):
        e = make_exponents(1, q)
        rep = monte_carlo_certify(5, 1, e, 200, seed=13)
        text = to_json(rep)
        back = from_json(CertificationReport, text)
        assert back == rep
        if math.isinf(q):
            assert '"q": "inf"' in text
        assert '"elapsed": null' in text


@pytest.mark.parametrize("p", [True, "2", "1"])
def test_report_from_json_refuses_non_real_exponents(p):
    # only the JSON spelling "inf" of q is decoded; a bool or another string
    # still meets the exponent rule
    doc = json.loads(to_json(monte_carlo_certify(3, 1, make_exponents(1, 2), 10)))
    doc["exponents"]["p"] = p
    with pytest.raises(ValueError, match="ball exponent p must be a finite real of at least 1"):
        from_json(CertificationReport, json.dumps(doc))


def test_report_csv_shape():
    e = make_exponents(1, 2)
    rep = monte_carlo_certify(3, 1, e, 100)
    header, row = csv_lines(rep)
    assert header.count(",") == row.count(",")
    assert row.endswith(",")  # elapsed column stays empty
    cells = row.split(",")
    vec = cells[header.split(",").index("argmax_vector")]
    assert len(vec.split(";")) == 3


# --- scalar inequality oracles ---------------------------------------------------


def test_lemma_swap_pinned():
    assert check_lemma_swap(2, 3, 1, 2)  # 18 <= 26
    assert check_lemma_swap(1, 0.8, 0.2, 1.7)  # equality at s = 1
    assert check_lemma_swap(2, 0.6, 0.6, 1.0)  # equality at x = y
    with pytest.raises(ValueError):
        check_lemma_swap(0.5, 3, 1, 2)
    with pytest.raises(ValueError):
        check_lemma_swap(2, 1, 3, 2)  # x < y
    with pytest.raises(ValueError):
        check_lemma_swap(2, 3, 1, -1)
    # (1e200)^2 overflows a float: refused by name, not a bare OverflowError
    with pytest.raises(ValueError, match=r"swap's powers x\^s, \(y\+z\)\^s, \(x\+z\)\^s and y\^s "
                                         r"overflow a float at s = 2.0, x = 1e\+200, y = 0.0, "
                                         r"z = 0.0$"):
        check_lemma_swap(2, 1e200, 0.0, 0.0)


def test_lemma_swap_exhaustive_grid():
    grid = np.arange(0.0, 2.0001, 0.05)
    for s in (1.0, 1.5, 2.0, 3.0):
        for x in grid:
            for y in grid:
                if y > x:
                    continue
                for z in grid:
                    assert check_lemma_swap(s, x, y, z)


def test_key_lemma_pinned():
    assert check_key_lemma(2, 1, 0.5, (0.5, 0.5))  # equality: 0.5 = 1 * 0.5
    assert check_key_lemma(1, 2, 0.5, (0.5, 0.5, 0.2))
    assert check_key_lemma(2, 1, 0.5, (0.3, 0.3, 0.3))  # 0.27 <= 0.5
    with pytest.raises(ValueError):
        check_key_lemma(2, 1, 0.5, (0.7, 0.2))  # coordinate above the cap
    with pytest.raises(ValueError):
        check_key_lemma(2, 1, 0.5, (0.5, 0.5, 0.5))  # sum above the budget
    with pytest.raises(ValueError):
        check_key_lemma(2, 1, 0.5, ())
    with pytest.raises(ValueError, match="finite"):
        check_key_lemma(2, 1, 1, (math.nan,))  # bad input, not a violated lemma
    # 10.0 ** 399 overflows a float: refused by name, not a bare OverflowError
    with pytest.raises(ValueError, match=r"bound c \* t\^\(s-1\) overflows a float at "
                                         r"s = 400.0, t = 10.0$"):
        check_key_lemma(400, 1, 10, (1.0,))


def test_key_lemma_oracle_pinned():
    assert key_lemma_oracle_max(2, 1, 0.5, 2) == 0.5
    assert key_lemma_oracle_max(2, 1, 0.5, 4) == 0.5  # extra coordinates idle
    assert key_lemma_oracle_max(1, 1, 0.25, 10) == 1.0  # dyadic t sums exactly
    assert abs(key_lemma_oracle_max(1, 1, 0.3, 10) - 1.0) <= 1e-12
    # vertex k = 0 never forms t^s, which overflows here (10^308.5)
    assert key_lemma_oracle_max(308.5, 1, 10, 1, samples=0) == 1.0


def test_key_lemma_oracle_validation():
    for n in (True, False, 0, 2.0, 2.5, "3"):
        with pytest.raises(ValueError):
            key_lemma_oracle_max(2, 1, 0.5, n)
    assert key_lemma_oracle_max(2, 1, 0.5, np.int64(2)) == 0.5


def test_key_lemma_oracle_zero_samples_skips_the_cross_check(monkeypatch):
    def no_stream(*args):
        raise AssertionError("samples=0 drew from a stream")

    monkeypatch.setattr("widim.certify.fresh_stream", no_stream)
    assert key_lemma_oracle_max(2, 1, 0.5, 2, samples=0) == 0.5


def vertex_scan(s, c, t, n):
    """The key-lemma oracle's maximum by scanning every feasible vertex k."""
    best = 0.0
    for k in range(n + 1 if t > 0.0 else 1):  # t = 0 leaves the zero vertex alone
        if k * t > c:
            break
        value = k * t**s
        if k < n:
            value += min(t, c - k * t) ** s
        best = max(best, value)
    return best


_CAPS = (0.0, 0.1, 0.25, 0.3, 1 / 3, 0.5, 1.0, 1.5, 1e-3)


@settings(max_examples=1000, deadline=None)
@given(s=st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0)), st.floats(1.0, 40.0)),
       t=st.one_of(st.sampled_from(_CAPS), st.floats(0.0, 2.0)),
       k=st.integers(0, 40),
       c_kind=st.sampled_from(("k t", "k t + half", "free", "zero")),
       c_free=st.floats(0.0, 3.0), n=st.integers(1, 50))
def test_key_lemma_oracle_matches_the_vertex_scan(s, t, k, c_kind, c_free, n):
    # the two vertices around k = floor(c/t) give the full scan's maximum bit
    # for bit, also when c is a multiple of t up to rounding
    c = {"k t": k * t, "k t + half": (k + 0.5) * t, "free": c_free, "zero": 0.0}[c_kind]
    assert key_lemma_oracle_max(s, c, t, n, samples=0).hex() == vertex_scan(s, c, t, n).hex()


def test_key_lemma_oracle_never_exceeds_bound():
    for s in (1.0, 1.5, 2.0, 4.0):
        for c in (0.5, 1.0, 2.0):
            for t in (0.1, 0.25, 0.5):
                for n in range(1, 9):
                    got = key_lemma_oracle_max(s, c, t, n, samples=512)
                    bound = c * t ** (s - 1.0)
                    assert got <= bound + 1e-12 * max(1.0, bound)


def test_key_lemma_oracle_beats_random_feasible_points():
    # the vertex enumeration dominates arbitrary feasible interior points
    rng = np.random.default_rng(45)
    for _ in range(200):
        s = float(rng.uniform(1.0, 4.0))
        c = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 8))
        xs = rng.uniform(0.0, t, size=n)
        total = float(xs.sum())
        if total > c:
            xs *= c / total
        value = float(np.sum(xs**s))
        assert value <= key_lemma_oracle_max(s, c, t, n, samples=64) + 1e-12
