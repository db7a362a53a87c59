"""Certification drivers: sampling, Monte Carlo, hill climbing, lemma oracles."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widim import certify, threshold_map
from widim.certify import (
    BLOCK,
    CLIMB_INITIAL_STEP,
    CLIMB_MIN_STEP,
    CLIMB_SWEEPS,
    CertificationReport,
    adversarial_certify,
    check_key_lemma,
    check_lemma_swap,
    key_lemma_oracle_max,
    monte_carlo_certify,
    report_csv_header,
    report_from_json,
    report_to_csv_row,
    report_to_json,
    sample_lp_ball,
    sample_lp_ball_rows,
)
from widim.core import in_lp_ball, lp_norm_power, make_exponents
from widim._streams import DOMAIN_BALL, DOMAIN_CLIMB, StreamFactory, fresh_stream
from widim.threshold_map import distortion_bound, extremal_vector


# --- uniform ball sampling ----------------------------------------------------


def draw_scalar(N, n, p, rng):
    return np.vstack([sample_lp_ball(n, p, rng) for _ in range(N)])


def draw_rows(N, n, p, rng):
    return sample_lp_ball_rows(N, n, p, rng)


SAMPLERS = (draw_scalar, draw_rows)


def test_samples_lie_in_the_ball():
    for draw in SAMPLERS:
        rng = np.random.default_rng(41)
        for p in (1.0, 2.0, 3.5, math.inf):
            for _ in range(300):
                n = int(rng.integers(1, 20))
                X = draw(3, n, p, rng)
                assert X.shape == (3, n)
                assert all(in_lp_ball(x, p) for x in X)
    # the Monte Carlo blocks themselves, including the boundary-heavy p = 1
    for p in (1.0, 2.0, math.inf):
        for n in (1, 8, 64):
            X = certify._sample_block(41, 2, n, p)
            assert X.shape == (BLOCK, n)
            assert all(in_lp_ball(x, p) for x in X)


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


def test_block_matches_fresh_stream_reference():
    # block b is BLOCK rows from stream (seed, DOMAIN_BALL, b), drawn as all
    # magnitudes, then all signs, then one exponential per row
    for p in (1.0, 2.0, 3.5, math.inf):
        for n, b in ((1, 0), (8, 3), (64, 2**40)):
            g = fresh_stream(9, DOMAIN_BALL, b)
            if math.isinf(p):
                ref = g.uniform(-1.0, 1.0, (BLOCK, n))
            else:
                w = g.gamma(1.0 / p, 1.0, (BLOCK, n))
                signs = g.integers(0, 2, (BLOCK, n)) * 2.0 - 1.0
                y = g.standard_exponential(BLOCK)
                ref = signs * w ** (1.0 / p) / ((np.sum(w, axis=1) + y) ** (1.0 / p))[:, None]
            got = certify._sample_block(9, b, n, p)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_monte_carlo_samples_are_prefix_stable(monkeypatch):
    # sample i is the same whatever the sample count: a run of k samples
    # evaluates exactly the first k rows of the full blocks
    seen = []
    real = certify.distortion

    def spy(x, m, q):
        if np.ndim(x) == 2:
            seen.append(np.array(x))
        return real(x, m, q)

    monkeypatch.setattr(certify, "distortion", spy)
    e = make_exponents(1.5, 3)
    full = [certify._sample_block(21, b, 5, e.p) for b in (0, 1)]
    for k in (1, 17, BLOCK - 1, BLOCK, BLOCK + 3):
        seen.clear()
        monte_carlo_certify(5, 2, e, k, seed=21)
        assert len(seen) == -(-k // BLOCK)
        assert np.array_equal(seen[0], full[0][:k])
        if k > BLOCK:
            assert np.array_equal(seen[1], full[1][: k - BLOCK])


# --- Monte Carlo certification -------------------------------------------------


def test_monte_carlo_pinned_extremal_equality():
    e = make_exponents(1, 2)
    rep = monte_carlo_certify(16, 3, e, 5000)
    assert rep.passed
    assert abs(rep.max_observed_distortion - 0.5) <= 1e-12  # (3+1)^(-1/2)
    assert np.array_equal(rep.argmax_vector, extremal_vector(3, 1.0, 16))


def test_monte_carlo_identity_regime():
    rep = monte_carlo_certify(8, 8, make_exponents(1, 2), 1000)
    assert rep.max_observed_distortion == 0.0
    assert rep.passed


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


# SHA-256 of report_to_json(adversarial_certify(n, m, make_exponents(p, q),
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
    assert hashlib.sha256(report_to_json(rep).encode()).hexdigest() == ADVERSARIAL_GOLDEN[config]


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
    assert report_to_json(got) == report_to_json(reference_climb(n, m, e, restarts, seed))
    # The extremal chain attains the bound and wins ties, so it is usually
    # the reported argmax and hides the other chains' paths. Started at half
    # its scale it has to climb, and the best climbed point is reported.
    def half(m, p, n):
        return 0.5 * extremal_vector(m, p, n)

    with mock.patch.object(certify, "extremal_vector", half):
        got = adversarial_certify(n, m, e, restarts, seed=seed)
        want = reference_climb(n, m, e, restarts, seed)
    assert report_to_json(got) == report_to_json(want)


def test_climb_batches_its_moves(monkeypatch):
    # one n = 16 job must stay well under the 2n calls per sweep of the
    # one-move-at-a-time loop
    calls = []
    real = threshold_map.distortion

    def spy(x, m, q):
        calls.append(np.shape(x))
        return real(x, m, q)

    n, e = 16, make_exponents(1, 2)
    monkeypatch.setattr(certify, "distortion", spy)
    adversarial_certify(n, 3, e, 8, seed=1)
    assert 0 < len(calls) < 2 * n * CLIMB_SWEEPS / 3
    assert all(len(shape) == 2 for shape in calls)


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
        assert report_to_json(other) == report_to_json(base)
        assert report_to_csv_row(other) == report_to_csv_row(base)
    assert adversarial_certify(6, 1, e, 8, seed=5, workers=3) == adversarial_certify(
        6, 1, e, 8, seed=5
    )


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


# --- report serialization ------------------------------------------------------


def test_report_json_round_trip():
    for q in (2.0, math.inf):
        e = make_exponents(1, q)
        rep = monte_carlo_certify(5, 1, e, 200, seed=13)
        text = report_to_json(rep)
        back = report_from_json(text)
        assert back == rep
        if math.isinf(q):
            assert '"q": "inf"' in text
        assert '"elapsed": null' in text


def test_report_csv_shape():
    e = make_exponents(1, 2)
    rep = monte_carlo_certify(3, 1, e, 100)
    header = report_csv_header()
    row = report_to_csv_row(rep)
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


def test_key_lemma_oracle_pinned():
    assert key_lemma_oracle_max(2, 1, 0.5, 2) == 0.5
    assert key_lemma_oracle_max(2, 1, 0.5, 4) == 0.5  # extra coordinates idle
    assert key_lemma_oracle_max(1, 1, 0.25, 10) == 1.0  # dyadic t sums exactly
    assert abs(key_lemma_oracle_max(1, 1, 0.3, 10) - 1.0) <= 1e-12


def test_key_lemma_oracle_validation():
    for n in (True, False, 0, 2.0, 2.5, "3"):
        with pytest.raises(ValueError):
            key_lemma_oracle_max(2, 1, 0.5, n)
    assert key_lemma_oracle_max(2, 1, 0.5, np.int64(2)) == 0.5


def test_key_lemma_oracle_zero_samples_skips_the_cross_check(monkeypatch):
    def no_stream(*args):
        raise AssertionError("samples=0 drew from a stream")

    monkeypatch.setattr("widim.certify.StreamFactory", no_stream)
    assert key_lemma_oracle_max(2, 1, 0.5, 2, samples=0) == 0.5


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
