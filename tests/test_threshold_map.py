"""Threshold map: the two routes, their agreement, and the distortion bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from widim.core import _lq_rows, _lq_slack, lq_distance, make_exponents
from widim.signed_perm import ConePoint, SignedPermutation, act, canonicalize, in_cone, inverse
from widim.threshold_map import (
    _distortion_rows,
    _shrink,
    distortion,
    distortion_bound,
    extremal_vector,
    f0,
    f_closed,
    f_equivariant,
)


def hexes(a):
    return [float(v).hex() for v in np.atleast_1d(a)]


_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
_entries = (
    st.floats(-4.0, 4.0),
    st.sampled_from(_GRID),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),  # a coarse grid forces ties
)


@st.composite
def stress_vectors(draw, min_size=1, max_size=11):
    """A vector with ties, exact zeros and signed zeros, and mixed magnitudes."""
    n = draw(st.integers(min_size, max_size))
    x = np.array(draw(st.lists(st.one_of(*_entries, st.just(0.0), st.just(-0.0)),
                               min_size=n, max_size=n)))
    return x * 10.0 ** draw(st.sampled_from((0, 0, -300, -12, 12, 300)))


def sparsity(n):
    return st.sampled_from(sorted({0, 1, 2, max(n - 1, 0), n, n + 3}))


# --- f0 on the cone ---------------------------------------------------------


def test_f0_pinned_values():
    assert np.array_equal(f0([5.0, 4.0, 3.0, 2.0, 0.0], 2).coords, [2.0, 1.0, 0, 0, 0])
    assert np.array_equal(f0([1.0, 0.0, 0.0], 1).coords, [1.0, 0.0, 0.0])
    assert np.array_equal(f0([0.7] * 5, 3).coords, np.zeros(5))  # constant collapses
    assert np.array_equal(f0([3.0, 1.0], 2).coords, [3.0, 1.0])  # m >= n identity
    assert np.array_equal(f0(ConePoint([2.0, 1.0]), 1).coords, [1.0, 0.0])


def test_f0_input_tolerance():
    # sub-tolerance disorder and negativity are accepted and clamped
    out = f0([1.0, 1.0 + 1e-13, -1e-13], 1)
    assert out.coords[-1] == 0.0
    with pytest.raises(ValueError):
        f0([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        f0([1.0, -1.0], 1)
    with pytest.raises(ValueError):
        f0([1.0, 0.5], -1)
    with pytest.raises(ValueError):
        f0([1.0, 0.5], 1.5)
    with pytest.raises(ValueError):
        f0([1.0, 0.5], True)


# --- the two full-space routes ----------------------------------------------


def test_map_pinned_values():
    for f in (f_equivariant, f_closed):
        assert np.array_equal(f([-3.0, 1.0, 2.0], 1), [-1.0, 0.0, 0.0])
        assert np.array_equal(f([0.5, 0.5, 0.0], 1), [0.0, 0.0, 0.0])
        assert np.array_equal(f([0.0, 0.3, 0.0], 1), [0.0, 0.3, 0.0])  # sparse fixed
        assert np.array_equal(f([4.0, -5.0], 7), [4.0, -5.0])  # m >= n identity
        assert np.array_equal(f([1.0, -2.0, 0.5], 0), [0.0, 0.0, 0.0])  # m = 0


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), x=stress_vectors())
def test_routes_agree_bitwise(data, x):
    m = data.draw(sparsity(x.size))
    assert hexes(f_equivariant(x, m)) == hexes(f_closed(x, m))


@settings(max_examples=500, deadline=None)
@given(x=stress_vectors())
def test_object_route_matches_bitwise(x):
    # the group route spelled out with the signed_perm objects, step by step:
    # the reference for the array code of f_equivariant
    g, y = canonicalize(x)
    for m in range(x.size + 2):
        assert hexes(act(inverse(g), f0(y, m).coords)) == hexes(f_equivariant(x, m))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(stress_vectors(9, 9), min_size=1, max_size=12),
       m=st.sampled_from((0, 2, 8, 9, 11)), q=st.sampled_from((1.0, 2.0, 3.5, math.inf)))
def test_batch_rows_match_scalar_bitwise(rows, m, q):
    X = np.vstack(rows)
    for f in (f_equivariant, f_closed):
        batch = f(X, m)
        assert hexes(batch.ravel()) == hexes(np.vstack([f(row, m) for row in X]).ravel())
    # the closed-form distortion, of the batch and of each row alone, against
    # the independent oracle: the q-distance to the group route's image
    with np.errstate(over="ignore"):  # 1e300-scale rows overflow to inf
        oracle = [lq_distance(row, f_equivariant(row, m), q) for row in X]
        assert hexes(distortion(X, m, q)) == hexes(oracle)
        assert [float(distortion(row, m, q)).hex() for row in X] == hexes(oracle)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), kinds=st.lists(
    st.sampled_from(("stress", "zero", "tied")), min_size=1, max_size=8),
    q=st.sampled_from((1.0, 2.0, 3.5, math.inf)))
def test_distortion_kernel_matches_distortion_bitwise(data, n, kinds, q):
    # the unchecked row kernel the hill climb scores with, on magnitudes,
    # against the checked entry point; rows mix stress vectors, all-zero rows
    # (signed zeros too) and rows whose magnitudes all tie
    rows = []
    for kind in kinds:
        if kind == "stress":
            rows.append(data.draw(stress_vectors(n, n)))
        else:
            value = 0.0 if kind == "zero" else data.draw(st.sampled_from((0.5, 1e-300, 3.0)))
            signs = data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
            rows.append(value * np.array(signs))
    X = np.vstack(rows)
    m = data.draw(sparsity(n))
    with np.errstate(over="ignore"):  # 1e300-scale rows overflow to inf
        want = distortion(X, m, q)
        got = _distortion_rows(np.abs(X), m, q)
    assert hexes(got) == hexes(want)


@st.composite
def kernel_rows(draw, n):
    """A row for the kernel oracle: a stress vector, a zero row with signed
    zeros, a row whose top block of k magnitudes ties above a tied lower
    block, or a stress vector at 1e300 scale."""
    kind = draw(st.sampled_from(("stress", "zero", "tied", "huge")))
    signs = np.array(draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n)))
    if kind == "zero":
        return 0.0 * signs
    if kind == "tied":
        top = draw(st.sampled_from((0.5, 3.0, 1e-300, 1e300)))
        k = draw(st.integers(1, n))
        low = draw(st.lists(st.sampled_from((0.0, 0.25, 0.75)), min_size=n - k, max_size=n - k))
        row = top * np.array([1.0] * k + low)
        return signs * row[draw(st.permutations(range(n)))]
    if kind == "huge":
        return 1e300 * np.array(draw(st.lists(st.one_of(*_entries), min_size=n, max_size=n)))
    return draw(stress_vectors(n, n))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), q=st.sampled_from((1.0, 2.0, 3.5, math.inf)))
def test_distortion_kernel_matches_the_group_route_oracle(data, n, q):
    # the unchecked row kernel, for every m in 0..n+1, against the q-distance
    # to the group route's image (not against distortion, which shares the
    # kernel), bit for bit; the magnitudes it reads are left as they were
    X = np.vstack(data.draw(st.lists(kernel_rows(n), min_size=1, max_size=6)))
    A = np.abs(X)
    before = A.copy()
    for m in range(n + 2):
        with np.errstate(over="ignore"):  # 1e300-scale rows overflow to inf
            got = _distortion_rows(A, m, q)
            want = [lq_distance(x, f_equivariant(x, m), q) for x in X]
        assert hexes(got) == hexes(want), m
        assert np.array_equal(A.view(np.uint64), before.view(np.uint64)), m


@st.composite
def top_block_batches(draw):
    """Magnitude rows around a threshold tau: entries far above 2 tau, where
    a - (a - tau) can differ from tau, entries tied with tau, entries below
    it and zeros; with n and an m in {1, n - 2, n - 1}."""
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from(sorted({1, max(n - 2, 1), n - 1})))
    tau = draw(st.sampled_from((0.1, 1 / 3, 0.7, 1.0, 1e-300, 0.0)))
    entry = st.one_of(st.just(0.0), st.just(tau), st.floats(0.0, 1.0).map(lambda u: u * tau),
                      st.floats(2.0, 1e6).map(lambda u: u * tau), st.floats(0.0, 1e3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    return np.array(rows), m


@settings(max_examples=300, deadline=None)
@example(batch=(np.array([[3.0, 0.1, 0.05], [0.1, 0.1, 0.0]]), 1))
@given(batch=top_block_batches())
def test_infinite_q_kernel_matches_the_full_row_maximum(batch):
    # at q = inf the kernel reads only the partition's top m + 1 columns; the
    # maximum of the moved amounts over the whole row has the same bits,
    # and it is not tau itself: 3 - (3 - 0.1) is 0.10000000000000009
    A, m = batch
    k = A.shape[1] - 1 - m
    tau = np.partition(A, k, axis=1)[:, k, None]
    want = (A - np.maximum(A - tau, 0.0)).max(axis=1)
    assert hexes(_distortion_rows(A, m, math.inf)) == hexes(want)


@st.composite
def zero_sparsity_batches(draw):
    """Magnitude rows scaled by 1, 1e200, 1e-200 or 1e-310 (subnormal), with
    ties and zeros, and a q."""
    n = draw(st.sampled_from((1, 2, 3, 8, 64)))
    scale = draw(st.sampled_from((1.0, 1e200, 1e-200, 1e-310)))
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    q = draw(st.sampled_from((1.0, 1.5, 2.0, 3.7, 10000.0, math.inf)))
    return np.array(rows) * scale, q


@settings(max_examples=150, deadline=None)
@example(batch=(np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1e-310, 0.0, 2e-310]]), 2.0))
@given(batch=zero_sparsity_batches())
def test_zero_sparsity_kernel_is_the_row_q_norm(batch):
    # at m = 0 tau is the row maximum, so every moved amount is the magnitude
    # itself, and at q = inf the top block is that maximum: the general path
    # gives the row q-norm of A bit for bit, and leaves A unchanged
    A, q = batch
    before = A.copy()
    with np.errstate(over="ignore"):  # _lq_rows recomputes an overflowed row
        got, want = _distortion_rows(A, 0, q), _lq_rows(A.copy(), q)
    assert hexes(got) == hexes(want)
    assert np.array_equal(A.view(np.uint64), before.view(np.uint64))


@st.composite
def near_tied_batches(draw):
    """Magnitude rows whose entries mostly sit within 3 ulps of one value, so
    the threshold ties or nearly ties the kept entries, mixed with free
    entries, scaled down by up to 1e-200 (power sums that underflow), with an
    m in {0, 1, n - 1} and a q."""
    n = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 6))
    base = draw(st.floats(1e-3, 1.0))
    ulps = draw(arrays(np.int64, (rows, n), elements=st.integers(-3, 3)))
    free = draw(arrays(np.float64, (rows, n), elements=st.floats(0.0, 1.0)))
    tied = draw(arrays(np.bool_, (rows, n), elements=st.booleans()))
    A = np.where(tied, base * (1.0 + ulps * 2.0**-52), free)
    A *= 10.0 ** -draw(st.integers(0, 200))
    m = draw(st.sampled_from(sorted({0, 1, n - 1})))
    return A, m, draw(st.sampled_from((1.05, 2.0, 3.7, 10000.0, math.inf)))


@settings(max_examples=400, deadline=None)
@example(batch=(np.array([[0.5, 0.5, 0.5], [1e-160, 1e-160, 3e-161]]), 1, 2.0))
@example(batch=(np.array([[0.10000000000000007, 0.10000000000000003, 0.09999999999999996]]),
                1, 10000.0))
@given(batch=near_tied_batches())
def test_distortion_is_at_most_the_q_norm_within_the_slack(batch):
    # the map moves each coordinate by at most its magnitude, so a row's
    # distortion is at most its q-norm up to rounding: the bound the Monte
    # Carlo filter relies on to skip rows that cannot beat the best. In the
    # second example the distortion exceeds the plain q-norm by one ulp
    A, m, q = batch
    d, norm = _distortion_rows(A, m, q), _lq_rows(A, q)
    assert np.all(d <= norm * _lq_slack(A.shape[1])), (d, norm)


@st.composite
def signed_permutations(draw, n):
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
    return SignedPermutation(signs, draw(st.permutations(range(n))))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), x=stress_vectors(max_size=9))
def test_equivariance_bitwise(data, x):
    g = data.draw(signed_permutations(x.size))
    m = data.draw(st.integers(0, x.size + 1))
    assert hexes(f_equivariant(act(g, x), m)) == hexes(act(g, f_equivariant(x, m)))
    assert hexes(f_closed(act(g, x), m)) == hexes(act(g, f_closed(x, m)))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), x=stress_vectors(max_size=9))
def test_idempotence_bitwise(data, x):
    m = data.draw(st.integers(0, x.size + 1))
    for f in (f_equivariant, f_closed):
        y = f(x, m)
        assert hexes(f(y, m)) == hexes(y)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), entries=st.lists(st.sampled_from((0.0, 0.25, 0.25, 0.5, 1.0)),
                                        min_size=2, max_size=7))
def test_cone_restricted_equivariance(data, entries):
    # for cone input whose image under g stays in the cone, f0 commutes with g
    y = np.array(sorted(entries, reverse=True))
    n = y.size
    # permute only inside tie blocks so act(g, y) remains sorted
    perm = []
    for value in sorted(set(entries), reverse=True):
        block = [k for k in range(n) if y[k] == value]
        perm += data.draw(st.permutations(block))
    g = SignedPermutation(np.ones(n), perm)
    gy = act(g, y)
    assert in_cone(gy)
    m = data.draw(st.integers(0, n))
    assert hexes(f0(gy, m).coords) == hexes(act(g, f0(y, m).coords))


# --- distortion and the extremal configuration ------------------------------


def test_shrink_allocates_one_row_batch():
    # the partitioned copy is reused for a - tau and for the max with 0, so the
    # traced peak stays below two batches
    A = np.abs(np.random.default_rng(5).standard_normal((256, 64)))
    for m in (0, 3, 63):
        expected = np.maximum(A - np.sort(A, axis=1)[:, 63 - m, None], 0.0)
        tracemalloc.start()
        try:
            out = _shrink(A, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * A.nbytes
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def test_distortion_pinned_values():
    e = make_exponents(1, 2)
    d = distortion([0.5, 0.5, 0.0], 1, 2)
    assert abs(d - 2.0**-0.5) <= 1e-12
    assert abs(d - distortion_bound(1, e)) <= 1e-12
    assert distortion([0.0, 1.0, 0.0], 1, 2) == 0.0  # already 1-sparse
    assert distortion([0.3, -0.4], 5, math.inf) == 0.0  # m >= n


def test_distortion_bound_values():
    assert distortion_bound(1, make_exponents(1, 2)) == 2.0**-0.5
    assert distortion_bound(3, make_exponents(1, 2)) == 0.5
    assert distortion_bound(0, make_exponents(1, math.inf)) == 1.0
    assert distortion_bound(2, make_exponents(2, math.inf)) == 3.0**-0.5


def test_extremal_vector_pinned():
    assert np.array_equal(extremal_vector(1, 1, 3), [0.5, 0.5, 0.0])
    assert np.array_equal(extremal_vector(0, 2, 2), [1.0, 0.0])
    assert np.array_equal(extremal_vector(3, 1, 8), [0.25] * 4 + [0.0] * 4)
    with pytest.raises(ValueError):
        extremal_vector(3, 1, 3)


def test_extremal_attains_bound():
    for p, q in ((1, 2), (1, math.inf), (2, math.inf), (2, 4), (1.5, 3)):
        e = make_exponents(p, q)
        for m in (0, 1, 3, 7):
            n = m + 2
            x = extremal_vector(m, p, n)
            assert abs(distortion(x, m, q) - distortion_bound(m, e)) <= 1e-12


@settings(max_examples=400, deadline=None)
@given(data=st.data(), pq=st.sampled_from(((1, 2), (2, math.inf))), n=st.integers(1, 11),
       seed=st.integers(0, 2**64 - 1))
def test_distortion_bound_on_ball_samples(data, pq, n, seed):
    from widim._streams import DOMAIN_BALL, fresh_stream, sample_lp_ball
    from widim.core import in_lp_ball

    p, q = pq
    x = sample_lp_ball(n, p, fresh_stream(seed, DOMAIN_BALL, 0))
    assert in_lp_ball(x, p)
    m = data.draw(st.integers(0, n))
    assert distortion(x, m, q) <= distortion_bound(m, make_exponents(p, q)) + 1e-9


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), x=stress_vectors(max_size=8))
def test_empirical_sup_lipschitz_two(data, x):
    # |f(x) - f(y)|_inf <= 2 |x - y|_inf. Each output coordinate is one
    # rounded subtraction, so the computed gap may exceed the bound by a few
    # ulps of the largest coordinate, and by no more.
    scale = 10.0 ** data.draw(st.integers(-3, 0))
    noise = data.draw(arrays(np.float64, x.size, elements=st.floats(-3.0, 3.0)))
    y = x + noise * scale
    m = data.draw(st.integers(0, x.size))
    gap_in = float(np.max(np.abs(x - y)))
    gap_out = float(np.max(np.abs(f_closed(x, m) - f_closed(y, m))))
    ulps = 4.0 * float(np.spacing(max(np.max(np.abs(x)), np.max(np.abs(y)))))
    assert gap_out <= 2.0 * gap_in + ulps


@settings(max_examples=500, deadline=None)
@given(data=st.data(), delta=st.sampled_from((1e-3, 1e-6, 1e-9)),
       x=st.lists(st.sampled_from((-0.5, -0.25, 0.0, 0.25, 0.5)), min_size=2, max_size=7))
def test_continuity_at_tie_points(data, delta, x):
    # perturbing a tied input by delta moves the output by at most 2 delta
    x = np.array(x)  # ties everywhere
    y = x + data.draw(arrays(np.float64, x.size, elements=st.floats(-delta, delta)))
    m = data.draw(st.integers(0, x.size))
    gap = float(np.max(np.abs(f_closed(x, m) - f_closed(y, m))))
    assert gap <= 2.0 * delta + 1e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        f_equivariant([1.0, math.nan], 1)
    with pytest.raises(ValueError):
        f_closed([1.0, math.inf], 1)
    with pytest.raises(ValueError):
        f_closed(np.empty((0, 3)).T, 1)
    with pytest.raises(ValueError):
        distortion([1.0, 2.0], 1, 0.5)
    with pytest.raises(ValueError):
        distortion(np.ones((2, 2)), 1, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        X = np.ones((3, 4))
        X[1, 2] = bad
        for m in (0, 1, 4):
            with pytest.raises(ValueError):
                distortion(X, m, 2.0)
    with pytest.raises(ValueError):
        distortion(np.ones((2, 3)), -1, 2.0)
    with pytest.raises(ValueError):
        distortion(np.empty((2, 0)), 1, 2.0)
