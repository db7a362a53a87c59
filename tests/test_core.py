"""Distance, norm, and exponent-triple primitives, and the input rules."""

import ast
import math
import re
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import widim
from widim import (
    EqualCase,
    FinitelySupportedPoint,
    LatticeBox,
    WeightedGroupMetric,
    StreamFactory,
    WidimBoundReport,
    adversarial_certify,
    asymptotic_exponent_fit,
    ball_inclusion_max_radius,
    bracket,
    check_key_lemma,
    check_lemma_swap,
    distortion,
    distortion_bound,
    embedding_check,
    extremal_vector,
    f0,
    f_closed,
    f_equivariant,
    fresh_stream,
    geometric_weight_metric,
    key_lemma_oracle_max,
    mean_dimension_table,
    monte_carlo_certify,
    omega_distance,
    sample_lp_ball,
    tail_set,
    translate,
    weighted_distance,
    widim_constant,
    widim_equal_case,
    widim_lower,
    widim_lower_plateau,
    widim_upper,
    widim_upper_plateau,
)
from widim._streams import sample_lp_ball_rows
from widim.core import (
    Exponents,
    _ball_mass,
    _lq_rows,
    _row_max,
    as_vector,
    in_lp_ball,
    lp_norm_power,
    lq_distance,
    make_exponents,
)
from widim.signed_perm import (ConePoint, SignedPermutation, act, canonicalize, identity, in_cone,
                               random_element)


def test_lq_distance_pinned_values():
    assert lq_distance((0.0, 0.0), (3.0, 4.0), 2) == 5.0
    assert lq_distance((1.0, -1.0), (0.0, 0.0), math.inf) == 1.0
    assert lq_distance((1.0, 2.0), (0.0, 0.0), 1) == 3.0


def test_lq_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        lq_distance((1.0, 2.0), (1.0,), 2)
    with pytest.raises(ValueError):
        lq_distance((1.0,), (1.0,), 0.5)
    with pytest.raises(ValueError):
        lq_distance((1.0,), (1.0,), math.nan)
    with pytest.raises(ValueError):
        lq_distance((np.nan,), (1.0,), 2)


def test_lq_norm_survives_underflow_and_overflow():
    # in each row below the powers underflow (a zero or subnormal sum) or
    # overflow (an inf sum); such a row is rescaled by its largest entry,
    # with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lq_distance([1e-200], [0.0], 2) == 1e-200
        assert lq_distance([1e200, 1e200, 0.0], [0.0, 0.0, 0.0], 2) == 1.414213562373095e200
        assert distortion([1e200, 1e200, 0.0], 1, 2) == 1.414213562373095e200
        assert lq_distance([0.0, 0.0], [0.0, 0.0], 2) == 0.0
        # the extremal configuration attains the ceiling at q = 10000 too
        e = make_exponents(2, 10000)
        attained = distortion(extremal_vector(1, 2, 4), 1, e.q)
        assert attained == distortion_bound(1, e) == 0.7071557957924182


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(min_value=1e-5, max_value=1e5))


@settings(max_examples=400, deadline=None)
@given(
    A=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=_MAGNITUDES),
    q=st.one_of(st.floats(min_value=1.0, max_value=1e4), st.just(math.inf)),
    k=st.integers(min_value=-300, max_value=300),
)
def test_lq_rows_keeps_normal_rows_and_scales(A, q, k):
    # a row whose power sum is a normal double keeps the plain formula's bits,
    # and every row, rescaled or not, scales with its entries. The root s **
    # (1/q) takes 1/q rounded, which moves a norm v by up to |ln v| units of
    # 2^-53 (A = [[1.5]], q = 1.5 and k = 4 differ by 5 ulps); beyond that
    # the two sides agree to a few ulps
    with np.errstate(over="ignore"):
        out = _lq_rows(A, q)
        scaled = _lq_rows(10.0**k * A, q)
        if not math.isinf(q):
            sums = (A**q).sum(axis=1)
            normal = (sums >= np.finfo(np.float64).tiny) & (sums < math.inf)
            assert out[normal].tobytes() == (sums[normal] ** (1.0 / q)).tobytes()
    assert np.all(np.isfinite(out)) and np.array_equal(out > 0.0, A.max(axis=1) > 0.0)
    expect = 10.0**k * out
    assert np.array_equal(scaled == 0.0, expect == 0.0)
    v, w = scaled[expect > 0.0], expect[expect > 0.0]
    assert np.all(np.abs(v - w) <= 2.0**-52 * w * (4.0 + np.abs(np.log(w)) + np.abs(np.log(w / 10.0**k))))


@settings(max_examples=400, deadline=None)
@given(
    A=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(3, 82)),
             elements=st.one_of(st.floats(), st.sampled_from((0.0, -0.0, 1.0)))),
    width=st.integers(1, 80), start=st.integers(0, 2), step=st.integers(1, 2),
    row_kind=st.sampled_from(("drawn", "nan", "equal")),
)
def test_row_max_is_max_bit_for_bit(A, width, start, step, row_kind):
    # one segmented reduce gives each row's maximum with the bits of
    # max(axis=1), also on a strided slice, a NaN row and an all-equal row
    B = A[::step, start:start + width]
    if len(B) and row_kind == "nan":
        B[0, -1] = math.nan
    elif len(B) and row_kind == "equal":
        B[0] = B[0, 0]
    assert _row_max(B).tobytes() == B.max(axis=1).tobytes()
    # a row with no entries has mass 0, as the p = inf ball mass reads it
    assert _ball_mass(np.empty((3, 0)), math.inf).tobytes() == np.zeros(3).tobytes()


def test_lp_norm_power_pinned_values():
    assert lp_norm_power((0.5, 0.5, 0.0), 1) == 1.0
    assert lp_norm_power((1.0, 0.0), 2) == 1.0
    assert lp_norm_power((0.6, 0.6), 1) == pytest.approx(1.2, abs=1e-15)
    assert lp_norm_power((0.3, -0.7, 0.1), math.inf) == 0.7


def test_in_lp_ball_boundary_and_tolerance():
    assert in_lp_ball((0.5, 0.5, 0.0), 1)
    assert not in_lp_ball((0.6, 0.6), 1)
    # boundary point plus noise below BALL_TOLERANCE still passes, noise above fails
    assert in_lp_ball((1.0 + 5e-13, 0.0), 2)
    assert not in_lp_ball((1.0 + 1e-11, 0.0), 2)
    with pytest.raises(TypeError):  # the slack is a constant, not a knob
        in_lp_ball((0.5,), 2, tol=1e-14)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(20260817)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        x, y, z = rng.normal(size=(3, n)) * 3.0
        for q in (1.0, 2.0, 4.0, math.inf):
            lhs = lq_distance(x, z, q)
            rhs = lq_distance(x, y, q) + lq_distance(y, z, q)
            assert lhs <= rhs + 1e-12


def test_distance_non_increasing_in_q():
    rng = np.random.default_rng(7)
    grid = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 32.0, math.inf]
    for _ in range(200):
        n = int(rng.integers(1, 7))
        x, y = rng.normal(size=(2, n))
        values = [lq_distance(x, y, q) for q in grid]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


def test_make_exponents_pinned_rates():
    assert make_exponents(1, 2).r == 2.0
    assert make_exponents(2, math.inf).r == 2.0
    assert make_exponents(2, 4).r == 4.0
    assert make_exponents(1.5, 1.50015).q == 1.50015  # q close to p is accepted


def test_rate_tends_to_p_as_q_grows():
    # r = pq/(q-p) -> p along q = 2^k p
    for p in (1.0, 2.0, 3.0):
        prev_gap = math.inf
        for k in range(1, 30):
            e = make_exponents(p, (2.0**k) * p)
            gap = abs(e.r - p)
            assert gap < prev_gap or gap == 0.0
            prev_gap = gap
        assert prev_gap < 1e-6
    assert make_exponents(3.0, math.inf).r == 3.0


def test_exponents_validation():
    with pytest.raises(ValueError):
        make_exponents(0.5, 2)
    with pytest.raises(ValueError):
        make_exponents(2, 2)
    with pytest.raises(ValueError):
        make_exponents(3, 2)
    with pytest.raises(ValueError):
        make_exponents(math.inf, math.inf)
    with pytest.raises(ValueError, match="p=1e[+]300"):
        make_exponents(1e300, math.nextafter(1e300, math.inf))  # r is about 4.5e315
    # p * q overflows, but the rate p/(1 - p/q) is finite
    assert Exponents(2, 1e308).r == 2.0 and make_exponents(2, 1e308).r == 2.0
    # r is derived from p and q, never passed
    with pytest.raises(TypeError):
        Exponents(p=1.0, q=2.0, r=2.0)
    e = Exponents(1, 2)
    assert e == make_exponents(1, 2) and e.r == 2.0 and e.inverse_rate == 0.5


@settings(max_examples=1000, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=1e6),
    q=st.one_of(st.floats(min_value=1.0, max_value=1e12), st.just(math.inf)),
)
def test_exponents_derive_the_rate(p, q):
    # the rate has the bits of pq/(q - p), and exactly p at q = inf
    if not q > p:
        with pytest.raises(ValueError):
            Exponents(p, q)
        return
    e = Exponents(p, q)
    assert (e.p, e.q) == (p, q)
    assert e.r == (p if math.isinf(q) else p * q / (q - p))


@settings(max_examples=500, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=100.0),
    log_gap=st.floats(min_value=-9.0, max_value=0.0),
)
def test_make_exponents_accepts_q_close_to_p(p, log_gap):
    # 1/p - 1/q cancels when q is close to p; the derived pq/(q - p) must not
    q = p * (1.0 + 10.0**log_gap)
    e = make_exponents(p, q)
    assert e.r > 0.0 and math.isfinite(e.r)


def test_inverse_rate_matches_definition():
    for p, q in ((1.0, 2.0), (1.0, math.inf), (2.0, 4.0), (1.5, 6.0)):
        e = make_exponents(p, q)
        expect = 1.0 / p if math.isinf(q) else 1.0 / p - 1.0 / q
        assert e.inverse_rate == expect


def test_as_vector_validation():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, math.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, math.nan])


# --- the input rules, one table ---------------------------------------------------

_E = make_exponents(1, 2)
_M = geometric_weight_metric()
_X = np.array([[0.5, -0.25, 0.0]])


def _rng():
    return np.random.default_rng(0)


# (entry point and argument, the name its message uses, the call with v there)
_COUNTS = [
    ("sample_lp_ball n", "dimension n", 1, lambda v: sample_lp_ball(v, 2.0, _rng())),
    ("sample_lp_ball_rows rows", "rows", 1, lambda v: sample_lp_ball_rows(v, 2, 2.0, _rng())),
    ("sample_lp_ball_rows n", "dimension n", 1, lambda v: sample_lp_ball_rows(2, v, 2.0, _rng())),
    ("monte_carlo_certify n", "dimension n", 1, lambda v: monte_carlo_certify(v, 1, _E, 10)),
    ("monte_carlo_certify m", "sparsity m", 0, lambda v: monte_carlo_certify(4, v, _E, 10)),
    ("monte_carlo_certify samples", "samples", 1, lambda v: monte_carlo_certify(4, 1, _E, v)),
    ("monte_carlo_certify workers", "workers", 1,
     lambda v: monte_carlo_certify(4, 1, _E, 10, workers=v)),
    ("monte_carlo_certify seed", "seed", 0, lambda v: monte_carlo_certify(4, 1, _E, 10, seed=v)),
    ("adversarial_certify n", "dimension n", 1, lambda v: adversarial_certify(v, 1, _E, 2)),
    ("adversarial_certify m", "sparsity m", 0, lambda v: adversarial_certify(4, v, _E, 2)),
    ("adversarial_certify restarts", "restarts", 1, lambda v: adversarial_certify(4, 1, _E, v)),
    ("adversarial_certify workers", "workers", 1,
     lambda v: adversarial_certify(4, 1, _E, 2, workers=v)),
    ("adversarial_certify seed", "seed", 0, lambda v: adversarial_certify(4, 1, _E, 2, seed=v)),
    ("key_lemma_oracle_max n", "coordinate count n", 1,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, v)),
    ("key_lemma_oracle_max samples", "samples", 0,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, 2, samples=v)),
    ("key_lemma_oracle_max seed", "seed", 0,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, 2, seed=v)),
    ("f0 m", "sparsity m", 0, lambda v: f0([2.0, 1.0], v)),
    ("f_equivariant m", "sparsity m", 0, lambda v: f_equivariant([2.0, 1.0], v)),
    ("f_closed m", "sparsity m", 0, lambda v: f_closed(_X, v)),
    ("distortion m", "sparsity m", 0, lambda v: distortion([2.0, 1.0], v, 2.0)),
    ("distortion rows m", "sparsity m", 0, lambda v: distortion(_X, v, 2.0)),
    ("distortion_bound m", "sparsity m", 0, lambda v: distortion_bound(v, _E)),
    ("extremal_vector m", "sparsity m", 0, lambda v: extremal_vector(v, 2.0, 4)),
    ("extremal_vector n", "dimension n", 1, lambda v: extremal_vector(0, 2.0, v)),
    ("widim_upper n", "dimension n", 1, lambda v: widim_upper(v, 0.5, _E)),
    ("widim_lower n", "dimension n", 1, lambda v: widim_lower(v, 0.5, _E)),
    ("widim_equal_case n", "dimension n", 1, lambda v: widim_equal_case(v, 0.5, 2, 1)),
    ("bracket n", "dimension n", 1, lambda v: bracket(v, 0.5, _E)),
    ("WidimBoundReport n", "dimension n", 1, lambda v: WidimBoundReport(v, 0.5, _E, 0, 0)),
    ("WidimBoundReport lower", "lower bound", 0, lambda v: WidimBoundReport(3, 0.5, _E, v, 3)),
    ("WidimBoundReport upper", "upper bound", 0, lambda v: WidimBoundReport(3, 0.5, _E, 0, v)),
    ("ball_inclusion_max_radius m", "coordinate count m", 1,
     lambda v: ball_inclusion_max_radius(v, _E)),
    ("identity n", "degree n", 1, lambda v: identity(v)),
    ("random_element n", "degree n", 1, lambda v: random_element(v, _rng())),
    ("LatticeBox radius", "box radius", 0, lambda v: LatticeBox((0,), v)),
    ("WeightedGroupMetric dim_d", "lattice dimension d", 1,
     lambda v: WeightedGroupMetric(v, lambda g: 0.5, lambda k: 0.0, 0.5)),
    ("geometric_weight_metric dim_d", "lattice dimension d", 1,
     lambda v: geometric_weight_metric(dim_d=v)),
    ("embedding_check samples", "samples", 1, lambda v: embedding_check(_M, [(0,)], 1.0, 0.5, v)),
    ("embedding_check workers", "workers", 1,
     lambda v: embedding_check(_M, [(0,)], 1.0, 0.5, 10, workers=v)),
    ("embedding_check seed", "seed", 0,
     lambda v: embedding_check(_M, [(0,)], 1.0, 0.5, 10, seed=v)),
    ("mean_dimension_table radius", "box radius", 0,
     lambda v: mean_dimension_table(_M, 1.0, 0.5, [v, 5])),
    ("geometric tail_bound radius", "tail radius", 0, lambda v: _M.tail_bound(v)),
    ("fresh_stream seed", "seed", 0, lambda v: fresh_stream(v, 0xBA11, 0)),
    ("fresh_stream domain", "stream domain", 0, lambda v: fresh_stream(0, v, 0)),
    ("fresh_stream index", "stream index", 0, lambda v: fresh_stream(0, 0xBA11, v)),
    ("StreamFactory.generator index", "stream index", 0,
     lambda v: StreamFactory(0, 0xBA11).generator(v)),
]

# the counts that are 64-bit words of a stream key or counter, below 2^64
_WORDS = {"seed", "stream domain", "stream index"}

# (entry point and argument, message name, least value, the call with v there):
# an integer that a formula turns into a float, such as the sparsity m of the
# bound (m+1)^-(1/p-1/q), has v + 1 inside the float range, so the runs refuse
# it before drawing rather than with a bare OverflowError at the end
_FLOAT_INTS = [
    ("distortion_bound m", "sparsity m", 0, lambda v: distortion_bound(v, _E)),
    ("monte_carlo_certify m", "sparsity m", 0, lambda v: monte_carlo_certify(4, v, _E, 10)),
    ("adversarial_certify m", "sparsity m", 0, lambda v: adversarial_certify(4, v, _E, 2)),
    ("key_lemma_oracle_max n", "coordinate count n", 1,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, v, samples=0)),
    ("ball_inclusion_max_radius m", "coordinate count m", 1,
     lambda v: ball_inclusion_max_radius(v, _E)),
]
# the least v whose v + 1 rounds past the largest double
_M_OVER = 2**1024 - 2**970 - 1

# (entry point and argument, the call with v there): lattice coordinates are
# integers of any sign, never truncated
_POINT = FinitelySupportedPoint(((0,),), (0.5,), 1.0)
_COORDINATES = [
    ("LatticeBox center", lambda v: LatticeBox((0, v), 1)),
    ("tail_set delta", lambda v: tail_set(_M, (v,), 0.5)),
    ("FinitelySupportedPoint support",
     lambda v: FinitelySupportedPoint(((v,), (9,)), (0.5, 0.25), 1.0)),
    ("FinitelySupportedPoint.value_at gamma", lambda v: _POINT.value_at((v,))),
    ("translate delta", lambda v: translate(_POINT, (v,))),
    ("omega_distance omega", lambda v: omega_distance(_POINT, _POINT, _M, [(v,)])),
    ("embedding_check omega", lambda v: embedding_check(_M, [(v,)], 1.0, 0.5, 10)),
    ("geometric weight gamma", lambda v: _M.weight((v,))),
]

# (entry point and argument, message name, the call with v there): arrays of
# integers, never of bools or floats, whether or not the values are whole
_INT_ARRAYS = [
    ("SignedPermutation perm", "permutation entry", lambda v: SignedPermutation([1.0, 1.0], v)),
]

# (entry point and argument, message name, whether inf is refused, the call)
_EXPONENTS = [
    ("lq_distance q", "distance exponent q", False, lambda v: lq_distance((1.0,), (0.0,), v)),
    ("lp_norm_power p", "ball exponent p", False, lambda v: lp_norm_power((0.5,), v)),
    ("in_lp_ball p", "ball exponent p", False, lambda v: in_lp_ball((0.5,), v)),
    ("make_exponents p", "ball exponent p", True, lambda v: make_exponents(v, math.inf)),
    ("make_exponents q", "distance exponent q", False, lambda v: make_exponents(1, v)),
    ("Exponents p", "ball exponent p", True, lambda v: Exponents(p=v, q=math.inf)),
    ("Exponents q", "distance exponent q", False, lambda v: Exponents(p=1, q=v)),
    ("sample_lp_ball p", "ball exponent p", False, lambda v: sample_lp_ball(2, v, _rng())),
    ("sample_lp_ball_rows p", "ball exponent p", False,
     lambda v: sample_lp_ball_rows(2, 2, v, _rng())),
    ("check_lemma_swap s", "power s", False, lambda v: check_lemma_swap(v, 3, 1, 2)),
    ("check_key_lemma s", "power s", False, lambda v: check_key_lemma(v, 1, 0.5, (0.5,))),
    ("key_lemma_oracle_max s", "power s", False, lambda v: key_lemma_oracle_max(v, 1, 0.5, 2)),
    ("distortion q", "distance exponent q", False, lambda v: distortion([2.0, 1.0], 1, v)),
    ("distortion rows q", "distance exponent q", False, lambda v: distortion(_X, 1, v)),
    ("extremal_vector p", "ball exponent p", False, lambda v: extremal_vector(0, v, 2)),
    ("widim_equal_case p", "ball exponent p", False, lambda v: widim_equal_case(10, 0.5, v, 1)),
    ("widim_equal_case q", "distance exponent q", False,
     lambda v: widim_equal_case(10, 0.5, 2, v)),
    ("EqualCase p", "ball exponent p", False, lambda v: EqualCase(v, 1)),
    ("EqualCase q", "distance exponent q", False, lambda v: EqualCase(2, v)),
    ("FinitelySupportedPoint p", "ball exponent p", False,
     lambda v: FinitelySupportedPoint(((0,),), (0.5,), v)),
    ("widim_constant p", "ball exponent p", False, lambda v: widim_constant(v, 0.5)),
    ("embedding_check p", "ball exponent p", False,
     lambda v: embedding_check(_M, [(0,)], v, 0.5, 10)),
    ("mean_dimension_table p", "ball exponent p", False,
     lambda v: mean_dimension_table(_M, v, 0.5, [1, 2])),
]

_SCALES = [
    ("widim_upper_plateau eps", lambda v: widim_upper_plateau(v, _E)),
    ("widim_lower_plateau eps", lambda v: widim_lower_plateau(v, _E)),
    ("widim_upper eps", lambda v: widim_upper(10, v, _E)),
    ("widim_lower eps", lambda v: widim_lower(10, v, _E)),
    ("widim_equal_case eps", lambda v: widim_equal_case(10, v, 2, 1)),
    ("bracket eps", lambda v: bracket(10, v, _E)),
    ("bracket EqualCase eps", lambda v: bracket(10, v, EqualCase(2, 1))),
    ("WidimBoundReport epsilon", lambda v: WidimBoundReport(3, v, _E, 1, 2)),
    ("tail_set eps", lambda v: tail_set(_M, (0,), v)),
    ("widim_constant eps", lambda v: widim_constant(1.0, v)),
    ("embedding_check eps", lambda v: embedding_check(_M, [(0,)], 1.0, v, 10)),
    ("mean_dimension_table eps", lambda v: mean_dimension_table(_M, 1.0, v, [1, 2])),
    ("asymptotic_exponent_fit eps_grid",
     lambda v: asymptotic_exponent_fit(_E, [v, 0.1, 0.01, 0.001])),
]

# (entry point and argument, message name, the call): a scale, then above a bound of its own
_ABOVE = [
    ("geometric_weight_metric base", "decay base", lambda v: geometric_weight_metric(base=v)),
]

# (entry point and argument, the call): a weight total is a scale in (0, 1]
_TOTALS = [
    ("WeightedGroupMetric total_bound",
     lambda v: WeightedGroupMetric(1, lambda g: 0.5, lambda k: 0.0, v)),
    ("geometric_weight_metric total", lambda v: geometric_weight_metric(total=v)),
]

# (entry point and argument, the call): a probe set is a nonempty set of
# lattice points of the weight's dimension
_EMPTY = FinitelySupportedPoint((), (), 1.0)
_PROBE_SETS = [
    ("omega_distance omega", lambda v: omega_distance(_EMPTY, _EMPTY, _M, v)),
    ("embedding_check omega", lambda v: embedding_check(_M, v, 1.0, 0.5, 10)),
]

# (entry point and argument, message name, whether a 2-D batch is legal, a valid
# value, the call with v there): arrays of finite reals, read by core's one
# reader, which refuses a bool array as the scalar rules refuse a bool
_HALVES = [0.5, 0.25]
_VECTORS = [
    ("as_vector x", "vector", False, _HALVES, lambda v: as_vector(v)),
    ("lq_distance x", "vector", False, _HALVES, lambda v: lq_distance(v, (0.0, 0.0), 2)),
    ("lq_distance y", "vector", False, _HALVES, lambda v: lq_distance((0.0, 0.0), v, 2)),
    ("lp_norm_power x", "vector", False, _HALVES, lambda v: lp_norm_power(v, 2)),
    ("in_lp_ball x", "vector", False, _HALVES, lambda v: in_lp_ball(v, 2)),
    ("f_closed x", "x", True, _HALVES, lambda v: f_closed(v, 1)),
    ("f_equivariant x", "x", True, _HALVES, lambda v: f_equivariant(v, 1)),
    ("distortion x", "x", True, _HALVES, lambda v: distortion(v, 1, 2)),
    ("ConePoint coords", "vector", False, _HALVES, lambda v: ConePoint(v)),
    ("in_cone x", "vector", False, _HALVES, lambda v: in_cone(v)),
    ("act x", "vector", False, _HALVES, lambda v: act(identity(2), v)),
    ("canonicalize x", "vector", False, _HALVES, lambda v: canonicalize(v)),
    ("f0 y", "vector", False, _HALVES, lambda v: f0(v, 1)),
    ("check_key_lemma xs", "vector", False, _HALVES, lambda v: check_key_lemma(2, 1, 0.5, v)),
    ("SignedPermutation signs", "signs", False, [1.0, -1.0],
     lambda v: SignedPermutation(v, [1, 0])),
    # a point with empty support has empty values, so only a nonempty input is read
    ("FinitelySupportedPoint values", "point values", False, _HALVES,
     lambda v: FinitelySupportedPoint(((0,), (1,))[:len(v)], v, 1.0)),
]

# (entry point and argument, the call with v there): row sizes are one integer
# in [0, n] per row, here 3 rows of dimension 4
_ROW_SIZES = [
    ("sample_lp_ball_rows sizes p=1", lambda v: sample_lp_ball_rows(3, 4, 1.0, _rng(), v)),
    ("sample_lp_ball_rows sizes p=2", lambda v: sample_lp_ball_rows(3, 4, 2.0, _rng(), v)),
    ("sample_lp_ball_rows sizes p=inf", lambda v: sample_lp_ball_rows(3, 4, math.inf, _rng(), v)),
]

# (entry point and argument, the call with v there): an exponent pair is an
# Exponents from make_exponents; bracket and the report also take the EqualCase marker
_PAIRS = [
    ("widim_upper e", lambda v: widim_upper(10, 0.5, v)),
    ("widim_lower e", lambda v: widim_lower(10, 0.5, v)),
    ("widim_upper_plateau e", lambda v: widim_upper_plateau(0.5, v)),
    ("widim_lower_plateau e", lambda v: widim_lower_plateau(0.5, v)),
    ("bracket e", lambda v: bracket(10, 0.5, v)),
    ("WidimBoundReport exponents", lambda v: WidimBoundReport(3, 0.5, v, 1, 2)),
    ("asymptotic_exponent_fit e",
     lambda v: asymptotic_exponent_fit(v, [0.5, 0.25, 0.125, 0.0625])),
    ("distortion_bound e", lambda v: distortion_bound(3, v)),
    ("ball_inclusion_max_radius e", lambda v: ball_inclusion_max_radius(3, v)),
    ("monte_carlo_certify e", lambda v: monte_carlo_certify(4, 1, v, 10)),
    ("adversarial_certify e", lambda v: adversarial_certify(4, 1, v, 2)),
]
_TAKES_EQUAL_CASE = {"bracket e", "WidimBoundReport exponents"}

# (entry point and argument, message name, the call): nonnegative finite reals
_NONNEGATIVE = [
    ("check_key_lemma c", "budget c", lambda v: check_key_lemma(2, v, 0.5, (0.0,))),
    ("check_key_lemma t", "cap t", lambda v: check_key_lemma(2, 1, v, (0.0,))),
    ("key_lemma_oracle_max c", "budget c", lambda v: key_lemma_oracle_max(2, v, 0.5, 2)),
    ("key_lemma_oracle_max t", "cap t", lambda v: key_lemma_oracle_max(2, 1, v, 2)),
    ("check_lemma_swap x", "value x", lambda v: check_lemma_swap(2, v, 0.0, 0.1)),
    ("check_lemma_swap y", "value y", lambda v: check_lemma_swap(2, 1.0, v, 0.1)),
    ("check_lemma_swap z", "shift z", lambda v: check_lemma_swap(2, 1.0, 0.5, v)),
]


# a real is an int, a float or a numpy integer or floating scalar: never a
# string, even one that float() would read, nor a numpy bool, a container, a
# complex, a 1-element array or a Decimal (1, which every real rule here admits)
_NOT_REALS = ("2", b"2", "abc", np.True_, None, [2], {}, 1 + 0j, np.array([1.0]), Decimal("1"))

# ints beyond the float range, which float() refuses with OverflowError: every
# real rule reads one as NaN and refuses it, in a vector too
_HUGE = (10**400, -10**400)

# (entry point and the number it reads, the call with v as that number): the
# weights and tail of a custom metric are nonnegative finite reals
_PAIR = (FinitelySupportedPoint(((0,),), (0.5,), 1.0), FinitelySupportedPoint(((1,),), (0.5,), 1.0))
_WEIGHTS = [
    ("embedding_check weight", "weight",
     lambda v: embedding_check(WeightedGroupMetric(1, lambda g: v, lambda k: 0.0, 0.5),
                               [(0,)], 1.0, 0.5, 50)),
    ("weighted_distance weight", "weight",
     lambda v: weighted_distance(*_PAIR, WeightedGroupMetric(1, lambda g: v, lambda k: 0.0, 0.5))),
    ("omega_distance weight", "weight",
     lambda v: omega_distance(*_PAIR, WeightedGroupMetric(1, lambda g: v, lambda k: 0.0, 0.5),
                              [(0,)])),
    ("tail_set tail", "weight tail",
     lambda v: tail_set(WeightedGroupMetric(1, lambda g: 0.5, lambda k: v, 0.5), (0,), 0.5)),
    ("embedding_check tail", "weight tail",
     lambda v: embedding_check(WeightedGroupMetric(1, lambda g: 0.25, lambda k: v, 0.5),
                               [(0,)], 1.0, 0.5, 50)),
]


def _input_rule_cases():
    # a seed is also below 2^64, the width of a stream key
    rows = [(name, what, call, (True, least + 1.5, least - 1, math.nan, math.inf)
             + ((2**64,) if what in _WORDS else ()))
            for name, what, least, call in _COUNTS]
    rows += [(name, "lattice coordinate", call, (True, 0.7, 2.9, -1.5, 2.0, math.nan, math.inf))
             for name, call in _COORDINATES]
    rows += [(name, re.escape(f"{what} must be an integer of at least {least} below about "
                              "1.8e308, the float range; got"),
              call, (_M_OVER, 10**400)) for name, what, least, call in _FLOAT_INTS]
    rows += [(name, what, call, ([0.7, 1.2], [1.9, 0.2], [1.0, 0.0], [True, False], [True, 0],
                                 np.array([True, False]), np.array([1.0, 0.0])))
             for name, what, call in _INT_ARRAYS]
    rows += [(name, what, call, (True, 0.5, -math.inf, math.nan) + ((math.inf,) if finite else ())
              + _NOT_REALS + _HUGE) for name, what, finite, call in _EXPONENTS]
    rows += [(name, "scale eps", call, (True, 0.0, -0.5, math.nan, math.inf, "0.5") + _NOT_REALS
              + _HUGE) for name, call in _SCALES]
    rows += [(name, what, call, (True, -0.5, -math.inf, math.nan, math.inf, "0") + _NOT_REALS
              + _HUGE) for name, what, call in _NONNEGATIVE]
    rows += [(name, f"{what} must be a positive finite real", call,
              (True, 0.0, -math.inf, math.nan, math.inf, "3") + _NOT_REALS + _HUGE)
             for name, what, call in _ABOVE]
    rows += [(name, f"{what} must be a finite real above 1", call, (1.0, 0.5))
             for name, what, call in _ABOVE]
    rows += [(name, "total weight bound", call, (True, 0.0, -0.5, 1.5, math.nan, math.inf, "0.5")
              + _NOT_REALS + _HUGE) for name, call in _TOTALS]
    rows += [(name, f"{what} must be a nonnegative finite real", call,
              (math.nan, -0.5, -math.inf, math.inf, True, None, "0.25") + _HUGE)
             for name, what, call in _WEIGHTS]
    for name, what, call, bads in rows:
        for bad in bads:
            yield pytest.param(call, bad, what, id=f"{name.replace(' ', '.')}={bad!r}")
    rows = [(name, what, call, bad) for name, call in _PROBE_SETS
            for bad, what in (([], "nonempty"), ([(0, 0)], "dimension 1"),
                              ([(0,), (0,)], "distinct"))]
    for name, what, batch, _, call in _VECTORS:
        # a list or object array that mixes a bool with reals, which numpy reads as floats
        mixed = [[True, 0.5], (0.5, np.bool_(False)), np.array([0.5, True], dtype=object)]
        mixed += [[_HALVES, [0.5, True]]] if batch else []
        # strings, which numpy would parse, alone or beside reals
        texts = [np.array(["1", "2"]), ["1", "2"], np.array([b"1", b"2"]), ["0.5", 0.25],
                 [0.5, b"0.25"], np.array([0.5, "0.25"], dtype=object)]
        texts += [[_HALVES, ["0.5", 0.25]]] if batch else []
        # complex entries, whose imaginary part numpy's cast would drop, and
        # entries that are no numbers at all
        texts += [[1 + 1j, 0.5], np.array([1 + 1j, 0.5]), [{}, 0.5], [None, 0.5]]
        rows += [(name, f"{what} must hold reals, not bools or strings", call, bad)
                 for bad in [np.array([True, False]), [True, False]] + mixed + texts]
        rows += [(name, "values must be finite", call, [0.5, math.nan]),
                 (name, "values must be finite", call, [10**400, 0.5]),
                 (name, f"{what} must be a", call, [[[0.5, 0.25]]] if batch else [[0.5, 0.25]])]
        if what != "point values":  # a point with empty support has empty values
            rows.append((name, "at least one coordinate", call, []))
    rows += [(name, "row size", call, bad) for name, call in _ROW_SIZES
             for bad in ([1, 2], [1.5, 2, 3], [True, 2, 3], [-1, 2, 3], [9, 2, 3], [[1, 2, 3]],
                         np.array([1.0, 2.0, 3.0]), np.array([True, True, False]))]
    rows += [(name, "exponent pair", call, bad) for name, call in _PAIRS
             for bad in ((1, 2), None, "1,2")
             + (() if name in _TAKES_EQUAL_CASE else (EqualCase(2, 2),))]
    for name, what, call, bad in rows:
        yield pytest.param(call, bad, what, id=f"{name.replace(' ', '.')}={bad!r}")


@pytest.mark.parametrize("call, bad, what", _input_rule_cases())
def test_input_rules(call, bad, what):
    # every count, exponent and scale is checked by the one rule for its
    # kind, and the message names the argument
    with pytest.raises(ValueError, match=what):
        call(bad)


def test_input_rule_table_covers_valid_values():
    # the calls of the table run on valid values, so each case above fails
    # on its bad argument alone
    for _, what, least, call in _COUNTS:
        call(least)
        call(np.int64(least + 1))
        if what in _WORDS:
            call(2**64 - 1)
            call(np.uint64(2**64 - 1))
    for _, _, _, call in _FLOAT_INTS:
        call(_M_OVER - 1)
    for _, call in _COORDINATES:
        call(-3)
        call(np.int64(2))
    for _, _, call in _INT_ARRAYS:
        call([1, 0])
        call([np.int64(1), 0])
        call(np.array([1, 0]))
        call(np.array([1, 0], dtype=np.uint8))
    for _, _, _, call in _EXPONENTS:
        call(2.0)
    for _, call in _SCALES:
        call(0.5)
    for _, _, call in _NONNEGATIVE:
        call(0.0)
        call(0.5)
    for _, _, call in _ABOVE:
        call(1.5)
        call(np.float64(3.0))
    for _, call in _TOTALS:
        call(0.25)
        call(1.0)
    for _, _, call in _WEIGHTS:
        call(0.0)
        call(np.float64(0.0625))  # a tail below eps/4 at radius 0
    for _, call in _PROBE_SETS:
        call([(0,)])
        call([(1,), (-1,)])
    for _, _, batch, valid, call in _VECTORS:
        call(valid)
        call(np.array(valid))
        call(np.array(valid, dtype=np.float32))
        if batch:
            call([valid, valid])
    FinitelySupportedPoint((), [], 1.0)  # the empty point reads no values
    for _, call in _ROW_SIZES:
        call([0, 2, 4])
        call(np.array([1, 2, 3]))
        call(np.array([4, 4, 0], dtype=np.uint8))
    for _, call in _PAIRS:
        call(_E)
        call(make_exponents(2, math.inf))
    bracket(10, 0.5, EqualCase(2, 1))
    WidimBoundReport(3, 0.5, EqualCase(2, 1), 3, 3)


def test_bool_checks_live_in_core():
    # the input rules are written down once: an isinstance(..., bool) test
    # elsewhere would be a second copy (the output layer formats bool cells)
    src = Path(widim.__file__).parent
    pattern = re.compile(r"isinstance\([^()]*\bbool\b")
    holders = sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text()))
    assert holders == ["_output.py", "core.py"]


def test_the_real_predicate_lives_in_core():
    # what a real is, is decided by core's one predicate: a second type tuple
    # of reals, or a call of the predicate from another module, would be a
    # second copy of the rule, and the old blacklist is gone
    src = Path(widim.__file__).parent
    for rule in (r"\b_is_real\b", r"\bnp\.floating\b", r"\b_NOT_REAL"):
        pattern = re.compile(rule)
        holders = sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text()))
        assert holders == ([] if "NOT" in rule else ["core.py"]), rule


def test_the_geometric_weight_answers_its_own_tail_and_table():
    # tail_set and the embedding window call the weight's methods, which the
    # geometric family overrides; a type test on the weight elsewhere would
    # be a second owner of what only that family knows
    src = Path(widim.__file__).parent
    pattern = re.compile(r"isinstance\(\s*M\b|isinstance\([^()]*_GeometricWeight")
    assert sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text())) == []


def test_the_float_range_rule_lives_in_core():
    # an integer that a formula turns into a float is refused by core's one
    # rule: a float() call inside a try elsewhere would be a second copy of it
    src = Path(widim.__file__).parent
    holders = []
    for path in sorted(src.glob("*.py")):
        tries = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Try)]
        if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "float" for node in tries for stmt in node.body
               for call in ast.walk(stmt)):
            holders.append(path.name)
    assert holders == ["core.py"]


def test_real_casts_and_the_ball_rule_live_in_core():
    # caller input becomes a float array only in core's reader, and only core
    # compares a mass with 1 + BALL_TOLERANCE: a local np.asarray, a cast of a
    # bare argument such as np.array(x, dtype=np.float64), or a local ball test
    # elsewhere would be a second copy of the rule
    src = Path(widim.__file__).parent
    for rule in (r"np\.asarray\(", r"np\.(as)?array\(\s*[\w.]+\s*,\s*dtype=",
                 r"1\.0 \+ BALL_TOLERANCE", r"\bfloat\((p|q|eps|n|m)\)"):
        pattern = re.compile(rule)
        holders = sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text()))
        assert holders == ([] if "float" in rule else ["core.py"]), rule  # core reads by _real


def test_no_module_touches_generator_internals():
    # every draw goes through a documented Generator method: reading or writing
    # a bit generator's raw words or its state would tie the streams to numpy
    # internals that a release may change
    src = Path(widim.__file__).parent
    pattern = re.compile(r"\bbit_generator\b|\brandom_raw\b|\bhas_uint32\b|\buinteger\b|\.state\b")
    assert sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text())) == []


def test_the_cell_cap_lives_in_core():
    # one cap on the size of a run, written and compared only in core's
    # _check_cells: a second 2^22, or a driver comparing a size with the cap
    # by hand, would be a second copy of the rule
    src = Path(widim.__file__).parent
    for rule in (r"1\s*<<\s*22|2\s*\*\*\s*22|4194304", r"^\w*MAX_\w*CELLS\w* =",
                 r"[<>]=?\s*(core\.)?MAX_CELLS\b|\bMAX_CELLS\s*[<>]"):
        pattern = re.compile(rule, re.MULTILINE)
        holders = sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text()))
        assert holders == ["core.py"], rule
