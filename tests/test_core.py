"""Distance, norm, and exponent-triple primitives, and the input rules."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widim
from widim import (
    EqualCase,
    FinitelySupportedPoint,
    LatticeBox,
    WeightedGroupMetric,
    adversarial_certify,
    ball_inclusion_holds,
    ball_inclusion_max_radius,
    bracket,
    check_key_lemma,
    check_lemma_swap,
    distortion,
    distortion_bound,
    embedding_check,
    equal_case_report,
    extremal_vector,
    f0,
    f_closed,
    f_equivariant,
    geometric_weight_metric,
    key_lemma_oracle_max,
    mean_dimension_table,
    monte_carlo_certify,
    sample_lp_ball,
    tail_set,
    widim_constant,
    widim_equal_case,
    widim_exact_q_infinity,
    widim_lower,
    widim_lower_plateau,
    widim_upper,
    widim_upper_plateau,
)
from widim.certify import sample_lp_ball_rows
from widim.core import (
    Exponents,
    as_vector,
    in_lp_ball,
    lp_norm_power,
    lq_distance,
    make_exponents,
)


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


def test_lp_norm_power_pinned_values():
    assert lp_norm_power((0.5, 0.5, 0.0), 1) == 1.0
    assert lp_norm_power((1.0, 0.0), 2) == 1.0
    assert lp_norm_power((0.6, 0.6), 1) == pytest.approx(1.2, abs=1e-15)
    assert lp_norm_power((0.3, -0.7, 0.1), math.inf) == 0.7


def test_in_lp_ball_boundary_and_tolerance():
    assert in_lp_ball((0.5, 0.5, 0.0), 1)
    assert not in_lp_ball((0.6, 0.6), 1)
    # boundary point plus noise below the default tolerance still passes
    assert in_lp_ball((1.0 + 5e-13, 0.0), 2)
    assert not in_lp_ball((1.0 + 5e-13, 0.0), 2, tol=1e-14)


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
    with pytest.raises(ValueError):
        Exponents(p=1.0, q=2.0, r=3.0)  # 1/1 - 1/2 != 1/3
    with pytest.raises(ValueError):
        Exponents(p=1.0, q=2.0, r=2.1)
    with pytest.raises(ValueError):
        Exponents(p=2.0, q=math.inf, r=3.0)  # q = inf forces r = p
    # a consistent triple is accepted as is
    e = Exponents(p=1.0, q=2.0, r=2.0)
    assert e.inverse_rate == 0.5


@settings(max_examples=500, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=100.0),
    log_gap=st.floats(min_value=-9.0, max_value=0.0),
)
def test_make_exponents_accepts_q_close_to_p(p, log_gap):
    # 1/p - 1/q cancels when q is close to p; the consistency check must not
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
    ("adversarial_certify n", "dimension n", 1, lambda v: adversarial_certify(v, 1, _E, 2)),
    ("adversarial_certify m", "sparsity m", 0, lambda v: adversarial_certify(4, v, _E, 2)),
    ("adversarial_certify restarts", "restarts", 1, lambda v: adversarial_certify(4, 1, _E, v)),
    ("adversarial_certify workers", "workers", 1,
     lambda v: adversarial_certify(4, 1, _E, 2, workers=v)),
    ("key_lemma_oracle_max n", "coordinate count n", 1,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, v)),
    ("key_lemma_oracle_max samples", "samples", 0,
     lambda v: key_lemma_oracle_max(2, 1, 0.5, 2, samples=v)),
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
    ("widim_exact_q_infinity n", "dimension n", 1, lambda v: widim_exact_q_infinity(v, 0.5, 2)),
    ("widim_equal_case n", "dimension n", 1, lambda v: widim_equal_case(v, 0.5, 2, 1)),
    ("bracket n", "dimension n", 1, lambda v: bracket(v, 0.5, _E)),
    ("ball_inclusion_max_radius m", "coordinate count m", 1,
     lambda v: ball_inclusion_max_radius(v, _E)),
    ("ball_inclusion_holds m", "coordinate count m", 1,
     lambda v: ball_inclusion_holds(0.5, v, _E)),
    ("LatticeBox radius", "box radius", 0, lambda v: LatticeBox((0,), v)),
    ("WeightedGroupMetric dim_d", "lattice dimension d", 1,
     lambda v: WeightedGroupMetric(v, lambda g: 0.5, lambda k: 0.0, 0.5)),
    ("geometric_weight_metric dim_d", "lattice dimension d", 1,
     lambda v: geometric_weight_metric(dim_d=v)),
    ("embedding_check samples", "samples", 1, lambda v: embedding_check(_M, [(0,)], 1.0, 0.5, v)),
    ("embedding_check workers", "workers", 1,
     lambda v: embedding_check(_M, [(0,)], 1.0, 0.5, 10, workers=v)),
    ("mean_dimension_table radius", "box radius", 0,
     lambda v: mean_dimension_table(_M, 1.0, 0.5, [v, 5])),
]

# (entry point and argument, message name, whether inf is refused, the call)
_EXPONENTS = [
    ("lq_distance q", "distance exponent q", False, lambda v: lq_distance((1.0,), (0.0,), v)),
    ("lp_norm_power p", "ball exponent p", False, lambda v: lp_norm_power((0.5,), v)),
    ("in_lp_ball p", "ball exponent p", False, lambda v: in_lp_ball((0.5,), v)),
    ("make_exponents p", "ball exponent p", True, lambda v: make_exponents(v, math.inf)),
    ("Exponents p", "ball exponent p", True, lambda v: Exponents(p=v, q=math.inf, r=v)),
    ("sample_lp_ball p", "ball exponent p", False, lambda v: sample_lp_ball(2, v, _rng())),
    ("sample_lp_ball_rows p", "ball exponent p", False,
     lambda v: sample_lp_ball_rows(2, 2, v, _rng())),
    ("check_lemma_swap s", "power s", False, lambda v: check_lemma_swap(v, 3, 1, 2)),
    ("check_key_lemma s", "power s", False, lambda v: check_key_lemma(v, 1, 0.5, (0.5,))),
    ("key_lemma_oracle_max s", "power s", False, lambda v: key_lemma_oracle_max(v, 1, 0.5, 2)),
    ("distortion q", "distance exponent q", False, lambda v: distortion([2.0, 1.0], 1, v)),
    ("distortion rows q", "distance exponent q", False, lambda v: distortion(_X, 1, v)),
    ("extremal_vector p", "ball exponent p", False, lambda v: extremal_vector(0, v, 2)),
    ("widim_exact_q_infinity p", "ball exponent p", True,
     lambda v: widim_exact_q_infinity(10, 0.5, v)),
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
    ("widim_exact_q_infinity eps", lambda v: widim_exact_q_infinity(10, v, 2)),
    ("widim_equal_case eps", lambda v: widim_equal_case(10, v, 2, 1)),
    ("equal_case_report eps", lambda v: equal_case_report(10, v, 2, 1)),
    ("bracket eps", lambda v: bracket(10, v, _E)),
    ("tail_set eps", lambda v: tail_set(_M, (0,), v)),
    ("widim_constant eps", lambda v: widim_constant(1.0, v)),
    ("embedding_check eps", lambda v: embedding_check(_M, [(0,)], 1.0, v, 10)),
    ("mean_dimension_table eps", lambda v: mean_dimension_table(_M, 1.0, v, [1, 2])),
]

# (entry point and argument, message name, the call): nonnegative finite reals
_NONNEGATIVE = [
    ("check_key_lemma c", "budget c", lambda v: check_key_lemma(2, v, 0.5, (0.0,))),
    ("check_key_lemma t", "cap t", lambda v: check_key_lemma(2, 1, v, (0.0,))),
    ("key_lemma_oracle_max c", "budget c", lambda v: key_lemma_oracle_max(2, v, 0.5, 2)),
    ("key_lemma_oracle_max t", "cap t", lambda v: key_lemma_oracle_max(2, 1, v, 2)),
]


def _input_rule_cases():
    rows = [(name, what, call, (True, least + 1.5, least - 1, math.nan, math.inf))
            for name, what, least, call in _COUNTS]
    rows += [(name, what, call, (True, 0.5, -math.inf, math.nan) + ((math.inf,) if finite else ()))
             for name, what, finite, call in _EXPONENTS]
    rows += [(name, "scale eps", call, (True, 0.0, -0.5, math.nan, math.inf))
             for name, call in _SCALES]
    rows += [(name, what, call, (True, -0.5, -math.inf, math.nan, math.inf))
             for name, what, call in _NONNEGATIVE]
    for name, what, call, bads in rows:
        for bad in bads:
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
    for _, _, least, call in _COUNTS:
        call(least)
        call(np.int64(least + 1))
    for _, _, _, call in _EXPONENTS:
        call(2.0)
    for _, call in _SCALES:
        call(0.5)
    for _, _, call in _NONNEGATIVE:
        call(0.0)
        call(0.5)


def test_bool_checks_live_in_core():
    # the input rules are written down once: an isinstance(..., bool) test
    # elsewhere would be a second copy (the output layer formats bool cells)
    src = Path(widim.__file__).parent
    pattern = re.compile(r"isinstance\([^()]*\bbool\b")
    holders = sorted(path.name for path in src.glob("*.py") if pattern.search(path.read_text()))
    assert holders == ["_output.py", "core.py"]
