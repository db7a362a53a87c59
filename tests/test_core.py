"""Distance, norm, and exponent-triple primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
