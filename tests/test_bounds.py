"""Closed-form width bound formulas and their guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widim.bounds import (
    SATURATION_LIMIT,
    EqualCase,
    WidimBoundReport,
    asymptotic_exponent_fit,
    ball_inclusion_holds,
    ball_inclusion_max_radius,
    bracket,
    equal_case_report,
    guarded_count,
    widim_equal_case,
    widim_exact_q_infinity,
    widim_lower,
    widim_lower_plateau,
    widim_upper,
    widim_upper_plateau,
)
from widim.core import make_exponents


def test_guarded_count():
    assert guarded_count(16.0) == 15
    assert guarded_count(16.0 + 1e-10) == 15  # snaps down to the integer
    assert guarded_count(16.0 - 1e-10) == 15  # snaps up to the integer
    assert guarded_count(16.01) == 16
    assert guarded_count(0.25) == 0
    assert guarded_count(0.0) == 0  # clamped
    assert guarded_count(2.0**63) is None
    assert guarded_count(math.inf) is None
    assert guarded_count(SATURATION_LIMIT) == 2**62 - 1
    with pytest.raises(ValueError):
        guarded_count(-1.0)
    with pytest.raises(ValueError):
        guarded_count(math.nan)  # not the saturation marker


def test_widim_upper_pinned():
    e = make_exponents(1, 2)
    assert widim_upper(100, 0.5, e) == 15
    assert widim_upper(2, 1e-6, e) == 2  # min saturates at n
    assert widim_upper(10, 4.0, e) == 0  # (2/4)^2 < 1


def test_widim_lower_pinned():
    e = make_exponents(1, 2)
    assert widim_lower(100, 0.5, e) == 3
    assert widim_lower(1, 0.1, e) == 1
    for eps in (1.0, 1.5, 4.0):
        assert widim_lower(10, eps, e) == 0


def test_widim_exact_q_infinity_pinned():
    assert widim_exact_q_infinity(100, 0.5, 2) == 15
    assert widim_exact_q_infinity(10, 1.0, 1) == 1
    assert widim_exact_q_infinity(5, 0.01, 1) == 5


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 999), st.floats(0.01, 4.0), st.floats(1.0, 4.0))
def test_exact_matches_upper_at_q_infinity(n, eps, p):
    e = make_exponents(p, math.inf)
    assert widim_exact_q_infinity(n, eps, p) == widim_upper(n, eps, e)
    assert bracket(n, eps, e).lower == bracket(n, eps, e).upper == widim_upper(n, eps, e)


def test_widim_equal_case_pinned():
    assert widim_equal_case(7, 0.9, 2, 2) == 7
    assert widim_equal_case(7, 0.9, 3, 2) == 7
    assert widim_equal_case(7, 1.5, 2, 2) is None  # out of covered range
    with pytest.raises(ValueError):
        widim_equal_case(7, 0.9, 1, 2)  # q > p belongs to the bracket formulas


def test_bracket_pinned():
    rep = bracket(100, 0.5, make_exponents(1, 2))
    assert (rep.lower, rep.upper, rep.exact) == (3, 15, False)
    rep = bracket(100, 0.5, make_exponents(2, math.inf))
    assert (rep.lower, rep.upper, rep.exact) == (15, 15, True)
    rep = bracket(1, 0.5, make_exponents(1, 2))
    assert (rep.lower, rep.upper, rep.exact) == (1, 1, True)


def test_equal_case_report():
    rep = equal_case_report(7, 0.9, 3, 2)
    assert rep.lower == rep.upper == 7 and rep.exact
    assert rep.exponents == EqualCase(3, 2)
    with pytest.raises(ValueError):
        equal_case_report(7, 1.5, 3, 2)
    # the equal-case report is the bracket of an EqualCase
    assert bracket(7, 0.9, EqualCase(3, 2)) == rep
    with pytest.raises(ValueError, match="no closed form covers eps >= 1"):
        bracket(7, 1.0, EqualCase(3, 2))
    with pytest.raises(ValueError):
        EqualCase(1, 2)


def test_report_invariants_enforced():
    e = make_exponents(1, 2)
    with pytest.raises(ValueError):
        WidimBoundReport(10, 0.5, e, 5, 3)  # lower > upper
    with pytest.raises(ValueError):
        WidimBoundReport(2, 0.5, e, 1, 3)  # upper > n
    # exact is derived from the bracket, never passed
    with pytest.raises(TypeError):
        WidimBoundReport(10, 0.5, e, 2, 3, True)
    assert not WidimBoundReport(10, 0.5, e, 2, 3).exact
    assert WidimBoundReport(10, 0.5, e, 3, 3).exact


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([(1.0, 2.0), (1.0, math.inf), (1.5, 3.7), (1.0, 1.0001), (2.5, math.inf)]),
    st.integers(1, 10**9),
    st.floats(1e-6, 4.0),
)
def test_bracket_exact_iff_bounds_coincide(pq, n, eps):
    rep = bracket(n, eps, make_exponents(*pq))
    assert rep.exact == (rep.lower == rep.upper)
    assert rep.exact or not math.isinf(pq[1])  # q = inf pins the width


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from([(1.0, 2.0), (1.0, math.inf), (2.0, 4.0), (1.5, 2.5), (2.0, math.inf)]),
    st.lists(st.integers(1, 1_000_000), min_size=2, max_size=2).map(sorted),
    st.lists(st.floats(0.01, 4.0), min_size=2, max_size=2).map(sorted),
)
def test_bracketing_on_dense_grid(pq, ns, scales):
    e = make_exponents(*pq)
    for bound in (widim_lower, widim_upper):
        fine, coarse = ([bound(n, eps, e) for n in ns] for eps in scales)
        assert fine == sorted(fine) and coarse == sorted(coarse)  # non-decreasing in n
        assert all(f >= c for f, c in zip(fine, coarse))  # non-increasing in eps
    for n in ns:
        for eps in scales:
            lo, hi = widim_lower(n, eps, e), widim_upper(n, eps, e)
            assert 0 <= lo <= hi <= n


def test_stabilization_in_n():
    e = make_exponents(1, 2)
    for eps in (0.5, 0.3, 0.17):
        plateau = widim_upper_plateau(eps, e)
        values = {widim_upper(n, eps, e) for n in range(plateau, plateau + 50)}
        assert values == {plateau}  # constant once n reaches the plateau


def test_monotonicity():
    e = make_exponents(1, 2)
    eps_grid = np.linspace(0.05, 4.0, 200)
    for n in (1, 7, 100, 10_000):
        vals_u = [widim_upper(n, eps, e) for eps in eps_grid]
        vals_l = [widim_lower(n, eps, e) for eps in eps_grid]
        assert all(a >= b for a, b in zip(vals_u, vals_u[1:]))  # non-increasing
        assert all(a >= b for a, b in zip(vals_l, vals_l[1:]))
    for eps in (0.1, 0.5, 2.0):
        vals = [widim_upper(n, eps, e) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))  # non-decreasing


def test_ceiling_guard_at_integer_points():
    # (2/eps)^r an exact integer: eps = 2/k^(1/r) gives (2/eps)^r = k^... pick
    # eps so the power lands on an integer and check the bound does not
    # overshoot by one on float noise.
    e = make_exponents(1, 2)  # r = 2
    for k in (2, 3, 4, 9, 81):
        eps = 2.0 / math.sqrt(k)
        assert widim_upper_plateau(eps, e) == k - 1
    assert widim_upper_plateau(2.0 / 3.0, e) == 8  # (2/(2/3))^2 = 9 up to noise


#: (p, q) giving each rate r = pq/(q - p) exactly, with the largest k at
#: which eps = 2/k^(1/r) still carries k: above 2^45 the float eps itself
#: no longer represents k at r = 1.5 or 3.
_RATE_CASES = {
    1.0: ((1.0, math.inf), 2**50),
    2.0: ((1.0, 2.0), 2**50),
    4.0: ((2.0, 4.0), 2**50),
    1.5: ((1.0, 3.0), 2**45),
    3.0: ((1.5, 3.0), 2**45),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_RATE_CASES)), st.data())
def test_ceiling_guard_at_integer_points_of_any_scale(r, data):
    # the snap must hold beyond 1e7, where one ulp of k exceeds 1e-9
    (p, q), top = _RATE_CASES[r]
    e = make_exponents(p, q)
    assert e.r == r
    k = data.draw(st.integers(2, top))
    eps = 2.0 / k ** (1.0 / r)
    assert widim_upper_plateau(eps, e) == k - 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(1.0, 2.0), (1.0, math.inf), (2.0, 4.0), (1.0, 3.0), (1.5, 3.0)]),
    st.floats(1e-4, 4.0),
    st.floats(1e-4, 4.0),
    st.integers(1, 10**9),
)
def test_counts_are_monotone_in_eps(pq, a, b, n):
    e = make_exponents(*pq)
    small, large = min(a, b), max(a, b)
    for plateau in (widim_upper_plateau, widim_lower_plateau):
        hi, lo = plateau(small, e), plateau(large, e)
        assert hi is None or (lo is not None and hi >= lo)
    assert widim_upper(n, small, e) >= widim_upper(n, large, e)
    assert widim_lower(n, small, e) >= widim_lower(n, large, e)


def test_saturation_regime():
    e = make_exponents(1, 2)
    assert widim_upper_plateau(1e-10, e) is None  # (2e10)^2 > 2^62
    assert widim_upper(123, 1e-10, e) == 123  # n-capped value is still exact
    assert widim_lower_plateau(1e-10, e) is None
    assert widim_lower(7, 1e-10, e) == 7
    # (2/eps)^r overflows a double here (r = 101): still the saturation marker
    e = make_exponents(1, 1.01)
    assert widim_upper_plateau(1e-5, e) is None
    assert widim_lower_plateau(1e-5, e) is None
    assert bracket(10, 1e-5, e).lower == bracket(10, 1e-5, e).upper == 10


def test_asymptotic_fit_pinned():
    grid = [2.0**-k for k in range(3, 11)]
    for p, q in ((1, 2), (1, math.inf), (2, 4)):
        e = make_exponents(p, q)
        for use in ("upper", "lower"):
            slope = asymptotic_exponent_fit(e, grid, use=use)
            assert abs(slope - e.r) <= 0.1 * e.r


def test_asymptotic_fit_validation():
    e = make_exponents(1, 2)
    with pytest.raises(ValueError):
        asymptotic_exponent_fit(e, [0.5, 0.25, 0.125])  # too short
    with pytest.raises(ValueError):
        asymptotic_exponent_fit(e, [0.5, 0.25, 0.25, 0.125])  # not decreasing
    with pytest.raises(ValueError):
        asymptotic_exponent_fit(e, [2.0, 0.5, 0.25, 0.125])  # outside (0,1)
    with pytest.raises(ValueError):
        asymptotic_exponent_fit(e, [0.5, 0.25, 0.125, 0.0625], use="sideways")


def test_ball_inclusion_pinned():
    assert ball_inclusion_max_radius(4, make_exponents(1, 2)) == 0.5
    assert ball_inclusion_max_radius(1, make_exponents(1.7, 9.0)) == 1.0
    e = make_exponents(1, 2)
    rho = ball_inclusion_max_radius(9, e)
    assert ball_inclusion_holds(rho, 9, e)
    assert not ball_inclusion_holds(rho * 1.01, 9, e)


def test_ball_inclusion_corner_vector():
    # the constant vector on the q-sphere of radius rho has lp norm exactly 1
    from widim.core import lp_norm_power

    for p, q in ((1.0, 2.0), (2.0, 4.0), (1.0, math.inf)):
        e = make_exponents(p, q)
        for m in (1, 2, 4, 9, 16):
            rho = ball_inclusion_max_radius(m, e)
            if math.isinf(q):
                corner = np.full(m, rho)
            else:
                corner = np.full(m, rho * m ** (-1.0 / q))
            assert abs(lp_norm_power(corner, p) - 1.0) <= 1e-12


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from([(1.0, 2.0), (2.0, 4.0), (1.0, math.inf), (1.5, 3.0)]),
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=16),
    st.floats(0.0, 1.0),
)
def test_ball_inclusion_soundness_on_samples(pq, magnitudes, radius):
    # a point of the q-ball of radius rho, scaled from a q-sphere point,
    # lies in the unit p-ball; the sphere and its corner are the worst case
    from widim.core import lp_norm_power

    e = make_exponents(*pq)
    v = np.array(magnitudes)
    x = radius * v / (v.max() if math.isinf(e.q) else lp_norm_power(v, e.q) ** (1.0 / e.q))
    rho = ball_inclusion_max_radius(v.size, e)
    assert lp_norm_power(rho * x, e.p) <= 1.0 + 1e-12
    assert ball_inclusion_holds(rho, v.size, e)


def test_validation_errors():
    e = make_exponents(1, 2)
    with pytest.raises(ValueError):
        widim_upper(0, 0.5, e)
    with pytest.raises(ValueError):
        widim_upper(1.5, 0.5, e)
    with pytest.raises(ValueError):
        widim_upper(True, 0.5, e)
    with pytest.raises(ValueError):
        widim_upper(10, 0.0, e)
    with pytest.raises(ValueError):
        widim_upper(10, -0.5, e)
    with pytest.raises(ValueError):
        widim_upper(10, math.inf, e)
    with pytest.raises(ValueError):
        ball_inclusion_max_radius(0, e)
