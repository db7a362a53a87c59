"""
Width bound tables
==================
"""

import math

import numpy as np

from widim.bounds import (
    asymptotic_exponent_fit,
    ball_inclusion_max_radius,
    bracket,
    widim_equal_case,
    widim_upper,
    widim_upper_plateau,
)
from widim.core import make_exponents

e = make_exponents(p=1, q=2)

# small-scale table: the bracket collapses onto the plateau once n is large
print("n      eps   lower  upper  exact")
for n in (5, 10, 100, 10_000):
    for eps in (1.0, 0.5, 0.25):
        rep = bracket(n, eps, e)
        print(f"{n:<6d} {eps:<5g} {rep.lower:<6d} {rep.upper:<6d} {rep.exact}")

# q = inf admits an exact count, not just a bracket
print("exact value at q=inf, p=2, eps=0.5:", widim_upper(100, 0.5, make_exponents(2, math.inf)))

# q <= p with eps < 1 pins the count at n (no compression at all)
print("equal-case value:", widim_equal_case(50, 0.99, 2, 2))

# integer boundary: (2/eps)^r = 9 exactly, the guard keeps the count at 8
print("plateau at eps=2/3:", widim_upper_plateau(2.0 / 3.0, e))

# the log-log slope of either family recovers the rate r = 1/(1/p - 1/q)
grid = [2.0**-k for k in range(3, 11)]
for p, q in ((1, 2), (1, math.inf), (2, 4)):
    ee = make_exponents(p, q)
    up = asymptotic_exponent_fit(ee, grid, use="upper")
    lo = asymptotic_exponent_fit(ee, grid, use="lower")
    print(f"p={p} q={q}: rate {ee.r:.3f}, fitted slopes {up:.3f} / {lo:.3f}")

# inclusion radius: the largest c with c * (q ball) inside the p ball
rng = np.random.default_rng(11)
for p, q in ((1.0, 2.0), (2.0, math.inf)):
    c = ball_inclusion_max_radius(8, make_exponents(p, q))
    print(f"inclusion radius n=8 p={p} q={q}: {c:.6f}")
    for _ in range(500):
        v = rng.normal(size=8)
        v /= np.sum(np.abs(v) ** q) ** (1 / q) if q != math.inf else np.max(np.abs(v))
        assert np.sum(np.abs(c * v) ** p) <= 1.0 + 1e-9  # scaled copy stays inside
print("500 random boundary points per pair confirm the inclusion")
