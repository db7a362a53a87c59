"""Signed-permutation group: action, algebra, and canonicalization."""

import math

import numpy as np
import pytest

from widim.core import lq_distance
from widim.signed_perm import (
    ConePoint,
    SignedPermutation,
    act,
    canonicalize,
    compose,
    identity,
    in_cone,
    inverse,
    random_element,
)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_act_pinned_values():
    g = identity(3)
    assert np.array_equal(act(g, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    # signs (-1, +1), swap of the two slots: (5, 7) -> (-7, 5)
    g = SignedPermutation([-1.0, 1.0], [1, 0])
    assert np.array_equal(act(g, [5.0, 7.0]), [-7.0, 5.0])


def test_act_undoes_inverse():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        g = random_element(n, rng)
        x = rng.normal(size=n)
        assert np.array_equal(act(g, act(inverse(g), x)), x + 0.0)


def test_act_normalizes_zero_sign():
    g = SignedPermutation([-1.0, -1.0], [0, 1])
    out = act(g, [0.0, 1.0])
    assert np.array_equal(bits(out), bits(np.array([0.0, -1.0])))  # no -0.0


def test_group_laws():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        g, h, k = (random_element(n, rng) for _ in range(3))
        assert compose(g, identity(n)) == g
        assert compose(identity(n), g) == g
        assert compose(g, inverse(g)) == identity(n)
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert inverse(inverse(g)) == g
        # the product acts like the composition of actions, bit for bit
        x = rng.normal(size=n)
        assert np.array_equal(bits(act(compose(g, h), x)), bits(act(g, act(h, x))))


def test_inverse_pinned():
    assert inverse(identity(4)) == identity(4)
    g = SignedPermutation([-1.0, 1.0], [0, 1])
    assert inverse(g) == g  # pure sign flips are involutions


def test_action_is_isometry():
    # finite-q sums are order dependent, so only the sup norm is bitwise
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        g = random_element(n, rng)
        x, y = rng.normal(size=(2, n))
        assert lq_distance(act(g, x), act(g, y), math.inf) == lq_distance(x, y, math.inf)
        for q in (1.0, 2.0, 4.0):
            d, ref = lq_distance(act(g, x), act(g, y), q), lq_distance(x, y, q)
            assert abs(d - ref) <= 1e-12 * max(1.0, ref)


def test_canonicalize_pinned_values():
    g, y = canonicalize([-3.0, 1.0, 2.0])
    assert np.array_equal(y.coords, [3.0, 2.0, 1.0])
    assert np.array_equal(act(g, [-3.0, 1.0, 2.0]), [3.0, 2.0, 1.0])

    g, y = canonicalize([0.0, 0.0])
    assert g == identity(2)
    assert np.array_equal(y.coords, [0.0, 0.0])

    # ties keep original index order, zero counts as positive
    g, y = canonicalize([2.0, -2.0])
    assert np.array_equal(y.coords, [2.0, 2.0])
    assert np.array_equal(g.perm, [0, 1])
    assert np.array_equal(g.signs, [1.0, -1.0])


def test_canonicalize_output_matches_action_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(500):
        n = int(rng.integers(1, 10))
        x = rng.normal(size=n)
        x[rng.random(n) < 0.3] = 0.0
        x[rng.random(n) < 0.3] = 0.5  # force ties
        g, y = canonicalize(x)
        assert in_cone(y.coords)
        assert np.array_equal(bits(y.coords), bits(act(g, x)))


def test_canonicalize_fixes_cone_points():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        y = np.sort(np.abs(rng.normal(size=n)))[::-1].copy()
        g, z = canonicalize(y)
        assert g == identity(n)
        assert np.array_equal(bits(z.coords), bits(y))


def _tie_block_element(y, rng):
    """A random g whose action maps the cone point y into the cone again.

    Permutes only within blocks of equal coordinates and flips signs only
    at exact zeros, so act(g, y) is still sorted and nonnegative.
    """
    n = y.shape[0]
    perm = np.arange(n)
    lo = 0
    while lo < n:
        hi = lo
        while hi < n and y[hi] == y[lo]:
            hi += 1
        perm[lo:hi] = lo + rng.permutation(hi - lo)
        lo = hi
    signs = np.where((y == 0.0) & (rng.random(n) < 0.5), -1.0, 1.0)
    return SignedPermutation(signs, perm)


def test_cone_stabilizer_property():
    # if a group element keeps a cone point inside the cone, it fixes it
    rng = np.random.default_rng(16)
    tried = 0
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        y = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0], size=n))[::-1].copy()
        g = _tie_block_element(y, rng)
        out = act(g, y)
        assert in_cone(out)
        assert np.array_equal(out, y)
        # arbitrary elements: the implication must hold whenever it fires
        h = random_element(n, rng)
        moved = act(h, y)
        if in_cone(moved):
            tried += 1
            assert np.array_equal(moved, y)
    assert tried > 50  # the vacuous branch alone proves nothing


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation([2.0, 1.0], [0, 1])
    with pytest.raises(ValueError):
        SignedPermutation([1.0, 1.0], [0, 0])
    with pytest.raises(ValueError):
        SignedPermutation([1.0], [0, 1])
    with pytest.raises(ValueError):
        SignedPermutation([], [])
    g = identity(3)
    with pytest.raises(ValueError):
        g.perm[0] = 2  # arrays are frozen
    with pytest.raises(ValueError):
        act(g, [1.0, 2.0])


def test_cone_point_validation():
    ConePoint([3.0, 1.0, 0.0])
    ConePoint([0.0])
    with pytest.raises(ValueError):
        ConePoint([1.0, 2.0])
    with pytest.raises(ValueError):
        ConePoint([1.0, -0.5])
    assert in_cone([2.0, 2.0, 1.0])
    assert not in_cone([1.0, 2.0])
    assert not in_cone([1.0, -1.0])


def test_derived_elements_are_valid_and_frozen():
    # canonicalize, inverse and compose build through the checked
    # constructors; their outputs pass the checks and stay read-only
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        x = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
        g, y = canonicalize(x)
        h = random_element(n, rng)
        for elem in (g, inverse(g), compose(g, h), compose(h, inverse(h))):
            assert elem == SignedPermutation(elem.signs, elem.perm)
            assert elem.signs.dtype == np.float64 and elem.perm.dtype == np.intp
            assert not elem.signs.flags.writeable and not elem.perm.flags.writeable
        assert y == ConePoint(y.coords)
        assert not y.coords.flags.writeable
