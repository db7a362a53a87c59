"""Signed permutations of coordinates and the sorted-nonnegative cone.

The group of signed permutations acts on a vector by permuting coordinates
and flipping signs. Every orbit meets the cone of vectors sorted in
non-increasing order with nonnegative entries, and :func:`canonicalize`
picks a deterministic representative of the group element that gets there.

All vector-returning operations normalize zero signs (``-0.0`` becomes
``+0.0``) so that algebraically equal results are also equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import _sign_words, _signs
from .core import _check_int, _check_int_array, _check_reals, as_vector

__all__ = [
    "SignedPermutation",
    "ConePoint",
    "identity",
    "random_element",
    "act",
    "compose",
    "inverse",
    "canonicalize",
    "in_cone",
]


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """Group element: a sign vector in {-1,+1}^n and a permutation image list.

    ``perm[k]`` is the index that coordinate ``k`` is sent to; its entries
    must be integers, never bools or floats. Arrays are copied and marked
    read-only on construction.
    """

    signs: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        signs = np.array(_check_reals(self.signs, "signs")[0][0])
        perm = _check_int_array(self.perm, "permutation entry")
        if perm.ndim != 1 or signs.shape != perm.shape:
            raise ValueError("signs and perm must be 1-D of equal length")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("perm is not a permutation of 0..n-1")
        signs.setflags(write=False)
        perm.setflags(write=False)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "perm", perm)

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return np.array_equal(self.signs, other.signs) and np.array_equal(
            self.perm, other.perm
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ConePoint:
    """A vector sorted non-increasingly with nonnegative coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(as_vector(self.coords))
        if not _in_cone(coords, 0.0):
            raise ValueError("cone point must be sorted non-increasingly and nonnegative")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConePoint):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    __hash__ = None


def _in_cone(xv: np.ndarray, slack: float) -> bool:
    """Whether the checked vector xv is sorted non-increasingly with nonnegative
    entries, up to ``slack``: no entry above its left neighbour or below 0 by more."""
    return not np.any(np.diff(xv) > slack) and bool(xv[-1] >= -slack)


def in_cone(x) -> bool:
    """True iff x is sorted non-increasingly with nonnegative entries."""
    return _in_cone(as_vector(x), 0.0)


def identity(n: int) -> SignedPermutation:
    n = _check_int(n, "degree n", 1)
    return SignedPermutation(np.ones(n), np.arange(n))


def random_element(n: int, rng: np.random.Generator) -> SignedPermutation:
    """Uniformly random signed permutation; used by tests and demos."""
    n = _check_int(n, "degree n", 1)
    return SignedPermutation(_signs(_sign_words(rng, n), 0, n), rng.permutation(n))


def act(g: SignedPermutation, x) -> np.ndarray:
    """Apply g to x: coordinate k lands at position perm[k] and picks up signs there.

    Equivalently, output coordinate i equals ``signs[i] * x[perm^-1(i)]``.
    Preserves every coordinate-symmetric norm and distance.
    """
    xv = as_vector(x)
    if xv.shape[0] != g.n:
        raise ValueError(f"dimension mismatch: group degree {g.n}, vector {xv.shape[0]}")
    out = np.empty_like(xv)
    out[g.perm] = xv
    out *= g.signs
    return out + 0.0  # canonical zero signs


def compose(g: SignedPermutation, h: SignedPermutation) -> SignedPermutation:
    """Group product: act(compose(g, h), x) == act(g, act(h, x)) exactly."""
    if g.n != h.n:
        raise ValueError(f"degree mismatch: {g.n} vs {h.n}")
    perm = g.perm[h.perm]
    carried = np.empty_like(h.signs)
    carried[g.perm] = h.signs  # h's sign for the coordinate g routes to position i
    return SignedPermutation(g.signs * carried, perm)


def inverse(g: SignedPermutation) -> SignedPermutation:
    inv_perm = np.empty_like(g.perm)
    inv_perm[g.perm] = np.arange(g.n)
    return SignedPermutation(g.signs[g.perm], inv_perm)


def canonicalize(x) -> tuple[SignedPermutation, ConePoint]:
    """Find g with act(g, x) in the cone; return g and that cone point.

    Ties between equal absolute values keep their original index order
    (stable sort), and a zero coordinate counts as positive, so the choice
    of g is deterministic. The returned cone point equals act(g, x) bit for
    bit.
    """
    xv = as_vector(x)
    n = xv.shape[0]
    order = np.argsort(-np.abs(xv), kind="stable")
    perm = np.empty(n, dtype=np.intp)
    perm[order] = np.arange(n)
    signs = np.where(xv >= 0.0, 1.0, -1.0)
    g = SignedPermutation(signs[order], perm)
    return g, ConePoint(np.abs(xv)[order])
