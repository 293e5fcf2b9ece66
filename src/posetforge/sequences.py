"""Componentwise orders on integer sequences.

Two families: the Gale order on k-subsets of {1..n} written as strictly
increasing tuples, and bounded weak chains, i.e. weakly increasing
b-tuples with entries in [0, a].  A shift map identifies the weak chains
with the (a+b choose b) subsets, and column heights identify the ideals
of an a x b grid with the weak chains; composing the two turns the ideal
lattice of a grid into a Gale order.

Each map has an index-level core on plain tuples and masks
(``grid_ideal_heights``, ``grid_ideal_mask``, ``shifted``, and
``gale_rank`` for the index of a Gale element), which the checks use
directly; the functions on ``Ideal``, ``WeakChain`` and ``KSubset``
validate their arguments and wrap the core's result.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import BadParameters
from .poset import Ideal, Poset, _bits, _componentwise_poset, _Frozen, grid_mask_points


class KSubset(_Frozen):
    """A k-subset of {1..n} as a strictly increasing tuple."""

    __slots__ = ("entries", "n")

    def __init__(self, entries: tuple[int, ...], n: int):
        # checked as locals and set slot by slot: the ladder rebuilds its
        # Gale targets on every witness op, so this runs hot
        entries = tuple(entries)
        if any(x >= y for x, y in zip(entries, entries[1:])):
            raise BadParameters(f"entries must be strictly increasing: {entries}")
        if entries and not (1 <= entries[0] and entries[-1] <= n):
            raise BadParameters(f"entries must lie in 1..{n}: {entries}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", n)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def label(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"

    def leq(self, other: "KSubset") -> bool:
        return all(x <= y for x, y in zip(self.entries, other.entries))


class WeakChain(_Frozen):
    """A weakly increasing tuple of length b with entries in [0, bound]."""

    __slots__ = ("entries", "bound")

    def __init__(self, entries: tuple[int, ...], bound: int):
        entries = tuple(entries)
        if any(x > y for x, y in zip(entries, entries[1:])):
            raise BadParameters(f"entries must be weakly increasing: {entries}")
        if entries and not (0 <= entries[0] and entries[-1] <= bound):
            raise BadParameters(f"entries must lie in 0..{bound}: {entries}")
        self._fill(entries, bound)

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def label(self) -> str:
        return "(" + ",".join(map(str, self.entries)) + ")"

    def leq(self, other: "WeakChain") -> bool:
        return all(x <= y for x, y in zip(self.entries, other.entries))


def entry_sum(x: KSubset) -> int:
    """Sum of the entries; the rank function of the Gale order."""
    return sum(x.entries)


def gale_elements(n: int, k: int) -> list[KSubset]:
    """All k-subsets of {1..n} in colexicographic order, (1..k) first."""
    if k < 0 or n < 0 or k > n:
        raise BadParameters(f"need 0 <= k <= n, got k={k}, n={n}")
    combos = sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])
    return [KSubset(t, n) for t in combos]


def gale_rank(entries: Sequence[int]) -> int:
    """The index of the increasing tuple ``entries`` in ``gale_elements(n, len(entries))``, any n.

    Its colexicographic rank: the sum of C(x_p - 1, p) over the entries
    x_1 < ... < x_k, the combinatorial number system (Knuth, TAOCP
    7.2.1.3), which counts the k-subsets whose largest differing entry is
    smaller.
    """
    return sum(comb(v - 1, p) for p, v in enumerate(entries, 1))


def gale_poset(n: int, k: int) -> Poset:
    """The Gale order: componentwise comparison of increasing k-tuples."""
    elems = gale_elements(n, k)
    return _componentwise_poset([e.label for e in elems], [e.entries for e in elems])


def weak_chain_entries(a: int, b: int) -> list[tuple[int, ...]]:
    """The entries of every weak chain, in the element order of ``weak_chain_poset(a, b)``."""
    if a < 0 or b < 0:
        raise BadParameters(f"need a, b >= 0, got a={a}, b={b}")
    return list(combinations_with_replacement(range(a + 1), b))


def weak_chain_elements(a: int, b: int) -> list[WeakChain]:
    return [WeakChain(t, a) for t in weak_chain_entries(a, b)]


def weak_chain_poset(a: int, b: int) -> Poset:
    """Componentwise order on weakly increasing b-tuples bounded by a."""
    elems = weak_chain_elements(a, b)
    return _componentwise_poset([e.label for e in elems], [e.entries for e in elems])


def shifted(entries: Sequence[int]) -> tuple[int, ...]:
    """The shift map on entries: position p (from 0) goes up by p+1."""
    return tuple(v + p for p, v in enumerate(entries, 1))


def weak_chain_to_ksubset(x: WeakChain) -> KSubset:
    """Shift position p by p+1; lands in the (bound+length choose length) subsets."""
    return KSubset(shifted(x.entries), x.bound + x.length)


def ksubset_to_weak_chain(x: KSubset) -> WeakChain:
    """Inverse shift; the ambient n splits as bound + length."""
    b = x.k
    return WeakChain(tuple(v - p - 1 for p, v in enumerate(x.entries)), x.n - b)


def grid_ideal_heights(b: int, mask: int) -> tuple[int, ...]:
    """Column heights of the ideal of ``grid_poset(a, b)`` with index mask ``mask``, lowest column first.

    The points come in index order (``grid_mask_points``), so a column's
    last point is its top.  Entry p is the height of column b-p.
    """
    heights = [0] * b
    for i, j in grid_mask_points(b, mask):
        heights[j - 1] = i
    return tuple(reversed(heights))


def grid_ideal_mask(b: int, entries: Sequence[int]) -> int:
    """Inverse of :func:`grid_ideal_heights`: the index mask of the ideal with these column heights."""
    mask = 0
    for p, h in enumerate(entries):
        for i in range(h):
            mask |= 1 << (i * b + b - 1 - p)
    return mask


def ideal_heights(a: int, b: int, ideal: Ideal) -> WeakChain:
    """Column heights of a grid ideal, lowest column first.

    The host poset must be ``grid_poset(a, b)``.  Entry p of the result
    is the height of column b-p, so the tuple is weakly increasing and
    the induced map onto weak chains is an isomorphism.
    """
    if ideal.poset.n != a * b:
        raise BadParameters(f"host poset has {ideal.poset.n} elements, expected {a * b}")
    return WeakChain(grid_ideal_heights(b, ideal.mask), a)


def ideal_from_heights(grid: Poset, a: int, b: int, chain: WeakChain) -> Ideal:
    """Rebuild the ideal of ``grid = grid_poset(a, b)`` with the given column heights."""
    if grid.n != a * b or chain.length != b or chain.bound != a:
        raise BadParameters("weak chain does not fit the grid dimensions")
    return grid.ideal(_bits(grid_ideal_mask(b, chain.entries)))


def box_ideal_to_ksubset(a: int, b: int, ideal: Ideal) -> KSubset:
    """Column heights followed by the shift: grid ideals into the Gale order."""
    return weak_chain_to_ksubset(ideal_heights(a, b, ideal))
