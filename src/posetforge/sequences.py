"""Componentwise orders on integer sequences.

Two families: the Gale order on k-subsets of {1..n} written as strictly
increasing tuples, and bounded weak chains, i.e. weakly increasing
b-tuples with entries in [0, a].  A shift map identifies the weak chains
with the (a+b choose b) subsets, and column heights identify the ideals
of an a x b grid with the weak chains; composing the two turns the ideal
lattice of a grid into a Gale order.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .errors import BadParameters
from .poset import Ideal, Poset, _componentwise_poset, _Frozen, grid_points, point_label


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


def gale_poset(n: int, k: int) -> Poset:
    """The Gale order: componentwise comparison of increasing k-tuples."""
    elems = gale_elements(n, k)
    return _componentwise_poset([e.label for e in elems], [e.entries for e in elems])


def weak_chain_elements(a: int, b: int) -> list[WeakChain]:
    if a < 0 or b < 0:
        raise BadParameters(f"need a, b >= 0, got a={a}, b={b}")
    return [WeakChain(t, a) for t in combinations_with_replacement(range(a + 1), b)]


def weak_chain_poset(a: int, b: int) -> Poset:
    """Componentwise order on weakly increasing b-tuples bounded by a."""
    elems = weak_chain_elements(a, b)
    return _componentwise_poset([e.label for e in elems], [e.entries for e in elems])


def weak_chain_to_ksubset(x: WeakChain) -> KSubset:
    """Shift position p by p+1; lands in the (bound+length choose length) subsets."""
    shifted = tuple(v + p + 1 for p, v in enumerate(x.entries))
    return KSubset(shifted, x.bound + x.length)


def ksubset_to_weak_chain(x: KSubset) -> WeakChain:
    """Inverse shift; the ambient n splits as bound + length."""
    b = x.k
    return WeakChain(tuple(v - p - 1 for p, v in enumerate(x.entries)), x.n - b)


def ideal_heights(a: int, b: int, ideal: Ideal) -> WeakChain:
    """Column heights of a grid ideal, lowest column first.

    The host poset must be the a x b grid with point labels.  Entry p of
    the result is the height of column b-p, so the tuple is weakly
    increasing and the induced map onto weak chains is an isomorphism.
    """
    if ideal.poset.n != a * b:
        raise BadParameters(f"host poset has {ideal.poset.n} elements, expected {a * b}")
    heights = [0] * (b + 1)
    for i, j in grid_points(ideal):
        if not (1 <= i <= a and 1 <= j <= b):
            raise BadParameters(f"point ({i},{j}) outside the {a}x{b} grid")
        heights[j] = max(heights[j], i)
    return WeakChain(tuple(heights[j] for j in range(b, 0, -1)), a)


def heights_from_chain(a: int, b: int, chain: WeakChain) -> list[int]:
    """Per-column heights (column 1 first) encoded by a weak chain."""
    if chain.length != b or chain.bound != a:
        raise BadParameters("weak chain does not fit the grid dimensions")
    return [chain.entries[b - j] for j in range(1, b + 1)]


def ideal_from_heights(grid: Poset, a: int, b: int, chain: WeakChain) -> Ideal:
    """Rebuild the grid ideal with the given column heights."""
    heights = heights_from_chain(a, b, chain)
    members = [
        point_label(i, j)
        for j in range(1, b + 1)
        for i in range(1, heights[j - 1] + 1)
    ]
    return grid.ideal(members)


def box_ideal_to_ksubset(a: int, b: int, ideal: Ideal) -> KSubset:
    """Column heights followed by the shift: grid ideals into the Gale order."""
    return weak_chain_to_ksubset(ideal_heights(a, b, ideal))
