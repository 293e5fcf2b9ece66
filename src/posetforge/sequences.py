"""Componentwise orders on integer sequences.

Two families: the Gale order on k-subsets of {1..n} written as strictly
increasing tuples, and bounded weak chains, i.e. weakly increasing
b-tuples with entries in [0, a].  A shift map identifies the weak chains
with the (a+b choose b) subsets, and column heights identify the ideals
of an a x b grid with the weak chains; composing the two turns the ideal
lattice of a grid into a Gale order.

Elements are plain tuples: ``gale_entries`` and ``weak_chain_entries``
list them straight from ``itertools`` in element order, and
``poset.tuple_label`` names them "(1,3)".  Only the parameters (n, k) and
(a, b) are validated; the tuples are increasing (weakly increasing) and
in range by construction.  Each map works on tuples and index masks:
``grid_ideal_heights`` and ``grid_ideal_mask`` between grid ideals and
weak chains, ``shifted`` from weak chains to subsets, and ``gale_rank``
for the index of an increasing tuple in its Gale order.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import BadParameters
from .poset import Poset, _componentwise_poset, grid_mask_points, tuple_label


def gale_entries(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of {1..n} as increasing tuples in colexicographic order, (1..k) first:
    the element order of ``gale_poset(n, k)``."""
    if k < 0 or n < 0 or k > n:
        raise BadParameters(f"need 0 <= k <= n, got k={k}, n={n}")
    return sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])


def gale_rank(entries: Sequence[int]) -> int:
    """The index of the increasing tuple ``entries`` in ``gale_entries(n, len(entries))``, any n.

    Its colexicographic rank: the sum of C(x_p - 1, p) over the entries
    x_1 < ... < x_k, the combinatorial number system (Knuth, TAOCP
    7.2.1.3), which counts the k-subsets whose largest differing entry is
    smaller.
    """
    return sum(comb(v - 1, p) for p, v in enumerate(entries, 1))


def gale_poset(n: int, k: int) -> Poset:
    """The Gale order: componentwise comparison of increasing k-tuples."""
    entries = gale_entries(n, k)
    return _componentwise_poset([tuple_label(t) for t in entries], entries)


def weak_chain_entries(a: int, b: int) -> list[tuple[int, ...]]:
    """The weakly increasing b-tuples over 0..a in lexicographic order: the element order of
    ``weak_chain_poset(a, b)``."""
    if a < 0 or b < 0:
        raise BadParameters(f"need a, b >= 0, got a={a}, b={b}")
    return list(combinations_with_replacement(range(a + 1), b))


def weak_chain_poset(a: int, b: int) -> Poset:
    """Componentwise order on weakly increasing b-tuples bounded by a."""
    entries = weak_chain_entries(a, b)
    return _componentwise_poset([tuple_label(t) for t in entries], entries)


def shifted(entries: Sequence[int]) -> tuple[int, ...]:
    """The shift map on entries: position p (from 0) goes up by p+1.

    It sends the weak chains of ``weak_chain_poset(a, b)`` onto the
    increasing tuples of ``gale_poset(a + b, b)``.
    """
    return tuple(v + p for p, v in enumerate(entries, 1))


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
