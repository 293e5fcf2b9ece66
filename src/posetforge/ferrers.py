"""Ferrers diagrams in a box, Durfee machinery, and the explicit antichain maps.

A diagram is its tuple of weakly decreasing column heights with trailing
zeros dropped, so ``tuple_label`` prints it in the usual partition
notation, "(3,2,1)", and the empty diagram as "()".  Containment is
heightwise comparison, and the Durfee length k is the side of the
largest square fitting inside the diagram (Andrews, *The Theory of
Partitions*, 1976, ch. 2).  Cutting along the Durfee square splits a
diagram into two smaller diagrams, the heights past the k-th and the
first k heights less k, and stacking them back around a k x k square
inverts the cut exactly.  Both directions are arithmetic on height
tuples (``durfee_cut``, ``durfee_stack``) and build no poset.  Only the
box sides are validated: every diagram here comes from ``itertools``
and is weakly decreasing and in its box by construction.

Three explicit maps to Gale orders work on plain tuples, which the
checks read from index masks: ``frobenius`` gives a diagram's Frobenius
coordinates, ``split_points`` splits the sorted points of an antichain
of an a x b grid into its x- and y-coordinate tuples, and
``merge_pairs`` flattens an antichain of the pair order into one long
increasing tuple.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import BadParameters
from .poset import Poset, _componentwise_poset, tuple_label


def durfee_length(heights: tuple[int, ...]) -> int:
    """Side of the largest square inside the diagram with these weakly decreasing heights."""
    # h_j - j falls strictly with j, so the j with h_j >= j are exactly the first k
    return sum(h >= j for j, h in enumerate(heights, 1))


def diagrams_in_box(a: int, b: int) -> list[tuple[int, ...]]:
    """Every diagram fitting in the box, in height-vector lexicographic order."""
    if a < 0 or b < 0:  # a negative side would enumerate no diagram rather than fail
        raise BadParameters(f"box sides must be nonnegative: {a}x{b}")
    # each weakly increasing b-tuple over 0..a, reversed and stripped of zeros
    return sorted(
        tuple(h for h in reversed(c) if h) for c in combinations_with_replacement(range(a + 1), b)
    )


@lru_cache(maxsize=16)
def _diagrams_by_durfee_length(a: int, b: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The box's diagrams grouped by Durfee length, each group in box order.

    Kept per box, so the orders at every k of one box share one
    enumeration; the checks build them for each k in turn.
    """
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(min(a, b) + 1)]
    for d in diagrams_in_box(a, b):
        groups[durfee_length(d)].append(d)
    return tuple(map(tuple, groups))


def durfee_poset(a: int, b: int, k: int) -> Poset:
    """Diagrams of Durfee length exactly k in the box, ordered by containment."""
    if k < 0 or k > min(a, b):
        raise BadParameters(f"Durfee length {k} does not fit in a {a}x{b} box")
    diagrams = _diagrams_by_durfee_length(a, b)[k]
    padded = [d + (0,) * (b - len(d)) for d in diagrams]
    return _componentwise_poset([tuple_label(d) for d in diagrams], padded)


def durfee_cut(heights: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Cut weakly decreasing heights along their Durfee square: (k, top, side).

    ``top`` is the part above the square shifted down: the heights past
    the k-th, none above k.  ``side`` is the part to its right shifted
    left: each of the first k heights less k, trailing zeros kept.  Both
    are slices of the height tuple; no grid is built.
    """
    k = durfee_length(heights)
    return k, heights[k:], tuple(h - k for h in heights[:k])


def durfee_stack(k: int, top: tuple[int, ...], side: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`durfee_cut`: ``side``, padded with zeros to k heights, raised by k, then ``top``."""
    return tuple(k + h for h in side) + (k,) * (k - len(side)) + top


def frobenius(heights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (h_j - j + 1) and (r_j - j + 1), j = k..1, of the weakly
    decreasing column heights h, with row lengths r and Durfee length k."""
    k, r, ys = durfee_length(heights), len(heights), []
    for j in range(1, k + 1):
        while heights[r - 1] < j:  # r_j, the number of heights >= j, falls as j grows
            r -= 1
        ys.append(r - j + 1)
    return tuple(heights[j - 1] - j + 1 for j in range(k, 0, -1)), tuple(reversed(ys))


def split_points(points: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x_1..x_k, y_k..y_1) of points sorted as x_1 < ... < x_k with y_1 > ... > y_k."""
    return tuple(x for x, _ in points), tuple(y for _, y in reversed(points))


def merge_pairs(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """The pairs sorted, then their split concatenated: x_1..x_k followed by y_k..y_1."""
    xs, ys = split_points(sorted(pairs))
    return xs + ys
