"""Ferrers diagrams in a box, Durfee machinery, and the explicit antichain maps.

A diagram is stored as its weakly decreasing column-height vector; its
cells, the ideal-of-the-grid view, are derived from it, so containment
and Durfee tests are coordinate arithmetic.  The Durfee length k is the
side of the largest square fitting inside the diagram (Andrews, *The
Theory of Partitions*, 1976, ch. 2).  Cutting along the Durfee square
splits a diagram into two smaller diagrams, the heights past the k-th
and the first k heights less k, and stacking them back around a k x k
square inverts the cut exactly.  Both directions are arithmetic on
height tuples (``durfee_cut``, ``durfee_stack``) and build no poset;
``durfee_decompose`` and ``durfee_compose`` validate them into diagrams.

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
from .poset import Poset, _componentwise_poset, _Frozen


class FerrersDiagram(_Frozen):
    """Weakly decreasing column heights inside an a x b box.

    Heights are stored without trailing zeros, so the label "(3,2,1)"
    is the usual partition notation; the empty diagram prints as "()".
    """

    __slots__ = ("heights", "box")

    def __init__(self, heights: tuple[int, ...], box: tuple[int, int]):
        hs = tuple(heights)
        if any(h < 0 for h in hs):
            raise BadParameters(f"heights must be nonnegative: {hs}")
        a, b = box  # checked after the heights, which a caller may have derived the box from
        if a < 0 or b < 0:
            raise BadParameters(f"box sides must be nonnegative: {a}x{b}")
        if any(x < y for x, y in zip(hs, hs[1:])):
            raise BadParameters(f"heights must be weakly decreasing: {hs}")
        while hs and hs[-1] == 0:
            hs = hs[:-1]
        if len(hs) > b or (hs and hs[0] > a):
            raise BadParameters(f"diagram {hs} does not fit in a {a}x{b} box")
        self._fill(hs, (a, b))

    @property
    def label(self) -> str:
        return "(" + ",".join(map(str, self.heights)) + ")"

    def height(self, j: int) -> int:
        return self.heights[j - 1] if j <= len(self.heights) else 0

    def cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for j, h in enumerate(self.heights, start=1)
            for i in range(1, h + 1)
        ]

    def contains(self, other: "FerrersDiagram") -> bool:
        b = max(len(self.heights), len(other.heights))
        return all(other.height(j) <= self.height(j) for j in range(1, b + 1))


def durfee_length(d: FerrersDiagram) -> int:
    """Side of the largest square sub-grid contained in the diagram."""
    return _durfee_side(d.heights)


def _durfee_side(heights: tuple[int, ...]) -> int:
    # h_j - j falls strictly with j, so the j with h_j >= j are exactly the first k
    return sum(h >= j for j, h in enumerate(heights, 1))


def diagrams_in_box(a: int, b: int) -> list[FerrersDiagram]:
    """Every diagram fitting in the box, in height-vector lexicographic order."""
    if a < 0 or b < 0:  # checked here too: for a < -1 no diagram is built to reject the box
        raise BadParameters(f"box sides must be nonnegative: {a}x{b}")
    # each weakly increasing b-tuple over 0..a, reversed and stripped of zeros
    heights = sorted(
        tuple(h for h in reversed(c) if h) for c in combinations_with_replacement(range(a + 1), b)
    )
    return [FerrersDiagram(h, (a, b)) for h in heights]


@lru_cache(maxsize=16)
def _diagrams_by_durfee_length(a: int, b: int) -> tuple[tuple[FerrersDiagram, ...], ...]:
    """The box's diagrams grouped by Durfee length, each group in box order.

    Kept per box, so the orders at every k of one box share one
    enumeration; the checks build them for each k in turn.
    """
    groups: list[list[FerrersDiagram]] = [[] for _ in range(min(a, b) + 1)]
    for d in diagrams_in_box(a, b):
        groups[durfee_length(d)].append(d)
    return tuple(map(tuple, groups))


def durfee_poset(a: int, b: int, k: int) -> Poset:
    """Diagrams of Durfee length exactly k in the box, ordered by containment."""
    if k < 0 or k > min(a, b):
        raise BadParameters(f"Durfee length {k} does not fit in a {a}x{b} box")
    diagrams = _diagrams_by_durfee_length(a, b)[k]
    padded = [[d.height(j) for j in range(1, b + 1)] for d in diagrams]
    return _componentwise_poset([d.label for d in diagrams], padded)


def durfee_cut(heights: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Cut weakly decreasing heights along their Durfee square: (k, top, side).

    ``top`` is the part above the square shifted down: the heights past
    the k-th, none above k.  ``side`` is the part to its right shifted
    left: each of the first k heights less k, trailing zeros kept.  Both
    are slices of the height tuple; no grid is built.
    """
    k = _durfee_side(heights)
    return k, heights[k:], tuple(h - k for h in heights[:k])


def durfee_stack(k: int, top: tuple[int, ...], side: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`durfee_cut`: ``side``, padded with zeros to k heights, raised by k, then ``top``."""
    return tuple(k + h for h in side) + (k,) * (k - len(side)) + top


def durfee_decompose(d: FerrersDiagram) -> tuple[int, FerrersDiagram, FerrersDiagram]:
    """:func:`durfee_cut` as diagrams: ``top`` in a k x (b-k) box, ``side`` in an (a-k) x k box."""
    a, b = d.box
    k, top, side = durfee_cut(d.heights)
    return k, FerrersDiagram(top, (k, b - k)), FerrersDiagram(side, (a - k, k))


def durfee_compose(
    a: int, b: int, k: int, top: FerrersDiagram, side: FerrersDiagram
) -> FerrersDiagram:
    """Inverse of :func:`durfee_decompose`: stack the parts around a k x k square."""
    if not 0 <= k <= min(a, b):
        raise BadParameters(f"Durfee length {k} cannot fit in a {a}x{b} box")
    if top.box != (k, b - k) or side.box != (a - k, k):
        raise BadParameters("part boxes do not match the stated box and Durfee length")
    return FerrersDiagram(durfee_stack(k, top.heights, side.heights), (a, b))


def frobenius(heights: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (h_j - j + 1) and (r_j - j + 1), j = k..1, of the weakly
    decreasing column heights h, with row lengths r and Durfee length k."""
    k = _durfee_side(heights)
    xs = tuple(heights[j - 1] - j + 1 for j in range(k, 0, -1))
    ys = tuple(sum(h >= j for h in heights) - j + 1 for j in range(k, 0, -1))
    return xs, ys


def split_points(points: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x_1..x_k, y_k..y_1) of points sorted as x_1 < ... < x_k with y_1 > ... > y_k."""
    return tuple(x for x, _ in points), tuple(y for _, y in reversed(points))


def merge_pairs(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """The pairs sorted, then their split concatenated: x_1..x_k followed by y_k..y_1."""
    xs, ys = split_points(sorted(pairs))
    return xs + ys
