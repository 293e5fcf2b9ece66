"""Ferrers diagrams in a box, Durfee machinery, and the explicit antichain maps.

A diagram is stored as its weakly decreasing column-height vector; its
cells, the ideal-of-the-grid view, are derived from it, so containment
and Durfee tests are coordinate arithmetic.  The Durfee length k is the
side of the largest square fitting inside the diagram (Andrews, *The
Theory of Partitions*, 1976, ch. 2).  Cutting along the Durfee square
splits a diagram into two smaller diagrams, the heights past the k-th
and the first k heights less k, and stacking them back around a k x k
square inverts the cut exactly; both directions are arithmetic on
height vectors and build no poset.

Two explicit maps on grid-like antichains live here as well: splitting
an antichain of an a x b grid into its sorted x- and y-coordinate
tuples, and flattening an antichain of the pair order into one long
increasing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import BadParameters, NotAnAntichain
from .poset import Antichain, Poset, _componentwise_poset, grid_points
from .sequences import KSubset


@dataclass(frozen=True)
class FerrersDiagram:
    """Weakly decreasing column heights inside an a x b box.

    Heights are stored without trailing zeros, so the label "(3,2,1)"
    is the usual partition notation; the empty diagram prints as "()".
    """

    heights: tuple[int, ...]
    box: tuple[int, int]

    def __post_init__(self):
        a, b = self.box
        if a < 0 or b < 0:
            raise BadParameters(f"box sides must be nonnegative: {a}x{b}")
        hs = tuple(self.heights)
        if any(h < 0 for h in hs):
            raise BadParameters(f"heights must be nonnegative: {hs}")
        if any(x < y for x, y in zip(hs, hs[1:])):
            raise BadParameters(f"heights must be weakly decreasing: {hs}")
        while hs and hs[-1] == 0:
            hs = hs[:-1]
        object.__setattr__(self, "heights", hs)
        object.__setattr__(self, "box", (a, b))
        if len(hs) > b or (hs and hs[0] > a):
            raise BadParameters(f"diagram {hs} does not fit in a {a}x{b} box")

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
    k = 0
    while d.height(k + 1) >= k + 1:
        k += 1
    return k


def diagrams_in_box(a: int, b: int) -> list[FerrersDiagram]:
    """Every diagram fitting in the box, in height-vector lexicographic order."""
    if a < 0 or b < 0:  # checked here too: for a < -1 no diagram is built to reject the box
        raise BadParameters(f"box sides must be nonnegative: {a}x{b}")
    # each weakly increasing b-tuple over 0..a, reversed and stripped of zeros
    heights = sorted(
        tuple(h for h in reversed(c) if h) for c in combinations_with_replacement(range(a + 1), b)
    )
    return [FerrersDiagram(h, (a, b)) for h in heights]


def durfee_poset(a: int, b: int, k: int) -> Poset:
    """Diagrams of Durfee length exactly k in the box, ordered by containment."""
    if k < 0 or k > min(a, b):
        raise BadParameters(f"Durfee length {k} does not fit in a {a}x{b} box")
    diagrams = [d for d in diagrams_in_box(a, b) if durfee_length(d) == k]
    padded = [[d.height(j) for j in range(1, b + 1)] for d in diagrams]
    return _componentwise_poset([d.label for d in diagrams], padded)


def durfee_decompose(d: FerrersDiagram) -> tuple[int, FerrersDiagram, FerrersDiagram]:
    """Cut along the Durfee square.

    Returns (k, top, side) as diagrams.  ``top`` is the part above the
    square shifted down: the heights past the k-th, ``d.heights[k:]``,
    none above k, in a k x (b-k) box.  ``side`` is the part to its right
    shifted left: each of the first k heights less k, in an (a-k) x k
    box.  Both are slices of the height vector; no grid is built.
    """
    a, b = d.box
    k = durfee_length(d)
    top = FerrersDiagram(d.heights[k:], (k, b - k))
    side = FerrersDiagram(tuple(h - k for h in d.heights[:k]), (a - k, k))
    return k, top, side


def durfee_compose(
    a: int, b: int, k: int, top: FerrersDiagram, side: FerrersDiagram
) -> FerrersDiagram:
    """Inverse of :func:`durfee_decompose`: stack the parts around a k x k square."""
    if not 0 <= k <= min(a, b):
        raise BadParameters(f"Durfee length {k} cannot fit in a {a}x{b} box")
    if top.box != (k, b - k) or side.box != (a - k, k):
        raise BadParameters("part boxes do not match the stated box and Durfee length")
    heights = tuple(k + side.height(j) for j in range(1, k + 1)) + top.heights
    return FerrersDiagram(heights, (a, b))


def _sorted_antichain_points(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pts = sorted(points)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
        raise NotAnAntichain(f"x-coordinates must be strictly increasing: {pts}")
    if any(y1 <= y2 for y1, y2 in zip(ys, ys[1:])):
        raise NotAnAntichain(f"y-coordinates must be strictly decreasing: {pts}")
    return pts


def split_grid_antichain(a: int, b: int, A: Antichain) -> tuple[KSubset, KSubset]:
    """Coordinates of a grid antichain as a pair of increasing tuples.

    The points sort uniquely with x strictly increasing and y strictly
    decreasing; the result is (x_1..x_k, y_k..y_1), and the induced map
    on size-k antichains is an isomorphism onto the product of the two
    Gale orders.
    """
    if A.poset.n != a * b:
        raise BadParameters(f"host poset has {A.poset.n} elements, expected {a * b}")
    pts = _sorted_antichain_points(grid_points(A))
    xs = tuple(p[0] for p in pts)
    ys = tuple(p[1] for p in reversed(pts))
    return KSubset(xs, a), KSubset(ys, b)


def spin_antichain_merge(n: int, A: Antichain) -> KSubset:
    """Flatten an antichain of the pair order on {1..n+2} into a 2k-subset.

    Members are pairs (x, y) with x < y; sorting gives
    x_1 < ... < x_k < y_k < ... < y_1, and the concatenation
    (x_1..x_k, y_k..y_1) induces an isomorphism of the size-k antichains
    onto the Gale order on 2k-subsets.
    """
    pts = _sorted_antichain_points(grid_points(A))
    if any(x >= y for x, y in pts):
        raise NotAnAntichain(f"members must be increasing pairs: {pts}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in reversed(pts)]
    if pts and xs[-1] >= ys[0]:
        raise NotAnAntichain(f"coordinates do not interleave: {pts}")
    return KSubset(tuple(xs + ys), n + 2)
