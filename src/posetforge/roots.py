"""The type-A positive-root poset and the antichain complement involution.

Roots are intervals [i, j] with 1 <= i < j <= n; [i, j] is covered by
[i, j+1] and [i-1, j], so the order is containment of intervals.  The
complement involution sends a size-k antichain to the size-(n-1-k)
antichain built from the complements of its shifted endpoint sets; it is
validated on every call rather than trusted, since its well-definedness
is itself one of the facts under test.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering

from .errors import BadParameters, NotAnAntichain
from .poset import Antichain, Poset, _bits, _componentwise_poset, _Frozen

_ROOT_RE = re.compile(r"\[(\d+),(\d+)\]")


@total_ordering
class Root(_Frozen):
    """The interval root [i, j], 1 <= i < j, ordered as the pair (i, j)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if not 1 <= i < j:
            raise BadParameters(f"need 1 <= i < j, got [{i},{j}]")
        self._fill(i, j)

    def __lt__(self, other):
        if type(other) is not Root:
            return NotImplemented
        return (self.i, self.j) < (other.i, other.j)

    @property
    def label(self) -> str:
        return f"[{self.i},{self.j}]"


def positive_roots(n: int) -> list[Root]:
    return [Root(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


@lru_cache(maxsize=None)
def _root_pairs(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The (i, j) of each index of ``type_a_root_poset(n)``, and the index of each (i, j)."""
    pairs = [(r.i, r.j) for r in positive_roots(n)]
    return pairs, {p: t for t, p in enumerate(pairs)}


@lru_cache(maxsize=None)
def type_a_root_poset(n: int) -> Poset:
    """All intervals [i, j] inside [1, n], ordered by containment."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    roots = positive_roots(n)
    # [i, j] lies inside [i', j'] exactly when (-i, j) <= (-i', j')
    return _componentwise_poset([r.label for r in roots], [(-r.i, r.j) for r in roots])


def parse_root_label(label: str) -> Root:
    m = _ROOT_RE.fullmatch(label.strip())
    if not m:
        raise BadParameters(f"not a root label: {label!r}")
    return Root(int(m.group(1)), int(m.group(2)))


def _rank_of(P: Poset) -> int:
    """Recover n from the host; the root count is n(n-1)/2."""
    count = P.n
    n = round((1 + (1 + 8 * count) ** 0.5) / 2)
    if n >= 2 and n * (n - 1) // 2 == count:
        host = type_a_root_poset(n)
        if P is host or P == host:
            return n
    raise BadParameters("host is not a type-A root poset")


def panyushev_complement(A: Antichain) -> Antichain:
    """The complement involution on antichains of a type-A root poset.

    For members [i_t, j_t], the image pairs the sorted complements
    {1..n-1} \\ {j_t - 1} and {2..n} \\ {i_t + 1} positionally.  The
    result is checked to be a genuine antichain of the expected size and
    the call fails loudly otherwise.  Members are read from the mask, and
    the image is built from indices, through the host's (i, j) table.
    """
    P = A.poset
    n = _rank_of(P)
    pairs, index = _root_pairs(n)
    members = [pairs[t] for t in _bits(A.mask)]
    k = len(members)
    shifted_j, shifted_i = {j - 1 for _, j in members}, {i + 1 for i, _ in members}
    new_i = [i for i in range(1, n) if i not in shifted_j]
    new_j = [j for j in range(2, n + 1) if j not in shifted_i]
    if len(new_i) != n - 1 - k or len(new_j) != n - 1 - k:
        raise NotAnAntichain("complement sets have the wrong size")
    image = []
    for i, j in zip(new_i, new_j):
        if not i < j:
            raise NotAnAntichain(f"complement pairing produced [{i},{j}]")
        image.append(index[i, j])
    return P.antichain(image)


def narayana_table(n: int) -> list[int]:
    """Antichain counts by size, (|A_0|, ..., |A_{n-1}|), for rank n-1."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    P = type_a_root_poset(n)
    return [len(P._antichain_masks(k)) for k in range(n)]
