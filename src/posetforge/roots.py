"""The type-A positive-root poset and the antichain complement involution.

Roots are intervals [i, j] with 1 <= i < j <= n, held as the pairs
(i, j) of one table, ``_root_pairs(n)``, in element order and labelled
"[i,j]" by ``root_label``; [i, j] is covered by [i, j+1] and [i-1, j],
so the order is containment of intervals.  The table's pairs are valid
by construction; only ``parse_root_label``, which reads a root from
outside, checks 1 <= i < j.  The complement involution sends a size-k
antichain to the size-(n-1-k) antichain built from the complements of
its shifted endpoint sets; it is validated on every call rather than
trusted, since its well-definedness is itself one of the facts under
test.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import BadParameters, NotAnAntichain
from .poset import Antichain, Poset, _bits, _componentwise_poset

_ROOT_RE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]")


def root_label(i: int, j: int) -> str:
    return f"[{i},{j}]"


@lru_cache(maxsize=None)
def _root_pairs(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The (i, j) of each index of ``type_a_root_poset(n)``, and the index of each (i, j)."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return pairs, {p: t for t, p in enumerate(pairs)}


@lru_cache(maxsize=None)
def type_a_root_poset(n: int) -> Poset:
    """All intervals [i, j] inside [1, n], ordered by containment."""
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    pairs, _ = _root_pairs(n)
    # [i, j] lies inside [i', j'] exactly when (-i, j) <= (-i', j')
    return _componentwise_poset([root_label(i, j) for i, j in pairs], [(-i, j) for i, j in pairs])


def parse_root_label(label: str) -> tuple[int, int]:
    """The (i, j) of a root label "[i,j]", checked to satisfy 1 <= i < j."""
    m = _ROOT_RE.fullmatch(label.strip())
    if not m:
        raise BadParameters(f"not a root label: {label!r}")
    i, j = int(m.group(1)), int(m.group(2))
    if not 1 <= i < j:
        raise BadParameters(f"need 1 <= i < j, got [{i},{j}]")
    return i, j


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
