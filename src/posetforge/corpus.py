"""Exhaustive corpus of small posets, one representative per isomorphism class.

Every n-element poset arises from an (n-1)-element poset by inserting a
new maximal element above one of its ideals, so the corpus is grown level
by level.  Each extension comes from ``Poset._add_maximal``, which hands
its parent's covers, down-sets, heights and depths down to it, so no
extension derives its views from scratch.  Each extension is coloured once
by the poset module's initial colouring (height, depth, cover degrees,
down- and up-set sizes), bucketed by the hash of that colouring's key,
and kept unless a backtracking search finds it isomorphic to a poset
already in its bucket.  No refinement rounds run: the initial colours are
isomorphism-invariant, so every isomorphism respects them and the search,
which misses none that does, decides alone.  On posets this small a failed
search is cheaper than the rounds that would have avoided it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .poset import Poset, _initial_colours, _match


def _extend(P: Poset, ideal_mask: int) -> Poset:
    """Add one new maximal element whose strict down-set is the given ideal."""
    return P._add_maximal(ideal_mask, f"x{P.n}")


@lru_cache(maxsize=None)
def _posets_of_size(n: int) -> tuple[Poset, ...]:
    if n == 0:
        return (Poset._from_up([], []),)
    # buckets hold hashes, not keys, which keeps peak memory down: a hash
    # collision only merges two buckets, and _match decides isomorphism
    buckets: dict[int, list[tuple[Poset, list[int]]]] = {}
    out: list[Poset] = []
    for P in _posets_of_size(n - 1):
        for mask in P.ideal_masks():
            Q = _extend(P, mask)
            key, colQ = _initial_colours(Q)
            bucket = buckets.setdefault(hash(key), [])
            if any(_match(Q, colQ, R, colR) is not None for R, colR in bucket):
                continue
            bucket.append((Q, colQ))
            out.append(Q)
    return tuple(out)


def small_posets(max_size: int) -> list[Poset]:
    """All posets with at most ``max_size`` elements, up to isomorphism."""
    out: list[Poset] = []
    for n in range(max_size + 1):
        out.extend(_posets_of_size(n))
    return out


def corpus_census(max_size: int) -> Counter:
    """Class counts by element count; handy for sanity checks."""
    return Counter(P.n for P in small_posets(max_size))
