"""Exhaustive corpus of small posets, one representative per isomorphism class.

Every n-element poset arises from an (n-1)-element poset by inserting a
new maximal element above one of its ideals, so the corpus is grown level
by level.  Most extensions are never built: a canonical-deletion rule in
the manner of McKay (*Isomorph-free exhaustive generation*, J. Algorithms
1998; the method behind Brinkmann & McKay, *Posets on up to 16 points*,
Order 2002) keeps an extension only when its new element z could be the
element deleted to reach the parent.  A maximal element m of a poset gets
the signature (height, number of lower covers, down-set size).  Over the
ideal I of P, z gets (1 + the highest height among the maximal members of
I, or 0 for the empty ideal; the number of those members; |I|), read off
P's views before z exists.  A maximal element of P outside I keeps its
signature in the extension, since z lies above none of it.  The extension
is skipped when P has a maximal element whose signature beats z's.  Only
the maxima outside I matter, but testing all of them is the same test: a
maximal element of P inside I is one of I's maximal members, so z is
higher than it and beats it.

No class is lost.  Take any n-element poset Q and a maximal element m of
Q whose signature is highest.  Q - m is isomorphic to a kept poset P by
induction, and the isomorphism carries the down-set of m onto an ideal I
of P.  Extending P over I gives Q again with z in the place of m, so z
gets m's signature, and the maxima of P outside I are the other maxima of
Q with their signatures in Q.  None beats m, so this extension is built.

The rule settles nothing between equal signatures, nor between the
automorphic images of one ideal, so each extension that passes it is
still checked against the classes already kept.  Each comes from
``Poset._add_maximal``, which hands its parent's covers, down-sets,
heights and depths down to it, so no extension derives its views from
scratch; the ideal's maximal members, read once for the rule, are handed
down too.  Each is coloured once by the poset module's initial colouring
(height, depth, cover degrees, down- and up-set sizes), bucketed by the
hash of that colouring's key, and kept unless a backtracking search finds
it isomorphic to a poset already in its bucket.  No refinement rounds
run: the initial colours are isomorphism-invariant, so every isomorphism
respects them and the search, which misses none that does, decides alone.
On posets this small a failed search is cheaper than the rounds that would
have avoided it.
"""

from __future__ import annotations

from functools import lru_cache

from .poset import Poset, _bits, _initial_colours, _match


def _extend(P: Poset, ideal_mask: int, tops: int) -> Poset:
    """Add one new maximal element whose strict down-set is the given ideal,
    whose maximal members are ``tops``."""
    return P._add_maximal(ideal_mask, tops, f"x{P.n}")


@lru_cache(maxsize=None)
def _posets_of_size(n: int) -> tuple[Poset, ...]:
    if n == 0:
        return (Poset._from_up([], []),)
    # buckets hold hashes, not keys, which keeps peak memory down: a hash
    # collision only merges two buckets, and _match decides isomorphism
    buckets: dict[int, list[tuple[Poset, list[int]]]] = {}
    out: list[Poset] = []
    for P in _posets_of_size(n - 1):
        down, cover_down, heights, _ = P._cover_pass
        # the highest signature among P's maximal elements; () loses to any z
        best = max(
            ((heights[i], cover_down[i].bit_count(), down[i].bit_count())
             for i in range(P.n) if not P.up[i]),
            default=(),
        )
        for mask in P.ideal_masks():
            tops = P._ideal_tops(mask)
            z = (
                max((heights[i] + 1 for i in _bits(tops)), default=0),
                tops.bit_count(),
                mask.bit_count(),
            )
            if best > z:
                continue
            Q = _extend(P, mask, tops)
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
