"""Exhaustive corpus of small posets, one representative per isomorphism class.

Every n-element poset arises from an (n-1)-element poset by inserting a
new maximal element above one of its ideals, so the corpus is grown level
by level and deduplicated with a refinement fingerprint plus an explicit
isomorphism search inside fingerprint buckets.
"""

from __future__ import annotations

import threading
from collections import Counter
from functools import lru_cache

from .poset import Poset, _bits, find_isomorphism


# signatures interned process-wide so colors compare across posets;
# isomorphic posets always intern to identical ids, so the fingerprint
# stays isomorphism-invariant while keeping buckets near-singleton
_SIGNATURE_IDS: dict[tuple, int] = {}
_SIGNATURE_LOCK = threading.Lock()


def _intern(sig: tuple) -> int:
    value = _SIGNATURE_IDS.get(sig)
    if value is None:
        with _SIGNATURE_LOCK:
            value = _SIGNATURE_IDS.setdefault(sig, len(_SIGNATURE_IDS))
    return value


def _fingerprint(P: Poset) -> tuple:
    """Isomorphism-invariant key: stable refinement colors, sorted."""
    col = [
        _intern(
            (
                "leaf",
                P.heights[i],
                P.depths[i],
                P.cover_up[i].bit_count(),
                P.cover_down[i].bit_count(),
                P.down[i].bit_count(),
                P.up[i].bit_count(),
            )
        )
        for i in range(P.n)
    ]
    ncolors = len(set(col))
    while True:
        col = [
            _intern(
                (
                    col[i],
                    tuple(sorted(col[j] for j in _bits(P.cover_up[i]))),
                    tuple(sorted(col[j] for j in _bits(P.cover_down[i]))),
                )
            )
            for i in range(P.n)
        ]
        refined = len(set(col))
        if refined == ncolors:
            return (P.n, tuple(sorted(col)))
        ncolors = refined


def _extend(P: Poset, ideal_mask: int) -> Poset:
    """Add one new maximal element whose strict down-set is the given ideal."""
    n = P.n
    new = 1 << n
    up = [u | new if ideal_mask >> i & 1 else u for i, u in enumerate(P.up)] + [0]
    return Poset._from_up([f"x{i}" for i in range(n + 1)], up, validated=True)


@lru_cache(maxsize=None)
def _posets_of_size(n: int) -> tuple[Poset, ...]:
    if n == 0:
        return (Poset._from_up([], [], validated=True),)
    buckets: dict[tuple, list[Poset]] = {}
    out: list[Poset] = []
    for P in _posets_of_size(n - 1):
        for mask in P.ideal_masks():
            Q = _extend(P, mask)
            key = _fingerprint(Q)
            bucket = buckets.setdefault(key, [])
            if any(find_isomorphism(Q, R) is not None for R in bucket):
                continue
            bucket.append(Q)
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
