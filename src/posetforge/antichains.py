"""Partial orders on the size-k antichains of a poset.

Two orders are materialized.  The ideal order compares antichains by
containment of the ideals they generate.  The exchange order is the
reflexive transitive closure of single-element replacement: A steps to B
when B = A \\ {a} u {b} for a strictly below b.  The exchange order is
coarser than the ideal order in general, and its covering pairs are
exactly the single replacements along covering pairs of the host poset;
that characterization drives the default edge generation, with the
all-replacements closure kept alongside as an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SizeMismatch
from .poset import Antichain, Poset, _bits, _inclusion_up, _matching_size, transitive_closure


def ideal_leq(A: Antichain, B: Antichain) -> bool:
    """True when every member of A lies below (or equals) a member of B."""
    if A.poset is not B.poset and A.poset != B.poset:
        raise ValueError("antichains live in different posets")
    P = A.poset
    covered = 0
    for b in _bits(B.mask):
        covered |= P.down[b] | 1 << b
    return A.mask & ~covered == 0


def is_exchange_cover(A: Antichain, B: Antichain) -> bool:
    """True when B replaces exactly one member of A by an upper cover of it."""
    if len(A) != len(B):
        raise SizeMismatch(f"antichain sizes differ: {len(A)} vs {len(B)}")
    if A.poset is not B.poset and A.poset != B.poset:
        raise ValueError("antichains live in different posets")
    a_only = A.mask & ~B.mask
    b_only = B.mask & ~A.mask
    if a_only.bit_count() != 1 or b_only.bit_count() != 1:
        return False
    a = next(_bits(a_only))
    b = next(_bits(b_only))
    return bool(A.poset.cover_up[a] >> b & 1)


def _exchange_edges(P: Poset, masks: list[int], *, covers_only: bool) -> list[int]:
    """Successor bitsets of the single-replacement steps between antichains."""
    pos = {m: i for i, m in enumerate(masks)}
    step_from = P.cover_up if covers_only else P.up
    comp = [u | d for u, d in zip(P.up, P.down)]
    succ = []
    for m in masks:
        out = 0
        for a in _bits(m):
            rest = m & ~(1 << a)
            for b in _bits(step_from[a]):
                if comp[b] & rest == 0:
                    out |= 1 << pos[rest | (1 << b)]
        succ.append(out)
    return succ


def antichain_exchange_poset(P: Poset, k: int, *, edges: str = "covers") -> Poset:
    """The size-k antichains under the exchange order.

    ``edges="covers"`` generates only replacements along covering pairs
    (sufficient, since every exchange-order cover has that shape);
    ``edges="all"`` closes over every strict replacement and exists as
    an independent cross-check.  Empty poset when k exceeds the width.
    """
    if edges not in ("covers", "all"):
        raise ValueError(f"edges must be 'covers' or 'all', not {edges!r}")
    masks = P._antichain_masks(k)
    succ = _exchange_edges(P, masks, covers_only=(edges == "covers"))
    up = transitive_closure(succ)
    labels = [P.subset_label(_bits(m)) for m in masks]
    return Poset._from_up(labels, up)


def antichain_ideal_poset(P: Poset, k: int) -> Poset:
    """The size-k antichains under the ideal (containment) order."""
    masks = P._antichain_masks(k)
    down = P.down
    ideals = []
    for m in masks:
        ideal = m
        for i in _bits(m):
            ideal |= down[i]
        ideals.append(ideal)
    # ideal(A) lies inside ideal(B) exactly when A does
    labels = [P.subset_label(_bits(m)) for m in masks]
    return Poset._from_up(labels, _inclusion_up(P.n, masks, ideals))


@dataclass
class RefinementReport:
    """How the exchange order sits inside the ideal order at size k."""

    k: int
    antichain_count: int
    exchange_pairs: int
    ideal_pairs: int
    violations: list[tuple[str, str]] = field(default_factory=list)
    coarsening_witnesses: list[tuple[str, str]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """Every exchange-order relation must also be an ideal-order relation."""
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "antichains": self.antichain_count,
            "exchange_pairs": self.exchange_pairs,
            "ideal_pairs": self.ideal_pairs,
            "violations": [list(p) for p in self.violations],
            "coarsening_witnesses": [list(p) for p in self.coarsening_witnesses],
        }


def refinement_report(P: Poset, k: int) -> RefinementReport:
    """Compare the two orders pairwise; witnesses are strict ideal-order
    pairs that the exchange order does not relate."""
    exchange = antichain_exchange_poset(P, k)
    ideal = antichain_ideal_poset(P, k)
    count = exchange.n
    report = RefinementReport(
        k=k,
        antichain_count=count,
        exchange_pairs=sum(u.bit_count() for u in exchange.up),
        ideal_pairs=sum(u.bit_count() for u in ideal.up),
    )
    for i, (e, d) in enumerate(zip(exchange.up, ideal.up)):
        for j in _bits(e & ~d):
            report.violations.append((exchange.labels[i], exchange.labels[j]))
        for j in _bits(d & ~e):
            report.coarsening_witnesses.append((ideal.labels[i], ideal.labels[j]))
    return report


def has_order_matching(P: Poset, A: Antichain, B: Antichain) -> bool:
    """Whether A and B admit a perfect matching with each a_i <= b_i."""
    if len(A) != len(B):
        raise SizeMismatch(f"antichain sizes differ: {len(A)} vs {len(B)}")
    if any(S.poset is not P and S.poset != P for S in (A, B)):
        raise ValueError("antichains do not live in the given poset")
    adj = {u: (P.up[u] | 1 << u) & B.mask for u in A}
    return _matching_size(P.n, adj) == len(A)
