"""Partial orders on the size-k antichains of a poset.

Two orders are materialized.  The ideal order compares antichains by
containment of the ideals they generate.  The exchange order is the
reflexive transitive closure of single-element replacement: A steps to B
when B = A \\ {a} u {b} for a strictly below b.  The exchange order is
coarser than the ideal order in general, and its covering pairs are
exactly the single replacements along covering pairs of the host poset.
One swap rule, ``_swaps``, lists an antichain's covers from its mask.  It
gives the default route's swap lists, the indices of each antichain's
covers, which are all a cover-first order stores (its int rows and its
closure are built only when read), and ``swap_covers`` hands it to
``poset.covers_map_onto``, so that a named map is checked from the masks
with no order built.  The all-replacements route, closed at once from its
step lists, is kept as an independent reference.  Both orders at one k
share the host's one enumeration of the size-k antichains, and their "{a,b}"
labels are built on first read.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .errors import SizeMismatch
from .poset import (
    Antichain,
    Poset,
    _bits,
    _comparable,
    _inclusion_up,
    _Record,
    transitive_closure,
)


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


def _swaps(mask: int, steps_of: Sequence[int], comp: Sequence[int]) -> Iterator[int]:
    """The antichains A - a + b, for a in the antichain A = ``mask`` and b in ``steps_of[a]``.

    ``comp`` holds the host's ``_comparable`` rows.  With the host's upper
    covers as ``steps_of`` these are A's exchange covers.
    """
    members = mask
    while members:
        low = members & -members
        rest = mask ^ low
        steps = steps_of[low.bit_length() - 1]
        while steps:
            high = steps & -steps
            if comp[high.bit_length() - 1] & rest == 0:
                yield rest | high
            steps ^= high
        members ^= low


def _exchange_edges(P: Poset, masks: list[int], *, covers_only: bool) -> list[list[int]]:
    """Each antichain's single-replacement steps, as a list of indices into ``masks``."""
    pos = {m: i for i, m in enumerate(masks)}
    steps_of, comp = (P.cover_up if covers_only else P.up), _comparable(P)
    # plain loops: on Python 3.11 a list comprehension per mask adds a call,
    # a fifth of the work on the corpus's small orders
    out = []
    for m in masks:
        row = []
        for s in _swaps(m, steps_of, comp):
            row.append(pos[s])
        out.append(row)
    return out


def swap_covers(P: Poset) -> Callable[[int], Iterator[int]]:
    """A function listing the exchange covers of an antichain of P, as masks, from its mask (``_swaps``)."""
    cover_up, comp = P.cover_up, _comparable(P)
    return lambda mask: _swaps(mask, cover_up, comp)


def antichain_exchange_poset(P: Poset, k: int, *, edges: str = "covers") -> Poset:
    """The size-k antichains under the exchange order.

    ``edges="covers"`` generates only replacements along covering pairs
    (sufficient, since every exchange-order cover has that shape);
    ``edges="all"`` closes over every strict replacement and exists as
    an independent cross-check.  Empty poset when k exceeds the width.

    With ``edges="covers"`` the generated steps are exactly the covers of
    the result, which is cover-first: it stores them as index lists, and
    builds its int rows and closes ``up`` only when they are read.  A step
    from A to B = A - a + b, with a covered by b, cannot be split: composing
    the order-compatible matchings along a chain A < C < B gives one from A
    to B, which must fix A's other members (they form an antichain with a)
    and send a to b, so C is A with a replaced by an element between a and
    b, which is a or b.  The steps are acyclic by construction: a swap of a
    for an upper cover b strictly raises the sum of the members' heights.
    Labels are built on first read.
    """
    if edges not in ("covers", "all"):
        raise ValueError(f"edges must be 'covers' or 'all', not {edges!r}")
    masks = P._antichain_masks(k)
    steps = _exchange_edges(P, masks, covers_only=edges == "covers")
    if edges == "covers":
        return Poset._on_subsets(P, masks, cover_lists=steps)
    return Poset._on_subsets(P, masks, transitive_closure(steps))


def antichain_ideal_poset(P: Poset, k: int) -> Poset:
    """The size-k antichains under the ideal (containment) order."""
    masks = P._antichain_masks(k)
    down = P.down
    ideals = []
    for m in masks:
        ideal, members = m, m
        while members:
            low = members & -members
            ideal |= down[low.bit_length() - 1]
            members ^= low
        ideals.append(ideal)
    # ideal(A) lies inside ideal(B) exactly when A does
    return Poset._on_subsets(P, masks, _inclusion_up(P.n, masks, ideals))


class RefinementReport(_Record):
    """How the exchange order sits inside the ideal order at size k."""

    __slots__ = (
        "k", "antichain_count", "exchange_pairs", "ideal_pairs", "violations", "coarsening_witnesses"
    )

    def __init__(
        self,
        k: int,
        antichain_count: int,
        exchange_pairs: int,
        ideal_pairs: int,
        violations: list[tuple[str, str]] | None = None,
        coarsening_witnesses: list[tuple[str, str]] | None = None,
    ):
        self.k = k
        self.antichain_count = antichain_count
        self.exchange_pairs = exchange_pairs
        self.ideal_pairs = ideal_pairs
        self.violations = [] if violations is None else violations
        self.coarsening_witnesses = [] if coarsening_witnesses is None else coarsening_witnesses

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

