"""Lattice recognition and distributivity certificates.

A finite poset is a lattice when every pair of elements has a greatest
lower bound and a least upper bound.  Distributivity is decided by
checking the identity x ^ (y v z) = (x ^ y) v (x ^ z) over all triples,
and certified on success by the canonical map onto the ideals of the
join-irreducible elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotALattice
from .poset import Poset, PosetIso, _bits


@dataclass(frozen=True)
class MeetJoinTable:
    """Pairwise glb/lub tables over canonical indices; -1 marks undefined."""

    meet: np.ndarray
    join: np.ndarray
    complete: bool

    def undefined_pair(self) -> tuple[int, int] | None:
        for table in (self.meet, self.join):
            holes = np.argwhere(table < 0)
            if len(holes):
                i, j = holes[0]
                return int(i), int(j)
        return None


def _unique_extreme(members: int, blockers: tuple[int, ...]) -> int:
    """The unique i in ``members`` with no other member in blockers[i], else -1."""
    found = -1
    for i in _bits(members):
        if blockers[i] & members == 0:
            if found >= 0:
                return -1
            found = i
    return found


def meet_join_table(P: Poset) -> MeetJoinTable:
    """Greatest lower / least upper bounds for every pair, where unique."""
    n = P.n
    meet = np.full((n, n), -1, dtype=np.int64)
    join = np.full((n, n), -1, dtype=np.int64)
    above, below = P.up, P.down
    be = [d | 1 << i for i, d in enumerate(below)]
    ae = [u | 1 << i for i, u in enumerate(above)]
    for x in range(n):
        for y in range(x, n):
            m = _unique_extreme(be[x] & be[y], above)
            j = _unique_extreme(ae[x] & ae[y], below)
            meet[x, y] = meet[y, x] = m
            join[x, y] = join[y, x] = j
    complete = n > 0 and (meet >= 0).all() and (join >= 0).all()
    meet.setflags(write=False)
    join.setflags(write=False)
    return MeetJoinTable(meet, join, bool(complete))


def _join_irreducible_indices(P: Poset) -> list[int]:
    """Elements covering exactly one element (the join-irreducibles of a lattice)."""
    return [i for i, c in enumerate(P.cover_down) if c.bit_count() == 1]


def join_irreducibles(P: Poset) -> Poset:
    """Induced sub-poset of elements covering exactly one element."""
    if not meet_join_table(P).complete:
        raise NotALattice("join-irreducibles need a lattice")
    return P.induced(_join_irreducible_indices(P))


@dataclass
class DistributivityResult:
    """Verdict plus certificate material for a distributivity check."""

    distributive: bool
    is_lattice: bool
    failure: dict | None = None
    witness: PosetIso | None = None
    irreducibles: Poset | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.distributive

    def to_json_dict(self) -> dict:
        out: dict = {"distributive": self.distributive, "is_lattice": self.is_lattice}
        if self.failure is not None:
            out["failure"] = self.failure
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def is_distributive(P: Poset) -> DistributivityResult:
    """Decide distributivity; on success include the ideal-representation witness.

    The witness maps each element to the set of join-irreducibles below
    it, landing in the containment order on ideals of the irreducible
    sub-poset.  For a distributive lattice this map is an isomorphism,
    and it is verified directly rather than trusted.
    """
    n = P.n
    table = meet_join_table(P)
    if not table.complete:
        if n == 0:
            failure = {"reason": "empty poset"}
        else:
            x, y = table.undefined_pair()  # type: ignore[misc]
            which = "meet" if table.meet[x, y] < 0 else "join"
            failure = {
                "reason": f"no {which}",
                "pair": [P.labels[x], P.labels[y]],
            }
        return DistributivityResult(False, False, failure=failure)
    meet, join = table.meet, table.join
    for x in range(n):
        mx = meet[x]
        lhs = mx[join]
        rhs = join[mx[:, None], mx[None, :]]
        if not np.array_equal(lhs, rhs):
            y, z = map(int, np.argwhere(lhs != rhs)[0])
            failure = {
                "reason": "distributivity fails",
                "triple": [P.labels[x], P.labels[y], P.labels[z]],
            }
            return DistributivityResult(False, True, failure=failure)

    irr_idx = _join_irreducible_indices(P)
    irr = P.induced(irr_idx)
    ideal_poset = irr.ideals_poset()
    forward = {}
    for x in range(n):
        below_eq = P.down[x] | 1 << x
        members = [p for p, i in enumerate(irr_idx) if below_eq >> i & 1]
        forward[P.labels[x]] = irr.subset_label(members)
    witness = PosetIso(forward, {v: k for k, v in forward.items()})
    if not witness.verify(P, ideal_poset):
        failure = {"reason": "ideal-representation witness failed verification"}
        return DistributivityResult(False, True, failure=failure)
    return DistributivityResult(True, True, witness=witness, irreducibles=irr)
