"""Lattice recognition and distributivity certificates.

A finite poset is a lattice when every pair of elements has a greatest
lower bound and a least upper bound.  Distributivity is certified first:
the canonical map x -> {join-irreducibles below x} is built and checked
as an order isomorphism onto the ideals of the join-irreducible
sub-poset.  Ideal lattices are distributive (Birkhoff), so a verified
map proves the claim outright.  Only when the map fails are the meet/join
table and the triple scan of x ^ (y v z) = (x ^ y) v (x ^ z) computed,
to name the missing bound or the failing triple.

Everything here runs on Python ints: the certificate on bitsets, the
meet/join table as tuples of int rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SizeLimitExceeded
from .poset import Poset, PosetIso, _bits, _Frozen, _image, _Record


class MeetJoinTable(_Frozen):
    """Pairwise glb/lub tables over canonical indices; -1 marks undefined."""

    __slots__ = ("meet", "join", "complete")

    def __init__(
        self, meet: tuple[tuple[int, ...], ...], join: tuple[tuple[int, ...], ...], complete: bool
    ):
        self._fill(meet, join, complete)

    def undefined_pair(self) -> tuple[int, int] | None:
        """The first hole, row-major, in the meet table and then the join table."""
        for table in (self.meet, self.join):
            for i, row in enumerate(table):
                if -1 in row:
                    return i, row.index(-1)
        return None


def _highest(mask: int) -> int:
    return mask.bit_length() - 1


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _unique_extreme(
    members: int, toward: Sequence[int], closed: Sequence[int], pick: Callable[[int], int]
) -> int:
    """The unique maximal element of a down-closed ``members``, else -1.

    Walks from the member ``pick`` names along ``toward`` (strict
    up-sets), to the member ``pick`` names among those further on, until
    none is; the walk ends at a maximal member m, which is the only one
    exactly when ``members`` is m's closed down-set.  With the roles of
    up- and down-sets swapped this finds the unique minimal element of an
    up-closed set.  ``pick`` only sets the walk's length: meets pick the
    highest index and joins the lowest, so that on an order whose indices
    follow a linear extension both walks end at once.
    """
    if not members:
        return -1
    m = pick(members)
    while step := toward[m] & members:
        m = pick(step)
    return m if members == closed[m] else -1


def meet_join_table(P: Poset) -> MeetJoinTable:
    """Greatest lower / least upper bounds for every pair, where unique."""
    n = P.n
    meet = [[-1] * n for _ in range(n)]
    join = [[-1] * n for _ in range(n)]
    above, below = P.up, P.down
    be = [d | 1 << i for i, d in enumerate(below)]
    ae = [u | 1 << i for i, u in enumerate(above)]
    for x in range(n):
        for y in range(x, n):
            meet[x][y] = meet[y][x] = _unique_extreme(be[x] & be[y], above, be, _highest)
            join[x][y] = join[y][x] = _unique_extreme(ae[x] & ae[y], below, ae, _lowest)
    complete = n > 0 and not any(-1 in row for row in meet + join)
    return MeetJoinTable(tuple(map(tuple, meet)), tuple(map(tuple, join)), complete)


def _join_irreducible_indices(P: Poset) -> list[int]:
    """Elements covering exactly one element (the join-irreducibles of a lattice)."""
    return [i for i, c in enumerate(P.cover_down) if c.bit_count() == 1]


class DistributivityResult(_Record):
    """Verdict plus certificate material for a distributivity check."""

    __slots__ = ("distributive", "is_lattice", "failure", "witness", "irreducibles")
    _hidden = ("irreducibles",)

    def __init__(
        self,
        distributive: bool,
        is_lattice: bool,
        failure: dict | None = None,
        witness: PosetIso | None = None,
        irreducibles: Poset | None = None,
    ):
        self.distributive = distributive
        self.is_lattice = is_lattice
        self.failure = failure
        self.witness = witness
        self.irreducibles = irreducibles

    def __bool__(self) -> bool:
        return self.distributive

    def to_json_dict(self) -> dict:
        out: dict = {"distributive": self.distributive, "is_lattice": self.is_lattice}
        if self.failure is not None:
            out["failure"] = self.failure
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def _ideal_witness(P: Poset) -> tuple[PosetIso, Poset] | None:
    """The map x -> {join-irreducibles below x} with its irreducibles, if it verifies.

    The target is the containment order on ideals of the irreducible
    sub-poset.  A distributive lattice on n elements has exactly n such
    ideals, so enumeration stops past n: a non-lattice with many
    irreducibles could otherwise have up to 2^|irr| of them.  The map is
    checked and kept on indices, so nothing is labelled until it is read.
    """
    irr_idx = _join_irreducible_indices(P)
    irr = P.induced(irr_idx)
    try:
        ideal_poset = irr.ideals_poset(cap=P.n)
    except SizeLimitExceeded:
        return None
    # x -> the index of its irreducibles' mask, on irr's indices, among the ideals
    keep, to = _image((1 << len(irr_idx)) - 1, irr_idx), dict(zip(irr_idx, range(len(irr_idx))))
    index = {m: j for j, m in enumerate(ideal_poset._subsets[1])}
    img = [index.get(_image((P.down[x] | 1 << x) & keep, to)) for x in range(P.n)]
    # irr keeps P's labels in P's order, so the target's labels name sets of P's elements
    witness = PosetIso(P, ideal_poset, img)
    return (witness, irr) if witness.verify() else None


def is_distributive(P: Poset) -> DistributivityResult:
    """Decide distributivity; on success include the ideal-representation witness.

    The witness maps each element to the set of join-irreducibles below
    it, landing in the containment order on ideals of the irreducible
    sub-poset.  It is built first and verified directly rather than
    trusted: an order isomorphism onto an ideal lattice proves P is a
    distributive lattice (Birkhoff), so success needs nothing more.
    When the witness fails, the meet/join table and the triple scan name
    the missing bound or the failing triple.
    """
    certified = _ideal_witness(P)
    if certified is not None:
        witness, irr = certified
        return DistributivityResult(True, True, witness=witness, irreducibles=irr)
    n = P.n
    table = meet_join_table(P)
    if not table.complete:
        if n == 0:
            failure = {"reason": "empty poset"}
        else:
            x, y = table.undefined_pair()  # type: ignore[misc]
            which = "meet" if table.meet[x][y] < 0 else "join"
            failure = {
                "reason": f"no {which}",
                "pair": [P.labels[x], P.labels[y]],
            }
        return DistributivityResult(False, False, failure=failure)
    # The law holds when x <= y, when x <= z and when y, z are comparable.
    # It is symmetric in y and z, so the first failing triple in row-major
    # order has index y < index z, y and z incomparable, and neither >= x.
    meet, join, up, down = table.meet, table.join, P.up, P.down
    everything = (1 << n) - 1
    for x in range(n):
        mx, free = meet[x], everything & ~(up[x] | 1 << x)
        for y in _bits(free):
            jy, jmy = join[y], join[mx[y]]
            for z in _bits(free & ~(up[y] | down[y]) & -(2 << y)):
                if mx[jy[z]] != jmy[mx[z]]:
                    failure = {
                        "reason": "distributivity fails",
                        "triple": [P.labels[x], P.labels[y], P.labels[z]],
                    }
                    return DistributivityResult(False, True, failure=failure)
    failure = {"reason": "ideal-representation witness failed verification"}
    return DistributivityResult(False, True, failure=failure)
