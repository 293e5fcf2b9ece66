"""Lattice recognition and distributivity certificates.

A finite poset is a lattice when every pair of elements has a greatest
lower bound and a least upper bound.  Distributivity is certified first:
the canonical map x -> {join-irreducibles below x} is built and checked
as an order isomorphism onto the ideals of the join-irreducible
sub-poset.  Ideal lattices are distributive (Birkhoff, "Rings of sets",
Duke Math. J. 1937; Stanley, *EC1* 3.4), so a verified map proves the
claim outright.  Only when the map fails are the meet/join table and the
triple scan of x ^ (y v z) = (x ^ y) v (x ^ z) computed, to name the
missing bound or the failing triple.

The certificate is local and reads P's cover rows alone: the masks of
irreducibles must be distinct, one of them empty, and each element's
upper covers exactly the elements whose masks are its own plus one
irreducible that may be added to it (``_ideal_witness`` has the proof).
No ideal is enumerated, and no down-set of P and no label of either
order is built: the target is the ideal lattice listed in P's order, on
P's cover rows, so the witness is the identity on indices.

Everything here runs on Python ints: the certificate on bitsets, the
meet/join table as tuples of int rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .poset import Poset, PosetIso, _bits, _Frozen, _Record


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


def _irreducible_masks(P: Poset) -> tuple[list[int], list[int]]:
    """P's join-irreducibles, and for each element the mask of those at or below it.

    Reads P's cover rows alone.  Counting upper-cover bits gives each
    element's number of lower covers, and the join-irreducibles are the
    elements with exactly one.  Bit t of a mask stands for the t-th
    irreducible in index order.  Each element ORs its mask into its upper
    covers' once all of its own lower covers have done so (Kahn's walk up
    a linear extension), so every mask is complete when it is passed on.
    """
    n, cover_up = P.n, P.cover_up
    lower = [0] * n
    for c in cover_up:
        while c:
            low = c & -c
            lower[low.bit_length() - 1] += 1
            c ^= low
    irr = [j for j in range(n) if lower[j] == 1]
    below = [0] * n
    for t, j in enumerate(irr):
        below[j] = 1 << t
    order = [i for i in range(n) if not lower[i]]
    for i in order:  # grows while it is read
        m, c = below[i], cover_up[i]
        while c:
            low = c & -c
            j = low.bit_length() - 1
            below[j] |= m
            lower[j] -= 1
            if not lower[j]:
                order.append(j)
            c ^= low
    return irr, below


def _ideals_covering(m: int, strict: Sequence[int], full: int) -> list[int]:
    """The ideals one element larger than the ideal ``m``: m + t, for t in ``full``
    outside m whose strict down-set ``strict[t]`` lies in m."""
    out, free = [], full & ~m
    while free:
        low = free & -free
        if strict[low.bit_length() - 1] & ~m == 0:
            out.append(m | low)
        free ^= low
    return out


def _ideal_witness(P: Poset) -> tuple[PosetIso, Poset] | None:
    """The map x -> {join-irreducibles below x} with its irreducibles, if it certifies.

    With below[x] the mask of x's irreducibles, an ideal of their
    sub-poset irr, the map is an isomorphism of P onto J(irr), the
    containment order on irr's ideals, when (a) the masks are distinct,
    (b) one is 0 and (c) for each x the elements whose masks are the
    ideals one element larger than below[x] are exactly x's upper covers
    (a mask that is no element's fails).  Proof: every ideal is reached
    from the empty one by adding a minimal element of what is left, so by
    (b) and (c), by induction on size, the map is onto J(irr); by (a) it
    is one-to-one; and J covers I in J(irr) exactly when J is I plus one
    element, so by (c) it carries covers onto covers both ways, and with
    them the order.  The target is J(irr) in P's order (element x is the
    ideal below[x]) on P's cover rows, which (c) shows are its covers.
    """
    irr_idx, below = _irreducible_masks(P)
    index = {m: x for x, m in enumerate(below)}
    if len(index) != P.n or 0 not in index:  # (a), (b)
        return None
    strict = [below[j] ^ 1 << t for t, j in enumerate(irr_idx)]
    full = (1 << len(strict)) - 1
    for m, covers in zip(below, P.cover_up):  # (c)
        ys = [index.get(ideal) for ideal in _ideals_covering(m, strict, full)]
        if None in ys or sum(1 << y for y in ys) != covers:
            return None
    up = [0] * len(irr_idx)
    for t, d in enumerate(strict):
        for s in _bits(d):
            up[s] |= 1 << t
    irr = Poset._on_elements(P, irr_idx, up)
    # irr keeps P's labels in P's order, so the target's labels name sets of P's elements
    target = Poset._on_subsets(irr, below, cover_up=P.cover_up)
    return PosetIso(P, target, range(P.n)), irr


def is_distributive(P: Poset) -> DistributivityResult:
    """Decide distributivity; on success include the ideal-representation witness.

    The witness maps each element to the set of join-irreducibles below
    it, landing in the containment order on ideals of the irreducible
    sub-poset, listed in P's order.  It is certified first, element by
    element against its upper covers (``_ideal_witness``): an order
    isomorphism onto an ideal lattice proves P a distributive lattice
    (Birkhoff), so success needs nothing more.  When the certificate
    fails, the meet/join table and the triple scan name the missing bound
    or the failing triple.
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
