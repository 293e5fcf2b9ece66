"""Lattice recognition and distributivity certificates.

A finite poset is a lattice when every pair of elements has a greatest
lower bound and a least upper bound.  Distributivity is certified first:
the canonical map x -> {join-irreducibles below x} is built and checked
as an order isomorphism onto the ideals of the join-irreducible
sub-poset.  Ideal lattices are distributive (Birkhoff), so a verified
map proves the claim outright.  Only when the map fails are the meet/join
table and the triple scan of x ^ (y v z) = (x ^ y) v (x ^ z) computed,
to name the missing bound or the failing triple.

The certificate reads P's cover rows alone.  The join-irreducibles are
the elements with exactly one lower cover, each element's irreducibles
are a small mask ORed up the covers, and the target ideal lattice is a
cover-first order: its cover rows are generated (an ideal is covered by
each ideal one element larger) and its dense ``up`` is closed only if it
is read.  No down-set of P is built, and no label of either order.

Everything here runs on Python ints: the certificate on bitsets, the
meet/join table as tuples of int rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SizeLimitExceeded
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


def _ideal_covers(strict: Sequence[int], masks: Sequence[int], index: dict[int, int]) -> list[int]:
    """Cover rows of the containment order on ``masks``, every ideal of an order.

    ``strict[t]`` is the strict down-set of element t and ``index`` takes
    each ideal to its position in ``masks``.  Ideal I is covered by I + t
    for each t outside I whose strict down-set lies in I: those are the
    ideals one element larger.
    """
    full = (1 << len(strict)) - 1
    rows = []
    for m in masks:
        row, free = 0, full & ~m
        while free:
            low = free & -free
            if strict[low.bit_length() - 1] & ~m == 0:
                row |= 1 << index[m | low]
            free ^= low
        rows.append(row)
    return rows


def _ideal_witness(P: Poset) -> tuple[PosetIso, Poset] | None:
    """The map x -> {join-irreducibles below x} with its irreducibles, if it verifies.

    Works from P's cover rows alone: neither P's down-sets nor its labels
    are built.  The irreducibles' order comes from their masks, and the
    target, the containment order on the ideals of the irreducible
    sub-poset, is built cover-first from the rows ``_ideal_covers``
    generates; its ideals come in ``ideal_masks`` order, so it equals
    ``irr.ideals_poset()``.  A distributive lattice on n elements has
    exactly n such ideals, so enumeration stops past n: a non-lattice with
    many irreducibles could otherwise have up to 2^|irr| of them.  The map
    is checked and kept on indices, and the irreducibles read P's labels
    only when their own are read, so nothing is labelled until it is read.
    """
    irr_idx, below = _irreducible_masks(P)
    strict = [below[j] ^ 1 << t for t, j in enumerate(irr_idx)]
    up = [0] * len(irr_idx)
    for t, d in enumerate(strict):
        for s in _bits(d):
            up[s] |= 1 << t
    irr = Poset._on_elements(P, irr_idx, up)
    try:
        masks = irr.ideal_masks(cap=P.n)
    except SizeLimitExceeded:
        return None
    index = {m: j for j, m in enumerate(masks)}
    # irr keeps P's labels in P's order, so the target's labels name sets of P's elements
    target = Poset._on_subsets(irr, masks, cover_up=_ideal_covers(strict, masks, index))
    # x -> the index of its irreducibles' mask among the ideals
    witness = PosetIso(P, target, [index.get(m) for m in below])
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
