"""Finite posets over per-element up-set bitsets.

A poset is an immutable tuple of distinct string labels together with
``up``, one Python-int bitset per canonical index 0..n-1: bit j of
``up[i]`` means "element i is strictly below element j".  The relation
is always irreflexive, antisymmetric and transitively closed.  An order
from outside (``Poset(labels, up)``) is checked once, on entry; an order
the package builds itself (a transitive closure, a componentwise order
on distinct rows, inclusion of distinct sets) is trusted, because its
construction already proves it is an order.
Upper covers are derived from ``up`` on first use and cached; down-sets,
lower covers, heights and depths then come together from one pass up the
covers, on Python ints.  A poset grown by one new maximal element
(``_add_maximal``, how the corpus is built) instead gets these views
handed down from its parent, changed only where the new element reaches.
The views are cached in the instance ``__dict__`` without a lock.
Products, the componentwise builder and the check of a map
(``mapped_order_equal``, which compares mapped cover rows) run on Python
ints too.  numpy is imported only to build the read-only matrix views
``lt`` and ``cover_matrix``, which nothing in the package reads.

Labels are opaque at the API boundary.  All internal computation runs on
indices, with subsets handled as Python int bitmasks, so every relation
test is exact at any size.  Every object is immutable after
construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    BadParameters,
    CycleDetected,
    DuplicateLabel,
    NotAnAntichain,
    NotAnIdeal,
    SizeLimitExceeded,
    UnknownLabel,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_IDEAL_CAP = 1_000_000
DEFAULT_ISO_CAP = 200
_RELABEL_PREFIX = "p"  # default labels of Poset.relabeled: p0, p1, ...


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(mask: int, to: Sequence[int] | dict[int, int]) -> int:
    """The bitset of ``to[j]`` over the set bits j of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << to[low.bit_length() - 1]
        mask ^= low
    return out


def _bit_matrix(rows: Sequence[int]) -> np.ndarray:
    """Read-only square boolean matrix with the given row bitsets."""
    import numpy as np

    n = len(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    out = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
    out.setflags(write=False)
    return out


def transitive_closure(succ: Sequence[int]) -> tuple[int, ...]:
    """Strict up-sets (reachability) of a directed graph given by successor bitsets.

    Orders the vertices topologically, then ORs each vertex's successors
    with their up-sets in reverse order, as in Aho, Garey & Ullman, "The
    transitive reduction of a directed graph", SIAM J. Comput. 1972.
    Raises CycleDetected when the graph has a cycle.
    """
    n = len(succ)
    indegree = [0] * n
    for s in succ:
        for j in _bits(s):
            indegree[j] += 1
    order = [i for i in range(n) if indegree[i] == 0]
    for i in order:  # grows while it is read
        for j in _bits(succ[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < n:
        raise CycleDetected("relation has a cycle")
    up = [0] * n
    for i in reversed(order):
        up[i] = reduce(or_, (up[j] for j in _bits(succ[i])), succ[i])
    return tuple(up)


def _inclusion_up(n: int, gens: Sequence[int], sets: Sequence[int]) -> list[int]:
    """Strict up-sets of the inclusion order among distinct subsets of 0..n-1.

    Element r lies below element s when ``gens[r]`` is a subset of
    ``sets[s]``, for r != s.  With ``gens`` equal to ``sets`` this is
    plain inclusion; ``gens[r]`` may also be any generating set whose
    downward closure is ``sets[r]``, when every set is downward closed.
    """
    # containing[i] = the sets that contain i; r lies below exactly the
    # sets that contain all of gens[r]
    containing = [0] * n
    for s, m in enumerate(sets):
        for i in _bits(m):
            containing[i] |= 1 << s
    every = (1 << len(sets)) - 1
    up = []
    for r, g in enumerate(gens):
        row = every & ~(1 << r)
        for i in _bits(g):
            row &= containing[i]
        up.append(row)
    return up


def _matching_size(n: int, adj: dict[int, int]) -> int:
    """Size of a maximum matching in a bipartite graph, without recursion.

    Left and right vertices are both numbered 0..n-1; left vertex u
    (a key of ``adj``) is joined to every right vertex in the bitset
    ``adj[u]``.  Augmenting paths are found by breadth-first search.
    """
    match_to = [-1] * n  # right vertex v -> left vertex u of the matched edge
    match_of = [-1] * n  # left vertex u -> right vertex v
    via = [-1] * n  # left vertex that reached v in the current search
    matched = 0
    for root in adj:
        seen, queue, free = 0, [root], -1
        for u in queue:  # grows while it is read
            for v in _bits(adj[u] & ~seen):
                seen |= 1 << v
                via[v] = u
                if match_to[v] == -1:
                    free = v
                    break
                queue.append(match_to[v])
            if free != -1:
                break
        if free == -1:
            continue
        matched += 1
        v = free
        while v != -1:  # flip the path back to root, whose match_of is -1
            u = via[v]
            v_next = match_of[u]
            match_to[v], match_of[u] = u, v
            v = v_next
    return matched


def _distinct(labels: Iterable) -> tuple[str, ...]:
    labels = tuple(map(str, labels))
    if len(set(labels)) < len(labels):
        seen: set[str] = set()
        for lab in labels:
            if lab in seen:
                raise DuplicateLabel(f"duplicate element label {lab!r}")
            seen.add(lab)
    return labels


def _check_order(up: tuple[int, ...]) -> None:
    """Raise unless ``up`` is irreflexive, antisymmetric and transitively closed."""
    closed = True
    for i, u in enumerate(up):
        for j in _bits(u):
            if up[j] >> i & 1:  # j == i included: a reflexive pair
                raise CycleDetected("strict order must be irreflexive and antisymmetric")
            closed = closed and up[j] & ~u == 0
    if not closed:
        raise ValueError("strict order must be transitively closed")


def point_label(i: int, j: int) -> str:
    return f"({i},{j})"


def parse_point(label: str) -> tuple[int, int]:
    """Inverse of :func:`point_label`; raises ValueError on other shapes."""
    body = label.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a point label: {label!r}")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"not a point label: {label!r}")
    return int(parts[0]), int(parts[1])


class _view(cached_property):
    """A view computed on first use and kept in the instance ``__dict__``.

    The ``cached_property`` of Python 3.12, without the lock that 3.11
    takes on every first access: threads that race on a first access
    compute equal values, so the lock buys nothing.  Staying a
    ``cached_property`` subclass keeps ``isinstance`` checks on the class
    attribute true.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Poset:
    """An immutable finite poset.

    >>> Poset(["a", "b", "c"], [0b110, 0b100, 0]).covers()
    [('a', 'b'), ('b', 'c')]
    >>> P = chain_poset(3)
    >>> P.covers()
    [('1', '2'), ('2', '3')]
    >>> P.width()
    1
    """

    def __init__(self, labels: Iterable[str], up: Sequence[int]):
        """Validate strict up-set rows: bit j of ``up[i]`` when i lies below j."""
        self.labels = _distinct(labels)
        n, up = self.n, tuple(up)
        if len(up) != n:
            raise ValueError(f"need {n} up-set rows, got {len(up)}")
        for i, row in enumerate(up):
            if not isinstance(row, int) or not 0 <= row < 1 << n:
                raise ValueError(f"row {i} must be an int in [0, 2**{n}), got {row!r}")
        _check_order(up)
        self.up = up

    @classmethod
    def _from_up(cls, labels: Iterable[str], up: Sequence[int]) -> "Poset":
        """Build from strict up-set bitsets that the caller's construction proves an order."""
        P = cls.__new__(cls)
        P.labels = _distinct(labels)
        P.up = tuple(up)
        return P

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        covers = sum(c.bit_count() for c in self.cover_up)
        return f"Poset({self.n} elements, {covers} covers)"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    __hash__ = None  # type: ignore[assignment]

    @_view
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"no element labelled {label!r}") from None

    # -- relation views derived from ``up`` --------------------------------

    @_view
    def cover_up(self) -> tuple[int, ...]:
        """cover_up[i] = bitmask of the upper covers of i."""
        up = self.up
        out = []
        for u in up:
            # an element already in ``reach`` adds nothing: its up-set is in it
            reach, rest = 0, u
            while rest:
                low = rest & -rest
                reach |= up[low.bit_length() - 1]
                rest &= ~(reach | low)
            out.append(u & ~reach)
        return tuple(out)

    @_view
    def _cover_pass(self) -> tuple[tuple[int, ...], ...]:
        """(down, cover_down, heights, depths) from one pass up the covers.

        Elements are visited by decreasing up-set size.  That is a linear
        extension, since x < y makes up[y] a proper subset of up[x], so
        every lower cover of an element is visited before it, and every
        element strictly below j lies below or on one of j's lower covers.
        Depths come from the same order walked back, from the top down.
        """
        up, cover_up, n = self.up, self.cover_up, self.n
        order = sorted(range(n), key=lambda i: up[i].bit_count(), reverse=True)
        down, cover_down, heights, depths = [0] * n, [0] * n, [0] * n, [0] * n
        for i in order:
            bit = 1 << i
            below, h = down[i] | bit, heights[i] + 1
            for j in _bits(cover_up[i]):
                down[j] |= below
                cover_down[j] |= bit
                if heights[j] < h:
                    heights[j] = h
        for i in reversed(order):
            d = depths[i] + 1
            for j in _bits(cover_down[i]):
                if depths[j] < d:
                    depths[j] = d
        return tuple(down), tuple(cover_down), tuple(heights), tuple(depths)

    @_view
    def down(self) -> tuple[int, ...]:
        """down[i] = bitmask of elements strictly below i."""
        return self._cover_pass[0]

    @_view
    def cover_down(self) -> tuple[int, ...]:
        """cover_down[i] = bitmask of the lower covers of i."""
        return self._cover_pass[1]

    # the benchmark reads these two matrix views; nothing in the package does
    @_view
    def lt(self) -> np.ndarray:
        """Read-only matrix view: ``lt[i, j]`` when i is strictly below j."""
        return _bit_matrix(self.up)

    @_view
    def cover_matrix(self) -> np.ndarray:
        return _bit_matrix(self.cover_up)

    def covers(self) -> list[tuple[str, str]]:
        """Covering pairs (x, y) with x below y, ordered by canonical index."""
        labels = self.labels
        return [(labels[i], labels[j]) for i, c in enumerate(self.cover_up) for j in _bits(c)]

    # -- derived statistics ----------------------------------------------

    @_view
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain strictly below each element."""
        return self._cover_pass[2]

    @_view
    def depths(self) -> tuple[int, ...]:
        """Length of the longest chain strictly above each element."""
        return self._cover_pass[3]

    def width(self) -> int:
        """Maximum antichain size, via the chain-cover matching bound."""
        return self.n - _matching_size(self.n, dict(enumerate(self.up)))

    # -- subsets -----------------------------------------------------------

    def subset_label(self, members: Iterable[int]) -> str:
        return "{" + ",".join(self.labels[i] for i in sorted(members)) + "}"

    def _resolve(self, members: Iterable[int | str]) -> int:
        mask = 0
        for m in members:
            i = m if isinstance(m, int) else self.index(m)
            if not 0 <= i < self.n:
                raise UnknownLabel(f"element index {i} out of range")
            mask |= 1 << i
        return mask

    def antichain(self, members: Iterable[int | str]) -> "Antichain":
        return Antichain(self, members)

    def ideal(self, members: Iterable[int | str]) -> "Ideal":
        return Ideal(self, members)

    def _antichain_masks(self, k: int) -> list[int]:
        """All size-k antichains as bitmasks, in index-lexicographic order."""
        if k < 0:
            raise BadParameters(f"antichain size must be nonnegative, not {k}")
        if k == 0:
            return [0]
        comp = [u | d for u, d in zip(self.up, self.down)]
        out: list[int] = []
        # depth-first with an explicit stack: masks[-1] is the antichain so
        # far and cands[-1] the larger indices still incomparable to all of it
        masks, cands = [0], [(1 << self.n) - 1]
        while cands:
            cand = cands[-1]
            need = k - len(cands) + 1
            if need == 1:
                mask = masks.pop()
                cands.pop()
                while cand:
                    low = cand & -cand
                    out.append(mask | low)
                    cand ^= low
            elif cand.bit_count() < need:
                masks.pop()
                cands.pop()
            else:
                low = cand & -cand
                cand ^= low
                cands[-1] = cand
                masks.append(masks[-1] | low)
                cands.append(cand & ~comp[low.bit_length() - 1])
        return out

    def antichains_of_size(self, k: int) -> list["Antichain"]:
        """All antichains of size k; empty when k exceeds the width."""
        return [Antichain._from_mask(self, m) for m in self._antichain_masks(k)]

    # -- ideals ------------------------------------------------------------

    def ideal_masks(self, cap: int = DEFAULT_IDEAL_CAP) -> list[int]:
        """All downward-closed subsets as bitmasks, smallest first."""
        below = self.down
        seen, found = {0}, [0]
        for m in found:  # grows while it is read
            for i in range(self.n):
                if not (m >> i) & 1 and below[i] & ~m == 0:
                    m2 = m | (1 << i)
                    if m2 not in seen:
                        seen.add(m2)
                        if len(seen) > cap:
                            raise SizeLimitExceeded(
                                f"more than {cap} ideals; raise the cap to continue"
                            )
                        found.append(m2)
        return sorted(seen, key=lambda m: (m.bit_count(), tuple(_bits(m))))

    def ideals(self) -> list["Ideal"]:
        return [Ideal._from_mask(self, m) for m in self.ideal_masks()]

    def ideals_poset(self, cap: int = DEFAULT_IDEAL_CAP) -> "Poset":
        """The poset of all ideals ordered by containment."""
        masks = self.ideal_masks(cap)
        labels = [self.subset_label(_bits(m)) for m in masks]
        return Poset._from_up(labels, _inclusion_up(self.n, masks, masks))

    # -- constructions -----------------------------------------------------

    def _ideal_tops(self, ideal_mask: int) -> int:
        """The maximal members of an ideal: those below no other member."""
        down, below = self.down, 0
        for i in _bits(ideal_mask):
            below |= down[i]
        return ideal_mask & ~below

    def _add_maximal(self, ideal_mask: int, tops: int, label: str) -> "Poset":
        """P plus one new maximal element, labelled ``label``, whose strict
        down-set is the ideal ``ideal_mask``, with its views handed down.
        ``tops`` must be ``self._ideal_tops(ideal_mask)``; the caller has
        it already.

        The new element z sits above nothing but the ideal, so only four
        things change.  z covers exactly the maximal members of the ideal
        (``tops``): a member below another member is not covered by z, and
        no cover of P is split, since nothing lies above z.  The down-set
        and lower covers of every old element stay, and z gets the ideal
        and ``tops``.  Heights stay, and z's is one more than the highest
        of ``tops``.  Only the ideal's members can gain depth; they are
        recomputed from their upper covers by decreasing height, which
        visits every upper cover in the ideal first, whatever the index
        order.
        """
        if label in self._index:
            raise DuplicateLabel(f"duplicate element label {label!r}")
        new = 1 << self.n
        down, cover_down, heights, depths = self._cover_pass
        members = sorted(_bits(ideal_mask), key=heights.__getitem__, reverse=True)
        Q = Poset.__new__(Poset)
        Q.labels = (*self.labels, label)
        Q.up = (*[u | new if ideal_mask >> i & 1 else u for i, u in enumerate(self.up)], 0)
        Q.cover_up = cover_up = (
            *[c | new if tops >> i & 1 else c for i, c in enumerate(self.cover_up)],
            0,
        )
        depths = [*depths, 0]
        for i in members:
            d = 0
            for j in _bits(cover_up[i]):
                if depths[j] >= d:
                    d = depths[j] + 1
            depths[i] = d
        height = max((heights[i] + 1 for i in _bits(tops)), default=0)
        Q._cover_pass = ((*down, ideal_mask), (*cover_down, tops), (*heights, height), tuple(depths))
        return Q

    def product(self, other: "Poset") -> "Poset":
        """Componentwise order on pairs; labels are "(p,q)".

        Pair (p,q) has index p*m + q, with m = other.n, so the pairs with
        first entry p' form the block of bits p'*m .. p'*m + m-1.  Row
        (p,q) is the union, over every p' >= p, of the closed up-set of q
        placed in block p'.  Multiplying the closed up-set of q (below
        2**m) by the sum of 2**(p'*m) places it in every block at once,
        without carries, since the blocks do not overlap.
        """
        m = other.n
        spots = [m * p for p in range(self.n)]
        blocks = [_image(u | 1 << p, spots) for p, u in enumerate(self.up)]
        closed = [u | 1 << q for q, u in enumerate(other.up)]
        up = [(b * c) ^ 1 << (m * p + q) for p, b in enumerate(blocks) for q, c in enumerate(closed)]
        labels = [f"({p},{q})" for p in self.labels for q in other.labels]
        return Poset._from_up(labels, up)

    def induced(self, indices: Sequence[int]) -> "Poset":
        """Sub-poset on the given indices, keeping their labels."""
        idx = list(indices)
        keep, to = _image((1 << len(idx)) - 1, idx), dict(zip(idx, range(len(idx))))
        up = [_image(self.up[i] & keep, to) for i in idx]
        return Poset._from_up([self.labels[i] for i in idx], up)

    def relabeled(self, labels: Sequence[str] | None = None) -> "Poset":
        if labels is None:
            labels = [f"{_RELABEL_PREFIX}{i}" for i in range(self.n)]
        if len(labels) != self.n:
            raise ValueError("need exactly one new label per element")
        return Poset._from_up(labels, self.up)


class _Subset:
    """A subset of a host poset, stored as a bitmask."""

    def __init__(self, poset: Poset, members: Iterable[int | str]):
        self.poset = poset
        self.mask = poset._resolve(members)

    @classmethod
    def _from_mask(cls, poset: Poset, mask: int) -> "_Subset":
        """Wrap a mask that the caller's construction proves valid, unchecked."""
        S = cls.__new__(cls)
        S.poset, S.mask = poset, mask
        return S

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    @property
    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.poset.labels[i] for i in _bits(self.mask))

    @property
    def label(self) -> str:
        return self.poset.subset_label(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Subset):
            return NotImplemented
        return type(self) is type(other) and self.mask == other.mask and self.poset == other.poset

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.mask, self.poset.labels))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"


class Antichain(_Subset):
    """A pairwise-incomparable subset of a host poset."""

    def __init__(self, poset: Poset, members: Iterable[int | str]):
        super().__init__(poset, members)
        for i in self:
            if clash := (poset.up[i] | poset.down[i]) & self.mask:
                j = next(_bits(clash))
                raise NotAnAntichain(f"{poset.labels[i]!r} and {poset.labels[j]!r} are comparable")

    def ideal(self) -> "Ideal":
        """The ideal generated by this antichain (downward closure)."""
        down = self.poset.down
        return Ideal._from_mask(self.poset, reduce(or_, (down[i] for i in self), self.mask))


class Ideal(_Subset):
    """A downward-closed subset of a host poset."""

    def __init__(self, poset: Poset, members: Iterable[int | str]):
        super().__init__(poset, members)
        for i in self:
            if missing := poset.down[i] & ~self.mask:
                j = next(_bits(missing))
                raise NotAnIdeal(
                    f"{poset.labels[j]!r} lies below member {poset.labels[i]!r} but is missing"
                )

    def max_elements(self) -> Antichain:
        """The maximal members; inverse of :meth:`Antichain.ideal`."""
        below = reduce(or_, (self.poset.down[i] for i in self), 0)
        return Antichain._from_mask(self.poset, self.mask & ~below)


# -- constructors ----------------------------------------------------------


def build_poset(labels: Sequence[str], relations: Iterable[Sequence[str]]) -> Poset:
    """Build a poset from generator pairs, taking the transitive closure.

    Raises CycleDetected when the closure of the generators has a cycle,
    UnknownLabel when a pair mentions a label not in ``labels``.
    """
    labels = _distinct(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    succ = [0] * len(labels)
    for pair in relations:
        a, b = pair
        a, b = str(a), str(b)
        for end in (a, b):
            if end not in index:
                raise UnknownLabel(f"relation endpoint {end!r} is not an element")
        succ[index[a]] |= 1 << index[b]
    return Poset._from_up(labels, transitive_closure(succ))


def chain_poset(n: int) -> Poset:
    """The chain 1 < 2 < ... < n."""
    if n < 0:
        raise BadParameters(f"chain length must be nonnegative, got {n}")
    full = (1 << n) - 1
    up = [full & ~((2 << i) - 1) for i in range(n)]
    return Poset._from_up([str(i) for i in range(1, n + 1)], up)


def discrete_poset(labels: Sequence[str] | int) -> Poset:
    """An antichain: no two elements comparable."""
    if isinstance(labels, int):
        if labels < 0:
            raise BadParameters(f"element count must be nonnegative, got {labels}")
        labels = [str(i) for i in range(1, labels + 1)]
    return Poset._from_up(labels, [0] * len(labels))


def _componentwise_poset(labels: Sequence[str], rows: Sequence[Sequence[int]]) -> Poset:
    """Distinct integer rows of equal length under componentwise <=.

    ``at_least[c][v]`` is the bitset of rows whose entry c is at least v,
    so the rows above or equal to a row are the AND of these over its
    entries; the row itself is the only equal one, since rows are distinct.
    """
    n = len(rows)
    every = (1 << n) - 1
    at_least = []
    for column in zip(*rows):
        sets, acc = {}, 0
        for v, r in sorted(zip(column, range(n)), reverse=True):
            acc |= 1 << r
            sets[v] = acc  # rows of equal v come in one run, so the last write holds them all
        at_least.append(sets)
    up = []
    for r, row in enumerate(rows):
        above = every
        for sets, v in zip(at_least, row):
            above &= sets[v]
        up.append(above ^ 1 << r)
    return Poset._from_up(labels, up)


def grid_poset(a: int, b: int) -> Poset:
    """The a x b grid: product of two chains, labels "(i,j)"."""
    return chain_poset(a).product(chain_poset(b))


def grid_points(subset: _Subset) -> list[tuple[int, int]]:
    """Decode a subset of a grid poset into its (i, j) lattice points."""
    return [parse_point(lab) for lab in subset.member_labels]


# -- isomorphism search ----------------------------------------------------


def mapped_order_equal(P: Poset, Q: Poset, label_map: dict[str, str]) -> bool:
    """Whether ``label_map`` is a bijection carrying the order of P exactly onto Q's.

    A bijection that maps the upper covers of every element of P exactly
    onto the upper covers of its image carries the cover relation onto
    Q's, both ways, and so the order, its transitive closure, as well.
    """
    if P.n != Q.n or set(label_map) != set(P.labels) or set(label_map.values()) != set(Q.labels):
        return False
    img = [Q.index(label_map[lab]) for lab in P.labels]
    coverQ = Q.cover_up
    return all(_image(c, img) == coverQ[img[i]] for i, c in enumerate(P.cover_up))


@dataclass(frozen=True)
class PosetIso:
    """A witness isomorphism: label maps in both directions."""

    forward: dict[str, str]
    backward: dict[str, str]

    def verify(self, P: Poset, Q: Poset) -> bool:
        """Direct check: bijective and order-preserving both ways."""
        if self.backward != {v: k for k, v in self.forward.items()}:
            return False
        return mapped_order_equal(P, Q, self.forward)

    def to_json_dict(self) -> dict:
        return {"forward": dict(self.forward), "backward": dict(self.backward)}


def _rank(sig: list) -> tuple[tuple, list[int]]:
    """The sorted palette of the signatures and the rank of each in it."""
    palette = tuple(sorted(set(sig)))
    rank = {s: c for c, s in enumerate(palette)}
    return palette, [rank[s] for s in sig]


def _initial_colours(P: Poset) -> tuple[tuple, list[int]]:
    """Colours of P's elements by (height, depth, cover degrees, down- and
    up-set sizes): (isomorphism-invariant key, colours).

    A colour is the rank of its signature in P's own sorted palette, so
    isomorphic posets get equal keys ``(n, palette, sorted colours)`` and
    colours that correspond under every isomorphism.
    """
    count = int.bit_count
    palette, col = _rank(
        list(
            zip(
                P.heights,
                P.depths,
                map(count, P.cover_up),
                map(count, P.cover_down),
                map(count, P.down),
                map(count, P.up),
            )
        )
    )
    return (P.n, palette, tuple(sorted(col))), col


def _refine(P: Poset) -> tuple[tuple, list[int]]:
    """Colour refinement of P on its own: (isomorphism-invariant key, colours).

    Starts from :func:`_initial_colours` and refines each element by the
    sorted colours of its upper and lower covers until the number of
    colours stops growing.  Every round ranks in P's own sorted palette,
    so isomorphic posets get equal keys and colours that correspond under
    every isomorphism (McKay & Piperno, "Practical graph isomorphism II",
    2014).
    """
    (n, palette, _), col = _initial_colours(P)
    palettes = [palette]
    while True:
        palette, col = _rank(
            [
                (
                    col[i],
                    tuple(sorted(col[j] for j in _bits(P.cover_up[i]))),
                    tuple(sorted(col[j] for j in _bits(P.cover_down[i]))),
                )
                for i in range(n)
            ]
        )
        palettes.append(palette)
        if len(palette) == len(palettes[-2]):
            return (n, tuple(palettes), tuple(sorted(col))), col


def _match(P: Poset, colP: list[int], Q: Poset, colQ: list[int]) -> PosetIso | None:
    """Backtrack, without recursion, for an isomorphism P -> Q that keeps every colour.

    Element u may go to a free v of its colour when the assigned elements
    above and below u map exactly onto those above and below v, so a
    returned map is always a true isomorphism whatever the colours; the
    colours only prune the search.
    """
    candidates: dict[int, list[int]] = {}
    for v in range(Q.n):
        candidates.setdefault(colQ[v], []).append(v)
    if any(c not in candidates for c in colP):
        return None
    n = P.n
    order = sorted(range(n), key=lambda i: (len(candidates[colP[i]]), colP[i], i))
    doneP = list(accumulate((1 << u for u in order), or_, initial=0))  # doneP[t]: order[:t]
    upP, downP, upQ, downQ = P.up, P.down, Q.up, Q.down
    mapping = [0] * n
    want = [(0, 0)] * n  # images of the assigned elements above and below order[t]
    tried = [0] * n  # how many candidates of order[t] have been tried
    t, doneQ = 0, 0  # doneQ: the images of order[:t]
    while 0 <= t < n:
        u, done = order[t], doneP[t]
        if tried[t] == 0:
            want[t] = (_image(upP[u] & done, mapping), _image(downP[u] & done, mapping))
        else:
            doneQ ^= 1 << mapping[u]  # free the candidate tried last
        above, below = want[t]
        cands = candidates[colP[u]]
        for c in range(tried[t], len(cands)):
            v = cands[c]
            if not doneQ >> v & 1 and upQ[v] & doneQ == above and downQ[v] & doneQ == below:
                tried[t], mapping[u] = c + 1, v
                doneQ |= 1 << v
                t += 1
                break
        else:
            tried[t] = 0
            t -= 1
    if t < 0:
        return None
    forward = {P.labels[i]: Q.labels[mapping[i]] for i in range(n)}
    return PosetIso(forward, {v: k for k, v in forward.items()})


def find_isomorphism(P: Poset, Q: Poset, max_size: int = DEFAULT_ISO_CAP) -> PosetIso | None:
    """Search for an order isomorphism P -> Q.

    Refines each poset on its own (:func:`_refine`), returns None when
    the refinement keys differ, and otherwise backtracks over the colour
    classes.  Deterministic for fixed inputs.  Raises SizeLimitExceeded
    above ``max_size`` elements.  The default stays at 200: with the cap
    lifted, the searches over the benchmark ladder's seven orders above it
    (210 to 462 elements, fresh copies of both sides) would take longer
    than all the other work of a ladder pass together.
    """
    if P.n != Q.n:
        return None
    if P.n > max_size or Q.n > max_size:
        raise SizeLimitExceeded(f"isomorphism search capped at {max_size} elements")
    if P.n == 0:
        return PosetIso({}, {})
    keyP, colP = _refine(P)
    keyQ, colQ = _refine(Q)
    if keyP != keyQ:
        return None
    return _match(P, colP, Q, colQ)


# -- JSON interchange --------------------------------------------------------


def poset_to_dict(P: Poset) -> dict:
    """JSON-ready dict; relations are the covering pairs (a generating set)."""
    return {"elements": list(P.labels), "relations": [list(c) for c in P.covers()]}


def poset_from_dict(data: dict) -> Poset:
    """Inverse of :func:`poset_to_dict`; closure is taken on load."""
    if not isinstance(data, dict):
        raise ValueError("poset JSON must be an object")
    if "elements" not in data or "relations" not in data:
        raise ValueError('poset JSON needs "elements" and "relations" keys')
    elements = data["elements"]
    relations = data["relations"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValueError('"elements" must be a list of strings')
    if not isinstance(relations, list):
        raise ValueError('"relations" must be a list of pairs')
    for rel in relations:
        if not isinstance(rel, (list, tuple)) or len(rel) != 2:
            raise ValueError(f'relation {rel!r} is not a pair')
    return build_poset(elements, relations)
