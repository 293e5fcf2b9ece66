"""Finite posets over per-element up-set bitsets.

A poset is an immutable tuple of distinct string labels together with
``up``, one Python-int bitset per canonical index 0..n-1: bit j of
``up[i]`` means "element i is strictly below element j".  The relation
is always irreflexive, antisymmetric and transitively closed.  An order
from outside (``Poset(labels, up)``) is checked once, on entry; an order
the package builds itself (a transitive closure, a componentwise order
on distinct rows, inclusion of distinct sets) is trusted, because its
construction already proves it is an order.
Upper covers are derived from ``up`` on first use and cached as index
lists (``cover_lists``); int rows (``cover_up``) are built from them only
when read, and down-sets, lower covers, heights and depths come together
from one pass up the lists.  A cover-first order (``_on_subsets`` given
trusted ``cover_lists``: the default exchange order's swap lists, the
distributivity certificate's ideal lattice, which shares its source's
lists) turns this round: it stores only the lists, ``up`` is their
closure, taken on first read, and ``n`` counts them.  So an order read
only through its cover lists, as the certificate and a map check read
one, builds no N-bit row at all.
A poset grown by one new maximal element (``_add_maximal``, how the
corpus is built) instead gets its int cover rows and ``_cover_pass``
handed down from its parent, changed only where the new element reaches.
The views are cached in the instance ``__dict__`` without a lock.
The size-k antichains of the size asked for last are kept there too, so
the orders built at one k share one enumeration.  An order on subsets of
a host (``_on_subsets``: the antichain orders and ``ideals_poset``)
builds its "{a,b}" labels, and reads the host's, on the first read of
``labels``; most of these orders are only compared by their rows.  So
does a sub-poset made by ``_on_elements`` (the certificate's
join-irreducibles), which keeps the host's labels.
Products and the componentwise builder run on Python ints too.  Every
map is checked by one local rule, ``covers_map_onto``, which
``index_map_order_equal`` applies to two orders' cover lists for a map
given as an index list ``img``, the one form of every map.  The checks
build such lists (the points of a grid subset come from its mask,
``grid_mask_points``), and a witness ``PosetIso`` holds its source, its
target and ``img``, and builds its label maps only when they are read.
numpy is imported only to build the read-only matrix views ``lt`` and
``cover_matrix``, which nothing in the package reads.
Every CLI command loads this module (``import posetforge`` itself loads
no submodule until one of its names is used), so it keeps its imports
to the standard library's cheapest.  Every record type of the package
derives from ``_Record`` (or ``_Frozen``) instead of ``dataclasses``,
which would load ``inspect``, ``ast``, ``dis`` and ``tokenize``.

Labels are opaque at the API boundary.  All internal computation runs on
indices, with subsets handled as Python int bitmasks, so every relation
test is exact at any size.  An ideal is its mask (``ideal_masks``,
``_ideal_tops``); ``Antichain`` is the one validated subset type, for
antichains named from outside.  Every object is immutable after
construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    BadParameters,
    CycleDetected,
    DuplicateLabel,
    NotAnAntichain,
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


def _mask(indices: Iterable[int]) -> int:
    """The bitset of the given indices."""
    out = 0
    for j in indices:
        out |= 1 << j
    return out


def _comparable(P: "Poset") -> list[int]:
    """The bitset of the elements comparable to each element of P, itself left out."""
    return [u | d for u, d in zip(P.up, P.down)]


def _bit_matrix(rows: Sequence[int]) -> np.ndarray:
    """Read-only square boolean matrix with the given row bitsets."""
    import numpy as np

    n = len(rows)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    out = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
    out.setflags(write=False)
    return out


def transitive_closure(succ: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Strict up-sets (reachability), as bitsets, of a directed graph given by successor index lists.

    Orders the vertices topologically, then ORs each vertex's successors
    with their up-sets in reverse order, as in Aho, Garey & Ullman, "The
    transitive reduction of a directed graph", SIAM J. Comput. 1972.
    Raises CycleDetected when the graph has a cycle.
    """
    n = len(succ)
    indegree = [0] * n
    for js in succ:
        for j in js:
            indegree[j] += 1
    order = [i for i in range(n) if indegree[i] == 0]
    for i in order:  # grows while it is read
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < n:
        raise CycleDetected("relation has a cycle")
    up = [0] * n
    for i in reversed(order):
        row = 0
        for j in succ[i]:
            row |= up[j] | 1 << j
        up[i] = row
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
        bit = 1 << s
        while m:
            low = m & -m
            containing[low.bit_length() - 1] |= bit
            m ^= low
    every = (1 << len(sets)) - 1
    up = []
    for r, g in enumerate(gens):
        row = every & ~(1 << r)
        while g:
            low = g & -g
            row &= containing[low.bit_length() - 1]
            g ^= low
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


def tuple_label(entries: Sequence[int]) -> str:
    """The label of a tuple of integers: its entries, comma-separated in parentheses, "(1,3)"."""
    return "(" + ",".join(map(str, entries)) + ")"


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

    def __new__(cls, *args, **kwargs):
        P = super().__new__(cls)
        # the first attribute of every instance, so that keeping antichains
        # later adds no key: a key added late can turn the key-sharing
        # instance dict into a private one, 320 bytes more on each of the
        # corpus's long-lived posets
        P._antichains_kept = None
        return P

    def __init__(self, labels: Iterable[str], up: Sequence[int]):
        """Validate strict up-set rows: bit j of ``up[i]`` when i lies below j."""
        self.labels = _distinct(labels)
        n, up = len(self.labels), tuple(up)
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

    @classmethod
    def _on_subsets(
        cls,
        host: "Poset",
        masks: Sequence[int],
        up: Sequence[int] | None = None,
        *,
        cover_lists: Sequence[list[int]] | None = None,
    ) -> "Poset":
        """An order on subsets of ``host``, given as bitmasks, from trusted up-set rows or cover lists.

        Element i is labelled ``host.subset_label(_bits(masks[i]))``, from
        the host's labels, only on the first read of ``labels``: most orders
        are compared by their rows alone.  Host labels with commas can give
        two subsets one label ("a" with "b,c" and "a,b" with "c" both read
        "{a,b,c}"), which raises DuplicateLabel on that first read.  Given
        trusted ``cover_lists`` (the indices of each element's upper covers)
        in place of ``up``, the order is cover-first and keeps the lists as
        given, not copied, so two orders can share them.
        """
        if cover_lists is None:
            P = cls.__new__(cls)
            P.up = tuple(up)
        else:
            P = _CoverFirstPoset.__new__(_CoverFirstPoset)
            P.cover_lists = cover_lists
        P._subsets = (host, masks)
        return P

    @classmethod
    def _on_elements(cls, host: "Poset", indices: Sequence[int], up: Sequence[int]) -> "Poset":
        """The order ``up`` (trusted rows) on the elements of ``host`` at ``indices``.

        The elements keep the host's labels, read only on the first read of
        ``labels``.
        """
        P = cls.__new__(cls)
        P._elements = (host, indices)
        P.up = tuple(up)
        return P

    # -- basic accessors -------------------------------------------------

    @_view
    def labels(self) -> tuple[str, ...]:
        """Element labels; built here only for an order made by ``_on_subsets`` or ``_on_elements``."""
        if "_elements" in self.__dict__:
            host, indices = self._elements
            names = host.labels
            return tuple(names[i] for i in indices)
        host, masks = self._subsets
        names = host.labels
        out = []
        for m in masks:
            parts = []
            while m:
                low = m & -m
                parts.append(names[low.bit_length() - 1])
                m ^= low
            out.append("{" + ",".join(parts) + "}")
        return _distinct(out)

    @property
    def n(self) -> int:
        return len(self.up)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        covers = sum(map(len, self.cover_lists))
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
    def cover_lists(self) -> Sequence[list[int]]:
        """cover_lists[i] = the indices of the upper covers of i; callers must not change them.

        Derived in increasing order: each up-set is walked upward, skipping
        what the up-sets of the elements visited so far reach, so every cover
        is visited, and a visited element is a cover exactly when none reaches it.
        """
        up = self.up
        out = []
        for u in up:
            reach, rest, row = 0, u, []
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                row.append(j)
                reach |= up[j]
                rest &= ~(reach | low)
            if len(row) != (u & ~reach).bit_count():  # an element visited before one below it
                row = [j for j in row if not reach >> j & 1]
            out.append(row)
        return out

    @_view
    def cover_up(self) -> tuple[int, ...]:
        """cover_up[i] = bitmask of the upper covers of i, built from ``cover_lists``."""
        return tuple(map(_mask, self.cover_lists))

    @_view
    def _cover_pass(self) -> tuple[tuple[int, ...], ...]:
        """(down, cover_down, heights, depths) from one pass up the covers.

        Elements are visited by decreasing up-set size.  That is a linear
        extension, since x < y makes up[y] a proper subset of up[x], so
        every lower cover of an element is visited before it, and every
        element strictly below j lies below or on one of j's lower covers.
        Depths come from the same order walked back, from the top down.
        """
        up, cover_lists, n = self.up, self.cover_lists, self.n
        order = sorted(range(n), key=lambda i: up[i].bit_count(), reverse=True)
        down, cover_down, heights, depths = [0] * n, [0] * n, [0] * n, [0] * n
        for i in order:
            bit = 1 << i
            below, h = down[i] | bit, heights[i] + 1
            for j in cover_lists[i]:
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

    def _antichain_masks(self, k: int) -> list[int]:
        """All size-k antichains as bitmasks, in index-lexicographic order.

        The list for the size asked last is kept, so the orders built at
        one k share one enumeration; callers must not change it.  Only
        one size is kept: the corpus
        keeps its posets alive, and holding every size would grow with
        the corpus (605,062 antichains on 8 points, against 56,848 of
        maximum size).
        """
        if k < 0:
            raise BadParameters(f"antichain size must be nonnegative, not {k}")
        kept = self._antichains_kept
        if kept is not None and kept[0] == k:
            return kept[1]
        out = self._enumerate_antichains(k)
        self._antichains_kept = (k, out)
        return out

    def _enumerate_antichains(self, k: int) -> list[int]:
        if k == 0:
            return [0]
        comp = _comparable(self)
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
        # smallest first, ties in lexicographic order of the member indices:
        # of two sets of one size, that order puts first the one holding the
        # lowest bit where they differ, the larger as bits read from bit 0 up
        fmt = f"0{self.n}b"
        out = sorted(seen, key=lambda m: format(m, fmt)[::-1], reverse=True)
        out.sort(key=int.bit_count)
        return out

    def ideals_poset(self, cap: int = DEFAULT_IDEAL_CAP) -> "Poset":
        """The poset of all ideals ordered by containment."""
        masks = self.ideal_masks(cap)
        return Poset._on_subsets(self, masks, _inclusion_up(self.n, masks, masks))

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

    def relabeled(self, labels: Sequence[str] | None = None) -> "Poset":
        if labels is None:
            labels = [f"{_RELABEL_PREFIX}{i}" for i in range(self.n)]
        if len(labels) != self.n:
            raise ValueError("need exactly one new label per element")
        return Poset._from_up(labels, self.up)


class _CoverFirstPoset(Poset):
    """A poset built from trusted cover lists, which its construction proves.

    The default exchange order and the certificate's Birkhoff target are
    built so.  The lists are all it stores: ``up`` is their closure, taken
    on first read, and ``n`` counts the lists, so reading it builds no row.
    A subclass, so that every other poset keeps ``up`` a plain attribute,
    the fastest read.
    """

    @_view
    def up(self) -> tuple[int, ...]:
        return transitive_closure(self.cover_lists)

    @property
    def n(self) -> int:
        return len(self.cover_lists)


class Antichain:
    """A pairwise-incomparable subset of a host poset, stored as a bitmask.

    Iterating it yields the member indices in increasing order.
    """

    def __init__(self, poset: Poset, members: Iterable[int | str]):
        self.poset = poset
        self.mask = poset._resolve(members)
        for i in self:
            if clash := (poset.up[i] | poset.down[i]) & self.mask:
                j = next(_bits(clash))
                raise NotAnAntichain(f"{poset.labels[i]!r} and {poset.labels[j]!r} are comparable")

    @classmethod
    def _from_mask(cls, poset: Poset, mask: int) -> "Antichain":
        """Wrap a mask that the caller's construction proves an antichain, unchecked."""
        A = cls.__new__(cls)
        A.poset, A.mask = poset, mask
        return A

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
        if not isinstance(other, Antichain):
            return NotImplemented
        return self.mask == other.mask and self.poset == other.poset

    def __hash__(self) -> int:
        return hash((self.mask, self.poset.labels))

    def __repr__(self) -> str:
        return f"Antichain({self.label})"


# -- constructors ----------------------------------------------------------


def build_poset(labels: Sequence[str], relations: Iterable[Sequence[str]]) -> Poset:
    """Build a poset from generator pairs, taking the transitive closure.

    Raises CycleDetected when the closure of the generators has a cycle,
    UnknownLabel when a pair mentions a label not in ``labels``.
    """
    labels = _distinct(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    succ: list[list[int]] = [[] for _ in labels]
    for pair in relations:
        a, b = pair
        a, b = str(a), str(b)
        for end in (a, b):
            if end not in index:
                raise UnknownLabel(f"relation endpoint {end!r} is not an element")
        succ[index[a]].append(index[b])
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


def grid_mask_points(b: int, mask: int) -> list[tuple[int, int]]:
    """The (i, j) points of a subset of ``grid_poset(a, b)`` given by its index mask.

    The grid is ``chain_poset(a).product(chain_poset(b))``, so point (i, j)
    has index (i-1)*b + (j-1) and index t is ``divmod(t, b)`` plus one in
    each coordinate; the points come in index order, which sorts them.
    """
    out = []
    for t in _bits(mask):
        i, j = divmod(t, b)
        out.append((i + 1, j + 1))
    return out


# -- isomorphism search ----------------------------------------------------


def covers_map_onto(
    images: dict, covers_of: Callable, targets: Collection, target_covers_of: Callable
) -> int | None:
    """How many covers x -> ``images[x]`` carries onto covers, or None if it is no isomorphism.

    ``images`` holds every element x of the source and its image, and
    ``covers_of(x)`` lists x's upper covers; ``target_covers_of(t)`` lists
    those of target t.  A bijection onto ``targets`` that maps the upper
    covers of every element exactly onto the upper covers of its image
    carries the cover relation onto the target's, both ways, and so the
    order, its transitive closure, as well.  An image outside ``targets``
    (None included) or two elements sent to one image is no bijection,
    whatever the covers.  No order is built or closed.
    """
    if len(images) != len(targets) or set(images.values()) != set(targets):
        return None
    matched = 0
    for x, t in images.items():
        up = {images[y] for y in covers_of(x)}
        if up != set(target_covers_of(t)):
            return None
        matched += len(up)
    return matched


def index_map_order_equal(P: Poset, Q: Poset, img: Sequence[int | None]) -> bool:
    """Whether i -> ``img[i]`` is a bijection of P's indices onto Q's carrying P's order exactly onto Q's.

    ``covers_map_onto`` on the two cover lists; a short ``img`` is no bijection.
    """
    if Q.n != P.n or len(img) != P.n:
        return False
    ups, upsQ = P.cover_lists, Q.cover_lists
    return covers_map_onto(dict(enumerate(img)), ups.__getitem__, range(Q.n), upsQ.__getitem__) is not None


class _Record:
    """A value over the fields its subclass names in ``__slots__``.

    Every record type of the package derives from this class or from
    ``_Frozen``.  It gives what ``@dataclass`` would, written out so that
    loading a record type does not load ``dataclasses`` (and through it
    ``inspect``): a repr naming the fields (but those in ``_hidden``), and
    equality with records of the same type only, field by field.  Mutable
    records are unhashable, as a dataclass with ``eq`` is.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values()


class _Frozen(_Record):
    """A record whose fields cannot be assigned after construction; hashable.

    ``__init__`` sets the fields, in ``__slots__`` order, through ``_fill``,
    or one by one through ``object.__setattr__`` where construction is hot.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class PosetIso(_Frozen):
    """A witness map: element i of ``source`` goes to element ``img[i]`` of ``target``.

    ``forward`` (keyed in source order) and its inverse ``backward`` are
    label views, built on each read.
    """

    __slots__ = ("source", "target", "img")

    def __init__(self, source: Poset, target: Poset, img: Sequence[int]):
        self._fill(source, target, tuple(img))

    @property
    def forward(self) -> dict[str, str]:
        names = self.target.labels
        return {lab: names[j] for lab, j in zip(self.source.labels, self.img)}

    @property
    def backward(self) -> dict[str, str]:
        return {v: k for k, v in self.forward.items()}

    def verify(self) -> bool:
        """Direct check: a bijection carrying the source order exactly onto the target's."""
        return index_map_order_equal(self.source, self.target, self.img)

    def to_json_dict(self) -> dict:
        forward = self.forward
        return {"forward": forward, "backward": {v: k for k, v in forward.items()}}


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
                    tuple(sorted(col[j] for j in P.cover_lists[i])),
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
    return None if t < 0 else PosetIso(P, Q, mapping)


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
        return PosetIso(P, Q, ())
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
        if not all(isinstance(end, str) for end in rel):
            raise ValueError(f'relation {rel!r} must pair two strings')
    return build_poset(elements, relations)
