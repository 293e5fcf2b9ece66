"""Independent answers for every benchmark operation.

Nothing here imports posetforge.  A finite order is a list ``up`` of
Python-int bitsets, ``up[i]`` holding the elements strictly above
element i, next to a list of labels.  Everything is exact integer
arithmetic: closures propagate ORs in reverse topological order,
counts come from ``int.bit_count``, and sequence orders come from the
componentwise and bump-one-entry rules.  Label conventions follow the
program's documented ones (subset labels list members by index, ideal
lists run smallest first with ties broken by member indices, Gale
elements run in colexicographic order), so outputs compare label by
label.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# Class counts of posets on 0..8 points (Brinkmann & McKay, "Posets on
# up to 16 points", Order 19, 2002).
POSET_CLASSES = (1, 1, 2, 5, 16, 63, 318, 2045, 16999)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def down_sets(up: list[int]) -> list[int]:
    down = [0] * len(up)
    for i, m in enumerate(up):
        for j in bits(m):
            down[j] |= 1 << i
    return down


def strict_order_error(up: list[int]) -> str | None:
    """Why ``up`` is not an irreflexive, antisymmetric, transitive relation."""
    for i, m in enumerate(up):
        if (m >> i) & 1:
            return f"element {i} lies above itself"
        for j in bits(m):
            if (up[j] >> i) & 1:
                return f"elements {i} and {j} lie above each other"
            if up[j] & ~m:
                return f"relation not transitive at {i} < {j}"
    return None


def close(edges: list[int]) -> list[int] | None:
    """Transitive closure of a digraph given by out-neighbour bitsets; None on a cycle."""
    n = len(edges)
    indeg = [0] * n
    for m in edges:
        for j in bits(m):
            indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        for j in bits(edges[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        return None
    up = list(edges)
    for i in reversed(order):
        acc = edges[i]
        for j in bits(edges[i]):
            acc |= up[j]
        up[i] = acc
    return up


def covers(up: list[int]) -> list[int]:
    """Upper covers of each element: what lies above it and above nothing between."""
    out = []
    for m in up:
        shadow = 0
        for j in bits(m):
            shadow |= up[j]
        out.append(m & ~shadow)
    return out


def comparable_pairs(up: list[int]) -> int:
    return sum(m.bit_count() for m in up)


def subset_label(labels: list[str], members) -> str:
    return "{" + ",".join(labels[i] for i in members) + "}"


# -- antichains and the two orders on them -------------------------------------


def _incomparable(up: list[int]) -> list[int]:
    down = down_sets(up)
    full = (1 << len(up)) - 1
    return [full & ~(u | d | (1 << i)) for i, (u, d) in enumerate(zip(up, down))]


def antichains(up: list[int], k: int) -> list[tuple[int, ...]]:
    """Size-k antichains in lexicographic order of member indices.

    Grows cliques of the incomparability graph, so its cost follows the
    answer rather than C(n, k); :func:`antichain_count` is the
    brute-force route it is checked against on small hosts.
    """
    n = len(up)
    free = _incomparable(up)
    out: list[tuple[int, ...]] = []

    def grow(chosen: tuple[int, ...], allowed: int) -> None:
        if len(chosen) == k:
            out.append(chosen)
            return
        start = chosen[-1] + 1 if chosen else 0
        for i in bits(allowed >> start << start):
            grow(chosen + (i,), allowed & free[i])

    if 0 <= k <= n:
        grow((), (1 << n) - 1)
    return out


def antichain_count(up: list[int], k: int) -> int:
    """Brute force over all k-subsets."""
    free = _incomparable(up)
    return sum(
        all((free[a] >> b) & 1 for a, b in combinations(c, 2))
        for c in combinations(range(len(up)), k)
    )


def exchange_order(labels: list[str], up: list[int], k: int):
    """(labels, up, single cover-replacement edges) of the size-k exchange order."""
    members = antichains(up, k)
    pos = {sum(1 << i for i in c): r for r, c in enumerate(members)}
    host_cov = covers(up)
    edges = []
    for c in members:
        mask = sum(1 << i for i in c)
        out = 0
        for a in c:
            rest = mask & ~(1 << a)
            for b in bits(host_cov[a]):
                target = pos.get(rest | (1 << b))
                if target is not None:
                    out |= 1 << target
        edges.append(out)
    closed = close(edges)
    if closed is None:
        raise ValueError("exchange relation has a cycle")
    return [subset_label(labels, c) for c in members], closed, edges


def ideal_order(labels: list[str], up: list[int], k: int):
    """(labels, up) of the size-k antichains ordered by containment of generated ideals."""
    down = down_sets(up)
    members = antichains(up, k)
    gen = []
    for c in members:
        m = 0
        for i in c:
            m |= down[i] | (1 << i)
        gen.append(m)
    rel = []
    for r, g in enumerate(gen):
        m = 0
        for s, h in enumerate(gen):
            if r != s and g & ~h == 0:
                m |= 1 << s
        rel.append(m)
    return [subset_label(labels, c) for c in members], rel


# -- host posets and closed-form targets -----------------------------------------


def grid(a: int, b: int):
    pts = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    up = [
        sum(1 << s for s, (p, q) in enumerate(pts) if (p, q) != (i, j) and i <= p and j <= q)
        for (i, j) in pts
    ]
    return [f"({i},{j})" for i, j in pts], up


def ideal_masks(up: list[int]) -> list[int]:
    """Every down-closed subset, smallest first, ties by sorted member indices."""
    down = down_sets(up)
    seen = {0}
    stack = [0]
    while stack:
        m = stack.pop()
        for i in range(len(up)):
            if not (m >> i) & 1 and down[i] & ~m == 0 and m | (1 << i) not in seen:
                seen.add(m | (1 << i))
                stack.append(m | (1 << i))
    return sorted(seen, key=lambda m: (m.bit_count(), tuple(bits(m))))


def ideal_lattice(up: list[int]) -> list[int]:
    """Containment order on the ideals of ``up``, in :func:`ideal_masks` order."""
    masks = ideal_masks(up)
    return [
        sum(1 << s for s, h in enumerate(masks) if s != r and g & ~h == 0)
        for r, g in enumerate(masks)
    ]


def family_host(family: str, param: tuple[int, ...]):
    """The minuscule host: a grid, or iterated ideal lattices of a small grid."""
    if family == "grid":
        return grid(*param)
    if family == "spin":
        base, times = (param[0], 2), 1
    elif family == "natural":
        base, times = (2, 2), param[0]
    else:
        base, times = (2, 3), {"e6": 2, "e7": 3}[family]
    up = grid(*base)[1]
    for _ in range(times):
        up = ideal_lattice(up)
    return [f"p{i}" for i in range(len(up))], up


def gale(n: int, k: int):
    """Gale order on k-subsets of 1..n: (labels, up, bump-one-entry covers)."""
    elems = sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])
    pos = {e: r for r, e in enumerate(elems)}
    up = [
        sum(1 << s for s, y in enumerate(elems) if s != r and all(p <= q for p, q in zip(x, y)))
        for r, x in enumerate(elems)
    ]
    cov = []
    for x in elems:
        m = 0
        for t in range(k):
            bumped = x[:t] + (x[t] + 1,) + x[t + 1 :]
            if bumped in pos:
                m |= 1 << pos[bumped]
        cov.append(m)
    labels = ["(" + ",".join(map(str, e)) + ")" for e in elems]
    return labels, up, cov


def product(p_labels, p_up, q_labels, q_up):
    """Componentwise order on pairs, first factor major, labels "(p,q)"."""
    nq = len(q_up)
    up = []
    for i in range(len(p_up)):
        for j in range(nq):
            m = 0
            for i2 in list(bits(p_up[i])) + [i]:
                for j2 in list(bits(q_up[j])) + [j]:
                    if (i2, j2) != (i, j):
                        m |= 1 << (i2 * nq + j2)
            up.append(m)
    return [f"({p},{q})" for p in p_labels for q in q_labels], up


def gale_product_covers(a: int, b: int, k: int) -> int:
    """Covers of Gale(a,k) x Gale(b,k): bump one entry of one coordinate."""
    ca = sum(m.bit_count() for m in gale(a, k)[2])
    cb = sum(m.bit_count() for m in gale(b, k)[2])
    return ca * comb(b, k) + cb * comb(a, k)


# -- lattice facts -----------------------------------------------------------------


def birkhoff(labels: list[str], up: list[int]) -> dict | None:
    """The ideal-representation witness when ``up`` is a distributive lattice, else None.

    Maps x to the elements with one lower cover that lie at or below x.
    The order is a distributive lattice exactly when this map is an
    order embedding onto the ideals of those elements (Birkhoff).
    """
    n = len(up)
    if n == 0:
        return None
    down = down_sets(up)
    lower_cover_counts = [0] * n
    for m in covers(up):
        for j in bits(m):
            lower_cover_counts[j] += 1
    irr = [x for x in range(n) if lower_cover_counts[x] == 1]
    phi = []
    for x in range(n):
        below = down[x] | (1 << x)
        phi.append(sum(1 << p for p, j in enumerate(irr) if (below >> j) & 1))
    if len(set(phi)) != n:
        return None
    for x in range(n):
        leq = up[x] | (1 << x)
        for y in range(n):
            if ((leq >> y) & 1) != (phi[x] & ~phi[y] == 0):
                return None
    irr_up = [sum(1 << q for q, j2 in enumerate(irr) if (up[j] >> j2) & 1) for j in irr]
    if len(ideal_masks(irr_up)) != n:
        return None
    return {
        labels[x]: subset_label(labels, [irr[p] for p in bits(phi[x])]) for x in range(n)
    }


def is_lattice(up: list[int]) -> bool:
    n = len(up)
    if n == 0:
        return False
    down = down_sets(up)
    leq_up = [m | (1 << i) for i, m in enumerate(up)]
    leq_down = [m | (1 << i) for i, m in enumerate(down)]
    for x in range(n):
        for y in range(x + 1, n):
            for table, common in ((leq_down, leq_down[x] & leq_down[y]), (leq_up, leq_up[x] & leq_up[y])):
                # the meet is a lower bound with every other lower bound below it,
                # the join an upper bound with every other upper bound above it
                if not any(common & ~table[z] == 0 for z in bits(common)):
                    return False
    return True


def iso_error(forward: dict, a_labels, a_up, b_labels, b_up) -> str | None:
    """Why ``forward`` is not an order isomorphism from a onto b."""
    if set(forward) != set(a_labels) or sorted(forward.values()) != sorted(b_labels):
        return "map is not a bijection between the element sets"
    b_pos = {lab: i for i, lab in enumerate(b_labels)}
    img = [b_pos[forward[lab]] for lab in a_labels]
    for i, m in enumerate(a_up):
        if sum(1 << img[j] for j in bits(m)) != b_up[img[i]]:
            return f"order not preserved at {a_labels[i]}"
    return None


# -- root poset facts ----------------------------------------------------------------


def narayana_row(n: int) -> list[int]:
    return [comb(n, k) * comb(n, k + 1) // n for k in range(n)]


def root_complement(n: int, roots: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Complement involution on an antichain of intervals [i, j] in [1, n]."""
    new_i = sorted(set(range(1, n)) - {j - 1 for _, j in roots})
    new_j = sorted(set(range(2, n + 1)) - {i + 1 for i, _ in roots})
    return list(zip(new_i, new_j))


def is_root_antichain(roots: list[tuple[int, int]]) -> bool:
    return all(
        not (i1 <= i2 and j2 <= j1) and not (i2 <= i1 and j1 <= j2)
        for (i1, j1), (i2, j2) in combinations(roots, 2)
    )


# -- fault attribution ------------------------------------------------------------------


def uint8_covers(up: list[int]) -> list[int]:
    """Covers as a uint8 matrix product finds them: interval sizes taken mod 256."""
    down = down_sets(up)
    return [
        sum(1 << j for j in bits(m) if (m & down[j]).bit_count() % 256 == 0)
        for m in up
    ]


def uint8_closure(edges: list[int]) -> list[int]:
    """Closure by repeated squaring with path counts taken mod 256."""
    reach = list(edges)
    while True:
        cols = down_sets(reach)
        grown = [
            r | sum(1 << j for j in range(len(reach)) if (r & cols[j]).bit_count() % 256)
            for r in reach
        ]
        if grown == reach:
            return reach
        reach = grown
