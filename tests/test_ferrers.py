from collections import Counter
from itertools import zip_longest

import pytest

from posetforge import (
    BadParameters,
    NotAnAntichain,
    antichain_exchange_poset,
    diagrams_in_box,
    durfee_length,
    durfee_poset,
    find_isomorphism,
    gale_poset,
    grid_poset,
)
from posetforge import ferrers
from posetforge.ferrers import durfee_cut, durfee_stack
from posetforge.poset import _componentwise_poset, grid_mask_points, tuple_label
from posetforge.sequences import shifted

from conftest import closure, label_points


def cells(heights):
    """The cells (i, j) of the diagram with these column heights: row i of column j."""
    return [(i, j) for j, h in enumerate(heights, 1) for i in range(1, h + 1)]


def contains(outer, inner):
    """Whether the diagram ``outer`` contains ``inner``: every column at least as high."""
    return all(x >= y for x, y in zip_longest(outer, inner, fillvalue=0))


def durfee_oracle(heights) -> int:
    """Scan every k and test the square inclusion cell by cell."""
    filled = set(cells(heights))
    k = 0
    while all((i, j) in filled for i in range(1, k + 2) for j in range(1, k + 2)):
        k += 1
    return k


def test_durfee_empty():
    assert durfee_length(()) == 0


def test_durfee_staircase():
    d = (3, 2, 1)
    assert durfee_length(d) == durfee_oracle(d) == 2


def test_durfee_full_box():
    for a, b in [(2, 5), (4, 3), (3, 3)]:
        assert durfee_length((a,) * b) == min(a, b)


def test_durfee_matches_oracle_exhaustively():
    for d in diagrams_in_box(4, 4):
        assert durfee_length(d) == durfee_oracle(d)


def test_diagram_counts_in_box():
    assert len(diagrams_in_box(2, 2)) == 6
    assert len(diagrams_in_box(3, 3)) == 20
    assert len(diagrams_in_box(0, 3)) == 1


def recursive_diagrams_in_box(a: int, b: int) -> list[tuple[int, ...]]:
    """The recursive enumeration that diagrams_in_box replaced, kept as a reference."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], limit: int, cols_left: int) -> None:
        out.append(tuple(prefix))
        if cols_left == 0:
            return
        for h in range(1, limit + 1):
            extend(prefix + [h], h, cols_left - 1)

    extend([], a, b)
    return sorted(out)


def test_diagrams_in_box_match_the_recursive_reference():
    for a in range(7):
        for b in range(7):
            assert diagrams_in_box(a, b) == recursive_diagrams_in_box(a, b), (a, b)


def test_diagrams_in_box_do_not_recurse_per_column():
    # the recursive version raised RecursionError here
    diagrams = diagrams_in_box(1, 1100)
    assert len(diagrams) == 1101
    assert diagrams[-1] == (1,) * 1100


def test_diagram_validation():
    # diagrams are valid by construction: weakly decreasing, no zero heights, inside the box
    for a in range(6):
        for b in range(6):
            for d in diagrams_in_box(a, b):
                assert list(d) == sorted(d, reverse=True) and 0 not in d, d
                assert len(d) <= b and all(h <= a for h in d), (a, b, d)
    assert tuple_label((2,)) == "(2)" and tuple_label(()) == "()"


@pytest.mark.parametrize("box", [(-1, 0), (0, -1), (-2, 3), (3, -2)], ids=str)
def test_negative_box_sides_are_rejected(box):
    # (-2, 3) and (3, -2) enumerate no diagram at all, so the box is checked up front
    with pytest.raises(BadParameters, match="nonnegative"):
        diagrams_in_box(*box)


def test_durfee_poset_sizes_in_2x2():
    # exactly the product-of-Gale-orders counts
    assert [durfee_poset(2, 2, k).n for k in range(3)] == [1, 4, 1]


def test_durfee_poset_zero_is_a_point():
    D = durfee_poset(3, 2, 0)
    assert D.n == 1 and D.labels == ("()",)


def test_durfee_poset_rejects_oversized_square():
    with pytest.raises(BadParameters):
        durfee_poset(2, 3, 3)


def test_durfee_poset_matches_product():
    # the search reference for the named maps the checks verify: the Frobenius map
    # onto the product, and its inverse after the grid-antichain split
    for a in range(5):
        for b in range(5):
            for k in range(min(a, b) + 1):
                D = durfee_poset(a, b, k)
                prod = gale_poset(a, k).product(gale_poset(b, k))
                assert D.n == prod.n
                assert find_isomorphism(D, prod) is not None
                assert find_isomorphism(antichain_exchange_poset(grid_poset(a, b), k), D) is not None


def test_frobenius_coordinates_are_the_weak_chain_route():
    # side's heights padded and reversed, and top's row lengths reversed, are weak
    # chains in [0, a-k] and [0, b-k]; the shift sends them into Gale(a,k) and Gale(b,k)
    for a in range(7):
        for b in range(7):
            images = [set() for _ in range(min(a, b) + 1)]
            for d in diagrams_in_box(a, b):
                k, top, side = durfee_cut(d)
                rows = Counter(i for i, _ in cells(top))  # row i has rows[i] cells
                x = shifted([side[j - 1] for j in range(k, 0, -1)])
                y = shifted([rows[i] for i in range(k, 0, -1)])
                assert ferrers.frobenius(d) == (x, y) and len(x) == durfee_oracle(d), d
                assert x[-1:] <= (a,) and y[-1:] <= (b,), d
                images[k].add(f"({tuple_label(x)},{tuple_label(y)})")
            for k, image in enumerate(images):
                # one-to-one: as many images as diagrams, and every pair of the product
                assert len(image) == durfee_poset(a, b, k).n
                assert image == set(gale_poset(a, k).product(gale_poset(b, k)).labels), (a, b, k)


def test_durfee_poset_matches_containment_oracle():
    for a in range(6):
        for b in range(6):
            diagrams = diagrams_in_box(a, b)
            for k in range(min(a, b) + 1):
                level = [d for d in diagrams if durfee_oracle(d) == k]
                up = tuple(
                    sum(1 << j for j, e in enumerate(level) if j != i and contains(e, d))
                    for i, d in enumerate(level)
                )
                D = durfee_poset(a, b, k)
                assert D.labels == tuple(map(tuple_label, level))
                assert D.up == up, (a, b, k)


def test_durfee_poset_enumerates_each_box_once(monkeypatch):
    calls = Counter()
    enumerate_box = ferrers.diagrams_in_box
    monkeypatch.setattr(ferrers, "diagrams_in_box", lambda a, b: calls.update([(a, b)]) or enumerate_box(a, b))
    ferrers._diagrams_by_durfee_length.cache_clear()
    for a in range(6):
        for b in range(6):
            for k in range(min(a, b) + 1):
                # the per-k filter over the whole box
                level = [d for d in enumerate_box(a, b) if durfee_length(d) == k]
                rows = [d + (0,) * (b - len(d)) for d in level]
                expected = _componentwise_poset([tuple_label(d) for d in level], rows)
                D = durfee_poset(a, b, k)
                assert (D.labels, D.up) == (expected.labels, expected.up), (a, b, k)
    assert calls == Counter({(a, b): 1 for a in range(6) for b in range(6)})


def test_decompose_full_square():
    # no cell above the square, and a side of k zero heights
    assert durfee_cut((3, 3, 3)) == (3, (), (0, 0, 0))
    assert durfee_stack(3, (), (0, 0, 0)) == durfee_stack(3, (), ()) == (3, 3, 3)


def test_decompose_staircase():
    d = (3, 2, 1)
    k, top, side = durfee_cut(d)
    assert k == 2
    assert top == (1,) and cells(top) == [(1, 1)]
    assert side == (1, 0) and cells(side) == [(1, 1)]
    assert durfee_stack(k, top, side) == d


def grid_ideal_decompose(d, a: int, b: int):
    """The cut as it was made on grid ideals, kept as a reference: the
    cells past column k shifted left into [k] x [b-k], and the cells
    above row k shifted down into [a-k] x [k], each an ideal of a fresh
    grid poset, returned as (grid, mask) pairs."""
    k = durfee_length(d)
    top = [tuple_label((i, j - k)) for (i, j) in cells(d) if j > k]
    side = [tuple_label((i - k, j)) for (i, j) in cells(d) if i > k]
    parts = []
    for G, members in ((grid_poset(k, b - k), top), (grid_poset(a - k, k), side)):
        mask = G._resolve(members)  # a cell outside the grid names no element
        assert closure(G, mask) == mask, (d, members)
        parts.append((G, mask))
    return k, *parts


def test_decompose_matches_the_grid_ideal_reference():
    # the reference's grids reject a cell outside them, so each part fits its box
    for a in range(6):
        for b in range(6):
            for d in diagrams_in_box(a, b):
                k, top, side = durfee_cut(d)
                ref_k, ref_top, ref_side = grid_ideal_decompose(d, a, b)
                assert k == ref_k
                assert sorted(cells(top)) == sorted(label_points(*ref_top)), d
                assert sorted(cells(side)) == sorted(label_points(*ref_side)), d


def test_decompose_roundtrip_exhaustive():
    for a in range(5):
        for b in range(5):
            for d in diagrams_in_box(a, b):
                assert durfee_stack(*durfee_cut(d)) == d


def split_antichain(b, A):
    """The split of an antichain of ``grid_poset(a, b)``, its points read from its index mask."""
    return ferrers.split_points(grid_mask_points(b, A.mask))


def test_split_unique_antichain_of_2x2():
    G = grid_poset(2, 2)
    assert split_antichain(2, G.antichain(["(1,2)", "(2,1)"])) == ((1, 2), (1, 2))


def test_split_empty():
    G = grid_poset(2, 2)
    assert split_antichain(2, G.antichain([])) == ((), ())


def test_split_preserves_covers_both_ways():
    G = grid_poset(3, 3)
    E = antichain_exchange_poset(G, 2)
    prod = gale_poset(3, 2).product(gale_poset(3, 2))
    label_map = {}
    for A in G.antichains_of_size(2):
        xs, ys = split_antichain(3, A)
        label_map[A.label] = f"({tuple_label(xs)},{tuple_label(ys)})"
    assert set(label_map.values()) == set(prod.labels)
    mapped = {(label_map[a], label_map[b]) for a, b in E.covers()}
    assert mapped == set(prod.covers())


def test_split_on_masks_matches_the_point_labels():
    for a in range(1, 5):
        for b in range(1, 5):
            G = grid_poset(a, b)
            for k in range(min(a, b) + 1):
                for A in G.antichains_of_size(k):
                    pts = sorted(label_points(G, A.mask))
                    xs, ys = split_antichain(b, A)
                    assert xs == tuple(x for x, _ in pts)
                    assert ys == tuple(y for _, y in reversed(pts))
                    # x strictly increasing and y strictly decreasing: two increasing tuples
                    assert all(u < v for t in (xs, ys) for u, v in zip(t, t[1:]))


def test_merge_pairs_matches_the_pair_order_merge():
    # the pairs of an antichain nest, x_1 < ... < x_k < y_k < ... < y_1, so
    # their merge is all their coordinates sorted
    for n in range(1, 5):
        P = gale_poset(n + 2, 2)
        for k in range(P.width() + 1):
            for A in P.antichains_of_size(k):
                pairs = label_points(P, A.mask)
                assert ferrers.merge_pairs(pairs) == tuple(sorted(v for p in pairs for v in p))


def test_merge_empty():
    assert ferrers.merge_pairs([]) == ()


def test_merge_crossing_pair():
    assert ferrers.merge_pairs([(2, 3), (1, 4)]) == (1, 2, 3, 4)


def test_comparable_pair_is_rejected_at_construction():
    P = gale_poset(4, 2)
    with pytest.raises(NotAnAntichain):
        P.antichain(["(1,3)", "(2,4)"])  # componentwise comparable


def test_merge_induces_isomorphism_small():
    for n in range(1, 4):
        G = grid_poset(n, 2)
        P = G.ideals_poset()
        for k in range((n + 2) // 2 + 1):
            E = antichain_exchange_poset(P, k)
            target = gale_poset(n + 2, 2 * k)
            assert E.n == target.n
            assert find_isomorphism(E, target) is not None
