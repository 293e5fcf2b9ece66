import pytest

from posetforge import (
    BadParameters,
    FerrersDiagram,
    NotAnAntichain,
    antichain_exchange_poset,
    diagrams_in_box,
    durfee_compose,
    durfee_decompose,
    durfee_length,
    durfee_poset,
    find_isomorphism,
    gale_poset,
    grid_poset,
    spin_antichain_merge,
    split_grid_antichain,
)
from posetforge.poset import grid_points, point_label


def durfee_oracle(d: FerrersDiagram) -> int:
    """Scan every k and test the square inclusion cell by cell."""
    cells = set(d.cells())
    k = 0
    while all((i, j) in cells for i in range(1, k + 2) for j in range(1, k + 2)):
        k += 1
    return k


def test_durfee_empty():
    assert durfee_length(FerrersDiagram((), (3, 3))) == 0


def test_durfee_staircase():
    d = FerrersDiagram((3, 2, 1), (3, 3))
    assert durfee_length(d) == durfee_oracle(d) == 2


def test_durfee_full_box():
    for a, b in [(2, 5), (4, 3), (3, 3)]:
        d = FerrersDiagram((a,) * b, (a, b))
        assert durfee_length(d) == min(a, b)


def test_durfee_matches_oracle_exhaustively():
    for d in diagrams_in_box(4, 4):
        assert durfee_length(d) == durfee_oracle(d)


def test_diagram_counts_in_box():
    assert len(diagrams_in_box(2, 2)) == 6
    assert len(diagrams_in_box(3, 3)) == 20
    assert len(diagrams_in_box(0, 3)) == 1


def recursive_diagrams_in_box(a: int, b: int) -> list[FerrersDiagram]:
    """The recursive enumeration that diagrams_in_box replaced, kept as a reference."""
    out: list[FerrersDiagram] = []

    def extend(prefix: list[int], limit: int, cols_left: int) -> None:
        out.append(FerrersDiagram(tuple(prefix), (a, b)))
        if cols_left == 0:
            return
        for h in range(1, limit + 1):
            extend(prefix + [h], h, cols_left - 1)

    extend([], a, b)
    return sorted(out, key=lambda d: d.heights)


def test_diagrams_in_box_match_the_recursive_reference():
    for a in range(7):
        for b in range(7):
            assert diagrams_in_box(a, b) == recursive_diagrams_in_box(a, b), (a, b)


def test_diagrams_in_box_do_not_recurse_per_column():
    # the recursive version raised RecursionError here
    diagrams = diagrams_in_box(1, 1100)
    assert len(diagrams) == 1101
    assert diagrams[-1].heights == (1,) * 1100


def test_diagram_validation():
    with pytest.raises(BadParameters):
        FerrersDiagram((1, 2), (3, 3))
    with pytest.raises(BadParameters):
        FerrersDiagram((4,), (3, 3))
    assert FerrersDiagram((2, 0), (2, 2)).label == "(2)"


@pytest.mark.parametrize("box", [(-1, 0), (0, -1), (-2, 3), (3, -2)], ids=str)
def test_negative_box_sides_are_rejected(box):
    with pytest.raises(BadParameters, match="nonnegative"):
        FerrersDiagram((), box)
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
    for a in range(5):
        for b in range(5):
            for k in range(min(a, b) + 1):
                D = durfee_poset(a, b, k)
                prod = gale_poset(a, k).product(gale_poset(b, k))
                assert D.n == prod.n
                assert find_isomorphism(D, prod) is not None


def test_durfee_poset_matches_containment_oracle():
    for a in range(6):
        for b in range(6):
            diagrams = diagrams_in_box(a, b)
            for k in range(min(a, b) + 1):
                level = [d for d in diagrams if durfee_oracle(d) == k]
                up = tuple(
                    sum(1 << j for j, e in enumerate(level) if j != i and e.contains(d))
                    for i, d in enumerate(level)
                )
                D = durfee_poset(a, b, k)
                assert D.labels == tuple(d.label for d in level)
                assert D.up == up, (a, b, k)


def test_decompose_full_square():
    k, top, side = durfee_decompose(FerrersDiagram((3, 3, 3), (3, 3)))
    assert k == 3
    assert top == FerrersDiagram((), (3, 0)) and side == FerrersDiagram((), (0, 3))


def test_decompose_staircase():
    d = FerrersDiagram((3, 2, 1), (3, 3))
    k, top, side = durfee_decompose(d)
    assert k == 2
    assert top == FerrersDiagram((1,), (2, 1)) and top.cells() == [(1, 1)]
    assert side == FerrersDiagram((1,), (1, 2)) and side.cells() == [(1, 1)]
    assert durfee_compose(3, 3, k, top, side) == d


def grid_ideal_decompose(d: FerrersDiagram):
    """The cut as it was made on grid ideals, kept as a reference: the
    cells past column k shifted left into [k] x [b-k], and the cells
    above row k shifted down into [a-k] x [k], each an ideal of a fresh
    grid poset."""
    a, b = d.box
    k = durfee_length(d)
    top = [point_label(i, j - k) for (i, j) in d.cells() if j > k]
    side = [point_label(i - k, j) for (i, j) in d.cells() if i > k]
    return k, grid_poset(k, b - k).ideal(top), grid_poset(a - k, k).ideal(side)


def test_decompose_matches_the_grid_ideal_reference():
    for a in range(6):
        for b in range(6):
            for d in diagrams_in_box(a, b):
                k, top, side = durfee_decompose(d)
                ref_k, ref_top, ref_side = grid_ideal_decompose(d)
                assert k == ref_k
                assert sorted(top.cells()) == sorted(grid_points(ref_top)), d
                assert sorted(side.cells()) == sorted(grid_points(ref_side)), d
                assert top.box[0] * top.box[1] == ref_top.poset.n
                assert side.box[0] * side.box[1] == ref_side.poset.n


def test_compose_rejects_parts_in_the_wrong_boxes():
    k, top, side = durfee_decompose(FerrersDiagram((3, 2, 1), (3, 3)))
    assert durfee_compose(3, 3, k, top, side).heights == (3, 2, 1)
    bad = [
        (3, 3, k, side, top),  # parts swapped: (1, 2) and (2, 1) boxes
        (3, 4, k, top, side),  # top box is (2, 1), not (2, 2)
        (4, 3, k, top, side),  # side box is (1, 2), not (2, 2)
        (3, 3, 1, top, side),
        (3, 3, 4, top, side),  # no 4 x 4 square fits
        (3, 3, -1, top, side),
    ]
    for a, b, kk, t, s in bad:
        with pytest.raises(BadParameters):
            durfee_compose(a, b, kk, t, s)


def test_diagram_given_as_a_list_is_stored_as_a_tuple():
    d = FerrersDiagram([3, 2, 1, 0], [3, 4])
    assert d == FerrersDiagram((3, 2, 1), (3, 4))
    assert isinstance(d.heights, tuple) and isinstance(d.box, tuple)
    assert hash(d) == hash(FerrersDiagram((3, 2, 1), (3, 4)))


def test_decompose_roundtrip_exhaustive():
    for a in range(5):
        for b in range(5):
            for d in diagrams_in_box(a, b):
                k, top, side = durfee_decompose(d)
                assert durfee_compose(a, b, k, top, side) == d


def test_split_unique_antichain_of_2x2():
    G = grid_poset(2, 2)
    xs, ys = split_grid_antichain(2, 2, G.antichain(["(1,2)", "(2,1)"]))
    assert xs.entries == (1, 2) and ys.entries == (1, 2)


def test_split_empty():
    G = grid_poset(2, 2)
    xs, ys = split_grid_antichain(2, 2, G.antichain([]))
    assert xs.entries == () and ys.entries == ()


def test_split_preserves_covers_both_ways():
    G = grid_poset(3, 3)
    E = antichain_exchange_poset(G, 2)
    prod = gale_poset(3, 2).product(gale_poset(3, 2))
    label_map = {}
    for A in G.antichains_of_size(2):
        xs, ys = split_grid_antichain(3, 3, A)
        label_map[A.label] = f"({xs.label},{ys.label})"
    assert set(label_map.values()) == set(prod.labels)
    mapped = {(label_map[a], label_map[b]) for a, b in E.covers()}
    assert mapped == set(prod.covers())


def test_merge_empty():
    P = gale_poset(4, 2)
    assert spin_antichain_merge(2, P.antichain([])).entries == ()


def test_merge_crossing_pair():
    P = gale_poset(4, 2)
    assert spin_antichain_merge(2, P.antichain(["(1,4)", "(2,3)"])).entries == (1, 2, 3, 4)


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
