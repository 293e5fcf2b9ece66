import pytest

from posetforge import (
    BadParameters,
    KSubset,
    WeakChain,
    box_ideal_to_ksubset,
    entry_sum,
    find_isomorphism,
    gale_elements,
    gale_poset,
    grid_poset,
    ideal_heights,
    weak_chain_elements,
    weak_chain_poset,
    weak_chain_to_ksubset,
)
from posetforge.sequences import (
    gale_rank,
    grid_ideal_heights,
    grid_ideal_mask,
    ideal_from_heights,
    ksubset_to_weak_chain,
    shifted,
    weak_chain_entries,
)

from conftest import label_points


def test_gale_4_2_shape():
    P = gale_poset(4, 2)
    assert P.n == 6
    assert P.labels[0] == "(1,2)"  # colex puts the minimum first
    assert P.labels[-1] == "(3,4)"
    assert not P.lt[:, 0].any() and not P.lt[-1].any()


def test_gale_trivial_k():
    assert gale_poset(5, 0).n == 1
    with pytest.raises(BadParameters):
        gale_poset(2, 3)


def test_covers_of_13_in_gale_4_2():
    P = gale_poset(4, 2)
    i = P.index("(1,3)")
    ups = {P.labels[j] for j in range(P.n) if P.cover_matrix[i, j]}
    downs = {P.labels[j] for j in range(P.n) if P.cover_matrix[j, i]}
    assert ups == {"(1,4)", "(2,3)"}
    assert downs == {"(1,2)"}


def test_entry_sum_examples():
    assert entry_sum(KSubset((1, 2, 3), 5)) == 6
    assert entry_sum(KSubset((1, 3, 4), 6)) == 8


def test_entry_sum_ranks_covers():
    elems = gale_elements(6, 3)
    P = gale_poset(6, 3)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if P.cover_matrix[i, j]:
                assert entry_sum(y) == entry_sum(x) + 1
                diff = [(u, v) for u, v in zip(x.entries, y.entries) if u != v]
                assert len(diff) == 1 and diff[0][1] == diff[0][0] + 1


def test_weak_chain_posets_small():
    assert weak_chain_poset(1, 1).n == 2
    assert weak_chain_poset(2, 2).n == 6


def test_weak_chain_cover():
    P = weak_chain_poset(2, 2)
    assert P.cover_matrix[P.index("(0,1)"), P.index("(1,1)")]


def test_shift_of_minimum():
    for a, b in [(2, 3), (4, 1), (3, 3)]:
        bottom = WeakChain((0,) * b, a)
        assert weak_chain_to_ksubset(bottom).entries == tuple(range(1, b + 1))


def test_shift_example():
    assert weak_chain_to_ksubset(WeakChain((0, 1), 2)).entries == (1, 3)


def test_shift_inverse():
    for x in weak_chain_elements(3, 2):
        assert ksubset_to_weak_chain(weak_chain_to_ksubset(x)) == x


def test_shift_is_an_isomorphism_pairwise():
    elems = weak_chain_elements(3, 2)
    images = [weak_chain_to_ksubset(e) for e in elems]
    assert len({im.entries for im in images}) == len(elems)
    for x, ix in zip(elems, images):
        for y, iy in zip(elems, images):
            assert x.leq(y) == ix.leq(iy)


def test_ideal_heights_of_empty():
    G = grid_poset(3, 2)
    assert ideal_heights(3, 2, G.ideal([])).entries == (0, 0)


def test_ideal_heights_example():
    G = grid_poset(2, 2)
    I = G.ideal(["(1,1)", "(2,1)", "(1,2)"])
    assert ideal_heights(2, 2, I).entries == (1, 2)


def test_ideal_heights_roundtrip():
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            for I in G.ideals():
                chain = ideal_heights(a, b, I)
                assert ideal_from_heights(G, a, b, chain) == I


def test_composite_map_is_an_isomorphism():
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            J = G.ideals_poset()
            C = gale_poset(a + b, b)
            label_map = {
                I.label: box_ideal_to_ksubset(a, b, I).label for I in G.ideals()
            }
            assert set(label_map.values()) == set(C.labels)
            img = [C.index(label_map[lab]) for lab in J.labels]
            for i in range(J.n):
                for j in range(J.n):
                    assert J.lt[i, j] == C.lt[img[i], img[j]]


def test_gale_rank_is_the_index_in_the_gale_order():
    for n in range(9):
        for k in range(n + 1):
            P = gale_poset(n, k)
            for i, x in enumerate(gale_elements(n, k)):
                assert gale_rank(x.entries) == i
                assert P.labels[i] == x.label


def test_weak_chain_entries_are_the_weak_chain_order():
    for a in range(5):
        for b in range(5):
            elems = weak_chain_elements(a, b)
            assert weak_chain_entries(a, b) == [e.entries for e in elems]
            assert list(weak_chain_poset(a, b).labels) == [e.label for e in elems]
            assert [shifted(e.entries) for e in elems] == [
                weak_chain_to_ksubset(e).entries for e in elems
            ]


def test_grid_ideal_heights_read_the_point_labels_and_invert():
    # the mask route against the heights read from the ideal's point labels
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            for I in G.ideals():
                heights = [0] * (b + 1)
                for i, j in label_points(I):
                    heights[j] = max(heights[j], i)
                chain = grid_ideal_heights(b, I.mask)
                assert chain == tuple(heights[b - p] for p in range(b))
                assert grid_ideal_mask(b, chain) == I.mask


def test_ideal_heights_reject_a_host_of_another_size():
    with pytest.raises(BadParameters):
        ideal_heights(2, 2, grid_poset(2, 3).ideal([]))
    with pytest.raises(BadParameters):
        ideal_from_heights(grid_poset(2, 3), 2, 2, WeakChain((0, 0), 2))


def test_binomial_symmetry_up_to_iso():
    for a in range(5):
        for b in range(5):
            assert find_isomorphism(gale_poset(a + b, b), gale_poset(a + b, a)) is not None


def test_ksubset_validation():
    with pytest.raises(BadParameters):
        KSubset((2, 2), 4)
    with pytest.raises(BadParameters):
        KSubset((0, 1), 4)
    with pytest.raises(BadParameters):
        WeakChain((2, 1), 3)


def test_entries_given_as_a_list_are_stored_as_a_tuple():
    for value, same in [
        (KSubset([1, 3], 4), KSubset((1, 3), 4)),
        (WeakChain([0, 2, 2], 3), WeakChain((0, 2, 2), 3)),
    ]:
        assert value == same
        assert isinstance(value.entries, tuple)
        assert hash(value) == hash(same)
