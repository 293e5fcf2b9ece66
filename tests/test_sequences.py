from itertools import combinations, combinations_with_replacement

import pytest

from posetforge import BadParameters, find_isomorphism, gale_poset, grid_poset, weak_chain_poset
from posetforge.poset import _bits
from posetforge.sequences import (
    gale_entries,
    gale_rank,
    grid_ideal_heights,
    grid_ideal_mask,
    shifted,
    weak_chain_entries,
)

from conftest import label_points


def colex(n, k):
    """The k-subsets of {1..n} as increasing tuples in colexicographic order.

    Read off the n-bit masks with k bits set, in increasing order: comparing
    two masks as integers compares their largest differing members.
    """
    return [
        tuple(v + 1 for v in range(n) if mask >> v & 1)
        for mask in range(1 << n)
        if mask.bit_count() == k
    ]


def tuple_label(entries):
    return "(" + ",".join(str(v) for v in entries) + ")"


def label_heights(G, mask, b):
    """The column heights of an ideal of the grid G, lowest column first, read from its point labels."""
    heights = [0] * (b + 1)
    for i, j in label_points(G, mask):
        heights[j] = max(heights[j], i)
    return tuple(heights[b - p] for p in range(b))


def leq(x, y):
    return all(u <= v for u, v in zip(x, y))


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
    # the entry sum less k(k+1)/2 is the rank: (1,2,3) is the bottom, and
    # (1,3,4), of sum 8, lies on top of the 2-chain (1,2,3) < (1,2,4)
    P = gale_poset(6, 3)
    assert P.labels[0] == "(1,2,3)" and not P.down[0]
    below = [P.labels[j] for j in _bits(P.down[P.index("(1,3,4)")])]
    assert sorted(below) == ["(1,2,3)", "(1,2,4)"]


def test_entry_sum_ranks_covers():
    elems = colex(6, 3)
    P = gale_poset(6, 3)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if P.cover_matrix[i, j]:
                assert sum(y) == sum(x) + 1
                diff = [(u, v) for u, v in zip(x, y) if u != v]
                assert len(diff) == 1 and diff[0][1] == diff[0][0] + 1


def test_weak_chain_posets_small():
    assert weak_chain_poset(1, 1).n == 2
    assert weak_chain_poset(2, 2).n == 6


def test_weak_chain_cover():
    P = weak_chain_poset(2, 2)
    assert P.cover_matrix[P.index("(0,1)"), P.index("(1,1)")]


def test_shift_of_minimum():
    for b in range(5):
        assert shifted((0,) * b) == tuple(range(1, b + 1))


def test_shift_example():
    assert shifted((0, 1)) == (1, 3)


def test_shift_inverse():
    # position p (from 1) goes back down by p
    for a, b in [(3, 2), (2, 4), (0, 3)]:
        chains = weak_chain_entries(a, b)
        assert [tuple(v - p for p, v in enumerate(shifted(x), 1)) for x in chains] == chains


def test_shift_is_an_isomorphism_pairwise():
    elems = list(combinations_with_replacement(range(4), 2))
    images = [shifted(e) for e in elems]
    assert len(set(images)) == len(elems)
    for x, ix in zip(elems, images):
        for y, iy in zip(elems, images):
            assert leq(x, y) == leq(ix, iy)


def test_ideal_heights_of_empty():
    assert grid_ideal_heights(2, 0) == (0, 0)  # in grid_poset(3, 2)


def test_ideal_heights_example():
    G = grid_poset(2, 2)
    mask = G._resolve(["(1,1)", "(2,1)", "(1,2)"])
    assert mask in G.ideal_masks()
    assert grid_ideal_heights(2, mask) == (1, 2)


def test_ideal_heights_roundtrip():
    # the mask rebuilt from the heights is an ideal of the grid, and the one read
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            for mask in G.ideal_masks():
                assert grid_ideal_mask(b, grid_ideal_heights(b, mask)) == mask


def test_composite_map_is_an_isomorphism():
    # heights read from the ideals' point labels, then shifted, against the Gale labels
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            J = G.ideals_poset()
            C = gale_poset(a + b, b)
            label_map = {
                G.subset_label(_bits(mask)):
                    tuple_label(h + p for p, h in enumerate(label_heights(G, mask, b), 1))
                for mask in G.ideal_masks()
            }
            assert set(label_map.values()) == set(C.labels)
            img = [C.index(label_map[lab]) for lab in J.labels]
            for i in range(J.n):
                for j in range(J.n):
                    assert J.lt[i, j] == C.lt[img[i], img[j]]


def test_gale_rank_is_the_index_in_the_gale_order():
    for n in range(9):
        for k in range(n + 1):
            subsets = colex(n, k)
            assert [gale_rank(x) for x in subsets] == list(range(len(subsets)))


def test_weak_chain_entries_are_the_weak_chain_order():
    for a in range(5):
        for b in range(5):
            chains = weak_chain_entries(a, b)
            assert chains == list(combinations_with_replacement(range(a + 1), b))
            # the shift adds one fixed tuple, so it keeps the lexicographic order
            assert [shifted(t) for t in chains] == list(combinations(range(1, a + b + 1), b))


def test_gale_and_weak_chain_labels_are_the_itertools_tuples():
    # labels and element order, byte for byte: the benchmark oracle, the iso
    # outputs and the certificate digests read them
    for n in range(9):
        for k in range(n + 1):
            assert gale_entries(n, k) == colex(n, k)
            assert list(gale_poset(n, k).labels) == [tuple_label(t) for t in colex(n, k)]
    for a in range(9):
        for b in range(9 - a):
            chains = combinations_with_replacement(range(a + 1), b)
            assert list(weak_chain_poset(a, b).labels) == [tuple_label(t) for t in chains]
    assert gale_poset(3, 2).labels == ("(1,2)", "(1,3)", "(2,3)")
    assert gale_poset(4, 0).labels == ("()",)
    assert weak_chain_poset(2, 1).labels == ("(0)", "(1)", "(2)")


@pytest.mark.parametrize(
    "build, args",
    [
        (gale_poset, (2, 3)),
        (gale_poset, (3, -1)),
        (gale_poset, (-1, 0)),
        (weak_chain_poset, (-1, 2)),
        (weak_chain_poset, (2, -1)),
    ],
    ids=["gale-k-above-n", "gale-negative-k", "gale-negative-n", "weak-negative-a", "weak-negative-b"],
)
def test_bad_parameters_are_rejected(build, args):
    with pytest.raises(BadParameters):
        build(*args)


def test_grid_ideal_heights_read_the_point_labels_and_invert():
    # the mask route against the heights read from the ideal's point labels
    for a in range(4):
        for b in range(4):
            G = grid_poset(a, b)
            for mask in G.ideal_masks():
                chain = grid_ideal_heights(b, mask)
                assert chain == label_heights(G, mask, b)
                assert grid_ideal_mask(b, chain) == mask


def test_binomial_symmetry_up_to_iso():
    for a in range(5):
        for b in range(5):
            assert find_isomorphism(gale_poset(a + b, b), gale_poset(a + b, a)) is not None
