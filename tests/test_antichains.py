import random

import numpy as np
import pytest
from hypothesis import given, settings

from posetforge import (
    BadParameters,
    DuplicateLabel,
    SizeMismatch,
    antichain_exchange_poset,
    antichain_ideal_poset,
    build_poset,
    chain_poset,
    discrete_poset,
    find_isomorphism,
    grid_poset,
    ideal_leq,
    is_distributive,
    is_exchange_cover,
    poset_to_dict,
    refinement_report,
)
from posetforge.antichains import swap_map_covers
from posetforge.minuscule import E6Kind, E7Kind, Grid, NaturalD, SpinD, minuscule_poset
from posetforge.poset import Poset, _bits, _check_order
from posetforge.sequences import gale_poset

from conftest import closure, has_order_matching, leq_matrix, posets


def bowtie():
    return build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")],
    )


# -- the ideal order ----------------------------------------------------------


def test_empty_below_everything():
    P = bowtie()
    empty = P.antichain([])
    for k in range(P.width() + 1):
        for A in P.antichains_of_size(k):
            assert ideal_leq(empty, A)


def test_bowtie_ideal_order():
    P = bowtie()
    low = P.antichain(["a", "b"])
    high = P.antichain(["d", "e"])
    assert ideal_leq(low, high)
    assert not ideal_leq(high, low)


def test_ideal_leq_agrees_with_ideal_containment(corpus7):
    for P in corpus7:
        chains = [A for k in range(P.width() + 1) for A in P.antichains_of_size(k)]
        closures = [closure(P, A.mask) for A in chains]
        for i, A in enumerate(chains):
            for j, B in enumerate(chains):
                assert ideal_leq(A, B) == (closures[i] & ~closures[j] == 0)


@given(posets())
@settings(deadline=None, max_examples=40)
def test_ideal_leq_agreement_random(P):
    chains = [A for k in range(P.width() + 1) for A in P.antichains_of_size(k)]
    for A in chains[:20]:
        for B in chains[:20]:
            assert ideal_leq(A, B) == (closure(P, A.mask) & ~closure(P, B.mask) == 0)


# -- exchange covers -----------------------------------------------------------


def test_bowtie_has_no_exchange_cover():
    P = bowtie()
    low = P.antichain(["a", "b"])
    high = P.antichain(["d", "e"])
    assert not is_exchange_cover(low, high)
    assert not is_exchange_cover(high, low)


def test_self_is_not_a_cover():
    G = grid_poset(2, 2)
    A = G.antichain(["(1,2)", "(2,1)"])
    assert not is_exchange_cover(A, A)


def test_single_step_in_3x2_grid():
    G = grid_poset(3, 2)
    A = G.antichain(["(1,2)", "(2,1)"])
    B = G.antichain(["(1,2)", "(3,1)"])
    assert is_exchange_cover(A, B)
    assert not is_exchange_cover(B, A)


def test_size_mismatch():
    P = bowtie()
    with pytest.raises(SizeMismatch):
        is_exchange_cover(P.antichain(["a"]), P.antichain(["a", "b"]))


def test_matching_rejects_antichains_of_another_poset():
    # {1} and {2} of the 2-element antichain have no matching there, though
    # in the chain 1 < 2 they would
    C, D = chain_poset(2), discrete_poset(2)
    A, B = D.antichain(["1"]), D.antichain(["2"])
    assert not has_order_matching(D, A, B)
    with pytest.raises(ValueError, match="do not live"):
        has_order_matching(C, A, B)
    with pytest.raises(ValueError, match="do not live"):
        has_order_matching(C, C.antichain(["1"]), B)
    # an equal poset built separately is the same poset
    assert has_order_matching(chain_poset(2), C.antichain(["1"]), C.antichain(["2"]))


# -- the exchange poset ---------------------------------------------------------


def test_bowtie_exchange_poset_is_discrete():
    E = antichain_exchange_poset(bowtie(), 2)
    assert E.n == 2 and not E.lt.any()


def test_size_zero_and_above_width():
    P = bowtie()
    assert antichain_exchange_poset(P, 0).n == 1
    assert antichain_exchange_poset(P, 3).n == 0


def test_size_one_recovers_the_poset(corpus5):
    for P in corpus5:
        if P.n > 4:
            continue
        assert find_isomorphism(antichain_exchange_poset(P, 1), P) is not None


def test_edge_routes_agree(corpus5):
    for P in corpus5:
        for k in range(P.width() + 1):
            default = antichain_exchange_poset(P, k)
            oracle = antichain_exchange_poset(P, k, edges="all")
            assert np.array_equal(default.lt, oracle.lt)
            _check_order(default.up)


@given(posets())
@settings(deadline=None, max_examples=40)
def test_edge_routes_agree_random(P):
    for k in range(P.width() + 1):
        default = antichain_exchange_poset(P, k)
        oracle = antichain_exchange_poset(P, k, edges="all")
        assert np.array_equal(default.lt, oracle.lt)


def test_covers_are_exactly_single_cover_steps(corpus5):
    for P in corpus5:
        for k in range(P.width() + 1):
            E = antichain_exchange_poset(P, k)
            chains = P.antichains_of_size(k)
            for i in range(E.n):
                for j in range(E.n):
                    if i == j:
                        continue
                    assert bool(E.cover_matrix[i, j]) == is_exchange_cover(
                        chains[i], chains[j]
                    )


# -- the ideal-order poset -------------------------------------------------------


def test_bowtie_ideal_poset_is_a_chain():
    I = antichain_ideal_poset(bowtie(), 2)
    assert I.n == 2 and int(I.lt.sum()) == 1


def test_ideal_poset_at_width_is_distributive(corpus5):
    for P in corpus5:
        verdict = is_distributive(antichain_ideal_poset(P, P.width()))
        assert verdict.distributive, P.covers()


def ideal_poset_oracle(P, k):
    """Labels and up-sets of the ideal order by comparing the ideals of every pair."""
    masks = P._antichain_masks(k)
    closure = []
    for m in masks:
        c = m
        for i in _bits(m):
            c |= P.down[i]
        closure.append(c)
    up = tuple(
        sum(1 << j for j, d in enumerate(closure) if i != j and c & ~d == 0)
        for i, c in enumerate(closure)
    )
    return tuple(P.subset_label(_bits(m)) for m in masks), up


def test_ideal_poset_matches_pair_loop(corpus7):
    cases = [(P, k) for P in corpus7 for k in range(P.width() + 2)]
    cases += [(grid_poset(6, 6), k) for k in range(7)]
    for P, k in cases:
        I = antichain_ideal_poset(P, k)
        assert (I.labels, I.up) == ideal_poset_oracle(P, k), (P.covers(), k)


def test_size_one_ideal_poset_recovers_poset(corpus5):
    for P in corpus5:
        if P.n > 4:
            continue
        assert find_isomorphism(antichain_ideal_poset(P, 1), P) is not None


# -- refinement -----------------------------------------------------------------


def test_bowtie_refinement_witness():
    report = refinement_report(bowtie(), 2)
    assert report.consistent
    assert report.coarsening_witnesses == [("{a,b}", "{d,e}")]


def test_chain_has_no_witnesses():
    for k in (0, 1):
        report = refinement_report(chain_poset(4), k)
        assert report.consistent and not report.coarsening_witnesses


def test_grid_refinement_consistency():
    report = refinement_report(grid_poset(3, 3), 2)
    assert report.consistent  # exchange relations always inside the ideal order


@given(posets())
@settings(deadline=None, max_examples=30)
def test_exchange_always_inside_ideal_order(P):
    for k in range(P.width() + 1):
        assert refinement_report(P, k).consistent


# -- matching -------------------------------------------------------------------


def test_matching_on_related_pairs(corpus7):
    for P in corpus7:
        for k in range(P.width() + 1):
            E = antichain_exchange_poset(P, k)
            chains = P.antichains_of_size(k)
            for i in range(E.n):
                for j in range(E.n):
                    if E.lt[i, j]:
                        assert has_order_matching(P, chains[i], chains[j])


def test_matching_can_fail_for_unrelated():
    P = bowtie()
    A = P.antichain(["d", "e"])
    B = P.antichain(["a", "b"])
    assert not has_order_matching(P, A, B)


def matching_oracle(P, A, B):
    from itertools import permutations

    left = tuple(A)
    right = tuple(B)
    leq = leq_matrix(P)
    return any(
        all(leq[u, v] for u, v in zip(left, perm))
        for perm in permutations(right)
    )


@given(posets(max_size=6))
@settings(deadline=None, max_examples=40)
def test_matching_matches_bruteforce(P):
    for k in range(P.width() + 1):
        chains = P.antichains_of_size(k)
        for A in chains[:8]:
            for B in chains[:8]:
                assert has_order_matching(P, A, B) == matching_oracle(P, A, B)


def test_spin9_exchange_covers_match_gale():
    # 330 elements, where 256 or more elements can lie between a pair
    E = antichain_exchange_poset(minuscule_poset(SpinD(9)), 2)
    G = gale_poset(11, 4)
    assert E.n == G.n == 330
    assert len(E.covers()) == len(G.covers()) == 840


def test_negative_antichain_size_is_rejected():
    # an empty result here would let a check given a negative k pass vacuously
    P = build_poset(["a", "b"], [])
    calls = (
        P.antichains_of_size,
        lambda k: antichain_exchange_poset(P, k),
        lambda k: antichain_exchange_poset(P, k, edges="all"),
        lambda k: antichain_ideal_poset(P, k),
        lambda k: refinement_report(P, k),
    )
    for call in calls:
        with pytest.raises(BadParameters, match="-1"):
            call(-1)
        assert call(0) is not None


# -- orders built once per size, labelled on first read --------------------------

# the hosts of the benchmark's minuscule ladder
LADDER_KINDS = (Grid(5, 5), Grid(6, 6), SpinD(8), SpinD(9), NaturalD(7), E6Kind(), E7Kind())


def antichain_masks_reference(P, k):
    """Size-k antichains in index-lexicographic order, grown one size at a time."""
    comp = [u | d | 1 << i for i, (u, d) in enumerate(zip(P.up, P.down))]
    level = [0]
    for _ in range(k):
        level = [m | 1 << j for m in level for j in range(m.bit_length(), P.n) if not comp[j] & m]
    return level


def reachability_reference(succ):
    """Strict up-sets of a DAG, by a search from each vertex."""
    up = []
    for i in range(len(succ)):
        seen, todo = 0, [i]
        while todo:
            for j in _bits(succ[todo.pop()] & ~seen):
                seen |= 1 << j
                todo.append(j)
        up.append(seen)
    return tuple(up)


def eager_orders_reference(P, k):
    """(labels, exchange up, ideal up) with labels built eagerly by ``subset_label``."""
    masks = antichain_masks_reference(P, k)
    pos = {m: i for i, m in enumerate(masks)}
    labels = tuple(P.subset_label(_bits(m)) for m in masks)
    succ = []
    for m in masks:
        row = 0
        for a in _bits(m):
            for b in _bits(P.up[a]):
                s = m & ~(1 << a) | 1 << b
                if s in pos:
                    row |= 1 << pos[s]
        succ.append(row)
    ideals = [m | _or_rows(P.down, m) for m in masks]
    return labels, reachability_reference(succ), inclusion_reference(ideals)


def inclusion_reference(sets):
    """Strict up-sets of distinct sets under inclusion, pair by pair."""
    return tuple(sum(1 << j for j, T in enumerate(sets) if j != i and S & ~T == 0) for i, S in enumerate(sets))


def _or_rows(rows, mask):
    out = 0
    for i in _bits(mask):
        out |= rows[i]
    return out


def assert_orders_match_eager_reference(P):
    for k in range(P.width() + 2):
        labels, exchange_up, ideal_up = eager_orders_reference(P, k)
        for E in (antichain_exchange_poset(P, k), antichain_exchange_poset(P, k, edges="all")):
            assert E.labels == labels and E.up == exchange_up
        I = antichain_ideal_poset(P, k)
        assert I.labels == labels and I.up == ideal_up


def test_orders_match_eager_reference_on_corpus6(corpus6):
    for P in corpus6:
        assert_orders_match_eager_reference(P)


@pytest.mark.parametrize("kind", LADDER_KINDS, ids=repr)
def test_orders_match_eager_reference_on_ladder_hosts(kind):
    assert_orders_match_eager_reference(minuscule_poset(kind))


def test_ideals_poset_matches_eager_reference_on_corpus6(corpus6):
    for P in corpus6:
        J = P.ideals_poset()
        masks = sorted(
            (m for m in range(1 << P.n) if _or_rows(P.down, m) & ~m == 0),
            key=lambda m: (m.bit_count(), tuple(_bits(m))),
        )
        assert J.labels == tuple(P.subset_label(_bits(m)) for m in masks)
        assert J.up == inclusion_reference(masks)


def test_ideals_of_ideals_leave_the_middle_level_unlabelled():
    # minuscule_poset relabels iterated ideals p0, p1, ...; labels of the
    # levels in between, whose length grows fast, are never needed
    J = grid_poset(2, 2).ideals_poset()
    JJ = J.ideals_poset()
    assert "labels" not in J.__dict__
    assert JJ.labels[:2] == ("{}", "{{}}")


def handed_down_covers_match_derived(E):
    return E.__dict__["cover_up"] == Poset._from_up(E.labels, E.up).cover_up


def test_handed_down_covers_match_derived_covers_on_corpus7(corpus7):
    for P in corpus7:
        for k in range(P.width() + 1):
            assert handed_down_covers_match_derived(antichain_exchange_poset(P, k))


@pytest.mark.parametrize("kind", [Grid(6, 6), SpinD(9)], ids=repr)
def test_handed_down_covers_match_derived_covers_on_large_orders(kind):
    E = antichain_exchange_poset(minuscule_poset(kind), 3)
    assert E.n > 300
    assert handed_down_covers_match_derived(E)


def test_swap_map_covers_refuses_a_cover_missing_on_either_side():
    # {1} < {2} is the one swap of the 2-chain's 1-antichains, and the
    # 2-antichain's have none: each side is mapped onto the other's order
    chain, pair = chain_poset(2), discrete_poset(2)
    chain_covers, no_covers = (lambda t: [1] if t == 0 else []), (lambda t: [])
    assert swap_map_covers(chain, {0b01: 0, 0b10: 1}, range(2), chain_covers) == 1
    assert swap_map_covers(pair, {0b01: 0, 0b10: 1}, range(2), no_covers) == 0
    assert swap_map_covers(chain, {0b01: 0, 0b10: 1}, range(2), no_covers) is None
    assert swap_map_covers(pair, {0b01: 0, 0b10: 1}, range(2), chain_covers) is None
    # reversed, and no bijection: one image twice, or one outside the target
    assert swap_map_covers(chain, {0b01: 1, 0b10: 0}, range(2), chain_covers) is None
    assert swap_map_covers(pair, {0b01: 0, 0b10: 0}, range(2), no_covers) is None
    assert swap_map_covers(pair, {0b01: 0, 0b10: 2}, range(2), no_covers) is None


@pytest.mark.parametrize("P, k", [(grid_poset(3, 3), 2), (bowtie(), 2)], ids=["grid3x3", "bowtie"])
def test_default_exchange_order_is_closed_only_when_up_is_read(P, k):
    E = antichain_exchange_poset(P, k)
    assert E.n == len(E.labels) == len(E.cover_up)
    E.covers()
    poset_to_dict(E)
    if P.n == 9:  # the bowtie's order is no lattice, and the meet/join fallback reads up
        assert is_distributive(E).distributive
    assert "up" not in vars(E)
    assert E.up == antichain_exchange_poset(P, k, edges="all").up


def height_sum_rises_along_every_swap(P):
    heights = P.heights
    for k in range(P.width() + 1):
        masks = P._antichain_masks(k)
        sums = [sum(heights[i] for i in _bits(m)) for m in masks]
        E = antichain_exchange_poset(P, k)
        for i, row in enumerate(E.cover_up):
            if any(sums[j] <= sums[i] for j in _bits(row)):
                return False
    return True


def test_swap_rows_raise_the_height_sum_on_corpus6(corpus6):
    # why the swap rows can be trusted as the covers of an order: no cycle can
    # climb a sum that every step strictly raises
    assert all(height_sum_rises_along_every_swap(P) for P in corpus6)


@pytest.mark.parametrize("kind", LADDER_KINDS, ids=repr)
def test_swap_rows_raise_the_height_sum_on_ladder_hosts(kind):
    assert height_sum_rises_along_every_swap(minuscule_poset(kind))


def test_antichain_masks_in_any_order_of_sizes_match_a_fresh_enumeration(corpus6):
    rng = random.Random(17)
    hosts = [P for P in corpus6 if P.width() >= 2][::7] + [grid_poset(4, 4), bowtie()]
    for P in hosts:
        sizes = list(range(P.width() + 2)) * 3
        rng.shuffle(sizes)
        for k in sizes:
            fresh = Poset._from_up(P.labels, P.up)
            assert P._antichain_masks(k) == fresh._antichain_masks(k) == antichain_masks_reference(P, k)


def test_colliding_subset_labels_raise_on_first_read():
    # {a, "b,c"} and {"a,b", c} are both labelled {a,b,c}
    P = Poset(["a", "b,c", "a,b", "c"], [0, 0, 0, 0])
    for order in (
        antichain_exchange_poset(P, 2),
        antichain_exchange_poset(P, 2, edges="all"),
        antichain_ideal_poset(P, 2),
    ):
        assert order.n == 6
        with pytest.raises(DuplicateLabel, match=r"\{a,b,c\}"):
            order.labels
    # one subset per label at k=1, so no collision there
    assert antichain_exchange_poset(P, 1).labels == ("{a}", "{b,c}", "{a,b}", "{c}")
