import numpy as np
import pytest
from hypothesis import given, settings

from posetforge import (
    BadParameters,
    SizeMismatch,
    antichain_exchange_poset,
    antichain_ideal_poset,
    build_poset,
    chain_poset,
    discrete_poset,
    find_isomorphism,
    grid_poset,
    has_order_matching,
    ideal_leq,
    is_distributive,
    is_exchange_cover,
    refinement_report,
)
from posetforge.minuscule import SpinD, minuscule_poset
from posetforge.poset import _bits, _check_order
from posetforge.sequences import gale_poset

from conftest import leq_matrix, posets


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
        closures = [A.ideal().mask for A in chains]
        for i, A in enumerate(chains):
            for j, B in enumerate(chains):
                assert ideal_leq(A, B) == (closures[i] & ~closures[j] == 0)


@given(posets())
@settings(deadline=None, max_examples=40)
def test_ideal_leq_agreement_random(P):
    chains = [A for k in range(P.width() + 1) for A in P.antichains_of_size(k)]
    for A in chains[:20]:
        for B in chains[:20]:
            assert ideal_leq(A, B) == (A.ideal().mask & ~B.ideal().mask == 0)


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

    left = A.indices
    right = B.indices
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
