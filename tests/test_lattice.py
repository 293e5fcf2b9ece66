import time
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from posetforge import (
    Grid,
    SpinD,
    antichain_exchange_poset,
    antichain_ideal_poset,
    build_poset,
    chain_poset,
    discrete_poset,
    find_isomorphism,
    gale_poset,
    grid_poset,
    is_distributive,
    lattice,
    meet_join_table,
    minuscule_poset,
)
from posetforge.poset import Poset, _bits

from conftest import dense_ideal_witness, is_reindexed_copy, leq_matrix


def pentagon():
    return build_poset(
        ["0", "a", "c", "b", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


def diamond():
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def test_chain_table_is_min_max():
    P = chain_poset(3)
    table = meet_join_table(P)
    assert table.complete
    for x in range(3):
        for y in range(3):
            assert table.meet[x][y] == min(x, y)
            assert table.join[x][y] == max(x, y)


def test_two_antichain_is_not_a_lattice():
    table = meet_join_table(discrete_poset(2))
    assert not table.complete
    assert table.undefined_pair() is not None


def test_grid_ideals_form_a_lattice():
    assert meet_join_table(grid_poset(2, 2).ideals_poset()).complete


def test_empty_poset_is_not_a_lattice():
    verdict = is_distributive(discrete_poset(0))
    assert not verdict.is_lattice and not verdict.distributive


def test_no_minimum_reported_not_lattice():
    P = build_poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    verdict = is_distributive(P)
    assert not verdict.is_lattice
    assert verdict.failure["reason"].startswith("no ")


def test_pentagon_is_lattice_but_not_distributive():
    verdict = is_distributive(pentagon())
    assert verdict.is_lattice and not verdict.distributive
    assert "triple" in verdict.failure


def test_diamond_is_lattice_but_not_distributive():
    verdict = is_distributive(diamond())
    assert verdict.is_lattice and not verdict.distributive


def test_gale_poset_distributive():
    verdict = is_distributive(gale_poset(5, 2))
    assert verdict.distributive
    assert verdict.witness is not None


def bounded_two_plus_two():
    """Two 2-chains between a bottom and a top: a lattice, not distributive."""
    return build_poset(
        ["0", "a1", "a2", "b1", "b2", "1"],
        [("0", "a1"), ("a1", "a2"), ("a2", "1"), ("0", "b1"), ("b1", "b2"), ("b2", "1")],
    )


def test_join_irreducibles_of_chain():
    irr = is_distributive(chain_poset(5)).irreducibles
    assert irr.n == 4 and irr.width() == 1


def test_join_irreducibles_of_grid_ideals():
    irr = is_distributive(grid_poset(2, 2).ideals_poset()).irreducibles
    assert find_isomorphism(irr, grid_poset(2, 2)) is not None


def test_join_irreducibles_of_cube_are_atoms():
    irr = is_distributive(discrete_poset(3).ideals_poset()).irreducibles
    assert irr.n == 3 and irr.width() == 3


def test_join_irreducibles_needs_lattice():
    verdict = is_distributive(discrete_poset(2))
    assert not verdict.is_lattice and verdict.irreducibles is None


def test_ideal_lattices_distributive_with_verified_witness(corpus6):
    for Q in corpus6:
        J = Q.ideals_poset()
        verdict = is_distributive(J)
        assert verdict.distributive, Q.covers()
        # re-verify the witness; its target is the ideal lattice rebuilt from the
        # irreducibles, listed in J's order through the dense route's map
        assert verdict.witness.source is J and verdict.witness.verify()
        dense, irr = dense_ideal_witness(J)
        assert verdict.irreducibles == irr
        assert is_reindexed_copy(verdict.witness.target, irr.ideals_poset(), dense.img)
        assert verdict.witness.forward == dense.forward


def test_singleton_distributive():
    verdict = is_distributive(chain_poset(1))
    assert verdict.distributive
    assert verdict.irreducibles.n == 0


def bounds_oracle(P, x, y, direction):
    """glb/lub straight from the definition: the unique bound above/below
    every other common bound."""
    leq = leq_matrix(P)
    if direction == "meet":
        common = [z for z in range(P.n) if leq[z, x] and leq[z, y]]
        best = [z for z in common if all(leq[w, z] for w in common)]
    else:
        common = [z for z in range(P.n) if leq[x, z] and leq[y, z]]
        best = [z for z in common if all(leq[z, w] for w in common)]
    return best[0] if len(best) == 1 else -1


def test_meet_join_tables_match_definition(corpus5):
    for P in corpus5:
        table = meet_join_table(P)
        for x in range(P.n):
            for y in range(P.n):
                assert table.meet[x][y] == bounds_oracle(P, x, y, "meet")
                assert table.join[x][y] == bounds_oracle(P, x, y, "join")


def scan_extreme(members, blockers):
    """The unique i in ``members`` with no other member in blockers[i], else -1."""
    found = -1
    for i in _bits(members):
        if blockers[i] & members == 0:
            if found >= 0:
                return -1
            found = i
    return found


def scan_table(P):
    """Meet/join tables by scanning every common bound of every pair."""
    be = [d | 1 << i for i, d in enumerate(P.down)]
    ae = [u | 1 << i for i, u in enumerate(P.up)]
    meet = np.array([[scan_extreme(be[x] & be[y], P.up) for y in range(P.n)] for x in range(P.n)])
    join = np.array([[scan_extreme(ae[x] & ae[y], P.down) for y in range(P.n)] for x in range(P.n)])
    return meet, join


@pytest.mark.parametrize(
    "P",
    [
        antichain_exchange_poset(grid_poset(5, 5), 2),
        antichain_exchange_poset(discrete_poset(3).ideals_poset(), 2).product(gale_poset(5, 2)),
        chain_poset(120),
    ],
    ids=["grid5x5-k2", "cube-k2-x-gale52", "chain120"],
)
def test_meet_join_walk_matches_scan(P):
    meet, join = scan_table(P)
    table = meet_join_table(P)
    assert np.array_equal(table.meet, meet)
    assert np.array_equal(table.join, join)
    assert table.complete == bool(P.n and (meet >= 0).all() and (join >= 0).all())


def table_first_verdict(P):
    """The meet/join table, a triple scan and the ideal witness, called directly."""
    table = meet_join_table(P)
    if not table.complete:
        if P.n == 0:
            return {"distributive": False, "is_lattice": False, "failure": {"reason": "empty poset"}}
        x, y = table.undefined_pair()
        which = "meet" if table.meet[x][y] < 0 else "join"
        failure = {"reason": f"no {which}", "pair": [P.labels[x], P.labels[y]]}
        return {"distributive": False, "is_lattice": False, "failure": failure}
    meet, join = table.meet, table.join
    for x in range(P.n):
        for y in range(P.n):
            for z in range(P.n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    failure = {"reason": "distributivity fails", "triple": [P.labels[v] for v in (x, y, z)]}
                    return {"distributive": False, "is_lattice": True, "failure": failure}
    # the join-irreducibles cover exactly one element; x goes to the set of those below it,
    # which carries the order onto inclusion
    leq = leq_matrix(P)
    lt = leq & ~np.eye(P.n, dtype=bool)
    covers = lt & ~(lt.astype(int) @ lt.astype(int)).astype(bool)
    irr = np.flatnonzero(covers.sum(axis=0) == 1)
    below = leq[irr]
    assert np.array_equal((below[:, :, None] <= below[:, None, :]).all(axis=0), leq)
    forward = {lab: "{" + ",".join(P.labels[q] for q in irr if leq[q, x]) + "}" for x, lab in enumerate(P.labels)}
    witness = {"forward": forward, "backward": {v: k for k, v in forward.items()}}
    return {"distributive": True, "is_lattice": True, "witness": witness}


def test_witness_first_agrees_with_table_route(corpus5):
    orders = 0
    for Q in corpus5:
        for k in range(Q.width() + 1):
            for E in (antichain_exchange_poset(Q, k), antichain_ideal_poset(Q, k)):
                assert is_distributive(E).to_json_dict() == table_first_verdict(E), (Q.covers(), k)
                orders += 1
    assert orders == 622


def ordinal_sum(P, Q):
    """Q placed on top of P, labels prefixed "p" and "q"; indices follow that order."""
    labels = [f"p{x}" for x in P.labels] + [f"q{y}" for y in Q.labels]
    relations = [(f"p{a}", f"p{b}") for a, b in P.covers()]
    relations += [(f"q{a}", f"q{b}") for a, b in Q.covers()]
    tops = [P.labels[i] for i in range(P.n) if not P.up[i]]
    bottoms = [Q.labels[i] for i in range(Q.n) if not Q.down[i]]
    relations += [(f"p{a}", f"q{b}") for a in tops for b in bottoms]
    return build_poset(labels, relations)


@pytest.mark.parametrize(
    "lower, upper",
    [(gale_poset(8, 4), diamond()), (gale_poset(8, 4), pentagon()), (chain_poset(40), diamond())],
    ids=["gale84-under-M3", "gale84-under-N5", "chain40-under-M3"],
)
def test_late_first_failure_matches_references(lower, upper):
    P = ordinal_sum(lower, upper)
    verdict = is_distributive(P).to_json_dict()
    assert verdict == table_first_verdict(P)
    # every triple with x in the lower part holds, so the scan passes all of them first
    assert verdict["is_lattice"] and verdict["failure"]["triple"][0].startswith("q")
    meet, join = scan_table(P)
    table = meet_join_table(P)
    assert np.array_equal(table.meet, meet) and np.array_equal(table.join, join)


class CountingRows(list):
    """Rows that count how many times a walk reads one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_walks_on_a_long_chain_read_one_row_each():
    n = 400
    P = chain_poset(n)
    # chain indices follow the order, so the meet walk starts at the highest
    # common lower bound and the join walk at the lowest common upper bound
    vars(P)["down"] = CountingRows(P.down)  # computed from P.up, so before counting it
    P.up = CountingRows(P.up)
    table = meet_join_table(P)
    assert P.up.reads == P.down.reads == n * (n + 1) // 2
    # scan_table takes seconds on 400 points; on a chain it gives min and max
    assert all(table.meet[x][y] == min(x, y) for x in range(n) for y in range(n))
    assert all(table.join[x][y] == max(x, y) for x in range(n) for y in range(n))


def test_ideal_cap_stops_non_lattice_with_many_irreducibles():
    # 30 atoms over a bottom and no top: 30 join-irreducibles, 2^30 ideals of them
    atoms = [f"a{i}" for i in range(30)]
    P = build_poset(["0", *atoms], [("0", a) for a in atoms])
    start = time.perf_counter()
    verdict = is_distributive(P)
    assert time.perf_counter() - start < 1.0
    assert not verdict.is_lattice
    assert verdict.failure["reason"] == "no join"


def test_certificate_enumerates_no_ideals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ideals were enumerated")

    # the spin poset is itself built as an ideal lattice, so both orders come first
    orders = [
        antichain_exchange_poset(grid_poset(5, 5), 2),
        antichain_exchange_poset(minuscule_poset(SpinD(8)), 2),
    ]
    monkeypatch.setattr(Poset, "ideal_masks", refuse)
    for E in orders:
        assert is_distributive(E).distributive
    # 30 disjoint 2-chains: 30 join-irreducibles, 2^30 ideals of them, and no
    # cap on an enumeration to stop the certificate
    labels = [f"{s}{i}" for i in range(30) for s in "ab"]
    P = build_poset(labels, [(f"a{i}", f"b{i}") for i in range(30)])
    start = time.perf_counter()
    verdict = is_distributive(P)
    assert time.perf_counter() - start < 1.0
    assert verdict.failure["reason"] == "no meet" and not verdict.is_lattice


def assert_matches_dense_route(P):
    """The local certificate and ``dense_ideal_witness`` give one verdict, map and irreducibles,
    and one target, which the local route lists in P's order: the dense route's map reindexes it."""
    new = is_distributive(P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ideal_witness", dense_ideal_witness)
        old = is_distributive(P)
    assert new.to_json_dict() == old.to_json_dict()
    assert (new.distributive, new.is_lattice, new.failure) == (old.distributive, old.is_lattice, old.failure)
    if old.witness is None:
        assert new.witness is None and new.irreducibles is None
        return
    assert new.witness.img == tuple(range(P.n))
    assert is_reindexed_copy(new.witness.target, old.witness.target, old.witness.img)
    assert new.witness.forward == old.witness.forward
    assert new.irreducibles == old.irreducibles


def test_cover_first_certificate_matches_dense_route(corpus6):
    orders = 0
    for Q in corpus6:
        assert_matches_dense_route(Q)
        # k = width gives the Dilworth lattice, the ideal order on the maximum antichains
        for k in range(Q.width() + 1):
            for E in (antichain_exchange_poset(Q, k), antichain_ideal_poset(Q, k)):
                assert_matches_dense_route(E)
                orders += 1
    assert orders == 3182


@pytest.mark.parametrize(
    "P",
    [
        pentagon(),
        diamond(),
        bounded_two_plus_two(),
        discrete_poset(3),
        discrete_poset(0),
        antichain_exchange_poset(grid_poset(5, 5), 2),
        antichain_exchange_poset(minuscule_poset(SpinD(8)), 2),
    ],
    ids=["N5", "M3", "bounded-2+2", "discrete3", "empty", "grid5x5-k2", "spin8-k2"],
)
def test_cover_first_certificate_matches_dense_route_on_named_orders(P):
    assert_matches_dense_route(P)


def test_certificate_labels_nothing_and_reads_no_down_sets():
    E = antichain_exchange_poset(grid_poset(3, 3), 2)
    verdict = is_distributive(E)
    assert verdict.distributive
    assert "labels" not in E.__dict__ and "_cover_pass" not in E.__dict__
    # the irreducibles are named by E's labels, read when theirs are
    irr_idx = [i for i, c in enumerate(E.cover_down) if c.bit_count() == 1]
    assert verdict.irreducibles.labels == tuple(E.labels[i] for i in irr_idx)
    assert verdict.witness.to_json_dict() == dense_ideal_witness(E)[0].to_json_dict()


def _minimal_irreducible_raised(irreducible_masks):
    """``_irreducible_masks`` naming, for the first minimal irreducible, the element whose
    mask adds a second one: every mask stays, but the second now lies below the first, so
    the target loses the covers that add the first to an ideal without the second, which
    the order keeps."""

    def planted(P):
        irr, below = irreducible_masks(P)
        first, second = [t for t, j in enumerate(irr) if below[j] == 1 << t][:2]
        irr[first] = below.index(1 << first | 1 << second)
        return irr, below

    return planted


def _last_mask_flipped(irreducible_masks):
    """``_irreducible_masks`` with bit 0 of the last element's mask flipped."""

    def planted(P):
        irr, below = irreducible_masks(P)
        below[-1] ^= 1
        return irr, below

    return planted


WITNESS_FAILED = {
    "distributive": False,
    "is_lattice": True,
    "failure": {"reason": "ideal-representation witness failed verification"},
}


@pytest.mark.parametrize(
    "name, plant",
    [("_irreducible_masks", _minimal_irreducible_raised), ("_irreducible_masks", _last_mask_flipped)],
    ids=["target-cover-dropped", "irreducible-mask-flipped"],
)
def test_certificate_fails_on_a_planted_fault(monkeypatch, name, plant):
    E = antichain_exchange_poset(grid_poset(3, 3), 2)
    assert is_distributive(E).distributive
    monkeypatch.setattr(lattice, name, plant(getattr(lattice, name)))
    # the map check must catch the fault; the triple scan then finds the law holding
    assert is_distributive(E).to_json_dict() == WITNESS_FAILED


def _step_two_irreducibles_up(E, below):
    # z, the join of two covers y1, y2 of x, made a cover of x too: z lies above x
    # already and has two lower covers, so the order and every mask stay, and only
    # the step x -> z adds two irreducibles, each addable
    x, (y1, y2) = next((x, ys[:2]) for x, ys in enumerate(E.cover_lists) if len(ys) >= 2)
    lists = [list(ys) for ys in E.cover_lists]
    lists[x].append(below.index(below[y1] | below[y2]))
    return lists


def _cover_dropped(E, below):
    # a cover x -> y dropped, with y above three lower covers or more: y's mask is the
    # union of any two of theirs, so every mask stays, and the irreducible that y adds
    # to x's mask is addable and reached by no cover
    lower = Counter(chain.from_iterable(E.cover_lists))
    x, y = next((x, y) for x, ys in enumerate(E.cover_lists) for y in ys if lower[y] >= 3)
    lists = [list(ys) for ys in E.cover_lists]
    lists[x].remove(y)
    return lists


@pytest.mark.parametrize(
    "change", [_step_two_irreducibles_up, _cover_dropped], ids=["cover-two-irreducibles-up", "addable-unreached"]
)
def test_certificate_fails_on_changed_cover_lists(change):
    E = antichain_exchange_poset(grid_poset(4, 4), 2)
    irr, below = lattice._irreducible_masks(E)
    F = Poset._on_subsets(*E._subsets, cover_lists=change(E, below))
    assert lattice._irreducible_masks(F) == (irr, below)
    # the certificate reads the changed lists; the fallback reads E's order, a distributive lattice
    vars(F).update(up=E.up, cover_up=E.cover_up, _cover_pass=E._cover_pass)
    assert is_distributive(F).to_json_dict() == WITNESS_FAILED


@pytest.mark.parametrize("kind", [Grid(6, 6), SpinD(9)], ids=repr)
def test_certificate_builds_no_int_cover_rows(kind):
    E = antichain_exchange_poset(minuscule_poset(kind), 3)
    assert E.n > 300 and repr(E) == f"Poset({E.n} elements, {sum(map(len, E.cover_lists))} covers)"
    verdict = is_distributive(E)
    assert verdict.distributive
    assert "cover_up" not in E.__dict__ and "up" not in E.__dict__
    # the target is listed in E's order on E's own cover lists
    target = verdict.witness.target
    assert target.cover_lists is E.cover_lists
    assert "cover_up" not in target.__dict__ and "up" not in target.__dict__
    # re-verifying the witness compares the two orders' cover lists alone
    assert verdict.witness.verify()
    assert "cover_up" not in E.__dict__ and "cover_up" not in target.__dict__
