import time

import numpy as np
import pytest

from posetforge import (
    NotALattice,
    PosetIso,
    antichain_exchange_poset,
    antichain_ideal_poset,
    build_poset,
    chain_poset,
    discrete_poset,
    find_isomorphism,
    gale_poset,
    grid_poset,
    is_distributive,
    join_irreducibles,
    meet_join_table,
)
from posetforge.poset import _bits

from conftest import leq_matrix


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


def test_join_irreducibles_of_chain():
    irr = join_irreducibles(chain_poset(5))
    assert irr.n == 4 and irr.width() == 1


def test_join_irreducibles_of_grid_ideals():
    irr = join_irreducibles(grid_poset(2, 2).ideals_poset())
    assert find_isomorphism(irr, grid_poset(2, 2)) is not None


def test_join_irreducibles_of_cube_are_atoms():
    irr = join_irreducibles(discrete_poset(3).ideals_poset())
    assert irr.n == 3 and irr.width() == 3


def test_join_irreducibles_needs_lattice():
    with pytest.raises(NotALattice):
        join_irreducibles(discrete_poset(2))


def test_ideal_lattices_distributive_with_verified_witness(corpus6):
    for Q in corpus6:
        J = Q.ideals_poset()
        verdict = is_distributive(J)
        assert verdict.distributive, Q.covers()
        # re-verify the witness independently of the internal check
        target = verdict.irreducibles.ideals_poset()
        assert verdict.witness.verify(J, target)


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
    irr, leq = join_irreducibles(P), leq_matrix(P)
    forward = {
        lab: irr.subset_label(p for p, q in enumerate(irr.labels) if leq[P.index(q), x])
        for x, lab in enumerate(P.labels)
    }
    witness = PosetIso(forward, {v: k for k, v in forward.items()})
    assert witness.verify(P, irr.ideals_poset())
    return {"distributive": True, "is_lattice": True, "witness": witness.to_json_dict()}


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
