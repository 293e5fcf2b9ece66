import json
import random
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetforge import (
    Antichain,
    BadParameters,
    CycleDetected,
    DuplicateLabel,
    Grid,
    NotAnAntichain,
    SizeLimitExceeded,
    SpinD,
    UnknownLabel,
    antichain_exchange_poset,
    build_poset,
    chain_poset,
    diagrams_in_box,
    discrete_poset,
    durfee_length,
    durfee_poset,
    find_isomorphism,
    gale_poset,
    grid_poset,
    is_distributive,
    minuscule_poset,
    poset_from_dict,
    poset_to_dict,
    type_a_root_poset,
    weak_chain_poset,
)
from posetforge.poset import (
    Poset,
    PosetIso,
    _bits,
    _image,
    _inclusion_up,
    _initial_colours,
    _match,
    _refine,
    grid_mask_points,
    index_map_order_equal,
    tuple_label,
)
from posetforge.roots import _root_pairs, root_label
from posetforge.sequences import gale_entries, weak_chain_entries

from conftest import (
    closure,
    dense_ideal_witness,
    induced,
    is_reindexed_copy,
    label_points,
    leq_matrix,
    mask_rows,
    posets,
)


def bowtie():
    """Five elements: a,b below c, c below d,e."""
    return build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")],
    )


# -- independent oracles -----------------------------------------------------


def covers_oracle(P):
    """Brute force: comparable pairs whose open interval is empty."""
    out = []
    for i in range(P.n):
        for j in range(P.n):
            if P.lt[i, j] and not any(
                P.lt[i, z] and P.lt[z, j] for z in range(P.n)
            ):
                out.append((P.labels[i], P.labels[j]))
    return out


def transpose_oracle(rows):
    """Column bitsets of the square bit matrix with the given row bitsets, pair by pair."""
    n = len(rows)
    return tuple(sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n))


def chain_lengths_oracle(lt):
    """Longest chains strictly below and above each element, read off the
    relation matrix alone: the fixed point of h[j] = max(h[i] + 1 for i < j)
    and its mirror, iterated from zero."""
    h = d = np.zeros(len(lt), dtype=np.int64)
    while True:
        h2 = np.where(lt, h[:, None] + 1, 0).max(axis=0, initial=0)
        d2 = np.where(lt, d[None, :] + 1, 0).max(axis=1, initial=0)
        if (h2 == h).all() and (d2 == d).all():
            return tuple(h.tolist()), tuple(d.tolist())
        h, d = h2, d2


def ideal_masks_oracle(P):
    """All down-closed subsets by scanning the full powerset."""
    out = []
    for mask in range(1 << P.n):
        ok = True
        for i in range(P.n):
            if (mask >> i) & 1:
                for j in range(P.n):
                    if P.lt[j, i] and not (mask >> j) & 1:
                        ok = False
        if ok:
            out.append(mask)
    return out


def antichains_oracle(P, k):
    from itertools import combinations

    out = []
    for combo in combinations(range(P.n), k):
        if all(
            not P.lt[x, y] and not P.lt[y, x] for x in combo for y in combo if x != y
        ):
            out.append(frozenset(combo))
    return out


def width_oracle(P):
    k = 0
    while antichains_oracle(P, k + 1):
        k += 1
    return k


# -- construction ------------------------------------------------------------


def test_build_bowtie():
    P = bowtie()
    assert P.n == 5
    assert P.covers() == [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")]
    assert P.lt[P.index("a"), P.index("d")]


def test_build_singleton():
    P = build_poset(["x"], [])
    assert P.n == 1 and P.covers() == []


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        build_poset(["a"], [("a", "a")])


def test_build_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])


@pytest.mark.parametrize(
    "labels, repeated",
    [(["a", "b", "a"], "a"), (["a", "b", "b", "a"], "b"), ([1, "1"], "1"), ([2, 1, "2"], "2")],
)
def test_duplicate_label_is_named(labels, repeated):
    builders = [
        lambda: build_poset(labels, []),
        lambda: Poset._from_up(labels, [0] * len(labels)),
        lambda: discrete_poset(len(labels)).relabeled(labels),
    ]
    for build in builders:
        with pytest.raises(DuplicateLabel, match=f"label {repeated!r}"):
            build()


def test_views_are_cached_in_the_instance_dict():
    # tools that wrap the views find them as cached_property class attributes
    assert isinstance(vars(Poset)["cover_matrix"], cached_property)
    P = chain_poset(4)
    assert "cover_up" not in vars(P)
    assert P.cover_up is P.cover_up
    assert vars(P)["cover_up"] == (2, 4, 8, 0)
    assert P.depths == (3, 2, 1, 0) and "_cover_pass" in vars(P)


def test_build_unknown_label():
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "z")])


def test_direct_constructor_accepts_a_closed_order():
    P = Poset(["a", "b", "c"], [0b110, 0b100, 0])
    assert P == chain_poset(3).relabeled(["a", "b", "c"])
    assert P.covers() == [("a", "b"), ("b", "c")]
    assert Poset([], []).n == 0


@pytest.mark.parametrize(
    "up, match",
    [
        ([0b10], "need 2 up-set rows, got 1"),
        ([0b10, 0, 0], "need 2 up-set rows, got 3"),
        ([-1, 0], "row 0"),  # _bits(-1) never ends, so this must be caught first
        ([0, 0b100], "row 1"),  # a bit past the last element
        ([0b10, 1.0], "row 1"),  # not an int
    ],
    ids=["too-few", "too-many", "negative", "past-n", "not-int"],
)
def test_direct_constructor_rejects_malformed_rows(up, match):
    with pytest.raises(ValueError, match=match):
        Poset(["a", "b"], up)


def test_direct_constructor_rejects_unclosed_relation():
    with pytest.raises(ValueError, match="transitively closed"):
        Poset(["a", "b", "c"], [0b010, 0b100, 0])  # missing a < c


def test_direct_constructor_rejects_relation_missing_a_pair_with_256_paths():
    # 0 < m < 257 for all 256 middles m, but no 0 < 257: a path count of
    # 256 must not read as "no path"
    middles = (1 << 257) - 2
    up = [middles, *[1 << 257] * 256, 0]
    with pytest.raises(ValueError, match="transitively closed"):
        Poset([str(i) for i in range(258)], up)
    Poset([str(i) for i in range(258)], [middles | 1 << 257, *up[1:]])  # closed, accepted


def test_direct_constructor_rejects_cycles():
    with pytest.raises(CycleDetected):
        Poset(["a", "b"], [0b10, 0b01])
    with pytest.raises(CycleDetected):
        Poset(["a", "b"], [0b01, 0])  # a reflexive pair


def test_direct_constructor_leaves_numpy_unloaded():
    script = (
        "import sys\n"
        "from posetforge.poset import Poset\n"
        "P = Poset(['a', 'b', 'c'], [0b110, 0b100, 0])\n"
        "assert P.covers() == [('a', 'b'), ('b', 'c')]\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_transitive_closure_of_bitsets():
    from posetforge.poset import transitive_closure

    assert transitive_closure([0b010, 0b100, 0]) == (0b110, 0b100, 0)
    assert transitive_closure([]) == ()


def test_transitive_closure_rejects_two_cycle():
    from posetforge.poset import transitive_closure

    with pytest.raises(CycleDetected):
        transitive_closure([0b10, 0b01])


@st.composite
def successor_bitsets(draw, max_size: int = 12):
    """Random digraphs, loops and cycles included, as successor bitsets."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    succ = [0] * n
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
            succ[i] |= 1 << j
    return succ


def reachability_oracle(succ):
    """Strict reachability by repeated one-step extension until nothing changes."""
    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(reach):
            grown = r
            for j in _bits(r):
                grown |= reach[j]
            if grown != r:
                reach[i], changed = grown, True
    return tuple(reach)


@given(successor_bitsets())
@settings(deadline=None, max_examples=200)
def test_transitive_closure_output_is_an_order(succ):
    # the trusted builders rest on this: a closure that does not raise is
    # an order, so it never needs re-checking
    from posetforge.poset import _check_order, transitive_closure

    reach = reachability_oracle(succ)
    if any(r >> i & 1 for i, r in enumerate(reach)):
        with pytest.raises(CycleDetected):
            transitive_closure(succ)
        return
    up = transitive_closure(succ)
    assert up == reach
    _check_order(up)


# -- covers ------------------------------------------------------------------


def test_chain_covers():
    assert chain_poset(3).covers() == [("1", "2"), ("2", "3")]


@pytest.mark.parametrize("build", [chain_poset, discrete_poset])
def test_negative_element_counts_are_rejected(build):
    with pytest.raises(BadParameters, match="-3"):
        build(-3)
    assert build(0).n == 0


def test_long_chain_cover_count():
    # 256 elements between the ends of a 258-chain must not wrap to none
    P = chain_poset(258)
    assert len(P.covers()) == 257
    assert int(P.cover_matrix.sum()) == 257
    assert not P.cover_matrix[0, 257]


def assert_views_match_definitions(P):
    assert P.down == transpose_oracle(P.up)
    assert P.cover_down == transpose_oracle(P.cover_up)
    assert (P.heights, P.depths) == chain_lengths_oracle(P.lt)


def test_cover_pass_matches_definitions_on_corpus(corpus6):
    for P in corpus6:
        assert_views_match_definitions(P)


@pytest.mark.parametrize("host, k, size", [(SpinD(9), 3, 462), (Grid(6, 6), 3, 400)])
def test_cover_pass_matches_definitions_on_exchange_orders(host, k, size):
    E = antichain_exchange_poset(minuscule_poset(host), k)
    assert E.n == size
    assert_views_match_definitions(E)


def test_cover_pass_on_long_chain_needs_no_recursion():
    n = 3000
    P = chain_poset(n)
    assert P.heights == tuple(range(n))
    assert P.depths == tuple(reversed(range(n)))
    assert P.down == tuple((1 << i) - 1 for i in range(n))
    assert P.cover_down == (0, *(1 << i for i in range(n - 1)))


def test_grid_cover_count():
    assert len(grid_poset(2, 2).covers()) == len(covers_oracle(grid_poset(2, 2))) == 4


def test_covers_match_oracle_on_corpus(corpus5):
    for P in corpus5:
        assert P.covers() == covers_oracle(P)


@given(posets())
@settings(deadline=None, max_examples=60)
def test_rebuild_from_covers_roundtrip(P):
    assert build_poset(P.labels, P.covers()) == P


# -- products ----------------------------------------------------------------


def test_grid_sizes_and_width():
    assert grid_poset(2, 2).n == 4
    assert width_oracle(grid_poset(2, 2)) == grid_poset(2, 2).width() == 2
    assert grid_poset(3, 3).n == 9
    assert grid_poset(3, 3).width() == 3


def test_product_with_singleton_is_identity_up_to_iso():
    P = bowtie()
    Q = P.product(build_poset(["*"], []))
    assert find_isomorphism(P, Q) is not None


def test_product_commutative_up_to_iso(corpus5):
    smalls = [P for P in corpus5 if 1 <= P.n <= 4]
    for P in smalls:
        for Q in smalls:
            assert find_isomorphism(P.product(Q), Q.product(P)) is not None


def test_product_associative_up_to_iso(corpus5):
    smalls = [P for P in corpus5 if 1 <= P.n <= 3]
    for P in smalls:
        for Q in smalls:
            for R in smalls:
                lhs = P.product(Q).product(R)
                rhs = P.product(Q.product(R))
                assert find_isomorphism(lhs, rhs) is not None


def kron_product_reference(P, Q):
    """The product as the Kronecker product of the two closed order matrices."""
    leq = np.kron(leq_matrix(P).astype(np.uint8), leq_matrix(Q).astype(np.uint8)).astype(bool)
    lt = leq & ~np.eye(P.n * Q.n, dtype=bool)
    labels = [f"({p},{q})" for p in P.labels for q in Q.labels]
    return tuple(labels), mask_rows(lt)


def broadcast_componentwise_reference(labels, rows):
    """Componentwise <= on distinct rows by an n x n x k comparison."""
    if not rows:
        return tuple(labels), ()
    arr = np.array(rows, dtype=np.int64)
    lt = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    np.fill_diagonal(lt, False)
    return tuple(labels), mask_rows(lt)


def test_product_matches_kron_reference(corpus4):
    for P in corpus4:
        for Q in corpus4:
            R = P.product(Q)
            assert (R.labels, R.up) == kron_product_reference(P, Q)


def test_grid_matches_kron_reference():
    for a in range(6):
        for b in range(6):
            G = grid_poset(a, b)
            assert (G.labels, G.up) == kron_product_reference(chain_poset(a), chain_poset(b))


def componentwise_cases():
    """(poset, its element labels, its rows) for every componentwise family."""
    for n in range(10):
        for k in range(n + 1):
            elems = gale_entries(n, k)
            yield gale_poset(n, k), [tuple_label(e) for e in elems], elems
    for a in range(6):
        for b in range(6):
            elems = weak_chain_entries(a, b)
            yield weak_chain_poset(a, b), [tuple_label(e) for e in elems], elems
    for a in range(6):
        for b in range(6):
            for k in range(min(a, b) + 1):
                ds = [d for d in diagrams_in_box(a, b) if durfee_length(d) == k]
                rows = [d + (0,) * (b - len(d)) for d in ds]
                yield durfee_poset(a, b, k), [tuple_label(d) for d in ds], rows
    for n in range(2, 9):
        roots, _ = _root_pairs(n)
        yield type_a_root_poset(n), [root_label(i, j) for i, j in roots], [(-i, j) for i, j in roots]


def test_componentwise_builder_matches_broadcast_reference():
    cases = 0
    for P, labels, rows in componentwise_cases():
        assert (P.labels, P.up) == broadcast_componentwise_reference(labels, rows)
        cases += 1
    assert cases == 55 + 36 + 91 + 7


# -- ideals ------------------------------------------------------------------


def test_ideals_of_three_antichain():
    assert discrete_poset(3).ideals_poset().n == 8


def test_ideals_of_chain():
    J = chain_poset(4).ideals_poset()
    assert J.n == 5
    assert J.width() == 1


def test_ideals_of_grid_match_oracle():
    G = grid_poset(2, 2)
    assert G.ideals_poset().n == len(ideal_masks_oracle(G)) == 6


def test_ideal_masks_match_oracle_on_corpus(corpus5):
    for P in corpus5:
        assert set(P.ideal_masks()) == set(ideal_masks_oracle(P))


def ideals_poset_oracle(P):
    """Ideal lattice by testing every ordered pair of ideals for containment."""
    from posetforge.poset import Poset

    masks = P.ideal_masks()
    up = [
        sum(1 << s for s, t in enumerate(masks) if s != r and m & ~t == 0)
        for r, m in enumerate(masks)
    ]
    return Poset._from_up([P.subset_label(_bits(m)) for m in masks], up)


def test_ideals_poset_matches_pair_test(corpus6):
    for P in [grid_poset(6, 6), *corpus6]:
        J, oracle = P.ideals_poset(), ideals_poset_oracle(P)
        assert J.labels == oracle.labels and J.up == oracle.up


def test_ideal_cap():
    with pytest.raises(SizeLimitExceeded):
        discrete_poset(12).ideals_poset(cap=100)


# -- antichains --------------------------------------------------------------


def test_bowtie_antichains_of_size_two():
    P = bowtie()
    assert [A.label for A in P.antichains_of_size(2)] == ["{a,b}", "{d,e}"]


def test_size_zero_antichain():
    P = bowtie()
    assert [A.label for A in P.antichains_of_size(0)] == ["{}"]


def test_cube_has_nine_2_antichains():
    J = discrete_poset(3).ideals_poset()
    assert len(J.antichains_of_size(2)) == len(antichains_oracle(J, 2)) == 9


def test_antichain_validation():
    P = bowtie()
    with pytest.raises(NotAnAntichain):
        Antichain(P, ["a", "c"])
    assert len(Antichain(P, ["a", "b"])) == 2


@given(posets())
@settings(deadline=None, max_examples=60)
def test_antichain_enumeration_matches_oracle(P):
    for k in range(P.n + 1):
        got = [frozenset(A) for A in P.antichains_of_size(k)]
        assert sorted(got, key=sorted) == sorted(antichains_oracle(P, k), key=sorted)


@given(posets())
@settings(deadline=None, max_examples=60)
def test_width_matches_enumeration(P):
    assert P.width() == width_oracle(P)


def test_antichain_masks_in_index_lexicographic_order(corpus6):
    from itertools import combinations

    for P in corpus6:
        for k in range(P.n + 2):
            expected = [
                c for c in combinations(range(P.n), k)
                if all(not (P.up[x] | P.down[x]) >> y & 1 for x in c for y in c)
            ]
            assert [tuple(_bits(m)) for m in P._antichain_masks(k)] == expected


def fence(n):
    """Zigzag 0 < 1 > 2 < 3 > ... on n points."""
    labels = [str(i) for i in range(n)]
    pairs = [(labels[i], labels[i + 1]) if i % 2 == 0 else (labels[i + 1], labels[i])
             for i in range(n - 1)]
    return build_poset(labels, pairs)


def width_by_recursive_matching(P):
    """Dilworth width as n minus a maximum matching found by recursive augmenting paths."""
    match_to = [-1] * P.n

    def augment(u, seen):
        for v in _bits(P.up[u]):
            if not seen[v]:
                seen[v] = True
                if match_to[v] == -1 or augment(match_to[v], seen):
                    match_to[v] = u
                    return True
        return False

    return P.n - sum(augment(u, [False] * P.n) for u in range(P.n))


def test_width_matches_recursive_matching_on_random_posets():
    import random

    rng = random.Random(1950)
    for _ in range(300):
        n = rng.randint(10, 30)
        density = rng.choice([0.05, 0.1, 0.2])
        labels = [f"x{i}" for i in range(n)]
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        rng.shuffle(labels)
        P = build_poset(labels, pairs)
        assert P.width() == width_by_recursive_matching(P)


def test_width_of_long_fence_needs_no_recursion():
    # a recursive augmenting-path search overflowed the stack at 2,000 points
    assert fence(2000).width() == 1000


def test_full_size_antichain_of_large_antichain_needs_no_recursion():
    # a recursive enumeration overflowed the stack at depth 1,100
    assert discrete_poset(1100)._antichain_masks(1100) == [(1 << 1100) - 1]


def test_width_is_last_nonempty_size(corpus6):
    for P in corpus6:
        w = P.width()
        assert P.antichains_of_size(w) or P.n == 0
        assert not P.antichains_of_size(w + 1)


# -- ideal/antichain bijection -----------------------------------------------


def test_empty_roundtrip():
    P = bowtie()
    A = Antichain(P, [])
    assert closure(P, A.mask) == 0
    assert P._ideal_tops(closure(P, A.mask)) == A.mask


def test_grid_antichain_closure():
    G = grid_poset(2, 2)
    A = Antichain(G, ["(1,2)", "(2,1)"])
    ideal = closure(G, A.mask)
    assert ideal.bit_count() == 3 and ideal in G.ideal_masks()
    assert G._ideal_tops(ideal) == A.mask


def test_enumerated_subsets_pass_validation(corpus6):
    for P in corpus6:
        assert all(closure(P, m) == m for m in P.ideal_masks())
        for k in range(P.width() + 1):
            assert all(Antichain(P, A) == A for A in P.antichains_of_size(k))


def test_roundtrip_exhaustive_up_to_8_points(corpus8):
    for P in corpus8:
        for mask in P.ideal_masks():
            assert closure(P, mask) == mask
            assert closure(P, P._ideal_tops(mask)) == mask
        for k in range(P.width() + 1):
            for A in P.antichains_of_size(k):
                assert P._ideal_tops(closure(P, A.mask)) == A.mask


@given(posets(max_size=8))
@settings(deadline=None, max_examples=40)
def test_roundtrip_on_random_posets(P):
    for mask in P.ideal_masks():
        assert closure(P, mask) == mask == closure(P, P._ideal_tops(mask))
    for k in range(P.width() + 1):
        for A in P.antichains_of_size(k):
            assert P._ideal_tops(closure(P, A.mask)) == A.mask


# -- isomorphism search ------------------------------------------------------


def test_iso_identity():
    P = bowtie()
    iso = find_isomorphism(P, P)
    assert iso is not None and iso.verify()
    assert iso.source is P and iso.target is P


def test_iso_chain_vs_antichain_absent():
    assert find_isomorphism(chain_poset(3), discrete_poset(3)) is None


def test_iso_grid_transpose():
    iso = find_isomorphism(grid_poset(2, 3), grid_poset(3, 2))
    assert iso is not None and iso.verify()


def test_iso_symmetric_and_verified(corpus5):
    import itertools

    four = [P for P in corpus5 if P.n == 4]
    for P, Q in itertools.combinations(four, 2):
        fwd = find_isomorphism(P, Q)
        bwd = find_isomorphism(Q, P)
        assert (fwd is None) == (bwd is None)
        if fwd is not None:
            assert fwd.verify() and bwd.verify()
            assert (fwd.source, fwd.target, bwd.source, bwd.target) == (P, Q, Q, P)


def test_iso_rejects_equal_size_different_shape():
    V = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    L = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert find_isomorphism(V, L) is None


def test_iso_size_cap():
    with pytest.raises(SizeLimitExceeded):
        find_isomorphism(chain_poset(10), chain_poset(10), max_size=5)


def test_verify_rejects_a_map_that_is_not_an_isomorphism():
    P = chain_poset(3)
    iso = find_isomorphism(P, P)
    assert iso.verify() and iso.img == (0, 1, 2)
    assert iso.backward == {v: k for k, v in iso.forward.items()}
    assert not PosetIso(P, P, (0, 0, 2)).verify()  # two-to-one
    assert not PosetIso(P, P, (0, 1)).verify()
    assert not PosetIso(P, P, (0, 2, 1)).verify()  # a bijection that breaks the order


def test_witnesses_label_nothing_until_read():
    # the exchange orders of the transposed grids are isomorphic, and label themselves lazily
    E1 = antichain_exchange_poset(grid_poset(2, 3), 2)
    E2 = antichain_exchange_poset(grid_poset(3, 2), 2)
    iso = find_isomorphism(E1, E2)
    assert iso is not None and iso.verify()
    assert "labels" not in E1.__dict__ and "labels" not in E2.__dict__
    assert iso.forward == {E1.labels[i]: E2.labels[j] for i, j in enumerate(iso.img)}
    E = antichain_exchange_poset(grid_poset(3, 3), 2)
    verdict = is_distributive(E)
    assert verdict.distributive and "labels" not in verdict.witness.target.__dict__
    assert verdict.to_json_dict()["witness"]["backward"] == verdict.witness.backward


def test_cover_first_order_closes_up_only_when_read():
    # the certificate's target is built from its cover rows alone
    E = antichain_exchange_poset(grid_poset(3, 3), 2)
    verdict = is_distributive(E)
    T, irr = verdict.witness.target, verdict.irreducibles
    assert T.n == 9 and len(T.labels) == 9 and len(T.cover_up) == 9 and repr(T)
    assert "up" not in T.__dict__
    masks = T._subsets[1]
    assert T.up == tuple(_inclusion_up(irr.n, masks, masks)) and "up" in T.__dict__
    # the ideal lattice, listed in E's order: the dense route's map reindexes it
    assert is_reindexed_copy(T, irr.ideals_poset(), dense_ideal_witness(E)[0].img)


def test_iso_search_needs_no_recursion():
    P, Q = chain_poset(3000), chain_poset(3000)
    iso = find_isomorphism(P, Q, max_size=5000)
    assert iso is not None and iso.verify()


def test_iso_empty():
    E = discrete_poset(0)
    assert find_isomorphism(E, E) is not None


def shuffled(P, rng):
    """A copy of P with element i moved to perm[i] and new labels, and perm."""
    perm = list(range(P.n))
    rng.shuffle(perm)
    up = [0] * P.n
    for i, u in enumerate(P.up):
        up[perm[i]] = sum(1 << perm[j] for j in _bits(u))
    return Poset._from_up([f"q{i}" for i in range(P.n)], up), perm


def disjoint_copies(shapes):
    """The disjoint union of the given cover lists on x0..x6, one copy each."""
    labels, relations = [], []
    for c, covers in enumerate(shapes):
        labels += [f"c{c}x{i}" for i in range(7)]
        relations += [(f"c{c}x{i}", f"c{c}x{j}") for i, j in covers]
    return build_poset(labels, relations)


def test_refinement_rounds_separate_what_initial_colours_cannot():
    # X and Y have the same signatures (minimal elements with 2, 2, 1 and
    # 1 upper covers, maximal ones with 1, 2 and 3 lower covers), wired
    # differently.  Matching on the initial colours alone has to refute
    # 3X+3Y ~ 4X+2Y by search, which did not finish in 10 minutes; the
    # rounds tell the two apart before any search.
    X = [(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (3, 6)]
    Y = [(0, 4), (0, 6), (1, 5), (1, 6), (2, 5), (3, 6)]
    P = disjoint_copies([X, X, X, Y, Y, Y])
    Q = disjoint_copies([X, X, X, X, Y, Y])
    assert _initial_colours(P)[0] == _initial_colours(Q)[0]
    assert _refine(P)[0] != _refine(Q)[0]
    assert find_isomorphism(P, Q) is None


def test_refinement_is_invariant_under_relabelling(corpus6):
    rng = random.Random(20140101)
    for P in corpus6:
        Q, perm = shuffled(P, rng)  # element i of P becomes element perm[i] of Q
        keyP, colP = _refine(P)
        keyQ, colQ = _refine(Q)
        assert keyP == keyQ
        assert all(colQ[perm[i]] == colP[i] for i in range(P.n))
        iso = find_isomorphism(P, Q)
        assert iso is not None and iso.verify()


def test_initial_colours_are_invariant_under_relabelling(corpus6):
    rng = random.Random(20140101)
    for P in corpus6:
        Q, perm = shuffled(P, rng)
        keyP, colP = _initial_colours(P)
        keyQ, colQ = _initial_colours(Q)
        assert keyP == keyQ
        assert all(colQ[perm[i]] == colP[i] for i in range(P.n))
        # the refinement's first palette is the initial one
        assert _refine(P)[0][1][0] == keyP[1]


def test_match_on_initial_colours_agrees_with_find_isomorphism(corpus5):
    rng = random.Random(1998)
    by_size = {}
    for P in corpus5:
        for R in (P, shuffled(P, rng)[0]):
            by_size.setdefault(R.n, []).append((R, _initial_colours(R)[1]))
    pairs = found = 0
    for group in by_size.values():
        for P, colP in group:
            for Q, colQ in group:
                iso = _match(P, colP, Q, colQ)
                assert (iso is None) == (find_isomorphism(P, Q) is None)
                assert iso is None or iso.verify()
                pairs += 1
                found += iso is not None
    # 1, 1, 2, 5, 16 and 63 classes on 0..5 points, each with a shuffled copy;
    # a pair is isomorphic exactly when both come from the same class
    assert pairs == 2**2 + 2**2 + 4**2 + 10**2 + 32**2 + 126**2
    assert found == 4 * len(corpus5)


def iso_exists_oracle(P, Q):
    """Brute force over all permutations."""
    from itertools import permutations

    if P.n != Q.n:
        return False
    for perm in permutations(range(P.n)):
        if all(
            P.lt[i, j] == Q.lt[perm[i], perm[j]]
            for i in range(P.n)
            for j in range(P.n)
        ):
            return True
    return False


@given(posets(max_size=5), posets(max_size=5))
@settings(deadline=None, max_examples=60)
def test_iso_search_matches_bruteforce(P, Q):
    assert (find_isomorphism(P, Q) is not None) == iso_exists_oracle(P, Q)


@given(posets(max_size=6), st.permutations(range(6)))
@settings(deadline=None, max_examples=60)
def test_iso_found_on_shuffled_copy(P, perm):
    order = [p for p in perm if p < P.n]
    lt = np.zeros((P.n, P.n), dtype=bool)
    for i in range(P.n):
        for j in range(P.n):
            lt[order[i], order[j]] = P.lt[i, j]
    Q = Poset([f"y{i}" for i in range(P.n)], mask_rows(lt))
    iso = find_isomorphism(P, Q)
    assert iso is not None and iso.verify()


def recursive_match(P, colP, Q, colQ):
    """The recursive backtracking search that ``_match`` replaced, kept as a
    reference: the forward map it finds, or None."""
    candidates = {}
    for v in range(Q.n):
        candidates.setdefault(colQ[v], []).append(v)
    if any(c not in candidates for c in colP):
        return None
    order = sorted(range(P.n), key=lambda i: (len(candidates[colP[i]]), colP[i], i))
    mapping = [-1] * P.n
    used = [False] * Q.n
    assigned = []

    def backtrack(t):
        if t == P.n:
            return True
        u = order[t]
        au, bu = P.up[u], P.down[u]
        for v in candidates[colP[u]]:
            if used[v]:
                continue
            av, bv = Q.up[v], Q.down[v]
            ok = True
            for w in assigned:
                mw = mapping[w]
                if (au >> w) & 1 != (av >> mw) & 1 or (bu >> w) & 1 != (bv >> mw) & 1:
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = v
            used[v] = True
            assigned.append(u)
            if backtrack(t + 1):
                return True
            assigned.pop()
            used[v] = False
            mapping[u] = -1
        return False

    if not backtrack(0):
        return None
    return {P.labels[i]: Q.labels[mapping[i]] for i in range(P.n)}


def match_forward(P, Q):
    """The forward maps of ``_match`` and of the reference on P's and Q's colours."""
    (_, colP), (_, colQ) = _refine(P), _refine(Q)
    iso = _match(P, colP, Q, colQ)
    return (None if iso is None else iso.forward), recursive_match(P, colP, Q, colQ)


def test_match_agrees_with_reference_on_corpus7_pairs(corpus7):
    rng = random.Random(2014)
    by_size = {}
    for P in corpus7:
        by_size.setdefault(P.n, []).append(P)
    for _ in range(400):
        group = by_size[rng.randint(1, 7)]
        new, old = match_forward(rng.choice(group), rng.choice(group))
        assert new == old


def test_match_agrees_with_reference_on_relabelings(corpus7):
    rng = random.Random(7)
    for P in corpus7[::7]:
        Q, _ = shuffled(P, rng)
        new, old = match_forward(P, Q)
        assert new is not None and new == old


@pytest.mark.parametrize(
    "host, k, target",
    [
        (Grid(5, 5), 2, lambda: gale_poset(5, 2).product(gale_poset(5, 2))),
        (Grid(5, 5), 3, lambda: gale_poset(5, 3).product(gale_poset(5, 3))),
        (SpinD(8), 1, lambda: gale_poset(10, 2)),
    ],
)
def test_match_agrees_with_reference_on_exchange_orders(host, k, target):
    E, T = antichain_exchange_poset(minuscule_poset(host), k), target()
    new, old = match_forward(E, T)
    assert new is not None and new == old
    assert find_isomorphism(E, T).forward == old


def test_image_matches_bitwise_rebuild():
    rng = random.Random(5)
    for n in (0, 1, 7, 64, 300):
        to = list(range(n))
        rng.shuffle(to)
        for _ in range(20):
            mask = rng.getrandbits(n) if n else 0
            assert _image(mask, to) == sum(1 << to[j] for j in _bits(mask))


def pair_test(P, Q, img):
    return all(P.lt[i, j] == Q.lt[img[i], img[j]] for i in range(P.n) for j in range(P.n))


def test_index_map_order_equal_matches_pair_test(corpus6):
    rng = random.Random(6)
    verdicts = []
    for P in [antichain_exchange_poset(minuscule_poset(Grid(5, 5)), 2), *corpus6]:
        Q, perm = shuffled(P, rng)
        other = list(range(P.n))
        rng.shuffle(other)
        for img in (perm, other):
            verdict = index_map_order_equal(P, Q, img)
            assert verdict == pair_test(P, Q, img)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def bulk_map_reference(P, Q, img):
    """The bijection tests, then Q's relation matrix permuted onto P's rows and columns."""
    if P.n != Q.n or sorted(img) != list(range(Q.n)):
        return False
    return mask_rows(Q.lt[np.ix_(img, img)]) == P.up


def test_index_map_order_equal_matches_bulk_reference(corpus6):
    rng = random.Random(37)
    orders = [
        antichain_exchange_poset(minuscule_poset(Grid(5, 5)), 2),
        antichain_exchange_poset(minuscule_poset(SpinD(8)), 2),
        *corpus6,
    ]
    verdicts = []
    for P in orders:
        Q, perm = shuffled(P, rng)  # perm is a true map P -> Q
        swapped = list(perm)
        if P.n >= 2:
            i, j = rng.sample(range(P.n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
        other = rng.sample(range(P.n), P.n)
        for img in (perm, swapped, other):
            verdict = index_map_order_equal(P, Q, img)
            assert verdict == bulk_map_reference(P, Q, img)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_index_map_order_equal_rejects_swapped_images():
    E = antichain_exchange_poset(minuscule_poset(Grid(5, 5)), 2)
    identity = list(range(E.n))
    assert index_map_order_equal(E, E, identity)
    lo = next(i for i, c in enumerate(E.cover_up) if c)
    hi = next(_bits(E.cover_up[lo]))
    identity[lo], identity[hi] = hi, lo
    assert not index_map_order_equal(E, E, identity)
    P = chain_poset(3)
    assert not index_map_order_equal(P, P, [1, 0, 2])


@pytest.mark.parametrize(
    "img, expected",
    [
        ([0, 1, 2], True),
        ([0, 1], False),
        ([0, None, 2], False),
        ([0, 1, 3], False),
        ([-1, 1, 0], False),
        ([0, 0, 2], False),
    ],
    ids=["bijection", "short", "none-image", "out-of-range", "negative-index", "two-to-one"],
)
def test_index_map_order_equal_needs_a_bijection_onto_q(img, expected):
    # a and b lie below c; sending both to a's image still carries every cover row onto Q's
    P = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    Q = P.relabeled(["x", "y", "z"])
    assert index_map_order_equal(P, Q, img) is expected


@pytest.mark.parametrize(
    "label_map, expected",
    [
        ({"a": "x", "b": "y", "c": "z"}, True),
        ({"b": "y", "c": "z"}, False),
        ({"a": "x", "b": "x", "c": "z"}, False),
        ({"a": "w", "b": "y", "c": "z"}, False),
    ],
    ids=["bijection", "missing-label", "two-to-one", "image-not-in-Q"],
)
def test_mapped_order_equal_needs_a_bijection_onto_q(label_map, expected):
    # a label-keyed map, read back into indices, verifies as a witness only if it is a bijection onto Q
    P = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    Q = P.relabeled(["x", "y", "z"])
    where = {lab: j for j, lab in enumerate(Q.labels)}
    iso = PosetIso(P, Q, [where.get(label_map.get(lab)) for lab in P.labels])
    assert iso.verify() is expected
    if expected:
        assert iso.forward == label_map


def test_grid_mask_points_match_the_point_labels():
    for a in range(4):
        for b in range(1, 4):
            G = grid_poset(a, b)
            for mask in [*G.ideal_masks(), *(A.mask for k in range(4) for A in G.antichains_of_size(k))]:
                assert grid_mask_points(b, mask) == label_points(G, mask)


def test_induced_matches_comprehension(corpus6):
    rng = random.Random(66)
    for P in corpus6:
        idx = rng.sample(range(P.n), rng.randint(0, P.n))
        up = tuple(sum(1 << q for q, j in enumerate(idx) if P.up[i] >> j & 1) for i in idx)
        S = induced(P, idx)
        assert S.labels == tuple(P.labels[i] for i in idx) and S.up == up


# -- JSON interchange --------------------------------------------------------


def test_json_roundtrip():
    P = bowtie()
    assert poset_from_dict(poset_to_dict(P)) == P


def test_json_roundtrip_via_text(corpus5):
    for P in corpus5[:30]:
        blob = json.dumps(poset_to_dict(P))
        assert poset_from_dict(json.loads(blob)) == P


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        poset_from_dict({"elements": ["a"]})
    with pytest.raises(ValueError):
        poset_from_dict({"elements": ["a"], "relations": [["a"]]})
    with pytest.raises(ValueError):
        poset_from_dict([1, 2])


def test_relabeled_defaults_to_p_labels():
    P = chain_poset(3).relabeled()
    assert list(P.labels) == ["p0", "p1", "p2"]
    assert P.up == chain_poset(3).up
