import pytest

from posetforge import (
    BadParameters,
    build_poset,
    chain_poset,
    narayana_table,
    panyushev_complement,
    type_a_root_poset,
)
from posetforge.roots import _root_pairs, parse_root_label, root_label


def catalan_oracle(m: int) -> int:
    vals = [1]
    for size in range(1, m + 1):
        vals.append(sum(vals[i] * vals[size - 1 - i] for i in range(size)))
    return vals[m]


def test_rank_one_is_a_point():
    P = type_a_root_poset(2)
    assert P.n == 1 and P.labels == ("[1,2]",)


def test_three_roots_with_top():
    P = type_a_root_poset(3)
    assert P.n == 3
    top = [P.labels[i] for i in range(P.n) if not P.lt[i].any()]
    assert top == ["[1,3]"]


def test_order_is_closure_of_the_two_cover_families():
    # independent route: generate from covers and compare to the direct build
    for n in range(2, 7):
        roots, _ = _root_pairs(n)
        rels = []
        for i, j in roots:
            if j + 1 <= n:
                rels.append((root_label(i, j), root_label(i, j + 1)))
            if i - 1 >= 1:
                rels.append((root_label(i, j), root_label(i - 1, j)))
        rebuilt = build_poset([root_label(i, j) for i, j in roots], rels)
        assert rebuilt == type_a_root_poset(n)


def test_width_is_the_rank():
    for n in range(2, 8):
        assert type_a_root_poset(n).width() == n - 1


def test_bad_rank():
    with pytest.raises(BadParameters):
        type_a_root_poset(1)


def test_complement_of_a_simple_root():
    P = type_a_root_poset(3)
    image = panyushev_complement(P.antichain(["[1,2]"]))
    assert image.member_labels == ("[2,3]",)


def test_complement_of_all_simple_roots_is_empty():
    P = type_a_root_poset(3)
    image = panyushev_complement(P.antichain(["[1,2]", "[2,3]"]))
    assert len(image) == 0


def test_complement_of_empty_is_all_simple_roots():
    for n in range(2, 6):
        P = type_a_root_poset(n)
        image = panyushev_complement(P.antichain([]))
        assert sorted(image.member_labels) == sorted(
            f"[{t},{t + 1}]" for t in range(1, n)
        )


def test_complement_is_an_involution():
    for n in range(2, 8):
        P = type_a_root_poset(n)
        for k in range(n):
            for A in P.antichains_of_size(k):
                image = panyushev_complement(A)
                assert len(image) == n - 1 - k
                assert panyushev_complement(image) == A


def test_complement_requires_root_poset_host():
    with pytest.raises(BadParameters):
        panyushev_complement(chain_poset(3).antichain(["1"]))


def test_narayana_small():
    assert narayana_table(2) == [1, 1]
    assert narayana_table(3) == [1, 3, 1]


def test_narayana_palindromic_catalan():
    for n in range(2, 8):
        table = narayana_table(n)
        assert table == table[::-1]
        assert sum(table) == catalan_oracle(n)


def test_root_label_parsing():
    assert parse_root_label("[2,5]") == (2, 5)
    assert parse_root_label(" [01,3] ") == (1, 3)
    with pytest.raises(BadParameters, match="not a root label"):
        parse_root_label("(2,5)")
    for text in ["[3,3]", "[0,2]", "[4,2]"]:
        with pytest.raises(BadParameters, match="need 1 <= i < j"):
            parse_root_label(text)
