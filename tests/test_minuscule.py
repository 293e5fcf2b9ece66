import pytest

from posetforge import (
    BadParameters,
    E6Kind,
    E7Kind,
    Grid,
    NaturalD,
    SpinD,
    antichain_exchange_poset,
    build_poset,
    expected_width,
    find_isomorphism,
    grid_poset,
    iterated_ideals,
    minuscule_poset,
)
from posetforge.minuscule import all_kinds_at_caps, kind_from_args


def test_zero_iterations_is_identity():
    G = grid_poset(2, 2)
    assert iterated_ideals(G, 0) is G


def test_natural_family_sizes():
    for m in range(6):
        assert iterated_ideals(grid_poset(2, 2), m).n == 2 * m + 4


def double_tailed_diamond(m):
    """A chain of m+1, then two incomparable elements, then another chain of m+1."""
    low = [f"l{i}" for i in range(m + 1)]
    high = [f"h{i}" for i in range(m + 1)]
    relations = list(zip(low, low[1:])) + list(zip(high, high[1:]))
    relations += [(low[-1], "x"), (low[-1], "y"), ("x", high[0]), ("y", high[0])]
    return build_poset(low + ["x", "y"] + high, relations)


def test_natural_family_is_the_double_tailed_diamond():
    for m in range(13):
        assert find_isomorphism(minuscule_poset(NaturalD(m)), double_tailed_diamond(m)) is not None


def test_exceptional_sizes():
    assert iterated_ideals(grid_poset(2, 3), 2).n == 16
    assert iterated_ideals(grid_poset(2, 3), 3).n == 27


def test_minuscule_constructors():
    assert minuscule_poset(Grid(3, 5)).n == 15
    assert minuscule_poset(SpinD(2)).n == 6
    assert minuscule_poset(NaturalD(0)).n == 4
    assert minuscule_poset(E6Kind()).n == 16
    assert minuscule_poset(E7Kind()).n == 27


def test_bad_parameters():
    with pytest.raises(BadParameters):
        minuscule_poset(Grid(0, 3))
    with pytest.raises(BadParameters):
        minuscule_poset(SpinD(0))
    with pytest.raises(BadParameters):
        iterated_ideals(grid_poset(2, 2), -1)


def test_expected_widths_match_computation():
    kinds = all_kinds_at_caps(5, 5, 6, 5)
    for kind in kinds:
        P = minuscule_poset(kind)
        assert P.width() == expected_width(kind), kind


def test_expected_width_values():
    assert expected_width(Grid(3, 5)) == 3
    assert expected_width(SpinD(5)) == 3
    assert expected_width(SpinD(4)) == 3
    assert expected_width(NaturalD(4)) == 2
    assert expected_width(E6Kind()) == 2
    assert expected_width(E7Kind()) == 3


def test_natural_family_unique_2_antichain():
    for m in range(4):
        P = minuscule_poset(NaturalD(m))
        assert antichain_exchange_poset(P, 2).n == 1
        assert find_isomorphism(antichain_exchange_poset(P, 1), P) is not None


def test_spin_matches_grid_ideals():
    assert find_isomorphism(
        minuscule_poset(SpinD(3)), grid_poset(3, 2).ideals_poset()
    ) is not None


def test_relabeling():
    P = minuscule_poset(E6Kind())
    assert P.labels[0] == "p0" and P.labels[-1] == "p15"
    assert minuscule_poset(Grid(2, 2)).labels[0] == "(1,1)"


def test_kind_from_args():
    assert kind_from_args("grid", [2, 3]) == Grid(2, 3)
    assert kind_from_args("spin", [4]) == SpinD(4)
    assert kind_from_args("natural", [2]) == NaturalD(2)
    assert kind_from_args("e6", []) == E6Kind()
    assert kind_from_args("E7", []) == E7Kind()
    with pytest.raises(BadParameters):
        kind_from_args("grid", [2])
    with pytest.raises(BadParameters):
        kind_from_args("cube", [2])
