"""The five irreducible minuscule families and the iterated ideal operator.

Grid(a, b) is the product of two chains.  The remaining families are
produced by iterating the ideal-lattice operator on small grids: one
application to an [n] x [2] grid for the spin family, m applications to
the 2 x 2 grid for the natural family, and two or three applications to
the 2 x 3 grid for the exceptional 16- and 27-element posets.  The known
closed-form widths are kept alongside as an independent cross-check.
"""

from __future__ import annotations

from typing import Union

from .errors import BadParameters
from .poset import Poset, _Frozen, grid_poset


class Grid(_Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self._fill(a, b)


class SpinD(_Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self._fill(n)


class NaturalD(_Frozen):
    __slots__ = ("m",)

    def __init__(self, m: int):
        self._fill(m)


class E6Kind(_Frozen):
    __slots__ = ()


class E7Kind(_Frozen):
    __slots__ = ()


MinusculeKind = Union[Grid, SpinD, NaturalD, E6Kind, E7Kind]


def iterated_ideals(P: Poset, m: int) -> Poset:
    """Apply the ideal-lattice construction m times; m=0 returns P itself."""
    if m < 0:
        raise BadParameters(f"iteration count must be nonnegative, got {m}")
    for _ in range(m):
        P = P.ideals_poset()
    return P


def minuscule_poset(kind: MinusculeKind) -> Poset:
    """Construct the poset of the given family.

    Grids keep their "(i,j)" point labels; the iterated-ideal families
    are relabeled p0..p{n-1} since their set-of-sets labels grow fast.
    """
    if isinstance(kind, Grid):
        if kind.a < 1 or kind.b < 1:
            raise BadParameters(f"grid sides must be positive, got {kind}")
        return grid_poset(kind.a, kind.b)
    if isinstance(kind, SpinD):
        if kind.n < 1:
            raise BadParameters(f"spin parameter must be positive, got {kind}")
        return iterated_ideals(grid_poset(kind.n, 2), 1).relabeled()
    if isinstance(kind, NaturalD):
        if kind.m < 0:
            raise BadParameters(f"natural-family parameter must be nonnegative, got {kind}")
        return iterated_ideals(grid_poset(2, 2), kind.m).relabeled()
    if isinstance(kind, E6Kind):
        return iterated_ideals(grid_poset(2, 3), 2).relabeled()
    if isinstance(kind, E7Kind):
        return iterated_ideals(grid_poset(2, 3), 3).relabeled()
    raise BadParameters(f"unknown minuscule kind: {kind!r}")


def expected_width(kind: MinusculeKind) -> int:
    """Closed-form width of each family."""
    if isinstance(kind, Grid):
        return min(kind.a, kind.b)
    if isinstance(kind, SpinD):
        return (kind.n + 2) // 2
    if isinstance(kind, NaturalD):
        return 2
    if isinstance(kind, E6Kind):
        return 2
    if isinstance(kind, E7Kind):
        return 3
    raise BadParameters(f"unknown minuscule kind: {kind!r}")


def kind_from_args(name: str, params: list[int]) -> MinusculeKind:
    """CLI helper: parse a family name plus integer parameters."""
    name = name.lower()
    expected = {"grid": 2, "spin": 1, "natural": 1, "e6": 0, "e7": 0}
    if name not in expected:
        raise BadParameters(f"unknown minuscule family {name!r}")
    if len(params) != expected[name]:
        raise BadParameters(
            f"family {name!r} takes {expected[name]} parameter(s), got {len(params)}"
        )
    if name == "grid":
        return Grid(params[0], params[1])
    if name == "spin":
        return SpinD(params[0])
    if name == "natural":
        return NaturalD(params[0])
    if name == "e6":
        return E6Kind()
    return E7Kind()


def all_kinds_at_caps(a: int, b: int, n: int, m: int) -> list[MinusculeKind]:
    """Every family member within the given parameter caps."""
    kinds: list[MinusculeKind] = [
        Grid(x, y) for x in range(1, a + 1) for y in range(1, b + 1)
    ]
    kinds += [SpinD(i) for i in range(1, n + 1)]
    kinds += [NaturalD(i) for i in range(0, m + 1)]
    kinds += [E6Kind(), E7Kind()]
    return kinds
