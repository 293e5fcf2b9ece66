import numpy as np
import pytest
from hypothesis import strategies as st

from posetforge import SizeMismatch, build_poset, checks
from posetforge.corpus import small_posets
from posetforge.poset import _matching_size


@st.composite
def posets(draw, max_size: int = 7):
    """Random posets: edges sampled among index-increasing pairs, then closed."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    labels = [f"x{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    else:
        chosen = []
    return build_poset(labels, [(labels[i], labels[j]) for i, j in chosen])


def mask_rows(matrix):
    """Row i of a boolean matrix as a bitset: bit j is ``matrix[i, j]``."""
    packed = np.packbits(np.asarray(matrix, dtype=bool), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def leq_matrix(P):
    """P's reflexive order as a boolean matrix: [i, j] when i is below or equal to j."""
    return P.lt | np.eye(P.n, dtype=bool)


def label_points(subset):
    """The (i, j) points of a subset of a grid or pair order, read from its member labels "(i,j)"."""
    return [tuple(int(v) for v in lab[1:-1].split(",")) for lab in subset.member_labels]


def has_order_matching(P, A, B):
    """Whether A and B admit a perfect matching with each a_i <= b_i.

    The definition of an order-compatible matching, kept as the oracle the
    exchange order is tested against; the package itself runs no matcher.
    """
    if len(A) != len(B):
        raise SizeMismatch(f"antichain sizes differ: {len(A)} vs {len(B)}")
    if any(S.poset is not P and S.poset != P for S in (A, B)):
        raise ValueError("antichains do not live in the given poset")
    adj = {u: (P.up[u] | 1 << u) & B.mask for u in A}
    return _matching_size(P.n, adj) == len(A)


@pytest.fixture(scope="session")
def corpus4():
    return small_posets(4)


@pytest.fixture(scope="session")
def corpus5():
    return small_posets(5)


@pytest.fixture(scope="session")
def corpus6():
    return small_posets(6)


@pytest.fixture(scope="session")
def corpus7():
    return small_posets(7)


@pytest.fixture(scope="session")
def corpus8():
    return small_posets(8)


@pytest.fixture
def raise_in_check(monkeypatch):
    """Make a registered check raise the given exception when it runs."""

    def patch(check_id, exc):
        def fn(**params):
            raise exc

        cdef = checks._REGISTRY[check_id]
        raising = checks.CheckDef(check_id, cdef.summary, cdef.defaults, fn)
        monkeypatch.setitem(checks._REGISTRY, check_id, raising)

    return patch
