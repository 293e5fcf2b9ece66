from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import strategies as st

from posetforge import SizeLimitExceeded, SizeMismatch, build_poset, checks
from posetforge.corpus import small_posets
from posetforge.poset import Poset, PosetIso, _bits, _image, _matching_size, index_map_order_equal


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


def label_points(P, mask):
    """The (i, j) points of a subset of a grid or pair order P, read from its member labels "(i,j)"."""
    return [tuple(int(v) for v in P.labels[t][1:-1].split(",")) for t in _bits(mask)]


def closure(P, mask):
    """The ideal generated by a subset of P: the mask ORed with the down-sets of its members."""
    return reduce(or_, (P.down[i] for i in _bits(mask)), mask)


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


def induced(P, indices):
    """The sub-poset of P on the given indices, keeping their labels."""
    idx = list(indices)
    keep, to = _image((1 << len(idx)) - 1, idx), dict(zip(idx, range(len(idx))))
    up = [_image(P.up[i] & keep, to) for i in idx]
    return Poset._from_up([P.labels[i] for i in idx], up)


def dense_ideal_witness(P):
    """The Birkhoff certificate by the dense route: (witness, irreducibles), or None.

    The irreducibles are ``induced`` on the elements of P with one lower
    cover, the target is their ``ideals_poset()`` and x goes to the mask
    of the irreducibles in its closed down-set, read from ``P.down``.  The
    reference the local ``lattice._ideal_witness`` is compared with.
    """
    irr_idx = [i for i, c in enumerate(P.cover_down) if c.bit_count() == 1]
    irr = induced(P, irr_idx)
    try:
        target = irr.ideals_poset(cap=P.n)
    except SizeLimitExceeded:
        return None
    keep, to = _image((1 << len(irr_idx)) - 1, irr_idx), dict(zip(irr_idx, range(len(irr_idx))))
    index = {m: j for j, m in enumerate(target._subsets[1])}
    img = [index.get(_image((P.down[x] | 1 << x) & keep, to)) for x in range(P.n)]
    witness = PosetIso(P, target, img)
    return (witness, irr) if witness.verify() else None


def is_reindexed_copy(T, reference, img):
    """Whether T is ``reference`` listed in another order: T's element x is reference's
    ``img[x]``, with its label, its cover rows and its order."""
    return (
        index_map_order_equal(T, reference, img)
        and [reference.labels[j] for j in img] == list(T.labels)
        and [_image(u, img) for u in T.up] == [reference.up[j] for j in img]
    )


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
