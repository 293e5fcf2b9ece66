import dataclasses

import pytest
from hypothesis import strategies as st

from posetforge import build_poset, checks
from posetforge.corpus import small_posets


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
        monkeypatch.setitem(checks._REGISTRY, check_id, dataclasses.replace(cdef, fn=fn))

    return patch
