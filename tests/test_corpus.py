import hashlib
import itertools
from collections import Counter

import pytest

from posetforge import DuplicateLabel, build_poset, find_isomorphism
from posetforge.corpus import _extend, _posets_of_size, small_posets
from posetforge.poset import Poset, _match, _refine


def test_census_matches_known_counts(corpus8):
    # unlabeled posets on 0..8 points (Brinkmann & McKay, "Posets on up to 16 points", 2002)
    assert Counter(P.n for P in corpus8) == {
        0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999
    }


def test_corpus8_is_pinned(corpus8):
    # the same posets, in the same order, with the same labels and up-set rows
    digest = hashlib.sha256(repr([(P.labels, P.up) for P in corpus8]).encode()).hexdigest()
    assert digest == "5af6c836761ef94fbc76300a2451888339e9e7cffb1a5e4ea80fa77d072276ad"


def assert_views_match_rebuild(Q):
    R = Poset._from_up(Q.labels, Q.up)
    assert Q.cover_up == R.cover_up
    assert Q.down == R.down
    assert Q.cover_down == R.cover_down
    assert Q.heights == R.heights
    assert Q.depths == R.depths
    assert Q.ideal_masks() == R.ideal_masks()


def test_handed_down_views_match_rebuild_on_every_extension():
    # every extension of a kept poset up to 7 points, skipped and discarded ones included
    tried = 0
    for n in range(7):
        for P in _posets_of_size(n):
            for mask in P.ideal_masks():
                assert_views_match_rebuild(_extend(P, mask, P._ideal_tops(mask)))
                tried += 1
    assert tried == 1 + 2 + 7 + 28 + 135 + 766 + 5439


def test_add_maximal_when_index_order_is_not_a_linear_extension():
    # a (index 0) lies above c and b: the top comes first
    P = build_poset(["a", "b", "c"], [("c", "a"), ("b", "a")])
    ideals = P.ideal_masks()
    assert len(ideals) == 5
    for mask in ideals:
        Q = P._add_maximal(mask, P._ideal_tops(mask), "z")
        assert Q.labels == ("a", "b", "c", "z")
        assert Q.up == tuple(u | 8 if mask >> i & 1 else u for i, u in enumerate(P.up)) + (0,)
        assert_views_match_rebuild(Q)
    assert P._add_maximal(0b111, 0b001, "z").depths == (1, 2, 2, 0)  # a tops the ideal


def test_add_maximal_rejects_a_label_in_use():
    with pytest.raises(DuplicateLabel, match="label 'b'"):
        build_poset(["a", "b"], [])._add_maximal(0, 0, "b")


def refined_dedupe_reference(max_size):
    """The corpus levels 0..max_size as deduplicated with every extension
    refined by ``_refine`` and matched on its refined colours, kept as a
    reference for the dedupe on initial colours."""
    levels = [(Poset._from_up([], []),)]
    for _ in range(max_size):
        buckets, out = {}, []
        for P in levels[-1]:
            for mask in P.ideal_masks():
                Q = _extend(P, mask, P._ideal_tops(mask))
                key, colQ = _refine(Q)
                bucket = buckets.setdefault(hash(key), [])
                if any(_match(Q, colQ, R, colR) is not None for R, colR in bucket):
                    continue
                bucket.append((Q, colQ))
                out.append(Q)
        levels.append(tuple(out))
    return levels


def isomorphic_indices(Q, classes):
    """Indices of the posets in ``classes`` (refined and bucketed by
    ``refined_buckets``) that are isomorphic to Q."""
    key, colQ = _refine(Q)
    return [i for i, R, colR in classes.get(key, ()) if _match(Q, colQ, R, colR) is not None]


def refined_buckets(posets):
    classes = {}
    for i, R in enumerate(posets):
        key, colR = _refine(R)
        classes.setdefault(key, []).append((i, R, colR))
    return classes


def test_dedupe_on_initial_colours_matches_refined_reference():
    # the filter keeps a different representative of a class than the
    # unfiltered reference, so the levels are compared as sets of classes
    for n, reference in enumerate(refined_dedupe_reference(7)):
        got = _posets_of_size(n)
        assert len(got) == len(reference)
        classes = refined_buckets(reference)
        hits = []
        for P in got:
            found = isomorphic_indices(P, classes)
            assert len(found) == 1, (n, P)
            hits.extend(found)
        assert sorted(hits) == list(range(len(reference)))


def test_every_extension_is_isomorphic_to_exactly_one_kept_poset():
    # the filter skips extensions; each one skipped, and each one kept, must
    # still be isomorphic to exactly one poset of the next level
    tried = 0
    for n in range(1, 8):
        classes = refined_buckets(_posets_of_size(n))
        for P in _posets_of_size(n - 1):
            for mask in P.ideal_masks():
                Q = _extend(P, mask, P._ideal_tops(mask))
                assert len(isomorphic_indices(Q, classes)) == 1, (P, mask)
                tried += 1
    assert tried == 1 + 2 + 7 + 28 + 135 + 766 + 5439


def test_representatives_pairwise_nonisomorphic():
    four = [P for P in small_posets(4) if P.n == 4]
    for P, Q in itertools.combinations(four, 2):
        assert find_isomorphism(P, Q) is None


def test_every_labeled_poset_on_three_points_is_covered():
    # exhaustive cross-check at n=3: every strict order appears
    from posetforge import CycleDetected
    from posetforge.poset import Poset, transitive_closure

    reps = [P for P in small_posets(3) if P.n == 3]
    seen = set()
    for bits in range(1 << 6):
        succ = [0, 0, 0]
        pos = 0
        for i in range(3):
            for j in range(3):
                if i != j:
                    succ[i] |= ((bits >> pos) & 1) << j
                    pos += 1
        try:
            up = transitive_closure(succ)
        except CycleDetected:
            continue
        P = Poset(["a", "b", "c"], up)
        matches = [i for i, R in enumerate(reps) if find_isomorphism(P, R) is not None]
        assert len(matches) == 1
        seen.add(matches[0])
    assert seen == set(range(len(reps)))
