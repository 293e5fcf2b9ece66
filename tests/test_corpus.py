import itertools

from posetforge import find_isomorphism
from posetforge.corpus import _extend, _posets_of_size, corpus_census, small_posets
from posetforge.poset import Poset, _match, _refine


def test_census_matches_known_counts():
    # unlabeled posets on 0..8 points (Brinkmann & McKay, "Posets on up to 16 points", 2002)
    assert corpus_census(8) == {
        0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999
    }


def refined_dedupe_reference(max_size):
    """The corpus levels 0..max_size as deduplicated with every extension
    refined by ``_refine`` and matched on its refined colours, kept as a
    reference for the dedupe on initial colours."""
    levels = [(Poset._from_up([], []),)]
    for _ in range(max_size):
        buckets, out = {}, []
        for P in levels[-1]:
            for mask in P.ideal_masks():
                Q = _extend(P, mask)
                key, colQ = _refine(Q)
                bucket = buckets.setdefault(hash(key), [])
                if any(_match(Q, colQ, R, colR) is not None for R, colR in bucket):
                    continue
                bucket.append((Q, colQ))
                out.append(Q)
        levels.append(tuple(out))
    return levels


def test_dedupe_on_initial_colours_matches_refined_reference():
    for n, reference in enumerate(refined_dedupe_reference(7)):
        got = _posets_of_size(n)
        assert [(P.labels, P.up) for P in got] == [(P.labels, P.up) for P in reference]


def test_representatives_pairwise_nonisomorphic():
    four = [P for P in small_posets(4) if P.n == 4]
    for P, Q in itertools.combinations(four, 2):
        assert find_isomorphism(P, Q) is None


def test_every_labeled_poset_on_three_points_is_covered():
    # exhaustive cross-check at n=3: every strict order matrix appears
    import numpy as np

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
        closed = np.array([[(up[i] >> j) & 1 for j in range(3)] for i in range(3)], dtype=bool)
        P = Poset(["a", "b", "c"], closed)
        matches = [i for i, R in enumerate(reps) if find_isomorphism(P, R) is not None]
        assert len(matches) == 1
        seen.add(matches[0])
    assert seen == set(range(len(reps)))
