import dataclasses
import hashlib
import json
import os
import select
import threading

import pytest

import posetforge.antichains
import posetforge.minuscule
import posetforge.roots
import posetforge.sequences
from posetforge import (
    BadParameters,
    Poset,
    SizeLimitExceeded,
    UnknownCheck,
    build_poset,
    chain_poset,
    checks,
    minuscule_poset,
)
from posetforge.checks import check_defaults, registered_checks, run_all, run_check

TINY_CAPS = {"a": 1, "b": 1, "n": 1, "m": 0, "max_size": 2}


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("no-such-check")
    with pytest.raises(UnknownCheck):
        check_defaults("no-such-check")


def test_bad_parameters():
    with pytest.raises(BadParameters):
        run_check("gale-rank-covers", {"bogus": 3})
    with pytest.raises(BadParameters):
        run_check("gale-rank-covers", {"n": "three"})
    with pytest.raises(BadParameters):
        run_check("gale-rank-covers", {"n": -1})


def test_registry_is_sorted_and_summarized():
    checks = registered_checks()
    ids = [c.check_id for c in checks]
    assert ids == sorted(ids)
    assert len(ids) == 20
    assert all(c.summary for c in checks)


def test_single_check_report_shape():
    report = run_check("five-element-example")
    assert report.passed and report.verdict == "pass"
    assert report.certificate["antichains"] == ["{a,b}", "{d,e}"]
    blob = json.dumps(report.to_json_dict())
    assert "five-element-example" in blob


def test_examples_are_exact():
    cube = run_check("boolean-cube-example")
    assert cube.passed
    assert cube.certificate["elements"] == 9
    assert len(cube.certificate["maximal"]) == 3
    assert len(cube.certificate["minimal"]) == 3


def test_existential_checks_carry_witnesses():
    report = run_check("e7-self-map")
    assert report.passed
    witness = report.certificate["witness"]["forward"]
    assert len(witness) == 27


def test_universal_checks_carry_exhaustion_statements():
    report = run_check("gale-rank-covers", {"n": 4})
    assert report.passed
    assert report.certificate["exhausted"]["max_n"] == 4


def test_run_all_at_tiny_caps_passes_degenerately():
    reports = run_all(TINY_CAPS)
    assert len(reports) == 20
    assert all(r.passed for r in reports)
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids)


def test_fault_injection_fails_loudly(monkeypatch):
    # a corrupted constructor must surface as a failing check with a counterexample
    monkeypatch.setattr(
        posetforge.minuscule, "minuscule_poset", lambda kind: chain_poset(27)
    )
    report = run_check("e7-self-map")
    assert not report.passed
    assert "counterexample" in report.certificate
    report = run_check("e7-antichains")
    assert not report.passed


def test_overrides_only_reach_matching_checks():
    # a key that no check takes is an error, not silently ignored
    with pytest.raises(BadParameters, match="'extra_cap_nobody_has'"):
        run_all({**TINY_CAPS, "extra_cap_nobody_has": 3})
    with pytest.raises(BadParameters, match="'max_sise'"):
        run_all({"max_sise": 8})
    # each known key is filtered per check, and all stay green
    reports = run_all(TINY_CAPS)
    assert all(r.passed for r in reports)
    for r in reports:
        defaults = check_defaults(r.check_id)
        assert r.parameters == {**defaults, **{k: v for k, v in TINY_CAPS.items() if k in defaults}}


def test_every_certificate_is_json_serializable():
    blob = json.dumps([r.to_json_dict() for r in run_all(TINY_CAPS)])
    assert "verdict" in blob
    # and a full-size certificate with witnesses
    small = {"a": 1, "b": 1, "n": 1, "m": 0}
    blob = json.dumps(run_check("minuscule-distributive", small).to_json_dict())
    assert "witness" in blob


def test_exception_in_check_becomes_error_verdict(raise_in_check):
    raise_in_check("five-element-example", SizeLimitExceeded("capped at 3"))
    report = run_check("five-element-example")
    assert report.verdict == "error" and not report.passed
    assert report.to_json_dict()["error"] == {"type": "SizeLimitExceeded", "message": "capped at 3"}
    assert report.certificate is None
    # the other checks still run and report
    reports = run_all(TINY_CAPS)
    assert len(reports) == 20
    assert [r.check_id for r in reports if r.verdict != "pass"] == ["five-element-example"]


def test_pass_report_has_no_error_key():
    blob = run_check("five-element-example").to_json_dict()
    assert set(blob) == {"check_id", "parameters", "verdict", "certificate", "elapsed_s"}


@pytest.mark.parametrize(
    "check_id, caps",
    [
        pytest.param("spin-antichain-merge", {"n": 8}, id="spin-antichain-merge"),
        pytest.param("root-complement-involution", {"n": 8}, id="root-complement-involution"),
        pytest.param("durfee-product", {"a": 6, "b": 6}, id="durfee-product"),
        pytest.param("grid-antichain-durfee", {"a": 6, "b": 6}, id="grid-antichain-durfee"),
    ],
)
def test_checks_past_the_iso_cap_pass_on_their_explicit_maps(check_id, caps):
    # n=8 and a=b=6 reach orders above the 200-element isomorphism cap;
    # the verified label map alone proves the isomorphism
    report = run_check(check_id, caps)
    assert report.verdict == "pass", report.to_json_dict()


# sha256 of each report at default caps, as `verify all --json` prints it
# (json.dumps with indent=2) without "elapsed_s"; any change to a verdict,
# a parameter or a certificate changes its digest
DEFAULT_CAP_DIGESTS = {
    "boolean-cube-example": "ccf254b89146d3b39dc3b0a857221e465b09bf6c8e4fe86db6c57a28b7185e18",
    "box-gale-composite": "50e20dbb5806873a1e2e8732333750f279194d87c24d9659d59587287a90f4e4",
    "dilworth-max-antichains": "c42b51c7084499ad207408329a638fd839b903976ecb30ae305eaf287e1b4243",
    "durfee-product": "c30ecc27e392b0da2342cab553b24d079c43f40ea1d3a308b50aa628ed561cb3",
    "e6-antichains": "99d49252ea7be029dbeac82f03443672f4eff88278083b4e089733c909dda1bb",
    "e7-antichains": "0e823fdb4aa9302ac7ac2cfa5aa39469eede76315d1ecc92fee5987908858683",
    "e7-self-map": "9b6ce4b331eb213ade54c041c6bcb56c411ab5250127a2552883578a5b3bcd3e",
    "exchange-order-basics": "11029e11728d79fe814f98fb540d006905f33e7eca41c0b15ba8018c4a324746",
    "five-element-example": "14a8eab46f3ec3d1089c4d726d84afb34946c8d0b68a6ef4d1d003f9da8c3761",
    "gale-rank-covers": "dd138bfdfe445bee2497212babee11e327cbe45b4b89b54f24775062cb7167e0",
    "grid-antichain-durfee": "49f46606c4619f2fce3bf4a4d753e54099554eeb995781f18eac08f833b7a31c",
    "grid-antichain-split": "9116c2db10fc9cf55f929d42600b4d68c3bc0e691ed0f79f2af374a6c0dd2690",
    "ideal-heights-iso": "61d2e9b6d48b19da722c6176bdb4fd663a0a0ce53cde15bd12600daf9ba2f30e",
    "minuscule-distributive": "77275ddda5ec02e8b5f3dc5d60dcfc849e547ccf0cdbf95baa4f0b365845fa41",
    "narayana-symmetry": "efdd90b53d33b78c1da7db8a43377e1464f781d85dbc3ad5cc6121e0609537b5",
    "natural-family-antichains": "7f88281bf05302835d3a9bfaa67443a3fe3d282fba66c4bb899bbe850e88acce",
    "root-complement-involution": "6aef82e79ece739e45b33c175dee96bc0fc331a5a6380661f86049fe6a0465c5",
    "sequence-lattices": "77e4ee6f13bc4e61f2d499d7d1b2f2565e6230a57cada195f41ffc245666a717",
    "spin-antichain-merge": "aa3d21c6f27af918a750c0250417b76be8eb7da623b5ac69de2a6f274e8432aa",
    "weak-chain-shift-iso": "7a684995cc5a7f2d97e43147a3993474cedcad34919775397e2e02842a9546fa",
}


def test_default_cap_certificates_are_pinned():
    digests = {}
    for report in run_all():
        blob = report.to_json_dict()
        del blob["elapsed_s"]
        digests[report.check_id] = hashlib.sha256(json.dumps(blob, indent=2).encode()).hexdigest()
    assert digests == DEFAULT_CAP_DIGESTS


@pytest.fixture
def five_element_only(monkeypatch):
    """Run the corpus-driven checks on the five-element example alone."""
    monkeypatch.setattr(checks, "_corpus_and_minuscule", lambda *caps: [checks._five_element_example()])


def test_exchange_order_basics_fails_on_a_cover_that_is_no_single_step(monkeypatch, five_element_only):
    # the ideal order passes every other clause here, but {a,b} < {d,e} is
    # one of its covers and swaps both members
    ideal = posetforge.antichains.antichain_ideal_poset
    monkeypatch.setattr(
        posetforge.antichains, "antichain_exchange_poset", lambda P, k, edges="covers": ideal(P, k)
    )
    report = run_check("exchange-order-basics")
    assert report.verdict == "fail"
    example = report.certificate["counterexample"]
    assert example["reason"] == "cover characterization mismatch"
    assert (example["k"], example["pair"]) == (2, ["{a,b}", "{d,e}"])


def test_explicit_maps_need_no_matcher_and_no_search(monkeypatch, five_element_only):
    # a cover that is a single swap is its own matching, {x} -> x is the
    # isomorphism A_1(P) = P, Frobenius coordinates name the Durfee maps, and
    # e7-antichains states sizes, leaving A_2(E7) = E7 to e7-self-map: of all
    # the checks, only e6-antichains and e7-self-map search, once each, at k = 2
    assert not hasattr(posetforge.antichains, "has_order_matching")  # no matcher to run
    searched, search = {}, checks.find_isomorphism

    def recorded(P, Q):
        searched.setdefault(check_id, []).append((P, Q))
        return search(P, Q)

    monkeypatch.setattr(checks, "find_isomorphism", recorded)
    for check_id in [cdef.check_id for cdef in registered_checks()]:
        assert run_check(check_id).passed, check_id
    assert sorted(searched) == ["e6-antichains", "e7-self-map"]
    minuscule, exchange = posetforge.minuscule, posetforge.antichains.antichain_exchange_poset
    E6, E7 = minuscule_poset(minuscule.E6Kind()), minuscule_poset(minuscule.E7Kind())
    assert searched["e6-antichains"] == [(exchange(E6, 2), minuscule_poset(minuscule.NaturalD(3)))]
    assert searched["e7-self-map"] == [(E7, exchange(E7, 2))]


def _patch_exchange_steps(monkeypatch, change, *, modes):
    """Apply ``change`` to the successor rows that ``_exchange_edges`` returns in ``modes``."""
    edges = posetforge.antichains._exchange_edges

    def patched(P, masks, *, covers_only):
        succ = edges(P, masks, covers_only=covers_only)
        return change(succ) if ("covers" if covers_only else "all") in modes else succ

    monkeypatch.setattr(posetforge.antichains, "_exchange_edges", patched)


def _drop_first_step(succ):
    # unchanged when there is no step, as at k = 0
    i = next((i for i, row in enumerate(succ) if row), None)
    return [row & row - 1 if r == i else row for r, row in enumerate(succ)]


def _add_a_two_step(succ):
    # i -> j -> l made a step i -> l: the closure stays, the steps are no longer covers
    for i, row in enumerate(succ):
        for j in posetforge.poset._bits(row):
            if succ[j]:
                out = list(succ)
                out[i] |= succ[j] & -succ[j]
                return out
    return succ


@pytest.mark.parametrize(
    "change, modes",
    [(_drop_first_step, {"covers", "all"}), (_drop_first_step, {"covers"}), (_add_a_two_step, {"covers"})],
    ids=["drop-both-routes", "drop-covers-route", "add-a-two-step"],
)
def test_exchange_order_basics_fails_on_a_changed_swap(monkeypatch, five_element_only, change, modes):
    assert run_check("exchange-order-basics").passed
    _patch_exchange_steps(monkeypatch, change, modes=modes)
    report = run_check("exchange-order-basics")
    assert report.verdict == "fail", report.certificate


def test_exchange_order_basics_fails_on_a_dropped_swap_in_the_corpus(monkeypatch):
    # no fixture: the corpus and the families at small caps, as verify runs them
    caps = {"max_size": 4, "a": 2, "b": 2, "n": 2, "m": 1}
    assert run_check("exchange-order-basics", caps).passed
    _patch_exchange_steps(monkeypatch, _drop_first_step, modes={"covers", "all"})
    assert run_check("exchange-order-basics", caps).verdict == "fail"


def _drop_first_step_at(monkeypatch, k):
    """Drop the first swap between k-antichains from both edge routes."""
    edges = posetforge.antichains._exchange_edges

    def patched(P, masks, *, covers_only):
        succ = edges(P, masks, covers_only=covers_only)
        return _drop_first_step(succ) if masks and masks[0].bit_count() == k else succ

    monkeypatch.setattr(posetforge.antichains, "_exchange_edges", patched)


def test_a_swap_dropped_from_both_routes_is_caught_by_the_derived_covers(monkeypatch):
    # 1 < 2 beside 3, with {1,3} < {2,3} lost from both routes at k = 2 only: the
    # routes agree, and only the swaps the check lists itself, compared with
    # E_all's derived covers, see it (at k = 1 the map {x} -> x onto P would)
    monkeypatch.setattr(
        checks, "_corpus_and_minuscule", lambda *caps: [build_poset(["1", "2", "3"], [("1", "2")])]
    )
    assert run_check("exchange-order-basics").passed
    _drop_first_step_at(monkeypatch, 2)
    example = run_check("exchange-order-basics").certificate["counterexample"]
    assert example["reason"] == "cover characterization mismatch"
    assert (example["k"], example["pair"]) == (2, ["{1,3}", "{2,3}"])


@pytest.mark.parametrize(
    "check_id, caps, example",
    [
        (
            "exchange-order-basics",
            TINY_CAPS,
            {"poset": [("x0", "x1")], "k": 1, "reason": "A_1 not iso to P"},
        ),
        ("natural-family-antichains", {}, {"m": 0, "k": 1}),
        ("e6-antichains", {}, {"k": 1}),
        ("e7-antichains", {}, {"k": 1}),
    ],
)
def test_a_swap_dropped_at_k1_breaks_the_singleton_map(monkeypatch, check_id, caps, example):
    # the first poset with a swap is the 2-chain in the corpus and the 2x2 grid
    # (m = 0) in the natural family; dropping a cover from both routes keeps them equal
    assert run_check(check_id, caps).passed
    _drop_first_step_at(monkeypatch, 1)
    report = run_check(check_id, caps)
    assert report.verdict == "fail"
    assert report.certificate == {"counterexample": example}


def test_root_complement_involution_complements_each_antichain_once(monkeypatch):
    # the tables of both sizes show the involution, with no second complement:
    # one call per antichain, the Catalan numbers 2 + 5 + 14 + 42 + 132 up to n = 6
    calls = []
    complement = posetforge.roots.panyushev_complement
    monkeypatch.setattr(posetforge.roots, "panyushev_complement", lambda A: calls.append(A) or complement(A))
    report = run_check("root-complement-involution", {"n": 6})
    assert report.certificate == {"exhausted": {"max_n": 6, "antichains": 195}}
    assert len(calls) == 195


def test_root_complement_involution_enumerates_each_size_once(monkeypatch):
    # each size's table is built right before its exchange order, which reuses
    # the kept enumeration: one per (rank, size), 2 + 3 + 4 + 5 + 6 up to n = 6
    calls = []
    enumerate_antichains = Poset._enumerate_antichains
    monkeypatch.setattr(
        Poset, "_enumerate_antichains", lambda P, k: calls.append((P.n, k)) or enumerate_antichains(P, k)
    )
    assert run_check("root-complement-involution", {"n": 6}).passed
    assert len(calls) == len(set(calls)) == 20


def test_root_complement_involution_sees_a_dropped_swap_on_the_larger_side(monkeypatch):
    # sizes 1 and 2 are compared once, from size 1, at n = 4 (6 antichains
    # each); a swap lost from A_2 alone still breaks the map onto it
    assert run_check("root-complement-involution", {"n": 4}).passed
    _drop_first_step_at(monkeypatch, 2)
    report = run_check("root-complement-involution", {"n": 4})
    assert report.verdict == "fail"
    assert report.certificate == {"counterexample": {"n": 4, "k": 1, "reason": "not an iso"}}


def test_root_complement_involution_fails_on_a_non_injective_complement(monkeypatch):
    # every antichain goes to the first one of the complementary size: the
    # sizes are right, and complementing twice is what catches it
    monkeypatch.setattr(
        posetforge.roots,
        "panyushev_complement",
        lambda A: A.poset.antichains_of_size(A.poset.width() - len(A))[0],
    )
    report = run_check("root-complement-involution")
    assert report.verdict == "fail"
    assert "twice" in report.certificate["counterexample"]


def _drop_first_cover(build):
    """``build`` with the first cover of each poset it returns left out."""

    def patched(*args):
        P = build(*args)
        return build_poset(P.labels, P.covers()[1:])

    return patched


def test_gale_rank_covers_fails_on_a_dropped_cover(monkeypatch):
    # (1) < (2) in Gale(2,1) is the first cover the check meets
    assert run_check("gale-rank-covers").passed
    gale_poset = _drop_first_cover(posetforge.sequences.gale_poset)
    monkeypatch.setattr(posetforge.sequences, "gale_poset", gale_poset)
    report = run_check("gale-rank-covers")
    assert report.verdict == "fail"
    assert report.certificate == {"counterexample": {"n": 2, "k": 1, "x": "(1)", "y": "(2)"}}


def test_weak_chain_shift_iso_fails_on_a_dropped_cover(monkeypatch):
    # (0) < (1) in the weak chains at a = b = 1 is the first cover the check meets
    assert run_check("weak-chain-shift-iso").passed
    weak_chain_poset = _drop_first_cover(posetforge.sequences.weak_chain_poset)
    monkeypatch.setattr(posetforge.sequences, "weak_chain_poset", weak_chain_poset)
    report = run_check("weak-chain-shift-iso")
    assert report.verdict == "fail"
    assert report.certificate == {"counterexample": {"a": 1, "b": 1}}


def test_natural_family_builds_one_level_from_the_last(monkeypatch):
    # level m is the ideal lattice of level m - 1: m ideals_poset calls, where building
    # every level from the 2x2 grid made m(m+1)/2, 210 at m = 20
    calls, levels = [], {}
    ideals_poset, exchange = Poset.ideals_poset, posetforge.antichains.antichain_exchange_poset

    def recorded_exchange(P, k):
        levels.setdefault(P.n, P)  # level m has 2m + 4 elements
        return exchange(P, k)

    monkeypatch.setattr(Poset, "ideals_poset", lambda P: calls.append(P) or ideals_poset(P))
    monkeypatch.setattr(posetforge.antichains, "antichain_exchange_poset", recorded_exchange)
    assert run_check("natural-family-antichains", {"m": 20}).passed
    assert len(calls) == 20
    monkeypatch.undo()
    for m in range(13):
        P, Q = levels[2 * m + 4], minuscule_poset(posetforge.minuscule.NaturalD(m))
        assert (P.labels, P.up) == (Q.labels, Q.up), m


# -- the parallel runner ------------------------------------------------------


def _without_elapsed(reports):
    return [{k: v for k, v in r.to_json_dict().items() if k != "elapsed_s"} for r in reports]


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("caps", [TINY_CAPS, {}], ids=["tiny-caps", "default-caps"])
def test_run_all_gives_the_same_reports_with_any_number_of_workers(monkeypatch, caps):
    runs = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(checks, "_worker_count", lambda count: workers)
        runs[workers] = _without_elapsed(run_all(caps))
        _assert_no_worker_left()
    assert len(runs[1]) == 20
    assert runs[2] == runs[1] and runs[4] == runs[1]


def test_worker_count_is_one_per_cpu_and_one_without_fork_or_with_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert checks._worker_count(20) == min(cpus, 20)
    assert checks._worker_count(1) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert checks._worker_count(20) == 1
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert checks._worker_count(20) == 1


@pytest.fixture
def run_in_a_worker(monkeypatch):
    """Make the last registered check run ``fn`` in the forked worker of a two-worker run.

    This process claims one of the first two checks before the worker can
    reach the last one, and every check it runs waits until the worker has
    started ``fn``, so the worker claims every other check.
    """
    parent, (started, starting) = os.getpid(), os.pipe()
    monkeypatch.setattr(checks, "_worker_count", lambda count: 2)

    def wait_then(run):
        def waiting(**params):
            if os.getpid() == parent:
                select.select([started], [], [], 60)
            return run(**params)

        return waiting

    def patch(fn):
        *first, last = registered_checks()
        for cdef in first:
            monkeypatch.setitem(checks._REGISTRY, cdef.check_id, dataclasses.replace(cdef, fn=wait_then(cdef.fn)))

        def in_the_worker(**params):
            assert os.getpid() != parent
            os.write(starting, b".")
            return fn(**params)

        monkeypatch.setitem(checks._REGISTRY, last.check_id, dataclasses.replace(last, fn=in_the_worker))

    yield patch
    os.close(started)
    os.close(starting)


class _TwoArgError(Exception):
    """An exception that pickles but does not unpickle: its constructor wants two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _raise_two_arg_error(**params):
    raise _TwoArgError(1, 2)


@pytest.mark.parametrize(
    "fn, code",
    [(lambda **params: os._exit(7), 7), (_raise_two_arg_error, 1)],
    ids=["exit-7", "exception-that-does-not-unpickle"],
)
def test_a_worker_that_dies_takes_only_its_check(run_in_a_worker, fn, code):
    run_in_a_worker(fn)
    reports = run_all(TINY_CAPS)
    _assert_no_worker_left()
    assert len(reports) == 20
    *others, lost = reports
    assert all(r.verdict == "pass" for r in others)
    assert lost.check_id == "weak-chain-shift-iso" and lost.parameters == {"a": 1, "b": 1}
    assert lost.verdict == "error" and lost.certificate is None
    assert type(lost.error) is RuntimeError and f"exited with code {code} " in str(lost.error)


def test_an_exception_raised_in_a_worker_keeps_its_type(run_in_a_worker):
    def capped(**params):
        raise SizeLimitExceeded(f"capped in process {os.getpid()}")

    run_in_a_worker(capped)
    *others, report = run_all(TINY_CAPS)
    _assert_no_worker_left()
    assert all(r.verdict == "pass" for r in others)
    assert type(report.error) is SizeLimitExceeded
    assert report.to_json_dict()["error"]["type"] == "SizeLimitExceeded"
    assert int(str(report.error).split()[-1]) != os.getpid()
