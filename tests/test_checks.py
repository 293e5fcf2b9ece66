import hashlib
import itertools
import json
import os
import threading

import pytest

import posetforge.antichains
import posetforge.ferrers
import posetforge.lattice
import posetforge.minuscule
import posetforge.poset
import posetforge.roots
import posetforge.sequences
from posetforge import (
    BadParameters,
    DistributivityResult,
    Poset,
    SizeLimitExceeded,
    UnknownCheck,
    build_poset,
    chain_poset,
    checks,
    grid_poset,
    minuscule_poset,
)
from posetforge.checks import CheckDef, check_defaults, registered_checks, run_all, run_check
from posetforge.poset import _bits, grid_mask_points, index_map_order_equal

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
    "grid-antichain-durfee": "41fe00ab946c8cf55d96e414e71100569ca6eec91b4ea1f7598d07fac1ef682b",
    "grid-antichain-split": "9116c2db10fc9cf55f929d42600b4d68c3bc0e691ed0f79f2af374a6c0dd2690",
    "ideal-heights-iso": "5694e57ddf7ffbc8054fe82a609b362fe6bd8ecd20fbf67856968d6b21e32ab3",
    "minuscule-distributive": "77275ddda5ec02e8b5f3dc5d60dcfc849e547ccf0cdbf95baa4f0b365845fa41",
    "narayana-symmetry": "efdd90b53d33b78c1da7db8a43377e1464f781d85dbc3ad5cc6121e0609537b5",
    "natural-family-antichains": "7f88281bf05302835d3a9bfaa67443a3fe3d282fba66c4bb899bbe850e88acce",
    "root-complement-involution": "6aef82e79ece739e45b33c175dee96bc0fc331a5a6380661f86049fe6a0465c5",
    "sequence-lattices": "77e4ee6f13bc4e61f2d499d7d1b2f2565e6230a57cada195f41ffc245666a717",
    "spin-antichain-merge": "5b13d7479585358016316e232f82fad111ecebcb5cfd501132b4b94f7f2b18e3",
    "weak-chain-shift-iso": "7a684995cc5a7f2d97e43147a3993474cedcad34919775397e2e02842a9546fa",
}


RAISED_CAPS = {"a": 6, "b": 6, "n": 8, "m": 7}

# the same digests at RAISED_CAPS, where every named map reaches orders of
# hundreds of elements (924 antichains of the 6x6 grid, Gale(12,6))
RAISED_CAP_DIGESTS = {
    "boolean-cube-example": "ccf254b89146d3b39dc3b0a857221e465b09bf6c8e4fe86db6c57a28b7185e18",
    "box-gale-composite": "453d7c1baf6e86688f08122453a614b18a51efd59ceb105bed393e6d759def8c",
    "dilworth-max-antichains": "c42b51c7084499ad207408329a638fd839b903976ecb30ae305eaf287e1b4243",
    "durfee-product": "b4e34f6ec1984f83188a92e67f8359da86330c1747386113e2231fc0f3d614b6",
    "e6-antichains": "99d49252ea7be029dbeac82f03443672f4eff88278083b4e089733c909dda1bb",
    "e7-antichains": "0e823fdb4aa9302ac7ac2cfa5aa39469eede76315d1ecc92fee5987908858683",
    "e7-self-map": "9b6ce4b331eb213ade54c041c6bcb56c411ab5250127a2552883578a5b3bcd3e",
    "exchange-order-basics": "f54bdb2f499b6505d18d8719c64cc8c01a727a5b99d7afe9ba0cb7960e492842",
    "five-element-example": "14a8eab46f3ec3d1089c4d726d84afb34946c8d0b68a6ef4d1d003f9da8c3761",
    "gale-rank-covers": "dd138bfdfe445bee2497212babee11e327cbe45b4b89b54f24775062cb7167e0",
    "grid-antichain-durfee": "9eda4daadd8b3000c58443c8fa95801c40f225c31450899ed9c73c1aeb0d8255",
    "grid-antichain-split": "8a05349fbe11ad3db45d16ebb2ae29c2ac51d650aba68cf3ab814205e8f197c5",
    "ideal-heights-iso": "10f5548278b34903db10e1d1ac80ee62533973850a77e9c0835de2289455feb3",
    "minuscule-distributive": "9cb6eec20c63affba4d042aa8038c51426ecf3eef4b46600fa53e898b1e182e6",
    "narayana-symmetry": "3c6385c28dfbcfdb0965e838cc9353879748bdda02efe016381610f297049885",
    "natural-family-antichains": "23cf2cd39500ba206cd273a87db4ff54ab0cb1d157b6cf1671b29fa45daa1447",
    "root-complement-involution": "f22e01154881ca0aa5b533846d95193e71fd959e3e5512517609dbd96dd7730f",
    "sequence-lattices": "cb03c2632bc9273a74ccafac0f92579ee2f0bcd53a99d06380d1edc0b9166a87",
    "spin-antichain-merge": "f294697f964cc506c00da1d4e5d6610ede3166983531e9c3eee84e30f4d5124e",
    "weak-chain-shift-iso": "7c3331a2c8e296286ddb7dc7a9b48262aae3e81fc073bc2baed220506439a9c6",
}


def _digest(report):
    blob = report.to_json_dict()
    del blob["elapsed_s"]
    return hashlib.sha256(json.dumps(blob, indent=2).encode()).hexdigest()


def test_default_cap_certificates_are_pinned():
    assert {report.check_id: _digest(report) for report in run_all()} == DEFAULT_CAP_DIGESTS


def test_raised_cap_certificates_are_pinned():
    assert {report.check_id: _digest(report) for report in run_all(RAISED_CAPS)} == RAISED_CAP_DIGESTS


NAMED_MAP_CHECKS = [
    "box-gale-composite",
    "durfee-product",
    "grid-antichain-durfee",
    "grid-antichain-split",
    "ideal-heights-iso",
    "spin-antichain-merge",
    "weak-chain-shift-iso",
]


@pytest.mark.parametrize("check_id", [*NAMED_MAP_CHECKS, "root-complement-involution"])
def test_named_map_checks_compare_cover_rows_without_labels(monkeypatch, check_id):
    # the maps are named on index masks and entry tuples, so no grid point is
    # parsed, no subset label joined and no label looked up on the way to the
    # cover rows
    def refuse(*args):
        raise AssertionError("a label was built, parsed or looked up")

    monkeypatch.setattr(Poset, "subset_label", refuse)
    monkeypatch.setattr(Poset, "_index", property(refuse))
    report = run_check(check_id)
    assert report.verdict == "pass", report.to_json_dict()
    assert _digest(report) == DEFAULT_CAP_DIGESTS[check_id]


# every check but boolean-cube-example, five-element-example (through
# refinement_report and the meet/join fallback), e6-antichains and
# e7-self-map (search), which read the full relation on purpose
COVER_ONLY_CHECKS = [
    "box-gale-composite",
    "dilworth-max-antichains",
    "durfee-product",
    "e7-antichains",
    "exchange-order-basics",
    "gale-rank-covers",
    "grid-antichain-durfee",
    "grid-antichain-split",
    "ideal-heights-iso",
    "minuscule-distributive",
    "narayana-symmetry",
    "natural-family-antichains",
    "root-complement-involution",
    "sequence-lattices",
    "spin-antichain-merge",
    "weak-chain-shift-iso",
]


@pytest.mark.parametrize("check_id", COVER_ONLY_CHECKS)
def test_checks_do_not_close_an_exchange_order(monkeypatch, check_id):
    # the default exchange order and the Birkhoff target are cover-first; these
    # checks compare them by their cover rows alone, so neither is ever closed
    def refuse(*args):
        raise AssertionError("a cover-first order was closed")

    monkeypatch.setattr(posetforge.poset._CoverFirstPoset, "up", property(refuse))
    with pytest.raises(AssertionError, match="closed"):
        posetforge.antichains.antichain_exchange_poset(chain_poset(2), 1).up
    report = run_check(check_id)
    assert report.verdict == "pass", report.to_json_dict()
    assert _digest(report) == DEFAULT_CAP_DIGESTS[check_id]


# the checks of named maps on exchange orders: each reads an antichain's covers
# from its mask through the one swap rule (antichains._swaps)
LOCAL_MAP_CHECKS = [
    "grid-antichain-durfee",
    "grid-antichain-split",
    "root-complement-involution",
    "spin-antichain-merge",
]


@pytest.mark.parametrize("check_id", LOCAL_MAP_CHECKS)
def test_exchange_order_map_checks_build_no_order(monkeypatch, check_id):
    # no exchange order, no Durfee order and no product but the grid's own
    # (of two chains): the target covers come from Gale cover rows, the bump
    # rule or the swap rule
    def refuse(*args, **kwargs):
        raise AssertionError("an order was built")

    product = Poset.product

    def chains_only(P, Q):
        if any(c.bit_count() > 1 for R in (P, Q) for c in R.cover_up):
            raise AssertionError("a product order was built")
        return product(P, Q)

    monkeypatch.setattr(posetforge.antichains, "antichain_exchange_poset", refuse)
    monkeypatch.setattr(posetforge.antichains, "_exchange_edges", refuse)
    monkeypatch.setattr(posetforge.ferrers, "durfee_poset", refuse)
    monkeypatch.setattr(Poset, "product", chains_only)
    gale_calls = []
    if check_id == "spin-antichain-merge":
        # one Gale order only, Gale(n+2, 2) for the base identification at each n;
        # the covers of Gale(n+2, 2k) come from the bump rule
        gale_poset = posetforge.sequences.gale_poset

        def base_only(n, k):
            if k != 2 or (n, k) in gale_calls:
                raise AssertionError(f"Gale({n}, {k}) was built")
            gale_calls.append((n, k))
            return gale_poset(n, k)

        monkeypatch.setattr(posetforge.sequences, "gale_poset", base_only)
    report = run_check(check_id)
    assert report.verdict == "pass", report.to_json_dict()
    assert _digest(report) == DEFAULT_CAP_DIGESTS[check_id]
    if check_id == "spin-antichain-merge":
        assert gale_calls == [(nn + 2, 2) for nn in range(1, 7)]


def _compare_routes(P, k, image_of, target):
    """Whether a map from P's k-antichains onto ``target`` is an isomorphism, by
    both routes: ``swap_map_covers`` on masks and ``index_map_order_equal`` on
    the built exchange order, which must agree, also with two images exchanged."""
    E = posetforge.antichains.antichain_exchange_poset(P, k)
    masks = E._subsets[1]
    img = [image_of(m) for m in masks]
    verdicts = []
    for trial in [img, [*img[1:2], *img[:1], *img[2:]]]:
        local = posetforge.antichains.swap_map_covers(
            P, dict(zip(masks, trial)), range(target.n), lambda t: _bits(target.cover_up[t])
        )
        built = index_map_order_equal(E, target, trial)
        assert (local is not None) == built, (P, k, len(verdicts))
        if built:
            assert local == sum(c.bit_count() for c in E.cover_up)
        verdicts.append(built)
    return verdicts[0]


def test_swap_map_covers_agrees_with_the_built_orders_up_to_raised_caps():
    seq, ferrers = posetforge.sequences, posetforge.ferrers
    a, b, n = RAISED_CAPS["a"], RAISED_CAPS["b"], RAISED_CAPS["n"]
    cases = 0
    for aa in range(1, a + 1):
        for bb in range(1, b + 1):
            G = grid_poset(aa, bb)
            for k in range(min(aa, bb) + 1):
                gb = seq.gale_poset(bb, k)

                def split_rank(m):
                    xs, ys = ferrers.split_points(grid_mask_points(bb, m))
                    return seq.gale_rank(xs) * gb.n + seq.gale_rank(ys)

                assert _compare_routes(G, k, split_rank, seq.gale_poset(aa, k).product(gb))
                diagrams = ferrers._diagrams_by_durfee_length(aa, bb)[k]
                diagram_at = {ferrers.frobenius(d): i for i, d in enumerate(diagrams)}

                def diagram_index(m):
                    return diagram_at.get(ferrers.split_points(grid_mask_points(bb, m)))

                assert _compare_routes(G, k, diagram_index, ferrers.durfee_poset(aa, bb, k))
                cases += 2
    for nn in range(1, n + 1):
        P = grid_poset(nn, 2).ideals_poset()
        pairs = [seq.shifted(seq.grid_ideal_heights(2, m)) for m in P._subsets[1]]
        for k in range(P.width() + 1):

            def merged_rank(m):
                return seq.gale_rank(ferrers.merge_pairs([pairs[t] for t in _bits(m)]))

            assert _compare_routes(P, k, merged_rank, seq.gale_poset(nn + 2, 2 * k))
            cases += 1
    for nn in range(2, n + 1):
        P = posetforge.roots.type_a_root_poset(nn)
        for k in range(nn):
            F = posetforge.antichains.antichain_exchange_poset(P, nn - 1 - k)
            index = {m: j for j, m in enumerate(F._subsets[1])}

            def complement_index(m):
                return index[posetforge.roots.panyushev_complement(P.antichain(_bits(m))).mask]

            assert _compare_routes(P, k, complement_index, F)
            cases += 1
    # 127 grid cases, each by both maps, 32 spin and 35 root cases
    assert cases == 2 * 127 + 32 + 35


def test_durfee_bump_rule_gives_the_durfee_order_covers():
    # for a, b <= 7 and every k: the covers of durfee_poset are the one-entry
    # bumps of the padded heights that stay among the Durfee-length-k diagrams
    cases = 0
    for a in range(8):
        for b in range(8):
            for k, diagrams in enumerate(posetforge.ferrers._diagrams_by_durfee_length(a, b)):
                D = posetforge.ferrers.durfee_poset(a, b, k)
                padded = [d + (0,) * (b - len(d)) for d in diagrams]
                index = {h: i for i, h in enumerate(padded)}
                assert [sum(1 << j for j in checks._bumps(index, h)) for h in padded] == list(D.cover_up)
                cases += 1
    assert cases == 204


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


def test_the_singleton_map_rejects_a_1_of_another_poset_of_the_same_size():
    P = build_poset(["a", "b", "c"], [("a", "b")])
    assert checks._is_singleton_copy(posetforge.antichains.antichain_exchange_poset(P, 1), P)
    for other in [
        build_poset(["a", "b", "c"], [("b", "c")]),  # another order on the same labels
        build_poset(["a", "b", "c"], [("b", "a")]),  # isomorphic to P, but not under x -> x
        P.relabeled(["x", "y", "z"]),  # the same order on other labels
        chain_poset(3),
    ]:
        A1 = posetforge.antichains.antichain_exchange_poset(other, 1)
        assert not checks._is_singleton_copy(A1, P)


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


def _drop_first_swap_at(monkeypatch, k):
    """Drop the first swap of every k-antichain from the one swap rule."""
    swaps = posetforge.antichains._swaps

    def patched(mask, steps_of, comp):
        out = swaps(mask, steps_of, comp)
        return itertools.islice(out, 1, None) if mask.bit_count() == k else out

    monkeypatch.setattr(posetforge.antichains, "_swaps", patched)


def test_root_complement_involution_sees_a_dropped_swap_on_the_larger_side(monkeypatch):
    # sizes 1 and 2 are compared once, from size 1, at n = 4 (6 antichains
    # each); a swap lost from A_2 alone still breaks the map onto it, whose
    # covers come from the same swap rule
    assert run_check("root-complement-involution", {"n": 4}).passed
    _drop_first_swap_at(monkeypatch, 2)
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


def _swap_values(fn, x, y):
    """``fn`` of one argument with its values at x and y exchanged: one image moved onto another."""

    def patched(arg):
        return fn(y if arg == x else x if arg == y else arg)

    return patched


# one planted fault per named-map check: the module attribute the check reads,
# with one image moved or one cover dropped, and the counterexample it must report
PLANTED_FAULTS = [
    pytest.param(
        # (0,1) and (1,1) are the top two ideals of the 1x2 grid, so swapping
        # their images keeps a bijection and reverses one cover
        "box-gale-composite", posetforge.sequences, "shifted",
        lambda shifted: _swap_values(shifted, (0, 1), (1, 1)),
        {"a": 1, "b": 2},
        id="box-gale-composite",
    ),
    pytest.param(
        "durfee-product", posetforge.ferrers, "frobenius",
        lambda frobenius: _swap_values(frobenius, (1,), (1, 1)),
        {"a": 1, "b": 1, "k": 1, "sizes": [1, 1]},
        id="durfee-product",
    ),
    pytest.param(
        # the cut of (1,1) stacks back to (1,1), not to the (1) it was asked for
        "durfee-product", posetforge.ferrers, "durfee_cut",
        lambda durfee_cut: _swap_values(durfee_cut, (1,), (1, 1)),
        {"a": 1, "b": 1, "diagram": "(1)"},
        id="durfee-product-cut",
    ),
    pytest.param(
        # (1) < (1,1) among the Durfee-length-1 diagrams of the 1x2 box: the
        # last bump of each padded height tuple is lost from the bump rule
        "grid-antichain-durfee", checks, "_bumps",
        lambda bumps: lambda index, e: bumps(index, e)[:-1],
        {"a": 1, "b": 2, "k": 1, "sizes": [2, 2]},
        id="grid-antichain-durfee",
    ),
    pytest.param(
        "grid-antichain-split", posetforge.ferrers, "split_points",
        lambda split_points: _swap_values(split_points, [(1, 1)], [(1, 2)]),
        {"a": 1, "b": 1, "k": 1},
        id="grid-antichain-split",
    ),
    pytest.param(
        # (0) < (1) among the weak chains at a = b = 1
        "ideal-heights-iso", posetforge.sequences, "weak_chain_poset",
        _drop_first_cover,
        {"a": 1, "b": 1},
        id="ideal-heights-iso",
    ),
    pytest.param(
        # the 1-antichains of the 3-chain at n = 1 map onto (1,2) < (1,3) < (2,3)
        "spin-antichain-merge", posetforge.ferrers, "merge_pairs",
        lambda merge_pairs: _swap_values(merge_pairs, [(1, 2)], [(1, 3)]),
        {"n": 1, "k": 1},
        id="spin-antichain-merge",
    ),
    pytest.param(
        # Gale(2,1) without its one cover is a 2-antichain, no lattice
        "sequence-lattices", posetforge.sequences, "gale_poset",
        _drop_first_cover,
        {"kind": "gale", "n": 2, "k": 1},
        id="sequence-lattices",
    ),
]


@pytest.mark.parametrize("check_id, module, name, plant, counterexample", PLANTED_FAULTS)
def test_named_map_checks_fail_on_a_planted_fault(monkeypatch, check_id, module, name, plant, counterexample):
    assert run_check(check_id).passed
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    report = run_check(check_id)
    assert report.verdict == "fail", report.to_json_dict()
    assert report.certificate == {"counterexample": counterexample}


def _last_entry_raised(fn):
    """``fn`` with the last entry of each list it returns raised by one."""

    def patched(*args):
        table = fn(*args)
        return table[:-1] + [table[-1] + 1]

    return patched


def _a_lattice(is_distributive):
    """``is_distributive`` that calls every poset a lattice, and not a distributive one."""
    return lambda P: DistributivityResult(False, True, failure={"reason": "planted"})


# one planted fault for each check that is no named map: the module attribute the
# check reads, changed so that the fact it certifies no longer holds
FACT_FAULTS = [
    pytest.param(
        # [1, 1] at n = 2 becomes [1, 2], no palindrome
        "narayana-symmetry", posetforge.roots, "narayana_table",
        _last_entry_raised,
        {"n": 2, "table": [1, 2]},
        id="narayana-symmetry",
    ),
    pytest.param(
        # the 1-antichains of the 2-chain lose their one cover, so they have no meet
        "dilworth-max-antichains", posetforge.antichains, "antichain_ideal_poset",
        _drop_first_cover,
        {"poset": [("x0", "x1")], "failure": {"reason": "no meet", "pair": ["{x0}", "{x1}"]}},
        id="dilworth-max-antichains",
    ),
    pytest.param(
        # the same for the 1-antichains of the 1x2 grid
        "minuscule-distributive", posetforge.antichains, "antichain_exchange_poset",
        _drop_first_cover,
        {"kind": "Grid(a=1, b=2)", "k": 1, "failure": {"reason": "no meet", "pair": ["{(1,1)}", "{(1,2)}"]}},
        id="minuscule-distributive",
    ),
    pytest.param(
        "five-element-example", posetforge.antichains, "ideal_leq",
        lambda ideal_leq: lambda low, high: False,
        {"reason": "{a,b} not below {d,e} in ideal order"},
        id="five-element-example",
    ),
    pytest.param(
        # a dropped cover keeps the sizes, the extremes and "not a lattice", so a
        # lattice is planted: it has one maximal and one minimal element
        "boolean-cube-example", posetforge.antichains, "antichain_exchange_poset",
        lambda antichain_exchange_poset: lambda P, k: chain_poset(9),
        {"maximal": ["9"], "minimal": ["1"]},
        id="boolean-cube-example",
    ),
    pytest.param(
        # every clause before the lattice verdict passes, so only that clause catches it
        "five-element-example", posetforge.lattice, "is_distributive",
        _a_lattice,
        {"reason": "exchange order unexpectedly a lattice"},
        id="five-element-example-lattice",
    ),
    pytest.param(
        "boolean-cube-example", posetforge.lattice, "is_distributive",
        _a_lattice,
        {"reason": "unexpectedly a lattice"},
        id="boolean-cube-example-lattice",
    ),
]


@pytest.mark.parametrize("check_id, module, name, plant, counterexample", FACT_FAULTS)
def test_fact_checks_fail_on_a_planted_fault(monkeypatch, check_id, module, name, plant, counterexample):
    assert run_check(check_id).passed
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    report = run_check(check_id)
    assert report.verdict == "fail", report.to_json_dict()
    assert report.certificate == {"counterexample": counterexample}


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


def test_a_parallel_run_forks_one_worker_each_and_runs_no_check_here(monkeypatch):
    parent, forked, fork = os.getpid(), [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def record_pid(**params):
        return True, {"pid": os.getpid()}

    for cdef in registered_checks():
        recording = CheckDef(cdef.check_id, cdef.summary, cdef.defaults, record_pid)
        monkeypatch.setitem(checks._REGISTRY, cdef.check_id, recording)
    monkeypatch.setattr(checks, "_worker_count", lambda count: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    reports = run_all(TINY_CAPS)
    _assert_no_worker_left()
    assert len(forked) == 2
    pids = {r.certificate["pid"] for r in reports}
    assert parent not in pids and pids <= set(forked)


def test_a_serial_run_forks_nothing_and_keeps_registry_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("a serial run forked or opened a pipe")

    monkeypatch.setattr(checks, "_worker_count", lambda count: 1)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "pipe", refuse)
    reports = run_all(TINY_CAPS)
    assert [r.check_id for r in reports] == [cdef.check_id for cdef in registered_checks()]
    assert all(r.verdict == "pass" for r in reports)


@pytest.fixture
def run_in_a_worker(monkeypatch):
    """Make the last registered check run ``fn`` in a forked worker of a two-worker run."""
    parent = os.getpid()
    monkeypatch.setattr(checks, "_worker_count", lambda count: 2)

    def patch(fn):
        last = registered_checks()[-1]

        def in_the_worker(**params):
            assert os.getpid() != parent
            return fn(**params)

        in_worker = CheckDef(last.check_id, last.summary, last.defaults, in_the_worker)
        monkeypatch.setitem(checks._REGISTRY, last.check_id, in_worker)

    return patch


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
