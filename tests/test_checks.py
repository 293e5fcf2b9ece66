import hashlib
import json

import pytest

import posetforge.antichains
import posetforge.minuscule
from posetforge import BadParameters, SizeLimitExceeded, UnknownCheck, chain_poset, checks
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


@pytest.mark.parametrize("check_id", ["spin-antichain-merge", "root-complement-involution"])
def test_checks_past_the_iso_cap_pass_on_their_explicit_maps(check_id):
    # n=8 reaches exchange orders above the 200-element isomorphism cap;
    # the verified label map alone proves the isomorphism
    report = run_check(check_id, {"n": 8})
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


def test_exchange_order_basics_fails_on_a_missing_matching(monkeypatch, five_element_only):
    monkeypatch.setattr(posetforge.antichains, "has_order_matching", lambda P, A, B: False)
    report = run_check("exchange-order-basics")
    assert report.verdict == "fail"
    example = report.certificate["counterexample"]
    assert example["reason"] == "no order-compatible matching"
    assert (example["k"], example["pair"]) == (1, ["{a}", "{c}"])


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


def test_exchange_order_basics_matches_once_per_cover(monkeypatch, five_element_only):
    calls = []
    match = posetforge.antichains.has_order_matching
    monkeypatch.setattr(
        posetforge.antichains,
        "has_order_matching",
        lambda P, A, B: calls.append((A.label, B.label)) or match(P, A, B),
    )
    assert run_check("exchange-order-basics").passed
    P = checks._five_element_example()
    exchange = posetforge.antichains.antichain_exchange_poset
    covers = [pair for k in range(P.width() + 1) for pair in exchange(P, k).covers()]
    assert sorted(calls) == sorted(covers) and len(calls) == len(set(calls))
