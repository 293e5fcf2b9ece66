import json

import pytest

import posetforge.minuscule
from posetforge import BadParameters, SizeLimitExceeded, UnknownCheck, chain_poset
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
    reports = run_all({**TINY_CAPS, "extra_cap_nobody_has": 3})
    # silently ignored by run_all (filtered per check), still all green
    assert all(r.passed for r in reports)


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
