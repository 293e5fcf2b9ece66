"""Acceptance criteria, one test per criterion.

Every criterion is an exact combinatorial statement verified by
exhaustive computation at its stated parameter caps, with a wall-clock
budget.  Each test prints one pass/fail line; run with ``pytest -s``
to watch them stream.
"""

import subprocess
import sys
import time

from posetforge.checks import run_check

_DONE = []


def _criterion(number: int, description: str, budget_s: float, reports) -> None:
    if not isinstance(reports, list):
        reports = [reports]
    elapsed = sum(r.elapsed for r in reports)
    ok = all(r.passed for r in reports) and elapsed <= budget_s
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}  {elapsed:6.2f}s/{budget_s:.0f}s  {description}"
    print(line)
    _DONE.append(line)
    for r in reports:
        assert r.passed, f"criterion {number}: check {r.check_id} failed: {r.certificate}"
    assert elapsed <= budget_s, f"criterion {number}: {elapsed:.2f}s over {budget_s}s budget"


def test_criterion_01_box_ideals_match_gale_order():
    _criterion(
        1,
        "explicit composite map identifies box ideal lattices with Gale orders (a,b <= 4)",
        5.0,
        run_check("box-gale-composite", {"a": 4, "b": 4}),
    )


def test_criterion_02_durfee_product_antichain_triangle():
    reports = [
        run_check("durfee-product", {"a": 4, "b": 4}),
        run_check("grid-antichain-split", {"a": 4, "b": 4}),
        run_check("grid-antichain-durfee", {"a": 4, "b": 4}),
    ]
    _criterion(
        2,
        "fixed-Durfee diagrams = product of Gale orders = grid antichain posets (a,b <= 4)",
        10.0,
        reports,
    )


def test_criterion_03_exchange_order_basics_over_corpus():
    _criterion(
        3,
        "exchange-order basics hold over all posets on <= 6 points plus minuscule posets at caps",
        30.0,
        run_check("exchange-order-basics"),
    )


def test_criterion_04_worked_examples_exact():
    reports = [
        run_check("five-element-example"),
        run_check("boolean-cube-example"),
    ]
    _criterion(
        4,
        "five-element and boolean-cube examples reproduce exactly (sizes 2 and 9, non-lattices)",
        1.0,
        reports,
    )


def test_criterion_05_spin_family():
    _criterion(
        5,
        "antichain posets of ideal lattices of [n]x[2] flatten onto Gale orders (n <= 6)",
        5.0,
        run_check("spin-antichain-merge", {"n": 6}),
    )


def test_criterion_06_exceptional_identifications():
    reports = [
        run_check("natural-family-antichains", {"m": 5}),
        run_check("e6-antichains"),
        run_check("e7-antichains"),
        run_check("e7-self-map"),
    ]
    _criterion(
        6,
        "exact identifications for the iterated-ideal families (singletons, 10- and 27-element posets)",
        10.0,
        reports,
    )


def test_criterion_07_minuscule_distributivity():
    report = run_check("minuscule-distributive")
    assert all("witness" in case for case in report.certificate.get("cases", [])), (
        "every case must carry an ideal-representation witness"
    )
    _criterion(
        7,
        "every antichain poset of every minuscule poset at caps is distributive, witnesses emitted",
        10.0,
        report,
    )


def test_criterion_08_root_poset_involution_and_narayana():
    reports = [
        run_check("root-complement-involution", {"n": 6}),
        run_check("narayana-symmetry", {"n": 7}),
    ]
    _criterion(
        8,
        "complement involution induces isomorphisms (n <= 6); Narayana rows palindromic, Catalan sums (n <= 7)",
        10.0,
        reports,
    )


def test_criterion_09_dilworth_baseline():
    _criterion(
        9,
        "maximum antichains under the ideal order form distributive lattices (all posets <= 6 points)",
        10.0,
        run_check("dilworth-max-antichains"),
    )


def test_criterion_10_full_verify_all_exits_clean():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "posetforge", "verify", "all"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    line = f"{'PASS' if ok else 'FAIL'}  criterion 10  {elapsed:6.2f}s/60s  full `verify all` exits 0"
    print(line)
    _DONE.append(line)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    assert "20/20 checks passed" in proc.stdout


def test_zz_summary():
    print()
    for line in _DONE:
        print(line)
    assert len(_DONE) == 10
