"""The package's public surface: lazy exports and the plain record types."""

import copy
import importlib
import pickle
import subprocess
import sys

import pytest

import posetforge
from posetforge import (
    CheckReport,
    DistributivityResult,
    E6Kind,
    E7Kind,
    Grid,
    MeetJoinTable,
    NaturalD,
    PosetIso,
    RefinementReport,
    SpinD,
    chain_poset,
)
from posetforge.checks import CheckDef

EXPORTS = {
    "antichains": [
        "RefinementReport",
        "antichain_exchange_poset",
        "antichain_ideal_poset",
        "ideal_leq",
        "is_exchange_cover",
        "refinement_report",
    ],
    "checks": ["CheckReport", "registered_checks", "run_all", "run_check"],
    "corpus": ["small_posets"],
    "errors": [
        "BadParameters",
        "CycleDetected",
        "DuplicateLabel",
        "NotAnAntichain",
        "PosetForgeError",
        "SizeLimitExceeded",
        "SizeMismatch",
        "UnknownCheck",
        "UnknownLabel",
    ],
    "ferrers": [
        "diagrams_in_box",
        "durfee_length",
        "durfee_poset",
    ],
    "lattice": [
        "DistributivityResult",
        "MeetJoinTable",
        "is_distributive",
        "meet_join_table",
    ],
    "minuscule": [
        "E6Kind",
        "E7Kind",
        "Grid",
        "MinusculeKind",
        "NaturalD",
        "SpinD",
        "expected_width",
        "iterated_ideals",
        "minuscule_poset",
    ],
    "poset": [
        "Antichain",
        "Poset",
        "PosetIso",
        "build_poset",
        "chain_poset",
        "discrete_poset",
        "find_isomorphism",
        "grid_poset",
        "poset_from_dict",
        "poset_to_dict",
    ],
    "roots": ["narayana_table", "panyushev_complement", "type_a_root_poset"],
    "sequences": ["gale_poset", "weak_chain_poset"],
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]


def test_every_export_is_the_object_its_module_defines():
    assert len(ALL_NAMES) == len(set(ALL_NAMES)) == 51
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"posetforge.{module}")
        for name in names:
            assert getattr(posetforge, name) is getattr(mod, name), (module, name)


def test_star_import_yields_exactly_the_exports():
    namespace: dict = {}
    exec("from posetforge import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ALL_NAMES)
    assert sorted(posetforge.__all__) == sorted(ALL_NAMES)


def test_submodule_resolves_without_an_explicit_import():
    script = (
        "import sys, posetforge\n"
        "assert 'posetforge.antichains' not in sys.modules\n"
        "print(posetforge.antichains.antichain_exchange_poset.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["posetforge.antichains"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        posetforge.no_such_name
    assert not hasattr(posetforge, "cli_main")
    assert "antichains" in dir(posetforge) and "Poset" in dir(posetforge)


def test_records_of_different_types_are_never_equal():
    assert SpinD(3) != NaturalD(3)
    assert not SpinD(3) == NaturalD(3)
    assert E6Kind() != E7Kind()
    assert Grid(2, 3) != (2, 3)
    assert Grid(2, 3) == Grid(2, 3) and Grid(2, 3) != Grid(3, 2)


def test_frozen_records_hash_by_value_and_mutable_ones_do_not_hash():
    kinds = {Grid(2, 3): "g", SpinD(4): "s", NaturalD(4): "n", E6Kind(): "e6", E7Kind(): "e7"}
    assert kinds[Grid(2, 3)] == "g" and kinds[NaturalD(4)] == "n" and kinds[E7Kind()] == "e7"
    assert hash(MeetJoinTable(((0,),), ((0,),), True)) == hash(MeetJoinTable(((0,),), ((0,),), True))
    with pytest.raises(TypeError):
        hash(CheckDef("c", "s", {}, len))  # a dict field, as with a frozen dataclass
    with pytest.raises(TypeError):
        hash(CheckReport("c", {}, True, None, 0.5))
    with pytest.raises(TypeError):
        hash(PosetIso(chain_poset(2), chain_poset(2), (0, 1)))  # poset fields, which do not hash
    with pytest.raises(TypeError):
        hash(DistributivityResult(True, True))
    with pytest.raises(TypeError):
        hash(RefinementReport(1, 2, 3, 4))


def test_record_reprs_name_their_fields():
    assert repr(Grid(5, 5)) == "Grid(a=5, b=5)"
    assert repr(SpinD(9)) == "SpinD(n=9)"
    assert repr(NaturalD(7)) == "NaturalD(m=7)"
    assert repr(E6Kind()) == "E6Kind()" and repr(E7Kind()) == "E7Kind()"
    assert repr(PosetIso(chain_poset(2), chain_poset(3), (0, 2))) == (
        "PosetIso(source=Poset(2 elements, 1 covers), target=Poset(3 elements, 2 covers), img=(0, 2))"
    )
    verdict = DistributivityResult(True, True, irreducibles=chain_poset(2))
    assert repr(verdict) == "DistributivityResult(distributive=True, is_lattice=True, failure=None, witness=None)"
    assert repr(RefinementReport(1, 2, 3, 4)) == (
        "RefinementReport(k=1, antichain_count=2, exchange_pairs=3, ideal_pairs=4, "
        "violations=[], coarsening_witnesses=[])"
    )
    assert repr(CheckReport("c", {"a": 1}, True, None, 0.5)) == (
        "CheckReport(check_id='c', parameters={'a': 1}, passed=True, certificate=None, elapsed=0.5, error=None)"
    )


def test_frozen_fields_cannot_be_assigned():
    for record, field in [
        (Grid(2, 3), "a"),
        (SpinD(3), "n"),
        (NaturalD(3), "m"),
        (PosetIso(chain_poset(0), chain_poset(0), ()), "img"),
        (MeetJoinTable((), (), False), "complete"),
        (CheckDef("c", "s", {}, len), "fn"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        E6Kind().extra = 1


def test_mutable_records_assign_and_keep_their_own_lists():
    first, second = RefinementReport(1, 2, 3, 4), RefinementReport(1, 2, 3, 4)
    first.violations.append(("a", "b"))
    assert second.violations == [] and first != second
    verdict = DistributivityResult(False, False)
    verdict.failure = {"reason": "empty poset"}
    assert verdict.failure == {"reason": "empty poset"}
    report = CheckReport("c", {}, True, None, 0.5)
    report.passed = False
    assert report.verdict == "fail"


def test_constructor_signatures_take_keywords_and_defaults():
    assert Grid(b=3, a=2) == Grid(2, 3)
    report = RefinementReport(k=1, antichain_count=2, exchange_pairs=3, ideal_pairs=4)
    assert report.violations == [] and report.coarsening_witnesses == [] and report.consistent
    verdict = DistributivityResult(distributive=False, is_lattice=True)
    assert verdict.failure is None and verdict.witness is None and verdict.irreducibles is None
    with pytest.raises(TypeError):
        E6Kind(1)
    with pytest.raises(TypeError):
        Grid(1)


def test_distributivity_result_is_truthy_exactly_when_distributive():
    assert bool(DistributivityResult(True, True))
    assert not DistributivityResult(False, True)
    assert not DistributivityResult(False, False, failure={"reason": "empty poset"})


def test_records_survive_copy_and_pickle():
    for record in [
        Grid(2, 3),
        E7Kind(),
        PosetIso(chain_poset(2), chain_poset(2), (0, 1)),
        RefinementReport(1, 2, 3, 4),
        CheckReport("c", {"a": 1}, True, {"exhausted": {}}, 0.5),
        CheckDef("c", "s", {"a": 1}, len),
    ]:
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
