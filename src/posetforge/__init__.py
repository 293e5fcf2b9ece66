"""Finite poset combinatorics: antichain orders, minuscule posets, and
Ferrers machinery, with an exhaustive verification suite behind a CLI.

``import posetforge`` loads no submodule.  Each name below is imported
from its module on first use (PEP 562), and ``posetforge.<module>``
resolves without an explicit import, so a CLI command pays only for the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "antichains": (
        "RefinementReport",
        "antichain_exchange_poset",
        "antichain_ideal_poset",
        "ideal_leq",
        "is_exchange_cover",
        "refinement_report",
    ),
    "checks": ("CheckReport", "registered_checks", "run_all", "run_check"),
    "corpus": ("small_posets",),
    "errors": (
        "BadParameters",
        "CycleDetected",
        "DuplicateLabel",
        "NotAnAntichain",
        "PosetForgeError",
        "SizeLimitExceeded",
        "SizeMismatch",
        "UnknownCheck",
        "UnknownLabel",
    ),
    "ferrers": (
        "diagrams_in_box",
        "durfee_length",
        "durfee_poset",
    ),
    "lattice": (
        "DistributivityResult",
        "MeetJoinTable",
        "is_distributive",
        "meet_join_table",
    ),
    "minuscule": (
        "E6Kind",
        "E7Kind",
        "Grid",
        "MinusculeKind",
        "NaturalD",
        "SpinD",
        "expected_width",
        "iterated_ideals",
        "minuscule_poset",
    ),
    "poset": (
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
    ),
    "roots": ("narayana_table", "panyushev_complement", "type_a_root_poset"),
    "sequences": ("gale_poset", "weak_chain_poset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
