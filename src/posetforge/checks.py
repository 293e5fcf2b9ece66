"""Registry of named verification checks with certificates.

Each check exhaustively verifies one structural fact about antichain
orders, sequence posets, Ferrers machinery, minuscule families, or the
type-A root poset, at parameter caps small enough for the whole suite to
run in well under a minute.  A passing existential check carries a
witness (an isomorphism map); a passing universal check carries an
exhaustion statement (what was enumerated); a failing check carries a
counterexample.  Caps are overridable per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import antichains as ac
from . import corpus as corpus_mod
from . import ferrers
from . import lattice
from . import minuscule
from . import roots
from . import sequences as seq
from .errors import BadParameters, UnknownCheck
from .poset import (
    Poset,
    _bits,
    build_poset,
    discrete_poset,
    find_isomorphism,
    grid_poset,
    mapped_order_equal,
)


@dataclass
class CheckReport:
    check_id: str
    parameters: dict
    passed: bool
    certificate: dict | None
    elapsed: float
    error: Exception | None = None

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "elapsed_s": round(self.elapsed, 4),
        }
        if self.error is not None:
            out["error"] = {"type": type(self.error).__name__, "message": str(self.error)}
        return out


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    summary: str
    defaults: dict
    fn: Callable[..., tuple[bool, dict]]


_REGISTRY: dict[str, CheckDef] = {}


def _register(check_id: str, summary: str, **defaults: int):
    def deco(fn):
        _REGISTRY[check_id] = CheckDef(check_id, summary, dict(defaults), fn)
        return fn

    return deco


def registered_checks() -> list[CheckDef]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def check_defaults(check_id: str) -> dict:
    if check_id not in _REGISTRY:
        raise UnknownCheck(f"no check registered as {check_id!r}")
    return dict(_REGISTRY[check_id].defaults)


def run_check(check_id: str, params: dict | None = None) -> CheckReport:
    """Run one check; unknown ids and unknown/ill-typed params are errors.

    An exception raised by the check itself, such as a size cap being
    hit, does not propagate: it becomes an ``error`` verdict carrying the
    exception, so one check cannot abort a whole run.
    """
    if check_id not in _REGISTRY:
        raise UnknownCheck(f"no check registered as {check_id!r}")
    cdef = _REGISTRY[check_id]
    params = dict(params or {})
    for key, value in params.items():
        if key not in cdef.defaults:
            raise BadParameters(f"check {check_id!r} takes no parameter {key!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadParameters(f"parameter {key!r} must be an integer")
        if value < 0:
            raise BadParameters(f"parameter {key!r} must be nonnegative")
    merged = {**cdef.defaults, **params}
    start = time.perf_counter()
    try:
        passed, certificate = cdef.fn(**merged)
    except Exception as exc:  # reported in the check's verdict
        return CheckReport(check_id, merged, False, None, time.perf_counter() - start, exc)
    elapsed = time.perf_counter() - start
    return CheckReport(check_id, merged, passed, certificate, elapsed)


def run_all(overrides: dict | None = None) -> list[CheckReport]:
    """Run every registered check, applying each override to the checks that take it.

    A key that no registered check takes is an error, so a misspelt cap
    never runs the defaults silently.
    """
    overrides = dict(overrides or {})
    known = {key for cdef in _REGISTRY.values() for key in cdef.defaults}
    unknown = sorted(overrides.keys() - known)
    if unknown:
        raise BadParameters(f"no check takes {', '.join(map(repr, unknown))}")
    reports = []
    for cdef in registered_checks():
        params = {k: v for k, v in overrides.items() if k in cdef.defaults}
        reports.append(run_check(cdef.check_id, params))
    return reports


# -- shared helpers ---------------------------------------------------------


def _catalan(m: int) -> int:
    # independent route: the convolution recurrence, no closed form
    table = [1]
    for size in range(1, m + 1):
        table.append(sum(table[i] * table[size - 1 - i] for i in range(size)))
    return table[m]


def _five_element_example() -> Poset:
    return build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")],
    )


def _corpus_and_minuscule(max_size: int, a: int, b: int, n: int, m: int) -> list[Poset]:
    posets = list(corpus_mod.small_posets(max_size))
    for kind in minuscule.all_kinds_at_caps(a, b, n, m):
        posets.append(minuscule.minuscule_poset(kind))
    return posets


# -- sequence posets ---------------------------------------------------------


@_register(
    "gale-rank-covers",
    "entry sums rank the Gale order and covers bump one entry by one",
    n=8,
)
def _check_gale_rank_covers(n: int) -> tuple[bool, dict]:
    pairs = 0
    for nn in range(n + 1):
        for k in range(nn + 1):
            elems = seq.gale_elements(nn, k)
            P = seq.gale_poset(nn, k)
            for i, x in enumerate(elems):
                for j, y in enumerate(elems):
                    if i == j:
                        continue
                    pairs += 1
                    is_cover = bool(P.cover_up[i] >> j & 1)
                    rank_step = x.leq(y) and seq.entry_sum(y) == seq.entry_sum(x) + 1
                    if is_cover != rank_step:
                        return False, {
                            "counterexample": {"n": nn, "k": k, "x": x.label, "y": y.label}
                        }
                    if is_cover:
                        diffs = [
                            (u, v) for u, v in zip(x.entries, y.entries) if u != v
                        ]
                        if len(diffs) != 1 or diffs[0][1] != diffs[0][0] + 1:
                            return False, {
                                "counterexample": {"n": nn, "k": k, "x": x.label, "y": y.label}
                            }
    return True, {"exhausted": {"max_n": n, "ordered_pairs": pairs}}


@_register(
    "weak-chain-shift-iso",
    "the shift map is an isomorphism of weak chains onto the Gale order",
    a=4,
    b=4,
)
def _check_weak_chain_shift_iso(a: int, b: int) -> tuple[bool, dict]:
    cases = 0
    for aa in range(a + 1):
        for bb in range(b + 1):
            cases += 1
            S = seq.weak_chain_poset(aa, bb)
            C = seq.gale_poset(aa + bb, bb)
            elems = seq.weak_chain_elements(aa, bb)
            label_map = {e.label: seq.weak_chain_to_ksubset(e).label for e in elems}
            if not mapped_order_equal(S, C, label_map):
                return False, {"counterexample": {"a": aa, "b": bb}}
            cover_pairs = set(S.covers())
            step_pairs = set()
            index = {e.entries: e.label for e in elems}
            for e in elems:
                for pos in range(bb):
                    bumped = tuple(
                        v + 1 if p == pos else v for p, v in enumerate(e.entries)
                    )
                    if bumped in index:
                        step_pairs.add((e.label, index[bumped]))
            if cover_pairs != step_pairs:
                return False, {"counterexample": {"a": aa, "b": bb}}
    return True, {"exhausted": {"max_a": a, "max_b": b, "cases": cases}}


@_register(
    "ideal-heights-iso",
    "column heights map grid ideals isomorphically onto weak chains",
    a=4,
    b=4,
)
def _check_ideal_heights_iso(a: int, b: int) -> tuple[bool, dict]:
    for aa in range(a + 1):
        for bb in range(b + 1):
            G = grid_poset(aa, bb)
            J = G.ideals_poset()
            ideals = G.ideals()
            S = seq.weak_chain_poset(aa, bb)
            label_map = {}
            for idl in ideals:
                chain = seq.ideal_heights(aa, bb, idl)
                if seq.ideal_from_heights(G, aa, bb, chain) != idl:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "ideal": idl.label}
                    }
                label_map[idl.label] = chain.label
            if not mapped_order_equal(J, S, label_map):
                return False, {"counterexample": {"a": aa, "b": bb}}
    return True, {"exhausted": {"max_a": a, "max_b": b}}


@_register(
    "box-gale-composite",
    "heights followed by the shift map grid ideals onto the Gale order",
    a=4,
    b=4,
)
def _check_box_gale_composite(a: int, b: int) -> tuple[bool, dict]:
    sample = None
    for aa in range(a + 1):
        for bb in range(b + 1):
            G = grid_poset(aa, bb)
            J = G.ideals_poset()
            C = seq.gale_poset(aa + bb, bb)
            label_map = {
                idl.label: seq.box_ideal_to_ksubset(aa, bb, idl).label
                for idl in G.ideals()
            }
            if not mapped_order_equal(J, C, label_map):
                return False, {"counterexample": {"a": aa, "b": bb}}
            if aa == a and bb == b:
                sample = label_map
    return True, {
        "exhausted": {"max_a": a, "max_b": b},
        "witness_at_caps": sample,
    }


@_register(
    "sequence-lattices",
    "Gale orders and weak-chain posets are distributive lattices",
    n=7,
    a=4,
    b=4,
)
def _check_sequence_lattices(n: int, a: int, b: int) -> tuple[bool, dict]:
    checked = 0
    for nn in range(n + 1):
        for k in range(nn + 1):
            if not lattice.is_distributive(seq.gale_poset(nn, k)):
                return False, {"counterexample": {"kind": "gale", "n": nn, "k": k}}
            checked += 1
    for aa in range(a + 1):
        for bb in range(b + 1):
            if not lattice.is_distributive(seq.weak_chain_poset(aa, bb)):
                return False, {"counterexample": {"kind": "weak-chain", "a": aa, "b": bb}}
            checked += 1
    return True, {"exhausted": {"posets": checked}}


# -- Ferrers / Durfee ---------------------------------------------------------


@_register(
    "durfee-product",
    "fixed-Durfee diagrams in a box form a product of two Gale orders",
    a=4,
    b=4,
)
def _check_durfee_product(a: int, b: int) -> tuple[bool, dict]:
    iso_count = 0
    for aa in range(a + 1):
        for bb in range(b + 1):
            for d in ferrers.diagrams_in_box(aa, bb):
                k, top, side = ferrers.durfee_decompose(d)
                if ferrers.durfee_compose(aa, bb, k, top, side) != d:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "diagram": d.label}
                    }
            for k in range(min(aa, bb) + 1):
                D = ferrers.durfee_poset(aa, bb, k)
                prod = seq.gale_poset(aa, k).product(seq.gale_poset(bb, k))
                if D.n != prod.n or find_isomorphism(D, prod) is None:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "k": k, "sizes": [D.n, prod.n]}
                    }
                iso_count += 1
    return True, {"exhausted": {"max_a": a, "max_b": b, "isomorphisms": iso_count}}


# -- the exchange order -------------------------------------------------------


@_register(
    "exchange-order-basics",
    "the exchange order is a partial order refined by the ideal order, "
    "with matching-compatible relations and single-cover-step covers",
    max_size=6,
    a=4,
    b=4,
    n=6,
    m=5,
)
def _check_exchange_order_basics(max_size: int, a: int, b: int, n: int, m: int) -> tuple[bool, dict]:
    posets = _corpus_and_minuscule(max_size, a, b, n, m)
    stats = {"posets": len(posets), "antichain_posets": 0, "relations": 0}
    for P in posets:
        w = P.width()
        if P._antichain_masks(w + 1):
            return False, {"counterexample": {"poset": P.covers(), "width": w}}
        for k in range(w + 1):
            E = ac.antichain_exchange_poset(P, k)  # an order: transitive_closure proves it
            E_all = ac.antichain_exchange_poset(P, k, edges="all")
            if E.up != E_all.up:
                return False, {
                    "counterexample": {"poset": P.covers(), "k": k, "reason": "edge routes differ"}
                }
            if k == 0 and E.n != 1:
                return False, {"counterexample": {"poset": P.covers(), "k": 0}}
            if k == 1 and find_isomorphism(E, P) is None:
                return False, {
                    "counterexample": {"poset": P.covers(), "k": 1, "reason": "A_1 not iso to P"}
                }
            I = ac.antichain_ideal_poset(P, k)
            missing = [(i, e & ~d) for i, (e, d) in enumerate(zip(E.up, I.up)) if e & ~d]
            if missing:
                i, extra = missing[0]
                j = next(_bits(extra))
                return False, {
                    "counterexample": {
                        "poset": P.covers(),
                        "k": k,
                        "pair": [E.labels[i], E.labels[j]],
                        "reason": "exchange relation missing from ideal order",
                    }
                }
            # E's covers must be exactly the single-cover-step exchanges; matchings
            # compose (a <= s(a) <= t(s(a))), so one per cover gives one per relation
            chains = P.antichains_of_size(k)
            index = {A.mask: j for j, A in enumerate(chains)}
            for i, A in enumerate(chains):
                swaps = {A.mask & ~(1 << a) | 1 << b
                         for a in _bits(A.mask) for b in _bits(P.cover_up[a])}
                steps = sum(1 << index[s] for s in swaps if s in index)
                covers = E.cover_up[i]
                bad = [(j, "cover characterization mismatch") for j in _bits(steps ^ covers)]
                bad += [(j, "no order-compatible matching")
                        for j in _bits(covers) if not ac.has_order_matching(P, A, chains[j])]
                if bad:
                    j, reason = bad[0]
                    return False, {
                        "counterexample": {
                            "poset": P.covers(),
                            "k": k,
                            "pair": [E.labels[i], E.labels[j]],
                            "reason": reason,
                        }
                    }
            stats["relations"] += sum(u.bit_count() for u in E.up)
            stats["antichain_posets"] += 1
    return True, {"exhausted": stats}


@_register(
    "five-element-example",
    "the bowtie-over-a-point poset separates the exchange and ideal orders",
)
def _check_five_element_example() -> tuple[bool, dict]:
    P = _five_element_example()
    if P.width() != 2:
        return False, {"counterexample": {"width": P.width()}}
    chains = P.antichains_of_size(2)
    labels = sorted(A.label for A in chains)
    if labels != ["{a,b}", "{d,e}"]:
        return False, {"counterexample": {"antichains": labels}}
    low = next(A for A in chains if A.label == "{a,b}")
    high = next(A for A in chains if A.label == "{d,e}")
    if not ac.ideal_leq(low, high):
        return False, {"counterexample": {"reason": "{a,b} not below {d,e} in ideal order"}}
    E = ac.antichain_exchange_poset(P, 2)
    if any(E.up):
        return False, {"counterexample": {"reason": "exchange order relates the two antichains"}}
    if ac.is_exchange_cover(low, high) or ac.is_exchange_cover(high, low):
        return False, {"counterexample": {"reason": "unexpected exchange cover"}}
    report = ac.refinement_report(P, 2)
    if not report.consistent or report.coarsening_witnesses != [("{a,b}", "{d,e}")]:
        return False, {"counterexample": report.to_json_dict()}
    verdict = lattice.is_distributive(E)
    if verdict.distributive or verdict.is_lattice:
        return False, {"counterexample": {"reason": "exchange order unexpectedly a lattice"}}
    return True, {
        "antichains": labels,
        "ideal_order_comparable": True,
        "exchange_order_comparable": False,
        "refinement": report.to_json_dict(),
        "lattice_failure": verdict.failure,
    }


@_register(
    "boolean-cube-example",
    "size-2 antichains of the 8-element boolean lattice: 9 elements, "
    "three maximal and three minimal, not a lattice",
)
def _check_boolean_cube_example() -> tuple[bool, dict]:
    J = discrete_poset(["a", "b", "c"]).ideals_poset()
    if J.n != 8:
        return False, {"counterexample": {"ideal_count": J.n}}
    E = ac.antichain_exchange_poset(J, 2)
    if E.n != 9:
        return False, {"counterexample": {"antichain_count": E.n}}
    maximal = [E.labels[i] for i in range(E.n) if not E.up[i]]
    minimal = [E.labels[i] for i in range(E.n) if not E.down[i]]
    if len(maximal) != 3 or len(minimal) != 3:
        return False, {"counterexample": {"maximal": maximal, "minimal": minimal}}
    verdict = lattice.is_distributive(E)
    if verdict.distributive or verdict.is_lattice:
        return False, {"counterexample": {"reason": "unexpectedly a lattice"}}
    return True, {
        "elements": E.n,
        "maximal": sorted(maximal),
        "minimal": sorted(minimal),
        "lattice_failure": verdict.failure,
    }


# -- grid antichains ----------------------------------------------------------


@_register(
    "grid-antichain-split",
    "coordinate splitting maps grid antichains onto a product of Gale orders",
    a=4,
    b=4,
)
def _check_grid_antichain_split(a: int, b: int) -> tuple[bool, dict]:
    cover_counts = 0
    for aa in range(1, a + 1):
        for bb in range(1, b + 1):
            G = grid_poset(aa, bb)
            for k in range(min(aa, bb) + 1):
                E = ac.antichain_exchange_poset(G, k)
                prod = seq.gale_poset(aa, k).product(seq.gale_poset(bb, k))
                label_map = {}
                for A in G.antichains_of_size(k):
                    xs, ys = ferrers.split_grid_antichain(aa, bb, A)
                    label_map[A.label] = f"({xs.label},{ys.label})"
                if not mapped_order_equal(E, prod, label_map):
                    return False, {"counterexample": {"a": aa, "b": bb, "k": k}}
                cover_counts += sum(c.bit_count() for c in E.cover_up)
    return True, {"exhausted": {"max_a": a, "max_b": b, "covers_matched": cover_counts}}


@_register(
    "grid-antichain-durfee",
    "grid antichains under the exchange order match fixed-Durfee diagrams",
    a=4,
    b=4,
)
def _check_grid_antichain_durfee(a: int, b: int) -> tuple[bool, dict]:
    cases = 0
    for aa in range(1, a + 1):
        for bb in range(1, b + 1):
            for k in range(min(aa, bb) + 1):
                E = ac.antichain_exchange_poset(grid_poset(aa, bb), k)
                D = ferrers.durfee_poset(aa, bb, k)
                if E.n != D.n or find_isomorphism(E, D) is None:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "k": k, "sizes": [E.n, D.n]}
                    }
                cases += 1
    return True, {"exhausted": {"max_a": a, "max_b": b, "isomorphisms": cases}}


@_register(
    "spin-antichain-merge",
    "antichains of the ideal lattice of an [n] x [2] grid flatten onto "
    "the Gale order on 2k-subsets",
    n=6,
)
def _check_spin_antichain_merge(n: int) -> tuple[bool, dict]:
    for nn in range(1, n + 1):
        G = grid_poset(nn, 2)
        P = G.ideals_poset()
        pair_poset = seq.gale_poset(nn + 2, 2)
        to_pair = {
            idl.label: seq.box_ideal_to_ksubset(nn, 2, idl).label for idl in G.ideals()
        }
        if not mapped_order_equal(P, pair_poset, to_pair):
            return False, {"counterexample": {"n": nn, "reason": "base identification"}}
        w = P.width()
        if w != (nn + 2) // 2:
            return False, {"counterexample": {"n": nn, "width": w}}
        for k in range(w + 1):
            E = ac.antichain_exchange_poset(P, k)
            target = seq.gale_poset(nn + 2, 2 * k)
            label_map = {}
            for A in P.antichains_of_size(k):
                members = [to_pair[lab] for lab in A.member_labels]
                image = pair_poset.antichain(members)
                label_map[A.label] = ferrers.spin_antichain_merge(nn, image).label
            if not mapped_order_equal(E, target, label_map):
                return False, {"counterexample": {"n": nn, "k": k}}
    return True, {"exhausted": {"max_n": n}}


# -- minuscule families -------------------------------------------------------


@_register(
    "natural-family-antichains",
    "iterated ideals of the 2x2 grid have a unique 2-antichain and "
    "self-identifying 1-antichains",
    m=5,
)
def _check_natural_family(m: int) -> tuple[bool, dict]:
    for mm in range(m + 1):
        P = minuscule.minuscule_poset(minuscule.NaturalD(mm))
        if P.n != 2 * mm + 4 or P.width() != 2:
            return False, {"counterexample": {"m": mm, "size": P.n, "width": P.width()}}
        if ac.antichain_exchange_poset(P, 2).n != 1:
            return False, {"counterexample": {"m": mm, "k": 2}}
        if ac.antichain_exchange_poset(P, 0).n != 1:
            return False, {"counterexample": {"m": mm, "k": 0}}
        if find_isomorphism(ac.antichain_exchange_poset(P, 1), P) is None:
            return False, {"counterexample": {"m": mm, "k": 1}}
    return True, {"exhausted": {"max_m": m}}


@_register(
    "e6-antichains",
    "the 16-element exceptional poset has 2-antichain poset J^3 of the 2x2 grid",
)
def _check_e6_antichains() -> tuple[bool, dict]:
    P = minuscule.minuscule_poset(minuscule.E6Kind())
    if P.n != 16 or P.width() != 2:
        return False, {"counterexample": {"size": P.n, "width": P.width()}}
    if find_isomorphism(ac.antichain_exchange_poset(P, 1), P) is None:
        return False, {"counterexample": {"k": 1}}
    E2 = ac.antichain_exchange_poset(P, 2)
    target = minuscule.minuscule_poset(minuscule.NaturalD(3))
    if E2.n != 10 or target.n != 10:
        return False, {"counterexample": {"k": 2, "sizes": [E2.n, target.n]}}
    iso = find_isomorphism(E2, target)
    if iso is None:
        return False, {"counterexample": {"k": 2, "reason": "no isomorphism"}}
    return True, {"witness": iso.to_json_dict()}


@_register(
    "e7-antichains",
    "the 27-element exceptional poset has self-identifying 2-antichains "
    "and a unique 3-antichain",
)
def _check_e7_antichains() -> tuple[bool, dict]:
    P = minuscule.minuscule_poset(minuscule.E7Kind())
    if P.n != 27 or P.width() != 3:
        return False, {"counterexample": {"size": P.n, "width": P.width()}}
    if find_isomorphism(ac.antichain_exchange_poset(P, 1), P) is None:
        return False, {"counterexample": {"k": 1}}
    E2 = ac.antichain_exchange_poset(P, 2)
    if E2.n != 27 or find_isomorphism(E2, P) is None:
        return False, {"counterexample": {"k": 2, "size": E2.n}}
    if ac.antichain_exchange_poset(P, 3).n != 1:
        return False, {"counterexample": {"k": 3}}
    return True, {"sizes": {"k1": P.n, "k2": E2.n, "k3": 1}}


@_register(
    "minuscule-distributive",
    "every antichain poset of every minuscule poset at caps is a "
    "distributive lattice, with ideal-representation witnesses",
    a=4,
    b=4,
    n=6,
    m=5,
)
def _check_minuscule_distributive(a: int, b: int, n: int, m: int) -> tuple[bool, dict]:
    cases = []
    for kind in minuscule.all_kinds_at_caps(a, b, n, m):
        P = minuscule.minuscule_poset(kind)
        w = P.width()
        if w != minuscule.expected_width(kind):
            return False, {
                "counterexample": {"kind": repr(kind), "width": w}
            }
        for k in range(w + 1):
            E = ac.antichain_exchange_poset(P, k)
            verdict = lattice.is_distributive(E)
            if not verdict.distributive:
                return False, {
                    "counterexample": {"kind": repr(kind), "k": k, "failure": verdict.failure}
                }
            cases.append(
                {
                    "kind": repr(kind),
                    "k": k,
                    "elements": E.n,
                    "witness": verdict.witness.to_json_dict(),
                }
            )
    return True, {"cases": cases}


@_register(
    "e7-self-map",
    "an explicit isomorphism between the 27-element poset and its "
    "2-antichain poset",
)
def _check_e7_self_map() -> tuple[bool, dict]:
    P = minuscule.minuscule_poset(minuscule.E7Kind())
    E = ac.antichain_exchange_poset(P, 2)
    if P.n != 27 or E.n != 27:
        return False, {"counterexample": {"sizes": [P.n, E.n]}}
    iso = find_isomorphism(P, E)
    if iso is None or not iso.verify(P, E):
        return False, {"counterexample": {"reason": "no verified isomorphism"}}
    return True, {"witness": iso.to_json_dict(), "elements": 27}


# -- root posets --------------------------------------------------------------


@_register(
    "root-complement-involution",
    "the antichain complement is a cover-preserving involution pairing "
    "sizes k and n-1-k",
    n=6,
)
def _check_root_complement_involution(n: int) -> tuple[bool, dict]:
    checked = 0
    for nn in range(2, n + 1):
        P = roots.type_a_root_poset(nn)
        star: dict[int, dict[str, str]] = {}
        for k in range(nn):
            images = {}
            for A in P.antichains_of_size(k):
                img = roots.panyushev_complement(A)
                if len(img) != nn - 1 - k:
                    return False, {"counterexample": {"n": nn, "A": A.label}}
                back = roots.panyushev_complement(img)
                if back != A:
                    return False, {
                        "counterexample": {"n": nn, "A": A.label, "twice": back.label}
                    }
                images[A.label] = img.label
                checked += 1
            if len(set(images.values())) != len(images):
                return False, {"counterexample": {"n": nn, "k": k, "reason": "not injective"}}
            star[k] = images
        for k in range(nn):
            E = ac.antichain_exchange_poset(P, k)
            F = ac.antichain_exchange_poset(P, nn - 1 - k)
            if not mapped_order_equal(E, F, star[k]):
                return False, {"counterexample": {"n": nn, "k": k, "reason": "not an iso"}}
    return True, {"exhausted": {"max_n": n, "antichains": checked}}


@_register(
    "narayana-symmetry",
    "antichain counts of the type-A root poset are palindromic and sum "
    "to Catalan numbers",
    n=7,
)
def _check_narayana_symmetry(n: int) -> tuple[bool, dict]:
    tables = {}
    for nn in range(2, n + 1):
        table = roots.narayana_table(nn)
        if table != table[::-1]:
            return False, {"counterexample": {"n": nn, "table": table}}
        if sum(table) != _catalan(nn):
            return False, {
                "counterexample": {"n": nn, "total": sum(table), "catalan": _catalan(nn)}
            }
        tables[str(nn)] = table
    return True, {"tables": tables}


# -- the classical baseline ---------------------------------------------------


@_register(
    "dilworth-max-antichains",
    "maximum-size antichains under the ideal order form a distributive lattice",
    max_size=6,
)
def _check_dilworth_max_antichains(max_size: int) -> tuple[bool, dict]:
    count = 0
    for P in corpus_mod.small_posets(max_size):
        top = ac.antichain_ideal_poset(P, P.width())
        verdict = lattice.is_distributive(top)
        if not verdict.distributive:
            return False, {
                "counterexample": {"poset": P.covers(), "failure": verdict.failure}
            }
        count += 1
    return True, {"exhausted": {"posets": count, "max_size": max_size}}
