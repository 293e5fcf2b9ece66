"""Registry of named verification checks with certificates.

Each check exhaustively verifies one structural fact about antichain
orders, sequence posets, Ferrers machinery, minuscule families, or the
type-A root poset, at parameter caps small enough for the whole suite to
run in well under a minute.  A passing existential check carries a
witness (an isomorphism map); a passing universal check carries an
exhaustion statement (what was enumerated); a failing check carries a
counterexample.  Caps are overridable per run.  No check searches for a
map it can name ({x} -> x is A_1(P) = P, a swap is its own matching,
Frobenius coordinates are the Durfee maps) or tests pairs that cover rows
settle; only e6-antichains and e7-self-map search.  No clause re-derives
what a passing one already implies: e7-antichains states sizes and leaves
A_2(E7) = E7 to e7-self-map.
"""

from __future__ import annotations

import os
import pickle
import select
import threading
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


def _merged_params(check_id: str, params: dict | None) -> dict:
    """The check's defaults, overridden by ``params``; an unknown or ill-typed key is an error."""
    if check_id not in _REGISTRY:
        raise UnknownCheck(f"no check registered as {check_id!r}")
    defaults = _REGISTRY[check_id].defaults
    params = dict(params or {})
    for key, value in params.items():
        if key not in defaults:
            raise BadParameters(f"check {check_id!r} takes no parameter {key!r}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadParameters(f"parameter {key!r} must be an integer")
        if value < 0:
            raise BadParameters(f"parameter {key!r} must be nonnegative")
    return {**defaults, **params}


def _execute(check_id: str, merged: dict) -> CheckReport:
    start = time.perf_counter()
    try:
        passed, certificate = _REGISTRY[check_id].fn(**merged)
    except Exception as exc:  # reported in the check's verdict
        return CheckReport(check_id, merged, False, None, time.perf_counter() - start, exc)
    return CheckReport(check_id, merged, passed, certificate, time.perf_counter() - start)


def run_check(check_id: str, params: dict | None = None) -> CheckReport:
    """Run one check, in this process; unknown ids and unknown/ill-typed params are errors.

    An exception raised by the check itself, such as a size cap being
    hit, does not propagate: it becomes an ``error`` verdict carrying the
    exception, so one check cannot abort a whole run.
    """
    return _execute(check_id, _merged_params(check_id, params))


def run_all(overrides: dict | None = None) -> list[CheckReport]:
    """Run every registered check, applying each override to the checks that take it.

    A key that no registered check takes, or a value ``run_check`` would
    refuse, is an error before any check runs, so a misspelt cap never
    runs the defaults silently.

    The checks run in forked worker processes, one per CPU this process
    may use (``_worker_count``).  This process is one of them, so on one
    CPU, without ``os.fork`` or with a second thread alive the same loop
    runs with nothing forked.  Workers read check indices one at a time
    from one shared pipe until it is empty, so the load balances itself,
    and send each report back, pickled, as soon as its check ends; the
    reports come back in registry order, as a serial run gives them, and
    an exception keeps its type.  A worker that dies takes only the check
    it was running with it: that check gets an ``error`` verdict naming
    the worker's exit code, and the others still run.  Each worker keeps
    its own caches (two checks that build the corpus may each build one),
    and what a tracer records inside a worker stays in that worker.
    """
    overrides = dict(overrides or {})
    known = {key for cdef in _REGISTRY.values() for key in cdef.defaults}
    unknown = sorted(overrides.keys() - known)
    if unknown:
        raise BadParameters(f"no check takes {', '.join(map(repr, unknown))}")
    jobs = []
    for cdef in registered_checks():
        params = {k: v for k, v in overrides.items() if k in cdef.defaults}
        jobs.append((cdef.check_id, _merged_params(cdef.check_id, params)))
    reports: list[CheckReport | None] = [None] * len(jobs)
    claimed_by, exit_codes = {}, {}  # check index -> worker pid, worker pid -> exit code
    results = {}  # read end of each running worker's result pipe -> its pid
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(2, "big") for i in range(len(jobs))))
    os.close(feed)

    def receive(timeout: float | None) -> None:
        # the frames waiting now, or with no timeout every frame until each worker ends
        while results and (ready := select.select(list(results), [], [], timeout)[0]):
            for fd in ready:
                frame = _receive(fd)
                if frame is None:
                    os.close(fd)
                    del results[fd]
                    continue
                i, report = frame
                claimed_by[i] = results[fd]
                if report is not None:
                    reports[i] = report

    def keep(i: int, report: CheckReport | None) -> None:
        if report is not None:
            reports[i] = report
        receive(0)

    try:
        for _ in range(_worker_count(len(jobs)) - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker never returns, so no atexit handler or stdio flush runs twice
                code = 1
                try:
                    for fd in (read_end, *results):  # so a worker's pipe breaks when the parent closes it
                        os.close(fd)
                    _work(queue, jobs, lambda i, report: _send(write_end, i, report))
                    code = 0
                finally:
                    os._exit(code)
            exit_codes[pid] = None
            results[read_end] = pid
            os.close(write_end)
        _work(queue, jobs, keep)
        receive(None)
    finally:
        os.close(queue)
        for fd in results:
            os.close(fd)  # a worker still writing gets a broken pipe and ends
        for pid in exit_codes:
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for i, (check_id, merged) in enumerate(jobs):
        if reports[i] is None:
            pid = claimed_by.get(i)
            code = exit_codes.get(pid)
            lost = RuntimeError(f"worker {pid} exited with code {code} before reporting this check")
            reports[i] = CheckReport(check_id, merged, False, None, 0.0, lost)
    return reports


def _worker_count(checks: int) -> int:
    """One worker per CPU this process may use, at most one per check.

    Only one, this process, where ``os.fork`` is missing or a second
    thread is alive: a forked child gets no copy of the other threads,
    so a lock one of them holds would never be released in it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, checks)


def _work(queue: int, jobs: list[tuple[str, dict]], send: Callable) -> None:
    """Claim check indices from ``queue`` one at a time until it is empty, and run each.

    ``send(i, None)`` announces a claim and ``send(i, report)`` the result.
    """
    while claim := os.read(queue, 2):
        i = int.from_bytes(claim, "big")
        send(i, None)
        send(i, _execute(*jobs[i]))


def _send(fd: int, i: int, report: CheckReport | None) -> None:
    """Write one frame: check index, payload length, and the pickled report (none for a claim)."""
    payload = b"" if report is None else pickle.dumps(report)
    if report is not None and report.error is not None:
        pickle.loads(payload)  # an exception that would not unpickle ends this worker, not the run
    frame = memoryview(i.to_bytes(2, "big") + len(payload).to_bytes(4, "big") + payload)
    while frame:
        frame = frame[os.write(fd, frame):]


def _receive(fd: int) -> tuple[int, CheckReport | None] | None:
    """The next frame a worker sent on ``fd``, or None once it has ended (mid-frame included)."""
    head = _read_exactly(fd, 6)
    if len(head) < 6:
        return None
    size = int.from_bytes(head[2:], "big")
    payload = _read_exactly(fd, size)
    if len(payload) < size:
        return None
    return int.from_bytes(head[:2], "big"), pickle.loads(payload) if size else None


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if the writer has ended."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return bytes(data)


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


def _is_singleton_copy(A1: Poset, P: Poset) -> bool:
    """Whether x -> {x} maps P onto A1 = A_1(P); from P, so only A1 keeps a label index."""
    return mapped_order_equal(P, A1, {x: "{" + x + "}" for x in P.labels})


def _bump_mismatch(P: Poset, entries: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """The first (i, j) where i's upper covers in P are not ``entries[i]`` with one entry raised."""
    index = {e: j for j, e in enumerate(entries)}
    for i, e in enumerate(entries):
        bumps = (e[:p] + (v + 1,) + e[p + 1:] for p, v in enumerate(e))
        mismatch = sum(1 << index[t] for t in bumps if t in index) ^ P.cover_up[i]
        if mismatch:
            return i, next(_bits(mismatch))
    return None


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
    # covers that each raise one entry by one make the entry sum a rank function
    pairs = 0
    for nn in range(n + 1):
        for k in range(nn + 1):
            elems = seq.gale_elements(nn, k)
            pairs += len(elems) * (len(elems) - 1)
            mismatch = _bump_mismatch(seq.gale_poset(nn, k), [x.entries for x in elems])
            if mismatch:
                x, y = (elems[i].label for i in mismatch)
                return False, {"counterexample": {"n": nn, "k": k, "x": x, "y": y}}
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
            # a verified map makes S's covers the preimages of the Gale covers,
            # which raise one entry by one (gale-rank-covers); the shift adds a
            # constant to each position, so S's covers raise one entry by one too
            if not mapped_order_equal(S, C, label_map):
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
            frobenius = [{} for _ in range(min(aa, bb) + 1)]  # per Durfee length
            for d in ferrers.diagrams_in_box(aa, bb):
                k, top, side = ferrers.durfee_decompose(d)
                if ferrers.durfee_compose(aa, bb, k, top, side) != d:
                    return False, {"counterexample": {"a": aa, "b": bb, "diagram": d.label}}
                xs, ys = ferrers.frobenius_coordinates(d)
                frobenius[k][d.label] = f"({xs.label},{ys.label})"
            for k in range(min(aa, bb) + 1):
                D = ferrers.durfee_poset(aa, bb, k)
                prod = seq.gale_poset(aa, k).product(seq.gale_poset(bb, k))
                if not mapped_order_equal(D, prod, frobenius[k]):
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
        for k in range(w + 1):
            E = ac.antichain_exchange_poset(P, k)  # an order: transitive_closure proves it
            E_all = ac.antichain_exchange_poset(P, k, edges="all")
            # E keeps its generated steps as its covers; E_all derives its own from up
            if E.up != E_all.up or E.cover_up != E_all.cover_up:
                return False, {
                    "counterexample": {"poset": P.covers(), "k": k, "reason": "edge routes differ"}
                }
            if k == 0 and E.n != 1:
                return False, {"counterexample": {"poset": P.covers(), "k": 0}}
            if k == 1 and not _is_singleton_copy(E, P):
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
            # E_all's covers, derived from a closure, must be the swaps A - a + b with b
            # covering a in P; each has the matching a -> b with the rest fixed, and
            # matchings compose (a <= s(a) <= t(s(a))), so every relation has one
            masks = P._antichain_masks(k)
            index = {mask: j for j, mask in enumerate(masks)}
            for i, mask in enumerate(masks):
                swaps = {mask & ~(1 << a) | 1 << b
                         for a in _bits(mask) for b in _bits(P.cover_up[a])}
                steps = sum(1 << index[s] for s in swaps if s in index)
                mismatch = steps ^ E_all.cover_up[i]
                if mismatch:
                    return False, {
                        "counterexample": {
                            "poset": P.covers(),
                            "k": k,
                            "pair": [E.labels[i], E.labels[next(_bits(mismatch))]],
                            "reason": "cover characterization mismatch",
                        }
                    }
            stats["relations"] += sum(u.bit_count() for u in E.up)
            stats["antichain_posets"] += 1
        # checked last, so the one size whose antichains the long-lived corpus
        # posets keep (Poset._antichain_masks) is this empty one
        if P._antichain_masks(w + 1):
            return False, {"counterexample": {"poset": P.covers(), "width": w}}
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
    # A -> its coordinate split -> the diagram with those Frobenius coordinates
    cases = 0
    for aa in range(1, a + 1):
        for bb in range(1, b + 1):
            G = grid_poset(aa, bb)
            diagram_at = {
                ferrers.frobenius_coordinates(d): d.label for d in ferrers.diagrams_in_box(aa, bb)
            }
            for k in range(min(aa, bb) + 1):
                E = ac.antichain_exchange_poset(G, k)
                D = ferrers.durfee_poset(aa, bb, k)
                label_map = {
                    A.label: diagram_at.get(ferrers.split_grid_antichain(aa, bb, A))
                    for A in G.antichains_of_size(k)
                }
                if not mapped_order_equal(E, D, label_map):
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
    P = minuscule.minuscule_poset(minuscule.NaturalD(0))
    for mm in range(m + 1):
        P = P.ideals_poset().relabeled() if mm else P  # level mm: the ideals of level mm - 1
        if P.n != 2 * mm + 4 or P.width() != 2:
            return False, {"counterexample": {"m": mm, "size": P.n, "width": P.width()}}
        if ac.antichain_exchange_poset(P, 2).n != 1:
            return False, {"counterexample": {"m": mm, "k": 2}}
        if ac.antichain_exchange_poset(P, 0).n != 1:
            return False, {"counterexample": {"m": mm, "k": 0}}
        if not _is_singleton_copy(ac.antichain_exchange_poset(P, 1), P):
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
    if not _is_singleton_copy(ac.antichain_exchange_poset(P, 1), P):
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
    "the 27-element exceptional poset has self-identifying 1-antichains, "
    "27 2-antichains and a unique 3-antichain",
)
def _check_e7_antichains() -> tuple[bool, dict]:
    # the sizes only: e7-self-map finds and verifies the isomorphism A_2 = P
    P = minuscule.minuscule_poset(minuscule.E7Kind())
    if P.n != 27 or P.width() != 3:
        return False, {"counterexample": {"size": P.n, "width": P.width()}}
    if not _is_singleton_copy(ac.antichain_exchange_poset(P, 1), P):
        return False, {"counterexample": {"k": 1}}
    E2 = ac.antichain_exchange_poset(P, 2)
    if E2.n != 27:
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
    # one complement per antichain, and each size's table is built right before
    # its exchange order, which reuses the one enumeration of that size; the
    # complement raises on an image of the wrong size, and the tables of sizes
    # k and n-1-k show it an involution, so the second is the inverse of the
    # first, an isomorphism when the first is: each pair of sizes is compared
    # once, from the smaller side
    checked = 0
    for nn in range(2, n + 1):
        P = roots.type_a_root_poset(nn)
        for k in range((nn + 1) // 2):
            star, E = _complement_table(P, k)
            inverse, F = (star, E) if 2 * k == nn - 1 else _complement_table(P, nn - 1 - k)
            tables = [(star, inverse)] if inverse is star else [(star, inverse), (inverse, star)]
            for images, back in tables:
                for A, img in images.items():
                    if back[img] != A:
                        return False, {"counterexample": {"n": nn, "A": A, "twice": back[img]}}
            checked += sum(len(images) for images, _ in tables)
            if not mapped_order_equal(E, F, star):
                return False, {"counterexample": {"n": nn, "k": k, "reason": "not an iso"}}
    return True, {"exhausted": {"max_n": n, "antichains": checked}}


def _complement_table(P: Poset, k: int) -> tuple[dict[str, str], Poset]:
    """The complement of each k-antichain of P by label, and their exchange order."""
    star = {A.label: roots.panyushev_complement(A).label for A in P.antichains_of_size(k)}
    return star, ac.antichain_exchange_poset(P, k)


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
