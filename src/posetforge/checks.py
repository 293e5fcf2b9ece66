"""Registry of named verification checks with certificates.

Each check exhaustively verifies one structural fact about antichain
orders, sequence posets, Ferrers machinery, minuscule families, or the
type-A root poset, at parameter caps small enough for the whole suite to
run in well under a minute.  A passing existential check carries a
witness (an isomorphism map); a passing universal check carries an
exhaustion statement (what was enumerated); a failing check carries a
counterexample.  Caps are overridable per run.  No check searches for a
map it can name ({x} -> x is A_1(P) = P, a swap is its own matching,
Frobenius coordinates are the Durfee maps) or tests pairs that covers
settle; only e6-antichains and e7-self-map search.  Every named map is
checked by ``poset.covers_map_onto`` on cover lists: of two built orders
(``index_map_order_equal``), or, on an exchange order, from the antichain
masks with no order built, where the swap rule gives each antichain's
covers (``antichains.swap_covers``) and Gale cover lists, one-entry bumps
or the same swap rule give the target's.  No clause re-derives what a
passing one already implies: e7-antichains states sizes and leaves
A_2(E7) = E7 to e7-self-map.
"""

from __future__ import annotations

import os
import pickle
import select
import threading
import time
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
    PosetIso,
    _bits,
    _Frozen,
    _Record,
    build_poset,
    covers_map_onto,
    discrete_poset,
    find_isomorphism,
    grid_mask_points,
    grid_poset,
    index_map_order_equal,
    tuple_label,
)


class CheckReport(_Record):
    __slots__ = ("check_id", "parameters", "passed", "certificate", "elapsed", "error")

    def __init__(
        self,
        check_id: str,
        parameters: dict,
        passed: bool,
        certificate: dict | None,
        elapsed: float,
        error: Exception | None = None,
    ):
        self.check_id = check_id
        self.parameters = parameters
        self.passed = passed
        self.certificate = certificate
        self.elapsed = elapsed
        self.error = error

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


class CheckDef(_Frozen):
    __slots__ = ("check_id", "summary", "defaults", "fn")

    def __init__(
        self, check_id: str, summary: str, defaults: dict, fn: Callable[..., tuple[bool, dict]]
    ):
        self._fill(check_id, summary, defaults, fn)


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

    Where ``_worker_count`` allows more than one worker, the checks run in
    that many forked worker processes and this process only collects
    their reports.  Workers read check indices, in registry order, one at
    a time from one shared pipe until it is empty, so the load balances
    itself, and send each report back, pickled, as soon as its check
    ends; the reports come back in registry order, as a serial run gives
    them, and an exception keeps its type.  A worker that dies takes only
    the check it was running with it: that check gets an ``error``
    verdict naming the worker's exit code, and the others still run.
    Each worker keeps its own caches (two checks that build the corpus
    may each build one), and what a tracer records inside a worker stays
    in that worker.  With one worker (one CPU, no ``os.fork`` or a
    second thread alive) the checks run here, one after another, and
    nothing is forked.
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
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [_execute(*job) for job in jobs]
    reports: list[CheckReport | None] = [None] * len(jobs)
    claimed_by, exit_codes = {}, {}  # check index -> worker pid, worker pid -> exit code
    results = {}  # read end of each running worker's result pipe -> its pid
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(2, "big") for i in range(len(jobs))))
    os.close(feed)
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker never returns, so no atexit handler or stdio flush runs twice
                code = 1
                try:
                    for fd in (read_end, *results):  # so a worker's pipe breaks when the parent closes it
                        os.close(fd)
                    while claim := os.read(queue, 2):
                        i = int.from_bytes(claim, "big")
                        _send(write_end, i, None)
                        _send(write_end, i, _execute(*jobs[i]))
                    code = 0
                finally:
                    os._exit(code)
            exit_codes[pid] = None
            results[read_end] = pid
            os.close(write_end)
        while results:
            for fd in select.select(list(results), [], [])[0]:
                frame = _receive(fd)
                if frame is None:
                    os.close(fd)
                    del results[fd]
                    continue
                i, report = frame
                claimed_by[i] = results[fd]
                if report is not None:
                    reports[i] = report
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
    """Whether x -> {x} maps P onto A1 = A_1(P), decided on indices.

    A_1(P) sits on P's singleton masks in index order, so x -> {x} is the
    identity on indices and carries P's order onto A1's when their cover
    lists are equal; no "{x}" label is built.
    """
    host, masks = A1._subsets
    return (
        host == P
        and len(masks) == P.n
        and all(m == 1 << i for i, m in enumerate(masks))
        and A1.cover_lists == P.cover_lists
    )


def _bumps(index: dict[tuple[int, ...], int], e: tuple[int, ...]) -> list[int]:
    """The indices in ``index`` of the tuples that raise one entry of ``e`` by one.

    These are the covers of a Gale order, and of the box's diagrams of one
    Durfee length as padded heights: a diagram between two of them has their
    Durfee length, so a cover adds one box.
    """
    bumped = (e[:p] + (v + 1,) + e[p + 1:] for p, v in enumerate(e))
    return [index[t] for t in bumped if t in index]


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
            P = seq.gale_poset(nn, k)
            pairs += P.n * (P.n - 1)
            entries = seq.gale_entries(nn, k)
            index = {e: j for j, e in enumerate(entries)}
            for i, e in enumerate(entries):
                if mismatch := set(_bumps(index, e)).symmetric_difference(P.cover_lists[i]):
                    x, y = (tuple_label(entries[t]) for t in (i, min(mismatch)))
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
            img = [seq.gale_rank(seq.shifted(w)) for w in seq.weak_chain_entries(aa, bb)]
            # a verified map makes S's covers the preimages of the Gale covers,
            # which raise one entry by one (gale-rank-covers); the shift adds a
            # constant to each position, so S's covers raise one entry by one too
            if not index_map_order_equal(S, C, img):
                return False, {"counterexample": {"a": aa, "b": bb}}
    return True, {"exhausted": {"max_a": a, "max_b": b, "cases": cases}}


@_register(
    "ideal-heights-iso",
    "column heights map grid ideals isomorphically onto weak chains",
    a=4,
    b=4,
)
def _check_ideal_heights_iso(a: int, b: int) -> tuple[bool, dict]:
    cover_counts = 0
    for aa in range(a + 1):
        for bb in range(b + 1):
            G = grid_poset(aa, bb)
            J = G.ideals_poset()
            S = seq.weak_chain_poset(aa, bb)
            index = {w: i for i, w in enumerate(seq.weak_chain_entries(aa, bb))}
            img = []
            for mask in J._subsets[1]:
                chain = seq.grid_ideal_heights(bb, mask)
                if seq.grid_ideal_mask(bb, chain) != mask:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "ideal": G.subset_label(_bits(mask))}
                    }
                img.append(index.get(chain))
            if not index_map_order_equal(J, S, img):
                return False, {"counterexample": {"a": aa, "b": bb}}
            cover_counts += sum(map(len, J.cover_lists))
    return True, {"exhausted": {"max_a": a, "max_b": b, "covers_matched": cover_counts}}


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
            J = grid_poset(aa, bb).ideals_poset()
            C = seq.gale_poset(aa + bb, bb)
            img = [seq.gale_rank(seq.shifted(seq.grid_ideal_heights(bb, m))) for m in J._subsets[1]]
            if not index_map_order_equal(J, C, img):
                return False, {"counterexample": {"a": aa, "b": bb}}
            if aa == a and bb == b:
                sample = PosetIso(J, C, img).forward
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
            for k, diagrams in enumerate(ferrers._diagrams_by_durfee_length(aa, bb)):
                gb = seq.gale_poset(bb, k)
                img = []
                for d in diagrams:
                    dk, top, side = ferrers.durfee_cut(d)
                    # h_k >= k > h_(k+1) pins k as the Durfee length, so the parts of a
                    # diagram in the box fit their k x (b-k) and (a-k) x k boxes
                    square = dk == k and min(side, default=0) >= 0 and max(top, default=0) <= k
                    if not square or ferrers.durfee_stack(dk, top, side) != d:
                        return False, {"counterexample": {"a": aa, "b": bb, "diagram": tuple_label(d)}}
                    xs, ys = ferrers.frobenius(d)
                    img.append(seq.gale_rank(xs) * gb.n + seq.gale_rank(ys))
                D = ferrers.durfee_poset(aa, bb, k)
                prod = seq.gale_poset(aa, k).product(gb)
                if not index_map_order_equal(D, prod, img):
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
            E = ac.antichain_exchange_poset(P, k)  # cover-first: its swap rows are its covers
            E_all = ac.antichain_exchange_poset(P, k, edges="all")  # closed at once: a cycle raises
            # E's lists in swap order, E_all's (from its closure) sorted; equal covers, equal orders
            if [sorted(ys) for ys in E.cover_lists] != E_all.cover_lists:
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
            missing = [(i, e & ~d) for i, (e, d) in enumerate(zip(E_all.up, I.up)) if e & ~d]
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
                steps = set()
                for a in _bits(mask):
                    rest = mask & ~(1 << a)
                    for b in P.cover_lists[a]:
                        j = index.get(rest | 1 << b)
                        if j is not None:
                            steps.add(j)
                if mismatch := steps.symmetric_difference(E_all.cover_lists[i]):
                    return False, {
                        "counterexample": {
                            "poset": P.covers(),
                            "k": k,
                            "pair": [E.labels[i], E.labels[min(mismatch)]],
                            "reason": "cover characterization mismatch",
                        }
                    }
            stats["relations"] += sum(u.bit_count() for u in E_all.up)
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
    if any(E.cover_lists):
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
                up_a, up_b = seq.gale_poset(aa, k).cover_lists, seq.gale_poset(bb, k).cover_lists
                nb = len(up_b)
                images = {}
                for mask in G._antichain_masks(k):
                    xs, ys = ferrers.split_points(grid_mask_points(bb, mask))
                    images[mask] = seq.gale_rank(xs) * nb + seq.gale_rank(ys)

                def covers_of(t):  # (x, y) -> (x', y) and (x, y') for Gale covers x' and y'
                    x, y = divmod(t, nb)
                    return [*(u * nb + y for u in up_a[x]), *(x * nb + v for v in up_b[y])]

                matched = covers_map_onto(images, ac.swap_covers(G), range(len(up_a) * nb), covers_of)
                if matched is None:
                    return False, {"counterexample": {"a": aa, "b": bb, "k": k}}
                cover_counts += matched
    return True, {"exhausted": {"max_a": a, "max_b": b, "covers_matched": cover_counts}}


@_register(
    "grid-antichain-durfee",
    "grid antichains under the exchange order match fixed-Durfee diagrams",
    a=4,
    b=4,
)
def _check_grid_antichain_durfee(a: int, b: int) -> tuple[bool, dict]:
    # A -> its coordinate split -> the diagram with those Frobenius coordinates
    cases = cover_counts = 0
    for aa in range(1, a + 1):
        for bb in range(1, b + 1):
            G = grid_poset(aa, bb)
            for k, diagrams in enumerate(ferrers._diagrams_by_durfee_length(aa, bb)):
                padded = [d + (0,) * (bb - len(d)) for d in diagrams]
                padded_at = {h: i for i, h in enumerate(padded)}
                diagram_at = {ferrers.frobenius(d): i for i, d in enumerate(diagrams)}
                masks = G._antichain_masks(k)
                images = {m: diagram_at.get(ferrers.split_points(grid_mask_points(bb, m))) for m in masks}
                matched = covers_map_onto(
                    images, ac.swap_covers(G), range(len(diagrams)), lambda i: _bumps(padded_at, padded[i])
                )
                if matched is None:
                    return False, {
                        "counterexample": {"a": aa, "b": bb, "k": k, "sizes": [len(masks), len(diagrams)]}
                    }
                cases += 1
                cover_counts += matched
    return True, {
        "exhausted": {"max_a": a, "max_b": b, "isomorphisms": cases, "covers_matched": cover_counts}
    }


@_register(
    "spin-antichain-merge",
    "antichains of the ideal lattice of an [n] x [2] grid flatten onto "
    "the Gale order on 2k-subsets",
    n=6,
)
def _check_spin_antichain_merge(n: int) -> tuple[bool, dict]:
    cover_counts = 0  # over the base identification and every k
    for nn in range(1, n + 1):
        P = grid_poset(nn, 2).ideals_poset()
        pair_poset = seq.gale_poset(nn + 2, 2)
        pairs = [seq.shifted(seq.grid_ideal_heights(2, m)) for m in P._subsets[1]]
        if not index_map_order_equal(P, pair_poset, [seq.gale_rank(p) for p in pairs]):
            return False, {"counterexample": {"n": nn, "reason": "base identification"}}
        cover_counts += sum(map(len, P.cover_lists))
        w = P.width()
        if w != (nn + 2) // 2:
            return False, {"counterexample": {"n": nn, "width": w}}
        for k in range(w + 1):
            entries = seq.gale_entries(nn + 2, 2 * k)  # in gale_rank order; covers bump one entry
            at = {e: j for j, e in enumerate(entries)}
            # the base map is an isomorphism, so antichains go to antichains of pairs
            images = {
                mask: seq.gale_rank(ferrers.merge_pairs([pairs[t] for t in _bits(mask)]))
                for mask in P._antichain_masks(k)
            }
            matched = covers_map_onto(
                images, ac.swap_covers(P), range(len(entries)), lambda t: _bumps(at, entries[t])
            )
            if matched is None:
                return False, {"counterexample": {"n": nn, "k": k}}
            cover_counts += matched
    return True, {"exhausted": {"max_n": n, "covers_matched": cover_counts}}


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
    if iso is None or not iso.verify():
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
    # one complement per antichain of sizes k and n-1-k, kept by mask (it raises
    # on an image of the wrong size); a bijection (covers_map_onto) that the
    # second table undoes has that table for its inverse, so each pair of sizes
    # is compared once, with the swap rule giving both sides' covers
    checked = 0
    for nn in range(2, n + 1):
        P = roots.type_a_root_poset(nn)
        swaps = ac.swap_covers(P)
        for k in range((nn + 1) // 2):
            tables = [
                {A.mask: roots.panyushev_complement(A).mask for A in P.antichains_of_size(size)}
                for size in sorted({k, nn - 1 - k})
            ]
            star, back = tables[0], tables[-1]
            for A, B in star.items():
                if back[B] != A:
                    A, twice = (P.subset_label(_bits(m)) for m in (A, back[B]))
                    return False, {"counterexample": {"n": nn, "A": A, "twice": twice}}
            checked += sum(map(len, tables))
            if covers_map_onto(star, swaps, back, swaps) is None:
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
