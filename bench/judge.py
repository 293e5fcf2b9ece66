"""Checks every op's output against the oracle and names the fault of each failed op.

An op ends in one of four states: ``ok``; ``F1`` or ``F2``, a failure
explained by a fault in the ledger below; or ``wrong``, an answer that
disagrees with the oracle for no known reason, which makes the whole
run incorrect.  A fault is named only when the output matches what the
fault predicts, so a different bug never hides behind a ledger entry.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb

import oracle
from workloads import FAMILIES, random_poset

FAULTS = {
    "F1": "uint8 wrap in poset._bool_matmul: 0/1 products count paths mod 256, so "
    "closure drops pairs and cover extraction keeps false covers (spin n=9: k=2 "
    "reports 842 covers for Gale(11,4)'s 840; k=3 loses 10 of 60522 pairs and a meet)",
    "F2": "poset.DEFAULT_ISO_CAP = 200: find_isomorphism raises SizeLimitExceeded "
    "on orders above 200 elements, so no witness is searched",
}

CHECK_IDS = (
    "boolean-cube-example", "box-gale-composite", "dilworth-max-antichains",
    "durfee-product", "e6-antichains", "e7-antichains", "e7-self-map",
    "exchange-order-basics", "five-element-example", "gale-rank-covers",
    "grid-antichain-durfee", "grid-antichain-split", "ideal-heights-iso",
    "minuscule-distributive", "narayana-symmetry", "natural-family-antichains",
    "root-complement-involution", "sequence-lattices", "spin-antichain-merge",
    "weak-chain-shift-iso",
)

_KIND = {"Grid": "grid", "SpinD": "spin", "NaturalD": "natural", "E6Kind": "e6", "E7Kind": "e7"}


class Mismatch(Exception):
    """An output that disagrees with the oracle; ``status`` names the fault or 'wrong'."""

    def __init__(self, detail: str, status: str = "wrong"):
        super().__init__(detail)
        self.status = status


def _ints(hexes: list[str]) -> list[int]:
    return [int(h, 16) for h in hexes]


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise Mismatch(detail)


def family_size(family: str, param: tuple[int, ...], k: int) -> int:
    return FAMILIES[family].size(param, k)


def canonical(labels: list[str], up: list[int]) -> dict:
    """The interchange form ``build`` must emit: covers in index order."""
    cov = oracle.covers(up)
    pairs = [[labels[i], labels[j]] for i in range(len(up)) for j in oracle.bits(cov[i])]
    return {"elements": list(labels), "relations": pairs}


class Judge:
    """Oracle answers for one run, computed once and reused across passes."""

    def __init__(self, seed: int):
        self.seed = seed
        self._memo: dict = {}
        self._verdicts: dict = {}

    def _once(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def check(self, workload: str, name: str, kind: str, out_text: str):
        """(status, detail, work) for one op; identical outputs are judged once."""
        key = (name, hashlib.sha1(out_text.encode()).hexdigest())
        if key not in self._verdicts:
            out = json.loads(out_text)
            try:
                work = self._check(workload, name, kind, out)
                self._verdicts[key] = ("ok", "", work)
            except Mismatch as exc:
                self._verdicts[key] = (exc.status, str(exc), 0)
        return self._verdicts[key]

    def _check(self, workload, name, kind, out) -> int:
        if "error" in out:
            if (
                kind == "witness"
                and out["error"] == "SizeLimitExceeded"
                and "capped at 200" in out["message"]
                and out.get("elements", 0) > 200
            ):
                raise Mismatch(out["message"], "F2")
            raise Mismatch(f"{out['error']}: {out['message']}")
        if workload == "minuscule-ladder":
            family, param, k = out["family"], tuple(out["param"]), out["k"]
            if kind == "certify":
                return self.certify(out, family, param, k)
            return self.witness(out, family, param, k)
        if workload == "corpus-sweep":
            return self.level(out) if kind == "level" else self.sweep(out)
        return self.cli(name, kind, out)

    # -- minuscule-ladder ------------------------------------------------------

    def host(self, family, param):
        return self._once(("host", family, param), lambda: oracle.family_host(family, param))

    def exchange(self, family, param, k):
        """Oracle exchange order, itself checked against the closed forms."""

        def build():
            labels, up, edges = oracle.exchange_order(*self.host(family, param), k)
            size = family_size(family, param, k)
            _expect(len(labels) == size, f"oracle: {len(labels)} antichains, closed form {size}")
            _expect(oracle.covers(up) == edges, "oracle: covers are not the single cover-replacements")
            target = self.target(family, param, k)
            if target is not None:
                t_up = target[1]
                _expect(
                    oracle.comparable_pairs(up) == oracle.comparable_pairs(t_up)
                    and sum(m.bit_count() for m in edges) == self.target_covers(family, param, k),
                    "oracle: exchange order and its Gale target differ in pairs or covers",
                )
            return labels, up, edges

        return self._once(("exchange", family, param, k), build)

    def target(self, family, param, k):
        """The closed-form poset each witness op maps onto, or None."""
        spec = FAMILIES[family].target(param, k)

        def build():
            if spec[0] == "gale_product":
                _, a, b, k = spec
                la, ua, _ = oracle.gale(a, k)
                lb, ub, _ = oracle.gale(b, k)
                return oracle.product(la, ua, lb, ub)
            if spec[0] == "gale":
                labels, up, _ = oracle.gale(*spec[1:])
                return labels, up
            return self.host(*spec[1:])

        return None if spec is None else self._once(("target", spec), build)

    def target_covers(self, family, param, k) -> int:
        spec = FAMILIES[family].target(param, k)
        if spec[0] == "gale_product":
            return oracle.gale_product_covers(*spec[1:])
        if spec[0] == "gale":
            return sum(m.bit_count() for m in oracle.gale(*spec[1:])[2])
        return sum(m.bit_count() for m in oracle.covers(self.target(family, param, k)[1]))

    def birkhoff(self, key, labels, up):
        return self._once(("birkhoff", key), lambda: oracle.birkhoff(labels, up))

    def certify(self, out, family, param, k) -> int:
        labels, up, edges = self.exchange(family, param, k)
        got_up, got_cov = _ints(out["up"]), _ints(out["covers"])
        _expect(out["labels"] == labels, "antichain labels or their order differ")
        if got_up != up:
            pairs = oracle.comparable_pairs(up)
            lost = pairs - oracle.comparable_pairs(got_up)
            if got_up == oracle.uint8_closure(edges):
                raise Mismatch(f"closure lost {lost} of {pairs} comparable pairs", "F1")
            raise Mismatch(oracle.strict_order_error(got_up) or "relation differs from the exchange order")
        if got_cov != edges:
            found, true = (sum(m.bit_count() for m in c) for c in (got_cov, edges))
            if got_cov == oracle.uint8_covers(got_up):
                raise Mismatch(f"{found} covers reported, {true} true", "F1")
            raise Mismatch(f"{found} covers reported, {true} true")
        self.verdict(out["verdict"], ("exchange", family, param, k), labels, up)
        return len(labels)

    def verdict(self, got: dict, key, labels, up) -> None:
        witness = self.birkhoff(key, labels, up)
        _expect(
            got["distributive"] == (witness is not None),
            f"distributive reported {got['distributive']}",
        )
        if witness is not None:
            _expect(got["is_lattice"], "a distributive lattice reported as no lattice")
            _expect(got["witness"]["forward"] == witness, "ideal-representation witness differs")
        else:
            holds = oracle.is_lattice(up)
            _expect(got["is_lattice"] == holds, f"lattice reported {got['is_lattice']}")

    def witness(self, out, family, param, k) -> int:
        labels, up, _ = self.exchange(family, param, k)
        _expect(out["forward"] is not None, "no isomorphism found onto the closed-form target")
        err = oracle.iso_error(out["forward"], labels, up, *self.target(family, param, k))
        _expect(err is None, f"witness map: {err}")
        return len(labels)

    # -- corpus-sweep -----------------------------------------------------------

    def level(self, out) -> int:
        n, posets = out["n"], [_ints(p) for p in out["posets"]]
        want = oracle.POSET_CLASSES[n]
        _expect(len(posets) == want, f"{len(posets)} classes on {n} points, expected {want}")
        for up in posets:
            _expect(len(up) == n, f"a poset on level {n} has {len(up)} elements")
            err = oracle.strict_order_error(up)
            _expect(err is None, f"corpus poset is no order: {err}")
        return len(posets)

    def sweep(self, out) -> int:
        hl, hu = out["host"]["labels"], _ints(out["host"]["up"])
        err = oracle.strict_order_error(hu)
        _expect(err is None, f"host is no order: {err}")
        width = max(k for k in range(len(hu) + 1) if oracle.antichains(hu, k))
        _expect(
            out["width"] == width and len(out["orders"]) == width + 1,
            f"width {out['width']}, expected {width}",
        )
        for k, got in enumerate(out["orders"]):
            el, eu, edges = oracle.exchange_order(hl, hu, k)
            _expect(oracle.antichain_count(hu, k) == len(el), "oracle: antichain routes disagree")
            _expect(oracle.covers(eu) == edges, "oracle: covers are not the single cover-replacements")
            ex, idl = got["exchange"], got["ideal"]
            _expect(ex["labels"] == el and idl["labels"] == el, f"k={k}: antichains differ")
            _expect(_ints(ex["up"]) == eu, f"k={k}: exchange order differs")
            _expect(_ints(ex["covers"]) == edges, f"k={k}: exchange covers differ")
            il, iu = oracle.ideal_order(hl, hu, k)
            _expect(_ints(idl["up"]) == iu, f"k={k}: ideal order differs")
            _expect(
                all(e & ~i == 0 for e, i in zip(_ints(ex["up"]), _ints(idl["up"]))),
                f"k={k}: exchange order not inside the ideal order",
            )
        il, iu = oracle.ideal_order(hl, hu, width)
        witness = oracle.birkhoff(il, iu)
        _expect(witness is not None, "oracle: Dilworth lattice not distributive")
        got = out["dilworth"]
        _expect(
            got["distributive"] and got["witness"]["forward"] == witness,
            "Dilworth certificate differs",
        )
        return 2 * (width + 1) + 1

    # -- cli-verify ---------------------------------------------------------------

    def cli(self, name, kind, out) -> int:
        steps = out["steps"]
        if kind == "verify":
            _expect(steps[0]["rc"] == [0], f"exit codes {steps[0]['rc']}")
            return self.verify_all(json.loads(steps[0]["out"]))
        if name.startswith("random"):
            return self.random_pipeline(name, steps)
        if name.startswith("narayana"):
            _expect(steps[0]["rc"] == [0], f"exit codes {steps[0]['rc']}")
            row = list(map(int, steps[0]["out"].split()))
            _expect(row == oracle.narayana_row(9), f"Narayana row {row} differs")
            return 1
        if name.startswith("star"):
            _expect(steps[0]["rc"] == [0], f"exit codes {steps[0]['rc']}")
            got = [tuple(map(int, m)) for m in re.findall(r"\[(\d+),(\d+)\]", steps[0]["out"])]
            want = oracle.root_complement(6, [(1, 3)])
            _expect(
                got == want and len(got) == 4 and oracle.is_root_antichain(got),
                f"complement {got}, expected {want}",
            )
            return 1
        for step in steps:
            _expect(all(rc == 0 for rc in step["rc"]), f"exit codes {step['rc']}")
        if name.startswith("grid"):
            labels, up, _ = self.exchange("grid", (5, 5), 2)
            self.verdict(json.loads(steps[0]["out"]), ("exchange", "grid", (5, 5), 2), labels, up)
        elif name.startswith("e7"):
            e_labels, e_up, _ = self.exchange("e7", (), 2)
            h_labels, h_up = self.host("e7", ())
            _expect(json.loads(steps[0]["out"]) == canonical(e_labels, e_up), "ak 2 output differs")
            _expect(json.loads(steps[1]["out"]) == canonical(h_labels, h_up), "minuscule e7 output differs")
            got = json.loads(steps[2]["out"])
            _expect(got["isomorphic"], "e7 and its 2-antichains reported non-isomorphic")
            err = oracle.iso_error(got["forward"], e_labels, e_up, h_labels, h_up)
            _expect(err is None, f"iso map: {err}")
        else:
            self.dot(steps[0]["out"])
        return 1

    def dot(self, text: str) -> None:
        labels, up, edges = self.exchange("spin", (7,), 2)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        ranks = [re.findall(quoted, line) for line in text.splitlines() if "rank=same" in line]
        arrows = {tuple(re.findall(quoted, line)) for line in text.splitlines() if "->" in line}
        want = {(labels[i], labels[j]) for i, m in enumerate(edges) for j in oracle.bits(m)}
        _expect(
            len(labels) == comb(9, 4) and len(want) == self.target_covers("spin", (7,), 2),
            "oracle: spin 7 sizes differ from Gale(9,4)",
        )
        _expect(arrows == want, f"{len(arrows)} DOT edges, {len(want)} covers expected")
        down = oracle.down_sets(up)
        height = {}
        for i in sorted(range(len(up)), key=lambda i: down[i].bit_count()):
            lower_covers = [j for j in oracle.bits(down[i]) if (edges[j] >> i) & 1]
            height[i] = 1 + max((height[j] for j in lower_covers), default=-1)
        want_ranks = {}
        for i in range(len(up)):
            want_ranks.setdefault(height[i], []).append(labels[i])
        _expect(ranks == [want_ranks[h] for h in sorted(want_ranks)], "DOT rank layers differ")

    def random_pipeline(self, name, steps) -> int:
        r = int(name.split()[1])
        data = random_poset(self.seed, r)
        labels = data["elements"]
        pos = {lab: i for i, lab in enumerate(labels)}
        edges = [0] * len(labels)
        for a, b in data["relations"]:
            edges[pos[a]] |= 1 << pos[b]
        up = oracle.close(edges)
        if name.endswith("build | build"):
            _expect(all(s["rc"] == [0] for s in steps), f"exit codes {[s['rc'] for s in steps]}")
            once, twice = (json.loads(s["out"]) for s in steps)
            _expect(once == canonical(labels, up), "build output is not the canonical form")
            _expect(twice == once, "build | build is not the identity")
            return 1
        order = oracle.ideal_order if "--order j" in name else oracle.exchange_order
        a_labels, a_up = order(labels, up, 2)[:2]
        holds = oracle.is_lattice(a_up)
        want = ([0, 0, 0 if holds else 1], f"lattice: {'yes' if holds else 'no'}\n")
        got = (steps[0]["rc"], steps[0]["out"])
        _expect(got == want, f"got {got}, expected {want}")
        return 1

    def verify_all(self, reports: list[dict]) -> int:
        by_id = {r["check_id"]: r for r in reports}
        _expect(
            sorted(by_id) == sorted(CHECK_IDS) and len(reports) == len(CHECK_IDS),
            "check ids differ",
        )
        failing = [r["check_id"] for r in reports if r["verdict"] != "pass"]
        _expect(not failing, f"checks failed: {failing}")
        cases = by_id["minuscule-distributive"]["certificate"]["cases"]
        p = by_id["minuscule-distributive"]["parameters"]
        want = {("grid", (a, b)) for a in range(1, p["a"] + 1) for b in range(1, p["b"] + 1)}
        want |= {("spin", (n,)) for n in range(1, p["n"] + 1)}
        want |= {("natural", (m,)) for m in range(p["m"] + 1)}
        want |= {("e6", ()), ("e7", ())}
        seen = set()
        for case in cases:
            head, args = re.fullmatch(r"(\w+)\((.*)\)", case["kind"]).groups()
            fam, param = _KIND[head], tuple(int(v) for v in re.findall(r"=(\d+)", args))
            seen.add((fam, param))
            size = family_size(fam, param, case["k"])
            _expect(
                case["elements"] == size,
                f"{case['kind']} k={case['k']}: {case['elements']} elements, closed form {size}",
            )
        _expect(seen == want, "minuscule-distributive covers the wrong family members")
        exhausted = by_id["dilworth-max-antichains"]["certificate"]["exhausted"]
        classes = sum(oracle.POSET_CLASSES[: exhausted["max_size"] + 1])
        _expect(exhausted["posets"] == classes, "Dilworth corpus count differs")
        for n, row in by_id["narayana-symmetry"]["certificate"]["tables"].items():
            _expect(row == oracle.narayana_row(int(n)), f"Narayana row {n} differs")
        e_labels, e_up, _ = self.exchange("e7", (), 2)
        forward = by_id["e7-self-map"]["certificate"]["witness"]["forward"]
        err = oracle.iso_error(forward, *self.host("e7", ()), e_labels, e_up)
        _expect(err is None, f"e7 self-map: {err}")
        return len(reports)


def self_test() -> None:
    """Raise AssertionError unless the checks accept correct answers and
    reject four planted faults."""
    judge = Judge(seed=0)
    labels, up, edges = judge.exchange("grid", (3, 3), 2)
    witness = oracle.birkhoff(labels, up)
    good = {
        "labels": labels,
        "up": [format(m, "x") for m in up],
        "covers": [format(m, "x") for m in edges],
        "verdict": {"distributive": True, "is_lattice": True, "witness": {"forward": witness}},
    }
    # N5 (0 < a < b < 1, 0 < c < 1) is a lattice; 2+2 with a bottom and a
    # top is not, since a and b have two minimal upper bounds c and d
    n5 = ["0", "a", "b", "c", "1"], oracle.close([0b1010, 0b100, 0b10000, 0b10000, 0])
    bounded_2_2 = ["0", "a", "b", "c", "d", "1"], oracle.close([0b110, 0b11000, 0b11000, 0b100000, 0b100000, 0])
    for accepted, call in (
        ("a correct exchange order", lambda: judge.certify(good, "grid", (3, 3), 2)),
        ("N5 as a lattice", lambda: judge.verdict({"distributive": False, "is_lattice": True}, "n5", *n5)),
        ("bounded 2+2 as no lattice",
         lambda: judge.verdict({"distributive": False, "is_lattice": False}, "2+2", *bounded_2_2)),
    ):
        try:
            call()
        except Mismatch as exc:
            raise AssertionError(f"oracle rejected {accepted}: {exc}") from exc
    # a pair i < j that is no cover: drop it from the relation, or add it to the covers
    i = next(i for i, m in enumerate(up) if m & ~edges[i])
    far = up[i] & ~edges[i]
    j_bit = far & -far
    dropped = dict(good, up=list(good["up"]))
    dropped["up"][i] = format(up[i] & ~j_bit, "x")
    extra = dict(good, covers=list(good["covers"]))
    extra["covers"][i] = format(edges[i] | j_bit, "x")
    level = {"n": 4, "posets": [["0"] * 4] * (oracle.POSET_CLASSES[4] - 1)}
    for planted, call in (
        ("a relation with one pair dropped", lambda: judge.certify(dropped, "grid", (3, 3), 2)),
        ("a cover count off by one", lambda: judge.certify(extra, "grid", (3, 3), 2)),
        ("a corpus level with one class missing", lambda: judge.level(level)),
        ("bounded 2+2 as a lattice",
         lambda: judge.verdict({"distributive": False, "is_lattice": True}, "2+2", *bounded_2_2)),
    ):
        try:
            call()
        except Mismatch as exc:
            if exc.status != "wrong":
                raise AssertionError(f"{planted} was blamed on {exc.status}") from exc
        else:
            raise AssertionError(f"oracle accepted {planted}")
