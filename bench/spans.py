"""Run-time wrappers that time calls into posetforge's layers from outside.

``Tracer.install`` replaces every binding of each hooked name across the
loaded posetforge modules (``transitive_closure`` is bound in both
``poset`` and ``antichains``, ``find_isomorphism`` in four modules), so
no program file changes.  A hook whose target no longer exists is
recorded as absent and the run goes on.  Spans (name, start, end,
parent, op) stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _calls(counter):
    return lambda tracer, result, exc: tracer.counts.update([counter])


def _size(counter, measure=len):
    def count(tracer, result, exc):
        if exc is None:
            tracer.counts[counter] += measure(result)

    return count


def _iso(tracer, result, exc):
    tracer.counts["poset.iso_calls"] += 1
    tracer.counts["poset.iso_found"] += exc is None and result is not None
    tracer.counts["poset.iso_capped"] += type(exc).__name__ == "SizeLimitExceeded"


# (span name or None for a count-only hook, module, attribute path, counter)
HOOKS = (
    ("poset.closure", "posetforge.poset", "transitive_closure", _calls("poset.closure_calls")),
    ("poset.construct", "posetforge.poset", "Poset.__init__", _calls("poset.constructed")),
    ("poset.covers", "posetforge.poset", "Poset.cover_matrix", None),
    ("poset.antichain_enum", "posetforge.poset", "Poset._antichain_masks", _size("poset.antichains")),
    ("poset.ideal_enum", "posetforge.poset", "Poset.ideal_masks", _size("poset.ideals")),
    ("poset.iso", "posetforge.poset", "find_isomorphism", _iso),
    ("poset.json", "posetforge.poset", "poset_to_dict", None),
    ("poset.json", "posetforge.poset", "poset_from_dict", None),
    ("antichains.exchange", "posetforge.antichains", "antichain_exchange_poset",
     _size("antichains.exchange_elements", lambda P: P.n)),
    ("antichains.edges", "posetforge.antichains", "_exchange_edges", None),
    ("antichains.ideal_order", "posetforge.antichains", "antichain_ideal_poset", _calls("antichains.ideal_orders")),
    ("lattice.meet_join", "posetforge.lattice", "meet_join_table", _calls("lattice.meet_join_calls")),
    ("lattice.certificate", "posetforge.lattice", "is_distributive", None),
    ("lattice.witness_verify", "posetforge.poset", "PosetIso.verify", None),
    ("sequences.gale", "posetforge.sequences", "gale_poset", None),
    ("ferrers.durfee", "posetforge.ferrers", "durfee_poset", None),
    ("minuscule.construct", "posetforge.minuscule", "minuscule_poset", None),
    ("roots.complement", "posetforge.roots", "panyushev_complement", _calls("roots.complement_calls")),
    ("corpus.fingerprint", "posetforge.corpus", "_fingerprint", None),
    (None, "posetforge.corpus", "_extend", _calls("corpus.extensions")),
    (None, "posetforge.corpus", "_posets_of_size", _size("corpus.classes")),
)


# per-layer metric, unit, hook it is read from
LAYER_METRICS = (
    ("poset.closure_s", "s", "transitive_closure"),
    ("poset.closure_calls", "count", "transitive_closure"),
    ("poset.construct_s", "s", "Poset.__init__"),
    ("poset.constructed", "count", "Poset.__init__"),
    ("poset.covers_s", "s", "Poset.cover_matrix"),
    ("poset.antichain_enum_s", "s", "Poset._antichain_masks"),
    ("poset.antichains", "count", "Poset._antichain_masks"),
    ("poset.ideal_enum_s", "s", "Poset.ideal_masks"),
    ("poset.ideals", "count", "Poset.ideal_masks"),
    ("poset.iso_s", "s", "find_isomorphism"),
    ("poset.iso_calls", "count", "find_isomorphism"),
    ("poset.iso_found_ratio", "ratio", "find_isomorphism"),
    ("poset.iso_capped", "count", "find_isomorphism"),
    ("poset.json_s", "s", "poset_to_dict"),
    ("antichains.exchange_s", "s", "antichain_exchange_poset"),
    ("antichains.exchange_elements", "count", "antichain_exchange_poset"),
    ("antichains.edges_s", "s", "_exchange_edges"),
    ("antichains.ideal_order_s", "s", "antichain_ideal_poset"),
    ("antichains.ideal_orders", "count", "antichain_ideal_poset"),
    ("lattice.meet_join_s", "s", "meet_join_table"),
    ("lattice.meet_join_calls", "count", "meet_join_table"),
    ("lattice.certificate_s", "s", "is_distributive"),
    ("lattice.witness_verify_s", "s", "PosetIso.verify"),
    ("sequences.gale_s", "s", "gale_poset"),
    ("ferrers.durfee_s", "s", "durfee_poset"),
    ("minuscule.construct_s", "s", "minuscule_poset"),
    ("roots.complement_s", "s", "panyushev_complement"),
    ("roots.complement_calls", "count", "panyushev_complement"),
    ("corpus.fingerprint_s", "s", "_fingerprint"),
    ("corpus.extensions", "count", "_extend"),
    ("corpus.classes", "count", "_posets_of_size"),
    ("corpus.kept_ratio", "ratio", "_extend"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}
        self.op = "setup"

    def wrap(self, name, fn, count):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is not None:
                span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.op]
                self.stack.append(len(self.spans))
                self.spans.append(span)
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if name is not None:
                    span[2] = clock()
                    self.stack.pop()
                if count is not None:
                    count(self, result, exc)

        return traced

    def install(self) -> None:
        for name, module, path, count in HOOKS:
            mod = sys.modules.get(module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.absent[path] = f"{module}.{path} no longer exists"
                continue
            target = vars(owner)[attr]
            if isinstance(target, functools.cached_property):
                new = functools.cached_property(self.wrap(name, target.func, count))
                new.__set_name__(owner, attr)
                setattr(owner, attr, new)
            elif owner_name:
                setattr(owner, attr, self.wrap(name, target, count))
            else:
                if hasattr(target, "cache_info"):
                    # re-cache the raw function so only cache misses count
                    new = functools.lru_cache(maxsize=None)(self.wrap(name, target.__wrapped__, count))
                else:
                    new = self.wrap(name, target, count)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("posetforge"):
                        for key, value in list(vars(other).items()):
                            if value is target:
                                setattr(other, key, new)

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def layers(self) -> tuple[dict, dict]:
        """Every per-layer metric, and why each one whose hook is gone is absent."""
        times = self.self_times()
        counts = self.counts
        ratios = {
            "poset.iso_found_ratio": (counts["poset.iso_found"], counts["poset.iso_calls"]),
            "corpus.kept_ratio": (counts["corpus.classes"], counts["corpus.extensions"]),
        }
        values, absent = {}, {}
        for metric, unit, hook in LAYER_METRICS:
            if hook in self.absent:
                absent[metric] = self.absent[hook]
            if metric in ratios:
                num, den = ratios[metric]
                values[metric] = num / den if den else 0.0
            elif unit == "s":
                values[metric] = times[metric[:-2]]
            else:
                values[metric] = counts[metric]
        return values, absent

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
