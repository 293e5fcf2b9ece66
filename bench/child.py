"""One pass of a workload in a fresh interpreter.

    python bench/child.py WORKLOAD SEED [--setup-only] [--trace FILE] [--workdir DIR] [--pause SECONDS]

Prints ``ready`` with the run record once imports and host posets are
ready, then one line per op::

    name <TAB> kind <TAB> seconds <TAB> extra-json <TAB> output-json

and finally ``end`` with peak RSS and, when traced, the per-layer
figures.  With ``--pause`` it also prints ``pause`` now and then and
waits for a line on standard input before the next op.  Only the calls
into posetforge sit inside the timed region; encoding outputs for the
oracle happens after the clock stops.
For cli-verify the commands run through ``cli.main`` in this one
interpreter, with saved outputs under ``--workdir``; the untraced
benchmark runs them as separate processes instead (run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

clock = time.perf_counter


def order_bits(P) -> dict:
    """Labels and strict up-sets of a poset as hex bitsets, for the oracle."""
    return {"labels": list(P.labels), "up": _rows(P.lt)}


def _rows(matrix) -> list[str]:
    packed = np.packbits(np.asarray(matrix, dtype=bool), axis=1, bitorder="little")
    return [format(int.from_bytes(row.tobytes(), "little"), "x") for row in packed]


class Pacer:
    """Hands the machine back between ops, so set-ups can be measured all through a pass.

    Once ``every`` seconds of ops have run since the last pause, prints
    ``pause`` and waits for a line on standard input.
    """

    def __init__(self, every: float | None):
        self.every, self.since = every, 0.0

    def after(self, seconds: float) -> None:
        if self.every is None:
            return
        self.since += seconds
        if self.since >= self.every:
            self.since = 0.0
            print("pause", flush=True)
            sys.stdin.readline()


pacer = Pacer(None)


def emit(name: str, kind: str, seconds: float, out: dict, extra: dict | None = None) -> None:
    sys.stdout.write(f"{name}\t{kind}\t{seconds!r}\t{json.dumps(extra or {})}\t{json.dumps(out)}\n")
    pacer.after(seconds)


# posetforge names are imported inside the functions below, after a traced
# run has installed its wrappers, so the calls made here are timed too.

# -- minuscule-ladder --------------------------------------------------------------


def ladder_setup():
    from posetforge.minuscule import kind_from_args, minuscule_poset

    return {
        (family, param): minuscule_poset(kind_from_args(family, list(param)))
        for family, param in workloads.LADDER
    }


def ladder_target(family, param, k, hosts):
    """Build the closed-form target that ``workloads.FAMILIES`` names."""
    from posetforge.minuscule import kind_from_args, minuscule_poset
    from posetforge.sequences import gale_poset

    spec = workloads.FAMILIES[family].target(param, k)
    if spec[0] == "gale_product":
        _, a, b, k = spec
        return gale_poset(a, k).product(gale_poset(b, k))
    if spec[0] == "gale":
        return gale_poset(*spec[1:])
    key = spec[1:]
    return hosts[key] if key in hosts else minuscule_poset(kind_from_args(key[0], list(key[1])))


def timed(fn):
    """(seconds, result, None), or (seconds, None, error) when ``fn`` raises;
    an op that raises is reported, and the pass goes on."""
    start = clock()
    try:
        result = fn()
    except Exception as exc:
        return clock() - start, None, {"error": type(exc).__name__, "message": str(exc)}
    return clock() - start, result, None


def ladder_pass(hosts, tracer) -> None:
    from posetforge.antichains import antichain_exchange_poset
    from posetforge.lattice import is_distributive
    from posetforge.poset import find_isomorphism

    def certify(host, k):
        start = clock()
        E = antichain_exchange_poset(host, k)
        return E, clock() - start, is_distributive(E)

    exchange = {}
    for name, kind, family, param, k in workloads.ladder_ops():
        if tracer:
            tracer.op = name
        host = hosts[family, param]
        out = {"family": family, "param": list(param), "k": k}
        extra = {}
        if kind == "certify":
            seconds, result, error = timed(lambda: certify(host, k))
            if result:
                E, build_s, verdict = result
                exchange[family, param, k] = E
                extra = {"build_s": build_s, "certificate_s": seconds - build_s}
                out.update(order_bits(E), covers=_rows(E.cover_matrix), verdict=verdict.to_json_dict())
        else:
            E = exchange.get((family, param, k))
            # a fresh copy: no derived views cached by the certificate or an earlier round
            E = E.relabeled(list(E.labels)) if E is not None else None
            out["elements"] = E.n if E is not None else 0
            seconds, iso, error = timed(lambda: find_isomorphism(E, ladder_target(family, param, k, hosts)))
            if not error:
                out["forward"] = iso.forward if iso is not None else None
        emit(name, kind, seconds, dict(out, **error) if error else out, extra)


# -- corpus-sweep -------------------------------------------------------------------


def corpus_pass(tracer) -> None:
    from posetforge.antichains import antichain_exchange_poset, antichain_ideal_poset
    from posetforge.corpus import small_posets
    from posetforge.lattice import is_distributive

    def level(n):
        name = f"corpus level {n}"
        if tracer:
            tracer.op = name
        seconds, posets, error = timed(lambda: small_posets(n))
        out = error or {"n": n, "posets": [order_bits(P)["up"] for P in posets if P.n == n]}
        emit(name, "level", seconds, out)

    def orders(P):
        width = P.width()
        pairs = [(antichain_exchange_poset(P, k), antichain_ideal_poset(P, k)) for k in range(width + 1)]
        return width, pairs, is_distributive(antichain_ideal_poset(P, P.width()))

    def sweep():
        for index, P in enumerate(small_posets(workloads.SWEEP_MAX)):
            name = f"sweep {index}"
            if tracer:
                tracer.op = name
            P = P.relabeled(list(P.labels))  # no views cached by the corpus build
            seconds, result, error = timed(lambda: orders(P))
            if error:
                emit(name, "sweep", seconds, error)
                continue
            width, pairs, verdict = result
            out = {
                "host": order_bits(P),
                "width": width,
                "orders": [
                    {"exchange": dict(order_bits(E), covers=_rows(E.cover_matrix)), "ideal": order_bits(I)}
                    for E, I in pairs
                ],
                "dilworth": verdict.to_json_dict(),
            }
            emit(name, "sweep", seconds, out)

    # one sweep round before and two after the long last level, so the
    # short sweep (about 3 s a round) samples several moments of the pass
    for n in range(workloads.SWEEP_MAX + 1):
        level(n)
    sweep()
    for n in range(workloads.SWEEP_MAX + 1, workloads.CORPUS_MAX + 1):
        level(n)
    sweep()
    sweep()


# -- cli-verify, in process ------------------------------------------------------------


def run_cli_op(op: dict, workdir: Path, main) -> tuple[float, dict]:
    """Run one op's steps through ``main``, as a shell would run the commands."""

    def pipeline(stages, stdin):
        text, rcs = stdin or "", []
        for argv in stages:
            buf = io.StringIO()
            sys.stdin = io.StringIO(text)
            with contextlib.redirect_stdout(buf):
                try:
                    rcs.append(main(argv))
                except SystemExit as exc:
                    rcs.append(exc.code)
                except Exception:  # exits 1 with a traceback, as `python -m` would
                    traceback.print_exc()
                    rcs.append(1)
            text = buf.getvalue()
        return rcs, text

    start = clock()
    out = workloads.walk_steps(op, workdir, pipeline)
    seconds = clock() - start
    sys.stdin = sys.__stdin__
    return seconds, out


def cli_pass(seed: int, workdir: Path, tracer) -> None:
    from posetforge.cli import main

    for op in workloads.cli_ops(seed):
        if tracer:
            tracer.op = op["name"]
        seconds, out = run_cli_op(op, workdir, main)
        emit(op["name"], op["kind"], seconds, out)


# -- entry --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--pause", type=float, metavar="SECONDS", help="pause after this many seconds of ops")
    args = parser.parse_args()
    pacer.every = args.pause

    tracer = None
    import posetforge.cli  # noqa: F401  -- loads every module, as the CLI does

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    hosts = ladder_setup() if args.workload == "minuscule-ladder" else None
    record = {"python": sys.version.split()[0], "numpy": np.__version__}
    print("ready\t" + json.dumps(record), flush=True)
    if args.setup_only:
        return 0
    if args.workload == "minuscule-ladder":
        ladder_pass(hosts, tracer)
    elif args.workload == "corpus-sweep":
        corpus_pass(tracer)
    else:
        cli_pass(args.seed, Path(args.workdir), tracer)
    end = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        end["layers"], end["absent"] = tracer.layers()
        tracer.write(args.trace)
    print("end\t" + json.dumps(end), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
