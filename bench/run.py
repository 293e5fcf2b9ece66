"""posetforge benchmark: cli-verify, minuscule-ladder and corpus-sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in fresh interpreters,
because the program's lru caches start cold for every CLI user.  Passes
repeat until S seconds of ops have been measured; every op's output is
checked by an oracle that does not import posetforge.  The last line of
standard output is one JSON object; the lines before it give the run
record, every figure by name with its unit, and each failed op with the
fault that explains it.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import judge  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

# a set-up is measured after every SETUP_EVERY_S seconds of ops, so the
# samples spread over the whole run, and at least SETUP_REPS_MIN per run
SETUP_EVERY_S = 0.5
SETUP_REPS_MIN = 30
STARTUP_REPS = 3
clock = time.perf_counter

# op kind behind the primary and secondary rate of each workload, and the
# names those figures have in the workload's own terms
RATES = {
    "cli-verify": (("verify", "verify_all_s", "checks"), ("pipeline", "pipeline_s", "pipelines")),
    "minuscule-ladder": (
        ("certify", "certified_elements_per_s", "elements"),
        ("witness", "witness_elements_per_s", "elements"),
    ),
    "corpus-sweep": (
        ("level", "corpus_posets_per_s", "posets"),
        ("sweep", "sweep_orders_per_s", "orders"),
    ),
}


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


class Op(NamedTuple):
    """One timed op of a pass with the oracle's judgement."""

    name: str
    kind: str
    seconds: float
    extra: dict
    status: str  # "ok", a fault id from judge.FAULTS, or "wrong"
    detail: str
    work: int  # elements, posets, orders, checks or pipelines it completed
    out: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("POSETFORGE_CAPS", None)  # every run measures `verify all` at default caps
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def wait_rss_kb(proc: subprocess.Popen) -> int:
    """Reap ``proc``, setting its return code, and give its peak RSS."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


# -- passes ----------------------------------------------------------------------


def child(workload: str, seed: int, env: dict, *flags: str):
    """Run bench/child.py; yield ('ready', seconds, record), each op line, ('end', record).

    On a ``pause`` line it yields ('pause',) and lets the child go on
    when the consumer asks for the next event.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), "--workdir", str(OUT / "work")]
    cmd += flags
    start = clock()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        ready = clock() - start
        if not first.startswith("ready\t"):
            raise BenchError(f"{workload} child failed before set-up finished")
        yield "ready", ready, json.loads(first.split("\t", 1)[1])
        for line in proc.stdout:
            if line.startswith("end\t"):
                yield "end", json.loads(line.split("\t", 1)[1])
            elif line == "pause\n":
                yield ("pause",)
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                name, kind, seconds, extra, out = line.rstrip("\n").split("\t", 4)
                yield "op", name, kind, float(seconds), json.loads(extra), out
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with {proc.returncode}")


def setup_seconds(workload: str, seed: int, env: dict) -> tuple[float, dict]:
    events = list(child(workload, seed, env, "--setup-only"))
    return events[0][1], events[0][2]


def child_pass(workload, seed, env, *flags, between=None):
    """Ops and end record of one pass in a fresh bench/child.py interpreter.

    With ``between``, the child pauses after every SETUP_EVERY_S seconds
    of ops and ``between()`` runs while it waits.
    """
    if between is not None:
        flags += ("--pause", str(SETUP_EVERY_S))
    ops, end = [], None
    for event in child(workload, seed, env, *flags):
        if event[0] == "op":
            ops.append(event[1:])
        elif event[0] == "end":
            end = event[1]
        elif event[0] == "pause":
            between()
    if end is None:
        raise BenchError(f"{workload} child ended without a record")
    return ops, end


def shell_op(op: dict, env: dict) -> tuple[float, dict, int]:
    """Run one cli-verify op as shell pipelines of `python -m posetforge` processes."""
    rss = [0]

    def pipeline(stages, stdin):
        procs = []
        for argv in stages:
            if procs:
                source = procs[-1].stdout
            else:
                source = subprocess.PIPE if stdin is not None else subprocess.DEVNULL
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "posetforge", *argv],
                    stdin=source, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                )
            )
            if len(procs) > 1:
                procs[-2].stdout.close()  # the next stage owns the pipe now
        if stdin is not None:
            try:
                procs[0].stdin.write(stdin.encode())
                procs[0].stdin.close()
            except BrokenPipeError:  # the stage exited without reading; its exit code tells
                pass
        text = procs[-1].stdout.read().decode()
        procs[-1].stdout.close()
        rss[0] = max([rss[0]] + [wait_rss_kb(p) for p in procs])
        return [p.returncode for p in procs], text

    start = clock()
    out = workloads.walk_steps(op, OUT / "work", pipeline)
    return clock() - start, out, rss[0]


def shell_pass(seed: int, env: dict, between):
    """Ops and peak RSS of one cli-verify pass; ``between()`` runs after
    every SETUP_EVERY_S seconds of ops, as in :func:`child_pass`."""
    ops, rss, since = [], 0, 0.0
    for op in workloads.cli_ops(seed):
        seconds, out, op_rss = shell_op(op, env)
        rss = max(rss, op_rss)
        ops.append((op["name"], op["kind"], seconds, {}, json.dumps(out)))
        since += seconds
        if since >= SETUP_EVERY_S:
            since = 0.0
            between()
    return ops, {"rss_kb": rss}


def judged(workload, jd, ops) -> list[Op]:
    return [
        Op(name, kind, seconds, extra, *jd.check(workload, name, kind, out), out)
        for name, kind, seconds, extra, out in ops
    ]


# -- figures ------------------------------------------------------------------------


def rate(ops, kind) -> float:
    """Work of the ops of ``kind`` that passed, over the wall time of all of them."""
    chosen = [op for op in ops if op.kind == kind]
    return sum(op.work for op in chosen if op.status == "ok") / sum(op.seconds for op in chosen)


def end_to_end(workload, setups, passes) -> tuple[dict, dict]:
    (kind_a, name_a, unit_a), (kind_b, name_b, unit_b) = RATES[workload]
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med(end["rss_kb"] for _, end in passes) / 1024, "MB"),
        "pass_s": (med(sum(op.seconds for op in ops) for ops, _ in passes), "s"),
        "primary_per_s": (med(rate(ops, kind_a) for ops, _ in passes), "1/s"),
        "secondary_per_s": (med(rate(ops, kind_b) for ops, _ in passes), "1/s"),
    }
    if workload == "cli-verify":
        named = {
            name_a: (med(op.seconds for ops, _ in passes for op in ops if op.kind == kind_a), "s"),
            name_b: (med(sum(op.seconds for op in ops if op.kind == kind_b) for ops, _ in passes), "s"),
        }
    else:
        named = {
            name_a: (metrics["primary_per_s"][0], f"{unit_a}/s"),
            name_b: (metrics["secondary_per_s"][0], f"{unit_b}/s"),
        }
    return metrics, named


def cli_startup(env) -> float:
    times = []
    for _ in range(STARTUP_REPS):
        start = clock()
        subprocess.run([sys.executable, "-m", "posetforge", "verify", "all", "--list"],
                       env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(clock() - start)
    return statistics.median(times)


def per_layer(workload, env, plain, traced, end) -> tuple[dict, dict]:
    metrics = {m: (end["layers"][m], unit) for m, unit, _ in LAYER_METRICS}
    absent = dict(end["absent"])
    verify = next((op for op in traced if op.kind == "verify"), None)
    elapsed = {}
    if verify is not None and verify.status == "ok":
        reports = json.loads(json.loads(verify.out)["steps"][0]["out"])
        elapsed = {r["check_id"]: r["elapsed_s"] for r in reports}
    for check_id in judge.CHECK_IDS:
        metrics[f"checks.{check_id}_s"] = (elapsed.get(check_id, 0.0), "s")
        if check_id not in elapsed:
            absent[f"checks.{check_id}_s"] = "verify all is not run by this workload"
    metrics["cli.startup_s"] = (cli_startup(env), "s")
    metrics["trace.overhead_s"] = (sum(op.seconds for op in traced) - sum(op.seconds for op in plain), "s")
    for name, (value, unit) in metrics.items():
        if unit == "s" and value == 0 and name not in absent:
            absent[name] = "layer not called by this workload"
    return metrics, absent


# -- entry --------------------------------------------------------------------------


def run(args) -> dict:
    if not (ROOT / "src" / "posetforge" / "__init__.py").is_file():
        raise BenchError("no posetforge sources under src/; run from a full checkout")
    judge.self_test()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    env = child_env()
    # compile the sources once so no measured interpreter pays for it
    subprocess.run([sys.executable, "-c", "import posetforge.cli"], env=env, cwd=ROOT, check=True)
    jd = judge.Judge(args.seed)
    w = args.workload
    lines = []

    if args.trace:
        _, record = setup_seconds(w, args.seed, env)
        plain, _ = child_pass(w, args.seed, env)
        traced, end = child_pass(w, args.seed, env, "--trace", str(OUT / f"trace-{w}.jsonl"))
        plain, traced = judged(w, jd, plain), judged(w, jd, traced)
        ops = plain + traced
        metrics, absent = per_layer(w, env, plain, traced, end)
        lines += [f"absent {name}: {why}" for name, why in sorted(absent.items())]
        lines.append(f"spans written to {(OUT / f'trace-{w}.jsonl').relative_to(ROOT)}")
        passes_run = 2
    else:
        first, record = setup_seconds(w, args.seed, env)
        setups, passes, measured = [first], [], 0.0

        def take_setup():
            # set-ups are spread over the run, so a slow spell does not hit all of them
            setups.append(setup_seconds(w, args.seed, env)[0])

        while not passes or measured < args.seconds:
            if w == "cli-verify":
                raw, end = shell_pass(args.seed, env, take_setup)
            else:
                raw, end = child_pass(w, args.seed, env, between=take_setup)
            ops = judged(w, jd, raw)
            passes.append((ops, end))
            measured += sum(op.seconds for op in ops)
        while len(setups) < SETUP_REPS_MIN:
            take_setup()
        ops = [op for pass_ops, _ in passes for op in pass_ops]
        metrics, named = end_to_end(w, setups, passes)
        lines += [f"figure {name} = {value:.6g} {unit}" for name, (value, unit) in named.items()]
        lines.append(f"set-ups measured={len(setups)}")
        if w == "minuscule-ladder":
            ref = next(op.extra for op in passes[0][0] if op.name == "certify grid6x6 k=3")
            if ref:  # empty when the op raised
                lines.append(
                    f"reference grid 6x6 k=3: build {ref['build_s']:.3f} s, "
                    f"certificate {ref['certificate_s']:.3f} s"
                )
        passes_run = len(passes)

    failed = [op for op in ops if op.status != "ok"]
    wrong = [op for op in failed if op.status == "wrong"]
    head = [
        f"run workload={w} seed={args.seed} trace={args.trace} passes={passes_run} "
        f"python={record['python']} numpy={record['numpy']} nproc={os.cpu_count()} "
        f"blas_threads={env['OMP_NUM_THREADS']}",
    ]
    head += [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    head += lines
    head.append(f"ops attempted={len(ops)} failed={len(failed)} wrong={len(wrong)}")
    seen = set()
    for op in failed:
        if (op.name, op.status) not in seen:
            seen.add((op.name, op.status))
            why = judge.FAULTS.get(op.status, "answer disagrees with the oracle")
            head.append(f"failed {op.name}: {op.status} {op.detail} [{why}]")
    print("\n".join(head))
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
