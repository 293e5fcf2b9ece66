"""What each workload runs, shared by run.py and the pass runner (child.py).

Pure Python: no posetforge import, so run.py can build inputs and
check answers without loading the program under test.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

WORKLOADS = ("cli-verify", "minuscule-ladder", "corpus-sweep")

# -- minuscule-ladder -----------------------------------------------------------
# Every family member whose exchange orders reach a few hundred elements
# while one pass stays near 20 s.  Grid 7x7, k=3 (1225 elements) is left
# out: its single certificate op takes about two minutes today.
LADDER = (
    ("grid", (5, 5)),
    ("grid", (6, 6)),
    ("spin", (8,)),
    ("spin", (9,)),
    ("natural", (7,)),
    ("e6", ()),
    ("e7", ()),
)


def family_name(family: str, param: tuple[int, ...]) -> str:
    return family + "x".join(map(str, param))


class Family(NamedTuple):
    """Closed forms of one minuscule family, so neither the op list nor the
    oracle ever depends on the program's answers.

    ``target(param, k)`` names the poset the size-k exchange order must be
    isomorphic to, or None: ``("gale_product", a, b, k)`` for Gale(a,k) x
    Gale(b,k), ``("gale", n, k)`` for Gale(n,k), ``("host", family, param)``
    for another family's host poset.  The pass runner builds it with
    posetforge, the judge with the oracle.
    """

    width: Callable[[tuple[int, ...]], int]
    size: Callable[[tuple[int, ...], int], int]
    target: Callable[[tuple[int, ...], int], tuple | None]


FAMILIES = {
    "grid": Family(
        width=min,
        size=lambda p, k: comb(p[0], k) * comb(p[1], k),
        target=lambda p, k: ("gale_product", p[0], p[1], k),
    ),
    "spin": Family(
        width=lambda p: (p[0] + 2) // 2,
        size=lambda p, k: comb(p[0] + 2, 2 * k),
        target=lambda p, k: ("gale", p[0] + 2, 2 * k),
    ),
    "natural": Family(
        width=lambda p: 2,
        size=lambda p, k: (1, 2 * p[0] + 4, 1)[k],
        target=lambda p, k: None,
    ),
    "e6": Family(
        width=lambda p: 2,
        size=lambda p, k: (1, 16, 10)[k],
        target=lambda p, k: ("host", "natural", (3,)) if k == 2 else None,
    ),
    "e7": Family(
        width=lambda p: 3,
        size=lambda p, k: (1, 27, 27, 1)[k],
        target=lambda p, k: ("host", "e7", ()) if k == 2 else None,
    ),
}


# Witness searches are short next to certificates (about 0.15 s a round
# in all), so each is repeated, each time on a fresh copy of the exchange
# order, right after its family's certificates: the samples then add up
# to a few seconds spread over the whole pass.
WITNESS_ROUNDS = 40


def ladder_ops():
    """(name, kind, family, param, k) for every op of one pass, in run order."""
    for family, param in LADDER:
        spec = FAMILIES[family]
        ks = range(spec.width(param) + 1)
        tag = family_name(family, param)
        for k in ks:
            yield f"certify {tag} k={k}", "certify", family, param, k
        for _ in range(WITNESS_ROUNDS):
            for k in ks:
                if spec.target(param, k) is not None:
                    yield f"witness {tag} k={k}", "witness", family, param, k


# -- corpus-sweep -----------------------------------------------------------------
CORPUS_MAX = 8  # cold build of every poset class on up to 8 points
SWEEP_MAX = 7  # both antichain orders at every k, plus the Dilworth lattice

# -- cli-verify -------------------------------------------------------------------
RANDOM_POSETS = 4


def random_poset(seed: int, r: int) -> dict:
    """A seeded poset in the JSON interchange format, generators in shuffled order."""
    rng = random.Random(seed * 1000 + r)
    n = rng.randint(8, 10)
    labels = [f"v{i}" for i in range(n)]
    relations = [
        [labels[i], labels[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    rng.shuffle(relations)
    elements = list(labels)
    rng.shuffle(elements)
    return {"elements": elements, "relations": relations}


def cli_ops(seed: int) -> list[dict]:
    """Every command of one cli-verify pass.

    An op is a list of steps run in order; a step is a pipeline of
    ``posetforge`` argument lists, fed ``stdin`` when given, whose
    output is saved under ``save`` when given.  An argument starting
    with "@" names a saved output.
    """
    verify = {"name": "verify all", "kind": "verify", "steps": [{"stages": [["verify", "all", "--json"]]}]}
    ops = [
        verify,
        {
            "name": "grid 5 5 | ak 2 | check distributive",
            "kind": "pipeline",
            "steps": [
                {"stages": [["minuscule", "grid", "5", "5"], ["ak", "2"], ["check", "distributive", "--json"]]}
            ],
        },
        {
            "name": "e7 | ak 2 ; iso against e7",
            "kind": "pipeline",
            "steps": [
                {"stages": [["minuscule", "e7"], ["ak", "2"]], "save": "e7_ak2.json"},
                {"stages": [["minuscule", "e7"]], "save": "e7.json"},
                {"stages": [["iso", "@e7_ak2.json", "@e7.json", "--json"]]},
            ],
        },
        {
            "name": "spin 7 | ak 2 | build | export-dot",
            "kind": "pipeline",
            "steps": [{"stages": [["minuscule", "spin", "7"], ["ak", "2"], ["build"], ["export-dot"]]}],
        },
        {"name": "narayana 9", "kind": "pipeline", "steps": [{"stages": [["narayana", "9"]]}]},
        {"name": "star 6 [1,3]", "kind": "pipeline", "steps": [{"stages": [["star", "6", "[1,3]"]]}]},
    ]
    # a second verify run mid-pass spreads its samples over the pass
    ops.append(verify)
    for r in range(RANDOM_POSETS):
        text = json.dumps(random_poset(seed, r))
        order = ["--order", "j"] if r % 2 else []
        ops.append(
            {
                "name": f"random {r} | build | ak 2 {' '.join(order)}| check lattice",
                "kind": "pipeline",
                "steps": [{"stdin": text, "stages": [["build"], ["ak", "2", *order], ["check", "lattice"]]}],
            }
        )
        ops.append(
            {
                "name": f"random {r} | build | build",
                "kind": "pipeline",
                "steps": [
                    {"stdin": text, "stages": [["build"]], "save": f"random{r}.json"},
                    {"stages": [["build", f"@random{r}.json"]]},
                ],
            }
        )
    return ops


def walk_steps(op: dict, workdir: Path, run_pipeline) -> dict:
    """Run the steps of one cli-verify op in order.

    ``run_pipeline(stages, stdin)`` runs one pipeline of argument lists,
    fed the text ``stdin`` (None: no input), and gives its exit codes and
    output text.  Arguments starting with "@" become saved files under
    ``workdir``.
    """
    steps = []
    for step in op["steps"]:
        stages = [[str(workdir / a[1:]) if a.startswith("@") else a for a in argv] for argv in step["stages"]]
        rcs, text = run_pipeline(stages, step.get("stdin"))
        if "save" in step:
            (workdir / step["save"]).write_text(text)
        steps.append({"rc": rcs, "out": text})
    return {"steps": steps}
