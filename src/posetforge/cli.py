"""Command-line front end.

Subcommands read the JSON poset interchange format from a file or
standard input and write JSON to standard output, so checks chain in
shell pipelines; `export-dot` turns any poset in the stream into a DOT
Hasse diagram:

    posetforge minuscule grid 3 3 | posetforge ak 2 --order k | posetforge check distributive
    posetforge minuscule e6 | posetforge export-dot

Exit codes: 0 success, 1 failed verification, 2 malformed input or usage,
3 a size cap was hit.  `verify` reports every check before exiting: a
check that hits a cap gets an "error" verdict and the run exits 3.
Verification caps are overridden only by `--param key=value`; under
`verify all` each key reaches the checks that take it, and a key that no
check in the run takes is a usage error (see `checks.run_all`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks
from .errors import PosetForgeError, SizeLimitExceeded
from .ferrers import FerrersDiagram, durfee_decompose
from .lattice import is_distributive, meet_join_table
from .minuscule import kind_from_args, minuscule_poset
from .antichains import antichain_exchange_poset, antichain_ideal_poset
from .poset import Poset, find_isomorphism, point_label, poset_from_dict, poset_to_dict
from .roots import narayana_table, panyushev_complement, parse_root_label, type_a_root_poset


def _read_poset(path: str | None) -> Poset:
    source = "stdin" if path in (None, "-") else path
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError(f"{source}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return poset_from_dict(data)
    except (PosetForgeError, ValueError) as exc:
        raise _InputError(f"{source}: {exc}") from exc


class _InputError(Exception):
    """Malformed input; reported on stderr with exit code 2."""


def _emit_json(data) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def to_dot(P: Poset) -> str:
    """Hasse diagram in DOT, covers drawn bottom-to-top with rank layers."""

    def quote(lab: str) -> str:
        return '"' + lab.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
    by_height: dict[int, list[str]] = {}
    for i, lab in enumerate(P.labels):
        by_height.setdefault(P.heights[i], []).append(lab)
    for h in sorted(by_height):
        row = " ".join(f"{quote(lab)};" for lab in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for a, b in P.covers():
        lines.append(f"  {quote(a)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _int_pairs(items: list[str]) -> dict[str, int]:
    """Parse "key=int" --param items; a malformed one exits with code 2."""
    pairs: dict[str, int] = {}
    for item in items:
        if "=" not in item:
            raise _InputError(f"--param entry {item!r} is not key=value")
        key, value = item.split("=", 1)
        try:
            pairs[key.strip()] = int(value)
        except ValueError:
            raise _InputError(f"--param value {value!r} is not an integer") from None
    return pairs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetforge", description="finite poset combinatorics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="validate a JSON poset and re-emit it canonically")
    p.add_argument("file", nargs="?", default=None)

    p = sub.add_parser("minuscule", help="construct a minuscule-family poset")
    p.add_argument("kind", help="grid | spin | natural | e6 | e7")
    p.add_argument("params", nargs="*", type=int)

    p = sub.add_parser("ak", help="poset of size-k antichains of the input poset")
    p.add_argument("k", type=int)
    p.add_argument("--order", choices=["k", "j"], default="k",
                   help="k: exchange order (default); j: ideal order")
    p.add_argument("file", nargs="?", default=None)

    p = sub.add_parser("check", help="test the input poset for a property")
    p.add_argument("property", choices=["lattice", "distributive"])
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("iso", help="search for an isomorphism between two posets")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("durfee", help="Durfee length of a partition")
    p.add_argument("partition", help="comma-separated column heights, e.g. 3,2,1")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("narayana", help="antichain counts of the type-A root poset")
    p.add_argument("n", type=int)

    p = sub.add_parser("star", help="complement involution on a root antichain")
    p.add_argument("n", type=int)
    p.add_argument("antichain", help='roots like "[1,2],[3,4]"; empty string for the empty antichain')

    p = sub.add_parser("verify", help="run registered verification checks")
    p.add_argument("check_id", help='a check id, or "all"')
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--list", action="store_true", help="list registered checks and exit")

    p = sub.add_parser("export-dot", help="emit the input poset as a DOT Hasse diagram")
    p.add_argument("file", nargs="?", default=None)

    return parser


def _cmd_build(args) -> int:
    _emit_json(poset_to_dict(_read_poset(args.file)))
    return 0


def _cmd_minuscule(args) -> int:
    kind = kind_from_args(args.kind, list(args.params))
    _emit_json(poset_to_dict(minuscule_poset(kind)))
    return 0


def _cmd_ak(args) -> int:
    if args.k < 0:
        raise _InputError(f"ak: antichain size k must be nonnegative, got {args.k}")
    P = _read_poset(args.file)
    if args.order == "k":
        result = antichain_exchange_poset(P, args.k)
    else:
        result = antichain_ideal_poset(P, args.k)
    _emit_json(poset_to_dict(result))
    return 0


def _cmd_check(args) -> int:
    P = _read_poset(args.file)
    if args.property == "lattice":
        table = meet_join_table(P)
        ok = table.complete
        detail: dict = {"property": "lattice", "holds": ok}
        if not ok and P.n > 0:
            pair = table.undefined_pair()
            if pair is not None:
                detail["missing_bound_for"] = [P.labels[pair[0]], P.labels[pair[1]]]
        if args.as_json:
            label = lambda v: P.labels[v] if v >= 0 else None
            detail["elements"] = list(P.labels)
            detail["meet"] = [[label(v) for v in row] for row in table.meet]
            detail["join"] = [[label(v) for v in row] for row in table.join]
    else:
        verdict = is_distributive(P)
        ok = verdict.distributive
        detail = {"property": "distributive", **verdict.to_json_dict()}
    if args.as_json:
        _emit_json(detail)
    else:
        print(f"{args.property}: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_iso(args) -> int:
    A = _read_poset(args.file_a)
    B = _read_poset(args.file_b)
    iso = find_isomorphism(A, B)
    if iso is None:
        if args.as_json:
            _emit_json({"isomorphic": False})
        else:
            print("not isomorphic")
        return 1
    if args.as_json:
        _emit_json({"isomorphic": True, **iso.to_json_dict()})
    else:
        for src in A.labels:
            print(f"{src} -> {iso.forward[src]}")
    return 0


def _parse_partition(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise _InputError(f"partition {text!r} is not comma-separated integers") from None


def _cmd_durfee(args) -> int:
    heights = _parse_partition(args.partition)
    d = FerrersDiagram(heights, (heights[0] if heights else 0, len(heights)))
    k, top, side = durfee_decompose(d)
    if args.as_json:
        _emit_json(
            {
                "heights": list(d.heights),
                "durfee": k,
                "above_square": sorted(point_label(*c) for c in top.cells()),
                "right_of_square": sorted(point_label(*c) for c in side.cells()),
            }
        )
    else:
        print(k)
    return 0


def _cmd_narayana(args) -> int:
    print(" ".join(map(str, narayana_table(args.n))))
    return 0


def _cmd_star(args) -> int:
    P = type_a_root_poset(args.n)
    text = args.antichain.strip()
    labels = []
    if text and text != "{}":
        labels = [part.strip() for part in text.replace("],", "] ").split() if part.strip()]
        labels = [parse_root_label(lab).label for lab in labels]
    image = panyushev_complement(P.antichain(labels))
    print(",".join(image.member_labels) if len(image) else "{}")
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for cdef in checks.registered_checks():
            print(f"{cdef.check_id:28}  {cdef.summary}")
        return 0
    params = _int_pairs(args.param)
    if args.check_id == "all":
        reports = checks.run_all(params)
    else:
        reports = [checks.run_check(args.check_id, params)]
    if args.as_json:
        _emit_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            line = f"{r.verdict:5}  {r.check_id:28}  ({r.elapsed:6.2f}s)"
            if r.error is not None:
                line += f"  {type(r.error).__name__}: {r.error}"
            print(line)
        failures = sum(not r.passed for r in reports)
        print(f"{len(reports) - failures}/{len(reports)} checks passed")
    if any(isinstance(r.error, SizeLimitExceeded) for r in reports):
        return 3
    return 0 if all(r.passed for r in reports) else 1


def _cmd_export_dot(args) -> int:
    sys.stdout.write(to_dot(_read_poset(args.file)))
    return 0


_HANDLERS = {
    "build": _cmd_build,
    "minuscule": _cmd_minuscule,
    "ak": _cmd_ak,
    "check": _cmd_check,
    "iso": _cmd_iso,
    "durfee": _cmd_durfee,
    "narayana": _cmd_narayana,
    "star": _cmd_star,
    "verify": _cmd_verify,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PosetForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
