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

Each subcommand imports only the modules it runs, on top of `errors`
and `poset`: `build`, `iso` and `export-dot` nothing more, `minuscule`
the `minuscule` module, `ak` `antichains`, `check` `lattice`, `narayana`
and `star` `roots`, and `durfee` `ferrers`.  Only
`verify` loads `checks`, and through it every module.  No command loads
`dataclasses` (every record type derives from `poset._Record`) or numpy.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import BadParameters, PosetForgeError, SizeLimitExceeded
from .poset import Poset, find_isomorphism, poset_from_dict, poset_to_dict, tuple_label


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
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


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


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, taking its positionals before, between or after its options.

    Plain argparse fills ``ak``'s and ``check``'s ``file`` (nargs="?") with its default
    when an option follows the positional before it, then rejects the file after the
    option.  The top-level parser, which has subparsers, cannot parse intermixed.
    """

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixing:  # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetforge", description="finite poset combinatorics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

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
    # argparse reads a word such as "-1,-2" as an unknown option, since it takes only a
    # plain negative number for a positional; this parser has no option of that shape
    p._negative_number_matcher = re.compile(r"^-\d")

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
    from .minuscule import kind_from_args, minuscule_poset

    kind = kind_from_args(args.kind, list(args.params))
    _emit_json(poset_to_dict(minuscule_poset(kind)))
    return 0


def _cmd_ak(args) -> int:
    from .antichains import antichain_exchange_poset, antichain_ideal_poset

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
    from .lattice import is_distributive, meet_join_table

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
        forward = iso.forward
        for src in A.labels:
            print(f"{src} -> {forward[src]}")
    return 0


def _parse_partition(text: str) -> tuple[int, ...]:
    """Nonnegative, weakly decreasing column heights, trailing zeros dropped."""
    body = text.strip().strip("()")
    try:
        heights = tuple(int(part) for part in body.split(",")) if body else ()
    except ValueError:
        raise _InputError(f"partition {text!r} is not comma-separated integers") from None
    if any(h < 0 for h in heights):
        raise BadParameters(f"heights must be nonnegative: {heights}")
    if any(x < y for x, y in zip(heights, heights[1:])):
        raise BadParameters(f"heights must be weakly decreasing: {heights}")
    return tuple(h for h in heights if h)


def _cell_labels(heights: tuple[int, ...]) -> list[str]:
    """The cells "(row,column)" of the diagram with these column heights, sorted as strings."""
    return sorted(tuple_label((i, j)) for j, h in enumerate(heights, 1) for i in range(1, h + 1))


def _cmd_durfee(args) -> int:
    from .ferrers import durfee_cut

    heights = _parse_partition(args.partition)
    k, top, side = durfee_cut(heights)
    if args.as_json:
        _emit_json(
            {
                "heights": list(heights),
                "durfee": k,
                "above_square": _cell_labels(top),
                "right_of_square": _cell_labels(side),
            }
        )
    else:
        print(k)
    return 0


def _cmd_narayana(args) -> int:
    from .roots import narayana_table

    print(" ".join(map(str, narayana_table(args.n))))
    return 0


def _cmd_star(args) -> int:
    from .roots import _ROOT_RE, panyushev_complement, parse_root_label, root_label, type_a_root_poset

    P = type_a_root_poset(args.n)
    # roots in one or no pair of braces, split by commas or spaces; anything else is refused
    text = args.antichain.strip()
    text = text[1:-1] if text[:1] == "{" and text[-1:] == "}" else text
    if leftover := _ROOT_RE.sub(",", text).replace(",", " ").split():
        raise BadParameters(f"not a root label: {leftover[0]!r}")
    labels = [root_label(*parse_root_label(m.group())) for m in _ROOT_RE.finditer(text)]
    image = panyushev_complement(P.antichain(labels))
    print(",".join(image.member_labels) if len(image) else "{}")
    return 0


def _cmd_verify(args) -> int:
    from . import checks

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
