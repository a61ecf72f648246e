"""Command line front end.

Subcommands: validate (decide conformance of a JSON graph against a shape
file), check (parse and link a shape file), export-asp (write the solver
fact base), and convert (reformat a graph document or shape file into its
canonical form).

Exit codes are the machine contract: 0 conforms or success, 1 does not
conform, 2 usage, I/O, or parse errors (including instances over the
brute-force cap), 3 search budget exhausted (followed by a `progress:` line
on standard error: branches, propagations and leaf checks so far), 4
internal error: any other exception, reported as one
`error: internal: <type>: <message>` line on standard error, so a crash
never reads as a verdict.  A syntax error in a shape file names where it
starts: `error: line L, column C: <message>`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .asp import export_asp
from .errors import BudgetExceeded, PgShapesError, ShapeSyntaxError
from .jsonio import export_graph_json, import_graph_json
from .parser import parse_shape_document, parse_shapes
from .printer import render_shapes
from .semantics import Assignment, Atom
from .solver import (
    SolverConfig,
    ValidationReport,
    brute_force_conformance,
    enumerate_faithful_assignments,
    find_faithful_assignment,
)
from .sugar import desugar_shapes
from .transforms import normalize_instance


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _assignment_lines(sigma: Assignment) -> list[str]:
    return [
        f"{atom} = {sigma[atom].word}"
        for atom in sorted(sigma, key=Atom.sort_key)
    ]


def _assignment_json(sigma: Assignment) -> list[dict]:
    return [
        {
            "shape": atom.shape,
            "element": atom.element,
            "kind": atom.kind,
            "value": sigma[atom].word,
        }
        for atom in sorted(sigma, key=Atom.sort_key)
    ]


def _report_json(report: ValidationReport) -> dict:
    return {
        "conforms": report.conforms,
        "witness": _assignment_json(report.witness) if report.witness else None,
        "violated_targets": [
            {
                "shape": atom.shape,
                "element": atom.element,
                "kind": atom.kind,
                "fixed_point": report.fixed_point[atom].word,
            }
            for atom in report.violated_targets
        ],
        "stats": dataclasses.asdict(report.stats),
    }


def _cmd_validate(args) -> int:
    g = import_graph_json(_read_bytes(args.graph))
    shapes = parse_shapes(_read_text(args.shapes))
    if args.normalize:
        g, shapes, _root, _traces = normalize_instance(g, shapes)
    config = SolverConfig(
        # Both orders take the same branches under CDCL; the switch stays
        # while perfbench/spans.py, which mirrors it, passes atom_order.
        atom_order="dependency" if args.normalize else "default",
        max_atoms=args.max_atoms,
        max_branches=args.budget,
    )

    if args.all:
        found = enumerate_faithful_assignments(g, shapes, config=config)
        if args.json:
            print(
                json.dumps(
                    {
                        "conforms": bool(found),
                        "assignments": [_assignment_json(s) for s in found],
                    },
                    indent=2,
                )
            )
            return 0 if found else 1
        if not found:
            print("UNSATISFIABLE")
            return 1
        print("SATISFIABLE")
        for i, sigma in enumerate(found, start=1):
            print(f"assignment {i}:")
            for line in _assignment_lines(sigma):
                print(line)
        return 0

    runner = brute_force_conformance if args.oracle else find_faithful_assignment
    report = runner(g, shapes, config)
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
        return 0 if report.conforms else 1
    if report.conforms:
        print("SATISFIABLE")
        for line in _assignment_lines(report.witness):
            print(line)
        return 0
    print("UNSATISFIABLE")
    for atom in report.violated_targets:
        if args.explain:
            print(f"violated target: {atom} = {report.fixed_point[atom].word}")
        else:
            print(f"violated target: {atom}")
    return 1


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def _cmd_check(args) -> int:
    text = _read_text(args.shapes)
    # Count what the author wrote; diagnose on the desugared, linked form.
    parsed = parse_shape_document(text)
    linked = desugar_shapes(parsed)
    print(f"{_plural(len(parsed), 'shape')}, {_plural(linked.cycle_count, 'cycle')}")
    return 0


def _cmd_export_asp(args) -> int:
    g = import_graph_json(_read_bytes(args.graph))
    shapes = parse_shapes(_read_text(args.shapes))
    _write_text(args.out, export_asp(g, shapes))
    return 0


def _cmd_convert(args) -> int:
    kind = args.kind
    if kind is None:
        if args.input.endswith(".json"):
            kind = "graph"
        elif args.input.endswith(".progs"):
            kind = "shapes"
        else:
            print(
                "error: cannot tell graph from shapes by extension; "
                "pass --kind",
                file=sys.stderr,
            )
            return 2
    if kind == "graph":
        text = export_graph_json(import_graph_json(_read_bytes(args.input)))
        _write_text(args.out, text.decode("utf-8"))
    else:
        _write_text(
            args.out, render_shapes(parse_shape_document(_read_text(args.input)))
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgshapes",
        description="Validate property graphs against shape definitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="decide whether a graph conforms to a shape file"
    )
    validate.add_argument("graph", help="graph document (JSON)")
    validate.add_argument("shapes", help="shape definitions (.progs)")
    validate.add_argument(
        "--all", action="store_true", help="enumerate every faithful assignment"
    )
    validate.add_argument(
        "--explain",
        action="store_true",
        help="on failure, include each violated target's fixed-point value",
    )
    validate.add_argument(
        "--oracle",
        action="store_true",
        help="use the brute-force reference engine",
    )
    validate.add_argument(
        "--max-atoms",
        type=int,
        default=12,
        metavar="N",
        help="atom cap for --oracle (default 12)",
    )
    validate.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="stop after N search branches (exit 3 when hit)",
    )
    validate.add_argument(
        "--normalize",
        action="store_true",
        help="run path elimination, operator folding, and single-target "
        "reduction before validating",
    )
    validate.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    validate.set_defaults(func=_cmd_validate)

    check = sub.add_parser("check", help="parse and link a shape file")
    check.add_argument("shapes", help="shape definitions (.progs)")
    check.set_defaults(func=_cmd_check)

    export = sub.add_parser(
        "export-asp", help="write the logic-program fact base"
    )
    export.add_argument("graph", help="graph document (JSON)")
    export.add_argument("shapes", help="shape definitions (.progs)")
    export.add_argument(
        "out", nargs="?", default="-",
        help="output path, or - for standard output (the default)",
    )
    export.set_defaults(func=_cmd_export_asp)

    convert = sub.add_parser(
        "convert", help="rewrite a graph or shape file canonically"
    )
    convert.add_argument("input", help="input path")
    convert.add_argument(
        "-o", "--out", default="-", help="output path (default: standard output)"
    )
    convert.add_argument(
        "--kind",
        choices=("graph", "shapes"),
        default=None,
        help="input kind when the extension is not .json or .progs",
    )
    convert.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.stats is not None:
            stats = exc.stats
            print(
                f"progress: branches {stats.branches}, propagations "
                f"{stats.propagations}, leaf checks {stats.leaf_checks}",
                file=sys.stderr,
            )
        return 3
    except (PgShapesError, OSError, UnicodeDecodeError) as exc:
        span = exc.span if isinstance(exc, ShapeSyntaxError) else None
        where = "" if span is None else f"line {span.line}, column {span.column}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
