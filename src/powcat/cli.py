"""Command-line front end.

Subcommands: count, levels, triangle, grow, map, verify, conjecture, series.
Each handler returns (exit code, stdout text): it builds its text lines, its
machine value and, for tables, its csv rows, and the one renderer _render
writes whichever of --format text|json|csv was asked for.  stdout carries
only payload, progress and errors go to stderr.  Exit codes: 0 success, 1 a
failed verify check (or nonzero residual), 2 invalid input (usage, text,
membership, or a size outside errors.SIZE_LIMITS; rejected before computing),
3 an internal error (ArithmeticError or AssertionError); 2 and 3 print nothing.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bijections, growth, series, verify
from .errors import check_size
from .gentree import RULES, level_counts
from .objects import PathKind, parse_object, text_size, to_text
from .patterns import (
    RelationTriple,
    VincularPattern,
    WordPattern,
    count_class,
)


def _parse_family(text: str):
    """Family selectors: a relation triple 'geq,dash,geq', a word set
    'avoid:110,210', vincular patterns 'perm:1-23-4+...', a path kind
    'path:steady', or 'tree'."""
    if text.startswith("avoid:"):
        words = tuple(WordPattern.parse(w) for w in text[len("avoid:") :].split(","))
        return ("invseq-words", words)
    if text.startswith("perm:"):
        pats = tuple(VincularPattern.parse(p) for p in text[len("perm:") :].split("+"))
        return ("perm-vincular", pats)
    if text.startswith("path:"):
        return ("path-kind", PathKind(text[len("path:") :]))
    if text == "tree":
        return ("tree", None)
    return ("invseq-triple", RelationTriple.parse(text))


def _parse_input(text: str, kind: str):
    """parse_object behind the size bound of the object kind, checked on the
    text before anything is parsed."""
    name = {"invseq": "invseq-input", "invtable": "invseq-input", "perm": "perm-input", "tree": "tree-input"}
    check_size(name.get(kind, "path-input"), text_size(text, kind))
    return parse_object(text, kind)


def export_table(rows, fmt: str) -> str:
    """Byte-stable rendering of a table: csv writes a list of flat rows, json
    any JSON-able object."""
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return "".join(",".join(str(c) for c in row) + "\n" for row in rows)
    raise ValueError(f"unsupported export format {fmt!r}")


def _render(fmt: str, lines, machine, rows=None) -> str:
    """The one statement of the output formats: text is the given lines, json
    the machine value, csv the given rows or else the machine value as one row
    (a list) or one cell."""
    if fmt == "text":
        return "".join(line + "\n" for line in lines)
    if fmt == "json":
        return export_table(machine, "json")
    if rows is None:
        rows = [machine if isinstance(machine, list) else [machine]]
    return export_table(rows, "csv")


def _cmd_count(args):
    kind, spec = _parse_family(args.family)
    n = count_class(kind, spec, args.n)
    return 0, _render(args.format, [str(n)], n)


def _cmd_levels(args):
    counts = level_counts(args.rule, args.depth)
    return 0, _render(args.format, [",".join(map(str, counts))], counts)


def _cmd_triangle(args):
    tri = series.callan_triangle(args.n)
    rows = [[n, k, tri.value(n, k)] for n in range(args.n + 1) for k in range(n + 1)]
    lines = [",".join(map(str, tri.row(n))) for n in range(args.n + 1)]
    return 0, _render(args.format, lines, rows, rows)


def _cmd_grow(args):
    fam = growth.FAMILIES[args.family]
    obj = _parse_input(args.input, fam.kind)
    children = [(to_text(c), lab) for c, lab in fam.children(obj)]
    lines = [f"{text}  {lab}" for text, lab in children]
    payload = [{"object": text, "label": list(lab)} for text, lab in children]
    return 0, _render(args.format, lines, payload, [[text, *lab] for text, lab in children])


def _cmd_map(args):
    fn = bijections.MAPS[args.name]
    obj = _parse_input(args.input, bijections.MAP_INPUT_KINDS[args.name])
    text = to_text(fn(obj))
    return 0, _render(args.format, [text], text)


def _cmd_verify(args):
    def progress(r):
        print(f"verify {r.name}: {r.status} [{r.sizes}] {r.elapsed}s", file=sys.stderr)

    results = verify.run_suite(args.suite, jobs=args.jobs, progress=progress)
    status = "pass" if all(r.ok for r in results) else "FAIL"
    lines = [
        f"{r.name}: {r.status} [{r.sizes}]" + (f"  counterexample: {r.counterexample}" if r.counterexample else "")
        for r in results
    ]
    payload = {
        "suite": args.suite,
        "checks": [
            {
                "name": r.name,
                "status": r.status,
                "sizes": r.sizes,
                "elapsed": r.elapsed,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
        "status": status,
    }
    rows = [[r.name, r.status, r.sizes, r.elapsed] for r in results]
    return (0 if status == "pass" else 1), _render(args.format, [*lines, f"suite {args.suite}: {status}"], payload, rows)


def _cmd_conjecture(args):
    rows = verify.conjecture_23_1_4_report(args.n)
    agree_all = all(r["agree"] for r in rows)
    lines = [
        "conjecture evidence: AV(23-1-4) refined by RTL minima vs the triangle",
        *[f"n={r['n']}: count {r['count']}, {'agree' if r['agree'] else 'DISAGREE'}" for r in rows],
        f"overall: {'agreement' if agree_all else 'disagreement'} up to n={args.n} (evidence, not a theorem)",
    ]
    flat = [
        [r["n"], k, r["distribution"][k], r["triangle_row"][k], r["agree"]]
        for r in rows
        for k in sorted(r["distribution"])
    ]
    return 0, _render(args.format, lines, {"evidence": rows, "agree": agree_all}, flat)


def _cmd_series(args):
    if args.name == "triangle":
        return _cmd_triangle(args)
    if args.name == "residual":
        for n, residual in enumerate(series.functional_equation_residual(args.n), 1):
            if residual:
                (h, k), coeff = min(residual.items())
                fault = {"order": n, "h": h, "k": k, "coeff": coeff}
                return 1, _render(args.format, [f"nonzero at x^{n} y^{h} z^{k}: {coeff}"], fault, [[n, h, k, coeff]])
        return 0, _render(args.format, ["0"], 0)
    if args.name == "kernel-a11":
        values = series.kernel_a11(args.n)
    else:
        values = series.reference_sequence(args.name, args.n)
    return 0, _render(args.format, [",".join(map(str, values))], values)


class _HelpText(Exception):
    """The text --help asked for, carried out of parsing to run_command."""


class _Parser(argparse.ArgumentParser):
    """An argument parser (its subparsers too) that hands its help text to
    run_command instead of writing it to sys.stdout."""

    def print_help(self, file=None):
        raise _HelpText(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powcat",
        description="Pattern-avoiding inversion sequences, succession rules, "
        "steady paths, and powered Catalan combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        return p

    p = add("count", _cmd_count, "count a class at one size")
    p.add_argument("--family", required=True, help="'geq,dash,geq' | 'avoid:110,210' | 'perm:1-23-4+...' | 'path:steady' | 'tree'")
    p.add_argument("--n", type=int, required=True)

    p = add("levels", _cmd_levels, "generating-tree level counts of a rule")
    p.add_argument("--rule", choices=sorted(RULES), required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("triangle", _cmd_triangle, "the refined count triangle")
    p.add_argument("--n", type=int, required=True)

    p = add("grow", _cmd_grow, "one growth step with labels")
    p.add_argument("--family", choices=sorted(growth.FAMILIES), required=True)
    p.add_argument("--input", required=True)

    p = add("map", _cmd_map, "apply a named bijection")
    p.add_argument("--name", choices=sorted(bijections.MAPS), required=True)
    p.add_argument("--input", required=True)

    p = add("verify", _cmd_verify, "run a cross-validation suite")
    p.add_argument("suite", choices=sorted(verify.SUITES), nargs="?", default="all")
    p.add_argument("--jobs", type=int, default=1)

    p = add("conjecture", _cmd_conjecture, "RTL-minima evidence for AV(23-1-4)")
    p.add_argument("--n", type=int, default=9)

    p = add("series", _cmd_series, "reference sequences and series checks")
    p.add_argument("name", choices=("catalan", "a108307", "baxter", "semibaxter", "pcat", "triangle", "kernel-a11", "residual"))
    p.add_argument("--n", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; build_parser() stays a fresh one.
    Parsing keeps no state between calls, and the help text is formatted
    anew on each --help, so the terminal width is still read per call."""
    return build_parser()


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, stdout text)."""
    try:
        args = _parser().parse_args(argv)
    except _HelpText as text:
        return 0, str(text)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        return args.fn(args)
    except ValueError as err:  # ParseError, LimitError and MembershipError among them
        print(f"error: {err}", file=sys.stderr)
        return 2, ""
    except (ArithmeticError, AssertionError) as err:
        print(f"internal error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 3, ""


def main() -> int:
    code, payload = run_command(sys.argv[1:])
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
