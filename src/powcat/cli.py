"""Command-line front end.

Subcommands: count, levels, triangle, grow, map, verify, conjecture, series.
Machine formats via --format json|csv (text is the default); stdout carries
only payload, progress and errors go to stderr.  Exit codes: 0 success, 1 a
failed verify check (or nonzero residual), 2 invalid input (usage, text,
membership, or a size outside errors.SIZE_LIMITS; rejected before computing),
3 an internal error (ArithmeticError or AssertionError); 2 and 3 print nothing.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout

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


def export_table(rows, fmt: str, path=None) -> str:
    """Byte-stable rendering of a table (list of flat rows or a JSON-able
    object); optionally written to a file."""
    if fmt == "json":
        text = json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        text = "".join(",".join(str(c) for c in row) + "\n" for row in rows)
    else:
        raise ValueError(f"unsupported export format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _emit(args, text_value, machine_value):
    if args.format == "json":
        print(json.dumps(machine_value, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        if isinstance(machine_value, list):
            flat = not machine_value or not isinstance(machine_value[0], (list, tuple))
            rows = [machine_value] if flat else machine_value
        else:
            rows = [[machine_value]]
        sys.stdout.write(export_table(rows, "csv"))
    else:
        print(text_value)


def _cmd_count(args):
    kind, spec = _parse_family(args.family)
    n = count_class(kind, spec, args.n)
    _emit(args, str(n), n)
    return 0


def _cmd_levels(args):
    counts = level_counts(args.rule, args.depth)
    _emit(args, ",".join(str(c) for c in counts), counts)
    return 0


def _cmd_triangle(args):
    tri = series.callan_triangle(args.n)
    rows = [[n, k, tri.value(n, k)] for n in range(args.n + 1) for k in range(n + 1)]
    if args.format == "text":
        for n in range(args.n + 1):
            print(",".join(str(v) for v in tri.row(n)))
    else:
        _emit(args, "", rows)
    return 0


def _cmd_grow(args):
    fam = growth.FAMILIES[args.family]
    obj = _parse_input(args.input, fam.kind)
    children = fam.children(obj)
    payload = [{"object": to_text(c), "label": list(lab)} for c, lab in children]
    if args.format == "text":
        for c, lab in children:
            print(f"{to_text(c)}  {lab}")
    elif args.format == "csv":
        sys.stdout.write(
            export_table([[to_text(c), *lab] for c, lab in children], "csv")
        )
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_map(args):
    fn = bijections.MAPS[args.name]
    obj = _parse_input(args.input, bijections.MAP_INPUT_KINDS[args.name])
    result = fn(obj)
    _emit(args, to_text(result), to_text(result))
    return 0


def _cmd_verify(args):
    def progress(r):
        print(f"verify {r.name}: {r.status} [{r.sizes}] {r.elapsed}s", file=sys.stderr)

    results = verify.run_suite(args.suite, jobs=args.jobs, progress=progress)
    status = "pass" if all(r.ok for r in results) else "FAIL"
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
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        sys.stdout.write(
            export_table([[c["name"], c["status"], c["sizes"], c["elapsed"]] for c in payload["checks"]], "csv")
        )
    else:
        for c in payload["checks"]:
            line = f"{c['name']}: {c['status']} [{c['sizes']}]"
            if c["counterexample"]:
                line += f"  counterexample: {c['counterexample']}"
            print(line)
        print(f"suite {args.suite}: {status}")
    return 0 if status == "pass" else 1


def _cmd_conjecture(args):
    rows = verify.conjecture_23_1_4_report(args.n)
    agree_all = all(r["agree"] for r in rows)
    if args.format == "json":
        print(json.dumps({"evidence": rows, "agree": agree_all}, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        flat = [
            [r["n"], k, r["distribution"][k], r["triangle_row"][k], r["agree"]]
            for r in rows
            for k in sorted(r["distribution"])
        ]
        sys.stdout.write(export_table(flat, "csv"))
    else:
        print("conjecture evidence: AV(23-1-4) refined by RTL minima vs the triangle")
        for r in rows:
            marks = "agree" if r["agree"] else "DISAGREE"
            print(f"n={r['n']}: count {r['count']}, {marks}")
        print(f"overall: {'agreement' if agree_all else 'disagreement'} up to n={args.n} (evidence, not a theorem)")
    return 0


def _cmd_series(args):
    if args.name == "triangle":
        return _cmd_triangle(args)
    if args.name == "kernel-a11":
        values = series.kernel_a11(args.n)
        _emit(args, ",".join(str(v) for v in values), values)
        return 0
    if args.name == "residual":
        residuals = series.functional_equation_residual(args.n)
        bad = [(n, sorted(r)[0], r[sorted(r)[0]]) for n, r in enumerate(residuals, 1) if r]
        if not bad:
            _emit(args, "0", 0)
            return 0
        n, (h, k), coeff = bad[0]
        _emit(args, f"nonzero at x^{n} y^{h} z^{k}: {coeff}", {"order": n, "h": h, "k": k, "coeff": coeff})
        return 1
    values = series.reference_sequence(args.name, args.n)
    _emit(args, ",".join(str(v) for v in values), values)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation, capturing stdout; returns (exit code, stdout)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = args.fn(args)
    except ValueError as err:  # ParseError, LimitError and MembershipError among them
        print(f"error: {err}", file=sys.stderr)
        return 2, ""
    except (ArithmeticError, AssertionError) as err:
        print(f"internal error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 3, ""
    return code, buf.getvalue()


def main() -> int:
    code, payload = run_command(sys.argv[1:])
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
