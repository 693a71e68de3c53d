"""Golden CLI output: the exit code, stdout and stderr lines of every
subcommand in every format, compared byte for byte with tests/data/cli_golden.json.

Regenerate the file (only after a deliberate change of output) with

    PYTHONPATH=src python tests/test_cli_golden.py --write

Without --write the script only reports whether the file is up to date.
"""
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from powcat import bijections, growth
from powcat.cli import run_command
from powcat.gentree import RULES
from powcat.objects import PathKind

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
FORMATS = ("text", "json", "csv")

COUNTS = [
    "geq,dash,geq", "avoid:110,210", "avoid:0110", "perm:1-23-4", "perm:1-23+2-14-3",
    *[f"path:{kind.value}" for kind in PathKind], "tree",
]
GROW_INPUTS = {
    "cat": "0,1,0,2", "cat2": "0,1,0,2", "i-geq3": "0,0,2,1", "bax": "0,1,1,2", "semi": "0,0,2,1",
    "pcat:invseq": "0,0,2,1", "pcat:vmdyck": "UUDUDD;marks=1", "pcat:tree": "0(2,1(3))",
    "steady": "UDUWUDDD", "p1234": "3,1,2",
}
MAP_INPUTS = {
    "tinv": "2,4,1,3", "tinv-inv": "1,2,0,0", "cat-perm": "0,1,0,2", "cat-perm-inv": "3,2,1,4",
    "steady-perm": "UDUWUDDD", "steady-perm-inv": "2,1,3", "phi": "UDUWUDDD;marks=0",
    "theta": "UUDUDD;marks=1", "phi-star": "UUDUWUDDDD", "theta-star": "UUUDUDDD;marks=1",
}
SERIES = ("catalan", "a108307", "baxter", "semibaxter", "pcat", "triangle", "kernel-a11", "residual")
REJECTED = [
    ["count", "--family", "nonsense", "--n", "3"],
    ["count", "--family", "geq,dash,geq", "--n", "99"],
    ["levels", "--rule", "unknown", "--depth", "3"],
    ["nosuchcommand"],
    ["triangle", "--n", "-1"],
    ["grow", "--family", "cat", "--input", "0,5"],
    ["grow", "--family", "steady", "--input", "UUDD;marks=1"],
    ["map", "--name", "theta-star", "--input", "DDUU"],
    ["series", "pcat", "--n", "-1"],
    ["conjecture", "--n", "11"],
    ["verify", "series", "--jobs", "0"],
]
ACCEPTED = [
    *[["count", "--family", family, "--n", "5"] for family in COUNTS],
    *[["levels", "--rule", rule, "--depth", "7"] for rule in sorted(RULES)],
    ["triangle", "--n", "0"],
    ["triangle", "--n", "5"],
    *[["grow", "--family", family, "--input", text] for family, text in GROW_INPUTS.items()],
    ["grow", "--family", "steady", "--input", "UDUUDD"],  # floor 1 (edge line y = x - 2): children at d = 3, 2, 1
    *[["map", "--name", name, "--input", text] for name, text in MAP_INPUTS.items()],
    ["map", "--name", "steady-perm-inv", "--input", "2,3,1,4,5"],
    *[["series", name, "--n", "6"] for name in SERIES],
    ["conjecture", "--n", "5"],
    ["verify", "series"],
]
CASES = [[*argv, "--format", fmt] for argv in ACCEPTED + REJECTED for fmt in FORMATS]

# the seconds a verify check took, in its json and csv rows and its progress line
ELAPSED = [
    (re.compile(r'"elapsed":[0-9.e+-]+'), '"elapsed":"*"'),
    (re.compile(r"^([^,\n]*,[^,\n]*,[^,\n]*),[0-9.e+-]+$", re.M), r"\1,*"),
    (re.compile(r"\] [0-9.e+-]+s$", re.M), "] *s"),
]


def observe(argv):
    """(exit code, stdout, stderr lines) of one invocation; argparse's usage
    block, whose wrapping follows the terminal width, is left out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_command(argv)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith(("usage:", " "))]
    if argv[0] == "verify":
        for pattern, mask in ELAPSED:
            out = pattern.sub(mask, out)
            lines = [pattern.sub(mask, line) for line in lines]
    return {"argv": argv, "code": code, "stdout": out, "stderr": lines}


def test_cases_cover_every_subcommand_and_name():
    names = {tuple(argv[:3]) for argv in ACCEPTED}
    assert {("grow", "--family", f) for f in growth.FAMILIES} <= names
    assert {("map", "--name", m) for m in bijections.MAPS} <= names
    assert {("levels", "--rule", r) for r in RULES} <= names


@pytest.fixture(scope="module")
def golden():
    records = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in records] == CASES, "the golden file is stale: regenerate it"
    return records


@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_output_is_byte_identical(golden, fmt):
    for record in golden:
        if record["argv"][-1] == fmt:
            assert observe(record["argv"]) == record


def test_accepted_inputs_exit_0_and_rejected_exit_2_with_empty_stdout(golden):
    rejected = [r for r in golden if r["argv"][:-2] in REJECTED]
    assert len(rejected) == len(REJECTED) * len(FORMATS)
    assert all((r["code"], r["stdout"]) == (2, "") and r["stderr"] for r in rejected)
    assert all(r["code"] == 0 and r["stdout"] for r in golden if r["argv"][:-2] in ACCEPTED)


def main(argv) -> int:
    records = [observe(case) for case in CASES]
    text = json.dumps(records, indent=1, ensure_ascii=False) + "\n"
    if "--write" in argv:
        GOLDEN.write_text(text)
        print(f"wrote {len(records)} invocations to {GOLDEN}")
        return 0
    same = GOLDEN.exists() and GOLDEN.read_text() == text
    print(f"{GOLDEN} is {'up to date' if same else 'stale (rerun with --write)'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
