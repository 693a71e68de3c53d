"""The command-line surface: payloads, formats, exit codes."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import powcat
from powcat import cli
from powcat.cli import export_table, run_command
from powcat.errors import SIZE_LIMITS
from powcat.objects import text_size


def run(argv):
    return run_command(argv)


def test_count_catalan_family():
    code, out = run(["count", "--family", "geq,dash,geq", "--n", "5"])
    assert code == 0 and out.strip() == "42"


def test_count_family_syntaxes_agree():
    for n in ("3", "5", "6"):
        _, by_triple = run(["count", "--family", "geq,geq,gt", "--n", n])
        _, by_words = run(["count", "--family", "avoid:100,110,210", "--n", n])
        assert by_triple == by_words


def test_a_repeated_count_walks_its_class_once(monkeypatch):
    # the state sum steps each (depth, state) once, and its total is kept,
    # so a warm count request looks it up and takes no child step
    from powcat import patterns

    for factory, family, n, want in [
        ("_invseq_step", "eq,gt,gt", 7, "3207\n"),
        ("_steady_step", "path:steady", 8, "20577\n"),
        ("_tree_step", "tree", 8, "20577\n"),
    ]:
        states = []
        make = getattr(patterns, factory)

        def counted_factory(*args, make=make, states=states):
            made = make(*args)
            step = made[0] if isinstance(made, tuple) else made

            def counted_step(m, state):
                states.append((m, state))
                return step(m, state)

            return (counted_step, *made[1:]) if isinstance(made, tuple) else counted_step

        monkeypatch.setattr(patterns, factory, counted_factory)
        for counting in (patterns._invseq_count, patterns._path_count, patterns._leaf_tree_count):
            counting.cache_clear()  # an earlier test may have counted this class
        assert run(["count", "--family", family, "--n", str(n)]) == (0, want), family
        stepped = len(states)
        assert stepped == len(set(states)) > 0, family
        assert run(["count", "--family", family, "--n", str(n)]) == (0, want), family
        assert len(states) == stepped, family


def test_an_unknown_path_kind_exits_2_with_one_line(capsys):
    assert run(["count", "--family", "path:nope", "--n", "3"]) == (2, "")
    assert capsys.readouterr().err == "error: unknown path kind 'nope'; known: dyck, steady, vmdyck, vmsteady\n"


def test_count_a_four_letter_word_class():
    # words not of length 3 go through the occurrence search, one per prefix
    code, out = run(["count", "--family", "avoid:0110", "--n", "9"])
    assert code == 0 and out.strip() == "172766"


def test_count_perm_and_path_and_tree_families():
    code, out = run(["count", "--family", "perm:1-23-4", "--n", "4"])
    assert code == 0 and out.strip() == "23"
    code, out = run(["count", "--family", "perm:1-23+2-14-3", "--n", "5"])
    assert code == 0 and out.strip() == "42"
    code, out = run(["count", "--family", "path:steady", "--n", "4"])
    assert code == 0 and out.strip() == "23"
    code, out = run(["count", "--family", "tree", "--n", "4"])
    assert code == 0 and out.strip() == "23"


def test_levels():
    code, out = run(["levels", "--rule", "pcat", "--depth", "5"])
    assert code == 0 and out.strip() == "1,2,6,23,105"
    code, out = run(["levels", "--rule", "pcat", "--depth", "3", "--format", "json"])
    assert code == 0 and json.loads(out) == [1, 2, 6]
    code, out = run(["levels", "--rule", "pcat", "--depth", "4", "--format", "csv"])
    assert code == 0 and out == "1,2,6,23\n"
    code, out = run(["count", "--family", "tree", "--n", "3", "--format", "csv"])
    assert code == 0 and out == "6\n"
    code, out = run(["series", "kernel-a11", "--n", "3", "--format", "csv"])
    assert code == 0 and out == "1,2,5\n"


def test_map_phi_star():
    code, out = run(["map", "--name", "phi-star", "--input", "UUDUWUDDDD"])
    assert code == 0 and out.strip() == "UUUDUDDD;marks=1"
    code, out = run(["map", "--name", "theta-star", "--input", "UUUDUDDD;marks=1"])
    assert code == 0 and out.strip() == "UUDUWUDDDD"


def test_map_star_rejects_non_members():
    for name, text in (
        ("theta-star", "DDUU"),
        ("phi-star", ""),
        ("phi-star", "UUDDDU"),
        ("phi-star", "UUDUWUDDDD;marks=1"),
        ("steady-perm", "UDUD;marks=1"),
    ):
        assert run(["map", "--name", name, "--input", text]) == (2, ""), (name, text)


def test_map_tables_and_perms():
    code, out = run(["map", "--name", "tinv", "--input", "2,4,1,3"])
    assert code == 0 and out.strip() == "1,2,0,0"
    code, out = run(["map", "--name", "tinv-inv", "--input", "1,2,0,0"])
    assert code == 0 and out.strip() == "2,4,1,3"
    code, out = run(["map", "--name", "cat-perm", "--input", "0,1,2"])
    assert code == 0 and out.strip() == "3,2,1"
    code, out = run(["map", "--name", "steady-perm", "--input", "UDUD"])
    assert code == 0 and out.strip() == "2,1"


def test_triangle_csv_rows():
    code, out = run(["triangle", "--n", "4", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["0", "0", "1"]
    assert len(rows) == 1 + 2 + 3 + 4 + 5
    assert ["4", "2", "10"] in rows


def test_grow_step():
    code, out = run(["grow", "--family", "pcat:invseq", "--input", "0,0", "--format", "json"])
    assert code == 0
    children = json.loads(out)
    assert sorted(c["label"] for c in children) == [[1], [2], [2], [3]]


def test_series_subcommands():
    code, out = run(["series", "pcat", "--n", "7"])
    assert code == 0 and out.strip() == "1,2,6,23,105,549,3207"
    code, out = run(["series", "kernel-a11", "--n", "6"])
    assert code == 0 and out.strip() == "1,2,5,15,51,191"
    code, out = run(["series", "residual", "--n", "5"])
    assert code == 0 and out.strip() == "0"
    code, out = run(["series", "triangle", "--n", "3", "--format", "csv"])
    assert code == 0 and out.splitlines()[-1] == "3,3,1"


def test_verify_series_suite_passes_and_is_json_clean():
    code, out = run(["verify", "series", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "series" and payload["status"] == "pass"
    assert {c["name"] for c in payload["checks"]} >= {"series-agreement", "kernel-residual"}


def test_verify_rejects_the_removed_n_small_flag():
    code, out = run(["verify", "series", "--n-small"])
    assert (code, out) == (2, "")


def test_verify_parallel_jobs_keep_declaration_order():
    code, out = run(["verify", "series", "--jobs", "2", "--format", "json"])
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["series-agreement", "kernel-residual", "functional-equation", "triangle-row-sums"]


def test_verify_jobs_must_be_positive():
    for jobs in ("0", "-5"):
        code, out = run(["verify", "series", "--jobs", jobs])
        assert (code, out) == (2, ""), jobs


def test_verify_workers_are_clamped(monkeypatch):
    import concurrent.futures

    import powcat.verify as verify_mod

    def passing_check():
        return verify_mod.CheckResult(name="fake", ok=True, sizes="n/a", elapsed=0.0)

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, names):
            return [passing_check() for _ in names]

    started = []
    monkeypatch.setitem(verify_mod.SUITES, "series", (passing_check,) * 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for cpus, expected in ((64, [3]), (2, [2]), (None, [])):
        started.clear()
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cpus)
        results = verify_mod.run_suite("series", jobs=1000)
        assert started == expected and len(results) == 3 and all(r.ok for r in results)


def test_conjecture_report():
    code, out = run(["conjecture", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert [r["count"] for r in payload["evidence"]] == [1, 2, 6, 23]
    assert all("triangle_row" in r for r in payload["evidence"])


def test_grow_rejects_non_members():
    for family, text in (("cat", "0,5"), ("p1234", "1,1"), ("semi", "0,3,1")):
        code, out = run(["grow", "--family", family, "--input", text])
        assert (code, out) == (2, ""), (family, text)


def test_grown_trees_are_valid_grow_input():
    frontier = ["0(1)"]
    for _ in range(3):
        code, out = run(["grow", "--family", "pcat:tree", "--input", frontier[0], "--format", "json"])
        assert code == 0
        frontier = [c["object"] for c in json.loads(out)]
        for text in frontier:
            code, _ = run(["grow", "--family", "pcat:tree", "--input", text])
            assert code == 0, text


# (argv without the input, the input of size n, the size's name in SIZE_LIMITS)
BOUNDED_INPUTS = [
    (["grow", "--family", "cat"], lambda n: ",".join(map(str, range(n))), "invseq-input"),
    (["map", "--name", "tinv-inv"], lambda n: ",".join("0" * n), "invseq-input"),
    (["map", "--name", "tinv"], lambda n: ",".join(map(str, range(1, n + 1))), "perm-input"),
    (["grow", "--family", "pcat:vmdyck"], lambda n: "UD" * n, "path-input"),
    (["grow", "--family", "pcat:tree"], lambda n: f"0({','.join(map(str, range(1, n + 1)))})", "tree-input"),
]


@pytest.mark.parametrize("argv,text,name", BOUNDED_INPUTS, ids=[f"{a[0]}-{a[2]}" for a, _, _ in BOUNDED_INPUTS])
def test_input_objects_are_bounded(argv, text, name):
    highest = SIZE_LIMITS[name][1]
    code, out = run([*argv, "--input", text(highest)])
    assert code == 0 and out
    t0 = time.perf_counter()
    assert run([*argv, "--input", text(highest + 1)]) == (2, "")
    assert time.perf_counter() - t0 < 1.0


def test_deep_tree_input_is_rejected_before_parsing():
    deep = "0" + "".join(f"({i}" for i in range(1, 2000)) + ")" * 1999
    assert run(["grow", "--family", "pcat:tree", "--input", deep]) == (2, "")


def test_empty_tree_input_is_worded_by_the_parser(capsys):
    # the size read off the text is floored at 0, so the parser, not the bound, rejects it
    assert text_size("", "tree") == 0
    assert run(["grow", "--family", "pcat:tree", "--input", ""]) == (2, "")
    assert capsys.readouterr().err == "error: expected one root, found 0 (at position 1)\n"


def test_non_ascii_digits_in_tree_input_exit_2_with_one_line(capsys):
    # str.isdigit accepts both, and int() would reject the first and read the second as 3
    for text in ("0(\u00b2)", "0(\u0663)"):
        assert run(["grow", "--family", "pcat:tree", "--input", text]) == (2, "")
        assert capsys.readouterr().err == f"error: expected a label, got {text[2]!r} (at position 3)\n"


def test_non_ascii_digits_and_int_syntax_exit_2_with_one_line(capsys):
    # int() reads each of these entries as 0, and str.isdecimal() passes the pattern letters
    for entry in ("\u0660", "+0", "0_0"):
        assert run(["grow", "--family", "cat", "--input", f"0,{entry}"]) == (2, "")
        assert capsys.readouterr().err == f"error: bad integer {entry!r} (at position 2)\n"
    for word in ("\u0661\u0661\u0660", "\uff11\uff11\uff10"):
        assert run(["count", "--family", f"avoid:{word}", "--n", "4"]) == (2, "")
        assert capsys.readouterr().err == f"error: bad word letter {word[0]!r} in {word!r} (at position 1)\n"
    assert run(["count", "--family", "perm:1-\u0662\u0663-4", "--n", "4"]) == (2, "")
    assert capsys.readouterr().err == "error: bad pattern letter '\u0662' in '1-\u0662\u0663-4'\n"


def test_conjecture_size_is_bounded():
    for n in ("0", "11"):
        code, out = run(["conjecture", "--n", n])
        assert (code, out) == (2, ""), n


def test_usage_errors_exit_2():
    code, _ = run(["count", "--family", "nonsense", "--n", "3"])
    assert code == 2
    code, _ = run(["levels", "--rule", "unknown", "--depth", "3"])
    assert code == 2
    code, _ = run(["nosuchcommand"])
    assert code == 2
    code, _ = run(["count", "--family", "geq,dash,geq", "--n", "99"])
    assert code == 2  # beyond the exhaustive limit


def test_negative_sizes_exit_2_instead_of_printing_nothing():
    for argv in (["series", "catalan", "--n", "-3"], ["series", "pcat", "--n", "-1"], ["triangle", "--n", "-1"]):
        assert run(argv) == (2, ""), argv


# (argv without the size, the size's name in SIZE_LIMITS) for every bounded argument
BOUNDED_ARGUMENTS = [
    (["count", "--family", "geq,dash,geq", "--n"], "invseq"),
    (["count", "--family", "perm:1-23-4", "--n"], "perm"),
    (["count", "--family", "path:steady", "--n"], "path"),
    (["count", "--family", "tree", "--n"], "tree"),
    (["levels", "--rule", "cat", "--depth"], "depth"),
    (["triangle", "--n"], "triangle"),
    (["series", "triangle", "--n"], "triangle"),
    *[(["series", name, "--n"], name) for name in ("catalan", "a108307", "pcat", "baxter", "semibaxter")],
    (["series", "kernel-a11", "--n"], "kernel"),
    (["series", "residual", "--n"], "residual"),
    (["conjecture", "--n"], "perm"),
    (["verify", "series", "--jobs"], "jobs"),
]


@pytest.mark.parametrize("argv,name", BOUNDED_ARGUMENTS, ids=[f"{a[0]}-{name}" for a, name in BOUNDED_ARGUMENTS])
def test_one_step_outside_every_bound_exits_2_at_once(argv, name):
    lowest, highest = SIZE_LIMITS[name]
    for n in (lowest - 1, highest + 1):
        t0 = time.perf_counter()
        assert run([*argv, str(n)]) == (2, ""), n
        assert time.perf_counter() - t0 < 1.0, n


@pytest.mark.parametrize("error", [ArithmeticError, AssertionError])
def test_internal_errors_exit_3_with_one_line(monkeypatch, capsys, error):
    import powcat.series as series_mod

    def broken_kernel(order):
        raise error("kernel series fails to satisfy the kernel equation")

    monkeypatch.setattr(series_mod, "kernel_w", broken_kernel)
    assert run(["series", "kernel-a11", "--n", "5"]) == (3, "")
    assert capsys.readouterr().err == "internal error: kernel series fails to satisfy the kernel equation\n"


def test_verify_failure_exits_1(monkeypatch):
    import powcat.verify as verify_mod

    def failing_check():
        return verify_mod.CheckResult(
            name="fake", ok=False, sizes="n/a", elapsed=0.0, counterexample="boom"
        )

    monkeypatch.setitem(verify_mod.SUITES, "series", (failing_check,))
    code, out = run(["verify", "series"])
    assert code == 1
    assert "FAIL" in out and "boom" in out


def test_broken_invariant_fails_its_check_instead_of_crashing(monkeypatch):
    import powcat.series as series_mod

    def broken_kernel(order):
        raise ArithmeticError("kernel series residual is nonzero")

    monkeypatch.setattr(series_mod, "kernel_w", broken_kernel)
    code, out = run(["verify", "series", "--jobs", "1"])
    assert code == 1
    assert "series-agreement: FAIL" in out
    assert "counterexample: kernel series residual is nonzero" in out
    assert "functional-equation: pass" in out and "suite series: FAIL" in out


def test_outputs_are_reproducible():
    a = run(["levels", "--rule", "steady", "--depth", "8", "--format", "json"])
    b = run(["levels", "--rule", "steady", "--depth", "8", "--format", "json"])
    assert a == b


def test_export_table_is_byte_stable():
    rows = [[1, 2, 3], [4, 5, 6]]
    assert export_table(rows, "csv") == "1,2,3\n4,5,6\n"
    as_json = export_table({"b": 1, "a": 2}, "json")
    assert as_json == '{"a":2,"b":1}\n'


def test_help_is_returned_as_the_stdout_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, usage in ((["--help"], "usage: powcat [-h]"), (["count", "--help"], "usage: powcat count [-h]")):
        code, out = run(argv)
        assert code == 0 and out.startswith(usage), argv
        assert capsys.readouterr().out == "", argv
    src = str(Path(powcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "powcat", "count", "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == run(["count", "--help"])


def test_one_parser_serves_every_request(monkeypatch):
    import powcat.verify as verify_mod

    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    def failing_check():
        return verify_mod.CheckResult(name="fake", ok=False, sizes="n/a", elapsed=0.0, counterexample="boom")

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    monkeypatch.setitem(verify_mod.SUITES, "series", (failing_check,))
    assert run(["count", "--family", "tree", "--n", "3"]) == (0, "6\n")
    assert run(["levels", "--rule", "unknown", "--depth", "3"]) == (2, "")
    code, out = run(["count", "--help"])
    assert code == 0 and out.startswith("usage: powcat count")
    code, out = run(["verify", "series"])
    assert code == 1 and "boom" in out
    assert run(["count", "--family", "tree", "--n", "3"]) == (0, "6\n")
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_the_cached_parser_keeps_no_state_between_requests(monkeypatch):
    from test_cli_golden import CASES, observe

    cli._parser.cache_clear()
    cached = [observe(argv) for argv in CASES]
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [observe(argv) for argv in CASES] == cached


@pytest.mark.parametrize("n, code", [(5, 0), (SIZE_LIMITS["tree"][0] - 1, 2), (SIZE_LIMITS["tree"][1] + 1, 2)])
def test_python_dash_m_powcat_runs_the_cli(n, code):
    argv = ["count", "--family", "tree", "--n", str(n)]
    src = str(Path(powcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "powcat", *argv], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == run(argv)
    assert proc.returncode == code
    if code:
        assert proc.stdout == "" and "outside" in proc.stderr
