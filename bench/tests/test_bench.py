"""The benchmark's own tests: the oracles against their OEIS prefixes, a
smoke run of every workload at tiny sizes, and deliberately wrong outputs
that must be reported as failed operations.

    PYTHONHASHSEED=0 python3 -m pytest -q bench/tests
"""
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import oracles as O  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_oracles_match_oeis_prefixes():
    assert tuple(O.catalan(len(O.A000108) - 1)) == O.A000108
    assert tuple(O.a108307(len(O.A108307) - 1)) == O.A108307
    assert tuple(O.baxter(len(O.A001181) - 1)) == O.A001181
    assert tuple(O.semi_baxter(len(O.A117106) - 1)) == O.A117106
    assert tuple(O.powered_catalan(len(O.A113227) - 1)) == O.A113227


def test_brute_force_membership():
    assert O.in_family("cat", (0, 1, 2)) and not O.in_family("cat", (0, 0, 0))
    assert O.in_family("pcat", (0, 1, 0)) and not O.in_family("pcat", (0, 1, 1, 0))
    assert not O.in_family("semi", (0, 1, 3))  # not an inversion sequence
    assert O.in_perm_class((2, 1, 3, 4), ["1-23-4"]) and not O.in_perm_class((1, 2, 3, 4), ["1-23-4"])
    assert not O.contains_vincular((1, 3, 2, 4), "1-23-4") and O.contains_vincular((1, 2, 4, 3, 5), "1-23-4")
    assert O.is_vmdyck("UUDUDD", (1,), 3) and not O.is_vmdyck("UUDUDD", (2,), 3)
    assert O.is_increasing_leaf_tree(O.parse_tree("0(1(2)3)"), 3)
    assert not O.is_increasing_leaf_tree(O.parse_tree("0(1(3)2)"), 3)  # leaves 3, 2 decrease
    assert not O.is_increasing_leaf_tree(O.parse_tree("0(2(1)3)"), 3)  # 1 below 2
    assert O.parse_tree("0(1,2)") == O.parse_tree("0(12)") == (0, ((1, ()), (2, ())))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_passes_its_checks(workload, trace):
    result, runner = bench.run(workload, seed=3, seconds=0, trace=trace, size="tiny")
    assert (result["correct"], result["failed"]) == (True, 0), runner.messages
    assert result["attempted"] == bench.MIN_PASSES * len(runner.wl.ops)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_requests_stream_is_stratified():
    """Every seed sends the same multiset of subcommands and families, so the
    latency mix does not depend on the seed, and every subcommand has the
    same share of the stream."""
    pc = bench.load_powcat()
    mixes = []
    for seed in (1, 2):
        _, stream = workloads.build_requests(pc, random.Random(seed), "full", workloads.Inputs())
        # a request without its --input value: subcommand, family or map, size
        mixes.append(sorted(" ".join(a for a in op.name.split("--input")[0].split()) for op in stream))
        shares = Counter(op.kind for op in stream)
        assert set(shares) == set(workloads.SUBCOMMANDS)
        assert set(shares.values()) == {workloads.SIZES["requests"]["full"]["share"]}
    assert mixes[0] == mixes[1]
    assert len(stream) >= 1000


def test_every_layer_span_is_recorded_by_some_wrapper():
    """The one table of per-layer spans and the functions instrument() wraps
    stay in step: no metric sums a span that nothing records."""
    pc = bench.load_powcat()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, pc)
    pc.cli.build_parser()  # parse_args is wrapped on each parser built
    restore()
    for names in spans.LAYER_METRICS.values():
        for name in names:
            if name.endswith("*"):
                assert any(d.startswith(name[:-1]) for d in tracer.declared), name
            else:
                assert name in tracer.declared, name


def _perturbed(monkeypatch, change):
    """Make every set-up load powcat and then apply change(pc) to it."""
    load = bench.load_powcat

    def load_and_change():
        pc = load()
        change(pc)
        return pc

    monkeypatch.setattr(bench, "load_powcat", load_and_change)


def test_count_off_by_one_is_a_failed_operation(monkeypatch):
    def change(pc):
        count = pc.patterns.count_class
        pc.patterns.count_class = lambda *a, **k: count(*a, **k) + 1
        pc.cli.count_class = pc.patterns.count_class

    _perturbed(monkeypatch, change)
    result, runner = bench.run("enumerate", seed=1, seconds=0, trace=0, size="tiny")
    assert not result["correct"]
    assert result["failed"] == 2 * bench.MIN_PASSES  # the two count_class calls of each pass
    result, runner = bench.run("requests", seed=1, seconds=0, trace=0, size="tiny")
    n_count = sum(op.kind == "count" for op in runner.wl.ops)
    assert not result["correct"] and result["failed"] == n_count * bench.MIN_PASSES


def test_wrong_map_image_is_a_failed_operation(monkeypatch):
    def change(pc):
        phi_star, path = pc.bijections.phi_star, pc.objects.LatticePath

        def wrong(p):
            img = phi_star(p)
            return path(img.steps, (0,) * len(img.marks), img.kind)

        pc.bijections.phi_star = wrong

    _perturbed(monkeypatch, change)
    result, runner = bench.run("rules_certify", seed=1, seconds=0, trace=0, size="tiny")
    assert not result["correct"]
    assert result["failed"] == bench.MIN_PASSES, runner.messages
    assert all("phi* image" in msg for msg in runner.messages)


def test_wrong_level_count_is_a_failed_operation(monkeypatch):
    def change(pc):
        levels = pc.gentree.level_counts
        pc.gentree.level_counts = lambda rule, depth: levels(rule, depth)[:-1] + [levels(rule, depth)[-1] - 1]

    _perturbed(monkeypatch, change)
    result, _ = bench.run("rules_certify", seed=1, seconds=0, trace=0, size="tiny")
    assert not result["correct"] and result["failed"] == 8 * bench.MIN_PASSES


def test_growth_check_that_stops_checking_is_a_failed_operation(monkeypatch):
    """A growth_consistency that reports the right count without checking
    anything misses the planted faults, so each of its calls fails."""

    def change(pc):
        growth, count = pc.growth, pc.growth.growth_consistency

        def unchecked(family, n_max):
            return growth.GrowthReport(family, n_max, count(family, n_max).objects_checked, ())

        growth.growth_consistency = unchecked

    _perturbed(monkeypatch, change)
    result, runner = bench.run("rules_certify", seed=1, seconds=0, trace=0, size="tiny")
    assert not result["correct"]
    assert result["failed"] == len(workloads.GROWTH_FAMILIES) * bench.MIN_PASSES, runner.messages
    assert all("did not report a dropped child" in msg for msg in runner.messages)


def test_sampled_growth_children_are_checked_by_the_oracles(monkeypatch):
    pc = bench.load_powcat()
    steady = {m: set(pc.patterns.steady_words(m)) for m in range(2, 5)}
    for fam in workloads.GROWTH_FAMILIES:
        assert workloads._children_sample(pc, fam, 4, random.Random(1), 5, steady) is None, fam
    real = pc.growth.FAMILIES["cat"]
    faults = {
        "differ from the rule's production": lambda e: [(c, (0,)) for c, _ in real.children(e)],
        "is not a member": lambda e: [(e, lab) for _, lab in real.children(e)],
    }
    for what, children in faults.items():
        monkeypatch.setitem(pc.growth.FAMILIES, "cat", dataclasses.replace(real, children=children))
        assert what in workloads._children_sample(pc, "cat", 4, random.Random(1), 5, steady)


def test_unreadable_output_is_a_wrong_output(monkeypatch):
    def change(pc):
        run = pc.cli.run_command
        pc.cli.run_command = lambda argv: (0, "garbage\n") if argv[0] == "conjecture" else run(argv)

    _perturbed(monkeypatch, change)
    result, runner = bench.run("requests", seed=1, seconds=0, trace=0, size="tiny")
    n_conjecture = sum(op.kind == "conjecture" for op in runner.wl.ops)
    assert not result["correct"] and result["failed"] == n_conjecture * bench.MIN_PASSES
    assert "unreadable output" in runner.messages[0]


def test_a_raising_call_fails_but_keeps_correct(monkeypatch):
    def change(pc):
        def broken(*a):
            raise ArithmeticError("injected")

        pc.series.kernel_a11 = broken

    _perturbed(monkeypatch, change)
    result, runner = bench.run("rules_certify", seed=1, seconds=0, trace=0, size="tiny")
    assert result["correct"] and result["failed"] == bench.MIN_PASSES
    assert "injected" in runner.messages[0]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, the run exits non-zero
    without printing a result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
