"""Run one benchmark workload against the powcat sources of this checkout.

    PYTHONHASHSEED=0 python3 bench/run.py --workload enumerate --seed 1 --seconds 36 --trace 0

The run sets up five times and reports the median set-up: a fresh
interpreter that starts and imports powcat, then, in this process, the
powcat calls that build the inputs and the warm-up calls (the oracle tables
and output checks around them are not counted).  It then makes whole passes
over the workload's operation list until the next pass would end after
--seconds, with at least two passes.  Before each call of a batch
workload it clears the lru_cache tables of `patterns` and `series` and
collects garbage, outside the timed span.  Every output is checked; a wrong
output or an exception counts as a failed operation.  The last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1 (spans are also written to
bench/out/).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("objects", "patterns", "gentree", "growth", "bijections", "series", "verify", "cli")
WORKLOADS = (*workloads.BUILDERS, "requests")
SETUPS = 5
MIN_PASSES = 2
ENUMERATOR_METRICS = (
    "patterns.invseq_ms", "patterns.words_ms", "patterns.perm_ms", "patterns.steady_words_ms",
    "patterns.leaf_trees_ms", "patterns.paths_ms",
)


def load_powcat():
    """A fresh import of the powcat package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "powcat" or m.startswith("powcat.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("powcat")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"powcat was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"powcat.{m}") for m in LAYERS})


def start_and_import():
    """Seconds for a fresh interpreter to start and import every powcat module."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import " + ", ".join(f"powcat.{m}" for m in LAYERS)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ImportError(f"a fresh interpreter cannot import powcat: {proc.stderr.strip().splitlines()[-1:]}")
    return dt


def calibrate():
    """A fixed pure-Python loop; its time shows how fast the machine was."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class Runner:
    """Times and checks the calls of one workload."""

    def __init__(self, pc, workload):
        self.wl, self.tracer = workload, None
        self.caches = [f for m in (pc.patterns, pc.series) for f in vars(m).values() if hasattr(f, "cache_clear")]
        self.attempted = self.failed = self.wrong = 0
        self.pass_latencies = []  # seconds per call, one list per pass
        self.calib = []
        self.cache_entries = 0
        self.messages = []

    def clear(self):
        for f in self.caches:
            f.cache_clear()
        gc.collect()

    def call(self, op, ctx):
        """One call: (seconds, failure message or None, whether the output was wrong)."""
        if self.wl.cold:
            self.clear()
        t0 = time.perf_counter()
        try:
            result = op.call() if self.tracer is None else self.tracer.span(f"op:{op.kind or op.name}", op.call)
        except Exception as exc:  # a program fault is a failed operation, not a crash
            return time.perf_counter() - t0, f"{op.name}: raised {exc!r}", False
        dt = time.perf_counter() - t0
        self.cache_entries = max(self.cache_entries, sum(f.cache_info().currsize for f in self.caches))
        try:
            msg = op.check(result, ctx)
        except Exception as exc:  # output the check cannot even read is wrong output
            msg = f"unreadable output: {exc!r}"
        return dt, (None if msg is None else f"{op.name}: {msg}"), msg is not None

    def warm_up(self):
        """Seconds spent in the warm-up calls themselves."""
        ctx = {}
        return sum(self.call(op, ctx)[0] for op in self.wl.warmup)

    def one_pass(self):
        ctx, lat = {}, []
        for op in self.wl.ops:
            dt, msg, wrong = self.call(op, ctx)
            lat.append(dt)
            self.attempted += 1
            if msg is not None:
                self.failed += 1
                self.wrong += wrong
                if len(self.messages) < 5:
                    self.messages.append(msg)
        self.pass_latencies.append(lat)

    def measure(self, seconds):
        gc.collect()
        if not self.wl.cold:
            gc.freeze()  # the warm caches stay out of every later collection
        start = time.perf_counter()
        while True:
            self.calib.append(calibrate())
            self.one_pass()
            elapsed = time.perf_counter() - start
            passes = len(self.pass_latencies)
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
                break
        gc.unfreeze()

    @property
    def pass_times(self):
        return [sum(lat) for lat in self.pass_latencies]

    def op_latencies(self):
        """Each operation's median latency over the passes, in list order."""
        return [statistics.median(col) for col in zip(*self.pass_latencies)]

    def end_to_end(self, setup_times):
        lat = self.op_latencies()
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(self.pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "call_gmean_ms": (statistics.geometric_mean(lat) * 1e3, "ms"),
            "call_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        }

    def per_layer(self):
        t, passes = self.tracer, len(self.pass_latencies)
        out = {name: (sum(t.self_time(s) for s in names) * 1e3 / passes, "ms")
               for name, names in spans.LAYER_METRICS.items()}
        enum_s = sum(out[m][0] for m in ENUMERATOR_METRICS) * passes / 1e3
        out["patterns.objects_per_s"] = (t.counters.get("patterns.objects", 0) / enum_s if enum_s else 0.0, "1/s")
        out["patterns.cache_entries"] = (self.cache_entries, "count")
        busy = t.busy_time("growth.growth_consistency")
        out["growth.objects_checked_per_s"] = (t.counters.get("growth.objects_checked", 0) / busy if busy else 0.0, "1/s")
        # what run_command does outside the traced layer calls: dispatch and output formatting
        out["cli.command_ms"] = (sum(t.self_time(f"op:{k}") for k in workloads.SUBCOMMANDS) * 1e3 / passes, "ms")
        lat = self.op_latencies()
        for kind in workloads.SUBCOMMANDS:
            mine = [dt for op, dt in zip(self.wl.ops, lat) if op.kind == kind]
            out[f"cli.{kind}_p50_ms"] = (statistics.median(mine) * 1e3 if mine else 0.0, "ms")
        out["trace.wall_ms"] = (statistics.median(self.pass_times) * 1e3, "ms")
        out["machine.calib_ms"] = (statistics.median(self.calib) * 1e3, "ms")
        return out


def run(workload, seed, seconds, trace, size="full"):
    """Set up, measure and return (result dict, Runner)."""
    setup_times = []
    for _ in range(SETUPS):
        pc = load_powcat()
        started = start_and_import()
        wl = workloads.build(workload, pc, random.Random(seed), size)
        runner = Runner(pc, wl)
        setup_times.append(started + wl.input_s + runner.warm_up())
    restore = None
    if trace:
        runner.tracer = spans.Tracer()
        restore = spans.instrument(runner.tracer, pc)
    try:
        runner.measure(seconds)
    finally:
        if restore is not None:
            restore()
    metrics = runner.per_layer() if trace else runner.end_to_end(setup_times)
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, runner


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, runner = run(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, workloads.SetupError) as err:
        print(f"bench: cannot run: {err}", file=sys.stderr)
        return 2
    for msg in runner.messages:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {len(runner.pass_times)} passes "
        f"{' '.join(f'{t:.3f}' for t in runner.pass_times)} s, calib "
        f"{' '.join(f'{c * 1e3:.1f}' for c in runner.calib)} ms",
        file=sys.stderr,
    )
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        runner.tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
