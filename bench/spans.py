"""Span tracing around the calls into powcat's layers.

Each wrapped function records a span: name, start, end and the span that
called it.  Spans are aggregated by calling context as they close (one node
per distinct path of names from the root), so a hot leaf called 10^5 times
under the same parent costs one node, not 10^5 records.  A node keeps the
number of calls, the first start, the last end, the time inside the calls
(busy) and the part of it spent in wrapped children, so self time is
busy - child.  Nodes stay in memory and are written out at exit.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.name = ["root"]
        self.parent = [-1]
        self.calls = [0]
        self.first = [0.0]
        self.last = [0.0]
        self.busy = [0.0]
        self.child = [0.0]
        self._index = {}
        self._stack = [0]
        self.counters = {}
        self.declared = set()  # every span name a wrapper was made for
        self.active = False

    def _node(self, parent, name):
        key = (parent, name)
        node = self._index.get(key)
        if node is None:
            node = self._index[key] = len(self.name)
            self.name.append(name)
            self.parent.append(parent)
            self.calls.append(0)
            self.first.append(0.0)
            self.last.append(0.0)
            self.busy.append(0.0)
            self.child.append(0.0)
        return node

    def _close(self, node, parent, t0, t1):
        d = t1 - t0
        self.busy[node] += d
        self.child[parent] += d
        if not self.calls[node]:
            self.first[node] = t0
        self.calls[node] += 1
        self.last[node] = t1

    def wrap(self, name, fn):
        """fn with a span named name around every call."""
        stack, clock = self._stack, time.perf_counter
        self.declared.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = self._node(parent, name)
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._close(node, parent, t0, t1)

        return traced

    def span(self, name, fn):
        """fn() inside a root span.  Layer spans are recorded only inside one,
        so the benchmark's own checks, which may call powcat, stay out."""
        self.active = True
        try:
            return self.wrap(name, fn)()
        finally:
            self.active = False

    def count(self, key, n=1):
        if self.active:
            self.counters[key] = self.counters.get(key, 0) + n

    def self_time(self, name):
        """Seconds spent in spans of this name (or, for a name ending in "*",
        of this prefix), minus their wrapped children."""
        if name.endswith("*"):
            return sum(b - c for b, c, nm in zip(self.busy, self.child, self.name) if nm.startswith(name[:-1]))
        return sum(b - c for b, c, nm in zip(self.busy, self.child, self.name) if nm == name)

    def busy_time(self, name):
        """Seconds inside spans of this name, children included."""
        return sum(b for b, nm in zip(self.busy, self.name) if nm == name)

    def dump(self, path):
        nodes = [
            {
                "id": i,
                "name": self.name[i],
                "parent": self.parent[i],
                "calls": self.calls[i],
                "first_start": self.first[i],
                "last_end": self.last[i],
                "busy_s": self.busy[i],
                "self_s": self.busy[i] - self.child[i],
            }
            for i in range(1, len(self.name))
        ]
        with open(path, "w") as fh:
            json.dump({"spans": nodes, "counters": self.counters}, fh, indent=1)


# -- wrapping powcat's layers ---------------------------------------------------

# per-layer time metric -> the spans whose self time it adds up.  A span
# "<module>.<function>" wraps that public function of powcat.<module>; a
# name ending in "*" stands for every function with that prefix.  The spans
# in SPECIAL_SPANS are made by `instrument` itself.
LAYER_METRICS = {
    "patterns.invseq_ms": ("patterns.invseq_class_raw:triples",),
    "patterns.words_ms": ("patterns.invseq_class_raw:words",),
    "patterns.perm_ms": ("patterns.perm_class_raw",),
    "patterns.steady_words_ms": ("patterns.steady_words",),
    "patterns.leaf_trees_ms": ("patterns.increasing_leaf_trees", "patterns.increasing_ordered_trees"),
    "patterns.paths_ms": ("patterns.vmdyck_paths_raw", "patterns.dyck_words", "patterns.vmsteady_paths_raw"),
    "patterns.count_class_ms": (
        "patterns.count_class", "patterns.enumerate_class", "patterns.invseq_members", "patterns.equinumerosity_check",
    ),
    "patterns.avoidance_ms": (
        "patterns.avoids_triple", "patterns.avoids_word", "patterns.avoids_vincular", "patterns.in_invseq_family",
    ),
    "objects.validate_ms": ("objects.validate",),
    "objects.text_ms": ("objects.parse_object", "objects.to_text"),
    "gentree.level_counts_ms": ("gentree.level_counts",),
    "gentree.label_distribution_ms": ("gentree.label_distribution", "gentree.rules_isomorphic_check"),
    "gentree.expand_label_ms": ("gentree.expand_label",),
    "series.callan_ms": ("series.callan_triangle", "series.powered_catalan_number"),
    "series.kernel_ms": ("series.kernel_a11", "series.kernel_w", "series.kernel_q"),
    "series.residual_ms": ("series.functional_equation_residual", "series.residual_is_zero"),
    "series.e3_ms": ("series.e3_sequence", "series.reference_sequence"),
    "growth.consistency_ms": ("growth.growth_consistency",),
    "growth.children_ms": ("growth.children",),
    "bijections.star_ms": ("bijections.phi_star", "bijections.theta_star", "bijections.phi", "bijections.theta"),
    "bijections.steady_perm_ms": ("bijections.steady_to_perm", "bijections.perm_to_steady"),
    "bijections.catalan_ms": ("bijections.catalan_invseq_to_perm", "bijections.catalan_perm_to_invseq"),
    "bijections.tables_ms": ("bijections.left_inversion_table", "bijections.left_inversion_table_inverse"),
    "cli.parse_ms": ("cli.build_parser", "cli.parse_args"),
    "verify.checks_ms": ("verify.check_*", "verify.conjecture_23_1_4_report"),
}
SPECIAL_SPANS = (
    "patterns.invseq_class_raw:triples", "patterns.invseq_class_raw:words", "growth.children",
    "cli.build_parser", "cli.parse_args",
)

# enumerators whose cache misses count the objects they emit
ENUMERATORS = (
    "invseq_class_raw", "perm_class_raw", "steady_words", "increasing_leaf_trees",
    "increasing_ordered_trees", "vmdyck_paths_raw", "dyck_words", "vmsteady_paths_raw",
)


def _plain_spans(pc):
    """(span name, module, function name) for every span that plainly wraps
    one public function, wildcards expanded."""
    for names in LAYER_METRICS.values():
        for span in names:
            if span in SPECIAL_SPANS:
                continue
            mod_name, _, fn_name = span.partition(".")
            mod = getattr(pc, mod_name)
            if fn_name.endswith("*"):
                for name, value in vars(mod).items():
                    if name.startswith(fn_name[:-1]) and callable(value):
                        yield f"{mod_name}.{name}", mod, name
            else:
                yield span, mod, fn_name


def instrument(tracer, pc):
    """Replace powcat's public layer functions by traced wrappers wherever
    they are bound: module globals (so calls between layers are traced too),
    the growth family table, the CLI's map table and the verify check table.
    Returns a function that puts the originals back."""
    patterns, growth, bijections, verify, cli = pc.patterns, pc.growth, pc.bijections, pc.verify, pc.cli
    wrapped = {}

    def counting(fn):
        def call(*args):
            misses = fn.cache_info().misses
            out = fn(*args)
            if fn.cache_info().misses != misses:
                tracer.count("patterns.objects", len(out))
            return out

        return call

    for span, mod, name in _plain_spans(pc):
        fn = getattr(mod, name)
        wrapped[id(fn)] = tracer.wrap(span, counting(fn) if name in ENUMERATORS else fn)

    raw = patterns.invseq_class_raw
    by_triples = tracer.wrap("patterns.invseq_class_raw:triples", counting(raw))
    by_words = tracer.wrap("patterns.invseq_class_raw:words", counting(raw))
    wrapped[id(raw)] = lambda triples, words, n: (by_triples if triples else by_words)(triples, words, n)

    traced_consistency = wrapped[id(growth.growth_consistency)]

    def growth_consistency(family, n_max):
        report = traced_consistency(family, n_max)
        tracer.count("growth.objects_checked", report.objects_checked)
        return report

    wrapped[id(growth.growth_consistency)] = growth_consistency

    build_parser = tracer.wrap("cli.build_parser", cli.build_parser)

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    wrapped[id(cli.build_parser)] = traced_build_parser

    undo = []
    modules = [getattr(pc, m) for m in ("objects", "patterns", "gentree", "growth", "bijections", "series", "verify", "cli")]
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                undo.append((mod, name, value))
                setattr(mod, name, wrapped[id(value)])
    for table in (bijections.MAPS, verify.CHECKS):
        for key, value in list(table.items()):
            if id(value) in wrapped:
                undo.append((table, key, value))
                table[key] = wrapped[id(value)]
    for key, fam in list(growth.FAMILIES.items()):
        undo.append((growth.FAMILIES, key, fam))
        growth.FAMILIES[key] = dataclasses.replace(fam, children=tracer.wrap("growth.children", fam.children))

    def restore():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return restore
