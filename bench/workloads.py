"""The benchmark's workloads.

A workload is a fixed list of operations.  Each operation is one call into
powcat's public API (or one `powcat.cli.run_command` request) plus a check
of its output against the independent oracles in `oracles.py`.  A check
returns None for a correct output and a message otherwise; `ctx` is a dict
shared by the checks of one pass, so a later check can compare its output
with an earlier one (a map and its inverse, the triple and word routes).

Every builder takes the freshly imported powcat modules, a seeded
`random.Random`, a size profile ("full" for measurement, "tiny" for the
smoke tests) and an `Inputs` stopwatch through which it makes every powcat
call that builds the workload's inputs: set-up time counts those calls, not
the oracle tables and checks around them.  The seed picks the sampled
members that brute-force checks look at and, on `requests`, the inputs and
the order of the stream; the operation lists of the batch workloads are the
same for every seed.
"""
from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import pairwise
from typing import Callable

import oracles as O


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], "str | None"]
    kind: str = ""  # the subcommand of a request


@dataclass
class Workload:
    name: str
    ops: list  # one pass, in order
    cold: bool  # clear the caches and collect garbage before each call
    warmup: list  # run once, checked, during set-up
    input_s: float  # time of the powcat calls that built the inputs


class Inputs:
    """Runs the powcat calls that build a workload's inputs and adds up their time."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds += time.perf_counter() - t0
        return out


SIZES = {
    "enumerate": {
        "full": dict(n=9, perm=8, steady=8, trees=8, vmdyck=9, count_invseq=9, count_path=8, sample=200),
        "tiny": dict(n=5, perm=5, steady=4, trees=4, vmdyck=5, count_invseq=5, count_path=4, sample=10),
    },
    "rules_series": {
        "full": dict(
            levels={"cat": 120, "cat2": 70, "i-geq3": 70, "bax": 60, "semi": 60, "pcat": 90, "p1234": 60, "steady": 60},
            dist=50, callan=300, kernel=20, residual=60, e3=8000,
        ),
        "tiny": dict(
            levels={"cat": 8, "cat2": 8, "i-geq3": 8, "bax": 8, "semi": 8, "pcat": 8, "p1234": 8, "steady": 8},
            dist=6, callan=10, kernel=6, residual=6, e3=20,
        ),
    },
    "certify": {
        "full": dict(
            growth=6, star=6, steady_perm=7, catalan=8, canary=4, children_sample=30,
            checks=(
                "family-counts", "triangle-refinements", "rule-isomorphism", "label-distribution-consistency",
                "single-step-maps", "series-agreement", "kernel-residual", "functional-equation",
                "triangle-row-sums",
            ),
        ),
        "tiny": dict(
            growth=3, star=3, steady_perm=4, catalan=4, canary=3, children_sample=5,
            checks=("rule-isomorphism", "label-distribution-consistency", "kernel-residual", "functional-equation"),
        ),
    },
    "requests": {
        "full": dict(count=(6, 7), small=5, levels=12, triangle=(10, 11, 12), series=12, kernel=8, residual=8,
                     conjecture=(4, 5, 6), parent=4, map=5, pool=4, share=200),
        "tiny": dict(count=(4,), small=3, levels=5, triangle=(4,), series=5, kernel=4, residual=4,
                     conjecture=(4,), parent=3, map=3, pool=2, share=3),
    },
}

SUBCOMMANDS = ("count", "levels", "triangle", "grow", "map", "series", "conjecture")
RULES = ("cat", "cat2", "i-geq3", "bax", "semi", "pcat", "p1234", "steady")
WORDS = {"semi": ("110", "210"), "pcat": ("110",), "bax": ("100", "110", "210")}
GROWTH_FAMILIES = ("cat", "cat2", "i-geq3", "bax", "semi", "pcat:invseq", "pcat:vmdyck", "pcat:tree", "steady", "p1234")


# -- shared check helpers ---------------------------------------------------------


def _sample(rng, count, k):
    return sorted(rng.sample(range(count), min(k, count)))


def _increasing(seq):
    return all(a < b for a, b in pairwise(seq))


def _stream_check(want, rng, k, member, sorted_stream=False):
    """Count, duplicates (and order, for streams that must come sorted) and
    brute-force membership of k seeded members."""
    sample = _sample(rng, want, k)

    def check(r, ctx):
        if len(r) != want:
            return f"{len(r)} objects, expected {want}"
        if not _increasing(r if sorted_stream else sorted(r)):
            return "stream is unsorted or has duplicates" if sorted_stream else "stream has duplicates"
        bad = next((r[i] for i in sample if not member(r[i])), None)
        return None if bad is None else f"{bad!r} is not a member"

    return check


def _api(target, name, *args):
    """A call of target.name(*args) (or target[name]() for a table) that
    looks the function up when it runs, so a traced run calls the wrapper."""
    if isinstance(target, dict):
        return lambda: target[name](*args)
    return lambda: getattr(target, name)(*args)


def _tree_tuple(t):
    return (t.label, tuple(_tree_tuple(c) for c in t.children))


def _path_key(p):
    return (p.steps, p.marks)


# -- enumerate ----------------------------------------------------------------------


def build_enumerate(pc, rng, size, inputs):
    """Cold enumeration at the top tested sizes: the five families by the
    triple route, the word route for semi and pcat, 1-23-4, steady words,
    increasing-leaves trees, marked Dyck paths and two counts."""
    s = SIZES["enumerate"][size]
    P, n = pc.patterns, s["n"]
    pcat = O.powered_catalan(max(n, s["vmdyck"], s["perm"], s["steady"], s["trees"]))
    ops = []

    def routes_agree(fam, check):
        # the triple route runs first and leaves its digest for the word route
        def both(r, ctx):
            msg = check(r, ctx)
            if msg is None:
                digest = hash(r)
                if ctx.setdefault(("invseq", fam), digest) != digest:
                    return "triple and word routes give different sets"
            return msg

        return both

    for fam in O.FAMILY_TRIPLES:
        check = _stream_check(O.sequence_for(fam, n)[n], rng, s["sample"],
                              lambda e, f=fam: len(e) == n and O.in_family(f, e), sorted_stream=True)
        ops.append(Op(f"invseq_members {fam} {n}", _api(P, "invseq_members", fam, n), routes_agree(fam, check)))
    for fam in ("semi", "pcat"):
        check = _stream_check(O.sequence_for(fam, n)[n], rng, s["sample"],
                              lambda e, f=fam: len(e) == n and O.in_family(f, e), sorted_stream=True)
        words = tuple(P.WordPattern.parse(w) for w in WORDS[fam])
        ops.append(Op(f"invseq_class_raw words {fam} {n}", _api(P, "invseq_class_raw", (), words, n), routes_agree(fam, check)))

    m = s["perm"]
    ops.append(Op(
        f"perm_class_raw 1-23-4 {m}", _api(P, "perm_class_raw", (P.VincularPattern.parse("1-23-4"),), m),
        _stream_check(pcat[m], rng, s["sample"], lambda p, m=m: len(p) == m and O.in_perm_class(p, ["1-23-4"])),
    ))
    m = s["steady"]
    ops.append(Op(
        f"steady_words {m}", _api(P, "steady_words", m),
        _stream_check(pcat[m], rng, s["sample"], lambda w, m=m: O.is_steady_shape(w, m)),
    ))
    m = s["trees"]
    tree_sample = _sample(rng, pcat[m], s["sample"])

    def check_trees(r, ctx, m=m):
        if len(r) != pcat[m]:
            return f"{len(r)} trees, expected {pcat[m]}"
        if len(set(r)) != len(r):
            return "stream has duplicates"
        bad = next((r[i] for i in tree_sample if not O.is_increasing_leaf_tree(_tree_tuple(r[i]), m)), None)
        return None if bad is None else f"{bad!r} is not an increasing-leaves tree"

    ops.append(Op(f"increasing_leaf_trees {m}", _api(P, "increasing_leaf_trees", m), check_trees))
    m = s["vmdyck"]
    ops.append(Op(
        f"vmdyck_paths_raw {m}", _api(P, "vmdyck_paths_raw", m),
        _stream_check(pcat[m], rng, s["sample"], lambda wm, m=m: O.is_vmdyck(wm[0], wm[1], m)),
    ))

    m = s["count_invseq"]
    triple = P.RelationTriple(*O.FAMILY_TRIPLES["pcat"])
    ops.append(Op(f"count_class invseq pcat {m}", _api(P, "count_class", "invseq-triple", triple, m),
                  lambda r, ctx, w=pcat[m]: None if r == w else f"counted {r}, expected {w}"))
    m = s["count_path"]
    ops.append(Op(f"count_class path vmdyck {m}", _api(P, "count_class", "path-kind", pc.objects.PathKind.VMDYCK, m),
                  lambda r, ctx, w=pcat[m]: None if r == w else f"counted {r}, expected {w}"))
    return ops


# -- rules_series -------------------------------------------------------------------


def build_rules_series(pc, rng, size, inputs):
    s = SIZES["rules_series"][size]
    G, S = pc.gentree, pc.series
    top = max(max(s["levels"].values()), s["dist"])
    seqs = {rule: O.sequence_for(rule, top) for rule in RULES}
    tri = O.powered_catalan_triangle(max(s["callan"], s["dist"]))
    a108 = O.a108307(max(s["kernel"], s["e3"]))
    ops = []

    for rule in RULES:
        d = s["levels"][rule]
        want = seqs[rule][1 : d + 1]
        ops.append(Op(f"level_counts {rule} {d}", _api(G, "level_counts", rule, d),
                      lambda r, ctx, w=want: None if r == w else "level counts differ from the counting sequence"))

    d = s["dist"]

    def check_dist(r, ctx, rule):
        if len(r) != d:
            return f"{len(r)} levels, expected {d}"
        for m, level in enumerate(r, start=1):
            if sum(level.values()) != seqs[rule][m]:
                return f"level {m} holds {sum(level.values())} nodes, expected {seqs[rule][m]}"
        if rule == "pcat":
            for m, level in enumerate(r, start=1):
                if level != {(k,): tri[m][k] for k in range(1, m + 1)}:
                    return f"pcat labels at level {m} differ from the triangle row"
        ctx[rule] = r
        if rule == "steady" and "p1234" in ctx:
            for m, (a, b) in enumerate(zip(ctx["p1234"], r), start=1):
                moved = Counter()
                for lab, c in a.items():
                    moved[O.p1234_to_steady(lab)] += c
                if moved != Counter(b):
                    return f"relabelled p1234 level {m} differs from the steady level"
        return None

    for rule in RULES:
        ops.append(Op(f"label_distribution {rule} {d}", _api(G, "label_distribution", rule, d), partial(check_dist, rule=rule)))

    n = s["callan"]
    want_rows = tuple(tuple(row) for row in tri[: n + 1])
    ops.append(Op(f"callan_triangle {n}", _api(S, "callan_triangle", n),
                  lambda r, ctx: None if tuple(tuple(x) for x in r.rows) == want_rows else "triangle rows differ"))
    n = s["kernel"]
    ops.append(Op(f"kernel_a11 {n}", _api(S, "kernel_a11", n),
                  lambda r, ctx, w=a108[1 : n + 1]: None if r == w else "kernel coefficients differ from A108307"))
    n = s["residual"]
    ops.append(Op(f"functional_equation_residual {n}", _api(S, "functional_equation_residual", n),
                  lambda r, ctx, n=n: None if len(r) == n and not any(r) else "nonzero residual"))
    n = s["e3"]
    ops.append(Op(f"e3_sequence {n}", _api(S, "e3_sequence", n),
                  lambda r, ctx, w=a108[: n + 1]: None if r == w else "E3 terms differ from the A108307 recurrence"))
    return ops


# -- certify ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    """An input enumerated during set-up failed its oracle check."""


def _checked_inputs(rng, objs, want, member, what):
    """Inputs enumerated by powcat: the right number, distinct, and a seeded
    sample of them members by the oracle."""
    if len(objs) != want or len(set(objs)) != want or not all(member(objs[i]) for i in _sample(rng, want, 200)):
        raise SetupError(f"{what}: {len(objs)} inputs, expected {want} distinct members")
    return objs


def _growth_member(fam, n, steady_words):
    """Brute-force membership of an object of size n in a growth family
    (steady paths: the shape test and powcat's own steady words, since the
    oracle leaves out the suffix conditions)."""
    if fam == "pcat:vmdyck":
        return lambda p: O.is_vmdyck(p.steps, p.marks, n)
    if fam == "pcat:tree":
        return lambda t: O.is_increasing_leaf_tree(_tree_tuple(t), n)
    if fam == "steady":
        return lambda p: O.is_steady_shape(p.steps, n) and p.steps in steady_words[n]
    if fam == "p1234":
        return lambda p: len(p.values) == n and O.in_perm_class(p.values, ["1-23-4"])
    base = "cat" if fam == "cat2" else fam.split(":")[0]
    return lambda e: len(e.entries) == n and O.in_family(base, e.entries)


def _children_sample(pc, fam, n_max, rng, k, steady_words):
    """Children of a seeded sample of members of each size below n_max:
    every child a member by the oracle, the children's label multiset the
    rule's production from the parent's label, and each emitted label the
    label computed on the child."""
    G = pc.growth
    fg = G.FAMILIES[fam]
    for size in range(1, n_max):
        members = fg.enumerate(size)
        member = _growth_member(fam, size + 1, steady_words)
        for i in _sample(rng, len(members), k):
            parent = members[i]
            kids = list(fg.children(parent))
            text = pc.objects.to_text(parent)
            if not all(member(c) for c, _ in kids):
                return f"{fam}: a child of {text} is not a member"
            if Counter(lab for _, lab in kids) != Counter(G.expand_label(fg.rule, fg.label(parent))):
                return f"{fam}: child labels of {text} differ from the rule's production"
            if any(fg.label(c) != lab for c, lab in kids):
                return f"{fam}: a child of {text} carries a label other than its own"
    return None


def _growth_canary(G, fam, n):
    """growth_consistency on the family with a planted fault must report it:
    first every parent loses its last child, then sibling labels rotate."""
    real = G.FAMILIES[fam]

    def rotated(obj):
        kids = list(real.children(obj))
        return [(c, kids[(i + 1) % len(kids)][1]) for i, (c, _) in enumerate(kids)]

    faults = {"a dropped child": lambda obj: list(real.children(obj))[:-1], "rotated sibling labels": rotated}
    try:
        for what, children in faults.items():
            G.FAMILIES[fam] = dataclasses.replace(real, children=children)
            if G.growth_consistency(fam, n).ok:
                return f"{fam}: growth_consistency did not report {what}"
    finally:
        G.FAMILIES[fam] = real
    return None


def build_certify(pc, rng, size, inputs):
    s = SIZES["certify"][size]
    P, B, K = pc.patterns, pc.bijections, pc.objects.PathKind
    Perm = pc.objects.Permutation
    top = max(s["growth"], s["star"], s["steady_perm"], s["catalan"])
    pcat, cat = O.powered_catalan(top), O.catalan(top)
    ops = []

    G = pc.growth
    steady_words = {m: set(P.steady_words(m)) for m in range(2, s["growth"] + 1)}
    for fam in GROWTH_FAMILIES:
        n = s["growth"]
        want = sum(O.sequence_for(fam, n)[1 : n + 1])
        # checked once per run, in the first check: growth_consistency must
        # catch planted faults, and a seeded sample of children must pass
        # the oracles, so a self-check that stops checking shows up
        independent = []

        def check_growth(r, ctx, fam=fam, n=n, want=want, independent=independent):
            if not r.ok:
                return f"{fam}: {r.violations[0]}"
            if (r.family, r.n_max, r.objects_checked) != (fam, n, want):
                return f"{fam}: checked {r.objects_checked} objects, expected {want}"
            if not independent:
                independent.append(_growth_canary(G, fam, s["canary"])
                                   or _children_sample(pc, fam, n, rng, s["children_sample"], steady_words))
            return independent[0]

        ops.append(Op(f"growth_consistency {fam} {n}", _api(G, "growth_consistency", fam, n), check_growth))

    n = s["star"]
    steadies = _checked_inputs(rng, inputs(P.enumerate_class, "path-kind", K.STEADY, n), pcat[n],
                               lambda p: O.is_steady_shape(p.steps, n), f"steady paths of size {n}")
    vmdycks = _checked_inputs(rng, inputs(P.enumerate_class, "path-kind", K.VMDYCK, n), pcat[n],
                              lambda p: O.is_vmdyck(p.steps, p.marks, n), f"marked Dyck paths of size {n}")
    steady_set, vmdyck_set = {p.steps for p in steadies}, {_path_key(q) for q in vmdycks}

    def check_phi(r, ctx):
        if {(img.kind, *_path_key(img)) for img in r} != {(K.VMDYCK, *key) for key in vmdyck_set}:
            return "phi* image is not the set of marked Dyck paths"
        for p, img in zip(steadies, r):
            if O.w_count(p.steps) != sum(img.marks) or O.diagonal_steps(p.steps) != O.diagonal_steps(img.steps):
                return f"phi*({p.steps}) breaks the statistics contract"
        ctx["phi"] = {p.steps: _path_key(img) for p, img in zip(steadies, r)}
        return None

    def check_theta(r, ctx):
        if {img.steps for img in r} != steady_set or any(img.kind is not K.STEADY for img in r):
            return "theta* image is not the set of steady paths"
        for q, img in zip(vmdycks, r):
            if sum(q.marks) != O.w_count(img.steps) or O.diagonal_steps(q.steps) != O.diagonal_steps(img.steps):
                return f"theta*({q.steps}) breaks the statistics contract"
        back = {_path_key(q): img.steps for q, img in zip(vmdycks, r)}
        if "phi" in ctx and any(back[key] != p for p, key in ctx["phi"].items()):
            return "theta*(phi*(p)) != p"
        return None

    ops.append(Op(f"phi_star all steady {n}", lambda: list(map(B.phi_star, steadies)), check_phi))
    ops.append(Op(f"theta_star all vmdyck {n}", lambda: list(map(B.theta_star, vmdycks)), check_theta))

    def pair(fwd, inv, doms, label, key_a, key_b):
        """A map over every member of its domain and its inverse over the
        codomain: both images must be the other class, and inv(fwd(a)) == a."""
        dom_a, dom_b = doms
        set_a, set_b = {key_a(a) for a in dom_a}, {key_b(b) for b in dom_b}

        def check_fwd(r, ctx):
            if len(r) != len(dom_a) or {key_b(x) for x in r} != set_b:
                return f"{label} image is not its codomain"
            ctx[label] = {key_a(a): key_b(x) for a, x in zip(dom_a, r)}
            return None

        def check_inv(r, ctx):
            if len(r) != len(dom_b) or {key_a(x) for x in r} != set_a:
                return f"{label} inverse image is not its domain"
            fwd_map = ctx.get(label)
            if fwd_map is not None and any(fwd_map[key_a(x)] != key_b(b) for b, x in zip(dom_b, r)):
                return f"{label}: the map and its inverse do not compose to the identity"
            return None

        return [
            Op(f"{fwd} all {len(dom_a)}", lambda: list(map(getattr(B, fwd), dom_a)), check_fwd),
            Op(f"{inv} all {len(dom_b)}", lambda: list(map(getattr(B, inv), dom_b)), check_inv),
        ]

    n = s["steady_perm"]
    paths = _checked_inputs(rng, inputs(P.enumerate_class, "path-kind", K.STEADY, n), pcat[n],
                            lambda p: O.is_steady_shape(p.steps, n), f"steady paths of size {n}")
    perms = _checked_inputs(rng, [Perm(v) for v in inputs(P.perm_class_raw, (B.PAT_1_34_2,), n)], pcat[n],
                            lambda p: O.in_perm_class(p.values, ["1-34-2"]), f"AV(1-34-2) of size {n}")
    ops += pair("steady_to_perm", "perm_to_steady", (paths, perms), "steady-perm",
                lambda p: p.steps, lambda q: q.values)

    n = s["catalan"]
    seqs = _checked_inputs(rng, inputs(P.enumerate_class, "invseq-triple", P.RelationTriple(*O.FAMILY_TRIPLES["cat"]), n), cat[n],
                           lambda e: O.in_family("cat", e.entries), f"Catalan inversion sequences of size {n}")
    cperms = _checked_inputs(rng, [Perm(v) for v in inputs(P.perm_class_raw, (B.PAT_1_23, B.PAT_2_14_3), n)], cat[n],
                             lambda p: O.in_perm_class(p.values, ["1-23", "2-14-3"]), f"AV(1-23, 2-14-3) of size {n}")
    ops += pair("catalan_invseq_to_perm", "catalan_perm_to_invseq", (seqs, cperms), "catalan",
                lambda e: e.entries, lambda q: q.values)

    for name in s["checks"]:
        ops.append(Op(f"verify {name}", _api(pc.verify.CHECKS, name),
                      lambda r, ctx: None if r.ok else f"{r.name}: {r.counterexample}"))
    return ops


# -- requests ------------------------------------------------------------------------------


def _ints(text):
    return [int(x) for x in text.strip().split(",")]


def _parse_path(text):
    word, _, marks = text.strip().partition(";marks=")
    return word, tuple(_ints(marks)) if marks else ()


def _list_payload(fmt, out):
    return json.loads(out) if fmt == "json" else _ints(out)


def _checked_once(check):
    """A request check that runs the oracle on the first output and, while
    the output stays the same, compares against that verified output."""
    verified = []

    def run(res, ctx):
        code, out = res
        if verified and res == verified[0]:
            return None
        msg = f"exit code {code}" if code != 0 else check(out)
        if msg is None:
            verified[:] = [res]
        return msg

    return run


def build_requests(pc, rng, size, inputs):
    """A seeded, shuffled stream of valid CLI requests at small sizes.

    No record of real use exists, so each of the seven subcommands gets the
    same share of the stream, spread in turn over its distinct requests
    (its families, rules, maps or sizes).  Every seed sends the same number
    of requests of each subcommand, family and size, so the latency mix
    does not depend on the seed; the seed picks the grow/map inputs and the
    order.
    """
    s = SIZES["requests"][size]
    P, G = pc.patterns, pc.growth
    top = max(*s["count"], s["levels"], *s["triangle"], s["series"], s["kernel"], *s["conjecture"], s["parent"] + 1, s["map"])
    pcat, cat, a108 = O.powered_catalan(top), O.catalan(top), O.a108307(top)
    tri = O.powered_catalan_triangle(max(*s["triangle"], *s["conjecture"]))
    formats = ("text", "json", "csv")
    templates = []  # (argv, kind, check on stdout)

    def path_text(w, m):
        return w + (";marks=" + ",".join(map(str, m)) if m else "")

    def add(argv, check):
        templates.append((argv, argv[0], check))

    def expect_count(fmt, want):
        return lambda out: None if (json.loads(out) if fmt == "json" else int(out)) == want else f"count {out.strip()} != {want}"

    def expect_list(fmt, want):
        return lambda out: None if _list_payload(fmt, out) == want else "values differ from the oracle"

    counts = []
    for n in s["count"]:
        counts += [(",".join(O.FAMILY_TRIPLES[f]), O.sequence_for(f, n)[n], n) for f in O.FAMILY_TRIPLES]
        counts.append(("perm:1-23-4", pcat[n], n))
    n = s["small"]
    counts += [
        ("avoid:" + ",".join(WORDS["semi"]), O.semi_baxter(n)[n], n),
        ("avoid:" + ",".join(WORDS["bax"]), O.baxter(n)[n], n),
        ("perm:1-23+2-14-3", cat[n], n),
        ("path:steady", pcat[n], n),
        ("path:vmdyck", pcat[n], n),
        ("path:dyck", cat[n + 1], n + 1),
        ("tree", pcat[n], n),
    ]
    for i, (family, want, n) in enumerate(counts):
        fmt = formats[i % 3]
        add(["count", "--family", family, "--n", str(n), "--format", fmt], expect_count(fmt, want))

    d = s["levels"]
    for i, rule in enumerate(RULES):
        fmt = formats[i % 3]
        add(["levels", "--rule", rule, "--depth", str(d), "--format", fmt], expect_list(fmt, O.sequence_for(rule, d)[1:]))

    for n in s["triangle"]:
        add(["triangle", "--n", str(n)],
            lambda out, rows=tri[: n + 1]: None if [_ints(line) for line in out.splitlines()] == rows else "triangle rows differ")

    n = s["series"]
    series_want = {"catalan": cat[1 : n + 1], "a108307": a108[1 : n + 1], "baxter": O.baxter(n)[1:],
                   "semibaxter": O.semi_baxter(n)[1:], "pcat": O.powered_catalan(n)[1:]}
    for i, (name, want) in enumerate(series_want.items()):
        fmt = formats[i % 3]
        add(["series", name, "--n", str(n), "--format", fmt], expect_list(fmt, want))
    n = s["kernel"]
    add(["series", "kernel-a11", "--n", str(n), "--format", "json"], expect_list("json", a108[1 : n + 1]))
    add(["series", "residual", "--n", str(s["residual"])], lambda out: None if out == "0\n" else f"residual {out.strip()}")

    def check_conjecture(out, n):
        doc = json.loads(out)
        rows = doc["evidence"]
        ok = doc["agree"] and [r["n"] for r in rows] == list(range(1, n + 1)) and all(
            r["agree"] and r["count"] == pcat[r["n"]]
            and r["distribution"] == r["triangle_row"] == {str(k): tri[r["n"]][k] for k in range(1, r["n"] + 1)}
            for r in rows
        )
        return None if ok else "conjecture evidence differs from the triangle"

    for n in s["conjecture"]:
        add(["conjecture", "--n", str(n), "--format", "json"], partial(check_conjecture, n=n))

    # grow: parents sampled from the enumerations, children checked for
    # membership by brute force and for the labels the rule produces
    parent_n = s["parent"]
    child_n = parent_n + 1
    steady_next = set(P.steady_words(child_n))
    members = {
        "invseq": lambda fam: [",".join(map(str, e)) for e in inputs(P.invseq_members, fam, parent_n)],
        "pcat:vmdyck": lambda: [path_text(w, m) for w, m in inputs(P.vmdyck_paths_raw, parent_n)],
        "pcat:tree": lambda: [O.tree_text(_tree_tuple(t)) for t in inputs(P.increasing_leaf_trees, parent_n)],
        "steady": lambda: list(inputs(P.steady_words, parent_n)),
        "p1234": lambda: [",".join(map(str, p)) for p in inputs(P.perm_class_raw, (G.P1234,), parent_n)],
    }
    child_member = {
        "pcat:vmdyck": lambda t: O.is_vmdyck(*_parse_path(t), child_n),
        "pcat:tree": lambda t: O.is_increasing_leaf_tree(O.parse_tree(t), child_n),
        "steady": lambda t: O.is_steady_shape(t, child_n) and t in steady_next,
        "p1234": lambda t: len(_ints(t)) == child_n and O.in_perm_class(tuple(_ints(t)), ["1-23-4"]),
    }
    input_kind = {"pcat:vmdyck": "vmdyck", "pcat:tree": "tree", "steady": "steady", "p1234": "perm"}
    for fam in GROWTH_FAMILIES:
        base = "cat" if fam == "cat2" else fam.split(":")[0]
        pool = members[fam]() if fam in members else members["invseq"](base)
        member = child_member.get(fam, lambda t, b=base: len(_ints(t)) == child_n and O.in_family(b, tuple(_ints(t))))
        kind = input_kind.get(fam, "invseq")
        for text in rng.sample(pool, min(s["pool"], len(pool))):

            def check_grow(out, fam=fam, text=text, member=member, kind=kind):
                kids = json.loads(out)
                objs = [k["object"] for k in kids]
                if len(set(objs)) != len(objs) or not all(member(o) for o in objs):
                    return f"grow {fam} {text}: a child is not a member or is repeated"
                fg = G.FAMILIES[fam]
                want = Counter(G.expand_label(fg.rule, fg.label(pc.objects.parse_object(text, kind))))
                if Counter(tuple(k["label"]) for k in kids) != want:
                    return f"grow {fam} {text}: child labels differ from the rule's production"
                return None

            add(["grow", "--family", fam, "--input", text, "--format", "json"], check_grow)

    # map: inputs sampled from the domain, images checked against the codomain
    map_n = s["map"]
    vmsteady = inputs(P.vmsteady_paths_raw, map_n - 1)

    def rand_perm():
        p = list(range(1, map_n + 1))
        rng.shuffle(p)
        return tuple(p)

    def stats(w, m):
        return (O.w_count(w), sum(m), O.diagonal_steps(w))

    def phi_ok(src, out, sign):
        (w, m), (w2, m2) = _parse_path(src), _parse_path(out)
        (a, b, c), (a2, b2, c2) = stats(w, m), stats(w2, m2)
        return (O.is_steady_shape(w2, map_n - 1) and a2 == a - sign and b2 == b + sign and c2 == c
                and all(0 <= x <= h for x, h in zip(m2, O.valley_heights(w2))))

    maps = {
        "tinv": ([rand_perm() for _ in range(s["pool"])], lambda src, out: tuple(_ints(out)) == O.inversion_table(src)),
        "tinv-inv": ([O.inversion_table(rand_perm()) for _ in range(s["pool"])],
                     lambda src, out: O.is_permutation(_ints(out)) and O.inversion_table(_ints(out)) == src),
        "cat-perm": (inputs(P.invseq_members, "cat", map_n), lambda src, out: len(_ints(out)) == map_n and O.in_perm_class(_ints(out), ["1-23", "2-14-3"])),
        "cat-perm-inv": (inputs(P.perm_class_raw, (pc.bijections.PAT_1_23, pc.bijections.PAT_2_14_3), map_n),
                         lambda src, out: len(_ints(out)) == map_n and O.in_family("cat", _ints(out))),
        "steady-perm": (inputs(P.steady_words, map_n), lambda src, out: len(_ints(out)) == map_n and O.in_perm_class(_ints(out), ["1-34-2"])),
        "steady-perm-inv": (inputs(P.perm_class_raw, (pc.bijections.PAT_1_34_2,), map_n), lambda src, out: O.is_steady_shape(out.strip(), map_n)),
        "phi-star": (inputs(P.steady_words, map_n), lambda src, out: O.is_vmdyck(*_parse_path(out), map_n)
                     and stats(src, ())[0] == sum(_parse_path(out)[1])
                     and O.diagonal_steps(src) == O.diagonal_steps(_parse_path(out)[0])),
        "theta-star": ([path_text(w, m) for w, m in inputs(P.vmdyck_paths_raw, map_n)],
                       lambda src, out: O.is_steady_shape(out.strip(), map_n)
                       and O.w_count(out) == sum(_parse_path(src)[1])
                       and O.diagonal_steps(out.strip()) == O.diagonal_steps(_parse_path(src)[0])),
        "phi": ([path_text(w, m) for w, m in vmsteady if "W" in w], lambda src, out: phi_ok(src, out, 1)),
        "theta": ([path_text(w, m) for w, m in vmsteady if sum(m)], lambda src, out: phi_ok(src, out, -1)),
    }
    for name, (domain, ok) in maps.items():
        for src in rng.sample(list(domain), min(s["pool"], len(domain))):
            text = src if isinstance(src, str) else ",".join(map(str, src))
            add(["map", "--name", name, "--input", text],
                lambda out, src=src, ok=ok, name=name: None if ok(src, out) else f"map {name} {src}: wrong image {out.strip()}")

    run = pc.cli.run_command
    distinct = [Op(" ".join(argv), partial(run, argv), _checked_once(check), kind) for argv, kind, check in templates]
    stream = []
    for kind in SUBCOMMANDS:
        group = [op for op in distinct if op.kind == kind]
        stream += [group[i % len(group)] for i in range(s["share"])]
    rng.shuffle(stream)
    return distinct, stream


def build_rules_certify(pc, rng, size, inputs):
    return build_rules_series(pc, rng, size, inputs) + build_certify(pc, rng, size, inputs)


BUILDERS = {
    "enumerate": build_enumerate,
    "rules_certify": build_rules_certify,
}


def build(name, pc, rng, size="full"):
    """The workload with its warm-up list.  Batch workloads warm up on their
    own operation list at the tiny sizes; requests on every distinct request."""
    inputs = Inputs()
    if name == "requests":
        distinct, stream = build_requests(pc, rng, size, inputs)
        return Workload(name, stream, cold=False, warmup=distinct, input_s=inputs.seconds)
    warmup = BUILDERS[name](pc, rng, "tiny", inputs) if size != "tiny" else []
    ops = BUILDERS[name](pc, rng, size, inputs)
    return Workload(name, ops, cold=True, warmup=warmup, input_s=inputs.seconds)
