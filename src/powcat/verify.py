"""Cross-validation suites.

Every enumerative claim the package makes is checked here against an
independent route: brute-force enumeration vs succession-rule counting,
structural criteria vs pattern avoidance, bijections vs their codomains,
recurrences vs the kernel series.  The CLI's `verify` command and the
acceptance test module both run these same checks.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from operator import methodcaller

from . import bijections, growth, patterns, series
from .errors import UnknownNameError, check_size
from .gentree import label_distribution, level_counts, p1234_to_steady_relabel, rules_isomorphic_check
from .objects import PathKind, _path_statistics, is_valid, last_descent_length, make_path, path_valleys, steady_word, to_text
from .patterns import RelationTriple, VincularPattern, WordPattern, count_class, enumerate_class, invseq_members

# each family's series.reference_sequence name and the sizes 1..n it is counted at
FAMILY_REFERENCES = {
    "cat": ("catalan", 9),
    "i-geq3": ("a108307", 8),
    "bax": ("baxter", 7),
    "semi": ("semibaxter", 7),
    "pcat": ("pcat", 7),
}

# the eight classical-pattern correspondences, all checked at sizes <= 7
EQUINUMEROUS_PAIRS = [
    ("eq,dash,dash", ("123", "132", "231")),
    ("lt,neq,dash", ("213", "321")),
    ("eq,lt,dash", ("132", "231")),
    ("lt,geq,dash", ("213", "312")),
    ("dash,gt,dash", ("213",)),
    ("gt,lt,dash", ("2143", "3142", "4132")),
    ("gt,lt,dash", ("2143", "3142", "3241")),
    ("gt,dash,geq", ("2134", "2143")),
    ("geq,neq,geq", ("4321", "4312")),
]

CRITERIA = {
    "cat": patterns.weak_descent_criterion,
    "i-geq3": patterns.two_chain_criterion,
    "bax": patterns.baxter_inversion_criterion,
    "semi": patterns.semibaxter_inversion_criterion,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    sizes: str
    elapsed: float
    counterexample: str | None = None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "FAIL"


def check(name: str, sizes: str):
    """Declare a verify check: the decorated generator yields counterexample
    strings, and the check it becomes returns a timed CheckResult.  The first
    counterexample decides the verdict, so the generator is not resumed after
    it; a broken internal invariant (AssertionError or ArithmeticError)
    becomes the check's FAIL with sizes n/a instead of a crash.  The check
    keeps name and sizes as attributes, readable without running it."""

    def declare(gen):
        @functools.wraps(gen)
        def run() -> CheckResult:
            t0 = time.perf_counter()
            shown = sizes
            try:
                counterexample = next(gen(), None)
            except (ArithmeticError, AssertionError) as err:
                counterexample, shown = str(err) or type(err).__name__, "n/a"
            elapsed = round(time.perf_counter() - t0, 3)
            return CheckResult(name, counterexample is None, shown, elapsed, counterexample)

        run.name, run.sizes = name, sizes
        return run

    return declare


# -- characterizations -------------------------------------------------------------


@check("family-counts", "n <= 9/8/7/7/7")
def check_family_counts():
    """Exhaustive family sizes against the reference sequences."""
    for fam, (name, n_max) in FAMILY_REFERENCES.items():
        expected = tuple(series.reference_sequence(name, n_max))
        got = tuple(len(invseq_members(fam, n)) for n in range(1, n_max + 1))
        if got != expected:
            yield f"{fam}: counted {got}, expected {expected}"


@check("word-characterizations", "n <= 9")
def check_word_characterizations():
    """Relation-triple classes coincide with their word-avoidance classes."""
    for fam, words in patterns.WORD_CHARACTERIZATIONS.items():
        wp = tuple(WordPattern.parse(w) for w in words)
        for n in range(1, 10):
            by_triple = set(invseq_members(fam, n))
            by_words = set(patterns.invseq_class_raw((), wp, n))
            if by_triple != by_words:
                yield f"{fam} n={n}: classes differ at {next(iter(by_triple ^ by_words))}"


@check("structural-criteria", "n <= 9 (perms <= 8)")
def check_structural_criteria():
    """Direct structural descriptions pick out exactly the avoidance classes."""
    for fam, crit in CRITERIA.items():
        for n in range(1, 10):
            members = set(invseq_members(fam, n))
            by_crit = {e for e in product(*map(range, range(1, n + 1))) if crit(e)}
            if members != by_crit:
                yield f"{fam} criterion n={n}: differs at {next(iter(members ^ by_crit))}"
    # ascent criterion for 1-23-4 on permutations, n <= 8
    pat = VincularPattern.parse("1-23-4")
    for n in range(1, 9):
        members = set(patterns.perm_class_raw((pat,), n))
        by_crit = {p for p in permutations(range(1, n + 1)) if patterns.ascent_min_max_criterion(p)}
        if members != by_crit:
            yield f"1-23-4 ascent criterion n={n} differs"


@check("equinumerosity", "n <= 7 (+pcat pair <= 8)")
def check_equinumerosity():
    """The classical inversion-sequence/permutation count equalities, n <= 7."""
    for triple_text, av in EQUINUMEROUS_PAIRS:
        triple = RelationTriple.parse(triple_text)
        pats = tuple(VincularPattern.parse("-".join(p)) for p in av)
        for n, ca, cb, equal in patterns.equinumerosity_check(("invseq-triple", triple), ("perm-vincular", pats), 7):
            if not equal:
                yield f"I({triple_text}) vs AV{av} at n={n}: {ca} != {cb}"
    # the powered Catalan pair, n <= 8
    pcat_pair = (("invseq-triple", RelationTriple.parse("eq,gt,gt")), ("perm-vincular", VincularPattern.parse("1-23-4")))
    for n, ca, cb, equal in patterns.equinumerosity_check(*pcat_pair, 8):
        if not equal:
            yield f"I(eq,gt,gt) vs AV(1-23-4) at n={n}: {ca} != {cb}"


# -- growths ------------------------------------------------------------------------


@check("rule-object-agreement", "d <= 8 (p1234 <= 7)")
def check_rule_object_agreement():
    """Rule level counts equal exhaustive object counts for every growth
    family, so for all eight rules."""
    for name, fam in growth.FAMILIES.items():
        depth = 7 if fam.rule == "p1234" else 8
        levels = level_counts(fam.rule, depth)
        for d in range(1, depth + 1):
            got = count_class(*fam.cls, d)
            if got != levels[d - 1]:
                yield f"{name} at size {d}: {got} objects vs {levels[d - 1]} nodes"


@check("count-agreement-deep", "n = 9 (perms 8)")
def check_count_agreement_deep():
    """Family counts vs rule levels at the top of the exhaustive range,
    including the other two powered Catalan realizations."""
    for name, fam in growth.FAMILIES.items():
        n_top = 8 if fam.rule == "p1234" else 9
        expect = level_counts(fam.rule, n_top)[n_top - 1]
        got = count_class(*fam.cls, n_top, limit=n_top)
        if got != expect:
            yield f"{name} at size {n_top}: {got} objects vs {expect} nodes"


def _certify_growths(families):
    """The first growth_consistency violation of each (family, n_max) that
    fails certification."""
    for fam, n_max in families:
        rep = growth.growth_consistency(fam, n_max)
        if not rep.ok:
            yield f"{fam}: {rep.violations[0]}"


@check("growth-consistency", "n_max = 7 (cat 8)")
def check_growth_consistency():
    """Acceptance growth certification: the seven core growths at n_max = 7
    (the insertion growth one size deeper)."""
    yield from _certify_growths(
        (("cat", 8), ("cat2", 7), ("i-geq3", 7), ("bax", 7), ("semi", 7), ("pcat:invseq", 7), ("steady", 7))
    )


@check("growth-consistency-extra", "n_max = 7")
def check_growth_consistency_extra():
    """Same certification for the remaining realizations."""
    yield from _certify_growths((("p1234", 7), ("pcat:vmdyck", 7), ("pcat:tree", 7)))


@check("triangle-refinements", "n <= 8")
def check_triangle_refinements():
    """c[n][k] = pcat labels = zero-counts in I(=,>,>) = last-descent counts
    in valley-marked Dyck paths, n <= 8."""
    tri = series.callan_triangle(8)
    dist = label_distribution("pcat", 8)
    for n in range(1, 9):
        by_rule = {k: dist[n - 1].get((k,), 0) for k in range(n + 1)}
        by_zeros = Counter(e.count(0) for e in invseq_members("pcat", n))
        by_descent = Counter(last_descent_length(w) for w, _ in patterns.vmdyck_paths_raw(n))
        for k in range(n + 1):
            c = tri.value(n, k)
            if not (by_rule.get(k, 0) == by_zeros.get(k, 0) == by_descent.get(k, 0) == c):
                yield (
                    f"n={n} k={k}: triangle {c}, rule {by_rule.get(k, 0)}, "
                    f"zeros {by_zeros.get(k, 0)}, descents {by_descent.get(k, 0)}"
                )


@check("rule-isomorphism", "depth 10")
def check_rule_isomorphism():
    """The 1-23-4 rule relabels onto the steady rule, depth 10."""
    ok, divergence = rules_isomorphic_check("p1234", "steady", p1234_to_steady_relabel, 10)
    if not ok:
        yield f"diverges at {divergence}"


@check("label-distribution", "depth <= 12")
def check_label_distribution_consistency():
    """Per-level label counts sum to the level counts; pcat labels follow the
    triangle recurrence out to depth 12."""
    for rule in ("cat", "cat2", "i-geq3", "bax", "semi", "pcat", "p1234", "steady"):
        dist = label_distribution(rule, 10)
        levels = level_counts(rule, 10)
        for i, lvl in enumerate(dist):
            if sum(lvl.values()) != levels[i]:
                yield f"{rule} level {i + 1}: distribution sum mismatch"
    tri = series.callan_triangle(12)
    dist = label_distribution("pcat", 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            if dist[n - 1].get((k,), 0) != tri.value(n, k):
                yield f"pcat label ({k}) at level {n} != c[{n}][{k}]"


# -- bijections -----------------------------------------------------------------------


@check("catalan-correspondence", "n <= 9")
def check_catalan_correspondence():
    """Reversed-table map is a bijection I(geq,dash,geq) -> AV(1-23, 2-14-3)."""
    for n in range(1, 10):
        members = enumerate_class("invseq-triple", patterns.INVSEQ_FAMILIES["cat"], n)
        images = set()
        for e in members:
            p = bijections.catalan_invseq_to_perm(e)
            if bijections.catalan_perm_to_invseq(p) != e:
                yield f"n={n}: round trip broke at {to_text(e)}"
            images.add(p.values)
        codomain = set(
            patterns.perm_class_raw((bijections.PAT_1_23, bijections.PAT_2_14_3), n)
        )
        if images != codomain:
            yield f"n={n}: image has {len(images)} perms, codomain {len(codomain)}"


@check("steady-correspondence", "n <= 8")
def check_steady_correspondence():
    """The steady-code map is a bijection steady paths -> AV(1-34-2).  First,
    at each size, is_valid must accept as steady paths exactly the listed
    words among the words steady_word(d), d over every inversion sequence,
    which are all the cone-confined code words, so that a rule (S1/S2)
    accepting too much shows."""
    for n in range(1, 9):
        words = patterns.steady_words(n)
        listed = set(words)
        accepted = {w for w in map(steady_word, product(*map(range, range(1, n + 1))))
                    if is_valid(make_path(w, kind=PathKind.STEADY))}
        if accepted != listed:
            yield (f"n={n}: is_valid accepts {len(accepted)} steady paths against {len(listed)} listed, "
                   f"first differing at {min(accepted ^ listed)}")
        images = set()
        for w in words:
            path = make_path(w, kind=PathKind.STEADY)
            p = bijections.steady_to_perm(path)
            if bijections.perm_to_steady(p).steps != w:
                yield f"n={n}: round trip broke at {w}"
            images.add(p.values)
        codomain = set(patterns.perm_class_raw((bijections.PAT_1_34_2,), n))
        if images != codomain:
            yield f"n={n}: image {len(images)} vs codomain {len(codomain)}"


@check("star-maps", "n <= 7")
def check_star_maps():
    """phi*/theta* are mutually inverse bijections with the statistics
    contract (W count -> total mark, diagonal steps kept, returns to axis ->
    returns to the mark).  First, at each size, is_valid must accept exactly
    the listed Dyck words among all words over {U, D}, and the listed marked
    paths among every steady or Dyck word with each valley at height h marked
    0..h+1, so that a rule accepting too much shows."""
    for n in range(1, 8):
        listed = set(patterns.dyck_words(n))
        accepted = {w for w in map("".join, product("UD", repeat=2 * n)) if is_valid(make_path(w))}
        if accepted != listed:
            yield (f"n={n}: is_valid accepts {len(accepted)} dyck paths against {len(listed)} listed, "
                   f"first differing at {min(accepted ^ listed)}")
        for kind, words, listed in ((PathKind.VMSTEADY, patterns.steady_words(n), set(patterns.vmsteady_paths_raw(n))),
                                    (PathKind.VMDYCK, patterns.dyck_words(n), set(patterns.vmdyck_paths_raw(n)))):
            accepted = {(w, marks) for w in words for marks in product(*(range(h + 2) for _, h in path_valleys(w)))
                        if is_valid(make_path(w, marks, kind))}
            if accepted != listed:
                w, marks = min(accepted ^ listed)
                yield (f"n={n}: is_valid accepts {len(accepted)} {kind.value} paths against {len(listed)} listed, "
                       f"first differing at {to_text(make_path(w, marks, kind))}")
        steadies = enumerate_class("path-kind", PathKind.STEADY, n)
        images = set()
        for p in steadies:
            img = bijections.phi_star(p)
            sp, si = _path_statistics(p), _path_statistics(img)  # members, and phi* validates its images
            if si.total_mark != sp.w_count:
                yield f"{p.steps}: mark {si.total_mark} != W count {sp.w_count}"
            if si.diagonal_steps != sp.diagonal_steps:
                yield f"{p.steps}: diagonal steps changed"
            if si.returns_to_mark != sp.returns_to_axis:
                yield f"{p.steps}: returns contract broke"
            if bijections.theta_star(img) != p:
                yield f"{p.steps}: theta*(phi*) is not the identity"
            images.add(img)
        vmdycks = enumerate_class("path-kind", PathKind.VMDYCK, n)
        if images != set(vmdycks):
            yield f"n={n}: phi* image is not all of the marked Dyck paths"
        for q in vmdycks:
            if bijections.phi_star(bijections.theta_star(q)) != q:
                yield f"{to_text(q)}: phi*(theta*) is not the identity"


@check("single-step-maps", "n <= 6")
def check_single_step_maps():
    """One phi or theta step: round trips both ways and the conservation of
    total mark + W count, exhaustively over marked steady paths."""

    def weight(path):
        return path.steps.count("W") + sum(path.marks)

    for n in range(1, 7):
        for p in enumerate_class("path-kind", PathKind.VMSTEADY, n):
            if "W" in p.steps:
                img = bijections.phi(p)
                if weight(img) != weight(p):
                    yield f"phi broke the mark+W invariant at {to_text(p)}"
                if bijections.theta(img) != p:
                    yield f"theta(phi) != id at {to_text(p)}"
            if any(p.marks):
                img = bijections.theta(p)
                if weight(img) != weight(p):
                    yield f"theta broke the mark+W invariant at {to_text(p)}"
                if bijections.phi(img) != p:
                    yield f"phi(theta) != id at {to_text(p)}"


# -- series ------------------------------------------------------------------------------


@check("series-agreement", "n <= 9")
def check_series_agreement():
    """Kernel extraction = recurrence = brute force, n <= 9."""
    by_kernel = series.kernel_a11(9)
    by_rec = series.e3_sequence(9)[1:]
    if by_kernel != by_rec:
        yield f"kernel {by_kernel} != recurrence {by_rec}"
    by_brute = [len(invseq_members("i-geq3", n)) for n in range(1, 10)]
    if by_rec != by_brute:
        yield f"recurrence {by_rec} != brute force {by_brute}"


@check("kernel-residual", "order 8")
def check_kernel_residual():
    """The kernel series satisfies its defining equation at order 8."""
    try:
        series.kernel_w(8)  # raises when the residual is nonzero
    except ArithmeticError as err:
        yield str(err)


@check("functional-equation", "order 8")
def check_functional_equation():
    """The two-catalytic-variable equation holds on the rule's distribution."""
    for n, r in enumerate(series.functional_equation_residual(8), start=1):
        if r:
            key = sorted(r)[0]
            yield f"x^{n}: residual monomial y^{key[0]} z^{key[1]} -> {r[key]}"


@check("triangle-row-sums", "n <= 9")
def check_triangle_row_sums():
    """Triangle row sums equal rule levels and family counts, n <= 9."""
    sums = series.callan_triangle(9).row_sums()
    levels = level_counts("pcat", 9)
    for n in range(1, 10):
        brute = len(invseq_members("pcat", n))
        if not (sums[n] == levels[n - 1] == brute):
            yield f"n={n}: row sum {sums[n]}, levels {levels[n - 1]}, brute {brute}"


# -- conjecture harness ---------------------------------------------------------------------


def conjecture_23_1_4_report(n_max: int = 9):
    """RTL-minima distribution of AV(23-1-4) against the triangle.

    This is conjecture evidence, not a theorem: rows are reported with their
    agreement status and the harness never raises on a mismatch.  n_max is
    held to the size range of permutations (LimitError outside it).
    """
    check_size("perm", n_max)
    pat = VincularPattern.parse("23-1-4")
    tri = series.callan_triangle(n_max)
    rows = []
    for n in range(1, n_max + 1):
        dist = Counter(patterns.rtl_minima_count(p) for p in patterns.perm_class_raw((pat,), n))
        expected = {k: tri.value(n, k) for k in range(n + 1)}
        agree = all(dist.get(k, 0) == expected[k] for k in range(n + 1))
        rows.append(
            {
                "n": n,
                "count": sum(dist.values()),
                "distribution": {k: dist.get(k, 0) for k in range(1, n + 1)},
                "triangle_row": {k: expected[k] for k in range(1, n + 1)},
                "agree": agree,
            }
        )
    return rows


@check("conjecture-23-1-4", "n <= 9 (evidence only)")
def check_conjecture_evidence():
    """Acceptance wrapper: the harness reports agreement through n = 9."""
    for r in conjecture_23_1_4_report(9):
        if not r["agree"]:
            yield f"n={r['n']}: distribution differs"


# -- suite registry ----------------------------------------------------------------------------

SUITES = {
    "characterizations": (
        check_family_counts,
        check_word_characterizations,
        check_structural_criteria,
        check_equinumerosity,
    ),
    "growths": (
        check_rule_object_agreement,
        check_count_agreement_deep,
        check_growth_consistency,
        check_growth_consistency_extra,
        check_triangle_refinements,
        check_rule_isomorphism,
        check_label_distribution_consistency,
    ),
    "bijections": (
        check_catalan_correspondence,
        check_steady_correspondence,
        check_star_maps,
        check_single_step_maps,
    ),
    "series": (
        check_series_agreement,
        check_kernel_residual,
        check_functional_equation,
        check_triangle_row_sums,
    ),
}
SUITES["all"] = SUITES["characterizations"] + SUITES["growths"] + SUITES["bijections"] + SUITES["series"] + (check_conjecture_evidence,)

CHECKS = {fn.__name__.removeprefix("check_").replace("_", "-"): fn for fns in SUITES.values() for fn in fns}


def run_suite(suite: str, jobs: int = 1, progress=None):
    """Run one suite; results come back in declaration order regardless of
    how the checks were scheduled.  progress, when given, is called with
    each CheckResult as it becomes available (in declaration order).  jobs
    lies in its SIZE_LIMITS range; more workers than checks or CPUs are not
    started."""
    check_size("jobs", jobs)
    if suite not in SUITES:
        raise UnknownNameError("suite", suite, SUITES)
    fns = SUITES[suite]
    results = []

    def collect(stream):
        for result in stream:
            if progress is not None:
                progress(result)
            results.append(result)

    workers = min(jobs, len(fns), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(methodcaller("__call__"), fns))  # picklable, unlike a lambda
    else:
        collect(fn() for fn in fns)
    return results
