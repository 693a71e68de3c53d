"""Cross-validation suites.

Every enumerative claim the package makes is checked here against an
independent route: brute-force enumeration vs succession-rule counting,
structural criteria vs pattern avoidance, bijections vs their codomains,
recurrences vs the kernel series.  The CLI's `verify` command and the
acceptance test module both run these same checks.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

from . import bijections, growth, patterns, series
from .errors import check_size
from .gentree import label_distribution, level_counts, p1234_to_steady_relabel, rules_isomorphic_check
from .objects import PathKind, last_descent_length, make_path, path_statistics, to_text
from .patterns import (
    RelationTriple,
    VincularPattern,
    WordPattern,
    count_class,
    enumerate_class,
    invseq_members,
)

# reference enumeration prefixes, sizes 1..len
FAMILY_PREFIXES = {
    "cat": (1, 2, 5, 14, 42, 132, 429, 1430, 4862),
    "i-geq3": (1, 2, 5, 15, 51, 191, 772, 3320),
    "bax": (1, 2, 6, 22, 92, 422, 2074),
    "semi": (1, 2, 6, 23, 104, 530, 2958),
    "pcat": (1, 2, 6, 23, 105, 549, 3207),
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
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.ok else "FAIL"


def _result(name, sizes, t0, failures, detail=""):
    return CheckResult(
        name=name,
        ok=not failures,
        sizes=sizes,
        elapsed=round(time.perf_counter() - t0, 3),
        counterexample=failures[0] if failures else None,
        detail=detail,
    )


def _all_invseqs(n):
    # plain inversion sequences of length n, as raw tuples
    from itertools import product

    return product(*(range(i) for i in range(1, n + 1)))


# -- characterizations -------------------------------------------------------------


def check_family_counts():
    """Exhaustive family sizes against the reference enumeration prefixes."""
    t0 = time.perf_counter()
    failures = []
    for fam, prefix in FAMILY_PREFIXES.items():
        got = tuple(len(invseq_members(fam, n)) for n in range(1, len(prefix) + 1))
        if got != prefix:
            failures.append(f"{fam}: counted {got}, expected {prefix}")
    return _result("family-counts", "n <= 9/8/7/7/7", t0, failures)


def check_word_characterizations():
    """Relation-triple classes coincide with their word-avoidance classes."""
    t0 = time.perf_counter()
    failures = []
    for fam, words in patterns.WORD_CHARACTERIZATIONS.items():
        wp = tuple(WordPattern.parse(w) for w in words)
        for n in range(1, 10):
            by_triple = set(invseq_members(fam, n))
            by_words = set(patterns.invseq_class_raw((), wp, n))
            if by_triple != by_words:
                diff = next(iter(by_triple ^ by_words))
                failures.append(f"{fam} n={n}: classes differ at {diff}")
                break
    return _result("word-characterizations", "n <= 9", t0, failures)


def check_structural_criteria():
    """Direct structural descriptions pick out exactly the avoidance classes."""
    t0 = time.perf_counter()
    failures = []
    for fam, crit in CRITERIA.items():
        for n in range(1, 10):
            members = set(invseq_members(fam, n))
            by_crit = {e for e in _all_invseqs(n) if crit(e)}
            if members != by_crit:
                diff = next(iter(members ^ by_crit))
                failures.append(f"{fam} criterion n={n}: differs at {diff}")
                break
    # ascent criterion for 1-23-4 on permutations, n <= 8
    from itertools import permutations as iperm

    pat = VincularPattern.parse("1-23-4")
    for n in range(1, 9):
        members = set(patterns.perm_class_raw((pat,), n))
        by_crit = {p for p in iperm(range(1, n + 1)) if patterns.ascent_min_max_criterion(p)}
        if members != by_crit:
            failures.append(f"1-23-4 ascent criterion n={n} differs")
            break
    return _result("structural-criteria", "n <= 9 (perms <= 8)", t0, failures)


def check_equinumerosity():
    """The classical inversion-sequence/permutation count equalities, n <= 7."""
    t0 = time.perf_counter()
    failures = []
    for triple_text, av in EQUINUMEROUS_PAIRS:
        triple = RelationTriple.parse(triple_text)
        pats = tuple(VincularPattern.parse("-".join(p)) for p in av)
        rows = patterns.equinumerosity_check(
            ("invseq-triple", triple), ("perm-vincular", pats), 7
        )
        for n, ca, cb, equal in rows:
            if not equal:
                failures.append(f"I({triple_text}) vs AV{av} at n={n}: {ca} != {cb}")
    # the powered Catalan pair, n <= 8
    rows = patterns.equinumerosity_check(
        ("invseq-triple", RelationTriple.parse("eq,gt,gt")),
        ("perm-vincular", VincularPattern.parse("1-23-4")),
        8,
    )
    for n, ca, cb, equal in rows:
        if not equal:
            failures.append(f"I(eq,gt,gt) vs AV(1-23-4) at n={n}: {ca} != {cb}")
    return _result("equinumerosity", "n <= 7 (+pcat pair <= 8)", t0, failures)


# -- growths ------------------------------------------------------------------------


def check_rule_object_agreement():
    """Rule level counts equal exhaustive object counts for every growth
    family, so for all eight rules."""
    t0 = time.perf_counter()
    failures = []
    for name, fam in growth.FAMILIES.items():
        depth = 7 if fam.rule == "p1234" else 8
        levels = level_counts(fam.rule, depth)
        for d in range(1, depth + 1):
            got = count_class(*fam.cls, d)
            if got != levels[d - 1]:
                failures.append(f"{name} at size {d}: {got} objects vs {levels[d - 1]} nodes")
    return _result("rule-object-agreement", "d <= 8 (p1234 <= 7)", t0, failures)


def check_count_agreement_deep():
    """Family counts vs rule levels at the top of the exhaustive range,
    including the other two powered Catalan realizations."""
    t0 = time.perf_counter()
    failures = []
    for name, fam in growth.FAMILIES.items():
        n_top = 8 if fam.rule == "p1234" else 9
        expect = level_counts(fam.rule, n_top)[n_top - 1]
        got = count_class(*fam.cls, n_top, limit=n_top)
        if got != expect:
            failures.append(f"{name} at size {n_top}: {got} objects vs {expect} nodes")
    return _result("count-agreement-deep", "n = 9 (perms 8)", t0, failures)


def check_growth_consistency():
    """Acceptance growth certification: the seven core growths at n_max = 7
    (the insertion growth one size deeper)."""
    t0 = time.perf_counter()
    failures = []
    for fam, n_max in (
        ("cat", 8),
        ("cat2", 7),
        ("i-geq3", 7),
        ("bax", 7),
        ("semi", 7),
        ("pcat:invseq", 7),
        ("steady", 7),
    ):
        rep = growth.growth_consistency(fam, n_max)
        if not rep.ok:
            failures.append(f"{fam}: {rep.violations[0]}")
    return _result("growth-consistency", "n_max = 7 (cat 8)", t0, failures)


def check_growth_consistency_extra():
    """Same certification for the remaining realizations."""
    t0 = time.perf_counter()
    failures = []
    for fam, n_max in (("p1234", 7), ("pcat:vmdyck", 7), ("pcat:tree", 7)):
        rep = growth.growth_consistency(fam, n_max)
        if not rep.ok:
            failures.append(f"{fam}: {rep.violations[0]}")
    return _result("growth-consistency-extra", "n_max = 7", t0, failures)


def check_triangle_refinements():
    """c[n][k] = pcat labels = zero-counts in I(=,>,>) = last-descent counts
    in valley-marked Dyck paths, n <= 8."""
    t0 = time.perf_counter()
    failures = []
    tri = series.callan_triangle(8)
    dist = label_distribution("pcat", 8)
    for n in range(1, 9):
        by_rule = {k: dist[n - 1].get((k,), 0) for k in range(n + 1)}
        by_zeros = Counter(e.count(0) for e in invseq_members("pcat", n))
        by_descent = Counter(last_descent_length(w) for w, _ in patterns.vmdyck_paths_raw(n))
        for k in range(n + 1):
            c = tri.value(n, k)
            if not (by_rule.get(k, 0) == by_zeros.get(k, 0) == by_descent.get(k, 0) == c):
                failures.append(
                    f"n={n} k={k}: triangle {c}, rule {by_rule.get(k, 0)}, "
                    f"zeros {by_zeros.get(k, 0)}, descents {by_descent.get(k, 0)}"
                )
    return _result("triangle-refinements", "n <= 8", t0, failures)


def check_rule_isomorphism():
    """The 1-23-4 rule relabels onto the steady rule, depth 10."""
    t0 = time.perf_counter()
    ok, divergence = rules_isomorphic_check("p1234", "steady", p1234_to_steady_relabel, 10)
    failures = [] if ok else [f"diverges at {divergence}"]
    return _result("rule-isomorphism", "depth 10", t0, failures)


def check_label_distribution_consistency():
    """Per-level label counts sum to the level counts; pcat labels follow the
    triangle recurrence out to depth 12."""
    t0 = time.perf_counter()
    failures = []
    for rule in ("cat", "cat2", "i-geq3", "bax", "semi", "pcat", "p1234", "steady"):
        dist = label_distribution(rule, 10)
        levels = level_counts(rule, 10)
        for i, lvl in enumerate(dist):
            if sum(lvl.values()) != levels[i]:
                failures.append(f"{rule} level {i + 1}: distribution sum mismatch")
    tri = series.callan_triangle(12)
    dist = label_distribution("pcat", 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            if dist[n - 1].get((k,), 0) != tri.value(n, k):
                failures.append(f"pcat label ({k}) at level {n} != c[{n}][{k}]")
    return _result("label-distribution", "depth <= 12", t0, failures)


# -- bijections -----------------------------------------------------------------------


def check_catalan_correspondence():
    """Reversed-table map is a bijection I(geq,dash,geq) -> AV(1-23, 2-14-3)."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 10):
        members = enumerate_class("invseq-triple", patterns.INVSEQ_FAMILIES["cat"], n)
        images = set()
        for e in members:
            p = bijections.catalan_invseq_to_perm(e)
            if to_text(bijections.catalan_perm_to_invseq(p)) != to_text(e):
                failures.append(f"n={n}: round trip broke at {to_text(e)}")
            images.add(p.values)
        codomain = set(
            patterns.perm_class_raw((bijections.PAT_1_23, bijections.PAT_2_14_3), n)
        )
        if images != codomain:
            failures.append(f"n={n}: image has {len(images)} perms, codomain {len(codomain)}")
    return _result("catalan-correspondence", "n <= 9", t0, failures)


def check_steady_correspondence():
    """Diagonal-distance encoding is a bijection steady paths -> AV(1-34-2)."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        words = patterns.steady_words(n)
        images = set()
        for w in words:
            path = make_path(w, kind=PathKind.STEADY)
            p = bijections.steady_to_perm(path)
            if bijections.perm_to_steady(p).steps != w:
                failures.append(f"n={n}: round trip broke at {w}")
            images.add(p.values)
        codomain = set(patterns.perm_class_raw((bijections.PAT_1_34_2,), n))
        if images != codomain:
            failures.append(f"n={n}: image {len(images)} vs codomain {len(codomain)}")
    return _result("steady-correspondence", "n <= 8", t0, failures)


def check_star_maps():
    """phi*/theta* are mutually inverse bijections with the statistics
    contract (W count -> total mark, diagonal steps kept, returns to axis ->
    returns to the mark)."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 8):
        steadies = enumerate_class("path-kind", PathKind.STEADY, n)
        images = set()
        for p in steadies:
            img = bijections.phi_star(p)
            sp, si = path_statistics(p), path_statistics(img)
            if si.total_mark != sp.w_count:
                failures.append(f"{p.steps}: mark {si.total_mark} != W count {sp.w_count}")
            if si.diagonal_steps != sp.diagonal_steps:
                failures.append(f"{p.steps}: diagonal steps changed")
            if si.returns_to_mark != sp.returns_to_axis:
                failures.append(f"{p.steps}: returns contract broke")
            if to_text(bijections.theta_star(img)) != to_text(p):
                failures.append(f"{p.steps}: theta*(phi*) is not the identity")
            images.add(to_text(img))
        vmdycks = {to_text(q) for q in enumerate_class("path-kind", PathKind.VMDYCK, n)}
        if images != vmdycks:
            failures.append(f"n={n}: phi* image is not all of the marked Dyck paths")
        for q in enumerate_class("path-kind", PathKind.VMDYCK, n):
            if to_text(bijections.phi_star(bijections.theta_star(q))) != to_text(q):
                failures.append(f"{to_text(q)}: phi*(theta*) is not the identity")
    return _result("star-maps", "n <= 7", t0, failures)


def check_single_step_maps():
    """One phi or theta step: round trips both ways and the conservation of
    total mark + W count, exhaustively over marked steady paths."""
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 7):
        for p in enumerate_class("path-kind", PathKind.VMSTEADY, n):
            st = path_statistics(p)
            if st.w_count >= 1:
                img = bijections.phi(p)
                si = path_statistics(img)
                if si.total_mark + si.w_count != st.total_mark + st.w_count:
                    failures.append(f"phi broke the mark+W invariant at {to_text(p)}")
                if to_text(bijections.theta(img)) != to_text(p):
                    failures.append(f"theta(phi) != id at {to_text(p)}")
            if st.total_mark >= 1:
                img = bijections.theta(p)
                si = path_statistics(img)
                if si.total_mark + si.w_count != st.total_mark + st.w_count:
                    failures.append(f"theta broke the mark+W invariant at {to_text(p)}")
                if to_text(bijections.phi(img)) != to_text(p):
                    failures.append(f"phi(theta) != id at {to_text(p)}")
    return _result("single-step-maps", "n <= 6", t0, failures)


# -- series ------------------------------------------------------------------------------


def check_series_agreement():
    """Kernel extraction = recurrence = brute force, n <= 9."""
    t0 = time.perf_counter()
    failures = []
    by_kernel = series.kernel_a11(9)
    by_rec = series.e3_sequence(9)[1:]
    by_brute = [len(invseq_members("i-geq3", n)) for n in range(1, 10)]
    if by_kernel != by_rec:
        failures.append(f"kernel {by_kernel} != recurrence {by_rec}")
    if by_rec != by_brute:
        failures.append(f"recurrence {by_rec} != brute force {by_brute}")
    return _result("series-agreement", "n <= 9", t0, failures)


def check_kernel_residual():
    """The kernel series satisfies its defining equation at order 8."""
    t0 = time.perf_counter()
    failures = []
    try:
        series.kernel_w(8)  # raises when the residual is nonzero
    except ArithmeticError as err:
        failures.append(str(err))
    return _result("kernel-residual", "order 8", t0, failures)


def check_functional_equation():
    """The two-catalytic-variable equation holds on the rule's distribution."""
    t0 = time.perf_counter()
    failures = []
    residuals = series.functional_equation_residual(8)
    for n, r in enumerate(residuals, start=1):
        if r:
            key = sorted(r)[0]
            failures.append(f"x^{n}: residual monomial y^{key[0]} z^{key[1]} -> {r[key]}")
    return _result("functional-equation", "order 8", t0, failures)


def check_triangle_row_sums():
    """Triangle row sums equal rule levels and family counts, n <= 9."""
    t0 = time.perf_counter()
    failures = []
    tri = series.callan_triangle(9)
    sums = tri.row_sums()
    levels = level_counts("pcat", 9)
    for n in range(1, 10):
        brute = len(invseq_members("pcat", n))
        if not (sums[n] == levels[n - 1] == brute):
            failures.append(f"n={n}: row sum {sums[n]}, levels {levels[n - 1]}, brute {brute}")
    return _result("triangle-row-sums", "n <= 9", t0, failures)


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


def check_conjecture_evidence():
    """Acceptance wrapper: the harness reports agreement through n = 9."""
    t0 = time.perf_counter()
    rows = conjecture_23_1_4_report(9)
    failures = [f"n={r['n']}: distribution differs" for r in rows if not r["agree"]]
    return _result("conjecture-23-1-4", "n <= 9 (evidence only)", t0, failures)


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


def _check_name(fn) -> str:
    return fn.__name__.removeprefix("check_").replace("_", "-")


CHECKS = {_check_name(fn): fn for fns in SUITES.values() for fn in fns}


def _run_check(fn) -> CheckResult:
    """Run one check; a broken internal invariant (AssertionError or
    ArithmeticError) inside it becomes that check's FAIL, not a crash."""
    t0 = time.perf_counter()
    try:
        return fn()
    except (ArithmeticError, AssertionError) as err:
        return _result(_check_name(fn), "n/a", t0, [str(err) or type(err).__name__])


def run_suite(suite: str, jobs: int = 1, progress=None):
    """Run one suite; results come back in declaration order regardless of
    how the checks were scheduled.  progress, when given, is called with
    each CheckResult as it becomes available (in declaration order).  jobs
    lies in its SIZE_LIMITS range; more workers than checks or CPUs are not
    started."""
    check_size("jobs", jobs)
    fns = SUITES[suite]
    results = []

    def collect(stream):
        for result in stream:
            if progress is not None:
                progress(result)
            results.append(result)

    workers = min(jobs, len(fns), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_run_check, fns))
    else:
        collect(map(_run_check, fns))
    return results
