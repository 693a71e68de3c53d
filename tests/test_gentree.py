"""The rule catalog: productions, level counts, distributions, isomorphism."""
import tracemalloc
from collections import Counter

import pytest

from powcat import gentree
from powcat.errors import SIZE_LIMITS
from powcat.gentree import (
    RULES,
    UP,
    Run,
    SuccessionRule,
    expand_label,
    label_distribution,
    level_counts,
    p1234_to_steady_relabel,
    rules_isomorphic_check,
)
from powcat.series import callan_triangle, catalan_number, e3_sequence, reference_sequence

# -- the reference: every production listed child by child, and the per-child DP


def _cat(k):
    return [(j,) for j in range(1, k + 2)]


def _cat2(h, k):
    return [(0, k + 1)] * h + [(h + d, k - d + 1) for d in range(1, k + 1)]


def _igeq3(h, k):
    return [(h - d, k + 1) for d in range(1, h + 1)] + [(h + d, k - d + 1) for d in range(1, k + 1)]


def _bax(h, k):
    return [(h - d, k + 1) for d in range(1, h)] + [(1, k + 1)] + [(h + d, k - d + 1) for d in range(1, k + 1)]


def _semi(h, k):
    return [(h - d, k + 1) for d in range(h)] + [(h + d, k - d + 1) for d in range(1, k + 1)]


def _pcat(k):
    return [(j,) for j in range(1, k + 1) for _ in range(j)] + [(k + 1,)]


def _p1234(h, k):
    if h == 1:
        return [(a, k + 2 - a) for a in range(1, k + 2)]
    return [(a, h + k + 1 - a) for a in range(1, h + 1)] + [(h + d, 0) for d in range(1, k + 1)]


def _steady(h, k):
    return [(h + k - 1 - i, i + 2) for i in range(k - 1)] + [(0, k + 1 + d) for d in range(h + 1)]


PRODUCTIONS = {"cat": _cat, "cat2": _cat2, "i-geq3": _igeq3, "bax": _bax, "semi": _semi,
               "pcat": _pcat, "p1234": _p1234, "steady": _steady}


def _per_child_distribution(rule, depth):
    levels = [{RULES[rule].axiom: 1}]
    for _ in range(depth - 1):
        nxt = {}
        for lab, cnt in levels[-1].items():
            for child in PRODUCTIONS[rule](*lab):
                nxt[child] = nxt.get(child, 0) + cnt
        levels.append(nxt)
    return levels


def test_the_reference_covers_the_catalog():
    assert set(PRODUCTIONS) == set(RULES)


@pytest.mark.parametrize("rule", sorted(PRODUCTIONS))
def test_distribution_equals_the_per_child_dp(rule):
    assert label_distribution(rule, 60) == _per_child_distribution(rule, 60)


@pytest.mark.parametrize("rule", sorted(PRODUCTIONS))
def test_expand_label_lists_the_production_in_order(rule):
    if RULES[rule].axiom == (1,):
        labels = [(k,) for k in range(31)]
    else:
        labels = [(h, k) for h in range(16) for k in range(16)]
    for lab in labels:
        assert expand_label(rule, lab) == tuple(PRODUCTIONS[rule](*lab)), lab


def _sequence_for(rule, n):
    """Terms 1..n of the rule's counting sequence, computed without any rule."""
    if rule in ("cat", "cat2"):
        return [catalan_number(m) for m in range(1, n + 1)]
    if rule == "i-geq3":
        return e3_sequence(n)[1:]
    if rule in ("bax", "semi"):
        return reference_sequence("baxter" if rule == "bax" else "semibaxter", n)
    return list(callan_triangle(n).row_sums()[1:])


@pytest.mark.parametrize("rule", sorted(PRODUCTIONS))
def test_level_counts_at_the_depth_bound(rule):
    depth = SIZE_LIMITS["depth"][1]
    assert level_counts(rule, depth) == _sequence_for(rule, depth)


LEVEL_PREFIXES = {
    "cat": [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796],
    "cat2": [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796],
    "i-geq3": [1, 2, 5, 15, 51, 191, 772, 3320, 15032, 71084],
    "bax": [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240],
    "semi": [1, 2, 6, 23, 104, 530, 2958, 17734, 112657, 750726],
    "pcat": [1, 2, 6, 23, 105, 549, 3207, 20577, 143239, 1071704],
    "p1234": [1, 2, 6, 23, 105, 549, 3207, 20577, 143239, 1071704],
    "steady": [1, 2, 6, 23, 105, 549, 3207, 20577, 143239, 1071704],
}


def test_expand_label_examples():
    assert expand_label("cat", (3,)) == ((1,), (2,), (3,), (4,))
    assert sorted(expand_label("pcat", (2,))) == [(1,), (2,), (2,), (3,)]
    assert sorted(expand_label("steady", (0, 2))) == [(0, 3), (1, 2)]
    assert sorted(expand_label("p1234", (2, 1))) == [(1, 3), (2, 2), (3, 0)]


def test_expand_label_empty_ranges():
    # h = 0 labels produce no first-line children in the i-geq3 rule
    assert expand_label("i-geq3", (0, 2)) == ((1, 2), (2, 1))
    # k = 0 labels produce only the first line in the 1-23-4 rule
    assert expand_label("p1234", (3, 0)) == ((1, 3), (2, 2), (3, 1))


def test_malformed_labels_are_rejected():
    with pytest.raises(ValueError):
        expand_label("cat", (1, 2))
    with pytest.raises(ValueError):
        expand_label("steady", (1,))
    with pytest.raises(ValueError):
        expand_label("semi", (-1, 2))
    with pytest.raises(KeyError):
        expand_label("nosuchrule", (1,))


def test_runs_outside_the_sized_lines_are_rejected():
    # a child two steps above its parent, and one below position 0
    for runs in (lambda k: (Run((k + 2,), UP, 1),), lambda k: (Run((k - 2,), UP, 1),)):
        rule = SuccessionRule("leap", (1,), runs)
        with pytest.raises(ValueError):
            label_distribution(rule, 3)


def test_axioms():
    assert RULES["cat"].axiom == (1,)
    assert RULES["pcat"].axiom == (1,)
    assert RULES["steady"].axiom == (0, 2)
    assert label_distribution("i-geq3", 1)[0] == {(1, 1): 1}


@pytest.mark.parametrize("rule", sorted(LEVEL_PREFIXES))
def test_level_counts(rule):
    assert level_counts(rule, 10) == LEVEL_PREFIXES[rule]


def test_label_distribution_examples():
    dist = label_distribution("pcat", 3)
    assert dist[1] == {(1,): 1, (2,): 1}
    assert dist[2] == {(1,): 2, (2,): 3, (3,): 1}


def test_distribution_sums_match_level_counts():
    for rule in RULES:
        dist = label_distribution(rule, 10)
        counts = level_counts(rule, 10)
        for i, lvl in enumerate(dist):
            assert sum(lvl.values()) == counts[i]


def test_pcat_distribution_is_the_triangle():
    tri = callan_triangle(12)
    dist = label_distribution("pcat", 12)
    for n in range(1, 13):
        got = {k: dist[n - 1].get((k,), 0) for k in range(1, n + 1)}
        assert got == {k: tri.value(n, k) for k in range(1, n + 1)}


def test_rule_isomorphism_p1234_steady():
    ok, divergence = rules_isomorphic_check("p1234", "steady", p1234_to_steady_relabel, 10)
    assert ok and divergence is None


def test_relabel_map_values():
    assert p1234_to_steady_relabel((1, 1)) == (0, 2)
    assert p1234_to_steady_relabel((1, 5)) == (0, 6)
    assert p1234_to_steady_relabel((3, 2)) == (2, 3)


def test_isomorphism_failure_reports_divergence():
    ok, divergence = rules_isomorphic_check("cat", "pcat", lambda l: l, 4)
    assert not ok
    level, label, ca, cb = divergence
    assert level == 3 and label == (2,) and (ca, cb) == (2, 3)
    assert rules_isomorphic_check("cat", "cat", lambda l: l, 12) == (True, None)


def test_level_counts_holds_one_level_at_a_time():
    # every level of cat2 at depth 70 kept at once peaks at about 4.3 MB
    tracemalloc.start()
    try:
        counts = level_counts("cat2", 70)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[:10] == LEVEL_PREFIXES["cat2"]
    assert peak < 1.5 * 2**20


def test_isomorphism_check_stops_at_the_first_differing_level(monkeypatch):
    # a relabel right on the axiom only: level 2 differs, so no rule needs
    # more than the one step from level 1 to level 2 (a spare one is allowed)
    steps = Counter()
    next_level = gentree._next_level

    def counted(rule, level, placed):
        steps[rule.name] += 1
        return next_level(rule, level, placed)

    monkeypatch.setattr(gentree, "_next_level", counted)
    ok, divergence = rules_isomorphic_check("p1234", "steady", lambda lab: (0, 2) if lab == (1, 1) else (0, 0), 60)
    assert not ok and divergence[0] == 2
    assert steps and max(steps.values()) <= 2


def test_igeq3_levels_solve_the_recurrence():
    from powcat.series import e3_sequence

    assert level_counts("i-geq3", 10) == e3_sequence(10)[1:]


def test_counts_are_exact_big_integers():
    deep = level_counts("pcat", 20)[-1]
    assert deep == sum(callan_triangle(20).row(20))
    assert deep > 10**12
