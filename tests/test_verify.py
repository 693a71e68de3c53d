"""The verify check protocol: each check is declared once with its name and
size range, stops at its first counterexample, and reports a broken internal
invariant as its own FAIL."""
import pytest

from powcat import objects, verify

# (printed name, printed size range) of every check, in `verify all` order
DECLARED = [
    ("family-counts", "n <= 9/8/7/7/7"),
    ("word-characterizations", "n <= 9"),
    ("structural-criteria", "n <= 9 (perms <= 8)"),
    ("equinumerosity", "n <= 7 (+pcat pair <= 8)"),
    ("rule-object-agreement", "d <= 8 (p1234 <= 7)"),
    ("count-agreement-deep", "n = 9 (perms 8)"),
    ("growth-consistency", "n_max = 7 (cat 8)"),
    ("growth-consistency-extra", "n_max = 7"),
    ("triangle-refinements", "n <= 8"),
    ("rule-isomorphism", "depth 10"),
    ("label-distribution", "depth <= 12"),
    ("catalan-correspondence", "n <= 9"),
    ("steady-correspondence", "n <= 8"),
    ("star-maps", "n <= 7"),
    ("single-step-maps", "n <= 6"),
    ("series-agreement", "n <= 9"),
    ("kernel-residual", "order 8"),
    ("functional-equation", "order 8"),
    ("triangle-row-sums", "n <= 9"),
    ("conjecture-23-1-4", "n <= 9 (evidence only)"),
]

CHECK_KEYS = [
    "family-counts", "word-characterizations", "structural-criteria", "equinumerosity",
    "rule-object-agreement", "count-agreement-deep", "growth-consistency", "growth-consistency-extra",
    "triangle-refinements", "rule-isomorphism", "label-distribution-consistency",
    "catalan-correspondence", "steady-correspondence", "star-maps", "single-step-maps",
    "series-agreement", "kernel-residual", "functional-equation", "triangle-row-sums",
    "conjecture-evidence",
]


def test_declared_table_without_running_a_check():
    assert list(verify.CHECKS) == CHECK_KEYS
    assert [(fn.name, fn.sizes) for fn in verify.SUITES["all"]] == DECLARED
    assert set(verify.CHECKS.values()) == set(verify.SUITES["all"])


def test_crash_reports_the_declared_name(monkeypatch):
    def broken(*args):
        raise ArithmeticError("label distribution broke")

    monkeypatch.setattr(verify, "label_distribution", broken)
    result = verify.check_label_distribution_consistency()
    assert (result.name, result.ok, result.sizes) == ("label-distribution", False, "n/a")
    assert result.counterexample == "label distribution broke"


def test_crash_without_message_reports_the_error_type(monkeypatch):
    def broken(n_max):
        raise AssertionError

    monkeypatch.setattr(verify, "conjecture_23_1_4_report", broken)
    result = verify.check_conjecture_evidence()
    assert (result.name, result.ok, result.sizes) == ("conjecture-23-1-4", False, "n/a")
    assert result.counterexample == "AssertionError"


def test_family_counts_stops_at_its_first_counterexample(monkeypatch):
    calls = []
    members = verify.invseq_members

    def counting(fam, n):
        calls.append((fam, n))
        return members(fam, n)

    monkeypatch.setattr(verify, "invseq_members", counting)
    monkeypatch.setitem(verify.FAMILY_REFERENCES, "cat", ("pcat", 3))  # pcat's third term is 6
    result = verify.check_family_counts()
    assert (result.name, result.ok, result.sizes) == ("family-counts", False, "n <= 9/8/7/7/7")
    assert result.counterexample == "cat: counted (1, 2, 5), expected (1, 2, 6)"
    assert calls == [("cat", 1), ("cat", 2), ("cat", 3)]


@pytest.mark.parametrize("rule, n", [("M1", 2), ("M2", 4), ("M3", 5)])
def test_star_maps_sees_a_mark_rule_that_accepts_too_much(monkeypatch, rule, n):
    # with one mark rule dropped, is_valid accepts marked paths that the
    # listings leave out, first at size n, where the check stops
    violations = objects._path_violations
    monkeypatch.setattr(objects, "_path_violations", lambda path: (v for v in violations(path) if v.invariant != rule))
    result = verify.check_star_maps()
    assert (result.name, result.ok) == ("star-maps", False)
    assert result.counterexample.startswith(f"n={n}: is_valid accepts ")


@pytest.mark.parametrize("rule", ["below-axis", "endpoint"])
def test_star_maps_sees_a_dyck_rule_that_accepts_too_much(monkeypatch, rule):
    # with the below-axis or the endpoint rule dropped, is_valid accepts DU
    # or UU as a Dyck path at size 1, where the check stops
    violations = objects._path_violations
    monkeypatch.setattr(objects, "_path_violations", lambda path: (v for v in violations(path) if v.invariant != rule))
    result = verify.check_star_maps()
    assert (result.name, result.ok) == ("star-maps", False)
    assert result.counterexample.startswith("n=1: is_valid accepts 2 dyck paths against 1 listed")


@pytest.mark.parametrize("rules, n, counts", [(("S1",), 4, (24, 23)), (("S2",), 5, (107, 105)), (("S1", "S2"), 4, (24, 23))])
def test_steady_correspondence_sees_a_steady_rule_that_accepts_too_much(monkeypatch, rules, n, counts):
    # with S1 or S2 dropped, is_valid accepts code words that steady_words
    # leaves out, first at size n, where the check stops
    violations = objects._path_violations
    monkeypatch.setattr(objects, "_path_violations", lambda path: (v for v in violations(path) if v.invariant not in rules))
    result = verify.check_steady_correspondence()
    assert (result.name, result.ok) == ("steady-correspondence", False)
    assert result.counterexample.startswith("n={}: is_valid accepts {} steady paths against {} listed".format(n, *counts))


@pytest.mark.parametrize("rule, n, counts", [("increasing-leaves", 2, (3, 2)), ("increasing", 2, (3, 2)), ("labels", 1, (2, 1))])
def test_growth_consistency_extra_sees_a_tree_rule_that_accepts_too_much(monkeypatch, rule, n, counts):
    # with one tree rule dropped, is_valid accepts an unlisted, swapped or
    # raised tree at size n, where the check stops; the root rule follows
    # from the increasing and labels rules, so no candidate can show it
    violations = objects._tree_violations
    monkeypatch.setattr(objects, "_tree_violations", lambda t: (v for v in violations(t) if v.invariant != rule))
    result = verify.check_growth_consistency_extra()
    assert (result.name, result.ok) == ("growth-consistency-extra", False)
    assert result.counterexample.startswith("n={}: is_valid accepts {} increasing-leaves trees against {} listed".format(n, *counts))


def test_label_distribution_sees_a_count_moved_within_a_level(monkeypatch):
    # one node of cat2's level 5 moved to another label keeps the level's
    # sum, so only the expansion of level 4 shows it
    label_distribution = verify.label_distribution

    def planted(rule, depth):
        dist = label_distribution(rule, depth)
        if rule == "cat2":
            a, b = sorted(dist[4], key=dist[4].get, reverse=True)[:2]
            dist[4][a] -= 1
            dist[4][b] += 1
        return dist

    monkeypatch.setattr(verify, "label_distribution", planted)
    result = verify.check_label_distribution_consistency()
    assert (result.name, result.ok) == ("label-distribution", False)
    assert result.counterexample == "cat2 level 5: the DP's label counts differ from the expanded level 4"
