"""Value types, validation, statistics, and the text formats.

The steady-path conditions get an independently written brute-force oracle
(_steady_ok below, a literal transcription of the definition with quadratic
scans) and validate() must agree with it on every U/D/W word up to length 9.
"""
from itertools import product

import pytest

from powcat.errors import ParseError
from powcat.objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    make_path,
    parse_object,
    path_points,
    path_statistics,
    to_text,
    validate,
)
from powcat.patterns import dyck_words, enumerate_class, steady_words


# -- validation ---------------------------------------------------------------


def test_smallest_steady_path_is_valid():
    assert validate(make_path("UD", kind=PathKind.STEADY)).ok


def test_steady_example_with_w_is_valid():
    assert validate(make_path("UUDUWUDDDD", kind=PathKind.STEADY)).ok


def test_steady_s1_violation_reported_with_positions():
    report = validate(make_path("UUDDUUUWUDDDDD", kind=PathKind.STEADY))
    assert not report.ok
    s1 = [v for v in report.violations if v.invariant == "S1"]
    assert s1, report.violations
    assert any("(6,2)" in v.detail and "(6,4)" in v.detail and "x - 4" in v.detail for v in s1)


def test_invseq_bound_violation_names_position():
    report = validate(InversionSequence((0, 2)))
    assert not report.ok
    v = report.violations[0]
    assert v.invariant == "bound" and v.position == 2


def test_empty_objects_rejected():
    assert not validate(InversionSequence(())).ok
    assert not validate(Permutation(())).ok


def test_permutation_validation():
    assert validate(Permutation((2, 4, 1, 3))).ok
    assert not validate(Permutation((1, 1, 2))).ok
    assert not validate(Permutation((1, 5, 2))).ok


def test_dyck_kind_rejects_w_and_dips():
    report = validate(make_path("UUWDDD", kind=PathKind.DYCK))
    assert any(v.invariant == "no-w" for v in report.violations)
    report = validate(make_path("UDDU", kind=PathKind.DYCK))
    assert any(v.invariant == "below-axis" for v in report.violations)
    report = validate(make_path("UDU", kind=PathKind.DYCK))
    assert any(v.invariant == "endpoint" for v in report.violations)
    assert validate(make_path("UUDD", kind=PathKind.DYCK)).ok


def test_mark_count_is_a_parse_level_failure():
    with pytest.raises(ParseError):
        LatticePath("UDUD", (0, 0), PathKind.DYCK)  # one valley, two marks
    with pytest.raises(ParseError):
        parse_object("UDUD;marks=0,1", "vmdyck")


def test_bad_alphabet_is_a_parse_level_failure():
    with pytest.raises(ParseError) as err:
        make_path("UXDD")
    assert err.value.position == 2


def test_vmdyck_mark_range():
    # the single valley of UUDUDD sits at height 1
    assert validate(LatticePath("UUDUDD", (1,), PathKind.VMDYCK)).ok
    report = validate(LatticePath("UUDUDD", (2,), PathKind.VMDYCK))
    assert [v.invariant for v in report.violations] == ["M1"]


def test_vmsteady_m2_m3():
    # the W of UUDUWUDDDD starts at height 2, so marking its height-1 valley
    # stays legal
    steps = "UUDUWUDDDD"
    assert validate(LatticePath(steps, (0,), PathKind.VMSTEADY)).ok
    assert validate(LatticePath(steps, (1,), PathKind.VMSTEADY)).ok
    # a marked valley at the same height as a W but on its left breaks (M3)
    steps3 = "UUDUDDUWUUDDDD"
    assert validate(make_path(steps3, kind=PathKind.STEADY)).ok
    report = validate(LatticePath(steps3, (1, 0), PathKind.VMSTEADY))
    assert [v.invariant for v in report.violations] == ["M3"]
    # a nontrivially marked valley strictly above a W breaks (M2): here the
    # W starts at height 1 and the second valley sits at height 2
    steps2 = "UDUWUUDDUDDD"
    assert validate(make_path(steps2, kind=PathKind.STEADY)).ok
    report = validate(LatticePath(steps2, (0, 2), PathKind.VMSTEADY))
    assert [v.invariant for v in report.violations] == ["M2"]


def test_all_zero_marks_required_for_unmarked_kinds():
    report = validate(LatticePath("UDUD", (0,) * 0 + (0,), PathKind.DYCK))
    assert report.ok
    report = validate(LatticePath("UDUD", (0,), PathKind.STEADY))
    assert report.ok


# -- brute-force steady oracle ---------------------------------------------------


def _steady_ok(steps):
    """Literal transcription of the steady conditions with quadratic scans."""
    pts = path_points(steps)
    if not steps:
        return False
    if any(y < 0 or y > x for x, y in pts):
        return False
    if "WD" in steps or "DW" in steps:
        return False
    n = steps.count("U")
    if pts[-1] != (2 * n, 0):
        return False
    for i in range(1, len(steps)):
        if steps[i] == "U" and steps[i - 1] in "UW":
            x, y = pts[i]
            t = x - y
            for px, py in pts[i + 2 :]:
                if py > px - t:
                    return False
    return True


def test_validate_agrees_with_brute_force_oracle_on_all_words():
    for length in range(1, 10):
        for word in product("UDW", repeat=length):
            steps = "".join(word)
            assert validate(make_path(steps, kind=PathKind.STEADY)).ok == _steady_ok(steps), steps


def test_every_dyck_word_is_a_steady_path():
    for n in range(1, 9):
        for w in dyck_words(n):
            assert validate(make_path(w, kind=PathKind.STEADY)).ok, w


def test_vmsteady_specializations():
    for n in range(1, 7):
        for p in enumerate_class("path-kind", PathKind.VMSTEADY, n):
            if "W" not in p.steps:
                assert validate(LatticePath(p.steps, p.marks, PathKind.VMDYCK)).ok, to_text(p)
            if sum(p.marks) == 0:
                assert validate(make_path(p.steps, kind=PathKind.STEADY)).ok, p.steps


def test_steady_step_counts():
    for n in range(1, 8):
        for w in steady_words(n):
            assert w.count("D") == n + w.count("W")
            assert path_points(w)[-1] == (2 * n, 0)


# -- statistics -------------------------------------------------------------------


def test_statistics_of_the_smallest_path():
    st = path_statistics(make_path("UD", kind=PathKind.STEADY))
    assert st.w_count == 0
    assert st.last_descent_length == 1
    assert st.edge_line_offset == 0
    # the D step crosses the diagonal rather than lying on it
    assert st.diagonal_steps == 1
    assert st.returns_to_axis == 0 and st.returns_to_mark == 0


def test_w_count_example():
    assert path_statistics(make_path("UUDUWUDDDD", kind=PathKind.STEADY)).w_count == 1


def test_marked_dyck_statistics_example():
    p = LatticePath("UUUDUDDD", (1,), PathKind.VMDYCK)
    st = path_statistics(p)
    assert st.total_mark == 1
    assert st.returns_to_mark == 0
    assert st.returns_to_axis == 0


def test_edge_line_of_low_paths_is_the_diagonal():
    for steps in ("UD", "UDUD", "UDUDUD"):
        assert path_statistics(make_path(steps, kind=PathKind.STEADY)).edge_line_offset == 0


def test_edge_line_offset_is_even_for_steady_paths():
    for n in range(1, 7):
        for w in steady_words(n):
            assert path_statistics(make_path(w, kind=PathKind.STEADY)).edge_line_offset % 2 == 0


def test_returns_to_mark_counts_marks_on_the_valley():
    p = LatticePath("UDUDUD", (0, 0), PathKind.VMDYCK)
    st = path_statistics(p)
    assert st.returns_to_axis == 2 and st.returns_to_mark == 2


# -- text formats -------------------------------------------------------------------


def test_parse_examples():
    assert parse_object("UUDD", "dyck").steps == "UUDD"
    p = parse_object("UUUDUDDD;marks=1", "vmdyck")
    assert p.marks == (1,)
    e = parse_object("0,0,1,3,4,5", "invseq")
    assert e.entries == (0, 0, 1, 3, 4, 5)


def test_round_trips():
    objects = [
        InversionSequence((0, 0, 1, 3, 4, 5)),
        Permutation((2, 4, 1, 3)),
        LatticePath("UUUDUDDD", (1,), PathKind.VMDYCK),
        make_path("UUDUWUDDDD", kind=PathKind.STEADY),
        OrderedTree(0, (OrderedTree(1, (OrderedTree(3),)), OrderedTree(2))),
    ]
    kinds = ["invseq", "perm", "vmdyck", "steady", "tree"]
    for obj, kind in zip(objects, kinds):
        text = to_text(obj)
        assert parse_object(text, kind) == obj
        assert to_text(parse_object(text, kind)) == text


def test_tree_text_example():
    t = parse_object("0(1(3)2)", "tree")
    assert t.preorder_labels() == [0, 1, 3, 2]
    assert to_text(t) == "0(1(3)2)"


def test_tree_validation():
    good = parse_object("0(1(2)3)", "tree")
    assert validate(good).ok
    bad_leaf_order = parse_object("0(1(3)2)", "tree")
    assert any(v.invariant == "increasing-leaves" for v in validate(bad_leaf_order).violations)
    bad_parent = OrderedTree(0, (OrderedTree(2, (OrderedTree(1),)),))
    assert any(v.invariant == "increasing" for v in validate(bad_parent).violations)


def test_tree_text_separates_sibling_leaves():
    t = OrderedTree(0, (OrderedTree(1), OrderedTree(2)))
    assert to_text(t) == "0(1,2)"
    assert parse_object("0(1,2)", "tree") == t


def test_tree_text_multi_digit_labels_use_separators():
    t = OrderedTree(0, (OrderedTree(1, (OrderedTree(10),)), OrderedTree(2)))
    text = to_text(t)
    assert text == "0(1(10),2)"
    assert parse_object(text, "tree") == t


def test_tree_text_parses_at_any_nesting_depth():
    depth = 3000
    t = parse_object("(".join(map(str, range(depth + 1))) + ")" * depth, "tree")
    for label in range(depth):
        assert t.label == label and len(t.children) == 1
        t = t.children[0]
    assert t == OrderedTree(depth)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("0(1", "unbalanced parentheses", 4),
        ("0(1(2)", "unbalanced parentheses", 7),
        ("0(x)", "expected a label, got 'x'", 3),
        ("(1)", "expected a label, got '('", 1),
        ("0)", "trailing input after tree", 2),
        ("0(1))", "trailing input after tree", 5),
        ("0,1", "expected one root, found 2", 1),
        ("", "expected one root, found 0", 1),
    ],
)
def test_malformed_tree_text(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_object(text, "tree")
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_object("0,,1", "invseq")
    with pytest.raises(ParseError):
        parse_object("0(1", "tree")
    with pytest.raises(ParseError):
        parse_object("UUDD;oops=1", "dyck")
    with pytest.raises(ParseError):
        parse_object("0(x)", "tree")
    with pytest.raises(ParseError):
        parse_object("0,1", "tree")  # two roots
    with pytest.raises(ParseError):
        parse_object("", "invseq")
