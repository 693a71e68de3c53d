"""Value types, validation, statistics, and the text formats.

The steady-path conditions get an independently written brute-force oracle
(_steady_ok below, a literal transcription of the definition with quadratic
scans) and validate() must agree with it on every U/D/W word up to length 9.
is_valid() must return exactly validate().ok, exhaustively over the same
words for all four kinds and over every small integer tuple, and on those
inputs and on small trees every whole report is pinned by SHA-256.
"""
import hashlib
import re
import sys
from itertools import product

import pytest

from powcat.errors import MembershipError, ParseError
from powcat.growth import FAMILIES
from powcat.objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    is_valid,
    make_path,
    parse_object,
    path_points,
    path_statistics,
    path_valleys,
    require_valid,
    steady_code,
    steady_word,
    _tree_text,
    to_text,
    validate,
)
from powcat.patterns import dyck_words, enumerate_class, increasing_ordered_trees, steady_words


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


def test_forbidden_factors_are_reported_at_their_first_step():
    report = validate(make_path("UDUUDWDD", kind=PathKind.STEADY))
    assert [(v.invariant, v.position) for v in report.violations] == [("factor-dw", 5), ("factor-wd", 6)]
    report = validate(make_path("UUDUWDDD", kind=PathKind.STEADY))
    assert [(v.invariant, v.position) for v in report.violations] == [("factor-wd", 5)]


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


# -- the boolean membership test ------------------------------------------------


def _markings(steps):
    """Zero marks, marks at the valley heights (the largest in range, so
    every W-blocked valley above the axis carries a nonzero mark), and
    marks out of range: the first valley's above it, the last one's (when
    there are two or more valleys) below it.  An unmarked kind only needs
    the first two: any nonzero mark breaks it."""
    heights = [h for _, h in path_valleys(steps)]
    if not heights:
        return [()]
    zero = (0,) * len(heights)
    out_of_range = (heights[0] + 1,) + zero[1:-1] + ((-1,) if len(heights) > 1 else ())
    return [zero, tuple(heights), out_of_range]


def _disagreements_and_digest(objs):
    """The objects whose is_valid is not validate().ok, and the SHA-256 of
    their reports, one line each in order: each violation's invariant,
    position and detail."""
    disagree, digest = [], hashlib.sha256()
    for i, obj in enumerate(objs):
        report = validate(obj)
        if is_valid(obj) != report.ok:
            disagree.append(obj)
        line = repr([(v.invariant, v.position, v.detail) for v in report.violations])
        digest.update(("\n" * (i > 0) + line).encode())
    return disagree, digest.hexdigest()


def test_is_valid_is_validate_ok_on_every_path_word():
    paths = [
        LatticePath(steps, marks, kind)
        for steps in ("".join(w) for length in range(1, 10) for w in product("UDW", repeat=length))
        for markings in [_markings(steps)]
        for kind in PathKind
        for marks in (markings if kind.marked else markings[:2])
    ]
    assert len(paths) > 200_000
    assert _disagreements_and_digest(paths) == (
        [], "1c60b3092a622c304ef4737aa16a3185ba52e4a9e4d90983282ba4c51b310a3a"
    )


def test_is_valid_is_validate_ok_on_every_small_integer_tuple():
    objs = [
        make(values)
        for n in range(0, 7)
        for values in product(range(-1, n + 1), repeat=n)
        for make in (InversionSequence, Permutation)
    ]
    assert _disagreements_and_digest(objs) == (
        [], "f1d3bd79d4e88fec665a6169a1da77d2a7963f966ce4219482a9e224cbafddb8"
    )


def _tree_variants(t):
    """t, t with its root's children reversed, t with its labels 1 and 2
    swapped, and t with its root relabeled to its largest label + 1."""
    def relabel(node, f):
        return OrderedTree(f(node.label), tuple(relabel(c, f) for c in node.children))

    n = len(t.preorder_labels()) - 1
    yield t
    yield OrderedTree(t.label, t.children[::-1])
    yield relabel(t, lambda v: {1: 2, 2: 1}.get(v, v))
    yield OrderedTree(n + 1, t.children)


def test_is_valid_is_validate_ok_on_trees_and_their_non_members():
    trees = [variant for n in range(0, 6) for t in increasing_ordered_trees(n) for variant in _tree_variants(t)]
    disagree, digest = _disagreements_and_digest(trees)
    assert list(map(to_text, disagree)) == []
    assert sum(not is_valid(t) for t in trees) > 1000
    assert digest == "117f70a1caca59c31eba0998a43099efdbe4af8c3a0b5455c078a2a871145508"


def test_is_valid_walks_deep_trees_without_recursion():
    t = OrderedTree(3000)
    for label in range(2999, -1, -1):
        t = OrderedTree(label, (t,))
    assert is_valid(t)


def _deep_trees():
    """A 3,000-deep chain and a 3,000-leaf star, each as text and as built
    from OrderedTree(label, children)."""
    depth = 3000
    chain = OrderedTree(depth)
    for label in range(depth - 1, -1, -1):
        chain = OrderedTree(label, (chain,))
    star = OrderedTree(0, [OrderedTree(v) for v in range(1, depth + 1)])
    return [
        ("(".join(map(str, range(depth + 1))) + ")" * depth, chain),
        ("0(" + ",".join(map(str, range(1, depth + 1))) + ")", star),
    ]


@pytest.mark.parametrize("text, built", _deep_trees(), ids=["chain", "star"])
def test_deep_trees_pass_every_tree_operation_without_recursion(text, built):
    assert sys.getrecursionlimit() <= 3000
    t = parse_object(text, "tree")
    report = validate(t)
    assert report.ok == is_valid(t) and report.ok
    assert to_text(t) == text and parse_object(to_text(t), "tree") == t
    assert t.size == built.size == 3000
    assert t == built and hash(t) == hash(built)


def test_deep_trees_grow():
    grow = FAMILIES["pcat:tree"].children
    chain_text, _ = _deep_trees()[0]
    assert len(grow(parse_object(chain_text, "tree"))) == 2
    # a star with k leaves has 1 + k(k+1)/2 children
    star = OrderedTree(0, [OrderedTree(v) for v in range(1, 101)])
    assert len(grow(star)) == 5051


def test_trees_are_equal_exactly_when_their_texts_are():
    trees = [variant for n in range(0, 6) for t in increasing_ordered_trees(n) for variant in _tree_variants(t)]
    by_text = {}
    for t in trees:
        by_text.setdefault(to_text(t), []).append(t)
        assert OrderedTree(t.label, t.children) == t
    for group in by_text.values():
        assert all(t == group[0] and hash(t) == hash(group[0]) for t in group)
    assert len(set(trees)) == len(by_text)


def test_is_valid_rejects_other_types():
    with pytest.raises(TypeError):
        is_valid((0, 1))


@pytest.mark.parametrize(
    "obj, what, message",
    [
        (InversionSequence((0, 2)), "an inversion sequence", "0,2 is not an inversion sequence: e_2 = 2 violates 0 <= e_2 < 2"),
        (InversionSequence(()), "an inversion sequence", " is not an inversion sequence: length must be at least 1"),
        (Permutation((1, 1, 2)), "a permutation", "1,1,2 is not a permutation: value 1 repeated"),
        (Permutation((3, 0, 1)), "a permutation", "3,0,1 is not a permutation: value 0 outside 1..3"),
        (make_path("UDDU", kind=PathKind.DYCK), "a Dyck path", "UDDU is not a Dyck path: point (3,-1) below the x-axis"),
        (make_path("UUWDDD", kind=PathKind.DYCK), "a Dyck path", "UUWDDD is not a Dyck path: W step in a Dyck-kind path"),
        (
            make_path("UUDDUUUWUDDDDD", kind=PathKind.STEADY),
            "a steady path",
            "UUDDUUUWUDDDDD is not a steady path: UU factor ending at (6,2) is followed by point (6,4) above the line y = x - 4",
        ),
        (make_path("UUWDDD", kind=PathKind.STEADY), "a steady path", "UUWDDD is not a steady path: point (1,3) outside the cone 0 <= y <= x"),
        (
            LatticePath("UUDUDD", (2,), PathKind.VMDYCK),
            "a valley-marked Dyck path",
            "UUDUDD;marks=2 is not a valley-marked Dyck path: valley 1 at height 1 has mark 2 outside 0..1",
        ),
        (
            LatticePath("UUDUDDUWUUDDDD", (1, 0), PathKind.VMSTEADY),
            "a valley-marked steady path",
            "UUDUDDUWUUDDDD;marks=1,0 is not a valley-marked steady path: valley 1 with nontrivial mark at height 1 "
            "sits left of the W step at index 8 at the same height",
        ),
        (
            LatticePath("UDUWUUDDUDDD", (0, 2), PathKind.VMSTEADY),
            "a valley-marked steady path",
            "UDUWUUDDUDDD;marks=0,2 is not a valley-marked steady path: valley 2 at height 2 with nontrivial mark "
            "lies above the W step at index 4 (height 1)",
        ),
        (LatticePath("UDUD", (1,), PathKind.STEADY), "a steady path", "UDUD is not a steady path: valley 1 carries mark 1 != 0"),
        (
            parse_object("0(1(3)2)", "tree"),
            "an increasing-leaves tree",
            "0(1(3)2) is not an increasing-leaves tree: pre-order leaves ...3,2... are not increasing",
        ),
        (
            OrderedTree(0, (OrderedTree(2, (OrderedTree(1),)),)),
            "an increasing-leaves tree",
            "0(2(1)) is not an increasing-leaves tree: child 1 does not exceed parent 2",
        ),
        (OrderedTree(1, (OrderedTree(2),)), "an increasing-leaves tree", "1(2) is not an increasing-leaves tree: root labeled 1, expected 0"),
    ],
)
def test_require_valid_words_the_first_violation(obj, what, message):
    with pytest.raises(MembershipError) as err:
        require_valid(obj, what)
    assert str(err.value) == message


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


def test_statistics_reject_invalid_paths():
    with pytest.raises(MembershipError, match="below the x-axis"):
        path_statistics(make_path("DDUU"))
    with pytest.raises(MembershipError, match="mark 2 outside 0..1"):
        path_statistics(LatticePath("UUDUDD", (2,), PathKind.VMDYCK))  # its valley sits at height 1


# -- the steady code ----------------------------------------------------------------


def test_steady_code_examples():
    assert steady_code("UD") == (0,)
    assert steady_code("UDUD") == (0, 1)
    assert steady_code("UUDUWUDDDD") == (0, 0, 1, 0)
    assert steady_word((0, 0, 1, 0)) == "UUDUWUDDDD"


def test_steady_word_inverts_steady_code_on_every_steady_word():
    for n in range(1, 9):
        for w in steady_words(n):
            assert steady_word(steady_code(w)) == w


def test_steady_code_inverts_steady_word_on_every_inversion_sequence():
    for n in range(1, 7):
        for d in product(*map(range, range(1, n + 1))):
            assert steady_code(steady_word(d)) == d


@pytest.mark.parametrize("code", [(1,), (0, 2), (0, -1)])
def test_steady_word_rejects_codes_that_are_no_inversion_sequences(code):
    with pytest.raises(ValueError):
        steady_word(code)


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


def test_tree_children_must_be_trees():
    for children, bad in (((5,), "5"), ((OrderedTree(1), "1"), "'1'")):
        with pytest.raises(TypeError, match=f"child {len(children) - 1} of a tree must be an OrderedTree, not {bad}"):
            OrderedTree(0, children)
    assert OrderedTree(0, [OrderedTree(1)]) == parse_object("0(1)", "tree")


def test_tree_text_separates_sibling_leaves():
    t = OrderedTree(0, (OrderedTree(1), OrderedTree(2)))
    assert to_text(t) == "0(1,2)"
    assert parse_object("0(1,2)", "tree") == t


def test_tree_text_multi_digit_labels_use_separators():
    t = OrderedTree(0, (OrderedTree(1, (OrderedTree(10),)), OrderedTree(2)))
    text = to_text(t)
    assert text == "0(1(10),2)"
    assert parse_object(text, "tree") == t


def test_tree_text_width_follows_the_largest_label():
    # the width rule stated the long way: the narrow text, then the wide one
    # when that has two adjacent digits and some label is above 9
    def two_step(t):
        narrow = _tree_text(t, False)
        return _tree_text(t, True) if re.search(r"\d\d", narrow) and max(t.labels) > 9 else narrow

    for n in range(1, 7):
        for t in enumerate_class("tree", None, n):
            for shift in (5, -12):  # labels past 9, and negative ones with two digits
                moved = OrderedTree._from_flat(tuple(x + shift for x in t.labels), t.arity)
                assert to_text(moved) == two_step(moved), t
                if min(moved.labels) >= 0:
                    assert parse_object(to_text(moved), "tree") == moved


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
