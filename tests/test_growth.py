"""Object-level growths against their rules.

Heavier exhaustive certification lives in the acceptance module; here the
frozen small examples plus consistency and unique generation at n_max = 5-6.
"""
import hashlib
from functools import partial
from itertools import product

import pytest

from powcat.errors import MembershipError, UnknownNameError
from powcat.gentree import expand_label
from powcat.growth import (
    FAMILIES,
    P1234,
    active_positions_cat,
    bax_label,
    cat2_label,
    cat_insert,
    children_rightmost_entry,
    growth_consistency,
    igeq3_label,
    pcat_children_invseq,
    pcat_parent_invseq,
    perm1234_children,
    semi_label,
    steady_children,
    steady_label,
    tree_children,
    vmdyck_children,
)
from powcat.objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    make_path,
    to_text,
)


# -- entry insertion ----------------------------------------------------------


def test_cat_insert_examples():
    e = InversionSequence((0, 0, 1, 3, 4, 5))
    assert cat_insert(e, 4).entries == (0, 0, 1, 3, 3, 4, 5)
    assert cat_insert(InversionSequence((0,)), 2).entries == (0, 1)
    assert cat_insert(InversionSequence((0,)), 1).entries == (0, 0)
    with pytest.raises(ValueError):
        cat_insert(e, 8)


def test_active_positions():
    assert active_positions_cat(InversionSequence((0,))) == [1, 2]
    assert active_positions_cat(InversionSequence((0, 1))) == [1, 2, 3]


def test_last_two_positions_always_active():
    for n in range(1, 7):
        for e in FAMILIES["cat"].enumerate(n):
            act = active_positions_cat(e)
            assert len(e) in act and len(e) + 1 in act


def test_cat_insert_membership_requires_family():
    with pytest.raises(MembershipError):
        active_positions_cat(InversionSequence((0, 0, 0)))


# -- rightmost-entry growths --------------------------------------------------------


def test_cat2_children_of_the_axiom():
    kids = children_rightmost_entry("cat2", InversionSequence((0,)))
    assert [(c.entries, lab) for c, lab in kids] == [((0, 0), (0, 2)), ((0, 1), (2, 1))]


def test_semi_children_of_the_axiom():
    kids = children_rightmost_entry("semi", InversionSequence((0,)))
    assert [(c.entries, lab) for c, lab in kids] == [((0, 0), (1, 2)), ((0, 1), (2, 1))]


def test_cat2_label_statistics():
    # h = max - mwd and k = n - max, with mwd = -1 when no weak descent
    assert cat2_label(InversionSequence((0,))) == (1, 1)
    # the equal pair 1,1 is a weak descent, so mwd = 1 and h = 0
    assert cat2_label(InversionSequence((0, 1, 1))) == (0, 2)
    assert cat2_label(InversionSequence((0, 1, 2))) == (3, 1)


def test_bax_case_split_labels():
    # all LTR maxima: case (a) with last = 0
    assert bax_label(InversionSequence((0, 1, 2))) == (3, 1)
    # (0,1,1): rightmost non-maximum 1 forms no inversion: still case (a)
    assert bax_label(InversionSequence((0, 1, 1))) == (1, 2)
    # (0,2,1): the 1 is dominated by the 2: case (b)
    assert bax_label(InversionSequence((0, 2, 1))) == (1, 1)


def _every_inversion_sequence(n_max):
    for n in range(1, n_max + 1):
        yield from product(*(range(i) for i in range(1, n + 1)))


def test_rightmost_labels_match_their_definitions_on_every_inversion_sequence():
    # members or not: every label is defined by the entries alone
    for v in _every_inversion_sequence(7):
        e, n, mx = InversionSequence(v), len(v), max(v)
        weak_descents = [v[i] for i in range(n - 1) if v[i] >= v[i + 1]]
        mwd = max(weak_descents) if weak_descents else -1
        # entries that are not strict LTR maxima: something at or above them to their left
        non_ltr = [i for i in range(n) if any(v[j] >= v[i] for j in range(i))]
        last = v[non_ltr[-1]] if non_ltr else None
        no_inversion = not non_ltr or not any(v[j] > last for j in range(non_ltr[-1]))
        assert cat2_label(e) == (mx - mwd, n - mx), v
        assert igeq3_label(e) == (mx - (-1 if last is None else last), n - mx), v
        bax_h = mx - (0 if last is None else last)
        assert bax_label(e) == (bax_h + 1 if no_inversion else bax_h, n - mx), v
        assert semi_label(e) == (mx - (0 if last is None else last) + 1, n - mx), v


def test_rightmost_growth_rejects_an_unknown_family_before_any_work():
    not_an_invseq = InversionSequence((0, 5))  # would fail membership if it were read
    for family in ("nope", "cat"):
        with pytest.raises(UnknownNameError, match="bax, cat2, i-geq3, semi"):
            children_rightmost_entry(family, not_an_invseq)


def test_bax_children_label_multiset_matches_rule():
    for n in range(1, 8):
        for e in FAMILIES["bax"].enumerate(n):
            kids = children_rightmost_entry("bax", e)
            assert sorted(lab for _, lab in kids) == sorted(expand_label("bax", bax_label(e)))


# -- powered Catalan inversion sequences ----------------------------------------------


def test_pcat_children_examples():
    kids = pcat_children_invseq(InversionSequence((0,)))
    assert [(c.entries, lab) for c, lab in kids] == [((0, 1), (1,)), ((0, 0), (2,))]
    kids = pcat_children_invseq(InversionSequence((0, 0)))
    assert sorted(lab for _, lab in kids) == [(1,), (2,), (2,), (3,)]


def test_pcat_parent_examples():
    assert pcat_parent_invseq(InversionSequence((0, 1))).entries == (0,)
    assert pcat_parent_invseq(InversionSequence((0, 0))).entries == (0,)
    with pytest.raises(ValueError):
        pcat_parent_invseq(InversionSequence((0,)))


def test_pcat_parent_inverts_children_everywhere():
    for n in range(1, 8):
        for e in FAMILIES["pcat:invseq"].enumerate(n):
            for child, _ in pcat_children_invseq(e):
                assert pcat_parent_invseq(child).entries == e.entries


# -- steady paths -----------------------------------------------------------------------


def test_steady_children_of_the_axiom():
    kids = steady_children(make_path("UD", kind=PathKind.STEADY))
    assert [(c.steps, lab) for c, lab in kids] == [("UDUD", (1, 2)), ("UUDD", (0, 3))]


def test_steady_child_count_is_the_label_sum():
    for n in range(1, 7):
        for p in FAMILIES["steady"].enumerate(n):
            h, k = steady_label(p)
            assert len(steady_children(p)) == h + k


def test_steady_children_exact_up_to_size_6():
    # the digest pins every child and its label, in order, for n <= 6
    lines = []
    for n in range(1, 7):
        for p in FAMILIES["steady"].enumerate(n):
            lines += [f"{p.steps} {c.steps} {lab}\n" for c, lab in steady_children(p)]
    assert len(lines) == 3892
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "fad1d21badd8dafe4cd546a2f30f63bea0ef036240a8d47e1e64c8240154ddca"


def test_steady_rejects_non_members():
    with pytest.raises(MembershipError):
        steady_children(make_path("UUDDUUUWUDDDDD", kind=PathKind.STEADY))
    with pytest.raises(MembershipError):
        steady_children(LatticePath("UUDDUD", (1,), PathKind.VMSTEADY))  # a steady path has no marks


def test_growers_reject_non_members():
    with pytest.raises(MembershipError):
        pcat_children_invseq(InversionSequence((0, 1, 1, 0)))  # contains 110
    with pytest.raises(MembershipError):
        perm1234_children(Permutation((1, 2, 3, 4)))
    with pytest.raises(MembershipError):
        vmdyck_children(make_path("UDU", kind=PathKind.VMDYCK))
    with pytest.raises(MembershipError):
        tree_children(OrderedTree(0, (OrderedTree(2, (OrderedTree(1),)),)))


@pytest.mark.parametrize(
    "grow,path",
    [
        (steady_children, make_path("UUDD", kind=PathKind.DYCK)),
        (steady_children, make_path("UUDD", kind=PathKind.VMSTEADY)),
        (vmdyck_children, make_path("UUDD", kind=PathKind.VMSTEADY)),
        (vmdyck_children, make_path("UUDD", kind=PathKind.DYCK)),
    ],
)
def test_path_growers_reject_valid_paths_of_another_kind(grow, path):
    # each path is valid for its own kind, so only the kind check can reject it
    assert FAMILIES["steady"].member(path) is FAMILIES["pcat:vmdyck"].member(path) is False
    with pytest.raises(MembershipError):
        grow(path)


@pytest.mark.parametrize(
    "grow,obj",
    [
        (FAMILIES["cat"].children, InversionSequence((0, 5))),
        (lambda e: children_rightmost_entry("cat2", e), InversionSequence((0, 0, 3))),
        (lambda e: children_rightmost_entry("semi", e), InversionSequence((0, 3, 1))),
        (pcat_children_invseq, InversionSequence((1,))),
        (pcat_parent_invseq, InversionSequence((0, 0, 7))),
        (perm1234_children, Permutation((1, 1))),
        (perm1234_children, Permutation((3, 1))),
    ],
)
def test_growers_reject_objects_outside_their_kind(grow, obj):
    # these avoid the family's pattern but break the kind's own invariants
    with pytest.raises(MembershipError):
        grow(obj)


# -- permutations avoiding 1-23-4 ------------------------------------------------------------


def test_perm1234_children_of_the_axiom():
    kids = perm1234_children(Permutation((1,)))
    assert [(c.values, lab) for c, lab in kids] == [((2, 1), (1, 2)), ((1, 2), (2, 1))]


def test_p1234_label_first_component_is_the_last_value():
    from powcat.growth import p1234_label

    for n in range(1, 7):
        for p in FAMILIES["p1234"].enumerate(n):
            h, _ = p1234_label(p)
            assert h == p.values[-1]


def test_active_sites_match_brute_force():
    from powcat.growth import _p1234_site_bound
    from powcat.patterns import avoids_vincular
    from powcat.growth import perm_append

    for n in range(1, 8):
        for p in FAMILIES["p1234"].enumerate(n):
            brute = [a for a in range(1, n + 2) if avoids_vincular(perm_append(p, a), P1234)]
            assert brute == list(range(1, _p1234_site_bound(p.values) + 1))


# -- marked Dyck paths and trees ----------------------------------------------------------------


def test_vmdyck_children_examples():
    kids = vmdyck_children(make_path("UD", kind=PathKind.VMDYCK))
    assert [(to_text(c), lab) for c, lab in kids] == [("UUDD", (2,)), ("UDUD;marks=0", (1,))]
    kids = vmdyck_children(make_path("UUDD", kind=PathKind.VMDYCK))
    assert sorted(lab for _, lab in kids) == [(1,), (2,), (2,), (3,)]


def test_tree_children_of_a_single_edge():
    kids = tree_children(OrderedTree(0, (OrderedTree(1),)))
    assert sorted(lab for _, lab in kids) == [(1,), (2,)]
    texts = sorted(to_text(c) for c, _ in kids)
    assert texts == ["0(1(2))", "0(1,2)"]


def test_tree_growth_level_counts():
    sizes = [len(FAMILIES["pcat:tree"].enumerate(n)) for n in range(1, 7)]
    assert sizes == [1, 2, 6, 23, 105, 549]


# -- consistency reports ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_growth_consistency_small(family):
    report = growth_consistency(family, 5)
    assert report.ok, report.violations[:3]


def test_growth_consistency_catches_breakage():
    # a deliberately wrong rule name must fail the label-multiset check
    import dataclasses

    broken = dataclasses.replace(FAMILIES["cat"], rule="pcat")
    from powcat import growth as growth_mod

    original = growth_mod.FAMILIES
    growth_mod.FAMILIES = {**original, "broken": broken}
    try:
        report = growth_consistency("broken", 3)
        assert not report.ok
    finally:
        growth_mod.FAMILIES = original


def _plant(monkeypatch, family, children):
    """Replace the growth of family, for one test, by children(obj, real)."""
    import dataclasses

    real = FAMILIES[family]
    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(real, children=lambda obj: children(obj, real.children)))


def test_growth_consistency_names_a_dropped_child(monkeypatch):
    _plant(monkeypatch, "cat", lambda e, kids: kids(e)[:-1])
    violations = growth_consistency("cat", 2).violations
    # 0 grows into 0,0 and 0,1; without its last child the production
    # falls short and 0,1 is never made
    assert violations[:2] == (
        "size 1: 0 label (1,) produced [((1,), 1)], rule says [((1,), 1), ((2,), 1)]",
        "size 2: 0,1 never generated",
    )
    assert "size 3: 0,1,2 never generated" in violations


def test_growth_consistency_names_a_duplicated_child(monkeypatch):
    _plant(monkeypatch, "pcat:tree", lambda t, kids: kids(t) + kids(t)[:1])
    violations = growth_consistency("pcat:tree", 2).violations
    assert "size 2: 0(1,2) generated 2 times" in violations
    assert "size 3: 0(1,2,3) generated 2 times" in violations
    assert violations[0].startswith("size 1: 0(1) label (1,) produced")


def test_growth_consistency_names_a_non_member_child(monkeypatch):
    # an entry one too large after the last one: 0 gets the child 0,2
    _plant(monkeypatch, "cat2", lambda e, kids: kids(e) + [(InversionSequence(e.entries + (len(e) + 1,)), (0, len(e) + 1))])
    violations = growth_consistency("cat2", 2).violations
    for text in (
        "size 1: child 0,2 of 0 fails membership",
        "size 2: 0,2 generated 1 times",
        "size 2: child 0,1,3 of 0,1 fails membership",
        "size 3: 0,1,3 generated 1 times",
    ):
        assert text in violations


def test_label_agreement_between_parent_and_child():
    for family in ("cat2", "semi", "steady", "p1234"):
        fam = FAMILIES[family]
        for n in range(1, 6):
            for obj in fam.enumerate(n):
                for child, lab in fam.children(obj):
                    assert fam.label(child) == lab


# -- the registry derived from class keys ------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_registry_members_and_counts_agree_with_the_class(family):
    from itertools import product

    from powcat.patterns import count_class

    fam = FAMILIES[family]
    for n in range(1, 6):
        members = fam.enumerate(n)
        assert all(fam.member(obj) for obj in members)
        assert count_class(*fam.cls, n) == len(members)
        if fam.kind == "invseq":
            inside = {obj.entries for obj in members}
            outside = [InversionSequence(v) for v in product(*(range(i) for i in range(1, n + 1))) if v not in inside]
            assert not any(fam.member(e) for e in outside)


def test_registry_rows_are_fixed():
    from powcat import growth as G
    from powcat.patterns import RelationTriple

    def invseq(*relations):
        return ("invseq-triple", RelationTriple(*relations))

    # key, rule, kind, class key, children (a function, or a partial's function and arguments), label, parent
    rows = [
        ("cat", "cat", "invseq", invseq("geq", "dash", "geq"), G.cat_children, G.cat_label, None),
        ("cat2", "cat2", "invseq", invseq("geq", "dash", "geq"), (G.children_rightmost_entry, ("cat2",)), G.cat2_label, None),
        ("i-geq3", "i-geq3", "invseq", invseq("geq", "geq", "geq"), (G.children_rightmost_entry, ("i-geq3",)), G.igeq3_label, None),
        ("bax", "bax", "invseq", invseq("geq", "geq", "gt"), (G.children_rightmost_entry, ("bax",)), G.bax_label, None),
        ("semi", "semi", "invseq", invseq("geq", "gt", "dash"), (G.children_rightmost_entry, ("semi",)), G.semi_label, None),
        ("pcat:invseq", "pcat", "invseq", invseq("eq", "gt", "gt"), G.pcat_children_invseq, G.pcat_label_invseq, G.pcat_parent_invseq),
        ("pcat:vmdyck", "pcat", "vmdyck", ("path-kind", PathKind.VMDYCK), G.vmdyck_children, G.vmdyck_label, None),
        ("pcat:tree", "pcat", "tree", ("tree", None), G.tree_children, G.tree_label, None),
        ("steady", "steady", "steady", ("path-kind", PathKind.STEADY), G.steady_children, G.steady_label, None),
        ("p1234", "p1234", "perm", ("perm-vincular", P1234), G.perm1234_children, G.p1234_label, None),
    ]

    def children(fam):
        if isinstance(fam.children, partial):
            assert not fam.children.keywords
            return (fam.children.func, fam.children.args)
        return fam.children

    got = [(key, f.rule, f.kind, f.cls, children(f), f.label, f.parent) for key, f in FAMILIES.items()]
    assert got == rows


def test_registry_membership_checks_the_kind_invariants():
    assert not FAMILIES["p1234"].member(Permutation((1, 1)))
    assert not FAMILIES["cat"].member(InversionSequence((0, 5)))
    assert not FAMILIES["cat"].member(Permutation((1, 2)))


def test_registry_rules_text_formats_and_cli_choices():
    from powcat.cli import build_parser
    from powcat.gentree import RULES
    from powcat.objects import parse_object

    for fam in FAMILIES.values():
        assert fam.rule in RULES
        for obj in fam.enumerate(4):
            assert parse_object(to_text(obj), fam.kind) == obj
    grow = build_parser()._subparsers._group_actions[0].choices["grow"]
    family = next(a for a in grow._actions if a.dest == "family")
    assert list(family.choices) == sorted(FAMILIES)
