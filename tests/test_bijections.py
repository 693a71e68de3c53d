"""Inversion tables, the two permutation correspondences, and the
W-step/mark exchange maps with their statistics contract."""
import hashlib

import pytest

from powcat.bijections import (
    PAT_1_23,
    PAT_1_34_2,
    PAT_2_14_3,
    _image,
    catalan_invseq_to_perm,
    catalan_perm_to_invseq,
    left_inversion_table,
    left_inversion_table_inverse,
    perm_to_steady,
    phi,
    phi_star,
    steady_to_perm,
    theta,
    theta_star,
)
from powcat.errors import MembershipError
from powcat.objects import (
    InversionSequence,
    LatticePath,
    PathKind,
    Permutation,
    make_path,
    path_statistics,
    steady_code,
    to_text,
    validate,
)
from powcat.patterns import avoids_vincular, enumerate_class, perm_class_raw, steady_words, vmsteady_paths_raw

# the size-8 steady path whose steady code, read right to left, is
# (5,3,0,4,1,0,1,0)
BIG_STEADY = "UDUWUDUDDDUWWWWUDDDUDDUDDD"


# -- inversion tables -----------------------------------------------------------


def test_left_inversion_table_examples():
    assert left_inversion_table(Permutation((1, 2, 3))) == (0, 0, 0)
    assert left_inversion_table(Permutation((3, 2, 1))) == (2, 1, 0)
    assert left_inversion_table(Permutation((2, 4, 1, 3))) == (1, 2, 0, 0)


def test_inverse_table_round_trip_all_sizes():
    from itertools import permutations as iperm

    for n in range(1, 7):
        for v in iperm(range(1, n + 1)):
            p = Permutation(v)
            assert left_inversion_table_inverse(left_inversion_table(p)) == p


def test_inverse_rejects_out_of_bound_tables():
    with pytest.raises(MembershipError):
        left_inversion_table_inverse((3, 0, 0))


# -- Catalan correspondence ---------------------------------------------------------


def test_catalan_map_examples():
    assert catalan_invseq_to_perm(InversionSequence((0, 1, 2))).values == (3, 2, 1)
    assert catalan_invseq_to_perm(InversionSequence((0, 0, 2))).values == (3, 1, 2)


def test_catalan_map_image_at_size_3():
    from powcat.patterns import INVSEQ_FAMILIES

    members = enumerate_class("invseq-triple", INVSEQ_FAMILIES["cat"], 3)
    image = {catalan_invseq_to_perm(e).values for e in members}
    codomain = set(perm_class_raw((PAT_1_23, PAT_2_14_3), 3))
    assert image == codomain and len(image) == 5


def test_catalan_map_bijection_small():
    from powcat.patterns import INVSEQ_FAMILIES

    for n in range(1, 8):
        members = enumerate_class("invseq-triple", INVSEQ_FAMILIES["cat"], n)
        image = set()
        for e in members:
            p = catalan_invseq_to_perm(e)
            assert catalan_perm_to_invseq(p) == e
            image.add(p.values)
        assert image == set(perm_class_raw((PAT_1_23, PAT_2_14_3), n))


def test_catalan_map_rejects_outsiders():
    with pytest.raises(MembershipError):
        catalan_invseq_to_perm(InversionSequence((0, 0, 0)))
    with pytest.raises(MembershipError):
        catalan_perm_to_invseq(Permutation((1, 2, 3)))  # contains 1-23


# -- steady-path correspondence --------------------------------------------------------


def test_steady_encoding_small_paths():
    assert steady_to_perm(make_path("UD", kind=PathKind.STEADY)).values == (1,)
    assert steady_to_perm(make_path("UUDD", kind=PathKind.STEADY)).values == (1, 2)
    assert steady_to_perm(make_path("UDUD", kind=PathKind.STEADY)).values == (2, 1)


def test_the_reference_distance_sequence():
    path = make_path(BIG_STEADY, kind=PathKind.STEADY)
    assert steady_code(path.steps)[::-1] == (5, 3, 0, 4, 1, 0, 1, 0)
    p = steady_to_perm(path)
    assert left_inversion_table(p) == (5, 3, 0, 4, 1, 0, 1, 0)
    assert avoids_vincular(p, PAT_1_34_2)
    assert perm_to_steady(p).steps == BIG_STEADY


def test_steady_bijection_small():
    for n in range(1, 7):
        image = set()
        for w in steady_words(n):
            p = steady_to_perm(make_path(w, kind=PathKind.STEADY))
            assert perm_to_steady(p).steps == w
            image.add(p.values)
        assert image == set(perm_class_raw((PAT_1_34_2,), n))


def test_steady_maps_exact_images_up_to_size_8():
    # the digest pins both maps on every input, in enumeration order, n <= 8
    lines = []
    for n in range(1, 9):
        for w in steady_words(n):
            lines.append(f"{w} {to_text(steady_to_perm(make_path(w, kind=PathKind.STEADY)))}\n")
        for p in perm_class_raw((PAT_1_34_2,), n):
            lines.append(f"{to_text(Permutation(p))} {perm_to_steady(Permutation(p)).steps}\n")
    assert len(lines) == 2 * 24470
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "50ec93c674504b6af74c195cc8a4778dd282792705f9e95cb674077bce6ab330"


def test_perm_to_steady_rejects_outsiders():
    # 1342 contains 1-34-2
    with pytest.raises(MembershipError):
        perm_to_steady(Permutation((1, 3, 4, 2)))


# -- phi and theta -------------------------------------------------------------------------


def test_phi_worked_example():
    p = make_path("UUDUWUDDDD", kind=PathKind.VMSTEADY)
    img = phi(p)
    assert to_text(img) == "UUUDUDDD;marks=1"
    assert to_text(theta(img)) == "UUDUWUDDDD;marks=0"
    # phi with a nonempty block A inside the valley's factor, theta with a
    # nonempty block B after the marked valley; the pair above has neither
    assert to_text(phi(make_path("UUDDUWWUDDDD", kind=PathKind.VMSTEADY))) == "UUDUWUDDDD;marks=1"
    assert to_text(theta(LatticePath("UUDUWUDDDD", (1,), PathKind.VMSTEADY))) == "UUDDUWWUDDDD;marks=0"


def test_phi_and_theta_exact_images_up_to_size_6():
    # round trips would pass for a consistent but different pair of maps; this
    # digest pins every single-step image, in enumeration order, for n <= 6
    lines = []
    for n in range(1, 7):
        for w, m in vmsteady_paths_raw(n):
            p = LatticePath(w, m, PathKind.VMSTEADY)
            if "W" in w:
                lines.append(f"{to_text(p)} phi {to_text(phi(p))}\n")
            if any(m):
                lines.append(f"{to_text(p)} theta {to_text(theta(p))}\n")
    assert len(lines) == 1902
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "1e927464c85416483ad3682340875a5617ae6fc66d040e4027af39806a04edc2"


def test_an_invalid_image_is_reported_by_its_first_violation():
    # the word breaks DW at step 5 and then WD at step 6; its one valley's U
    # step is step 3 (index 2)
    steps = "UDUUDWDD"
    first, second = validate(LatticePath(steps, (0,), PathKind.VMSTEADY)).violations
    assert (first.detail, second.detail) == ("forbidden DW factor", "forbidden WD factor")
    with pytest.raises(AssertionError) as err:
        _image("phi", steps, [None, None, 0, None, None, None, None, None])
    assert str(err.value) == "phi image invalid: forbidden DW factor"


def test_phi_requires_a_w_step():
    with pytest.raises(MembershipError):
        phi(make_path("UUDD", kind=PathKind.VMSTEADY))


def test_theta_requires_a_mark():
    with pytest.raises(MembershipError):
        theta(make_path("UUDUWUDDDD", kind=PathKind.VMSTEADY))


def test_maps_reject_invalid_inputs():
    with pytest.raises(MembershipError):
        left_inversion_table(Permutation((1, 1, 2)))
    with pytest.raises(MembershipError):
        phi(make_path("UUDDUUUWUDDDDD", kind=PathKind.VMSTEADY))
    with pytest.raises(MembershipError):
        theta(LatticePath("UUDUDD", (2,), PathKind.VMSTEADY))  # mark above M1
    for kind in (PathKind.STEADY, PathKind.VMSTEADY):  # a steady path has no marks
        with pytest.raises(MembershipError):
            steady_to_perm(LatticePath("UDUD", (1,), kind))
    # the input is validated before any pattern is searched or table inverted
    with pytest.raises(MembershipError, match="0,2,2 is not an inversion sequence"):
        catalan_invseq_to_perm(InversionSequence((0, 2, 2)))
    with pytest.raises(MembershipError, match="1,2,3,3 is not a permutation"):
        catalan_perm_to_invseq(Permutation((1, 2, 3, 3)))
    with pytest.raises(MembershipError, match="1,3,4,2,2 is not a permutation"):
        perm_to_steady(Permutation((1, 3, 4, 2, 2)))


def test_single_steps_move_one_unit():
    for n in range(1, 6):
        for p in enumerate_class("path-kind", PathKind.VMSTEADY, n):
            st = path_statistics(p)
            if st.w_count:
                si = path_statistics(phi(p))
                assert (si.total_mark, si.w_count) == (st.total_mark + 1, st.w_count - 1)
            if st.total_mark:
                si = path_statistics(theta(p))
                assert (si.total_mark, si.w_count) == (st.total_mark - 1, st.w_count + 1)


def test_round_trips_size_up_to_6():
    for n in range(1, 7):
        for p in enumerate_class("path-kind", PathKind.VMSTEADY, n):
            st = path_statistics(p)
            if st.w_count:
                assert theta(phi(p)) == LatticePath(p.steps, p.marks, PathKind.VMSTEADY)
            if st.total_mark:
                assert phi(theta(p)) == LatticePath(p.steps, p.marks, PathKind.VMSTEADY)


# -- the star maps ----------------------------------------------------------------------------


def test_phi_star_is_the_identity_on_dyck_paths():
    for steps in ("UD", "UUDD", "UDUDUD", "UUDUDD"):
        p = make_path(steps, kind=PathKind.STEADY)
        img = phi_star(p)
        assert img.steps == steps and sum(img.marks) == 0


def test_phi_star_worked_example():
    img = phi_star(make_path("UUDUWUDDDD", kind=PathKind.STEADY))
    assert to_text(img) == "UUUDUDDD;marks=1"
    assert img.kind is PathKind.VMDYCK


def test_star_maps_reject_non_members():
    # each map takes its own kind only: a path of that kind that is no member,
    # or a path of another kind whatever its steps and marks
    for path in (
        make_path("UUDDDU", kind=PathKind.STEADY),  # leaves the cone
        make_path("", kind=PathKind.STEADY),
        make_path("UUDUWUDDDD", (1,), kind=PathKind.VMSTEADY),  # a steady path carries no marks
    ):
        with pytest.raises(MembershipError):
            phi_star(path)
    for path in (
        make_path("DDUU", kind=PathKind.VMDYCK),
        make_path("UUDUWUDDDD", kind=PathKind.VMDYCK),  # a W step
        make_path("UUDUDD", (2,), kind=PathKind.VMDYCK),  # mark above the valley's height
    ):
        with pytest.raises(MembershipError):
            theta_star(path)


def test_star_maps_are_mutually_inverse_small():
    for n in range(1, 7):
        steadies = enumerate_class("path-kind", PathKind.STEADY, n)
        vmdycks = enumerate_class("path-kind", PathKind.VMDYCK, n)
        image = {to_text(phi_star(p)) for p in steadies}
        assert image == {to_text(q) for q in vmdycks}
        for p in steadies:
            assert to_text(theta_star(phi_star(p))) == to_text(p)
        for q in vmdycks:
            assert to_text(phi_star(theta_star(q))) == to_text(q)


def test_phi_star_statistics_contract_small():
    for n in range(1, 7):
        for p in enumerate_class("path-kind", PathKind.STEADY, n):
            sp = path_statistics(p)
            si = path_statistics(phi_star(p))
            assert si.total_mark == sp.w_count
            assert si.w_count == 0
            assert si.diagonal_steps == sp.diagonal_steps
            assert si.returns_to_mark == sp.returns_to_axis
