"""Every callable that powcat exports rejects invalid input before it
computes, with a ValueError or TypeError subclass: one table row per bad
input, naming the exact exception it must raise."""
import pytest

import powcat
from powcat.errors import LimitError, MembershipError, ParseError, UnknownNameError
from powcat.objects import InversionSequence, LatticePath, Permutation, make_path

E = InversionSequence((0, 1, 0))
P = Permutation((2, 1, 3))
DYCK = make_path("UD")
GEQ_DASH_GEQ = powcat.RelationTriple("geq", "dash", "geq")

# (exported name, arguments, the exception they must raise)
CASES = [
    ("InversionSequence", (None,), TypeError),
    ("InversionSequence", (("a",),), ValueError),
    ("LatticePath", ("UX", (), "dyck"), ParseError),
    ("LatticePath", ("UD", (), "nope"), UnknownNameError),
    ("OrderedTree", (0, (5,)), TypeError),
    ("PathKind", ("nope",), UnknownNameError),
    ("PathStatistics", (1,), TypeError),
    ("ValidationReport", (True,), TypeError),
    ("make_path", ("UD", None, "nope"), UnknownNameError),
    ("make_path", ("UDUD", (1, 2)), ParseError),
    ("parse_object", ("0,x", "invseq"), ParseError),
    ("parse_object", ("UD", "nope"), UnknownNameError),
    ("path_statistics", (5,), TypeError),
    ("path_statistics", (make_path("DU"),), MembershipError),
    ("to_text", (5,), TypeError),
    ("validate", (5,), TypeError),
    ("RelationTriple", ("geq", "geq", "x"), ParseError),
    ("VincularPattern", ((1, 1),), ParseError),
    ("WordPattern", ((),), ParseError),
    ("avoids_triple", (E, "geq,dash,geq"), TypeError),
    ("avoids_triple", ((0, 1), "geq,dash,geq"), TypeError),
    ("avoids_triple", (5, GEQ_DASH_GEQ), TypeError),
    ("avoids_vincular", (P, "1-23-4"), TypeError),
    ("avoids_vincular", (P, powcat.WordPattern((0, 1))), TypeError),
    ("avoids_word", (E, "110"), TypeError),
    ("avoids_word", (E, powcat.VincularPattern((1, 2))), TypeError),
    ("count_class", ("invseq-triple", GEQ_DASH_GEQ, 99), LimitError),
    ("count_class", ("nope", None, 3), ParseError),
    ("enumerate_class", ("path-kind", "nope", 3), UnknownNameError),
    ("enumerate_class", ("tree", None, 0), LimitError),
    ("equinumerosity_check", (("tree", None), ("tree", None), 99), LimitError),
    ("in_class", ("nope", None, E), ParseError),
    ("perm_statistics", (Permutation((1, 1)),), MembershipError),
    ("perm_statistics", ((2, 1),), TypeError),
    ("perm_statistics", (5,), TypeError),
    ("SuccessionRule", ("cat", (2,)), TypeError),
    ("expand_label", ("nope", (1,)), UnknownNameError),
    ("expand_label", ("cat", ("x",)), ValueError),
    ("label_distribution", ("cat", 10**6), LimitError),
    ("level_counts", ("cat", -1), LimitError),
    ("level_counts", ("nope", 3), UnknownNameError),
    ("rules_isomorphic_check", ("cat", "nope", tuple, 3), UnknownNameError),
    ("rules_isomorphic_check", ("cat", "cat", tuple, 10**6), LimitError),
    ("growth_consistency", ("zzz", 3), UnknownNameError),
    ("growth_consistency", ("cat", 100), LimitError),
    ("growth_consistency", ("pcat:tree", -5), LimitError),
    ("catalan_invseq_to_perm", (Permutation((1,)),), TypeError),
    ("catalan_invseq_to_perm", (InversionSequence((0, 2)),), MembershipError),
    ("catalan_perm_to_invseq", (InversionSequence((0,)),), TypeError),
    ("catalan_perm_to_invseq", (Permutation((1, 2, 3)),), MembershipError),
    ("left_inversion_table", (InversionSequence((0,)),), TypeError),
    ("left_inversion_table", (Permutation((1, 1, 2)),), MembershipError),
    ("left_inversion_table_inverse", ((3,),), MembershipError),
    ("left_inversion_table_inverse", (5,), TypeError),
    ("perm_to_steady", (DYCK,), TypeError),
    ("perm_to_steady", (Permutation((1, 3, 4, 2)),), MembershipError),
    # each path map takes its own kind only, as the growers do: any other
    # object, a path of another kind or an invalid path is no member
    ("phi", (make_path("UUDUWUDDDD", kind="steady"),), MembershipError),
    ("phi", (5,), TypeError),
    ("phi", (P,), MembershipError),
    ("phi_star", (DYCK,), MembershipError),
    ("phi_star", (make_path("UD", kind="vmsteady"),), MembershipError),
    ("steady_to_perm", (DYCK,), MembershipError),
    ("steady_to_perm", (P,), MembershipError),
    ("theta", (LatticePath("UUDUDD", (1,), "vmdyck"),), MembershipError),
    ("theta_star", (make_path("UD", kind="steady"),), MembershipError),
    ("theta_star", (E,), MembershipError),
    ("callan_triangle", (-1,), LimitError),
    ("callan_triangle", ("3",), TypeError),
    ("e3_sequence", (-1,), LimitError),
    ("functional_equation_residual", (0,), LimitError),
    ("kernel_a11", (0,), LimitError),
    ("kernel_w", (41,), LimitError),
    ("reference_sequence", ("nope", 3), UnknownNameError),
    ("reference_sequence", ("catalan", 0), LimitError),
    # appended, so that the rows above keep their test ids
    ("SuccessionRule", ("x", "bad", tuple), TypeError),
    ("SuccessionRule", ("x", (), tuple), ValueError),
    ("SuccessionRule", ("x", (1, -1), tuple), ValueError),
    ("SuccessionRule", ("x", (1,), None), TypeError),
    ("SuccessionRule", (5, (1,), tuple), TypeError),
    # int() would truncate 0.5 to 0, and a label must be an int
    ("InversionSequence", ((0, 0.5),), ValueError),
    ("Permutation", ((1, 0.5),), ValueError),
    ("LatticePath", ("UDUD", (0.5,), "vmdyck"), ValueError),
    ("OrderedTree", ("a",), TypeError),
    # int() also reads these as integers: an entry is an optional "-" and ASCII 0-9
    ("parse_object", ("0,\u0660", "invseq"), ParseError),
    ("parse_object", ("0,+0", "invseq"), ParseError),
    ("parse_object", ("0,0_0", "invseq"), ParseError),
    ("parse_object", ("1,\uff12", "perm"), ParseError),
    ("parse_object", ("UUDD;marks=+1", "vmdyck"), ParseError),
]


def test_every_exported_callable_has_a_row():
    exported = {
        name
        for name, obj in vars(powcat).items()
        if not name.startswith("_") and callable(obj) and obj.__module__.startswith("powcat.")
    }
    assert {name for name, _, _ in CASES} == exported


@pytest.mark.parametrize("name,args,exc", CASES, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)])
def test_invalid_input_raises_its_error(name, args, exc):
    assert issubclass(exc, (ValueError, TypeError))
    with pytest.raises(exc) as info:
        getattr(powcat, name)(*args)
    assert type(info.value) is exc, info.value
