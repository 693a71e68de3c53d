"""The one size table: every guarded public entry point rejects a size just
outside its range before it computes anything."""
import time

import pytest

from powcat.errors import SIZE_LIMITS, LimitError, UnknownNameError, check_size
from powcat.gentree import get_rule, label_distribution, level_counts
from powcat.growth import FAMILIES, growth_consistency
from powcat.objects import PathKind
from powcat.patterns import RelationTriple, VincularPattern, WordPattern, count_class, enumerate_class
from powcat.series import (
    callan_triangle,
    e3_sequence,
    functional_equation_residual,
    kernel_a11,
    kernel_w,
    powered_catalan_number,
    reference_sequence,
)
from powcat.verify import conjecture_23_1_4_report, run_suite

# (size name, call of one public function at size n)
GUARDED = [
    ("invseq", lambda n: count_class("invseq-triple", RelationTriple.parse("geq,dash,geq"), n)),
    ("invseq", lambda n: enumerate_class("invseq-words", WordPattern.parse("110"), n)),
    ("perm", lambda n: count_class("perm-vincular", VincularPattern.parse("1-23-4"), n)),
    ("perm", conjecture_23_1_4_report),
    ("path", lambda n: count_class("path-kind", PathKind.STEADY, n)),
    ("path", lambda n: enumerate_class("path-kind", PathKind.VMDYCK, n)),
    ("tree", lambda n: count_class("tree", None, n)),
    ("depth", lambda n: label_distribution("p1234", n)),
    ("depth", lambda n: level_counts("steady", n)),
    ("e3", e3_sequence),
    ("triangle", callan_triangle),
    ("triangle", powered_catalan_number),
    *[(name, lambda n, name=name: reference_sequence(name, n))
      for name in ("catalan", "a108307", "pcat", "baxter", "semibaxter")],
    ("kernel", kernel_w),
    ("kernel", kernel_a11),
    ("residual", functional_equation_residual),
    ("jobs", lambda n: run_suite("series", jobs=n)),
]


# object sizes, bounded where the CLI parses grow --input and map --input
# (tests/test_cli.py steps past each one)
INPUT_SIZES = {"invseq-input", "perm-input", "path-input", "tree-input"}


def test_every_size_name_is_guarded():
    assert {name for name, _ in GUARDED} | INPUT_SIZES == set(SIZE_LIMITS)


@pytest.mark.parametrize("name,call", GUARDED, ids=[f"{name}-{i}" for i, (name, _) in enumerate(GUARDED)])
def test_one_step_outside_the_range_is_rejected_at_once(name, call):
    lowest, highest = SIZE_LIMITS[name]
    for n in (lowest - 1, highest + 1):
        t0 = time.perf_counter()
        with pytest.raises(LimitError):
            call(n)
        assert time.perf_counter() - t0 < 1.0, (name, n)


def test_bounds_cover_the_bundled_prefixes_exactly():
    # the bax and semi rules are checked against these terms out to the depth bound
    assert SIZE_LIMITS["baxter"][1] >= SIZE_LIMITS["depth"][1]
    assert SIZE_LIMITS["semibaxter"][1] >= SIZE_LIMITS["depth"][1]
    assert SIZE_LIMITS["residual"][1] <= SIZE_LIMITS["depth"][1]
    assert SIZE_LIMITS["pcat"][1] <= SIZE_LIMITS["triangle"][1]
    assert SIZE_LIMITS["a108307"][1] <= SIZE_LIMITS["e3"][1]


def test_zero_sized_primitives_keep_their_output():
    assert e3_sequence(0) == [1]
    assert callan_triangle(0).rows == ((1,),)


def test_highest_override_replaces_the_table_bound():
    check_size("path", 9, highest=9)
    with pytest.raises(LimitError):
        check_size("path", 10, highest=9)
    with pytest.raises(LimitError):
        check_size("path", 0, highest=9)


# the largest n_max of each growth that verify certifies (the bench uses 6)
CERTIFIED_N_MAX = {**{family: 7 for family in FAMILIES}, "cat": 8}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_growth_n_max_is_bounded_by_its_object_size(family):
    assert growth_consistency(family, 1).ok
    size = "path" if FAMILIES[family].kind in ("vmdyck", "steady") else FAMILIES[family].kind
    top = SIZE_LIMITS[size][1]
    assert CERTIFIED_N_MAX[family] + 1 <= top
    for n_max in (-5, 0, top, 100):
        t0 = time.perf_counter()
        with pytest.raises(LimitError):
            growth_consistency(family, n_max)
        assert time.perf_counter() - t0 < 1.0, (family, n_max)


@pytest.mark.parametrize("call", [
    lambda: get_rule("nope"),
    lambda: level_counts("nope", 3),
    lambda: reference_sequence("nope", 3),
    lambda: growth_consistency("zzz", 3),
    lambda: run_suite("nope"),
], ids=["get_rule", "level_counts", "reference_sequence", "growth_consistency", "run_suite"])
def test_unknown_names_raise_one_value_error_that_is_also_a_key_error(call):
    with pytest.raises(UnknownNameError, match="unknown .* known: ") as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, KeyError)
    assert not str(info.value).startswith("'")
