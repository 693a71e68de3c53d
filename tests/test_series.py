"""Exact series arithmetic, recurrences, and the kernel formula."""
import tracemalloc

import pytest

from powcat import series, verify
from powcat.cli import run_command
from powcat.errors import SIZE_LIMITS
from powcat.gentree import label_distribution
from powcat.patterns import invseq_members
from powcat.series import (
    callan_triangle,
    e3_sequence,
    functional_equation_residual,
    kernel_a11,
    kernel_w,
    reference_sequence,
    residual_is_zero,
)

# A001181 and A117106, sizes 1..13
BAXTER_TERMS = [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960, 11140560, 67329992]
SEMIBAXTER_TERMS = [1, 2, 6, 23, 104, 530, 2958, 17734, 112657, 750726, 5207910, 37387881, 276467208]


def test_e3_first_terms():
    assert e3_sequence(7) == [1, 1, 2, 5, 15, 51, 191, 772]


def test_e3_hand_steps():
    # n = 0 instance: 24 + 88 = 56 * E3(2); n = 1 instance gives E3(3) = 5
    assert e3_sequence(2)[2] == (24 + 88) // 56 == 2
    assert e3_sequence(3)[3] == 5


def test_triangle_base_cases_and_rows():
    tri = callan_triangle(4)
    assert tri.value(0, 0) == 1
    assert all(tri.value(n, 0) == 0 for n in range(1, 5))
    assert tri.row(3) == (0, 2, 3, 1)
    assert tri.row(4) == (0, 6, 10, 6, 1)
    assert tri.row_sums() == (1, 1, 2, 6, 23)


def test_reference_sequences():
    assert reference_sequence("baxter", 8) == [1, 2, 6, 22, 92, 422, 2074, 10754]
    assert reference_sequence("semibaxter", 8) == [1, 2, 6, 23, 104, 530, 2958, 17734]
    assert reference_sequence("pcat", 7) == [1, 2, 6, 23, 105, 549, 3207]
    assert reference_sequence("catalan", 9) == [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert reference_sequence("a108307", 8) == [1, 2, 5, 15, 51, 191, 772, 3320]
    assert reference_sequence("baxter", 13) == BAXTER_TERMS
    assert reference_sequence("semibaxter", 13) == SEMIBAXTER_TERMS
    with pytest.raises(ValueError):
        reference_sequence("baxter", SIZE_LIMITS["baxter"][1] + 1)
    with pytest.raises(ValueError):
        reference_sequence("semibaxter", SIZE_LIMITS["semibaxter"][1] + 1)


def _callan_triangle_by_triple_sum(n_max):
    """The defining recurrence summed afresh for every entry, O(n^3)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([0] + [prev[k - 1] + k * sum(prev[j] for j in range(k, n)) for k in range(1, n + 1)])
    return rows


def test_triangle_equals_the_triple_sum_recurrence():
    rows = callan_triangle(60).rows
    assert [list(r) for r in rows] == _callan_triangle_by_triple_sum(60)


def test_kernel_w_first_coefficient():
    w = kernel_w(4)
    assert len(w) == 5
    assert w[0] == (0, [])
    assert w[1] == (0, [1, 2, 1])  # (1 + a)^2


def test_kernel_w_matches_the_quadratic_root():
    # W is the root of x W^2 + B W + C = 0 that vanishes at x = 0
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a", positive=True)
    x = sympy.Symbol("x")
    b = x * (1 + a) + x * (a + a**2) - a
    c = x * (1 + a) * (a + a**2)
    root = (-b - sympy.sqrt(b**2 - 4 * x * c)) / (2 * x)
    expansion = sympy.series(root, x, 0, 9).removeO()
    for n, (low, coeffs) in enumerate(kernel_w(8)):
        poly = sum(v * a ** (low + i) for i, v in enumerate(coeffs))
        assert sympy.cancel(expansion.coeff(x, n) - poly) == 0, n


def test_kernel_w_residual_at_order_8():
    # kernel_w raises when the defining equation's residual is nonzero
    kernel_w(8)


def test_kernel_a11_terms():
    assert kernel_a11(6) == [1, 2, 5, 15, 51, 191]


def test_kernel_a11_satisfies_the_recurrence():
    values = [1] + kernel_a11(9)  # prepend the size-0 term
    for n in range(0, 8):
        assert (
            8 * (n + 3) * (n + 1) * values[n]
            + (7 * n * n + 53 * n + 88) * values[n + 1]
            - (n + 8) * (n + 7) * values[n + 2]
            == 0
        )


def test_kernel_a11_equals_brute_force():
    brute = [len(invseq_members("i-geq3", n)) for n in range(1, 9)]
    assert kernel_a11(8) == brute


def test_functional_equation_residual():
    assert functional_equation_residual(1) == [{}]
    assert residual_is_zero(8)
    assert residual_is_zero(SIZE_LIMITS["residual"][1])


def test_functional_equation_residual_reports_a_planted_fault(monkeypatch):
    # one extra node of label (1, 2) on level 3 breaks the equation at x^3 and,
    # through both divided differences, at x^4
    def planted(rule, order):
        levels = [dict(level) for level in label_distribution(rule, order)]
        levels[2][(1, 2)] = levels[2].get((1, 2), 0) + 1
        return levels

    monkeypatch.setattr(series, "_levels", planted)
    assert functional_equation_residual(6) == [
        {}, {}, {(1, 2): 1}, {(0, 3): -1, (2, 2): -1, (3, 1): -1}, {}, {},
    ]
    assert run_command(["series", "residual", "--n", "6"]) == (1, "nonzero at x^3 y^1 z^2: 1\n")
    assert run_command(["series", "residual", "--n", "6", "--format", "json"]) == (
        1, '{"coeff":1,"h":1,"k":2,"order":3}\n',
    )
    assert run_command(["series", "residual", "--n", "6", "--format", "csv"]) == (1, "3,1,2,1\n")
    result = verify.check_functional_equation()
    assert not result.ok
    assert result.counterexample == "x^3: residual monomial y^1 z^2 -> 1"
    # an emptied level leaves the xyz term unmatched and level 2 unexplained
    monkeypatch.setattr(series, "_levels", lambda rule, order: [{}] + label_distribution(rule, order)[1:])
    assert functional_equation_residual(3) == [{(1, 1): -1}, {(0, 2): 1, (2, 1): 1}, {}]


def test_functional_equation_residual_holds_one_level_at_a_time():
    # every level of i-geq3 to order 90 kept at once peaks at about 9.7 MiB
    tracemalloc.start()
    try:
        zero = residual_is_zero(90)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zero
    assert peak < 4 * 2**20


def test_functional_equation_residual_rejects_a_label_outside_its_rows(monkeypatch):
    # the rows are sized from the order: to order 2, four rows of width four
    monkeypatch.setattr(series, "_levels", lambda rule, order: [{(1, 1): 1}, {(0, 4): 1}])
    with pytest.raises(ArithmeticError, match=r"label \(0, 4\) lies outside 4 rows of width 4"):
        functional_equation_residual(2)


def test_triangle_refines_zero_statistic():
    tri = callan_triangle(7)
    for n in range(1, 8):
        members = invseq_members("pcat", n)
        for k in range(n + 1):
            assert sum(1 for e in members if e.count(0) == k) == tri.value(n, k)


def test_row_sums_refine_the_sequence():
    tri = callan_triangle(9)
    assert list(tri.row_sums()[1:]) == [len(invseq_members("pcat", n)) for n in range(1, 10)]
