"""Recurrences, reference sequences, and the kernel-method series check.

Everything here is exact.  Coefficients are Python integers; a Laurent
polynomial in the auxiliary variable a is a pair (low, coeffs) standing for
sum coeffs[i] * a^(low+i) over a dense integer list, and a power series in x
truncated after x^order is a list of such pairs indexed by x-degree.  The one
rational operation (division by (1+a)^3) is expanded only far enough to read
off the a^0 term.  The functional-equation residual holds each x-level of
A(y, z) as a list of dense y-coefficient rows indexed by the power of z.  No
floating point enters this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, sub

from .errors import UnknownNameError, check_size
from .gentree import _levels

@dataclass(frozen=True)
class CountTriangle:
    """Integer table c[n][k] for 0 <= k <= n <= n_max."""

    rows: tuple[tuple[int, ...], ...]

    def value(self, n, k) -> int:
        if 0 <= n < len(self.rows) and 0 <= k <= n:
            return self.rows[n][k]
        return 0

    def row(self, n) -> tuple[int, ...]:
        return self.rows[n]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)


# -- recurrences -----------------------------------------------------------------


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what} is not an exact division")
    return q


def e3_sequence(n_max: int) -> list[int]:
    """Terms E3(0..n_max) of A108307 via the second-order recurrence
    8(n+3)(n+1)E(n) + (7n^2+53n+88)E(n+1) = (n+8)(n+7)E(n+2); every forward
    step must divide exactly."""
    check_size("e3", n_max)
    seq = [1, 1]
    for n in range(0, n_max - 1):
        num = 8 * (n + 3) * (n + 1) * seq[n] + (7 * n * n + 53 * n + 88) * seq[n + 1]
        seq.append(_exact_div(num, (n + 8) * (n + 7), f"recurrence step n={n}"))
    return seq[: n_max + 1]


def callan_triangle(n_max: int) -> CountTriangle:
    """Triangle c[n][k]: c[0][0]=1, c[n][0]=0, and
    c[n][k] = c[n-1][k-1] + k * sum_{j>=k} c[n-1][j]."""
    check_size("triangle", n_max)
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1] + (0,)  # c[n-1][n] = 0
        row = [0] * (n + 1)
        tail = 0
        for k in range(n, 0, -1):
            tail += prev[k]  # now sum_{j>=k} c[n-1][j]
            row[k] = prev[k - 1] + k * tail
        rows.append(tuple(row))
    return CountTriangle(tuple(rows))


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def powered_catalan_number(n: int) -> int:
    return sum(callan_triangle(n).row(n))


def _baxter_number(n: int) -> int:
    """The Baxter sum (Chung, Graham, Hoggatt and Kleiman):
    sum_k C(n+1,k-1) C(n+1,k) C(n+1,k+1) / (C(n+1,1) C(n+1,2))."""
    row = [comb(n + 1, j) for j in range(n + 3)]
    total = sum(row[k - 1] * row[k] * row[k + 1] for k in range(1, n + 1))
    return _exact_div(total, row[1] * row[2], f"Baxter sum n={n}")


def _semibaxter_sequence(n_max: int) -> list[int]:
    """Semi-Baxter numbers S(1..n_max) from the recurrence
    (n+3)(n+4)S(n) = (11n^2+11n-6)S(n-1) + (n-3)(n-2)S(n-2), S(1) = 1 (the
    S(n-2) term vanishes at n = 2); every step must divide exactly."""
    seq = [1, 1]  # S(0) only ever meets the zero coefficient at n = 2
    for n in range(2, n_max + 1):
        num = (11 * n * n + 11 * n - 6) * seq[n - 1] + (n - 3) * (n - 2) * seq[n - 2]
        seq.append(_exact_div(num, (n + 3) * (n + 4), f"semi-Baxter recurrence step n={n}"))
    return seq[1 : n_max + 1]


def reference_sequence(name: str, n_max: int) -> list[int]:
    """Reference terms for sizes 1..n_max.

    catalan and baxter by closed sums, a108307, pcat and semibaxter by
    recurrences.  UnknownNameError for an unknown name.
    """
    known = ("catalan", "a108307", "pcat", "baxter", "semibaxter")
    if name not in known:
        raise UnknownNameError("sequence", name, known)
    check_size(name, n_max)
    if name == "catalan":
        return [catalan_number(n) for n in range(1, n_max + 1)]
    if name == "a108307":
        return e3_sequence(n_max)[1:]
    if name == "pcat":
        return list(callan_triangle(n_max).row_sums()[1:])
    if name == "baxter":
        return [_baxter_number(n) for n in range(1, n_max + 1)]
    return _semibaxter_sequence(n_max)


# -- kernel-method series ----------------------------------------------------------

_ZERO = (0, [])


def _poly_add(p, q):
    if not p[1]:
        return q
    if not q[1]:
        return p
    low = min(p[0], q[0])
    out = [0] * (max(p[0] + len(p[1]), q[0] + len(q[1])) - low)
    for lo, c in (p, q):
        for i, v in enumerate(c, lo - low):
            out[i] += v
    return (low, out)


def _poly_mul(p, q):
    (lp, cp), (lq, cq) = p, q
    out = [0] * (len(cp) + len(cq) - 1) if cp and cq else []
    for i, u in enumerate(cp):
        if u:
            for j, v in enumerate(cq, i):
                out[j] += u * v
    return (lp + lq, out)


def _series_mul(s, t, order):
    """Product of two x-series, truncated after x^order."""
    out = [_ZERO] * (order + 1)
    for i, p in enumerate(s[: order + 1]):
        if p[1]:
            for j in range(min(len(t), order + 1 - i)):
                out[i + j] = _poly_add(out[i + j], _poly_mul(p, t[j]))
    return out


def kernel_w(order: int) -> list:
    """The unique power series with zero constant term satisfying
    W = x * (1/a) * (W + 1 + a) * (W + a + a^2), modulo x^(order+1),
    as a list of (low, coeffs) Laurent polynomials indexed by x-degree.

    With F1 = W + 1 + a and F2 = W + a + a^2, the x^n coefficient is
    W_n = (1/a) * sum_{i<n} F1_i * F2_{n-1-i}, which needs only W_1..W_{n-1}.
    The defining equation is checked again by a truncated series product
    before returning; ArithmeticError when its residual is nonzero.
    """
    check_size("kernel", order)
    f1, f2 = [(0, [1, 1])], [(1, [1, 1])]
    for n in range(1, order + 1):
        total = _ZERO
        for i in range(n):
            total = _poly_add(total, _poly_mul(f1[i], f2[n - 1 - i]))
        f1.append((total[0] - 1, total[1]))
        f2.append(f1[-1])
    w = [(0, [])] + f1[1:]
    # residual W_n - (1/a) [x^(n-1)] F1*F2 for n = 1..order, by the series product
    products = _series_mul(f1, f2, order - 1)
    for w_n, (low, c) in zip(w[1:], products):
        if any(_poly_add(w_n, (low - 1, [-v for v in c]))[1]):
            raise ArithmeticError("kernel series fails to satisfy the kernel equation")
    return w


# coefficient Laurent polynomials of W^1 .. W^4 in Q(a, W)
_Q_COEFFS = (
    (-6, [-1, -3, -3, -1, 0, 0, 1, 3, 3, 1]),
    (-5, [1, 1, 0, 0, -1, -1]),
    (-6, [1, 0, -1, 1, 0, -1]),
    (-5, [-1, 1]),
)


def kernel_q(order: int) -> list:
    """Q(a, W): quartic in W with the fixed Laurent-polynomial coefficients,
    in the list form of kernel_w."""
    w = kernel_w(order)
    total = [_ZERO] * (order + 1)
    power = [(0, [1])] + [_ZERO] * order
    for q in _Q_COEFFS:
        power = _series_mul(power, w, order)
        total = [_poly_add(t, _poly_mul(q, p)) for t, p in zip(total, power)]
    return total


def kernel_a11(order: int) -> list[int]:
    """Size generating-function coefficients [x^n] A(1,1) for n = 1..order.

    A(1+a,1+a) is the non-negative-a part of Q(a,W)/(1+a)^3; setting a = 0
    keeps only the a^0 coefficient, which equals
    sum_j (-1)^j binom(j+2,2) [a^-j] Q_n since 1/(1+a)^3 expands with those
    coefficients and only non-positive exponents of Q_n can contribute.
    """
    out = []
    for low, c in kernel_q(order)[1:]:
        # c[-j - low] is the a^-j coefficient; j runs over those present
        js = range(max(0, 1 - low - len(c)), -low + 1)
        out.append(sum((-1) ** j * comb(j + 2, 2) * c[-j - low] for j in js))
    return out


# -- functional-equation residual ----------------------------------------------------
# One x-level of A(y, z) is a list of rows indexed by the power of z: rows[k][h] is
# the coefficient of y^h z^k.  All rows of all levels have one width, one more than
# the largest label sum, and all levels one height, two more than the largest k, both
# bounded from the order alone (functional_equation_residual), so A(y, y), both
# quotients and their shifts by y and z fit; a shift that would still push a nonzero
# coefficient off a row or level raises ArithmeticError.


def _rows(level, height, width):
    """The level {(h, k): count} as height rows of width y-coefficients; a
    label outside them raises ArithmeticError."""
    rows = [[0] * width for _ in range(height)]
    for (h, k), v in level.items():
        if not (0 <= h < width and 0 <= k < height):
            raise ArithmeticError(f"label {(h, k)} lies outside {height} rows of width {width}")
        rows[k][h] = v
    return rows


def _times_y(row, places=1):
    """row * y^places in the same width."""
    if any(row[len(row) - places :]):
        raise ArithmeticError("a coefficient falls off the row")
    return [0] * places + row[: len(row) - places]


def _equation_rhs(rows):
    """z(A(1,z) - A(y,z))/(1-y) + yz(A(y,z) - A(y,y))/(z-y) from one level's rows.

    Both quotients are exact divisions whose remainders must vanish.  For each
    power of z, the first is the prefix sum of the y-coefficients of
    A(1,z) - A(y,z), s - a_0, -a_1, -a_2, ... for a row a with sum s, and its
    last entry is the remainder.  The second is the top-down carry
    q_(k-1) = c_k + y q_k over the z^k rows c_k of A(y,z) - A(y,y), with
    remainder c_0 - A(y,y) + y q_0.
    """
    diagonal = list(map(sum, zip(*(_times_y(row, k) for k, row in enumerate(rows)))))
    carry = [0] * len(rows[0])  # q_k above the top row
    out = []  # the z^(k+1) rows, top down
    for row in reversed(rows):
        _, *quotient = accumulate(row, sub, initial=sum(row))
        if quotient[-1]:
            raise ArithmeticError("A(1,z) - A(y,z) is not divisible by (1 - y)")
        shifted = _times_y(carry)
        out.append(list(map(add, quotient, shifted)))
        carry = list(map(add, row, shifted))
    if carry != diagonal:
        raise ArithmeticError("A(y,z) - A(y,y) is not divisible by (z - y)")
    if any(out[0]):
        raise ArithmeticError("a coefficient falls off the level")
    return [[0] * len(carry)] + out[:0:-1]


def functional_equation_residual(order: int):
    """Residual of the two-catalytic-variable equation
    A = xyz + xz(A(1,z) - A(y,z))/(1-y) + xyz(A(y,z) - A(y,y))/(z-y),
    with A assembled from the i-geq3 rule's label distribution
    (x-degree = level, y-degree = h, z-degree = k).

    Returns one dict (h, k) -> coefficient of the nonzero residual terms per
    level, for x^1..x^order; all empty when the equation holds.
    """
    check_size("residual", order)
    # Every label (h, k) at level m of i-geq3 has h + k <= m + 1 and 2k + h <= m + 2:
    # the axiom (1, 1) does, and each child (h - d, k + 1) or (h + d, k - d + 1),
    # d >= 1, of (h, k) raises both sums by at most one.  So k <= m // 2 + 1, and
    # order // 2 + 3 rows of width order + 2 hold every level, read one at a time.
    height, width = order // 2 + 3, order + 2
    rhs = _rows({(1, 1): 1}, height, width)  # the xyz term
    residuals = []
    for n, level in enumerate(_levels("i-geq3", order)):
        if n:
            rhs = _equation_rhs(lhs)
        lhs = _rows(level, height, width)
        residuals.append({
            (h, k): a - b
            for k, (left, right) in enumerate(zip(lhs, rhs)) if left != right
            for h, (a, b) in enumerate(zip(left, right)) if a != b
        })
    return residuals


def residual_is_zero(order: int) -> bool:
    return all(not r for r in functional_equation_residual(order))
