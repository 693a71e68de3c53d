"""Recurrences, reference sequences, and the kernel-method series check.

Everything here is exact.  Coefficients are Python integers; a Laurent
polynomial in the auxiliary variable a is a pair (low, coeffs) standing for
sum coeffs[i] * a^(low+i) over a dense integer list, and a power series in x
truncated after x^order is a list of such pairs indexed by x-degree.  The one
rational operation (division by (1+a)^3) is expanded only far enough to read
off the a^0 term.  No floating point enters this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import check_size
from .gentree import label_distribution

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
    recurrences.  KeyError for an unknown name.
    """
    if name not in ("catalan", "a108307", "pcat", "baxter", "semibaxter"):
        raise KeyError(f"unknown sequence {name!r}")
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
# Bivariate polynomials in (y, z) are dicts (h, k) -> int; one per x-level.


def _biv_add(out, terms):
    """Add (key, coefficient) terms into out, dropping zero coefficients."""
    for key, v in terms:
        out[key] = out.get(key, 0) + v
        if out[key] == 0:
            del out[key]
    return out


def _biv_sub(p, q):
    return _biv_add(dict(p), ((key, -v) for key, v in q.items()))


def _biv_at_y1(p):
    """Substitute y = 1."""
    return _biv_add({}, (((0, k), v) for (h, k), v in p.items()))


def _biv_at_z_eq_y(p):
    """Substitute z = y."""
    return _biv_add({}, (((h + k, 0), v) for (h, k), v in p.items()))


def _div_by_one_minus_y(p):
    """Exact quotient p / (1 - y); p must vanish at y = 1.  Per power of z,
    the quotient's y^h coefficient is the sum of p's up to y^h."""
    by_k: dict[int, dict[int, int]] = {}
    for (h, k), v in p.items():
        by_k.setdefault(k, {})[h] = v
    out: dict[tuple[int, int], int] = {}
    for k in sorted(by_k):
        cs = by_k[k]
        run = 0
        top = max(cs)
        for h in range(0, top + 1):
            run += cs.get(h, 0)
            if h < top and run:
                out[(h, k)] = run
        if run != 0:
            raise ArithmeticError("polynomial is not divisible by (1 - y)")
    return out


def _div_by_z_minus_y(p):
    """Exact quotient p / (z - y); p must vanish at z = y."""
    if not p:
        return {}
    out: dict[tuple[int, int], int] = {}
    # view as polynomial in z with coefficients in y: c_k(y)
    by_k: dict[int, dict[int, int]] = {}
    top_k = 0
    for (h, k), v in p.items():
        by_k.setdefault(k, {})[h] = v
        top_k = max(top_k, k)
    carry: dict[int, int] = {}
    for k in range(top_k, 0, -1):
        # quotient coefficient of z^(k-1) is c_k(y) + y * q_k(y)
        qk = dict(by_k.get(k, {}))
        for h, v in carry.items():
            qk[h + 1] = qk.get(h + 1, 0) + v
        qk = {h: v for h, v in qk.items() if v != 0}
        for h, v in qk.items():
            out[(h, k - 1)] = v
        carry = qk
    # remainder = c_0(y) + y * q_0(y) must vanish
    rem = dict(by_k.get(0, {}))
    for h, v in carry.items():
        rem[h + 1] = rem.get(h + 1, 0) + v
    if any(v != 0 for v in rem.values()):
        raise ArithmeticError("polynomial is not divisible by (z - y)")
    return out


def _biv_shift(p, dh, dk):
    return {(h + dh, k + dk): v for (h, k), v in p.items()}


@lru_cache(maxsize=None)
def _rule_levels(order: int):
    return label_distribution("i-geq3", order)


def functional_equation_residual(order: int):
    """Residual of the two-catalytic-variable equation
    A = xyz + xz(A(1,z) - A(y,z))/(1-y) + xyz(A(y,z) - A(y,y))/(z-y),
    with A assembled from the i-geq3 rule's label distribution
    (x-degree = level, y-degree = h, z-degree = k).

    Returns a list of per-level residual dicts for x^1..x^order; all empty
    when the equation holds.  Both divided differences are performed as
    exact polynomial quotients, whose remainders are asserted to vanish.
    """
    check_size("residual", order)
    levels = _rule_levels(order)
    a_levels = [dict(lvl) for lvl in levels]  # a_levels[m] is the x^(m+1) slice
    residuals = []
    for n in range(1, order + 1):
        lhs = a_levels[n - 1]
        rhs: dict[tuple[int, int], int] = {(1, 1): 1} if n == 1 else {}
        if n >= 2:
            prev = a_levels[n - 2]
            q1 = _div_by_one_minus_y(_biv_sub(_biv_at_y1(prev), prev))
            q2 = _div_by_z_minus_y(_biv_sub(prev, _biv_at_z_eq_y(prev)))
            _biv_add(rhs, _biv_shift(q1, 0, 1).items())  # * z
            _biv_add(rhs, _biv_shift(q2, 1, 1).items())  # * y * z
        residuals.append(_biv_sub(lhs, rhs))
    return residuals


def residual_is_zero(order: int) -> bool:
    return all(not r for r in functional_equation_residual(order))
