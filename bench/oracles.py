"""Independent oracles for the benchmark's output checks.

Nothing here imports powcat: counting sequences come from OEIS prefixes,
closed forms and recurrences re-coded from the literature, and membership is
tested by brute force straight from the definitions.  Sizes are 1-based
(term n counts the objects of size n).
"""
from __future__ import annotations

from math import comb

# OEIS prefixes, term 0 first, as published.
A000108 = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440)
A108307 = (1, 1, 2, 5, 15, 51, 191, 772, 3320, 15032, 71084, 348889, 1768483, 9220655, 49286863)
A001181 = (0, 1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960, 11140560, 67329992)
A117106 = (1, 1, 2, 6, 23, 104, 530, 2958, 17734, 112657, 750726, 5207910, 37387881, 276467208)
A113227 = (1, 1, 2, 6, 23, 105, 549, 3207, 20577, 143239, 1071704, 8555388, 72442465)


def catalan(n_max):
    """C(n) for n = 0..n_max from the closed form binom(2n, n) / (n + 1)."""
    return [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def a108307(n_max):
    """E(0..n_max) from 8(n+3)(n+1)E(n) + (7n^2+53n+88)E(n+1) = (n+8)(n+7)E(n+2)."""
    e = [1, 1]
    for n in range(n_max - 1):
        num = 8 * (n + 3) * (n + 1) * e[n] + (7 * n * n + 53 * n + 88) * e[n + 1]
        q, r = divmod(num, (n + 8) * (n + 7))
        if r:
            raise ArithmeticError(f"A108307 recurrence is not exact at n={n}")
        e.append(q)
    return e[: n_max + 1]


def baxter(n_max):
    """B(0..n_max), B(n) = sum_k C(n+1,k-1) C(n+1,k) C(n+1,k+1) / (C(n+1,1) C(n+1,2))."""
    out = [0]
    for n in range(1, n_max + 1):
        m = n + 1
        total = sum(comb(m, k - 1) * comb(m, k) * comb(m, k + 1) for k in range(1, n + 1))
        q, r = divmod(total, comb(m, 1) * comb(m, 2))
        if r:
            raise ArithmeticError(f"Baxter sum is not exact at n={n}")
        out.append(q)
    return out[: n_max + 1]


def semi_baxter(n_max):
    """S(0..n_max) from (n+3)(n+4)S(n) = (11n^2+11n-6)S(n-1) + (n-3)(n-2)S(n-2)."""
    s = [1, 1, 2]
    for n in range(3, n_max + 1):
        num = (11 * n * n + 11 * n - 6) * s[n - 1] + (n - 3) * (n - 2) * s[n - 2]
        q, r = divmod(num, (n + 3) * (n + 4))
        if r:
            raise ArithmeticError(f"semi-Baxter recurrence is not exact at n={n}")
        s.append(q)
    return s[: n_max + 1]


def powered_catalan_triangle(n_max):
    """Rows c[0..n_max]: c[0][0] = 1, c[n][0] = 0 and
    c[n][k] = c[n-1][k-1] + k * sum_{j >= k} c[n-1][j], by suffix sums."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        tail = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            tail[j] = tail[j + 1] + prev[j]
        rows.append([0] + [prev[k - 1] + k * tail[k] for k in range(1, n + 1)])
    return rows


def powered_catalan(n_max):
    """A113227(0..n_max) as the row sums of the triangle."""
    return [sum(row) for row in powered_catalan_triangle(n_max)]


def sequence_for(rule, n_max):
    """Counts of sizes 0..n_max for the class a rule or growth family counts."""
    base = rule.split(":")[0]
    if base in ("cat", "cat2"):
        return catalan(n_max)
    if base == "i-geq3":
        return a108307(n_max)
    if base == "bax":
        return baxter(n_max)
    if base == "semi":
        return semi_baxter(n_max)
    if base in ("pcat", "p1234", "steady"):
        return powered_catalan(n_max)
    raise KeyError(rule)


# -- brute-force membership ------------------------------------------------------

_REL = {
    "lt": lambda a, b: a < b,
    "gt": lambda a, b: a > b,
    "leq": lambda a, b: a <= b,
    "geq": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "neq": lambda a, b: a != b,
    "dash": lambda a, b: True,
}

FAMILY_TRIPLES = {
    "cat": ("geq", "dash", "geq"),
    "i-geq3": ("geq", "geq", "geq"),
    "bax": ("geq", "geq", "gt"),
    "semi": ("geq", "gt", "dash"),
    "pcat": ("eq", "gt", "gt"),
}


def is_inversion_sequence(e):
    return all(0 <= v < i for i, v in enumerate(e, start=1))


def avoids_triple(e, triple):
    """No i < j < k with e_i r1 e_j, e_j r2 e_k and e_i r3 e_k."""
    r1, r2, r3 = (_REL[t] for t in triple)
    n = len(e)
    return not any(
        r1(e[i], e[j]) and r2(e[j], e[k]) and r3(e[i], e[k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def in_family(family, e):
    return is_inversion_sequence(e) and avoids_triple(e, FAMILY_TRIPLES[family])


def is_permutation(p):
    return sorted(p) == list(range(1, len(p) + 1))


def contains_vincular(p, text):
    """Occurrence test for a pattern such as '1-23-4': digits in one dash
    group must sit at adjacent positions; tries every position tuple."""
    groups = [[int(c) for c in g] for g in text.split("-")]
    flat = [d for g in groups for d in g]
    n, k = len(p), len(flat)

    def place(gi, start, chosen):
        if gi == len(groups):
            vals = [p[i] for i in chosen]
            return all((vals[a] < vals[b]) == (flat[a] < flat[b]) for a in range(k) for b in range(a + 1, k))
        width = len(groups[gi])
        return any(
            place(gi + 1, s + width, chosen + list(range(s, s + width)))
            for s in range(start, n - width + 1)
        )

    return place(0, 0, [])


def in_perm_class(p, patterns):
    return is_permutation(p) and not any(contains_vincular(p, t) for t in patterns)


# -- paths and trees ---------------------------------------------------------------

_STEP = {"U": (1, 1), "D": (1, -1), "W": (-1, 1)}


def points(word):
    x = y = 0
    out = [(0, 0)]
    for s in word:
        dx, dy = _STEP[s]
        x, y = x + dx, y + dy
        out.append((x, y))
    return out


def valley_heights(word):
    """Heights of the DU corners, left to right."""
    pts = points(word)
    return [pts[i + 1][1] for i in range(len(word) - 1) if word[i : i + 2] == "DU"]


def is_vmdyck(word, marks, n):
    """Dyck word of semilength n with one mark 0 <= m <= h per valley of height h."""
    heights = valley_heights(word)
    return (
        set(word) <= {"U", "D"}
        and word.count("U") == n == word.count("D")
        and all(y >= 0 for _, y in points(word))
        and len(marks) == len(heights)
        and all(0 <= m <= h for m, h in zip(marks, heights))
    )


def is_steady_shape(word, n):
    """The steady-path invariants that need no suffix analysis: n up steps,
    the cone 0 <= y <= x, no WD or DW factor, and an end on the x-axis."""
    pts = points(word)
    return (
        set(word) <= set(_STEP)
        and word.count("U") == n
        and all(0 <= y <= x for x, y in pts)
        and pts[-1][1] == 0
        and "WD" not in word
        and "DW" not in word
    )


def w_count(word):
    return word.count("W")


def diagonal_steps(word):
    """Up steps whose segment lies on y = x."""
    pts = points(word)
    return sum(1 for i, s in enumerate(word) if s == "U" and pts[i][0] == pts[i][1])


def inversion_table(p):
    """t_i = number of j > i with p_i > p_j."""
    return tuple(sum(1 for q in p[i + 1 :] if q < v) for i, v in enumerate(p))


def p1234_to_steady(label):
    """The label map carrying the 1-23-4 rule onto the steady rule."""
    h, k = label
    return (0, k + 1) if h == 1 else (k, h)


def parse_tree(text):
    """(label, children) from tree text with single-digit labels, siblings
    side by side or comma-separated: '0(1(3)2)' or '0(1(3),2)'."""
    pos = 0

    def node():
        nonlocal pos
        label = int(text[pos])
        pos += 1
        kids = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            while text[pos] != ")":
                if text[pos] == ",":
                    pos += 1
                kids.append(node())
            pos += 1
        return (label, tuple(kids))

    tree = node()
    if pos != len(text):
        raise ValueError(f"trailing text in tree {text!r}")
    return tree


def tree_text(tree):
    """Tree text with comma-separated siblings, which reads back unambiguously."""
    label, kids = tree
    return f"{label}({','.join(tree_text(c) for c in kids)})" if kids else str(label)


def is_increasing_leaf_tree(tree, n):
    """tree = (label, children): labels 0..n once each, every child above its
    parent, and the pre-order leaves increasing."""
    labels, leaves = [], []

    def walk(node, parent):
        label, kids = node
        if parent is not None and label <= parent:
            return False
        labels.append(label)
        if not kids:
            leaves.append(label)
        return all(walk(c, label) for c in kids)

    return (
        walk(tree, None)
        and sorted(labels) == list(range(n + 1))
        and all(a < b for a, b in zip(leaves, leaves[1:]))
    )
