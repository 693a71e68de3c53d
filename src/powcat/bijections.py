"""Explicit bijections: inversion tables, the Catalan correspondence, the
steady-path correspondence through the steady code, and the W-step/mark
exchange maps.

The two path transformations move one unit between the W-step count and the
total mark while fixing their sum, the diagonal steps, and the returns to
the mark; iterating either to exhaustion gives the steady path <-> valley-
marked Dyck path bijection and its inverse.
"""
from __future__ import annotations

from .errors import MembershipError
from .objects import (
    InversionSequence,
    LatticePath,
    PathKind,
    Permutation,
    is_valid,
    make_path,
    path_heights,
    path_valleys,
    require_valid,
    steady_code,
    steady_word,
    to_text,
    validate,
)
from .patterns import VincularPattern, avoids_vincular, in_invseq_family, require_member

PAT_1_23 = VincularPattern.parse("1-23")
PAT_2_14_3 = VincularPattern.parse("2-14-3")
PAT_1_34_2 = VincularPattern.parse("1-34-2")


# -- inversion tables -----------------------------------------------------------


def left_inversion_table(p: Permutation) -> tuple[int, ...]:
    """t_i = number of j > i with p_i > p_j."""
    require_valid(p, "a permutation", Permutation)
    v = p.values
    return tuple(sum(1 for j in range(i + 1, len(v)) if v[i] > v[j]) for i in range(len(v)))


def left_inversion_table_inverse(t) -> Permutation:
    """The unique permutation whose left inversion table is t."""
    t = tuple(t)
    n = len(t)
    for i, ti in enumerate(t, start=1):
        if not 0 <= ti <= n - i:
            raise MembershipError(f"t_{i} = {ti} violates 0 <= t_{i} <= {n - i}")
    remaining = list(range(1, n + 1))
    out = []
    for ti in t:
        out.append(remaining.pop(ti))
    return Permutation(tuple(out))


# -- Catalan inversion sequences <-> AV(1-23, 2-14-3) ------------------------------


def catalan_invseq_to_perm(e: InversionSequence) -> Permutation:
    """Reverse e, read the result as a left inversion table, invert."""
    require_valid(e, "an inversion sequence", InversionSequence)
    if not in_invseq_family("cat", e.entries):
        raise MembershipError(f"{to_text(e)} is not a Catalan inversion sequence")
    p = left_inversion_table_inverse(tuple(reversed(e.entries)))
    if not (avoids_vincular(p, PAT_1_23) and avoids_vincular(p, PAT_2_14_3)):
        raise AssertionError(f"image {to_text(p)} escaped AV(1-23, 2-14-3)")
    return p


def catalan_perm_to_invseq(p: Permutation) -> InversionSequence:
    require_valid(p, "a permutation", Permutation)
    if not (avoids_vincular(p, PAT_1_23) and avoids_vincular(p, PAT_2_14_3)):
        raise MembershipError(f"{to_text(p)} does not avoid 1-23 and 2-14-3")
    e = InversionSequence(tuple(reversed(left_inversion_table(p))))
    if not in_invseq_family("cat", e.entries):
        raise AssertionError(f"image {to_text(e)} escaped the Catalan family")
    return e


# -- steady paths <-> AV(1-34-2) ----------------------------------------------------


def steady_to_perm(path: LatticePath) -> Permutation:
    """Read the steady code reversed as a left inversion table, invert."""
    require_member(path, ("path-kind", PathKind.STEADY), "a steady path")
    p = left_inversion_table_inverse(reversed(steady_code(path.steps)))
    if not avoids_vincular(p, PAT_1_34_2):
        raise AssertionError(f"image {to_text(p)} escaped AV(1-34-2)")
    return p


def perm_to_steady(p: Permutation) -> LatticePath:
    require_valid(p, "a permutation", Permutation)
    if not avoids_vincular(p, PAT_1_34_2):
        raise MembershipError(f"{to_text(p)} does not avoid 1-34-2")
    path = make_path(steady_word(reversed(left_inversion_table(p))), kind=PathKind.STEADY)
    if not is_valid(path):
        raise AssertionError(f"image {path.steps} is not steady: {validate(path).violations[0].detail}")
    return path


# -- the W-removing and mark-reducing transformations ---------------------------------


def _matching_u_left(heights, d):
    """Last index u < d with the path at the D's bottom height, everything
    between staying above it."""
    bottom = heights[d + 1]
    for u in range(d - 1, -1, -1):
        if heights[u] == bottom:
            return u
    raise AssertionError("unmatched D step")


def _first_drop_right(heights, start, level):
    """First step index b >= start taking the path strictly below level."""
    for b in range(start, len(heights) - 1):
        if heights[b + 1] < level:
            return b
    raise AssertionError("path never descends below level")


def _marks_by_step(steps, valleys, marks):
    """A mark travels with its valley's U step: each valley's mark at the
    index of its U step, None at every other step, spliced like the steps."""
    at = [None] * len(steps)
    for (u, _), m in zip(valleys, marks):
        at[u] = m
    return at


def _image(name, steps, at):
    """The valley-marked steady path on steps whose valleys read their marks
    off the per-step list at, validated."""
    marks = tuple(at[u] for u, _ in path_valleys(steps))
    if None in marks:
        raise AssertionError("valley appeared at a carried step that was no valley")
    out = LatticePath(steps, marks, PathKind.VMSTEADY)
    if not is_valid(out):
        raise AssertionError(f"{name} image invalid: {validate(out).violations[0].detail}")
    return out


def phi(path: LatticePath) -> LatticePath:
    """Remove the rightmost bottommost W step, raising one valley's mark.

    The W closes a D-U-W factor around a valley at height k with mark h; the
    factor (and, when the in-between block is empty, the W's matching D) is
    dissolved and the valley reappears one level up with mark h + 1.
    """
    require_member(path, ("path-kind", PathKind.VMSTEADY), "a valley-marked steady path")
    if "W" not in path.steps:
        raise MembershipError("phi needs at least one W step")
    return _phi(path)


def _phi(path: LatticePath) -> LatticePath:
    """phi on a valid valley-marked steady path with a W step; the image is
    validated, so a chain of steps needs only its first input checked."""
    steps = path.steps
    hs = path_heights(steps)
    w = max(
        (i for i, s in enumerate(steps) if s == "W"),
        key=lambda i: (-hs[i], i),
    )
    if steps[w - 2 : w] != "DU":
        raise AssertionError("bottommost W not preceded by a valley")
    d = w - 2
    k = hs[d + 1]
    u_star = _matching_u_left(hs, d)
    if steps[u_star] != "U":
        raise AssertionError("matching step of the valley's D is not a U")
    d_w = _first_drop_right(hs, w + 1, k + 2)  # matching D of the W
    _first_drop_right(hs, d_w + 1, k + 1)  # raises unless the valley's U has a matching D
    # D-U-W at d..w goes; the valley's U returns before the W's matching D if
    # A (u_star + 1..d) is empty, shifting B down a level, else in its place
    ins = d_w if u_star + 1 == d else w + 1
    at = _marks_by_step(steps, path_valleys(steps), path.marks)

    def splice(seq, fresh):
        return seq[:d] + seq[w + 1 : ins] + fresh + seq[ins:]

    return _image("phi", splice(steps, "U"), splice(at, [at[d + 1] + 1]))


def theta(path: LatticePath) -> LatticePath:
    """Lower the leftmost topmost nontrivially marked valley, adding a W.

    Inverse of phi: the chosen valley at height k with mark h is re-rooted
    inside a fresh D-U-W factor at height k - 1 with mark h - 1.
    """
    require_member(path, ("path-kind", PathKind.VMSTEADY), "a valley-marked steady path")
    if sum(path.marks) == 0:
        raise MembershipError("theta needs a nontrivial mark")
    return _theta(path)


def _theta(path: LatticePath) -> LatticePath:
    """theta on a valid valley-marked steady path with a nontrivial mark; the
    image is validated, as in _phi."""
    steps, marks = path.steps, path.marks
    hs = path_heights(steps)
    valleys = path_valleys(steps)
    v_u, k = max(
        ((u, h) for (u, h), m in zip(valleys, marks) if m > 0),
        key=lambda vh: (vh[1], -vh[0]),
    )
    a_start = v_u - 1
    while a_start > 0 and hs[a_start - 1] >= k:
        a_start -= 1
    if steps[a_start - 1] != "U":
        raise AssertionError("step entering the valley's level is not a U")
    d_b = _first_drop_right(hs, v_u + 1, k + 1)  # matching D of the valley's U
    _first_drop_right(hs, d_b + 1, k)  # raises unless a D closes the factor C
    # the valley's U goes; a fresh D-U-W enters before A (a_start..v_u) if B
    # (v_u + 1..d_b) is empty, shifting A up a level, else in the U's place
    ins = a_start if d_b == v_u + 1 else v_u
    at = _marks_by_step(steps, valleys, marks)

    def splice(seq, fresh):
        return seq[:ins] + fresh + seq[ins:v_u] + seq[v_u + 1 :]

    return _image("theta", splice(steps, "DUW"), splice(at, [None, at[v_u] - 1, None]))


# -- the full exchanges ----------------------------------------------------------------


def phi_star(path: LatticePath) -> LatticePath:
    """Iterate phi until no W remains: steady path -> valley-marked Dyck path.
    The input is checked once; each step validates its own image."""
    require_member(path, ("path-kind", PathKind.STEADY), "a steady path")
    cur = LatticePath(path.steps, path.marks, PathKind.VMSTEADY)
    while "W" in cur.steps:
        cur = _phi(cur)
    return LatticePath(cur.steps, cur.marks, PathKind.VMDYCK)


def theta_star(path: LatticePath) -> LatticePath:
    """Iterate theta until the total mark is zero: valley-marked Dyck -> steady.
    The input is checked once; each step validates its own image."""
    require_member(path, ("path-kind", PathKind.VMDYCK), "a valley-marked Dyck path")
    cur = LatticePath(path.steps, path.marks, PathKind.VMSTEADY)
    while sum(cur.marks) > 0:
        cur = _theta(cur)
    return make_path(cur.steps, kind=PathKind.STEADY)


MAPS = {
    "tinv": left_inversion_table,
    "tinv-inv": left_inversion_table_inverse,
    "cat-perm": catalan_invseq_to_perm,
    "cat-perm-inv": catalan_perm_to_invseq,
    "steady-perm": steady_to_perm,
    "steady-perm-inv": perm_to_steady,
    "phi": phi,
    "theta": theta,
    "phi-star": phi_star,
    "theta-star": theta_star,
}

MAP_INPUT_KINDS = {
    "tinv": "perm",
    "tinv-inv": "invtable",
    "cat-perm": "invseq",
    "cat-perm-inv": "perm",
    "steady-perm": "steady",
    "steady-perm-inv": "perm",
    "phi": "vmsteady",
    "theta": "vmsteady",
    "phi-star": "steady",
    "theta-star": "vmdyck",
}
