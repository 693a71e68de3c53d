"""Object-level growths realizing the succession rules.

Each family here grows by one canonical atom (an inserted entry, a new
rightmost entry, a peak, an up step, a point, a vertex).  A grower states
where its children go and labels them with the production expand_label
lists for the parent's label, in order (reversed for marked Dyck paths and
trees), so each rule is written once, in gentree.  growth_consistency() is
the executable form of the "grows according to" claims: membership of
every child, the rule's label at each child's place against the child's
own, and unique generation of the next size.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import SIZE_LIMITS, UnknownNameError, check_size
from .gentree import Label, expand_label
from .objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    edge_line_offset,
    is_valid,
    last_descent_length,
    make_path,
    root_child_bounds,
    steady_code,
    steady_word,
    to_text,
    require_valid,
)
from .patterns import (
    VincularPattern,
    enumerate_class,
    in_class,
    INVSEQ_FAMILIES,
    require_member,
)

P1234 = VincularPattern.parse("1-23-4")


def _invseq_class(family: str):
    """Class key of one of the five named inversion-sequence families."""
    return ("invseq-triple", INVSEQ_FAMILIES[family])


P1234_CLASS = ("perm-vincular", P1234)
STEADY_CLASS = ("path-kind", PathKind.STEADY)
VMDYCK_CLASS = ("path-kind", PathKind.VMDYCK)


# -- Catalan inversion sequences, entry insertion --------------------------------


def cat_insert(e: InversionSequence, i: int) -> InversionSequence:
    """Insert the maximal admissible entry i-1 at position i (1-based)."""
    n = len(e)
    if not 1 <= i <= n + 1:
        raise ValueError(f"position {i} outside 1..{n + 1}")
    v = e.entries
    return InversionSequence(v[: i - 1] + (i - 1,) + v[i - 1 :])


def active_positions_cat(e: InversionSequence) -> list[int]:
    """Positions i where cat_insert keeps membership in the geq,dash,geq
    family: exactly those where every entry after position i is at least i.

    An occurrence is a < b < c with e_a >= e_b and e_a >= e_c.  Every entry
    before the inserted i - 1 has e_a <= a - 1 < i - 1, so the new entry can
    only be the first of an occurrence (one among the old entries alone is
    one of e itself), and that needs two of e_i..e_n at most i - 1.  Since
    e_i <= i - 1 always holds, the insertion fails exactly when some later
    entry e_{i+1}..e_n is below i."""
    require_member(e, _invseq_class("cat"), "a Catalan inversion sequence")
    return _cat_sites(e.entries)


def _cat_sites(v) -> list[int]:
    return [i for i in range(1, len(v) + 2) if min(v[i:], default=i) >= i]


def cat_label(e: InversionSequence) -> Label:
    return (len(_cat_sites(e.entries)) - 1,)


def cat_children(e: InversionSequence) -> list[tuple[InversionSequence, Label]]:
    return [(cat_insert(e, i), lab) for i, lab in zip(active_positions_cat(e), expand_label("cat", cat_label(e)))]


# -- rightmost-entry growths: cat2, i-geq3, bax, semi ------------------------------


def _rightmost(values) -> tuple[int, int, int, bool]:
    """The statistics of the four rightmost-entry labels, in one left-to-right
    pass: (max, mwd, last, tied).  mwd is the largest weak-descent top and
    last the rightmost entry that is not a strict LTR maximum, each -1 when
    there is none; tied says that entry equals the maximum before it, which
    is exactly "it forms no inversion" (True when there is none).

    One pass suffices because each statistic reads only the running maximum
    and the previous entry: an entry is a strict LTR maximum iff it exceeds
    the running maximum, a later non-maximum replaces an earlier one, and a
    non-maximum x sits below the running maximum hi, so some earlier entry
    exceeds it iff x < hi.  Entries are non-negative, so -1 starts every
    statistic and the previous entry, and no pair ends at the first entry."""
    hi = mwd = last = prev = -1
    tied = True
    for x in values:
        if prev >= x and prev > mwd:
            mwd = prev
        if x > hi:
            hi = x
        else:
            last, tied = x, x == hi
        prev = x
    return hi, mwd, last, tied


def cat2_label(e: InversionSequence) -> Label:
    v = e.entries
    hi, mwd, _, _ = _rightmost(v)
    return (hi - mwd, len(v) - hi)


def igeq3_label(e: InversionSequence) -> Label:
    v = e.entries
    hi, _, last, _ = _rightmost(v)
    return (hi - last, len(v) - hi)


def bax_label(e: InversionSequence) -> Label:
    v = e.entries
    hi, _, last, tied = _rightmost(v)
    h = hi - max(last, 0)
    return (h + 1 if tied else h, len(v) - hi)


def semi_label(e: InversionSequence) -> Label:
    v = e.entries
    hi, _, last, _ = _rightmost(v)
    return (hi - max(last, 0) + 1, len(v) - hi)


# each family's membership class and its label (h, k); the family is also
# the name of its rule
_RIGHTMOST = {
    "cat2": ("cat", cat2_label),
    "i-geq3": ("i-geq3", igeq3_label),
    "bax": ("bax", bax_label),
    "semi": ("semi", semi_label),
}


def children_rightmost_entry(family: str, e: InversionSequence):
    """Children of e by adding a new rightmost entry: with (h, k) the label
    of e, the h + k new entries max(e) - h + 1 .. max(e) + k, in order."""
    if family not in _RIGHTMOST:
        raise UnknownNameError("rightmost-entry family", family, _RIGHTMOST)
    membership, label = _RIGHTMOST[family]
    require_member(e, _invseq_class(membership), f"an inversion sequence of family {membership}")
    v = e.entries
    h, k = label(e)
    return [(InversionSequence(v + (p,)), lab) for p, lab in enumerate(expand_label(family, (h, k)), max(v) - h + 1)]


# -- powered Catalan inversion sequences -------------------------------------------


def pcat_label_invseq(e: InversionSequence) -> Label:
    return (e.entries.count(0),)


def pcat_children_invseq(e: InversionSequence):
    """Children by the zero/one rewriting construction.

    The positive entries are shifted up and a leftmost 0 is prepended; the
    children then differ in which of the old zero positions keep their 0,
    the rest becoming the (unique possible) 1s.  With k old zeros, the
    1 + (2 + ... + k) + 1 children list the production of (k) in order.
    """
    v = e.entries
    require_member(e, _invseq_class("pcat"), "an inversion sequence avoiding 110")
    zero_pos = [i for i, x in enumerate(v) if x == 0]
    base = (0,) + tuple(x + 1 if x > 0 else 0 for x in v)

    def child_with_ones(one_positions):
        vals = list(base)
        for zp in one_positions:
            vals[zp + 1] = 1
        return InversionSequence(tuple(vals))

    ones = [zero_pos] + [[zero_pos[m]] + zero_pos[j:] for j in range(2, len(zero_pos) + 1) for m in range(j)] + [[]]
    return list(zip(map(child_with_ones, ones), expand_label("pcat", pcat_label_invseq(e))))


def pcat_parent_invseq(f: InversionSequence) -> InversionSequence:
    """Inverse of the construction: 1s back to 0s, drop the leftmost 0,
    shift positives down."""
    v = f.entries
    if len(v) < 2:
        raise ValueError("size-1 sequence has no parent")
    require_member(f, _invseq_class("pcat"), "an inversion sequence avoiding 110")
    undone = tuple(0 if x == 1 else x for x in v)
    cut = undone.index(0)
    rest = undone[:cut] + undone[cut + 1 :]
    return InversionSequence(tuple(x - 1 if x > 0 else 0 for x in rest))


# -- steady paths --------------------------------------------------------------------


def steady_label(path: LatticePath) -> Label:
    n = path.size
    t_half = edge_line_offset(path.steps) // 2
    r = last_descent_length(path.steps)
    return (n - t_half - r, r + 1)


def steady_children(path: LatticePath):
    """Children by a new rightmost up step at each admissible height i, which
    runs up to n - t/2 = h + k - 1 for the label (h, k): the step starts at
    (2n - i, i), so the child's code is the parent's with d = n - i appended."""
    require_member(path, STEADY_CLASS, "a steady path")
    n = path.size
    code = steady_code(path.steps)
    return [(make_path(steady_word(code + (n - i,)), kind=PathKind.STEADY), lab)
            for i, lab in enumerate(expand_label("steady", steady_label(path)))]


# -- permutations avoiding 1-23-4 -----------------------------------------------------


def _p1234_site_bound(values) -> int:
    """Top active site: the minimal ascent top pi_t completing a 1-23
    occurrence bounds the sites at pi_t; n+1 when no occurrence exists.

    One pass, carrying lo, the least entry before each adjacent pair (a, b):
    some earlier entry lies below a iff lo < a, so the pair completes a 1-23
    iff lo < a < b, and the bound is the least such b.  The values are
    1..n, so n + 1 starts lo and the bound above every entry."""
    best = lo = len(values) + 1
    for a, b in zip(values, values[1:]):
        if lo < a < b < best:
            best = b
        if a < lo:
            lo = a
    return best


def p1234_label(p: Permutation) -> Label:
    """(h, k) with h the active sites at most the last value and h + k the
    site bound."""
    v = p.values
    bound = _p1234_site_bound(v)
    h = min(bound, v[-1])
    return (h, bound - h)


def perm_append(p: Permutation, a: int) -> Permutation:
    return Permutation(tuple(v if v < a else v + 1 for v in p.values) + (a,))


def perm1234_children(p: Permutation):
    """Children by right expansion at each active site 1..h + k."""
    require_member(p, P1234_CLASS, "a permutation avoiding 1-23-4")
    return [(perm_append(p, a), lab) for a, lab in enumerate(expand_label("p1234", p1234_label(p)), 1)]


# -- valley-marked Dyck paths ----------------------------------------------------------


def vmdyck_label(path: LatticePath) -> Label:
    return (last_descent_length(path.steps),)


def vmdyck_children(path: LatticePath):
    """Children by a new rightmost peak in the last descent; a freshly made
    valley takes every admissible mark.  With a last descent of length r,
    the 1 + (r + ... + 1) children list the production of (r) backwards."""
    require_member(path, VMDYCK_CLASS, "a valley-marked Dyck path")
    steps, marks = path.steps, path.marks
    r = last_descent_length(steps)
    head = steps[: len(steps) - r]
    kids = [LatticePath(head + "UD" + "D" * r, marks, PathKind.VMDYCK)]
    for j in range(1, r + 1):
        child_steps = head + "D" * j + "UD" + "D" * (r - j)
        kids += [LatticePath(child_steps, marks + (m,), PathKind.VMDYCK) for m in range(r - j + 1)]
    return list(zip(kids, reversed(expand_label("pcat", vmdyck_label(path)))))


# -- increasing ordered trees with increasing leaves -------------------------------------


def tree_label(t: OrderedTree) -> Label:
    return (t.arity[0],)


def tree_children(t: OrderedTree):
    """Children by relabel-and-insert: bump every positive label, then hang a
    new vertex 1 under the root over a contiguous bunch of root edges; the
    empty bunch goes in the leftmost gap so leaf 1 stays first in pre-order,
    and vertex 1 goes in before the first root child of its bunch.  With k
    root edges, the 1 + (k + ... + 1) children list the production of (k)
    backwards."""
    require_valid(t, "an increasing-leaves tree")
    labels = (0,) + tuple(v + 1 for v in t.labels[1:])  # the root alone is 0
    arity = t.arity
    k = arity[0]
    bounds = root_child_bounds(arity)
    with_1 = [labels[:p] + (1,) + labels[p:] for p in bounds]  # shared by the children
    kids = []
    for b, start in [(0, 0)] + [(b, start) for b in range(1, k + 1) for start in range(k - b + 1)]:
        p = bounds[start]
        kids.append(OrderedTree._from_flat(with_1[start], (k - b + 1,) + arity[1:p] + (b,) + arity[p:]))
    return list(zip(kids, reversed(expand_label("pcat", tree_label(t)))))


# -- family registry and the consistency report ---------------------------------------------


@dataclass(frozen=True)
class FamilyGrowth:
    """One growth: its rule, the text format of its objects (a parse_object
    kind) and its class key (kind, spec), from which the objects of each size
    and the membership test come, independently of the growth itself."""

    rule: str
    kind: str
    cls: tuple
    children: Callable
    label: Callable
    parent: Callable | None = None

    def enumerate(self, n: int) -> list:
        return enumerate_class(*self.cls, n)

    def member(self, obj) -> bool:
        return is_valid(obj) and in_class(*self.cls, obj)


FAMILIES = {
    "cat": FamilyGrowth("cat", "invseq", _invseq_class("cat"), cat_children, cat_label),
    **{
        name: FamilyGrowth(name, "invseq", _invseq_class(cls), partial(children_rightmost_entry, name), label)
        for name, (cls, label) in _RIGHTMOST.items()
    },
    "pcat:invseq": FamilyGrowth(
        "pcat", "invseq", _invseq_class("pcat"), pcat_children_invseq, pcat_label_invseq, pcat_parent_invseq
    ),
    "pcat:vmdyck": FamilyGrowth("pcat", "vmdyck", VMDYCK_CLASS, vmdyck_children, vmdyck_label),
    "pcat:tree": FamilyGrowth("pcat", "tree", ("tree", None), tree_children, tree_label),
    "steady": FamilyGrowth("steady", "steady", STEADY_CLASS, steady_children, steady_label),
    "p1234": FamilyGrowth("p1234", "perm", P1234_CLASS, perm1234_children, p1234_label),
}


@dataclass(frozen=True)
class GrowthReport:
    family: str
    n_max: int
    objects_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def growth_consistency(family: str, n_max: int) -> GrowthReport:
    """Certify one growth up to n_max: every child is a member, the emitted
    label multiset equals the rule's production, the label emitted for each
    child (the production's entry at its place) equals the one computed on
    the child itself, and each member of size s+1 has exactly one parent.
    Each size is enumerated once: the members of size s+1 are the next
    parents.  Children and members are counted by value; text only words
    a violation.  Every count is positive, so plain dict equality is exact
    for the Counters and reuses their stored hashes, where Counter.__eq__
    looks every key up again through the objects' Python-level __hash__.
    n_max + 1, the size of the last members, lies within the size range of
    the family's objects; LimitError before any work otherwise."""
    if family not in FAMILIES:
        raise UnknownNameError("growth family", family, FAMILIES)
    fam = FAMILIES[family]
    size = "path" if fam.kind in ("vmdyck", "steady") else fam.kind
    check_size(size, n_max, SIZE_LIMITS[size][1] - 1)
    violations = []
    checked = 0
    members = fam.enumerate(1)
    for s in range(1, n_max + 1):
        produced = Counter()
        for obj in members:
            checked += 1
            kids = fam.children(obj)
            emitted = Counter(lab for _, lab in kids)
            expected = Counter(expand_label(fam.rule, fam.label(obj)))
            if dict.__ne__(emitted, expected):
                violations.append(
                    f"size {s}: {to_text(obj)} label {fam.label(obj)} produced {sorted(emitted.items())}, "
                    f"rule says {sorted(expected.items())}"
                )
            for child, lab in kids:
                if not fam.member(child):
                    violations.append(f"size {s}: child {to_text(child)} of {to_text(obj)} fails membership")
                if fam.label(child) != lab:
                    violations.append(
                        f"size {s}: child {to_text(child)} of {to_text(obj)} got label {lab}, "
                        f"direct computation gives {fam.label(child)}"
                    )
                if fam.parent is not None and fam.parent(child) != obj:
                    violations.append(f"size {s}: parent of {to_text(child)} is not {to_text(obj)}")
                produced[child] += 1
        members = fam.enumerate(s + 1)
        next_members = Counter(members)
        if dict.__ne__(produced, next_members):
            extra = produced - next_members
            missing = next_members - produced
            for obj in list(extra)[:3]:
                violations.append(f"size {s + 1}: {to_text(obj)} generated {produced[obj]} times")
            for obj in list(missing)[:3]:
                violations.append(f"size {s + 1}: {to_text(obj)} never generated")
    return GrowthReport(family, n_max, checked, tuple(violations))
