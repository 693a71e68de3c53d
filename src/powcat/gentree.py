"""Succession-rule engine.

A succession rule is an axiom label plus a production from labels to label
multisets; iterating the productions from the axiom generates an infinite
tree whose level sizes enumerate the associated class.

Every production in the catalog is a few arithmetic runs of labels: a run
starts at a label, takes a fixed unit step a given number of times (k moves
on a one-component label (k); on a two-component label (h, k) the run keeps
to a row, a column or an anti-diagonal h + k = s), and emits each label it
meets with a multiplicity that is affine along the run (pcat's label j
appears j times).  Each rule is stored once, as the function from a parent
label to its runs.  expand_label flattens the runs into the children in the
rule's stated order.  label_distribution counts a whole level by dynamic
programming on distinct labels without listing children: each parent adds
its count to a difference array per run (two entries, or four when the
multiplicity grows along the run), and one prefix sweep per line turns the
arrays into the next level's counts.  A level then costs O(labels + cells)
instead of O(labels x children), with Python's arbitrary-precision integers
throughout.  The levels are yielded one by one: level_counts,
rules_isomorphic_check and series.functional_equation_residual hold one
level of each tree at a time.

The catalog ships the eight rules used across the package, addressed by the
canonical names cat, cat2, i-geq3, bax, semi, pcat, p1234, steady.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Callable, NamedTuple

from .errors import UnknownNameError, check_size

Label = tuple[int, ...]


class Run(NamedTuple):
    """The labels start + i*step for i < length, label i emitted
    mult + growth*i times (a length below 1 is an empty run)."""

    start: Label
    step: Label
    length: int
    mult: int = 1
    growth: int = 0


# steps: along a one-component label, rows (h moves), columns (k moves) and
# anti-diagonals h + k = s; a negative step lists its run in falling order
UP = (1,)
ROW, ROW_DOWN = (1, 0), (-1, 0)
COLUMN = (0, 1)
ANTI, ANTI_UP = (1, -1), (-1, 1)


@dataclass(frozen=True)
class SuccessionRule:
    name: str
    axiom: Label
    runs: Callable[..., tuple[Run, ...]]  # the components of a label -> its production

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"a rule name must be a str, not {self.name!r}")
        if not isinstance(self.axiom, tuple) or not all(isinstance(c, int) for c in self.axiom):
            raise TypeError(f"rule {self.name}'s axiom must be a tuple of ints, not {self.axiom!r}")
        if not self.axiom or min(self.axiom) < 0:
            raise ValueError(f"rule {self.name}'s axiom must have at least one component, none negative: {self.axiom!r}")
        if not callable(self.runs):
            raise TypeError(f"rule {self.name}'s runs must be callable, not {self.runs!r}")

    def __str__(self):
        return self.name


def _cat(k):
    """(k) -> (1), (2), ..., (k+1)"""
    return (Run((1,), UP, k + 1),)


def _cat2(h, k):
    """(h,k) -> (0,k+1) h times, then (h+d, k-d+1) for d = 1..k"""
    return (Run((0, k + 1), COLUMN, 1, h), Run((h + 1, k), ANTI, k))


def _igeq3(h, k):
    """(h,k) -> (h-d, k+1) for d = 1..h, then (h+d, k-d+1) for d = 1..k"""
    return (Run((h - 1, k + 1), ROW_DOWN, h), Run((h + 1, k), ANTI, k))


def _bax(h, k):
    """(h,k) -> (h-d, k+1) for d = 1..h-1, (1,k+1), then (h+d, k-d+1) for d = 1..k"""
    return (Run((h - 1, k + 1), ROW_DOWN, h - 1), Run((1, k + 1), ROW, 1), Run((h + 1, k), ANTI, k))


def _semi(h, k):
    """(h,k) -> (h-d, k+1) for d = 0..h-1, then (h+d, k-d+1) for d = 1..k"""
    return (Run((h, k + 1), ROW_DOWN, h), Run((h + 1, k), ANTI, k))


def _pcat(k):
    """(k) -> (j) j times for j = 1..k, then (k+1)"""
    return (Run((1,), UP, k, 1, 1), Run((k + 1,), UP, 1))


def _p1234(h, k):
    """(1,k) -> (a, k+2-a) for a = 1..k+1; otherwise (h,k) -> (a, h+k+1-a)
    for a = 1..h, then (h+d, 0) for d = 1..k"""
    if h == 1:
        return (Run((1, k + 1), ANTI, k + 1),)
    return (Run((1, h + k), ANTI, h), Run((h + 1, 0), ROW, k))


def _steady(h, k):
    """(h,k) -> (h+k-1-i, i+2) for i = 0..k-2, then (0, k+1+d) for d = 0..h"""
    return (Run((h + k - 1, 2), ANTI_UP, k - 1), Run((0, k + 1), COLUMN, h + 1))


RULES = {
    rule.name: rule
    for rule in (
        SuccessionRule("cat", (1,), _cat),
        SuccessionRule("cat2", (1, 1), _cat2),
        SuccessionRule("i-geq3", (1, 1), _igeq3),
        SuccessionRule("bax", (1, 1), _bax),
        SuccessionRule("semi", (1, 1), _semi),
        SuccessionRule("pcat", (1,), _pcat),
        SuccessionRule("p1234", (1, 1), _p1234),
        SuccessionRule("steady", (0, 2), _steady),
    )
}


def get_rule(rule) -> SuccessionRule:
    if isinstance(rule, SuccessionRule):
        return rule
    try:
        return RULES[rule]
    except KeyError:
        raise UnknownNameError("rule", rule, RULES) from None


def expand_label(rule, label: Label) -> tuple[Label, ...]:
    """The production of one label, in the rule's stated order.

    Empty ranges (crossed bounds) are fine; a label of the wrong arity or
    with negative components is malformed and rejected.
    """
    rule = get_rule(rule)
    label = tuple(label)
    if any(not isinstance(c, int) or c < 0 for c in label):
        raise ValueError(f"label {label} is malformed for rule {rule.name}")
    try:
        return _flatten(rule.runs, label)
    except TypeError:
        raise ValueError(f"label {label} has the wrong arity for rule {rule.name}") from None


@lru_cache(maxsize=4096)
def _flatten(runs, label: Label) -> tuple[Label, ...]:
    """The runs of a label listed child by child.  Growth checks ask for the
    same few labels once per object, so the productions are kept."""
    out: list[Label] = []
    for start, step, length, mult, growth in runs(*label):
        children = [tuple(a + i * d for a, d in zip(start, step)) for i in range(length)]
        if mult == 1 and not growth:
            out += children
        else:
            for i, child in enumerate(children):
                out += [child] * (mult + growth * i)
    return tuple(out)


def _line(start: Label, step: Label):
    """(line, position of start on it, direction) for a run: the line is
    ("k",) for one-component labels, ("row", k), ("col", h) or ("anti", h + k)
    for two, and the position is the component the step moves (h on rows
    and anti-diagonals)."""
    if len(start) == 1:
        return ("k",), start[0], step[0]
    (h, k), (dh, dk) = start, step
    if dk == 0:
        return ("row", k), h, dh
    if dh == 0:
        return ("col", h), k, dk
    return ("anti", h + k), h, dh


def _cells(line, size: int):
    """The labels at positions 0..size-1 of a line."""
    kind = line[0]
    if kind == "k":
        return zip(range(size))
    if kind == "row":
        return zip(range(size), repeat(line[1]))
    if kind == "col":
        return zip(repeat(line[1]), range(size))
    return zip(range(size), range(line[1], line[1] - size, -1))


def _placed_runs(rule: SuccessionRule, label: Label):
    """The non-empty runs of a label as (line, first position, end position,
    multiplicity at position 0, slope): position t of the line gets
    mult + slope*t copies for first <= t < end.  The level DP sizes its lines
    for children at positions 0..sum(label)+1, which every rule of the
    catalog keeps to; a run outside them raises ValueError."""
    out = []
    for start, step, length, mult, growth in rule.runs(*label):
        if length < 1:
            continue
        line, p, d = _line(start, step)
        lo, hi = (p, p + length) if d > 0 else (p - length + 1, p + 1)
        if lo < 0 or hi > sum(label) + 2:
            raise ValueError(f"rule {rule.name}: a run of label {label} leaves positions 0..{sum(label) + 1}")
        out.append((line, lo, hi, mult - growth * d * p, growth * d))
    return out


def _next_level(rule: SuccessionRule, level: dict[Label, int], placed: dict) -> dict[Label, int]:
    """One DP step on lines of size max(sum(label)) + 3, which hold every
    child position and the end marker of every run; placed memoizes
    _placed_runs across levels."""
    size = max(map(sum, level)) + 3
    flat = defaultdict(lambda: [0] * size)  # line -> difference array of the constant part
    slope = defaultdict(lambda: [0] * size)  # line -> difference array of the slope
    for lab, cnt in level.items():
        runs = placed.get(lab)
        if runs is None:
            runs = placed[lab] = _placed_runs(rule, lab)
        for line, lo, hi, m, g in runs:
            diff = flat[line]
            a = cnt * m
            diff[lo] += a
            diff[hi] -= a
            if g:
                sd = slope[line]
                g *= cnt
                sd[lo] += g
                sd[hi] -= g
    nxt: dict[Label, int] = {}
    for line, diff in flat.items():
        values = accumulate(diff)
        if line in slope:
            values = (v + t * s for t, (v, s) in enumerate(zip(values, accumulate(slope[line]))))
        for cell, v in zip(_cells(line, size), values):
            if v:
                nxt[cell] = nxt.get(cell, 0) + v
    return nxt


def _levels(rule, depth: int):
    """Label -> node count for levels 1..depth, each made from the one before."""
    rule = get_rule(rule)
    check_size("depth", depth)
    level = {rule.axiom: 1}
    placed: dict = {}
    yield level
    for _ in range(depth - 1):
        level = _next_level(rule, level, placed)
        yield level


def label_distribution(rule, depth: int) -> list[dict[Label, int]]:
    """Label -> node count for levels 1..depth, by DP on distinct labels."""
    return list(_levels(rule, depth))


def level_counts(rule, depth: int) -> list[int]:
    """Number of generating-tree nodes at levels 1..depth."""
    return [sum(level.values()) for level in _levels(rule, depth)]


def rules_isomorphic_check(rule_a, rule_b, relabel, depth: int):
    """Level-by-level comparison of rule_a's relabeled tree against rule_b's.

    Returns (True, None) when the relabeled label multisets agree on every
    level up to depth, else (False, (level, label, count_a, count_b)) for
    the first divergence (smallest level, then smallest label); no later level is built.
    """
    for level, (da, db) in enumerate(zip(_levels(rule_a, depth), _levels(rule_b, depth)), start=1):
        merged: dict[Label, int] = {}
        for lab, cnt in da.items():
            new = tuple(relabel(lab))
            merged[new] = merged.get(new, 0) + cnt
        if merged != db:
            for lab in sorted(set(merged) | set(db)):
                ca, cb = merged.get(lab, 0), db.get(lab, 0)
                if ca != cb:
                    return False, (level, lab, ca, cb)
    return True, None


def p1234_to_steady_relabel(lab: Label) -> Label:
    """Label map carrying the 1-23-4 rule onto the steady rule: (1,k) becomes
    (k+1,0) and then the two parameters swap roles."""
    h, k = lab
    if h == 1:
        return (0, k + 1)
    return (k, h)
