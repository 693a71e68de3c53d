"""Succession-rule engine.

A succession rule is an axiom label plus a production function from labels
to label multisets; iterating the productions from the axiom generates an
infinite tree whose level sizes enumerate the associated class.  Counting
works by dynamic programming on distinct labels (levels of the powered
Catalan trees hold ~10^6 nodes but only a handful of distinct labels), with
Python's arbitrary-precision integers throughout.

The catalog ships the eight rules used across the package, addressed by the
canonical names cat, cat2, i-geq3, bax, semi, pcat, p1234, steady.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import check_size

Label = tuple[int, ...]


@dataclass(frozen=True)
class SuccessionRule:
    name: str
    axiom: Label
    produce: Callable[[Label], tuple[Label, ...]]

    def __str__(self):
        return self.name


def _produce_cat(lab: Label) -> tuple[Label, ...]:
    (k,) = lab
    return tuple((j,) for j in range(1, k + 2))


def _produce_cat2(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    out = [(0, k + 1)] * h
    out += [(h + d, k - d + 1) for d in range(1, k + 1)]
    return tuple(out)


def _produce_igeq3(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    out = [(h - d, k + 1) for d in range(1, h + 1)]
    out += [(h + d, k - d + 1) for d in range(1, k + 1)]
    return tuple(out)


def _produce_bax(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    out = [(h - d, k + 1) for d in range(1, h)]
    out.append((1, k + 1))
    out += [(h + d, k - d + 1) for d in range(1, k + 1)]
    return tuple(out)


def _produce_semi(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    out = [(h - d, k + 1) for d in range(h)]
    out += [(h + d, k - d + 1) for d in range(1, k + 1)]
    return tuple(out)


def _produce_pcat(lab: Label) -> tuple[Label, ...]:
    (k,) = lab
    out: list[Label] = []
    for j in range(1, k + 1):
        out += [(j,)] * j
    out.append((k + 1,))
    return tuple(out)


def _produce_p1234(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    if h == 1:
        return tuple((a, k + 2 - a) for a in range(1, k + 2))
    out = [(a, h + k + 1 - a) for a in range(1, h + 1)]
    out += [(h + d, 0) for d in range(1, k + 1)]
    return tuple(out)


def _produce_steady(lab: Label) -> tuple[Label, ...]:
    h, k = lab
    out = [(h + k - 1 - i, i + 2) for i in range(k - 1)]
    out += [(0, k + 1 + d) for d in range(h + 1)]
    return tuple(out)


RULES = {
    "cat": SuccessionRule("cat", (1,), _produce_cat),
    "cat2": SuccessionRule("cat2", (1, 1), _produce_cat2),
    "i-geq3": SuccessionRule("i-geq3", (1, 1), _produce_igeq3),
    "bax": SuccessionRule("bax", (1, 1), _produce_bax),
    "semi": SuccessionRule("semi", (1, 1), _produce_semi),
    "pcat": SuccessionRule("pcat", (1,), _produce_pcat),
    "p1234": SuccessionRule("p1234", (1, 1), _produce_p1234),
    "steady": SuccessionRule("steady", (0, 2), _produce_steady),
}


def get_rule(rule) -> SuccessionRule:
    if isinstance(rule, SuccessionRule):
        return rule
    try:
        return RULES[rule]
    except KeyError:
        raise KeyError(f"unknown rule {rule!r}; known: {', '.join(sorted(RULES))}") from None


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
        return rule.produce(label)
    except (TypeError, ValueError):
        raise ValueError(f"label {label} has the wrong arity for rule {rule.name}") from None


def label_distribution(rule, depth: int) -> list[dict[Label, int]]:
    """Label -> node count for levels 1..depth, by DP on distinct labels."""
    rule = get_rule(rule)
    check_size("depth", depth)
    levels = [{rule.axiom: 1}]
    for _ in range(depth - 1):
        nxt: dict[Label, int] = {}
        for lab, cnt in levels[-1].items():
            for child in rule.produce(lab):
                nxt[child] = nxt.get(child, 0) + cnt
        levels.append(nxt)
    return levels


def level_counts(rule, depth: int) -> list[int]:
    """Number of generating-tree nodes at levels 1..depth."""
    return [sum(level.values()) for level in label_distribution(rule, depth)]


def rules_isomorphic_check(rule_a, rule_b, relabel, depth: int):
    """Level-by-level comparison of rule_a's relabeled tree against rule_b's.

    Returns (True, None) when the relabeled label multisets agree on every
    level up to depth, else (False, (level, label, count_a, count_b)) for
    the first divergence (smallest level, then smallest label).
    """
    dist_a = label_distribution(rule_a, depth)
    dist_b = label_distribution(rule_b, depth)
    for level, (da, db) in enumerate(zip(dist_a, dist_b), start=1):
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
