"""Core combinatorial value types and their validation.

Four object kinds live here: inversion sequences, permutations, lattice
paths over the step alphabet {U, D, W} with per-valley marks, and labeled
ordered trees.  Values are immutable after construction and construction is
permissive: invariants are checked by :func:`validate`, which reports every
violation (not just the first) so that callers can shrink counterexamples.
:func:`is_valid` is the membership test for hot paths: it returns exactly
``validate(obj).ok`` from one pass per object and builds no report, so a
caller that only needs the verdict, or builds the report only to word an
error (:func:`require_valid`), pays for the report only on failure.

Path geometry conventions: U = (1,1), D = (1,-1), W = (-1,1); paths start at
the origin; a valley is a DU factor and its height is the y-coordinate of
the DU corner; marks are stored one per valley, left to right.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, count
from operator import sub

from .errors import MembershipError, ParseError, UnknownNameError

STEP_VECTORS = {"U": (1, 1), "D": (1, -1), "W": (-1, 1)}


class PathKind(str, Enum):
    DYCK = "dyck"
    VMDYCK = "vmdyck"
    STEADY = "steady"
    VMSTEADY = "vmsteady"

    @classmethod
    def _missing_(cls, value):
        raise UnknownNameError("path kind", value, [k.value for k in cls])

    @property
    def marked(self) -> bool:
        return self in (PathKind.VMDYCK, PathKind.VMSTEADY)

    @property
    def allows_w(self) -> bool:
        return self in (PathKind.STEADY, PathKind.VMSTEADY)


@dataclass(frozen=True)
class InversionSequence:
    """Integer sequence e_1..e_n; valid when 0 <= e_i < i for every i."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(int, self.entries)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class Permutation:
    """One-line notation; valid when the values are a rearrangement of 1..n."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(int, self.values)))

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class LatticePath:
    """Step word plus one mark per valley (DU factor), left to right.

    Unmarked kinds carry all-zero marks so that all four kinds share one
    representation.  Shape errors (bad alphabet, mark count != valley count)
    are parse-level and raise immediately; kind invariants are validate()'s
    business.
    """

    steps: str
    marks: tuple[int, ...]
    kind: PathKind

    def __post_init__(self):
        for i, s in enumerate(self.steps):
            if s not in STEP_VECTORS:
                raise ParseError(f"step {s!r} is not one of U, D, W", position=i + 1)
        object.__setattr__(self, "marks", tuple(map(int, self.marks)))
        nv = self.steps.count("DU")
        if len(self.marks) != nv:
            raise ParseError(
                f"{len(self.marks)} marks for {nv} valleys", position=len(self.steps)
            )
        if not isinstance(self.kind, PathKind):
            object.__setattr__(self, "kind", PathKind(self.kind))

    @property
    def size(self) -> int:
        return self.steps.count("U")


def make_path(steps: str, marks=None, kind: PathKind | str = PathKind.DYCK) -> LatticePath:
    """Build a path, defaulting marks to one zero per valley."""
    kind = PathKind(kind)
    if marks is None:
        marks = (0,) * steps.count("DU")
    return LatticePath(steps, tuple(marks), kind)


@dataclass(frozen=True, slots=True, init=False)
class OrderedTree:
    """Ordered rooted tree with integer vertex labels, stored in pre-order
    (Knuth, TAOCP vol. 1, 2.3.3): labels[i] and arity[i] are the label and
    the child count of the i-th vertex, so no walk or comparison recurses.
    OrderedTree(label, children) hangs built trees under a new root."""

    labels: tuple[int, ...]
    arity: tuple[int, ...]

    def __init__(self, label: int, children=()):
        children = tuple(children)
        for i, child in enumerate(children):
            if not isinstance(child, OrderedTree):
                raise TypeError(f"child {i} of a tree must be an OrderedTree, not {child!r}")
        object.__setattr__(self, "labels", (label,) + tuple(chain.from_iterable(c.labels for c in children)))
        object.__setattr__(self, "arity", (len(children),) + tuple(chain.from_iterable(c.arity for c in children)))

    @classmethod
    def _from_flat(cls, labels: tuple[int, ...], arity: tuple[int, ...]) -> OrderedTree:
        tree = object.__new__(cls)
        object.__setattr__(tree, "labels", labels)
        object.__setattr__(tree, "arity", arity)
        return tree

    @property
    def label(self) -> int:
        return self.labels[0]

    @property
    def children(self) -> tuple[OrderedTree, ...]:
        b = root_child_bounds(self.arity)
        return tuple(OrderedTree._from_flat(self.labels[i:j], self.arity[i:j]) for i, j in zip(b, b[1:]))

    @property
    def size(self) -> int:
        """Number of non-root vertices."""
        return len(self.labels) - 1

    def preorder_labels(self) -> list[int]:
        return list(self.labels)


def root_child_bounds(arity: tuple[int, ...]) -> list[int]:
    """Pre-order start of each root child, then the vertex count.  After
    vertex i, sum(arity[:i + 1]) - i vertices are still owed; that falls by
    at most one a vertex and first hits k - c at the end of root child c."""
    owed = list(map(sub, accumulate(arity), count()))
    bounds = [1]
    for left in range(arity[0] - 1, -1, -1):
        bounds.append(owed.index(left, bounds[-1]) + 1)
    return bounds


@dataclass(frozen=True)
class PathStatistics:
    w_count: int
    total_mark: int
    returns_to_axis: int
    returns_to_mark: int
    diagonal_steps: int
    last_descent_length: int
    edge_line_offset: int


@dataclass(frozen=True)
class Violation:
    invariant: str
    position: int  # 1-based entry/step index, 0 when global
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self):
        return self.ok


# -- path geometry -----------------------------------------------------------


def path_points(steps: str) -> list[tuple[int, int]]:
    """Lattice points visited, starting at (0, 0); length is len(steps) + 1."""
    x = y = 0
    pts = [(0, 0)]
    for s in steps:
        dx, dy = STEP_VECTORS[s]
        x += dx
        y += dy
        pts.append((x, y))
    return pts


def path_heights(steps: str) -> list[int]:
    y = 0
    hs = [0]
    for s in steps:
        y += STEP_VECTORS[s][1]
        hs.append(y)
    return hs


def path_valleys(steps: str) -> list[tuple[int, int]]:
    """Valleys as (index of the U step, valley height), left to right.  The
    height after a run of steps is 2 * (its U and W steps) - its length."""
    out = []
    y = done = 0
    i = steps.find("DU")
    while i >= 0:
        run = steps[done : i + 1]
        y += 2 * (run.count("U") + run.count("W")) - len(run)
        done = i + 1
        out.append((done, y))
        i = steps.find("DU", done)
    return out


def last_descent_length(steps: str) -> int:
    n = 0
    for s in reversed(steps):
        if s != "D":
            break
        n += 1
    return n


def _up_factor_positions(steps: str) -> list[int]:
    """Indices i of up steps that close a UU or WU factor (step i-1 in {U,W})."""
    return [
        i
        for i in range(1, len(steps))
        if steps[i] == "U" and steps[i - 1] in ("U", "W")
    ]


def edge_line_offset(steps: str) -> int:
    """Offset t of the edge line y = x - t through the up step of the
    rightmost UU or WU factor; t = 0 when no such factor exists."""
    i = max(steps.rfind("UU"), steps.rfind("WU")) + 1
    if not i:
        return 0
    head = steps[:i]  # U keeps x - y, D raises it by 2 and W lowers it by 2
    return 2 * (head.count("D") - head.count("W"))


def diagonal_step_count(steps: str) -> int:
    """Steps whose segment is contained in the line y = x.

    Only U steps qualify (D and W cross the diagonal rather than lie on it),
    so this counts up steps starting at a point with y = x.
    """
    n = 0
    x = y = 0
    for s in steps:
        if s == "U" and x == y:
            n += 1
        dx, dy = STEP_VECTORS[s]
        x += dx
        y += dy
    return n


def returns_to_axis(steps: str) -> int:
    hs = path_heights(steps)
    return sum(1 for h in hs[1:-1] if h == 0)


def path_statistics(path: LatticePath) -> PathStatistics:
    """All seven path statistics; see PathStatistics for the field set.
    TypeError for a non-path and MembershipError, before anything is
    computed, unless the path is valid for its kind."""
    require_valid(path, "a valid path", LatticePath)
    return _path_statistics(path)


def _path_statistics(path: LatticePath) -> PathStatistics:
    """path_statistics of a path already known to be valid."""
    steps = path.steps
    vals = path_valleys(steps)
    returns_mark = sum(1 for (_, h), m in zip(vals, path.marks) if m == h)
    return PathStatistics(
        w_count=steps.count("W"),
        total_mark=sum(path.marks),
        returns_to_axis=returns_to_axis(steps),
        returns_to_mark=returns_mark,
        diagonal_steps=diagonal_step_count(steps),
        last_descent_length=last_descent_length(steps),
        edge_line_offset=edge_line_offset(steps),
    )


def steady_code(steps: str) -> tuple[int, ...]:
    """The code d_1..d_n of a steady word: d_k is half the x - y of the k-th
    up step's start.  U keeps x - y, D raises it by 2 and W lowers it by 2,
    so d_k counts the D steps less the W steps before the k-th U.  The code
    of a steady path is an inversion sequence, and read reversed it is the
    left inversion table of the path's permutation in AV(1-34-2)."""
    return tuple(accumulate(run.count("D") - run.count("W") for run in steps.split("U")[:-1]))


def steady_word(code) -> str:
    """Inverse of steady_code: the word whose k-th up step starts on
    x - y = 2 d_k, for an inversion sequence d (ValueError otherwise).
    Consecutive up steps are joined by d_k - d_{k-1} D steps, or by as many
    W steps when that is negative, and the word closes with the descent
    to the x-axis.  The word is confined to the cone 0 <= y <= x; it is a
    steady word exactly when no later d_j falls below the d_k of a UU or WU
    factor (S1/S2), which validate() checks."""
    parts = []
    prev = 0
    for k, d in enumerate(code):
        if not 0 <= d <= k:
            raise ValueError(f"d_{k + 1} = {d} violates 0 <= d_{k + 1} < {k + 1}")
        parts.append("D" * (d - prev) + "W" * (prev - d) + "U")  # one of the two runs is empty
        prev = d
    parts.append("D" * (len(parts) - prev))
    return "".join(parts)


# -- validation ---------------------------------------------------------------


def _validate_invseq(e: InversionSequence) -> list[Violation]:
    out = []
    if len(e.entries) == 0:
        out.append(Violation("length", 0, "length must be at least 1"))
    for i, v in enumerate(e.entries, start=1):
        if not 0 <= v < i:
            out.append(Violation("bound", i, f"e_{i} = {v} violates 0 <= e_{i} < {i}"))
    return out


def _validate_perm(p: Permutation) -> list[Violation]:
    out = []
    n = len(p.values)
    if n == 0:
        out.append(Violation("length", 0, "length must be at least 1"))
    seen = set()
    for i, v in enumerate(p.values, start=1):
        if not 1 <= v <= n:
            out.append(Violation("range", i, f"value {v} outside 1..{n}"))
        elif v in seen:
            out.append(Violation("distinct", i, f"value {v} repeated"))
        seen.add(v)
    return out


def _s1_s2_violations(steps: str, pts) -> list[Violation]:
    # suffix_min[i] = min of x - y over points i..end; a factor whose up step
    # sits on y = x - t is violated exactly when that minimum drops below t.
    n = len(pts)
    suffix_min = [0] * n
    m = 10**9
    for i in range(n - 1, -1, -1):
        x, y = pts[i]
        m = min(m, x - y)
        suffix_min[i] = m
    out = []
    for i in _up_factor_positions(steps):
        x, y = pts[i]
        t = x - y
        if i + 2 <= n - 1 and suffix_min[i + 2] < t:
            px, py = next(p for p in pts[i + 2 :] if p[0] - p[1] < t)
            name = "S1" if steps[i - 1] == "U" else "S2"
            fx, fy = pts[i + 1]
            out.append(
                Violation(
                    name,
                    i + 1,
                    f"{steps[i - 1]}U factor ending at ({fx},{fy}) is followed by "
                    f"point ({px},{py}) above the line y = x - {t}",
                )
            )
    return out


def nonzero_mark_blockers(steps: str, valleys) -> list[tuple[str, int] | None]:
    """For each valley of path_valleys(steps), None when a valley-marked
    steady path may give it a nonzero mark, else (rule, index) of the first
    W step that forbids it: M2 when the valley lies above that W step's
    start, M3 when it sits at the same height to its left."""
    heights = path_heights(steps)
    w_steps = [(i, heights[i]) for i, s in enumerate(steps) if s == "W"]
    out = []
    for u_idx, h in valleys:
        blocker = None
        for w_idx, wh in w_steps:
            if h > wh or (h == wh and u_idx < w_idx):
                blocker = ("M2" if h > wh else "M3", w_idx)
                break
        out.append(blocker)
    return out


def _validate_path(path: LatticePath) -> list[Violation]:
    steps, marks, kind = path.steps, path.marks, path.kind
    out = []
    if not steps:
        out.append(Violation("length", 0, "empty step word"))
        return out
    pts = path_points(steps)
    vals = path_valleys(steps)

    if not kind.allows_w:
        for i, s in enumerate(steps):
            if s == "W":
                out.append(Violation("no-w", i + 1, "W step in a Dyck-kind path"))
        for i, (x, y) in enumerate(pts):
            if y < 0:
                out.append(Violation("below-axis", i, f"point ({x},{y}) below the x-axis"))
                break
        if pts[-1][1] != 0:
            out.append(Violation("endpoint", len(steps), f"ends at {pts[-1]}, not on the x-axis"))
    else:
        for i, (x, y) in enumerate(pts):
            if y < 0 or y > x:
                out.append(Violation("cone", i, f"point ({x},{y}) outside the cone 0 <= y <= x"))
                break
        for i in range(len(steps) - 1):
            if steps[i] == "W" and steps[i + 1] == "D":
                out.append(Violation("factor-wd", i + 1, "forbidden WD factor"))
            if steps[i] == "D" and steps[i + 1] == "W":
                out.append(Violation("factor-dw", i + 1, "forbidden DW factor"))
        n_up = steps.count("U")
        if pts[-1] != (2 * n_up, 0):
            out.append(
                Violation("endpoint", len(steps), f"ends at {pts[-1]}, expected ({2 * n_up},0)")
            )
        out.extend(_s1_s2_violations(steps, pts))

    if kind.marked:
        for vi, ((_, h), m) in enumerate(zip(vals, marks), start=1):
            if not 0 <= m <= h:
                out.append(
                    Violation("M1", vi, f"valley {vi} at height {h} has mark {m} outside 0..{h}")
                )
        if kind is PathKind.VMSTEADY:
            for vi, ((_, h), m, blocker) in enumerate(zip(vals, marks, nonzero_mark_blockers(steps, vals)), start=1):
                if m == 0 or blocker is None:
                    continue
                name, w_idx = blocker
                if name == "M2":
                    detail = (
                        f"valley {vi} at height {h} with nontrivial mark lies above "
                        f"the W step at index {w_idx + 1} (height {pts[w_idx][1]})"
                    )
                else:
                    detail = (
                        f"valley {vi} with nontrivial mark at height {h} sits left of "
                        f"the W step at index {w_idx + 1} at the same height"
                    )
                out.append(Violation(name, vi, detail))
    else:
        for vi, m in enumerate(marks, start=1):
            if m != 0:
                out.append(Violation("zero-marks", vi, f"valley {vi} carries mark {m} != 0"))
    return out


def _parent_labels(t: OrderedTree):
    """The label of each vertex's parent in pre-order (-inf for the root),
    from a stack with one entry for every child still to come: the parent
    of the next vertex is always the last one pushed."""
    above = [float("-inf")]
    for label, kids in zip(t.labels, t.arity):
        yield above.pop()
        above += [label] * kids


def _validate_tree(t: OrderedTree) -> list[Violation]:
    labels = t.labels
    n = len(labels) - 1
    out = []
    if labels[0] != 0:
        out.append(Violation("root", 1, f"root labeled {labels[0]}, expected 0"))
    if sorted(labels) != list(range(n + 1)):
        out.append(Violation("labels", 0, f"labels {sorted(labels)} are not 0..{n}"))
    leaves, leaf_order = [], []
    for pos, (label, above, kids) in enumerate(zip(labels, _parent_labels(t), t.arity), start=1):
        if label <= above:
            out.append(Violation("increasing", pos, f"child {label} does not exceed parent {above}"))
        if not kids:
            if leaves and label <= leaves[-1]:
                detail = f"pre-order leaves ...{leaves[-1]},{label}... are not increasing"
                leaf_order.append(Violation("increasing-leaves", len(leaves) + 1, detail))
            leaves.append(label)
    return out + leaf_order


def validate(obj) -> ValidationReport:
    """Check every kind invariant of a domain object; report all violations."""
    if isinstance(obj, InversionSequence):
        violations = _validate_invseq(obj)
    elif isinstance(obj, Permutation):
        violations = _validate_perm(obj)
    elif isinstance(obj, LatticePath):
        violations = _validate_path(obj)
    elif isinstance(obj, OrderedTree):
        violations = _validate_tree(obj)
    else:
        raise TypeError(f"cannot validate {type(obj).__name__}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _path_ok(path: LatticePath) -> bool:
    """One forward pass over the steps.  S1/S2 become a running floor on
    x - y: the start of each UU or WU up step raises it to its own x - y,
    which the up step keeps, and no later point may fall below it.  A W step
    blocks a nonzero mark on a valley above its start, or at its height and
    to its left; so each W is checked against the highest nonzero-marked
    valley before it, and each such valley against the lowest W before it.
    y = 0 at the end also puts the end at x = 2 * (up steps), since
    x + y = 2 * (up steps) all along."""
    steps, marks, kind = path.steps, path.marks, path.kind
    if not steps or not kind.marked and any(marks):
        return False
    w_kind = kind.allows_w
    x = y = floor = valley = 0
    lowest_w = top_mark = None  # lowest W start so far; highest nonzero-marked valley so far
    prev = ""
    for s in steps:
        if s == "U":
            if prev == "D":
                m = marks[valley]
                valley += 1
                if m:
                    if not 0 < m <= y or lowest_w is not None and lowest_w < y:
                        return False
                    top_mark = y if top_mark is None else max(top_mark, y)
            elif prev and x - y > floor:  # a UU or WU factor
                floor = x - y
            x += 1
            y += 1
        elif s == "D":
            if prev == "W":
                return False
            x += 1
            y -= 1
        else:
            if not w_kind or prev == "D" or top_mark is not None and top_mark >= y:
                return False
            lowest_w = y if lowest_w is None else min(lowest_w, y)
            x -= 1
            y += 1
        if y < 0 or w_kind and x - y < floor:  # the floor is >= 0, so this keeps y <= x too
            return False
        prev = s
    return y == 0


def _tree_ok(t: OrderedTree) -> bool:
    """One pre-order pass: root 0, every child above its parent, leaves
    increasing, and the labels 0..n.  Labels 0..n are >= 0, so -1 can stand
    for no leaf yet; any other labels fail the last test."""
    last_leaf = -1
    for label, above, kids in zip(t.labels, _parent_labels(t), t.arity):
        if label <= above:
            return False
        if not kids:
            if label <= last_leaf:
                return False
            last_leaf = label
    return t.labels[0] == 0 and sorted(t.labels) == list(range(len(t.labels)))


def is_valid(obj) -> bool:
    """Exactly validate(obj).ok, from one pass that builds no report."""
    if isinstance(obj, InversionSequence):
        return bool(obj.entries) and all(0 <= v < i for i, v in enumerate(obj.entries, start=1))
    if isinstance(obj, Permutation):
        return bool(obj.values) and sorted(obj.values) == list(range(1, len(obj.values) + 1))
    if isinstance(obj, LatticePath):
        return _path_ok(obj)
    if isinstance(obj, OrderedTree):
        return _tree_ok(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def require_valid(obj, what: str, cls=object) -> None:
    """Raise TypeError unless obj is a cls, and MembershipError naming the
    first violation unless obj is valid; the report is built only to word
    the error."""
    if not isinstance(obj, cls):
        raise TypeError(f"expected {what}, got a {type(obj).__name__}")
    if not is_valid(obj):
        raise MembershipError(f"{to_text(obj)} is not {what}: {validate(obj).violations[0].detail}")


# -- text formats --------------------------------------------------------------
#
# inversion sequences / inversion tables / permutations: comma-separated ints
# paths: step word, with an optional ";marks=m1,m2,..." suffix
# trees: nested parenthesized label lists, children left to right: 0(1(3)2)


def _parse_int_list(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        raise ParseError("empty integer list", position=1)
    parts = text.split(",")
    out = []
    for i, part in enumerate(parts, start=1):
        try:
            out.append(int(part.strip()))
        except ValueError:
            raise ParseError(f"bad integer {part.strip()!r}", position=i) from None
    return tuple(out)


def parse_path_text(text: str, kind: PathKind | str) -> LatticePath:
    kind = PathKind(kind)
    steps, _, suffix = text.partition(";")
    marks = None
    if suffix:
        if not suffix.startswith("marks="):
            raise ParseError(f"expected ';marks=' suffix, got {suffix!r}", position=len(steps) + 2)
        marks = _parse_int_list(suffix[len("marks=") :])
    return make_path(steps, marks, kind)


def parse_tree_text(text: str) -> OrderedTree:
    """Parse nested label lists straight into the pre-order tuples, with an
    explicit stack of open vertices, so the nesting depth is bounded by
    memory, not by the recursion limit."""
    text = text.strip()
    labels, arity = [], []
    stack = []  # pre-order indices of the open vertices, innermost last
    pos = 0
    while True:
        if pos < len(text) and text[pos] != ")":
            if text[pos] == ",":
                pos += 1
                continue
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise ParseError(f"expected a label, got {text[pos]!r}", position=pos + 1)
            if stack:
                arity[stack[-1]] += 1
            labels.append(int(text[start:pos]))
            arity.append(0)
            if pos < len(text) and text[pos] == "(":
                stack.append(len(labels) - 1)
                pos += 1
            continue
        if not stack:
            break
        if pos == len(text):
            raise ParseError("unbalanced parentheses", position=pos + 1)
        stack.pop()
        pos += 1
    if pos != len(text):
        raise ParseError("trailing input after tree", position=pos + 1)
    roots = len(labels) - sum(arity)  # every vertex but a root has a parent
    if roots != 1:
        raise ParseError(f"expected one root, found {roots}", position=1)
    return OrderedTree._from_flat(tuple(labels), tuple(arity))


def parse_object(text: str, kind: str):
    """Parse external text into a domain object; kind selects the format.

    Path kinds are dyck/vmdyck/steady/vmsteady; the other kinds are invseq,
    invtable (plain integer tuple), perm, and tree.
    """
    if kind in ("invseq",):
        return InversionSequence(_parse_int_list(text))
    if kind in ("invtable",):
        return _parse_int_list(text)
    if kind in ("perm",):
        return Permutation(_parse_int_list(text))
    if kind in ("tree",):
        return parse_tree_text(text)
    return parse_path_text(text, kind)


def text_size(text: str, kind: str) -> int:
    """Size of the object a text of the given kind describes, read off the
    text without parsing it: the entries of an integer list, the up steps of
    a path, the labels of a tree less the root (0 for a text with none).
    Equal to the parsed object's size whenever the text parses."""
    if kind in ("invseq", "invtable", "perm"):
        return text.count(",") + 1
    if kind == "tree":
        return max(len(re.findall(r"\d+", text)) - 1, 0)
    return text.partition(";")[0].count("U")


def to_text(obj) -> str:
    """Canonical text form; inverse of parse_object for every valid object."""
    if isinstance(obj, InversionSequence):
        return ",".join(map(str, obj.entries))
    if isinstance(obj, Permutation):
        return ",".join(map(str, obj.values))
    if isinstance(obj, tuple):
        return ",".join(map(str, obj))
    if isinstance(obj, LatticePath):
        if obj.kind.marked and obj.marks:
            return obj.steps + ";marks=" + ",".join(map(str, obj.marks))
        return obj.steps
    if isinstance(obj, OrderedTree):
        # a label above 9 has two digits, and in the narrow form no two
        # digits of different labels touch
        text = _tree_text(obj, False)
        if re.search(r"\d\d", text) and max(obj.labels) > 9:
            return _tree_text(obj, True)
        return text
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _tree_text(t: OrderedTree, wide: bool) -> str:
    """One pre-order pass.  Siblings are written side by side, with a comma
    after a childless one (whose digits would otherwise run into the next
    label) and after every one when some label has more than one digit."""
    parts = []
    owed = []  # children still to come of each open vertex, innermost last
    for label, kids in zip(t.labels, t.arity):
        if parts and parts[-1] != "(" and (wide or parts[-1] != ")"):
            parts.append(",")
        parts.append(str(label))
        if owed:
            owed[-1] -= 1
        if kids:
            parts.append("(")
            owed.append(kids)
        while owed and not owed[-1]:
            owed.pop()
            parts.append(")")
    return "".join(parts)
