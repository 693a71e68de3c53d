"""Core combinatorial value types and their validation.

Four object kinds live here: inversion sequences, permutations, lattice
paths over the step alphabet {U, D, W} with per-valley marks, and labeled
ordered trees.  Values are immutable after construction.  Construction
checks only the shape (integer entries, the step alphabet, one mark per
valley, tree children); the kind invariants are stated once per kind, as
a generator that yields a Violation for each breach it meets in one pass
over the object.  :func:`validate` collects every violation (not just the
first) so that callers can shrink counterexamples; :func:`is_valid`, the
membership test for hot paths, stops at the first, so it is exactly
``validate(obj).ok``, and a caller that builds the report only to word an
error (:func:`require_valid`) pays for it only on failure.

Path geometry conventions: U = (1,1), D = (1,-1), W = (-1,1); paths start at
the origin; a valley is a DU factor and its height is the y-coordinate of
the DU corner; marks are stored one per valley, left to right.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, count
from math import inf
from operator import sub
from typing import NamedTuple

from .errors import MembershipError, ParseError, UnknownNameError

STEP_VECTORS = {"U": (1, 1), "D": (1, -1), "W": (-1, 1)}


class PathKind(str, Enum):
    DYCK = "dyck"
    VMDYCK = "vmdyck"
    STEADY = "steady"
    VMSTEADY = "vmsteady"

    def __init__(self, value):
        # plain attributes: a property of an Enum member costs about ten times
        # as much to read, and every membership test reads both
        self.marked = value in ("vmdyck", "vmsteady")
        self.allows_w = value in ("steady", "vmsteady")

    @classmethod
    def _missing_(cls, value):
        raise UnknownNameError("path kind", value, [k.value for k in cls])


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; ValueError when int() would change
    one of them, so that 0.5 is not read as 0."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        raise ValueError(f"{what} {values!r} are not all integers")
    return ints


@dataclass(frozen=True)
class InversionSequence:
    """Integer sequence e_1..e_n; valid when 0 <= e_i < i for every i."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _int_tuple(self.entries, "entries"))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class Permutation:
    """One-line notation; valid when the values are a rearrangement of 1..n."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _int_tuple(self.values, "values"))

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
        object.__setattr__(self, "marks", _int_tuple(self.marks, "marks"))
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
        if not isinstance(label, int):
            raise TypeError(f"the label of a tree must be an int, not {label!r}")
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


class Violation(NamedTuple):
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
#
# One generator per kind states its rules and yields a Violation for each
# breach as it meets it.  is_valid stops at the first; validate collects them
# all and sorts them into report order: by the rank of the rule in
# _REPORT_ORDER, then by position.  No two kinds share a rule name, and
# within a rank no two violations share a position.

_REPORT_ORDER = (
    "length", "bound", "range distinct", "root", "labels", "increasing", "increasing-leaves",
    "no-w", "below-axis cone", "factor-wd factor-dw", "endpoint", "S1 S2", "M1", "M2 M3", "zero-marks",
)
_REPORT_RANK = {name: rank for rank, names in enumerate(_REPORT_ORDER) for name in names.split()}


def _invseq_violations(e: InversionSequence):
    if not e.entries:
        yield Violation("length", 0, "length must be at least 1")
    i = 0  # a counter is cheaper than enumerate here
    for v in e.entries:
        i += 1
        if not 0 <= v < i:
            yield Violation("bound", i, f"e_{i} = {v} violates 0 <= e_{i} < {i}")


def _perm_violations(p: Permutation):
    n = len(p.values)
    if not n:
        yield Violation("length", 0, "length must be at least 1")
    seen = [False] * (n + 1)
    i = 0
    for v in p.values:
        i += 1
        if not 1 <= v <= n:
            yield Violation("range", i, f"value {v} outside 1..{n}")
        elif seen[v]:
            yield Violation("distinct", i, f"value {v} repeated")
        else:
            seen[v] = True


def _path_violations(path: LatticePath):
    """The rules of the path's kind, in one forward pass over the steps.

    Geometry: only the first point outside the cone 0 <= y <= x (steady
    kinds) or below the x-axis (Dyck kinds) is reported.  Every point has
    x + y = 2 * (up steps so far), so y = 0 at the end also puts a steady
    path's end at (2 * (up steps), 0).

    S1/S2: the up step of a UU or WU factor starts on the line y = x - t,
    and no later point may fall below x - y = t.  The floor is the largest
    such t among the factors no point has broken yet, and at least 0, so
    that a point outside the cone falls below it too; only a point below
    the floor looks back for the factors it breaks (_broken_factors).

    M1-M3: a valley at height h takes a mark 0..h, and the first W step
    that starts below h (M2), or at h to the valley's right (M3), forbids
    a nonzero one.  So a nonzero-marked valley above the lowest W start so
    far is blocked at once, and any other waits for the first later W step
    starting at or below its height."""
    steps, marks, kind = path.steps, path.marks, path.kind
    if not steps:
        yield Violation("length", 0, "empty step word")
        return
    marked, w_kind = kind.marked, kind.allows_w
    if not marked and any(marks):
        for vi, m in enumerate(marks, start=1):
            if m:
                yield Violation("zero-marks", vi, f"valley {vi} carries mark {m} != 0")
    x = y = floor = valley = ws = 0  # ws counts the W steps, so x + 2 * ws counts every step
    outside = False  # whether the first point outside the cone or below the axis is reported
    broken = set()  # indices of the UU/WU up steps that a point has broken
    waiting = []  # (valley, height) of the nonzero-marked valleys no W step has blocked yet
    lowest, top = inf, -inf  # the lowest W start so far, the highest waiting valley
    prev = ""
    for s in steps:
        if s == "U":
            if prev == "D":
                if marked:
                    m = marks[valley]
                    valley += 1
                    if not 0 <= m <= y:
                        yield Violation("M1", valley, f"valley {valley} at height {y} has mark {m} outside 0..{y}")
                    if m and w_kind:
                        if lowest < y:  # blocked by the first W step starting below y
                            for w, (_, h) in enumerate(path_points(steps)):
                                if h < y and steps[w] == "W":
                                    break
                            yield _m2(valley, y, w, h)
                        else:
                            waiting.append((valley, y))
                            if y > top:
                                top = y
            elif prev and x - y > floor:  # a UU or WU factor
                floor = x - y
            x += 1
            y += 1
        elif s == "D":
            if prev == "W" and w_kind:
                yield Violation("factor-wd", x + 2 * ws, "forbidden WD factor")
            x += 1
            y -= 1
        else:
            if not w_kind:
                yield Violation("no-w", x + 2 * ws + 1, "W step in a Dyck-kind path")
            else:
                if prev == "D":
                    yield Violation("factor-dw", x + 2 * ws, "forbidden DW factor")
                if top >= y:
                    below = []
                    for v, h in waiting:
                        if h > y:
                            yield _m2(v, h, x + 2 * ws, y)
                        elif h == y:
                            yield Violation("M3", v, f"valley {v} with nontrivial mark at height {h} sits left of "
                                            f"the W step at index {x + 2 * ws + 1} at the same height")
                        else:
                            below.append((v, h))
                    waiting = below
                    top = max((h for _, h in waiting), default=-inf)
                if y < lowest:
                    lowest = y
            ws += 1
            x -= 1
            y += 1
        if y < 0 or w_kind and x - y < floor:
            if not outside and (y < 0 or y > x):  # a Dyck kind gets here only when y < 0
                outside = True
                yield (Violation("cone", x + 2 * ws, f"point ({x},{y}) outside the cone 0 <= y <= x") if w_kind
                       else Violation("below-axis", x + 2 * ws, f"point ({x},{y}) below the x-axis"))
            if w_kind and x - y < floor:
                floor = yield from _broken_factors(steps, x + 2 * ws, broken)
        prev = s
    if y:
        want = f"expected ({x + y},0)" if w_kind else "not on the x-axis"
        yield Violation("endpoint", len(steps), f"ends at {(x, y)}, {want}")


def _broken_factors(steps: str, end: int, broken: set[int]):
    """Yield an S1/S2 violation for each UU/WU factor before point end that
    this point is the first to break, adding its up step to broken, and
    return the new floor: the largest t of the factors left, or 0."""
    pts = path_points(steps)
    x, y = pts[end]
    floor = 0
    for j in range(1, end):
        if steps[j] == "U" and steps[j - 1] != "D" and j not in broken:
            t = pts[j][0] - pts[j][1]
            if t > x - y:
                broken.add(j)
                fx, fy = pts[j + 1]
                yield Violation("S1" if steps[j - 1] == "U" else "S2", j + 1,
                                f"{steps[j - 1]}U factor ending at ({fx},{fy}) is followed by "
                                f"point ({x},{y}) above the line y = x - {t}")
            elif t > floor:
                floor = t
    return floor


def _m2(valley: int, h: int, w: int, wh: int) -> Violation:
    return Violation("M2", valley, f"valley {valley} at height {h} with nontrivial mark lies above "
                     f"the W step at index {w + 1} (height {wh})")


def _parent_labels(t: OrderedTree):
    """The label of each vertex's parent in pre-order (-inf for the root),
    from a stack with one entry for every child still to come: the parent
    of the next vertex is always the last one pushed."""
    above = [-inf]
    for label, kids in zip(t.labels, t.arity):
        yield above.pop()
        above += [label] * kids


def _tree_violations(t: OrderedTree):
    """One pre-order pass: root 0, the labels 0..n, every child above its
    parent, and the leaves increasing from left to right."""
    labels = t.labels
    if labels[0] != 0:
        yield Violation("root", 1, f"root labeled {labels[0]}, expected 0")
    ordered = sorted(labels)
    if ordered != list(range(len(labels))):
        yield Violation("labels", 0, f"labels {ordered} are not 0..{len(labels) - 1}")
    pos, last_leaf = 0, -inf
    for label, above, kids in zip(labels, _parent_labels(t), t.arity):
        pos += 1
        if label <= above:
            yield Violation("increasing", pos, f"child {label} does not exceed parent {above}")
        if not kids:
            if label <= last_leaf:  # reported at the leaf's place among the leaves
                yield Violation("increasing-leaves", t.arity[:pos].count(0),
                                f"pre-order leaves ...{last_leaf},{label}... are not increasing")
            last_leaf = label


def _violations(obj):
    if isinstance(obj, InversionSequence):
        return _invseq_violations(obj)
    if isinstance(obj, Permutation):
        return _perm_violations(obj)
    if isinstance(obj, LatticePath):
        return _path_violations(obj)
    if isinstance(obj, OrderedTree):
        return _tree_violations(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def validate(obj) -> ValidationReport:
    """Check every kind invariant of a domain object; report all violations."""
    violations = tuple(sorted(_violations(obj), key=lambda v: (_REPORT_RANK[v.invariant], v.position)))
    return ValidationReport(ok=not violations, violations=violations)


def is_valid(obj) -> bool:
    """Exactly validate(obj).ok: the same rules, stopped at the first
    violation, so no report is collected or sorted."""
    return next(_violations(obj), None) is None


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


def _ascii_int(text: str, position: int | None = None) -> int:
    """An optional "-" then ASCII 0-9: the one integer syntax of the text
    formats and of the CLI's integer options.  int() also takes "+0", "0_0",
    surrounding spaces and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ParseError(f"bad integer {text!r}", position=position)
    return int(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        raise ParseError("empty integer list", position=1)
    return tuple(_ascii_int(part.strip(), i) for i, part in enumerate(text.split(","), start=1))


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
            while pos < len(text) and text[pos] in "0123456789":
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
        return max(len(re.findall(r"[0-9]+", text)) - 1, 0)
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
