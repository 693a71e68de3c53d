"""Avoidance oracles and exhaustive enumerators.

Three pattern languages drive everything: triples of binary relations on
inversion sequences, and two subsequence languages, word patterns matched
as order-and-equality-preserving subsequences and (vincular) permutation
patterns where dash-free adjacent entries must sit at consecutive
positions.  The two subsequence languages share one cached search plan
(_search_plan): entry i of a pattern must take a value in a half-open
interval [bounds[lo], bounds[hi]) set by the values of entries 0..i-1,
each of which writes v and v + 1 into its two slots of bounds.

Each enumerator is a generating tree: a root state and one child step
step(m, state) -> [(piece, state')] per kind.  One depth-first search
(_walk) lists every kind: it joins the pieces into each prefix and hands
each node of size n - 1 to a last step that builds its children.
count_class lists nothing: where a state decides every completion (an ECO
label), one sum over states (_sum) steps each (m, state) once, as a
succession rule counts by labels.  Removing the last entry of an inversion
sequence (or the last point of a permutation, up to standardization) never
creates a pattern occurrence, so each step prunes on prefixes and judges a
child without building, rescanning or validating it, by an exact test:

- inversion sequences avoiding relation triples or 3-letter words:
  bitmasks of the values placed and of the values that would complete an
  occurrence; both are sets of order types of value triples
  (_order_types), so one ban table serves both;
- inversion sequences avoiding words of other lengths, and permutations:
  one search per parent along the plan (_completion_mask), over the
  occurrences of each pattern less its last entry, gives the mask of the
  appended values that would complete one; the whole prefix is then the
  state, so these classes count through _walk;
- steady and Dyck words: the last code value and the least next one that
  the S1/S2 conditions allow; the marked listings read each valley's
  height and each W run's lowest start off the code (_code_event) and give
  each word the one tuple of mark choices shared by every word with the
  same events (_marks), and the marked counts weigh each valley by its
  marks;
- increasing-leaves trees: vertices n, .., 1 go under the root in turn,
  the class is closed under deleting vertex 1, and the number of root
  children decides where the next one may go.

The last two keep exactly the prefixes that can be completed, so their
searches have no dead ends.  The docstrings give each condition and why it
holds.  Streams are reproducible: each raw listing comes in its walk's
fixed order, and enumerate_class returns canonical text order, sorting
where the walk's order is not already that.

The single-object oracles share the enumerators' state: avoids_triple
carries the same two bitmasks over the same ban table in one left-to-right
pass, and avoids_word and avoids_vincular walk the same plan as
_completing, in one search (_contains) with outer bounds -inf and inf.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import product, repeat
from math import inf
from operator import add, itemgetter

from .errors import MembershipError, ParseError, check_size
from .objects import (
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    make_path,
    require_valid,
    to_text,
)

# The letters of a pattern: str.isdecimal() would also pass non-ASCII digits to int().
_DIGITS = frozenset("0123456789")

# The signs of a - b for which each relation a r b holds.
RELATIONS = {
    "lt": (-1,), "gt": (1,), "leq": (-1, 0), "geq": (0, 1), "eq": (0,), "neq": (-1, 1), "dash": (-1, 0, 1),
}

@dataclass(frozen=True)
class RelationTriple:
    first: str
    second: str
    third: str

    def __post_init__(self):
        for r in (self.first, self.second, self.third):
            if r not in RELATIONS:
                raise ParseError(f"unknown relation token {r!r}")

    @classmethod
    def parse(cls, text: str) -> "RelationTriple":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected three relation tokens, got {text!r}")
        return cls(*parts)

    def __str__(self):
        return f"{self.first},{self.second},{self.third}"


@dataclass(frozen=True)
class WordPattern:
    word: tuple[int, ...]

    def __post_init__(self):
        if len(self.word) < 1:
            raise ParseError("word pattern must be nonempty")

    @classmethod
    def parse(cls, text: str) -> "WordPattern":
        text = text.strip()
        for i, c in enumerate(text):
            if c not in _DIGITS:
                raise ParseError(f"bad word letter {c!r} in {text!r}", position=i + 1)
        return cls(tuple(int(c) for c in text))

    def __str__(self):
        return "".join(str(c) for c in self.word)


@dataclass(frozen=True)
class VincularPattern:
    """Permutation pattern with an adjacency set.

    ``adjacent`` holds the 1-based positions i such that entries i and i+1
    are not separated by a dash and must be consecutive in any occurrence.
    An empty adjacency set is a classical pattern.
    """

    perm: tuple[int, ...]
    adjacent: frozenset[int] = frozenset()

    def __post_init__(self):
        k = len(self.perm)
        if sorted(self.perm) != list(range(1, k + 1)):
            raise ParseError(f"pattern {self.perm} is not a permutation of 1..{k}")
        if any(not 1 <= i <= k - 1 for i in self.adjacent):
            raise ParseError("adjacency positions must lie in 1..k-1")

    @classmethod
    def parse(cls, text: str) -> "VincularPattern":
        groups = text.strip().split("-")
        perm = []
        adjacent = set()
        for g in groups:
            if not g:
                raise ParseError(f"empty dash group in {text!r}")
            for j, c in enumerate(g):
                if c not in _DIGITS:
                    raise ParseError(f"bad pattern letter {c!r} in {text!r}")
                perm.append(int(c))
                if j > 0:
                    adjacent.add(len(perm) - 1)
        return cls(tuple(perm), frozenset(adjacent))

    def __str__(self):
        out = []
        for i, v in enumerate(self.perm, start=1):
            out.append(str(v))
            if i < len(self.perm) and i not in self.adjacent:
                out.append("-")
        return "".join(out)


# -- single-object oracles -----------------------------------------------------


def avoids_triple(e, triple: RelationTriple) -> bool:
    """True when no i<j<k has e_i r1 e_j, e_j r2 e_k, e_i r3 e_k.

    The state of _invseq_step read left to right: ``seen``, the values
    so far, and ``banned``, the values that would end an occurrence.  The
    relations see only order and equality, so any integer tuple is first
    moved onto values 0..n-1 of the same order and equality."""
    v = e.entries if isinstance(e, InversionSequence) else tuple(e)
    n = len(v)
    bans = _triple_bans(triple, n)
    if n < 3:
        return True
    lo = min(v)
    if max(v) - lo >= n:
        rank = {x: r for r, x in enumerate(sorted(set(v)))}
        v = [rank[x] for x in v]
    elif lo:
        v = [x - lo for x in v]
    placed = []  # the distinct values of seen
    seen = banned = 0
    for x in v:
        if banned >> x & 1:
            return False
        for a in placed:
            banned |= bans[a][x]
        if not seen >> x & 1:
            seen |= 1 << x
            placed.append(x)
    return True


@lru_cache(maxsize=None)
def _triple_bans(triple: RelationTriple, n: int):
    """The _ban_table of one triple for the values < n; TypeError unless it
    is a RelationTriple (a cache hit needs no check)."""
    if not isinstance(triple, RelationTriple):
        raise TypeError(f"expected a RelationTriple, got a {type(triple).__name__}")
    return _ban_table(_order_types((triple,), ()), n)


@lru_cache(maxsize=None)
def _search_plan(pattern):
    """For each entry i of a WordPattern or VincularPattern: (lo, hi, tied,
    after).  Given the values of entries 0..i-1, its value must lie in
    [bounds[lo], bounds[hi]); each accepted value v is written as v and
    v + 1 into slots 2i and 2i + 1 of bounds, and slots -2 and -1 hold the
    outer bounds (-inf and inf in the oracles, 0 and n + 2 in the
    enumerators, whose values lie in 0..n).  A word letter lies strictly
    between the nearest lower and higher earlier letters (slots v_b + 1
    and v_a), or is pinned to an equal one, [v_e, v_e + 1).  A permutation
    entry counts a tie with the entry above it as above (slot v_a + 1), as
    a pairwise comparison does.  tied says the entry sits right after entry
    i-1; after counts the entries after it."""
    if isinstance(pattern, WordPattern):
        letters, adjacent, above = pattern.word, (), 0
    else:
        letters, adjacent, above = pattern.perm, pattern.adjacent, 1
    k = len(letters)
    plan = []
    for i, w in enumerate(letters):
        equal = [p for p in range(i) if letters[p] == w]
        if equal:
            lo, hi = 2 * equal[0], 2 * equal[0] + 1
        else:
            b = max((p for p in range(i) if letters[p] < w), key=letters.__getitem__, default=None)
            a = min((p for p in range(i) if letters[p] > w), key=letters.__getitem__, default=None)
            lo = -2 if b is None else 2 * b + 1
            hi = -1 if a is None else 2 * a + above
        plan.append((lo, hi, i in adjacent, k - 1 - i))  # entry 0 is never tied
    return tuple(plan)


def _contains(values, plan, bounds, idx, start) -> bool:
    """Whether values hold, at or after position start, entries idx.. of an
    occurrence whose earlier entries wrote their values into bounds."""
    lo, hi, tied, after = plan[idx]
    low, high = bounds[lo], bounds[hi]
    # the room the earlier entries left keeps start within values when tied
    if not after:
        if tied:
            return low <= values[start] < high
        for v in values[start:]:
            if low <= v < high:
                return True
        return False
    slot = idx + idx
    for pos in range(start, start + 1 if tied else len(values) - after):
        v = values[pos]
        if low <= v < high:
            bounds[slot] = v
            bounds[slot + 1] = v + 1
            if _contains(values, plan, bounds, idx + 1, pos + 1):
                return True
    return False


def _occurs(values, pattern, cls) -> bool:
    if not isinstance(pattern, cls):
        raise TypeError(f"expected a {cls.__name__}, got a {type(pattern).__name__}")
    plan = _search_plan(pattern)
    return _contains(values, plan, [-inf, inf] * (len(plan) + 1), 0, 0)


def avoids_word(e, w: WordPattern) -> bool:
    """True when no subsequence of e realizes the order-and-equality type of w."""
    return not _occurs(e.entries if isinstance(e, InversionSequence) else tuple(e), w, WordPattern)


def avoids_vincular(p, pattern: VincularPattern) -> bool:
    """True when p has no occurrence of the (possibly vincular) pattern."""
    return not _occurs(p.values if isinstance(p, Permutation) else tuple(p), pattern, VincularPattern)


def _strict_minima(seq) -> int:
    """Number of entries strictly below every earlier entry."""
    count, lo = 0, None
    for x in seq:
        if lo is None or x < lo:
            count += 1
            lo = x
    return count


def perm_statistics(p) -> dict[str, int]:
    """Counts of strict LTR/RTL minima and maxima of a valid Permutation."""
    require_valid(p, "a permutation", Permutation)
    v = p.values
    negated = tuple(-x for x in v)  # maxima of v are the minima of -v
    return {
        "ltr_minima": _strict_minima(v),
        "ltr_maxima": _strict_minima(negated),
        "rtl_minima": _strict_minima(reversed(v)),
        "rtl_maxima": _strict_minima(reversed(negated)),
    }


def rtl_minima_count(values) -> int:
    """Number of strict right-to-left minima."""
    return _strict_minima(reversed(tuple(values)))


# -- characterization criteria --------------------------------------------------
# Direct structural descriptions of the five inversion-sequence families and
# of ascent structure in 1-23-4-avoiding permutations; each is equivalent to
# the corresponding avoidance class (the test suite checks this exhaustively).


def weak_descent_criterion(values) -> bool:
    """Every weak-descent entry is strictly below everything two or more
    places to its right."""
    v = tuple(values)
    n = len(v)
    for i in range(n - 1):
        if v[i] >= v[i + 1] and any(v[j] <= v[i] for j in range(i + 2, n)):
            return False
    return True


def two_chain_criterion(values) -> bool:
    """LTR maxima and the remaining entries each form a strictly increasing
    subsequence."""
    v = tuple(values)
    hi = None
    last_bottom = None
    for x in v:
        if hi is None or x > hi:
            hi = x
        else:
            if last_bottom is not None and x <= last_bottom:
                return False
            last_bottom = x
    return True


def ltr_max_flags(v):
    """flags[i] is True when v[i] is a left-to-right maximum (strict)."""
    flags = []
    hi = None
    for x in v:
        flags.append(hi is None or x > hi)
        if hi is None or x > hi:
            hi = x
    return flags


def baxter_inversion_criterion(values) -> bool:
    """Every inversion (e_i > e_j, i < j) has a LTR-maximum top and a
    RTL-minimum bottom: nothing after a non-LTR-maximum is smaller than it,
    and nothing after an inversion bottom is at or below it.  One pass;
    entries are non-negative, so -1 stands for none yet."""
    hi = top = bottom = -1  # running max; greatest non-LTR-max; greatest inversion bottom
    for x in values:
        if x < top or x <= bottom:
            return False
        if x > hi:
            hi = x
        else:
            top = max(top, x)
            if x < hi:
                bottom = max(bottom, x)
    return True


def semibaxter_inversion_criterion(values) -> bool:
    """Every inversion has a LTR-maximum top: no entry lies below an
    earlier entry that is not a LTR maximum."""
    hi = top = -1  # running max; greatest non-LTR-max
    for x in values:
        if x < top:
            return False
        if x > hi:
            hi = x
        else:
            top = max(top, x)
    return True


def ascent_min_max_criterion(values) -> bool:
    """Every ascent starts at a LTR minimum or ends at a RTL maximum: no
    entry lies above the top of an earlier ascent whose bottom is not a
    LTR minimum."""
    lo = prev = low_top = float("inf")  # running min; previous entry; least top of such an ascent
    prev_is_min = True
    for x in values:
        if x > low_top:
            return False
        if prev < x and not prev_is_min:
            low_top = min(low_top, x)
        prev, prev_is_min, lo = x, x < lo, min(lo, x)
    return True


# -- incremental occurrence checks (for pruned enumeration) ---------------------


def _completing(cur, plan, bounds, idx, start) -> int:
    """Bitmask of the values a whose appending to cur completes an occurrence
    whose entries 0..idx-1 wrote their values into bounds before position
    start, whose later entries but the last sit in cur at or after start,
    and whose last entry is a."""
    lo, hi, tied, after = plan[idx]
    if not after:
        return (1 << bounds[hi]) - (1 << bounds[lo])
    m = len(cur)
    low, high = bounds[lo], bounds[hi]
    first = max(start, m - 1) if after == 1 and plan[-1][2] else start  # the last entry is at m
    slot, mask = idx + idx, 0
    for pos in range(first, start + 1 if tied else m - after + 1):
        v = cur[pos]
        if low <= v < high:
            bounds[slot] = v
            bounds[slot + 1] = v + 1
            mask |= _completing(cur, plan, bounds, idx + 1, pos + 1)
    return mask


def _completion_mask(patterns, n):
    """For prefixes of values 0..n: a function of a prefix cur that gives the
    bitmask of the values whose appending to cur completes an occurrence of
    one of the patterns (WordPatterns or VincularPatterns), one search per
    pattern along its plan (_completing)."""
    searches = [(plan, [0, n + 2] * (len(plan) + 1)) for plan in map(_search_plan, patterns)]

    def mask(cur):
        bad = 0
        for plan, bounds in searches:
            bad |= _completing(cur, plan, bounds, 0, 0)
        return bad

    return mask


def _order_type(a, b, c):
    """The signs of a - b, b - c and a - c."""
    return (a > b) - (a < b), (b > c) - (b < c), (a > c) - (a < c)


def _order_types(triples, words3):
    """The order types of the value triples that occur as one of the relation
    triples (the product of its relations' signs) or of the 3-letter words."""
    types = {_order_type(*w) for w in words3}
    for t in triples:
        types.update(product(RELATIONS[t.first], RELATIONS[t.second], RELATIONS[t.third]))
    return frozenset(types)


@lru_cache(maxsize=None)
def _ban_table(types, n):
    """bans[a][b]: bitmask of the values c < n for which (a, b, c) has one of
    the order types."""
    return [[sum(1 << c for c in range(n) if _order_type(a, b, c) in types) for b in range(n)] for a in range(n)]


# -- enumerators ----------------------------------------------------------------
# A kind's child step gives each child of a node at depth m, in listing order,
# as the piece it appends and its own state.  Sizes n >= 1 walk to depth
# n - 1 (_walk, _sum; see the module docstring), and size 0 is its own case.
# Each class's listing and count are cached; a sum's memo lives for one call.


def _walk(step, depth, last, acc, prefix, state, join):
    """acc plus last(prefix', state') over the nodes at the given depth below
    the root (prefix, state), in depth-first order of step, where a child's
    prefix is join(prefix, piece); acc is a list for a listing and an int
    for a count."""

    def visit(m, prefix, state):
        nonlocal acc
        if m == depth:
            acc += last(prefix, state)
            return
        for piece, child in step(m, state):
            visit(m + 1, join(prefix, piece), child)

    visit(0, prefix, state)
    return acc


def _sum(step, depth, last, state):
    """The sum of last(state') over the nodes at the given depth below the
    root state, for a step that reads only the state: each (m, state) is
    stepped and summed once."""

    @cache
    def total(m, state):
        if m == depth:
            return last(state)
        c = 0
        for _, child in step(m, state):
            c += total(m + 1, child)
        return c

    return total(0, state)


def _piece(_, piece):
    """The join of a walk whose pieces are whole prefixes."""
    return piece


def _invseq_step(triples, words, n):
    """The child step, root state and join of inversion sequences of length
    n: from the state (seen, banned) of a prefix of length m < n - 1, the
    piece (v,) and the state of each allowed next entry v, in increasing v.

    Whether a relation triple or a 3-letter word occurs at positions
    i < j < k depends only on the values (e_i, e_j, e_k).  So each prefix
    carries two bitmasks: ``seen``, the values placed so far, and ``banned``,
    the values c such that some (e_i, e_j, c) with i < j is an occurrence.
    A next entry v completes an occurrence exactly when v is banned, and
    placing v bans every c with (a, v, c) an occurrence for some a in seen.
    Many prefixes share a state, so the listing works out the children of a
    state once per call (the sum steps each state once).  A word of any
    other length is searched for along the whole prefix (_completion_mask),
    which no mask records: then the state is (seen, banned, prefix), banned
    also holds the values that would complete such a word, no two prefixes
    share a state, and the piece is the whole prefix (_piece), as for
    permutations.  The root's banned is the mask of the empty prefix, which
    a 1-letter word fills."""
    bans = _ban_table(_order_types(triples, [w.word for w in words if len(w.word) == 3]), n)
    longer = [w for w in words if len(w.word) != 3]

    @cache
    def banned_by(v, seen):
        """The values banned by placing v after the values seen."""
        add = 0
        for a in range(seen.bit_length()):
            if seen >> a & 1:
                add |= bans[a][v]
        return add

    def step(m, state):
        seen, banned = state
        return [((v,), (seen | 1 << v, banned | banned_by(v, seen))) for v in range(m + 1) if not banned >> v & 1]

    if not longer:
        return step, (0, 0), add
    completing = _completion_mask(longer, n)

    def step_longer(m, state):
        seen, banned, prefix = state
        return [(grown, (seen, banned | completing(grown), grown))
                for piece, (seen, banned) in step(m, (seen, banned)) for grown in (prefix + piece,)]

    return step_longer, (0, completing(()), ()), _piece


@lru_cache(maxsize=None)
def invseq_class_raw(triples, words, n) -> tuple[tuple[int, ...], ...]:
    """All inversion sequences of length n avoiding every listed pattern, in
    lexicographic order: each member of length n - 1 (_walk, _invseq_step)
    extended by each value 0..n-1 that is not banned."""
    if not n:
        return ((),)
    step, root, join = _invseq_step(triples, words, n)
    if all(len(w.word) == 3 for w in words):
        step = cache(step)
    ends = cache(lambda banned: [(v,) for v in range(n) if not banned >> v & 1])  # few distinct masks
    return tuple(_walk(step, n - 1, lambda prefix, state: map(prefix.__add__, ends(state[1])), [], (), root, join))


@lru_cache(maxsize=None)
def _invseq_count(triples, words, n) -> int:
    """len(invseq_class_raw(triples, words, n)): the popcount of the allowed
    values 0..n-1 of each prefix of length n - 1, summed over states (_sum)
    unless a word of another length keeps the prefix in the state (_walk)."""
    if not n:
        return 1
    values = (1 << n) - 1  # the values 0..n-1 an n-th entry may take
    step, root, join = _invseq_step(triples, words, n)
    if all(len(w.word) == 3 for w in words):
        return _sum(step, n - 1, lambda state: (values & ~state[1]).bit_count(), root)
    return _walk(step, n - 1, lambda _, state: (values & ~state[1]).bit_count(), 0, (), root, join)


def _perm_step(patterns, n):
    """The child step of permutations, for one walk over sizes up to n, the
    last step that builds the children alone, and the mask of the ranks
    that would complete an occurrence, which both read: from a permutation
    cur of 1..m, which is its own state, each child cur' + (a,) for the
    ranks a = 1..m+1 that complete no occurrence, where cur' adds 1 to the
    values >= a; the child is both piece and state.

    Deleting the last entry of a permutation and standardizing never makes
    an occurrence, so a child of a member contains a pattern only through
    occurrences that end at the new entry.  The shift keeps every relative
    order within cur, and a value c of cur ends up below a when c < a and
    above it when c >= a.  So take a pattern of length k and an occurrence
    of its first k-1 entries in cur, with their adjacencies as positions in
    cur, and entry k-1 at the last position of cur when entries k-1 and k
    are adjacent.  It extends to an occurrence ending at the new entry
    exactly when a lies in (L, U]: L is the largest of its values whose
    pattern entry lies below entry k (0 if none) and U the smallest whose
    pattern entry lies above it (beyond m+1 if none), the interval
    _search_plan gives a permutation entry.  One search per parent over
    these occurrences (_completion_mask) gives the mask of the ranks that
    would complete an occurrence, and only the other children are built.
    The walk starts from the empty permutation, whose child (1,) goes
    through the same mask (k = 1 gives the empty occurrence and every rank).

    Row a of the rank table holds v + (v >= a) at each v <= n and then a
    itself, so one itemgetter per parent reads each child off its row.  The
    table is sized by n, not by SIZE_LIMITS, since the limit= argument of
    the class functions lets n pass them."""
    rows = [tuple(v + (v >= a) for v in range(n + 1)) + (a,) for a in range(n + 1)]
    completing = _completion_mask(patterns, n)

    def children(_, cur):
        bad = completing(cur)
        get = itemgetter(*cur, n + 1) if cur else itemgetter(slice(n + 1, None))  # the child (a,) of ()
        return [get(rows[a]) for a in range(1, len(cur) + 2) if not bad >> a & 1]

    def step(m, cur):
        kids = children(m, cur)
        return zip(kids, kids)

    return step, children, completing


@lru_cache(maxsize=None)
def perm_class_raw(patterns, n) -> tuple[tuple[int, ...], ...]:
    """All permutations of 1..n avoiding every listed vincular pattern, grown
    by appending a rank (_walk, _perm_step), in lexicographic order of the
    ranks appended."""
    if not n:
        return ((),)
    step, children, _ = _perm_step(patterns, n)
    return tuple(_walk(step, n - 1, children, [], (), (), _piece))


@lru_cache(maxsize=None)
def _perm_count(patterns, n) -> int:
    """len(perm_class_raw(patterns, n)), by the same walk: each member of
    size n - 1 adds the number of ranks outside its mask."""
    if not n:
        return 1
    step, _, completing = _perm_step(patterns, n)
    allowed = lambda _, cur: (((1 << len(cur) + 2) - 2) & ~completing(cur)).bit_count()  # the ranks 1..n
    return _walk(step, n - 1, allowed, 0, (), (), _piece)


def _steady_walk(n, allows_w, marked):
    """The steady words of size n >= 1 (the Dyck words when not allows_w),
    in lexicographic order of their codes (objects.steady_code): each prefix
    up to its (n-1)-th up step, with the least d_n it allows as floor, is
    completed by ends[d_{n-1}][d], the n-th up step with d_n = d >= floor
    and the closing descent.  When marked, each word comes with every
    choice of its valleys' marks (_marks), word by word, the walk carrying
    the events of the code rule (_code_event) from which they follow.

    Any inversion sequence d_1..d_n is the code of a cone-confined word,
    objects.steady_word(d); only S1/S2 remain.  The k-th up step starts on
    x - y = 2 d_k; the step before it is U, W or D as d_k equals, is below
    or is above d_{k-1}, so a UU or WU factor ends at it exactly when
    d_k <= d_{k-1}; and the path after it drops below x - y = 2 d_k exactly
    when some later d_j < d_k (between up steps x - y runs monotonically
    from 2 d_{j-1} to 2 d_j, and the closing descent raises it).  S1/S2
    therefore say that every later d_j is at least that d_k.  The search
    keeps the largest such d_k as a floor for the next choice, which never
    empties the range 0..k-1, so every prefix it keeps can be completed;
    the word is built as the d_k are chosen.  A Dyck word is a steady word
    without W, whose code never falls, so there the floor is always
    d_{k-1}, which also meets S1/S2 (_steady_step).
    """
    ends = [[_between(n - 1, p, d) + "D" * (n - d) for d in range(n)] for p in range(n)]
    if not marked:
        last = lambda word, state: [word + end for end in ends[state[0]][state[1]:]]
        return _walk(cache(_steady_step(allows_w, _between)), n - 1, last, [], "", (0, 0), add)
    marks = cache(partial(_marks, n, {}))  # one tuple of mark choices per event signature

    def last(prefix, state):
        (word, events), (d_prev, floor) = prefix, state
        out = []
        for d, end in enumerate(ends[d_prev][floor:], floor):
            out.extend(zip(repeat(word + end), marks(events + _code_event(n - 1, d_prev, d))))
        return out

    step = cache(_steady_step(allows_w, lambda k, p, d: (_between(k, p, d), _code_event(k, p, d))))
    join = lambda prefix, piece: (prefix[0] + piece[0], prefix[1] + piece[1])  # (word, events)
    return _walk(step, n - 1, last, [], ("", ()), (0, 0), join)


def _between(k, d_prev, d):
    """The steps after up step k through up step k + 1, when d_k = d_prev
    and d_{k+1} = d."""
    return "D" * (d - d_prev) + "W" * (d_prev - d) + "U"


def _steady_step(allows_w, piece):
    """The child step of _steady_walk, for one walk: from the state
    (d_k, floor) after k up steps, the piece piece(k, d_k, d) and the state
    (d, floor') of each allowed d_{k+1} = d, in increasing d.  A fall
    (d < d_k, W steps) or a stay makes a UU or WU factor, which raises the
    floor to d; a rise (D steps, a valley) keeps it, and a Dyck word never
    falls.  The listings take the steps between the up steps (_between) as
    pieces, with their events (_code_event) when marked; the counts take
    the events."""

    def step(k, state):
        d_prev, floor = state
        return [(piece(k, d_prev, d), (d, floor if allows_w and d > d_prev else d)) for d in range(floor, k + 1)]

    return step


def _code_event(k, d_prev, d):
    """The code rule, the one place where the marked listing and _path_count
    read valleys and W steps off a code: what lies between up steps k and
    k + 1 when d_k = d_prev and d_{k+1} = d.

    The k-th up step starts at height k - 1 - d_k and ends at k - d_k.  So a
    rise leaves a valley at height h = k - d_{k+1}, event (h,); a fall is a
    W run whose steps start at heights k - d_k up to k - d_{k+1} - 1, event
    (~low,) for its lowest start low = k - d_k (negative, so apart from any
    valley); a stay is event ()."""
    return (k - d,) if d > d_prev else (~(k - d_prev),) if d < d_prev else ()


def _marks(n, shared, events):
    """Every choice of marks, valley by valley from the left, for a marked
    path of size n whose code gives the events (_code_event); each choice
    is the one tuple of its values in the dict shared, so that paths with
    other events share it too.

    A valley at height h takes a mark 0..h unless a W step blocks a nonzero
    one (the M2/M3 rule of objects._path_violations): one whose start lies
    below h, or at h and to the valley's right.  Let M be the lowest W start
    (n when there is no W step, above every valley).  The W steps starting
    at M are the lowest steps of the W runs whose lowest start is M, since
    every step of another run starts higher.  So a valley is free when
    h < M, or when h == M and it comes after the last W run starting at M;
    any other valley takes 0 alone.  A Dyck word has no W step, so all its valleys are free."""
    low = min((~e for e in events if e < 0), default=n)
    ranges, w_at_low = [], False  # whether a W run starting at M lies to the right
    for e in reversed(events):
        if e == ~low:
            w_at_low = True
        elif e >= 0:
            ranges.append(range(e + 1) if e < low or e == low and not w_at_low else (0,))
    choices = list(product(*reversed(ranges)))
    return tuple(map(shared.setdefault, choices, choices))


@lru_cache(maxsize=None)
def dyck_words(n) -> tuple[str, ...]:
    """All Dyck words of size n, in lexicographic order, which is that of
    their codes (U before D)."""
    return tuple(_steady_walk(n, False, False)) if n else ("",)


@lru_cache(maxsize=None)
def steady_words(n) -> tuple[str, ...]:
    """All steady words of size n, in lexicographic order of their codes."""
    return tuple(_steady_walk(n, True, False)) if n else ("",)


@lru_cache(maxsize=None)
def vmdyck_paths_raw(n) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Dyck words, in the order of dyck_words, each with every choice of
    marks for its valleys, a valley at height h taking 0..h, in the order
    of itertools.product.  The walk reads each valley's height off the
    code, k - d_{k+1} where d_{k+1} > d_k (_code_event), and words
    with the same valley heights share one tuple of mark choices (_marks)."""
    return tuple(_steady_walk(n, False, True)) if n else (("", ()),)


@lru_cache(maxsize=None)
def vmsteady_paths_raw(n) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Steady words, in the order of steady_words, each with every choice of
    marks that the M2/M3 rule of objects._path_violations allows: a blocked
    valley keeps mark 0, a free one at height h takes 0..h.  The walk reads
    the valleys and the lowest start of each W run off the code
    (_code_event); with M the lowest W start, a valley is free when below
    M, or at M after the last W run starting at M (_marks, which says why)."""
    return tuple(_steady_walk(n, True, True)) if n else (("", ()),)


def _path_raw(kind: PathKind, n):
    if kind.marked:
        return vmdyck_paths_raw(n) if kind is PathKind.VMDYCK else vmsteady_paths_raw(n)
    return dyck_words(n) if kind is PathKind.DYCK else steady_words(n)


@lru_cache(maxsize=None)
def _path_count(kind: PathKind, n) -> int:
    """len(_path_raw(kind, n)).  The state (d_k, floor) of _steady_walk
    decides every completion, so unmarked paths, one per code, are counted
    by a sum over states (_sum).  The marked counts read each child's event
    (_code_event) off _steady_step: a marked Dyck path has h + 1 marks per
    valley at height h.  In a marked steady path with lowest W start M, a
    valley below M is free, one above M is blocked, and one at height M is
    free only after the last W run starting at M (_marks).  So a marked
    count is a weighted recursion on the state with two more fields, summed
    over M: no W (M = n, every valley free), or M = 0..n-1, where the state
    also carries whether the rest of the path must still hold a W run
    starting at M; a W run that starts at M leaves either answer."""
    allows_w = kind.allows_w
    step = _steady_step(allows_w, _code_event)
    if not kind.marked:
        return _sum(step, n, lambda state: 1, (0, 0))
    if allows_w:
        step = cache(step)  # stepped once per lowest W start M, where a Dyck state is stepped once

    @cache
    def count(k, state, lowest_w, must_w):
        if k == n:
            return int(not must_w)
        c = 0
        for event, child in step(k, state):
            if not event:
                c += count(k + 1, child, lowest_w, must_w)
            elif event[0] < 0:  # a W run, whose lowest step starts at ~event[0]
                low = ~event[0]
                if low > lowest_w:
                    c += count(k + 1, child, lowest_w, must_w)
                elif low == lowest_w and must_w:
                    c += count(k + 1, child, lowest_w, False) + count(k + 1, child, lowest_w, True)
            else:  # a valley at height h
                h = event[0]
                free = h < lowest_w or h == lowest_w and not must_w
                c += (h + 1 if free else 1) * count(k + 1, child, lowest_w, must_w)
        return c

    return count(0, (0, 0), n, False) + sum(count(0, (0, 0), m, True) for m in range(n if allows_w else 0))


def _tree_step(leaves_increasing):
    """The child step of _grow_trees, for one walk: from the number k of root
    children, which decides where the next vertex may go, each run i..j of
    root children it may cover, the gaps i..i first (the leftmost only with
    leaves_increasing), with the number k - (j - i) + 1 of root children it
    leaves.  The runs depend on k alone, so they are worked out once per k,
    whatever the depth."""

    @cache
    def places(k):
        gaps = [(g, g) for g in range(1 if leaves_increasing else k + 1)]
        return [((i, j), k - (j - i) + 1) for i, j in gaps + [(i, j) for i in range(k) for j in range(i + 1, k + 1)]]

    return lambda m, k: places(k)


def _grow_trees(n, leaves_increasing: bool):
    """The trees of size n >= 1, from the root alone (_walk, _tree_step),
    vertex v = n, .., 1 going in under the root as increasing_ordered_trees
    says.  A partial tree is its pre-order labels and arities below the
    root, and each root child's start in them, then their end; v goes in
    before the first child of its run i..j, and a leaf is i..i."""
    step = _tree_step(leaves_increasing)

    def join(tree, run):
        (labels, arity, starts), (i, j) = tree, run
        p = starts[i]
        return (labels[:p] + (n - len(labels),) + labels[p:], arity[:p] + (j - i,) + arity[p:],
                starts[: i + 1] + tuple(s + 1 for s in starts[j:]))

    def last(tree, k):  # vertex 1 over i..j, leaving the root k2 children
        labels, arity, starts = tree
        return [
            OrderedTree._from_flat((0,) + labels[:p] + (1,) + labels[p:], (k2,) + arity[:p] + (j - i,) + arity[p:])
            for (i, j), k2 in step(n - 1, k) for p in (starts[i],)
        ]

    return _walk(step, n - 1, last, [], ((), (), (0,)), 0, join)


@lru_cache(maxsize=None)
def increasing_ordered_trees(n) -> tuple[OrderedTree, ...]:
    """All (2n-1)!! increasing ordered trees on labels 0..n.

    In such a tree vertex 1 is a child of the root.  Deleting it and putting
    its children in its place among the root's children leaves an
    increasing ordered tree on 0, 2..n, and vertex 1 is recovered from the
    place it covered: a run of consecutive root children, or a gap between
    them when it was a leaf.  Every tree on 0..n therefore arises exactly
    once from a tree on one vertex fewer and a place, and with k root
    children there are k(k+1)/2 runs and k+1 gaps.  Read with final labels,
    this places n first and 1 last, always under the root (_grow_trees).
    """
    return tuple(_grow_trees(n, False)) if n else (OrderedTree._from_flat((0,), (0,)),)


@lru_cache(maxsize=None)
def increasing_leaf_trees(n) -> tuple[OrderedTree, ...]:
    """Increasing ordered trees whose pre-order leaves increase, by the
    decomposition of increasing_ordered_trees restricted to members.

    Deleting vertex 1 keeps every other leaf a leaf and keeps their
    pre-order, so it keeps the leaves increasing: the class is closed under
    the deletion.  Putting vertex 1 back over a run of root children adds
    no leaf, so the tree stays a member.  As a leaf, 1 is the least leaf, so
    the tree is a member exactly when it is the first leaf in pre-order, that
    is when it sits in the leftmost gap (any root child before it carries a
    leaf of its own).  The search therefore keeps exactly the members at
    every step, and has no dead ends and no filter; the places it skips
    make non-members, and by the closure everything grown from a
    non-member is one, so the order is that of increasing_ordered_trees.
    """
    return tuple(_grow_trees(n, True)) if n else (OrderedTree._from_flat((0,), (0,)),)


@lru_cache(maxsize=None)
def _leaf_tree_count(n) -> int:
    """len(increasing_leaf_trees(n)), by a sum over the state of _grow_trees
    (_sum, _tree_step): the places of each next vertex, and so every
    completion, depend only on the number k of root children."""
    return _sum(_tree_step(True), n, lambda k: 1, 0)


def _as_pattern_key(spec):
    if isinstance(spec, (RelationTriple, WordPattern, VincularPattern)):
        return (spec,)
    return tuple(spec)


def _as_is(obj):
    return obj


def _class(kind: str, spec, n: int, limit=None):
    """(listing form, counting form, their arguments, constructor of one
    object from a raw member) of the size-n class; LimitError outside the
    kind's range in SIZE_LIMITS (limit, when given, replaces its highest),
    ParseError for an unknown kind."""
    if kind == "invseq-triple":
        check_size("invseq", n, limit)
        return invseq_class_raw, _invseq_count, (_as_pattern_key(spec), (), n), InversionSequence
    if kind == "invseq-words":
        check_size("invseq", n, limit)
        return invseq_class_raw, _invseq_count, ((), _as_pattern_key(spec), n), InversionSequence
    if kind == "perm-vincular":
        check_size("perm", n, limit)
        return perm_class_raw, _perm_count, (_as_pattern_key(spec), n), Permutation
    if kind == "path-kind":
        check_size("path", n, limit)
        k = PathKind(spec)
        make = (lambda steps_marks: LatticePath(*steps_marks, k)) if k.marked else partial(make_path, kind=k)
        return _path_raw, _path_count, (k, n), make
    if kind == "tree":
        check_size("tree", n, limit)
        return increasing_leaf_trees, _leaf_tree_count, (n,), _as_is
    raise ParseError(f"unknown class kind {kind!r}")


def enumerate_class(kind: str, spec, n: int, limit=None):
    """Stream the size-n objects of a class, sorted by canonical text.

    kind is one of invseq-triple, invseq-words, perm-vincular, path-kind,
    tree; spec carries the patterns (or the PathKind).  Raises LimitError
    outside the kind's size range.

    Inversion sequences of length n <= 10 are not sorted: their walk lists
    them in lexicographic order, and every entry is at most 9, so all their
    texts have the same length, one digit per entry at the same places, and
    compare as the tuples do.  From n = 11 (through limit=) an entry can
    take two digits, so those and every other kind are sorted by text.
    """
    listing, _, args, make = _class(kind, spec, n, limit)
    objects = map(make, listing(*args))
    if kind in ("invseq-triple", "invseq-words") and n <= 10:
        return list(objects)
    return sorted(objects, key=to_text)


def count_class(kind: str, spec, n: int, limit=None) -> int:
    """len(enumerate_class(kind, spec, n, limit)), with the same errors,
    without listing the class: a sum over states (_sum) where a state
    decides every completion, as for relation triples, 3-letter words,
    unmarked paths and trees; a weighted recursion on the path state for
    marked paths (_path_count); otherwise a walk that adds up the children
    of each member of size n - 1 (_walk)."""
    _, counting, args, _ = _class(kind, spec, n, limit)
    return counting(*args)


def in_class(kind: str, spec, obj) -> bool:
    """Whether an object that already passes validate() belongs to the class
    (of any size); an object of another kind does not."""
    if kind == "invseq-triple":
        return isinstance(obj, InversionSequence) and all(avoids_triple(obj, t) for t in _as_pattern_key(spec))
    if kind == "invseq-words":
        return isinstance(obj, InversionSequence) and all(avoids_word(obj, w) for w in _as_pattern_key(spec))
    if kind == "perm-vincular":
        return isinstance(obj, Permutation) and all(avoids_vincular(obj, p) for p in _as_pattern_key(spec))
    if kind == "path-kind":
        return isinstance(obj, LatticePath) and obj.kind is PathKind(spec)
    if kind == "tree":
        return isinstance(obj, OrderedTree)
    raise ParseError(f"unknown class kind {kind!r}")


def require_member(obj, cls, what: str) -> None:
    """Raise MembershipError unless obj is a valid member of the class cls,
    a (kind, spec) key: the one input rule of the growers and path maps."""
    require_valid(obj, what)
    if not in_class(*cls, obj):
        raise MembershipError(f"{to_text(obj)} is not {what}")


def equinumerosity_check(class_a, class_b, n_max: int, limit=None):
    """Per-size count table for two classes, each given as (kind, spec).

    Returns a list of (n, count_a, count_b, equal) rows for n = 1..n_max.
    """
    rows = []
    for n in range(1, n_max + 1):
        ca = count_class(class_a[0], class_a[1], n, limit)
        cb = count_class(class_b[0], class_b[1], n, limit)
        rows.append((n, ca, cb, ca == cb))
    return rows


# -- family table ----------------------------------------------------------------

INVSEQ_FAMILIES = {
    "cat": RelationTriple("geq", "dash", "geq"),
    "i-geq3": RelationTriple("geq", "geq", "geq"),
    "bax": RelationTriple("geq", "geq", "gt"),
    "semi": RelationTriple("geq", "gt", "dash"),
    "pcat": RelationTriple("eq", "gt", "gt"),
}

WORD_CHARACTERIZATIONS = {
    "cat": ("000", "100", "101", "110", "201", "210"),
    "i-geq3": ("000", "100", "110", "210"),
    "bax": ("100", "110", "210"),
    "semi": ("110", "210"),
    "pcat": ("110",),
}


def invseq_members(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Raw members of one of the five named inversion-sequence families."""
    return invseq_class_raw((INVSEQ_FAMILIES[family],), (), n)


def in_invseq_family(family: str, values) -> bool:
    return avoids_triple(InversionSequence(tuple(values)), INVSEQ_FAMILIES[family])
