"""Property tests beyond the exhaustive sizes.

At seeded sizes n = 10..30 the fast membership and avoidance tests must
agree with their slow definitions: is_valid() with validate().ok,
avoids_triple() with a literal i < j < k loop, the Catalan active sites
with the insertion search, and avoids_word() and avoids_vincular() with
searches over position sets.  Members come from random walks down the
certified growths, so large avoiders are sampled as well as the random
objects that almost always contain a pattern; corrupted copies supply
non-members of every kind.
"""
import operator
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from powcat.bijections import steady_to_perm  # noqa: E402
from powcat.growth import FAMILIES, active_positions_cat, cat_insert  # noqa: E402
from powcat.objects import (  # noqa: E402
    InversionSequence,
    LatticePath,
    OrderedTree,
    PathKind,
    Permutation,
    is_valid,
    path_valleys,
    steady_word,
    validate,
)
from powcat.patterns import (  # noqa: E402
    INVSEQ_FAMILIES,
    WORD_CHARACTERIZATIONS,
    RelationTriple,
    VincularPattern,
    WordPattern,
    avoids_triple,
    avoids_vincular,
    avoids_word,
)

SEEDED = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SIZES = st.integers(10, 30)


def walk(data, family, n):
    """A member of size n of a growth family, reached by a random child at
    every step from its size-1 member."""
    fam = FAMILIES[family]
    obj = fam.enumerate(1)[0]
    for _ in range(n - 1):
        kids = fam.children(obj)
        obj = kids[data.draw(st.integers(0, len(kids) - 1))][0]
    return obj


# -- is_valid against validate ----------------------------------------------------


@settings(SEEDED, max_examples=100)
@given(
    st.data(),
    SIZES,
    st.sampled_from(("encoding", "steady", "pcat:vmdyck")),
    st.sampled_from(list(PathKind)),
    st.sampled_from(("zero", "in-range", "any")),
)
def test_is_valid_agrees_with_validate_on_large_paths(data, n, source, kind, marking):
    # a random diagonal-distance encoding gives a cone-confined W/D-connected
    # word whose S1/S2 conditions may fail, a walk gives a steady or Dyck
    # word, and a random step may then break the shape
    if source == "encoding":
        d = [data.draw(st.integers(0, k)) for k in range(n)]
        steps = steady_word(d)
    else:
        steps = walk(data, source, n).steps
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(steps) - 1))
        steps = steps[:i] + data.draw(st.sampled_from("UDW")) + steps[i + 1 :]
    heights = [h for _, h in path_valleys(steps)]
    top = {"zero": lambda h: 0, "in-range": lambda h: h, "any": lambda h: h + 1}[marking]
    low = -1 if marking == "any" else 0
    marks = tuple(data.draw(st.integers(min(low, top(h)), max(low, top(h)))) for h in heights)
    path = LatticePath(steps, marks, kind)
    assert is_valid(path) == validate(path).ok


@SEEDED
@given(st.data(), SIZES, st.booleans())
def test_is_valid_agrees_with_validate_on_large_sequences_and_permutations(data, n, corrupt):
    seq = [data.draw(st.integers(0, i)) for i in range(n)]
    perm = list(data.draw(st.permutations(range(1, n + 1))))
    if corrupt:
        seq[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, n + 1))
        perm[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, n + 1))
    for obj in (InversionSequence(seq), Permutation(perm)):
        assert is_valid(obj) == validate(obj).ok


def _swap_labels(t, a, b):
    swap = {a: b, b: a}
    return OrderedTree(swap.get(t.label, t.label), tuple(_swap_labels(c, a, b) for c in t.children))


@SEEDED
@given(st.data(), SIZES, st.booleans())
def test_is_valid_agrees_with_validate_on_large_trees(data, n, corrupt):
    t = walk(data, "pcat:tree", n)
    if corrupt:
        a, b = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        t = _swap_labels(t, a, b)
    assert is_valid(t) == validate(t).ok
    assert corrupt or is_valid(t)


# -- avoids_triple against the literal loop -------------------------------------------

LITERAL_RELATIONS = {
    "lt": operator.lt,
    "gt": operator.gt,
    "leq": operator.le,
    "geq": operator.ge,
    "eq": operator.eq,
    "neq": operator.ne,
    "dash": lambda a, b: True,
}


def literal_avoids(v, triple):
    r1, r2, r3 = (LITERAL_RELATIONS[r] for r in (triple.first, triple.second, triple.third))
    n = len(v)
    return not any(
        r1(v[i], v[j]) and r2(v[j], v[k]) and r3(v[i], v[k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


@SEEDED
@given(st.data(), SIZES, st.sampled_from(sorted(INVSEQ_FAMILIES)), st.sampled_from(list(product(LITERAL_RELATIONS, repeat=3))))
def test_triple_oracle_agrees_with_the_literal_loop_at_large_n(data, n, family, rels):
    member = walk(data, "pcat:invseq" if family == "pcat" else family, n).entries
    shifted = tuple(v - 1 for v in member)  # the same order and equality, one value negative
    spread = tuple(v * v * 1000 for v in member)
    other = tuple(data.draw(st.integers(-1, n)) for _ in range(n))
    triple = INVSEQ_FAMILIES[family]
    assert avoids_triple(member, triple) and literal_avoids(member, triple)
    for v in (member, shifted, spread, other):
        for t in (triple, RelationTriple(*rels)):
            assert avoids_triple(v, t) == literal_avoids(v, t), (v, t)


@SEEDED
@given(st.data(), SIZES)
def test_cat_active_sites_agree_with_the_insertion_search_at_large_n(data, n):
    # the walk grows through the site rule itself, so its members test it
    e = walk(data, "cat", n)
    cat = INVSEQ_FAMILIES["cat"]
    assert avoids_triple(e, cat) and literal_avoids(e.entries, cat)
    assert active_positions_cat(e) == [i for i in range(1, n + 2) if avoids_triple(cat_insert(e, i), cat)]


# -- avoids_word against a literal search over position sets ------------------------------

WORDS = [WordPattern.parse(w) for w in ("0", "00", "01", "10", "0110", "1010", "0012", "2100", "01210")]


def literal_avoids_word(v, word):
    """No set of positions carries the word's order-and-equality type: every
    pair of chosen values compares (<, =, >) as the pair of letters does."""
    pairs = list(combinations(range(len(word)), 2))
    return not any(
        all((s[i] < s[j], s[i] == s[j]) == (word[i] < word[j], word[i] == word[j]) for i, j in pairs)
        for s in combinations(v, len(word))
    )


@SEEDED
@given(st.data(), SIZES, st.sampled_from(("pcat", "semi")), st.sampled_from(WORDS))
def test_word_oracle_agrees_with_the_literal_search_at_large_n(data, n, family, word):
    # members of I(110) and I(110, 210) avoid their characterizing words; a
    # corrupted copy (one entry anywhere in -1..n) usually contains some
    member = walk(data, "pcat:invseq" if family == "pcat" else family, n).entries
    corrupted = list(member)
    corrupted[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, n))
    own = [WordPattern.parse(w) for w in WORD_CHARACTERIZATIONS[family]]
    assert all(avoids_word(member, w) and literal_avoids_word(member, w.word) for w in own)
    for v in (member, tuple(corrupted)):
        for w in (*own, word):
            assert avoids_word(v, w) == literal_avoids_word(v, w.word), (v, str(w))


# -- avoids_vincular against a search over position sets --------------------------------

VINCULAR = [VincularPattern.parse(t) for t in ("1-23", "2-14-3", "1-34-2", "1-23-4", "1-3-2")]


def brute_avoids(v, pat):
    """No set of positions carries the pattern's order with its adjacent
    entries at consecutive positions.  The sets are enumerated by the start
    of each dash-separated block, which fixes the positions inside it."""
    k = len(pat.perm)
    blocks = [i for i in range(k) if i not in pat.adjacent]  # first entry of each block
    sizes = [(blocks[b + 1] if b + 1 < len(blocks) else k) - blocks[b] for b in range(len(blocks))]
    slack = len(v) - k
    for gaps in combinations(range(slack + len(blocks)), len(blocks)):
        pos = []
        for b, g in enumerate(gaps):
            start = g - b + sum(sizes[:b])
            pos += range(start, start + sizes[b])
        sub = [v[q] for q in pos]
        if all((sub[i] < sub[j]) == (pat.perm[i] < pat.perm[j]) for i, j in combinations(range(k), 2)):
            return False
    return True


@SEEDED
@given(st.data(), SIZES)
def test_vincular_oracle_agrees_with_brute_force_at_large_n(data, n):
    avoiders = {VINCULAR[3]: walk(data, "p1234", n).values, VINCULAR[2]: steady_to_perm(walk(data, "steady", n)).values}
    random_perm = tuple(data.draw(st.permutations(range(1, n + 1))))
    for pat, v in avoiders.items():
        assert avoids_vincular(v, pat), (v, str(pat))
    for v in (*avoiders.values(), random_perm):
        for pat in VINCULAR:
            assert avoids_vincular(v, pat) == brute_avoids(v, pat), (v, str(pat))
