"""Avoidance oracles, enumerators, and the structural characterizations."""
import hashlib
import operator
from itertools import combinations, product, repeat
from itertools import permutations as iperm
from math import prod

import pytest

from powcat.errors import SIZE_LIMITS, LimitError
from powcat.gentree import level_counts
from powcat.objects import (
    InversionSequence,
    PathKind,
    Permutation,
    make_path,
    path_heights,
    path_valleys,
    steady_word,
    to_text,
    validate,
)
from powcat.patterns import (
    RelationTriple,
    VincularPattern,
    WordPattern,
    _invseq_count,
    _leaf_tree_count,
    _path_count,
    _perm_count,
    ascent_min_max_criterion,
    avoids_triple,
    avoids_vincular,
    avoids_word,
    baxter_inversion_criterion,
    count_class,
    dyck_words,
    enumerate_class,
    equinumerosity_check,
    in_class,
    increasing_leaf_trees,
    increasing_ordered_trees,
    INVSEQ_FAMILIES,
    invseq_class_raw,
    invseq_members,
    perm_class_raw,
    perm_statistics,
    semibaxter_inversion_criterion,
    steady_words,
    two_chain_criterion,
    vmdyck_paths_raw,
    vmsteady_paths_raw,
    weak_descent_criterion,
    WORD_CHARACTERIZATIONS,
)
from powcat.series import reference_sequence

GEQ_DASH_GEQ = RelationTriple("geq", "dash", "geq")


def all_invseqs(n):
    return product(*(range(i) for i in range(1, n + 1)))


# -- triple oracle ------------------------------------------------------------


def test_triple_examples_from_the_catalan_chain():
    assert avoids_triple(InversionSequence((0, 0, 1, 1, 4, 2, 6, 5)), GEQ_DASH_GEQ)
    e = InversionSequence((0, 1, 0, 1, 4, 2, 3, 5))
    assert not avoids_triple(e, GEQ_DASH_GEQ)
    assert avoids_triple(e, RelationTriple("geq", "geq", "geq"))


def test_singleton_avoids_everything():
    for rels in product(("lt", "gt", "leq", "geq", "eq", "neq", "dash"), repeat=3):
        assert avoids_triple(InversionSequence((0,)), RelationTriple(*rels))


def test_triple_oracle_agrees_with_naive_scan():
    r = RelationTriple("geq", "geq", "gt")
    for n in range(1, 7):
        for e in all_invseqs(n):
            naive = not any(
                e[i] >= e[j] and e[j] >= e[k] and e[i] > e[k]
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
            assert avoids_triple(InversionSequence(e), r) == naive, e


LITERAL_RELATIONS = {
    "lt": operator.lt,
    "gt": operator.gt,
    "leq": operator.le,
    "geq": operator.ge,
    "eq": operator.eq,
    "neq": operator.ne,
    "dash": lambda a, b: True,
}


def test_triple_oracle_matches_the_literal_loop_for_every_triple():
    # values -1..3 exercise the shift onto 0..n-1; the value triples at
    # positions i < j < k of each tuple are collected once by the literal
    # loop, and a tuple contains the triple exactly when one of them meets
    # all three relations
    tuples = [v for n in range(0, 6) for v in product(range(-1, 4), repeat=n)]
    at_positions = [
        {(v[i], v[j], v[k]) for i in range(len(v)) for j in range(i + 1, len(v)) for k in range(j + 1, len(v))}
        for v in tuples
    ]
    mismatches = []
    for rels in product(LITERAL_RELATIONS, repeat=3):
        r1, r2, r3 = (LITERAL_RELATIONS[r] for r in rels)
        hits = {(a, b, c) for a, b, c in product(range(-1, 4), repeat=3) if r1(a, b) and r2(b, c) and r3(a, c)}
        triple = RelationTriple(*rels)
        mismatches += [
            (rels, v) for v, seen in zip(tuples, at_positions) if avoids_triple(v, triple) != seen.isdisjoint(hits)
        ]
    assert mismatches == []


def test_triple_oracle_is_exact_for_spread_out_values():
    # values spanning more than the length go through ranks, not a shift
    gt_gt_dash = RelationTriple("gt", "gt", "dash")
    assert not avoids_triple((100, -7, -50), gt_gt_dash)
    assert avoids_triple((-50, 100, -7), gt_gt_dash)
    assert not avoids_triple((10**30, 10**30, 5), RelationTriple("eq", "gt", "gt"))


# -- word oracle ----------------------------------------------------------------


def test_word_examples():
    assert not avoids_word(InversionSequence((0, 1, 1, 0)), WordPattern.parse("110"))
    assert avoids_word(InversionSequence((0, 0, 1)), WordPattern.parse("000"))
    assert avoids_word(InversionSequence((0, 0, 1, 3, 3, 4, 5)), WordPattern.parse("100"))


def test_word_occurrences_need_exact_equalities():
    # 021 asks for a strict rise then a strict middle drop with ends ordered
    assert not avoids_word(InversionSequence((0, 2, 1)), WordPattern.parse("021"))
    assert avoids_word(InversionSequence((0, 2, 2)), WordPattern.parse("021"))
    assert avoids_word(InversionSequence((0, 1, 1)), WordPattern.parse("021"))


def test_long_word_patterns_are_supported():
    assert not avoids_word(InversionSequence((0, 0, 1, 1)), WordPattern.parse("0011"))
    assert avoids_word(InversionSequence((0, 1, 0, 1)), WordPattern.parse("0011"))


def eq_type(seq):
    """The order-and-equality type of a sequence: each value replaced by the
    number of distinct values below it."""
    rank = {x: r for r, x in enumerate(sorted(set(seq)))}
    return tuple(rank[x] for x in seq)


def subsequence_types(v):
    """The types of all subsequences of v, over every set of positions."""
    return {eq_type(sub) for k in range(len(v) + 1) for sub in combinations(v, k)}


def literal_avoids_word(v, word):
    return eq_type(word) not in subsequence_types(v)


# every order-and-equality type of a word of length 1..4
WORD_TYPES = [w for k in range(1, 5) for w in product(range(k), repeat=k) if set(w) == set(range(max(w) + 1))]


def test_word_oracle_matches_the_literal_search_for_every_short_word():
    # values -1..3 leave the range of an inversion sequence; the types of each
    # tuple's subsequences are collected once, and a tuple contains a word
    # exactly when the word's type is among them
    assert len(WORD_TYPES) == 92
    words = [WordPattern(w) for w in WORD_TYPES] + [WordPattern.parse("01210")]
    mismatches = []
    for n in range(0, 6):
        for v in product(range(-1, 4), repeat=n):
            types = subsequence_types(v)
            mismatches += [(str(w), v) for w in words if avoids_word(v, w) != (eq_type(w.word) not in types)]
    assert mismatches == []


# -- vincular oracle ---------------------------------------------------------------


def test_vincular_examples():
    p1234 = VincularPattern.parse("1-23-4")
    assert not avoids_vincular(Permutation((1, 2, 3, 4)), p1234)
    assert avoids_vincular(Permutation((2, 4, 1, 3)), p1234)
    assert not avoids_vincular(Permutation((1, 3, 2, 4)), VincularPattern.parse("1-23"))


def test_vincular_parse_round_trip():
    for text in ("1-23-4", "23-1-4", "1-34-2", "2-14-3", "123", "1-2-3"):
        assert str(VincularPattern.parse(text)) == text


def test_adjacency_matters():
    # 2413 contains classical 1-2-3? longest increasing run is 2, so no;
    # 3142 contains 1-2 everywhere but 12 only at no adjacent pair
    assert avoids_vincular(Permutation((3, 1, 4, 2)), VincularPattern.parse("12"))is False
    assert avoids_vincular(Permutation((3, 2, 4, 1)), VincularPattern.parse("12")) is False
    assert avoids_vincular(Permutation((4, 3, 2, 1)), VincularPattern.parse("12"))


def test_vincular_agrees_with_naive_matcher():
    pat = VincularPattern.parse("23-1-4")

    def naive(v):
        n = len(v)
        for q1 in range(n - 3):
            q2 = q1 + 1
            for q3 in range(q2 + 1, n - 1):
                for q4 in range(q3 + 1, n):
                    if v[q3] < v[q1] < v[q2] < v[q4]:
                        return False
        return True

    for n in range(1, 7):
        for v in iperm(range(1, n + 1)):
            assert avoids_vincular(Permutation(v), pat) == naive(v), v


def test_bijection_codomain_patterns_agree_with_naive_matchers():
    pat_1342 = VincularPattern.parse("1-34-2")
    pat_2143 = VincularPattern.parse("2-14-3")

    def naive_1342(v):
        n = len(v)
        for q2 in range(1, n - 2):
            if v[q2] >= v[q2 + 1]:
                continue
            for q1 in range(q2):
                for q4 in range(q2 + 2, n):
                    if v[q1] < v[q4] < v[q2]:
                        return False
        return True

    def naive_2143(v):
        n = len(v)
        for q2 in range(1, n - 2):
            if v[q2] >= v[q2 + 1]:
                continue
            for q1 in range(q2):
                for q4 in range(q2 + 2, n):
                    if v[q2] < v[q1] < v[q4] < v[q2 + 1]:
                        return False
        return True

    for n in range(1, 7):
        for v in iperm(range(1, n + 1)):
            p = Permutation(v)
            assert avoids_vincular(p, pat_1342) == naive_1342(v), v
            assert avoids_vincular(p, pat_2143) == naive_2143(v), v


def _occurrence_shapes(v, lengths):
    """For each standardized subsequence of v of the given lengths, the sets
    of its adjacent pattern positions (i where entries i and i+1 sit at
    consecutive positions of v), over every choice of positions."""
    shapes = {}
    for k in lengths:
        for pos in combinations(range(len(v)), k):
            sub = [v[q] for q in pos]
            std = tuple(sorted(sub).index(x) + 1 for x in sub)
            shapes.setdefault(std, set()).add(frozenset(i for i in range(1, k) if pos[i] == pos[i - 1] + 1))
    return shapes


def test_vincular_oracle_matches_brute_force_over_position_subsets():
    pats = [VincularPattern.parse(t) for t in ("1-23", "2-14-3", "1-34-2", "1-23-4", "1-3-2", "2-4-1-3")]
    mismatches = []
    for n in range(1, 8):
        for v in iperm(range(1, n + 1)):
            shapes = _occurrence_shapes(v, (3, 4))
            for pat in pats:
                contains = any(pat.adjacent <= adj for adj in shapes.get(pat.perm, ()))
                if avoids_vincular(v, pat) == contains:
                    mismatches.append((str(pat), v))
    assert mismatches == []


# -- enumerate_class ------------------------------------------------------------------


def test_enumerate_triple_class_size_3():
    objs = enumerate_class("invseq-triple", GEQ_DASH_GEQ, 3)
    assert [o.entries for o in objs] == [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_enumerate_perm_vincular_count():
    assert count_class("perm-vincular", VincularPattern.parse("1-23-4"), 4) == 23


def test_enumerate_paths():
    steady1 = enumerate_class("path-kind", "steady", 1)
    assert [p.steps for p in steady1] == ["UD"]
    assert count_class("path-kind", "dyck", 4) == 14
    assert count_class("path-kind", "vmdyck", 4) == 23
    assert count_class("tree", None, 4) == 23


def test_enumeration_is_sorted_by_text():
    objs = enumerate_class("path-kind", "steady", 4)
    texts = [to_text(o) for o in objs]
    assert texts == sorted(texts)
    assert len(texts) == len(set(texts)) == 23


@pytest.mark.parametrize("family", sorted(INVSEQ_FAMILIES))
def test_inversion_sequences_come_in_text_order_unsorted(family):
    # enumerate_class does not sort inversion sequences of length <= 10
    words = tuple(map(WordPattern.parse, WORD_CHARACTERIZATIONS[family]))
    for kind, spec in (("invseq-triple", INVSEQ_FAMILIES[family]), ("invseq-words", words)):
        for n in range(1, 9):
            objs = enumerate_class(kind, spec, n)
            assert objs == sorted(objs, key=to_text), (kind, n)


@pytest.mark.parametrize("family", sorted(WORD_CHARACTERIZATIONS))
def test_in_class_by_words_agrees_with_avoids_word(family):
    words = tuple(map(WordPattern.parse, WORD_CHARACTERIZATIONS[family]))
    for n in range(1, 7):
        for e in map(InversionSequence, all_invseqs(n)):
            assert in_class("invseq-words", words, e) == all(avoids_word(e, w) for w in words), to_text(e)
    # a permutation avoids every word of length 3 here, but is of another kind
    assert not in_class("invseq-words", words, Permutation((1,)))


def test_inversion_sequences_past_10_are_sorted_by_text():
    # an entry of 10 has two digits, so from n = 11 the walk's order is not
    # the text order and enumerate_class must sort
    cat = INVSEQ_FAMILIES["cat"]
    raw = invseq_class_raw((cat,), (), 11)
    texts = [to_text(o) for o in enumerate_class("invseq-triple", cat, 11, limit=11)]
    assert texts == sorted(texts) and sorted(texts) == sorted(map(to_text, raw))
    assert texts != [to_text(e) for e in raw]


# -- count_class ------------------------------------------------------------------------
# count_class stops each walk at size n - 1 and counts the children there, so
# it shares no last step with the listing.  Every kind, spec and size: the
# first spec of a kind runs up to the kind's top size, the others stop one
# below it where the top would cost seconds (an inversion-sequence or
# permutation class of about a million members at n = 10).

# kind -> (its size name in SIZE_LIMITS, whether every spec runs to the top,
# its specs, a Catalan class first where not)
COUNTED = {
    "invseq-triple": ("invseq", False, list(INVSEQ_FAMILIES.values())),
    "invseq-words": ("invseq", False, [tuple(map(WordPattern.parse, w)) for w in WORD_CHARACTERIZATIONS.values()]),
    "perm-vincular": (
        "perm", False, [tuple(map(VincularPattern.parse, ps)) for ps in (("1-23", "2-14-3"), ("1-23-4",), ("1-34-2",))]
    ),
    "path-kind": ("path", True, list(PathKind)),
    "tree": ("tree", True, [None]),
}


@pytest.mark.parametrize("kind", sorted(COUNTED))
def test_count_class_is_the_length_of_the_listing_at_every_size(kind):
    name, all_at_top, specs = COUNTED[kind]
    lowest, top = SIZE_LIMITS[name]
    for i, spec in enumerate(specs):
        for n in range(lowest, (top if i == 0 or all_at_top else top - 1) + 1):
            assert count_class(kind, spec, n) == len(enumerate_class(kind, spec, n)), (spec, n)


# kind -> a spec whose class is cheap one past the kind's top size
CHEAP_PAST_THE_TOP = {
    "invseq-triple": INVSEQ_FAMILIES["cat"],
    "invseq-words": tuple(map(WordPattern.parse, WORD_CHARACTERIZATIONS["cat"])),
    "perm-vincular": (VincularPattern.parse("1-2-3"), VincularPattern.parse("1-3-2")),  # 2^(n-1) members
    "path-kind": PathKind.DYCK,
    "tree": None,
}


@pytest.mark.parametrize("kind", sorted(COUNTED))
def test_count_class_takes_limit_as_enumerate_class_does(kind):
    name, spec = COUNTED[kind][0], CHEAP_PAST_THE_TOP[kind]
    lowest, top = SIZE_LIMITS[name]
    for n, limit in ((top + 1, None), (lowest - 1, None), (lowest - 1, top), (5, 4)):
        with pytest.raises(LimitError):
            count_class(kind, spec, n, limit)
        with pytest.raises(LimitError):
            enumerate_class(kind, spec, n, limit)
    n = 5 if kind == "tree" else top + 1  # 143,239 leaf trees at 9 would cost seconds
    assert count_class(kind, spec, n, limit=n) == len(enumerate_class(kind, spec, n, limit=n))


# each inversion-sequence family's series.reference_sequence name
FAMILY_SEQUENCES = {"cat": "catalan", "i-geq3": "a108307", "bax": "baxter", "semi": "semibaxter", "pcat": "pcat"}


def test_counts_are_the_reference_terms():
    # the counting recursions against closed forms and recurrences, at every
    # size up to each kind's top, without a listing to lean on
    for fam, name in FAMILY_SEQUENCES.items():
        words = tuple(map(WordPattern.parse, WORD_CHARACTERIZATIONS[fam]))
        want = reference_sequence(name, 10)
        assert [count_class("invseq-triple", INVSEQ_FAMILIES[fam], n) for n in range(1, 11)] == want, fam
        assert [count_class("invseq-words", words, n) for n in range(1, 11)] == want, fam
    catalan, pcat = reference_sequence("catalan", 8), reference_sequence("pcat", 8)
    assert [count_class("path-kind", PathKind.DYCK, n) for n in range(1, 9)] == catalan
    for kind, spec in (("path-kind", PathKind.STEADY), ("path-kind", PathKind.VMDYCK), ("tree", None)):
        assert [count_class(kind, spec, n) for n in range(1, 9)] == pcat, spec


def test_pattern_parse_errors():
    from powcat.errors import ParseError

    for text in ("", "1a", "1-0", "1\u00b2"):
        with pytest.raises(ParseError):
            WordPattern.parse(text)
    with pytest.raises(ParseError, match=r"bad word letter 'a' in '1a' \(at position 2\)"):
        WordPattern.parse("1a")
    with pytest.raises(ParseError):
        VincularPattern.parse("1--2")
    for text in ("1-0", "1\u00b2"):  # a superscript two is a digit to str.isdigit but not to int()
        with pytest.raises(ParseError):
            VincularPattern.parse(text)
    with pytest.raises(ParseError):
        RelationTriple.parse("geq,geq")
    with pytest.raises(ParseError):
        enumerate_class("nonsense", None, 3)


def test_perm_classical_is_not_a_class_kind():
    from powcat.errors import ParseError

    for call in (enumerate_class, count_class):
        with pytest.raises(ParseError):
            call("perm-classical", VincularPattern.parse("1-2-3"), 3)


def test_limit_errors():
    with pytest.raises(LimitError):
        enumerate_class("perm-vincular", VincularPattern.parse("12"), SIZE_LIMITS["perm"][1] + 1)
    with pytest.raises(LimitError):
        enumerate_class("path-kind", "steady", 9)
    assert count_class("path-kind", "dyck", 9, limit=9) == 4862


# -- pruned enumerators against brute force --------------------------------------------
# The enumerators prune on a state carried down their search; each must give
# exactly the objects, in the same order, that filtering everything gives.

RELATION_NAMES = ("lt", "gt", "leq", "geq", "eq", "neq", "dash")
# the 13 order-and-equality types of a 3-letter word
WORD3_TYPES = [w for w in product(range(3), repeat=3) if set(w) == set(range(max(w) + 1))]


def test_invseq_enumerator_matches_filter_for_every_triple():
    for rels in product(RELATION_NAMES, repeat=3):
        t = RelationTriple(*rels)
        for n in range(1, 6):
            want = [e for e in all_invseqs(n) if avoids_triple(e, t)]
            assert list(invseq_class_raw((t,), (), n)) == want, (t, n)


@pytest.mark.parametrize(
    "triples,words",
    [((), (WordPattern(w),)) for w in WORD3_TYPES]
    + [
        ((), (WordPattern((1, 0)),)),
        ((), (WordPattern((0, 1, 1, 0)),)),
        ((RelationTriple("lt", "neq", "dash"),), (WordPattern((0, 0, 0)), WordPattern((1, 0, 2, 1)))),
    ]
    + [((), (WordPattern.parse(w),)) for w in ("0", "00", "01", "1010", "0012", "2100", "01210")]
    + [((), (WordPattern.parse("110"), WordPattern.parse("0110")))],
    ids=lambda key: "+".join(str(p) for p in key) or "-",
)
def test_invseq_enumerator_matches_filter_for_words(triples, words):
    # the filter is the literal search, which shares nothing with the
    # enumerator's occurrence search
    for n in range(1, 7):
        want = [
            e
            for e in all_invseqs(n)
            if all(avoids_triple(e, t) for t in triples) and all(literal_avoids_word(e, w.word) for w in words)
        ]
        assert list(invseq_class_raw(triples, words, n)) == want, n


def test_steady_words_match_the_validated_encodings():
    for n in range(1, 8):
        want = []
        for ds in product(*(range(m) for m in range(1, n + 1))):
            word = steady_word(ds)
            if validate(make_path(word, kind=PathKind.STEADY)).ok:
                want.append(word)
        assert list(steady_words(n)) == want, n


def test_dyck_words_are_the_steady_words_of_the_weakly_increasing_codes():
    # a Dyck word is a steady word without W, so its code never falls
    for n in range(1, 9):
        codes = (d for d in product(*(range(m) for m in range(1, n + 1))) if list(d) == sorted(d))
        assert list(dyck_words(n)) == [steady_word(d) for d in codes], n


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


def marked_by_text(words, steady):
    """The marked listing read off each word's text: each word w with each
    choice of marks for its valleys, 0..h at height h, or 0 alone where
    nonzero_mark_blockers blocks it (only when steady)."""
    out = []
    for w in words:
        vals = path_valleys(w)
        blocked = nonzero_mark_blockers(w, vals) if steady else [None] * len(vals)
        out += zip(repeat(w), product(*[(0,) if b else range(h + 1) for (_, h), b in zip(vals, blocked)]))
    return out


def test_marked_listings_match_the_marks_read_off_the_text():
    # the listings read valleys, W runs and blockers off the code
    for n in range(10):
        assert list(vmdyck_paths_raw(n)) == marked_by_text(dyck_words(n), False), n
    for n in range(9):
        assert list(vmsteady_paths_raw(n)) == marked_by_text(steady_words(n), True), n


def test_marked_paths_share_their_mark_tuples():
    # each choice of marks is one tuple, shared by every member that makes
    # it, so the listing holds far fewer marks tuples than members
    r = vmdyck_paths_raw(9)
    assert len({id(m) for _, m in r}) * 10 < len(r)


# SHA-256 of each raw listing at sizes 1..8 (trees 1..7) in the order its
# enumerator emits it; a family's triple and word routes give one listing
RAW_DIGESTS = {
    "cat": "63312baba77709fa84f9674e99c3c00c607c21836db8735db00fc032241b5ffe",
    "i-geq3": "812694f5782a1ad9f8f0d5b63a293e068df69569577ba6b17d74c764fa323eb6",
    "bax": "152ca241a2089585079b35000a0deb0d5e4dd32df00e06b17c6c492e8be76ee6",
    "semi": "d4f264c713d851b1fe5720553509f4507a6f163cb187dcf52c4fa4d2483f6ef9",
    "pcat": "3f0fa43f378fe760e6d461354e08f0a5016f8387982f3a5c46bdda376d0fdc73",
    "1-23+2-14-3": "67ad1a5d22d7ea8353257daf1fac9e516fa083641cc15bcd335abb7464e5b1a2",
    "1-23-4": "cc7539a668ad783d0625e4531347ee39d075a6048873827e2aaf0200e7f7b655",
    "1-34-2": "8c50491a51a72cbae54a44c956f110566576e88afbb5c84352548a6a89fbbed2",
    "dyck": "25dfc488ca8074aa346535f4ccdf8fbf12474f3f57aa534d635c0a486343cf5e",
    "vmdyck": "4e04758cd60fa6230256e71535074aa8af8eaa58b32f8cb0877cf93bde838dac",
    "steady": "1ac84433a8eb72c0d87a2738702946595d3c2dafda8356f6a4c7ef46ae80904d",
    "vmsteady": "8d12b1dba3b3870efe25d6a45a0bedd6e4192c16f0c70489f96596e4e522528e",
    "ordered trees": "c06b114fbb546ffa8b39b9dea574759cfe6e9d339f9d122119bee25710afe1c6",
    "leaf trees": "612d3bda9e748be7aa3d6f0274c2f2611074552642fa5d887892690d94c1d6af",
}


def raw_listings():
    """(digest key, listing of size n, top size) for every raw listing."""
    for fam, t in INVSEQ_FAMILIES.items():
        words = tuple(map(WordPattern.parse, WORD_CHARACTERIZATIONS[fam]))
        yield fam, lambda n, t=t: invseq_class_raw((t,), (), n), 8
        yield fam, lambda n, w=words: invseq_class_raw((), w, n), 8
    for spec in ("1-23+2-14-3", "1-23-4", "1-34-2"):
        pats = tuple(map(VincularPattern.parse, spec.split("+")))
        yield spec, lambda n, p=pats: perm_class_raw(p, n), 8
    yield "dyck", dyck_words, 8
    yield "vmdyck", vmdyck_paths_raw, 8
    yield "steady", steady_words, 8
    yield "vmsteady", vmsteady_paths_raw, 8
    yield "ordered trees", lambda n: [(t.labels, t.arity) for t in increasing_ordered_trees(n)], 7
    yield "leaf trees", lambda n: [(t.labels, t.arity) for t in increasing_leaf_trees(n)], 7


def test_raw_listings_keep_their_content_and_order():
    for key, listing, top in raw_listings():
        h = hashlib.sha256()
        for n in range(1, top + 1):
            h.update(repr(tuple(listing(n))).encode())
        assert h.hexdigest() == RAW_DIGESTS[key], key


def test_every_raw_listing_holds_one_empty_object_at_size_0():
    assert list(invseq_class_raw((GEQ_DASH_GEQ,), (), 0)) == list(invseq_class_raw((), (WordPattern.parse("110"),), 0)) == [()]
    assert list(perm_class_raw((VincularPattern.parse("1-23-4"),), 0)) == [()]
    assert list(dyck_words(0)) == list(steady_words(0)) == [""]
    assert list(vmdyck_paths_raw(0)) == list(vmsteady_paths_raw(0)) == [("", ())]
    assert [t.labels for t in increasing_ordered_trees(0)] == [t.labels for t in increasing_leaf_trees(0)] == [(0,)]
    assert _invseq_count((GEQ_DASH_GEQ,), (), 0) == _invseq_count((), (WordPattern.parse("110"),), 0) == 1
    assert _perm_count((VincularPattern.parse("1-23-4"),), 0) == 1
    assert [_path_count(k, 0) for k in PathKind] == [1, 1, 1, 1]
    assert _leaf_tree_count(0) == 1


def test_leaf_trees_match_the_validated_increasing_trees():
    for n in range(1, 7):
        want = [t for t in increasing_ordered_trees(n) if validate(t).ok]
        assert list(increasing_leaf_trees(n)) == want, n


def test_increasing_ordered_trees_are_all_distinct_and_valid():
    for n in range(1, 7):
        trees = increasing_ordered_trees(n)
        assert len(trees) == prod(range(1, 2 * n, 2)), n  # (2n-1)!!
        assert len(set(trees)) == len(trees), n
        for t in trees:  # labels 0..n, increasing away from the root; leaves in any order
            assert not [v for v in validate(t).violations if v.invariant != "increasing-leaves"], to_text(t)


def test_leaf_trees_count_the_powered_catalan_numbers_at_9():
    assert count_class("tree", None, 9, limit=9) == reference_sequence("pcat", 9)[-1]


# -- permutation statistics --------------------------------------------------------------


def test_perm_statistics_examples():
    assert perm_statistics(Permutation((3, 2, 1)))["rtl_minima"] == 1
    assert perm_statistics(Permutation((2, 4, 1, 3)))["rtl_minima"] == 2
    for n in (1, 4, 6):
        ident = Permutation(tuple(range(1, n + 1)))
        assert perm_statistics(ident)["rtl_minima"] == n
        assert perm_statistics(ident)["ltr_maxima"] == n


def test_perm_statistics_match_their_definitions():
    from powcat.patterns import rtl_minima_count

    for n in range(1, 7):
        for v in iperm(range(1, n + 1)):
            want = {
                "ltr_minima": sum(all(v[j] > v[i] for j in range(i)) for i in range(n)),
                "ltr_maxima": sum(all(v[j] < v[i] for j in range(i)) for i in range(n)),
                "rtl_minima": sum(all(v[j] > v[i] for j in range(i + 1, n)) for i in range(n)),
                "rtl_maxima": sum(all(v[j] < v[i] for j in range(i + 1, n)) for i in range(n)),
            }
            assert perm_statistics(Permutation(v)) == want, v
            assert rtl_minima_count(v) == want["rtl_minima"], v


# -- characterization equivalences ----------------------------------------------------------
# triple class == word class is checked for every family and all n <= 9 in
# the verify suite; here the same equivalences at n <= 6, plus the criteria.


@pytest.mark.parametrize("family", sorted(WORD_CHARACTERIZATIONS))
def test_word_characterization_small(family):
    words = tuple(WordPattern.parse(w) for w in WORD_CHARACTERIZATIONS[family])
    for n in range(1, 7):
        by_triple = set(invseq_class_raw((INVSEQ_FAMILIES[family],), (), n))
        by_words = set(invseq_class_raw((), words, n))
        assert by_triple == by_words


@pytest.mark.parametrize(
    "family,criterion",
    [
        ("cat", weak_descent_criterion),
        ("i-geq3", two_chain_criterion),
        ("bax", baxter_inversion_criterion),
        ("semi", semibaxter_inversion_criterion),
    ],
)
def test_structural_criteria_small(family, criterion):
    for n in range(1, 8):
        members = set(invseq_members(family, n))
        assert members == {e for e in all_invseqs(n) if criterion(e)}


def perms_by_appended_rank(n):
    """All permutations of 1..n in the order perm_class_raw grows them:
    append a = 1..m+1 to a permutation of 1..m, raising its values >= a."""
    level = [()]
    for m in range(n):
        level = [tuple(v + (v >= a) for v in p) + (a,) for p in level for a in range(1, m + 2)]
    return level


# every pattern of length <= 3 with every adjacency set, and the paper's patterns
SMALL_VINCULAR = [
    (VincularPattern(perm, frozenset(adj)),)
    for k in (1, 2, 3)
    for perm in iperm(range(1, k + 1))
    for r in range(k)
    for adj in combinations(range(1, k), r)
] + [
    tuple(VincularPattern.parse(p) for p in texts.split("+"))
    for texts in ("1-23-4", "23-1-4", "1-34-2", "2-14-3", "1-23+2-14-3")
]


@pytest.mark.parametrize("patterns", SMALL_VINCULAR, ids=lambda key: "+".join(str(p) for p in key))
def test_perm_enumerator_matches_the_filter_in_order(patterns):
    for n in range(1, 8):
        want = [p for p in perms_by_appended_rank(n) if all(avoids_vincular(p, q) for q in patterns)]
        assert list(perm_class_raw(patterns, n)) == want, n


def test_perm_listing_at_9_matches_the_shift_by_comprehension():
    # each level grown by the plain shift and filtered by the ascent
    # criterion (AV(1-23-4), closed under deleting the last entry)
    level = [()]
    for m in range(9):
        grown = (tuple([v if v < a else v + 1 for v in p]) + (a,) for p in level for a in range(1, m + 2))
        level = [c for c in grown if ascent_min_max_criterion(c)]
    assert list(perm_class_raw((VincularPattern.parse("1-23-4"),), 9)) == level


def test_ascent_criterion_matches_1_23_4():
    pat = VincularPattern.parse("1-23-4")
    for n in range(1, 8):
        members = set(perm_class_raw((pat,), n))
        assert members == {p for p in iperm(range(1, n + 1)) if ascent_min_max_criterion(p)}


# -- equinumerosity -----------------------------------------------------------------------------


def test_equinumerosity_examples():
    rows = equinumerosity_check(
        ("invseq-triple", RelationTriple("eq", "dash", "dash")),
        ("perm-vincular", tuple(VincularPattern.parse(p) for p in ("1-2-3", "1-3-2", "2-3-1"))),
        7,
    )
    assert all(equal for _, _, _, equal in rows)

    rows = equinumerosity_check(
        ("invseq-triple", RelationTriple("lt", "neq", "dash")),
        ("perm-vincular", tuple(VincularPattern.parse(p) for p in ("2-1-3", "3-2-1"))),
        7,
    )
    assert all(equal for _, _, _, equal in rows)

    rows = equinumerosity_check(
        ("invseq-triple", RelationTriple("eq", "gt", "gt")),
        ("perm-vincular", VincularPattern.parse("1-23-4")),
        8,
    )
    assert all(equal for _, _, _, equal in rows)
    assert [ca for _, ca, _, _ in rows] == [1, 2, 6, 23, 105, 549, 3207, 20577]


@pytest.mark.parametrize("kind, spec, n, rule, sequence", [
    ("path-kind", PathKind.DYCK, 30, "cat", "catalan"),
    ("path-kind", PathKind.STEADY, 30, "steady", "pcat"),
    ("path-kind", PathKind.VMDYCK, 30, "pcat", "pcat"),
    ("tree", None, 30, "pcat", "pcat"),
    ("invseq-triple", INVSEQ_FAMILIES["cat"], 14, "cat", "catalan"),
    ("invseq-triple", INVSEQ_FAMILIES["pcat"], 12, "pcat", "pcat"),
], ids=["dyck", "steady", "vmdyck", "tree", "invseq-cat", "invseq-pcat"])
def test_state_counts_agree_with_the_rules_and_the_references_past_the_listings(kind, spec, n, rule, sequence):
    # three independent routes: the enumerator's state sum, the succession
    # rule's level DP and the closed form or recurrence of the sequence
    assert count_class(kind, spec, n, limit=n) == level_counts(rule, n)[-1] == reference_sequence(sequence, n)[-1]
