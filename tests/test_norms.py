import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from basilica import BudgetExceededError, InputError, core, equals, norms, parse_system
from basilica.norms import ball, geodesic_rep, norm
from basilica.structure import alpha, tau

from conftest import BASILICA_TEXT, D3_TEXT, GRIGORCHUK_TEXT, HANOI_TEXT, reduced_words


def brute_force_classes(system, max_len):
    """Partition all reduced words of length <= max_len by pairwise equals()."""
    words = []
    for n in range(max_len + 1):
        words.extend(reduced_words(system, n))
    classes = []
    for w in words:
        g = system.element(w)
        for rep in classes:
            if equals(g, rep):
                break
        else:
            classes.append(g)
    return classes


def test_ball_0_and_1(B):
    assert len(ball(B, 0)) == 1
    b1 = ball(B, 1)
    assert len(b1) == 5
    reps = {str(c) for c in b1.classes}
    assert reps == {"e", "a", "A", "b", "B"}


def test_ball_2_against_brute_force(B):
    oracle = brute_force_classes(B, 2)
    assert sum(1 for n in range(3) for _ in reduced_words(B, n)) == 17
    assert len(ball(B, 2)) == len(oracle)


def test_ball_classes_pairwise_distinct(B):
    classes = ball(B, 3).classes
    for c1, c2 in itertools.combinations(classes, 2):
        assert not equals(c1, c2)


def test_every_short_word_lands_in_a_class(B):
    sphere = ball(B, 3)
    for n in range(4):
        for w in reduced_words(B, n):
            g = B.element(w)
            matches = [c for c in sphere.classes if equals(c, g)]
            assert len(matches) == 1
            assert len(matches[0].word) <= len(w)


def test_norm_examples(B):
    a = B.generator("a")
    assert norm(a) == 1
    assert norm(tau(1)) == 0
    assert norm(alpha(1, 1)) == 4


def test_norm_commutator_certified(B):
    # no reduced word of length <= 3 equals [a,b], and ABab has length 4
    g = alpha(1, 1)
    for n in range(4):
        for w in reduced_words(B, n):
            assert not equals(B.element(w), g)
    assert len(g.word) == 4


def test_norm_zero_iff_trivial(B):
    assert norm(B.identity()) == 0
    assert norm(B.element("abBA")) == 0
    assert norm(B.element("ab")) > 0


def test_norm_subadditive(B, rng):
    from conftest import random_element

    for _ in range(50):
        g = random_element(B, rng, max_len=5)
        h = random_element(B, rng, max_len=5)
        assert norm(g * h) <= norm(g) + norm(h)


def test_geodesic_examples(B):
    assert B.word_str(geodesic_rep(B.element("aAb"))) == "b"
    assert B.word_str(geodesic_rep(tau(1) * tau(3))) == "e"
    assert B.word_str(geodesic_rep(B.element("ab"))) == "ab"


def test_geodesic_is_lex_least(B):
    # among all reduced words of the same minimal length equal to g, the
    # representative comes first in the a < A < b < B order
    g = B.element("ba") * B.element("ab") * B.element("ba").inverse()
    rep = geodesic_rep(g)
    n = norm(g)
    candidates = [w for w in reduced_words(B, n) if equals(B.element(w), g)]
    assert rep == min(candidates, key=lambda w: [(abs(l), l < 0) for l in w])
    assert equals(B.element(rep), g)


def test_ball_deterministic_and_nested(B):
    first = ball(B, 4)
    again = ball(B, 4)
    assert [c.word for c in first.classes] == [c.word for c in again.classes]
    smaller = ball(B, 3)
    assert [c.word for c in smaller.classes] == [
        c.word for c in first.classes if len(c.word) <= 3
    ]


def test_ball_growth_strictly_increasing(B):
    sizes = [len(ball(B, r)) for r in range(6)]
    assert all(x < y for x, y in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("radius", [2.5, "3", True, None])
def test_ball_radius_must_be_an_int(radius):
    fresh = parse_system(BASILICA_TEXT)
    with pytest.raises(InputError):
        ball(fresh, radius)
    assert norms._registry(fresh).radius_done == 0


def test_ball_table_format(B):
    text = ball(B, 1).table()
    assert text.splitlines()[0] == "0\te"
    assert "1\ta" in text


def test_norms_on_custom_system():
    odo = parse_system("alphabet 2; gen c perm=1,0 sections=e,c")
    c = odo.generator("c")
    assert norm(c ** 3) == 3
    assert norm(c * c.inverse()) == 0
    assert len(ball(odo, 2)) == 5  # e, c, C, cc, CC


def test_section_norm_contraction_small(B):
    for g in ball(B, 5).classes:
        assert norm(g.section(0)) + norm(g.section(1)) <= len(g.word)


def test_square_section_bound_small(B):
    for g in ball(B, 5).classes:
        if not g.root_perm().is_identity():
            sq = g * g
            assert norm(sq.section(0)) <= len(g.word)
            assert norm(sq.section(1)) <= len(g.word)


@functools.cache
def _shortlex_classes(kind, radius=5):
    return [g.word for g in brute_force_classes(_oracle_system(kind), radius)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(["basilica", "d3"]), st.integers(6, 1000))
@example("basilica", 100)  # stops in radius 4, after the 53 classes of ball(3)
def test_ball_budget(kind, stop):
    # a pass the budget stops registers only words one letter longer than
    # the last complete radius, so the registry stays in length order: the
    # radii it completed still read back by word length, and, once the
    # budget allows it, the build goes on as if it had never stopped
    counts = [len(ball(_oracle_system(kind), r)) for r in range(8)]
    assert counts[6] > 1000
    partial = max(r for r, count in enumerate(counts) if count <= stop)
    fresh = parse_system(_READ_SYSTEMS[kind])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "MAX_CLASSES", stop)
        with pytest.raises(BudgetExceededError) as exc:
            ball(fresh, 7)
        assert exc.value.partial == partial
        for r in range(partial + 1):
            classes = ball(fresh, r).classes
            assert len(classes) == counts[r]
            assert [norm(c) for c in classes] == [len(c.word) for c in classes]
        beyond = ball(_oracle_system(kind), partial + 2).classes[-1].word
        with pytest.raises(BudgetExceededError):
            norm(fresh.element(beyond))
    assert [c.word for c in ball(fresh, 5).classes] == _shortlex_classes(kind)


def test_ball_order_is_first_occurrence_in_shortlex(B):
    # the registry extends only the class representatives of the last
    # radius, and of those only the ones whose suffix is a representative;
    # the classes and their order must be those of all reduced words.  The
    # d = 3 system keys on level 5 (243 of the 256 table bytes).  Grigorchuk
    # and Hanoi generators are involutions, so the suffix rule skips every
    # extension by an inverse letter past the root (Grigorchuk's r = 5
    # partition takes about 2.5 s, so it stops at 4)
    for kind, radius in (("basilica", 5), ("d3", 5), ("grigorchuk", 4), ("hanoi", 5)):
        fresh = parse_system(_SYSTEMS[kind])
        assert [c.word for c in ball(fresh, radius).classes] == _shortlex_classes(kind, radius)


def _count_key_folds(monkeypatch, system):
    """The key each fold into an index key of ``system`` starts from, one
    per letter folded, as a list that grows with every later fold."""
    folded = []

    class CountingTable(bytes):
        def translate(self, key):
            folded.append(key)
            return bytes.translate(self, key)

    tables = {l: CountingTable(t) for l, t in system._key_tables.items()}
    monkeypatch.setattr(system, "_key_tables", tables)
    return folded


def _count_confirms(monkeypatch):
    """The words of each word-problem call, as a list that grows with every
    later call."""
    confirms = []
    is_trivial = core.GeneratorSystem.word_is_trivial

    def counting(system, word):
        confirms.append(word)
        return is_trivial(system, word)

    monkeypatch.setattr(core.GeneratorSystem, "word_is_trivial", counting)
    return confirms


def test_ball_keys_each_candidate_from_its_parent(monkeypatch):
    # a one-letter extension is keyed only if it passes the suffix rule: the
    # 4 extensions of the root, and those of the 420 classes of norm 1 to 5
    # whose last letters, after the first, are a class's word.  Each takes
    # its key from the parent class's, one letter folded in.  Only the
    # extensions that pass are confirmed against their bucket: 36
    # word-problem calls, where confirming every extension would take 140
    fresh = parse_system(BASILICA_TEXT)
    folded = _count_key_folds(monkeypatch, fresh)
    confirms = _count_confirms(monkeypatch)
    assert len(ball(fresh, 6)) == 1125
    assert len(confirms) == 36
    index = norms._registry(fresh).index
    classes = {w: i for i, w in enumerate(index.words)}
    passing = [
        (i, l)
        for w, i in classes.items()
        if len(w) < 6
        for l in (1, -1, 2, -2)
        if not w or l != -w[-1] and w[1:] + (l,) in classes
    ]
    assert 4 + 3 * 420 > len(passing) > 1124
    assert folded == [index._keys[i] for i, _ in passing]


def test_registered_words_are_read_without_key_or_confirm(monkeypatch):
    # a class's own word is found by the word; any other word is keyed from
    # its longest registered prefix, and within the completed radius its
    # bucket's last entry is taken without a confirm
    fresh = parse_system(BASILICA_TEXT)
    classes = ball(fresh, 6).classes
    folded = _count_key_folds(monkeypatch, fresh)
    confirms = _count_confirms(monkeypatch)
    for c in classes:
        g = fresh.element(c.word)
        assert norm(g) == len(c.word)
        assert geodesic_rep(g) == c.word
    assert (len(folded), len(confirms)) == (0, 0)
    # BAbA is another word of the registered ABAb
    assert geodesic_rep(fresh.element("BAbA")) == fresh.parse_word("ABAb")
    assert (len(folded), len(confirms)) == (1, 0)
    # a word past the completed radius is confirmed against its bucket
    assert geodesic_rep(fresh.element("BAbABAb")) == fresh.parse_word("ABAAb")
    assert len(confirms) >= 1
    assert norms._registry(fresh).radius_done == 6


def test_smaller_balls_share_the_class_objects():
    fresh = parse_system(BASILICA_TEXT)
    small = ball(fresh, 2)  # built before the larger ball
    big = ball(fresh, 5)
    for r in range(5):
        classes = ball(fresh, r).classes
        assert classes == big.classes[: len(classes)]
        assert all(c is d for c, d in zip(classes, big.classes))
    assert all(c is d for c, d in zip(small.classes, big.classes))
    assert [len(ball(fresh, r)) for r in range(6)] == [1, 5, 17, 53, 153, 421]


_READ_SYSTEMS = {"basilica": BASILICA_TEXT, "grigorchuk": GRIGORCHUK_TEXT, "d3": D3_TEXT}
_SYSTEMS = {**_READ_SYSTEMS, "hanoi": HANOI_TEXT}


@functools.cache
def _oracle_system(kind):
    return parse_system(_SYSTEMS[kind])


def _confirmed_class(system, word):
    """Norm and geodesic of ``word`` through ``ElementIndex.find_word`` without
    ``complete``, which confirms every bucket entry it compares."""
    ball(system, len(word))
    reg = norms._registry(system)
    idx = reg.index.find_word(word)
    return len(reg.index.words[idx]), reg.index.words[idx]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(sorted(_READ_SYSTEMS)), st.integers(0, 4), st.data())
def test_reads_agree_with_a_confirmed_lookup(kind, radius, data):
    # words up to and past the completed radius: the registry reads keyed
    # from a prefix, and the reads that skip the last confirm, agree with a
    # lookup that confirms every candidate in a second registry
    fresh = parse_system(_READ_SYSTEMS[kind])
    ball(fresh, radius)
    letters = [l for i in range(len(fresh.names)) for l in (i + 1, -(i + 1))]
    g = fresh.element(data.draw(st.lists(st.sampled_from(letters), max_size=7)))
    rep = geodesic_rep(g)
    assert (norm(g), rep) == _confirmed_class(_oracle_system(kind), g.word)
    assert equals(g, fresh.element(rep))


def test_all_but_the_last_candidate_is_confirmed(monkeypatch):
    # the d = 3 ball(8) has 56 buckets of two classes; every other word of at
    # most 8 letters in them is read with one confirm, of the first entry.
    # (The 14 two-entry buckets of the Basilica ball(9) hold powers like a^7
    # and a^-9, which no other word of at most 11 letters equals.)
    fresh = parse_system(D3_TEXT)
    ball(fresh, 8)
    index = norms._registry(fresh).index
    shared = {key: b for key, b in index._buckets.items() if len(b) > 1}
    assert len(shared) == 56 and {len(b) for b in shared.values()} == {2}
    aliases = [
        w
        for n in range(9)
        for w in reduced_words(fresh, n)
        if core._word_bytes(w) not in index._by_word
        and bytes(fresh.word_level_perm(w, 5)) + bytes(range(243, 256)) in shared
    ]
    expected = [index.find_word(w) for w in aliases]
    positions = {shared[index._keys[i]].index(i) for i in expected}
    assert positions == {0, 1}  # both the confirmed and the unchecked entry
    confirms = _count_confirms(monkeypatch)
    reg = norms._registry(fresh)
    for w, i in zip(aliases, expected):
        g = fresh.element(w)
        assert norm(g) == len(index.words[i])
        assert geodesic_rep(g) == index.words[i]
    assert len(confirms) == 2 * len(aliases)
