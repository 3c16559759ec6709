import copy
import functools
import pickle
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from basilica import (
    BudgetExceededError,
    InputError,
    Perm,
    WordParseError,
    basilica,
    equals,
    free_reduce,
    parse_system,
)
from basilica import core
from basilica.core import (
    Element,
    ElementIndex,
    GeneratorSystem,
    compose_images,
    exponent_sums,
    invert_images,
    invert_word,
    power_word,
    product_word,
)
from basilica.descent import find_ab, find_b_inv_a, persist_ab, prodense_projection_search
from basilica.norms import ball
from basilica.permgrp import SubgroupHandle, stabilizer_generator_pairs
from basilica.structure import LIFT_SUBSTITUTION, lift_section, tau

from conftest import (
    ADDING_MACHINE_TEXT,
    BASILICA_TEXT,
    D3_TEXT,
    EXPANDING_TEXT,
    GRIGORCHUK_TEXT,
    GUPTA_SIDKI_TEXT,
    HANOI_TEXT,
    LAMPLIGHTER_TEXT,
    random_element,
    reduced_words,
)


def test_free_reduce_cancellation(B):
    assert B.parse_word("aA") == ()
    assert B.parse_word("abBA") == ()
    assert B.parse_word("ab") == (1, 2)


def test_free_reduce_idempotent():
    raw = (1, 2, -2, -1, 1, 2)
    once = free_reduce(raw)
    assert free_reduce(once) == once == (1, 2)


def test_parse_word_unknown_letter(B):
    with pytest.raises(WordParseError) as exc:
        B.parse_word("axb")
    assert exc.value.column == 2
    # the first bad character is reported, however long the word
    with pytest.raises(WordParseError) as exc:
        B.parse_word("ab" * 300 + "Ez" + "ab")
    assert exc.value.column == 601
    assert "'E'" in str(exc.value)


def test_letter_range_names_first_bad_letter(B):
    for word in ((1, 3, 0), (1, 2) * 200 + (-3,) + (0,), (0,)):
        bad = next(l for l in word if l == 0 or abs(l) > 2)
        with pytest.raises(InputError, match=f"letter {bad} outside"):
            B.element(word)
    assert B.element((1, 2) * 200 + (-2, -1)).word == (1, 2) * 199


def test_word_str_round_trip(B):
    for text in ("e", "a", "Ab", "aBBa"):
        assert B.word_str(B.parse_word(text)) == text


def test_root_perm_generators(B):
    a, b = B.generators()
    assert a.root_perm().is_identity()
    assert b.root_perm() == Perm((1, 0))
    assert (a * b).root_perm() == Perm((1, 0))


def test_root_perm_multiplicative(B, rng):
    for _ in range(200):
        g = random_element(B, rng)
        h = random_element(B, rng)
        assert (g * h).root_perm().images == compose_images(
            g.root_perm().images, h.root_perm().images
        )


def test_sections_of_generators(B):
    a, b = B.generators()
    assert equals(a.section(1), b)
    assert a.section(0).is_trivial()
    assert equals(b.section(0), a)
    assert b.section(1).is_trivial()


def test_sections_of_commutator(B):
    g = B.element("ABab")
    assert equals(g.section(0), B.element("Aba"))
    assert equals(g.section(1), B.element("B"))


def test_section_out_of_range(B):
    with pytest.raises(InputError):
        B.element("a").section(2)


def test_section_at_vertex(B):
    a, b = B.generators()
    g = B.element("abAB")
    assert equals(g.section_at_vertex(""), g)
    assert equals((a * a).section_at_vertex("11"), a)
    assert equals(b.inverse().section_at_vertex("1"), a.inverse())


def test_section_at_vertex_composes(B, rng):
    for _ in range(50):
        g = random_element(B, rng)
        u, w = "01", "10"
        direct = g.section_at_vertex(u + w)
        nested = g.section_at_vertex(u).section_at_vertex(w)
        assert equals(direct, nested)


def test_section_at_vertex_malformed(B):
    with pytest.raises(InputError):
        B.element("a").section_at_vertex("02")


def test_root_vertex_is_e_or_empty(B):
    g = B.element("aBBa")
    assert B.parse_vertex("e") == B.parse_vertex("") == ()
    assert g.act("e") == g.act("") == ""
    assert g.section_at_vertex("e").word == g.section_at_vertex("").word == g.word
    w = B.element("ABab")
    assert lift_section(w, "e").word == lift_section(w, "").word == w.word
    for bad in ("ee", "0e", "e0", "E"):
        with pytest.raises(InputError, match="bad vertex letter"):
            B.parse_vertex(bad)


def test_act_basics(B):
    a, b = B.generators()
    assert b.act("0") == "1"
    assert a.act("0") == "0"
    assert (a * b).act("00") == "11"


def test_act_is_action(B, rng):
    for _ in range(100):
        g = random_element(B, rng)
        h = random_element(B, rng)
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        assert len(g.act(v)) == len(v)
        assert (g * h).act(v) == g.act(h.act(v))


def test_action_coherence_on_ball():
    # act(g, x w) = root(g)(x) . act(section(g, x), w) throughout ball(6)
    B = basilica()
    suffixes = [""]
    all_suffixes = [""]
    for _ in range(5):
        suffixes = [v + x for v in suffixes for x in "01"]
        all_suffixes.extend(suffixes)
    for g in ball(B, 6).classes:
        root = g.root_perm()
        for x in (0, 1):
            sec = g.section(x)
            for w in all_suffixes:
                assert g.act(str(x) + w) == str(root.images[x]) + sec.act(w)


def test_is_trivial_examples(B):
    a, b = B.generators()
    conj = b.inverse() * a * b
    tau1 = conj.inverse() * a.inverse() * conj * a
    assert tau1.is_trivial()
    assert not a.is_trivial()
    comm_ba = b.inverse() * a.inverse() * b * a
    assert (comm_ba.inverse() * a.inverse() * comm_ba * a).is_trivial()


def test_equals_examples(B):
    a, b = B.generators()
    assert equals(a * b, a * b)
    assert not equals(a * b, b * a)
    assert (a * b == b * a) is False
    assert a * a.inverse() == B.identity()
    # an element never equals a word text
    assert (B.element("a") == "a") is False and (B.element("a") != "a") is True


def test_equals_mixed_systems_rejected(B):
    other = parse_system("alphabet 2; gen c perm=0,1 sections=e,c")
    with pytest.raises(InputError):
        equals(B.element("a"), other.element("c"))
    with pytest.raises(InputError):
        SubgroupHandle(B, [B.element("a"), other.element("c")])


def test_elements_unhashable(B):
    with pytest.raises(TypeError):
        hash(B.element("a"))


def test_decision_agrees_with_deep_level_action():
    # the level-12 action separates every pair of ball(4) classes that the
    # word-problem decision separates, and conversely
    B = basilica()
    classes = list(ball(B, 4).classes)
    perms = [g.level_perm(12) for g in classes]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert equals(classes[i], classes[j]) == (perms[i] == perms[j])


# a Basilica-like system on 300 letters: past 256 the index keys on level 0,
# so every word shares one bucket
_WIDE_SYSTEM = (
    "alphabet 300; gen a perm=" + ",".join(map(str, range(300)))
    + " sections=e,b" + ",e" * 298
    + "; gen b perm=" + ",".join(map(str, [*range(1, 300), 0]))
    + " sections=a" + ",e" * 299
)
_SYSTEMS = {"basilica": BASILICA_TEXT, "d3": D3_TEXT, "wide": _WIDE_SYSTEM}
# the deepest level of at most 256 vertices
_KEY_LEVEL = {"basilica": 8, "grigorchuk": 8, "d3": 5, "wide": 0}


@settings(derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(_SYSTEMS)),
    st.lists(st.text(alphabet="aAbB", max_size=8), max_size=12),
)
# "BAbA" and "ABAb" are distinct words of one element; a^16 shares the
# identity's level-8 key without being trivial
@example("basilica", ["BAbA", "a" * 16, "", "ABAb", "ab"])
@example("wide", ["BAbA", "a" * 16, "", "ABAb", "ab", "ba"])
# later words extend registered ones, so they are keyed from an entry that
# is not the identity; BAbABaba is trivial
@example("basilica", ["ab", "abA", "abAB", "BAbA", "ABAb", "abABaBAbABaba", "BAbABaba"])
@example("d3", ["ab", "abA", "abAB", "abABab", "BAbA", "BAbAb"])
def test_element_index_agrees_with_equals(kind, texts):
    system = parse_system(_SYSTEMS[kind])
    index = ElementIndex(system)
    registered = [system.identity()]
    for text in texts:
        g = system.element(text)
        idx = index.find_word(g.word)
        matches = [i for i, h in enumerate(registered) if equals(g, h)]
        if idx is None:
            idx = index.insert_word(g.word)
            assert matches == [] and idx == len(registered)
            registered.append(g)
        else:
            assert matches == [idx]
        assert index.find_word(g.word) == idx
        assert index._by_word == {core._word_bytes(w): i for i, w in enumerate(index.words)}
        for i in range(len(index.words)):
            level_perm = system.word_level_perm(index.words[i], _KEY_LEVEL[kind])
            assert index._keys[i] == bytes(level_perm) + bytes(range(len(level_perm), 256))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(["basilica", "d3"]), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40))
def test_index_key_is_level_action(kind, letters):
    system = parse_system(_SYSTEMS[kind])
    word = free_reduce(letters)
    level = _KEY_LEVEL[kind]
    assert system.alphabet_size**level <= 256 < system.alphabet_size ** (level + 1)
    index = ElementIndex(system)
    idx = index.find_word(word)
    if idx is None:
        idx = index.insert_word(word)
    perm = system.word_level_perm(word, level)
    assert index._keys[idx] == bytes(perm) + bytes(range(len(perm), 256))


_CHILD_SYSTEMS = {"basilica": BASILICA_TEXT, "grigorchuk": GRIGORCHUK_TEXT, "d3": D3_TEXT}


def test_child_key_is_index_key_of_the_extension():
    # every ball entry past the root is keyed from its parent's entry, one
    # letter folded in, and must carry its own level action (the root's is
    # the identity); the d = 3 system keys on 243 bytes, but a translation
    # table has 256
    for kind, radius in (("basilica", 6), ("grigorchuk", 8), ("d3", 5)):
        system = parse_system(_CHILD_SYSTEMS[kind])
        ball(system, radius)
        index = system._ball_registry
        assert len(index.words) > 250
        for i, word in enumerate(index.words):
            perm = system.word_level_perm(word, _KEY_LEVEL[kind])
            assert index._keys[i] == bytes(perm) + bytes(range(len(perm), 256))
            assert index._by_word[core._word_bytes(word)] == i
            assert index.find_word(word) == i


def _letter_data(system):
    """Per signed letter: root images and section words, from the defining
    data that == and hash compare."""
    d, gens = system._spec
    data = {}
    for i, (_, root, secs) in enumerate(gens):
        inv = tuple(root.index(x) for x in range(d))
        data[i + 1] = (root, secs)
        data[-(i + 1)] = (inv, tuple(invert_word(secs[inv[x]]) for x in range(d)))
    return data


# the level tests' systems besides _SYSTEMS: Grigorchuk's letters push 0 or
# 1 section letters at a vertex, and a section of "long-sections" holds up
# to 2, 3 per letter in all, so its word_at chunk is cut to 5 levels
_LEVEL_SYSTEMS = {
    **_SYSTEMS,
    "grigorchuk": GRIGORCHUK_TEXT,
    "long-sections": "alphabet 2; gen a perm=1,0 sections=ab,B; gen b perm=0,1 sections=a,ba",
}
# the deepest level the reference recursion checks
_REFERENCE_TOP = {"basilica": 9, "d3": 9, "grigorchuk": 9, "long-sections": 9, "wide": 1}


def _signed_letters(system):
    return [l for i in range(len(system.names)) for l in (i + 1, -(i + 1))]


@functools.lru_cache(maxsize=None)
def _reference_letter_perm(kind, letter, n):
    """A letter's level-n Perm: x v goes to sigma(x) (s_x . v)."""
    system = parse_system(_LEVEL_SYSTEMS[kind])
    root, secs = _letter_data(system)[letter]
    size = system.alphabet_size ** (n - 1)
    images = []
    for x, sec in enumerate(secs):
        images.extend(root[x] * size + v for v in _reference_level_perm(kind, sec, n - 1).images)
    return Perm(images)


def _reference_level_perm(kind, word, n):
    """Product of the letters' level-n Perms; level 0 has one vertex."""
    p = Perm(range(parse_system(_LEVEL_SYSTEMS[kind]).alphabet_size ** n))
    for l in word if n else ():
        p = Perm(compose_images(p.images, _reference_letter_perm(kind, l, n).images))
    return p


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(sorted(_LEVEL_SYSTEMS)),
    st.integers(0, 9),
    st.lists(st.integers(-4, 4).filter(bool), max_size=12),
)
# each system at its deepest reference level
@example("grigorchuk", 9, [2, 1, 3, 1, 4, -1, 2])
@example("long-sections", 9, [1, 2, -1, 2, 2, -1])
@example("d3", 9, [1, -2, 1, 1, 2, -1])
@example("wide", 1, [1, 2, -1, -2, 2])
def test_level_perm_is_product_of_letter_perms(kind, n, letters):
    system = parse_system(_LEVEL_SYSTEMS[kind])
    n = min(n, _REFERENCE_TOP[kind])
    # letters past the system's generators are dropped
    word = free_reduce(l for l in letters if abs(l) <= len(system.names))
    assert system.element(word).level_perm(n) == _reference_level_perm(kind, word, n)


@pytest.mark.parametrize("kind", sorted(_LEVEL_SYSTEMS))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.data())
def test_level_perm_is_the_next_level_read_one_level_up(kind, data):
    # level-n vertex x lies above level-(n + 1) vertex x d, so level n reads
    # x -> p(x d) // d off level n + 1; n runs on both sides of the key
    # level, whose tables are kept, while deeper ones are built per call
    system = parse_system(_LEVEL_SYSTEMS[kind])
    d = system.alphabet_size
    n = data.draw(st.sampled_from([n for n in range(12) if d ** (n + 1) <= core.MAX_LEVEL_POINTS]))
    word = free_reduce(data.draw(st.lists(st.sampled_from(_signed_letters(system)), max_size=12)))
    above = system.word_level_perm(word, n + 1)
    assert system.word_level_perm(word, n) == tuple(above[x * d] // d for x in range(d**n))


def test_level_perm_examples(B):
    a, b = B.generators()
    assert a.level_perm(1).is_identity()
    assert b.level_perm(1) == Perm((1, 0))
    # hand recursion: 00 -> 11 -> 01 -> 10 -> 00
    assert (a * b).level_perm(2) == Perm((3, 2, 0, 1))


def test_level_perm_multiplicative(B, rng):
    for n in (1, 2, 3, 4):
        for _ in range(50):
            g = random_element(B, rng)
            h = random_element(B, rng)
            assert (g * h).level_perm(n).images == compose_images(
                g.level_perm(n).images, h.level_perm(n).images
            )


def test_inverse_law(B, rng):
    for _ in range(200):
        g = random_element(B, rng)
        gi = g.inverse()
        inv_root = invert_images(g.root_perm().images)
        assert gi.root_perm().images == inv_root
        for x in (0, 1):
            assert equals(gi.section(x), g.section(inv_root[x]).inverse())


def _reference_root_and_sections(system, word):
    """Root and sections built letter by letter from the generator data:
    sigma_{gl} = sigma_g o sigma_l and (gl)_x = g_{sigma_l(x)} l_x."""
    d = system.alphabet_size
    data = _letter_data(system)
    root = tuple(range(d))
    secs = ((),) * d
    for l in word:
        lroot, lsecs = data[l]
        root, secs = (
            tuple(root[lroot[x]] for x in range(d)),
            tuple(free_reduce(secs[lroot[x]] + lsecs[x]) for x in range(d)),
        )
    return root, secs


# systems with trivial roots (Grigorchuk's b, c, d, Gupta-Sidki's b) and a
# nonabelian root group
_WALK_SYSTEMS = {
    "basilica": BASILICA_TEXT,
    "d3": D3_TEXT,
    "grigorchuk": GRIGORCHUK_TEXT,
    "gupta-sidki": GUPTA_SIDKI_TEXT,
    "hanoi": HANOI_TEXT,
}
# every letter of the largest of these systems, Grigorchuk's four generators
_ALL_LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


def _uncancelled(letters):
    """The letters as a reduced word: a letter that would cancel is
    repeated instead, so nothing cancels."""
    word: list[int] = []
    for l in letters:
        word.append(-l if word and word[-1] == -l else l)
    return tuple(word)


def _in_range(system, letters):
    """The letters folded into the system's generator range, signs kept."""
    n = len(system.names)
    return [(1 if l > 0 else -1) * ((abs(l) - 1) % n + 1) for l in letters]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.sampled_from(sorted(_WALK_SYSTEMS)),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=3 * core.MEMO_LETTERS),
)
@example("basilica", [1, 2] * (core.MEMO_LETTERS // 2))
@example("basilica", [1, 2] * (core.MEMO_LETTERS // 2) + [1])
@example("d3", [1, -2] * core.MEMO_LETTERS)
@example("hanoi", [1, 2, 3, -1, -2, -3] * 12)
def test_fused_walk_matches_section_law(kind, letters):
    system = parse_system(_WALK_SYSTEMS[kind])
    word = free_reduce(_in_range(system, letters))
    expected = _reference_root_and_sections(system, word)
    # a cold walk, then one through the steps the first walk built
    for _ in range(2):
        assert system.word_root(word) == expected[0]
        assert system.word_sections(word) == expected[1]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(["basilica", "grigorchuk", "gupta-sidki"]),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=80),
)
def test_exponent_sums_count_each_letter(kind, letters):
    system = parse_system(_WALK_SYSTEMS[kind])
    n = len(system.names)
    word = tuple(_in_range(system, letters))
    expected = [0] * n
    for l in word:
        expected[abs(l) - 1] += 1 if l > 0 else -1
    # free reduction cancels a letter against its inverse, so it keeps the sums
    assert exponent_sums(word, n) == exponent_sums(free_reduce(word), n) == tuple(expected)


def _level_point(path, d):
    """Index of a vertex path among its level's vertices in lexicographic order."""
    return functools.reduce(lambda point, x: point * d + x, path, 0)


def _reference_at(system, word, path):
    """Image and section of a vertex path by the definition, one level at a
    time: g sends x v to sigma_g(x) g_x(v)."""
    image = []
    for x in path:
        root, sections = _reference_root_and_sections(system, word)
        image.append(root[x])
        word = sections[x]
    return tuple(image), word


def _check_word_at(system, word, path):
    d = system.alphabet_size
    image, section = system.word_at(word, path)
    assert (image, section) == _reference_at(system, word, path)
    # and the image agrees with the level action, on levels small to fold
    m = len(path)
    while d**m > 4096:
        m -= 1
    level = system.word_level_perm(word, m)
    assert _level_point(image[:m], d) == level[_level_point(path[:m], d)]


# a = (a^2, 1) doubles a word's a's at every 0, so its paths stay short
_AT_SYSTEMS = {**_WALK_SYSTEMS, "expanding": EXPANDING_TEXT}
# paths of 17 levels are past the key level (8 when d = 2, 5 when d = 3), so
# word_at walks them in more than one chunk
_AT_DEPTH = 17


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(["basilica", "d3", "grigorchuk", "expanding"]),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=24),
    st.lists(st.integers(0, 2), max_size=_AT_DEPTH),
)
@example("basilica", [1, 2] * 12, [0] * _AT_DEPTH)
@example("d3", [1, -2] * 12, [2, 1] * 8 + [0])
def test_word_at_is_level_action_and_iterated_section(kind, letters, digits):
    system = parse_system(_AT_SYSTEMS[kind])
    word = free_reduce(_in_range(system, letters))
    path = tuple(x % system.alphabet_size for x in digits)
    if kind == "expanding":
        path = path[:10]  # one level past the chunk; a^24 grows to a^(24 2^10)
    _check_word_at(system, word, path)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(_WALK_SYSTEMS)),
    st.lists(
        st.sampled_from(_ALL_LETTERS),
        min_size=core.MEMO_LETTERS + 1,
        max_size=4 * core.MEMO_LETTERS,
    ),
    st.lists(st.integers(0, 2), max_size=_AT_DEPTH),
)
def test_word_at_walks_long_words_along_the_path(kind, letters, digits):
    # words past MEMO_LETTERS, on paths past the key level
    system = parse_system(_WALK_SYSTEMS[kind])
    word = _uncancelled(_in_range(system, letters))
    path = tuple(x % system.alphabet_size for x in digits)
    assert len(word) > core.MEMO_LETTERS
    _check_word_at(system, word, path)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(["ab", "ba"]), st.lists(st.integers(0, 1), max_size=12))
def test_squares_of_ab_persist_down_any_vertex(start, digits):
    # (ab)^(2^k) (or (ba)^(2^k)) fixes every vertex v of length k, and its
    # section there is the state persist_ab reaches along v
    B = basilica()
    vertex = "".join(map(str, digits))
    g = B.element(start) ** (2 ** len(digits))
    k, final = persist_ab(B.element(start), vertex)
    assert k == len(digits)
    assert g.act(vertex) == vertex
    assert g.section_at_vertex(vertex).word == final.word
    assert g.projection(tuple(digits)).word == final.word


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from(sorted(_AT_SYSTEMS)),
    st.integers(1, 3),
    st.sampled_from([None, 1, 3]),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=2 * core.MEMO_LETTERS),
)
def test_walk_level_is_level_action_and_iterated_sections(kind, k, states_cap, letters):
    # letters push 0 (Grigorchuk's a), 1 (Basilica, Hanoi) or more (Grigorchuk's
    # b, the d = 3 system, the expanding a) letters per level.  With states_cap,
    # MAX_LEVEL_POINTS holds that many level-k actions: at 1 only the
    # identity's steps are kept
    system = parse_system(_AT_SYSTEMS[kind])
    word = free_reduce(_in_range(system, letters))
    action = system.word_level_perm(word, k)
    # level-1 sections taken k times, in lexicographic vertex order
    expected = [word]
    for _ in range(k):
        expected = [s for w in expected for s in _reference_root_and_sections(system, w)[1]]
    with pytest.MonkeyPatch.context() as patch:
        if states_cap is not None:
            patch.setattr(core, "MAX_LEVEL_POINTS", states_cap * len(action))
        for _ in range(2):  # a cold walk, then one along the kept steps
            assert system._walk_level(word, k) == (action, tuple(expected))
    if states_cap is not None:
        assert len(system._walks[k][0]) <= states_cap
    # one stack operation per letter exactly when every letter pushes one
    assert system._walks[k][2] == (kind in ("basilica", "hanoi"))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=65, max_size=600),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=8),
)
def test_jump_walk_matches_the_adding_machine(letters, balance, path):
    system = parse_system(ADDING_MACHINE_TEXT)
    assert system._jump == 3
    walked = _record_walks(system)
    word = _uncancelled(letters)
    if balance:
        # a b between, then a run of a^(-n): the a-exponent sum becomes 0
        n = exponent_sums(word, 2)[0]
        word += (2 if word[-1] != -2 else -2,) + (-1 if n > 0 else 1,) * abs(n)
    n = exponent_sums(word, 2)[0]
    assert len(word) > core.MEMO_LETTERS
    assert system.word_is_trivial(word) == (n == 0)
    # the word acts on level 3 as +n mod 8: a nontrivial action there is
    # rejected by the level-3 action graph, before any walk; a trivial one
    # is walked on the level-3 tables the graph's search closed
    assert (3 in walked) == (n % 8 == 0)
    assert _filled_steps(system, 3) == 8 * 4
    image, section = system.word_at(word, tuple(path))
    v = sum(x << i for i, x in enumerate(path))
    assert image == tuple((v + n) >> i & 1 for i in range(len(path)))
    assert exponent_sums(section, 2)[0] == (v + n) >> len(path)


# levels a long word is walked at once
_JUMPS = {
    "basilica": (BASILICA_TEXT, 3),
    "adding-machine": (ADDING_MACHINE_TEXT, 3),
    # b = (a, c) holds two letters
    "grigorchuk": (GRIGORCHUK_TEXT, 1),
    "lamplighter": (LAMPLIGHTER_TEXT, 1),
    # a = (a^2, 1) doubles its words
    "expanding": (EXPANDING_TEXT, 1),
    "gupta-sidki": (GUPTA_SIDKI_TEXT, 1),
    "hanoi": (HANOI_TEXT, 1),
}


@pytest.mark.parametrize("kind", sorted(_JUMPS))
def test_jump_needs_one_letter_sections_on_the_binary_tree(kind):
    text, jump = _JUMPS[kind]
    assert parse_system(text)._jump == jump


# levels word_at walks at once: the key level, cut while a letter's
# sections of s letters could hold s^k > d^(key level) letters on level k
_CHUNKS = {
    **{
        kind: (_JUMPS[kind][0], 8)
        for kind in ("basilica", "adding-machine", "grigorchuk", "lamplighter", "expanding")
    },
    **{kind: (_JUMPS[kind][0], 5) for kind in ("gupta-sidki", "hanoi")},
    "d3": (D3_TEXT, 5),
    "wide": (_WIDE_SYSTEM, 1),
    # 16 letters in a's sections: 16^2 = 256 on level 2
    "sixteen": ("alphabet 2; gen a perm=1,0 sections=aaaaaaaa,aaaaaaaa", 2),
    # 3 letters in a's sections: 3^5 = 243 on level 5
    "long-sections": (_LEVEL_SYSTEMS["long-sections"], 5),
}


@pytest.mark.parametrize("kind", sorted(_CHUNKS))
def test_word_at_chunks_stop_where_sections_could_outgrow_the_key_level(kind):
    text, chunk = _CHUNKS[kind]
    system = parse_system(text)
    assert system._chunk == chunk
    system.word_at((1,), (1, 0, 1))
    assert max(system._points) == min(chunk, 3)


def _record_walks(system):
    """The levels ``system`` walks a word on, recorded as it walks them."""
    walked = []
    walk_level = system._walk_level
    system._walk_level = lambda word, k: walked.append(k) or walk_level(word, k)
    return walked


def _filled_steps(system, k):
    """The number of (action, letter) steps the level-k walk tables hold."""
    return sum(step is not None for state in system._walks[k][0].values() for step in state[1:])


def test_walk_tables_stay_within_the_level_quotient(monkeypatch):
    system = parse_system(BASILICA_TEXT)
    built = []
    walk_tables = system._walk_tables
    monkeypatch.setattr(system, "_walk_tables", lambda k: built.append(k) or walk_tables(k))
    g = system.element("ABab")
    lifted = lift_section(g, "0110101").word
    trivial = product_word(lifted, invert_word(lift_section(g * tau(3), "0110101").word))
    nontrivial = product_word(lifted, invert_word(lift_section(system.element("AbaB"), "0110101").word))
    assert min(len(trivial), len(nontrivial)) > core.MEMO_LETTERS
    for _ in range(2):
        assert system.word_is_trivial(trivial) and not system.word_is_trivial(nontrivial)
        assert len(system.word_at(nontrivial, (0, 1, 1, 0, 1, 0, 1))[0]) == 7
    # each walked level's tables are built once, and the level-3 walk,
    # closed by the action graph's search, has one state per element of
    # B/St(3), of order 2^6, and every step from each
    assert sorted(built) == [1, 3]
    assert len(system._walks[1][0]) <= 2
    assert len(system._walks[3][0]) == 64 and _filled_steps(system, 3) == 64 * 4


def test_walk_table_keeps_at_most_max_level_points_images(monkeypatch, rng):
    # roots generating S6: a table of every level-1 action would hold 720
    system = parse_system(
        "alphabet 6; gen a perm=1,2,3,4,5,0 sections=e,b,e,e,e,e; "
        "gen b perm=1,0,2,3,4,5 sections=a,e,e,e,e,e"
    )
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 60)
    for _ in range(40):
        word = free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(200)))
        assert system._walk_level(word, 1) == _reference_root_and_sections(system, word)
    assert len(system._walks[1][0]) == 10


def _reference_is_trivial(system, word):
    """Triviality by the section closure of ``_reference_root_and_sections``."""
    queue, seen = [word], {word}
    for w in queue:
        root, sections = _reference_root_and_sections(system, w)
        if root != tuple(range(system.alphabet_size)):
            return False
        for s in sections:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return True


def _relator_product(system, relators, conjugates):
    """The product of the conjugates u r u^-1, one per (letters of u, index
    of r) pair."""
    word = ()
    for letters, i in conjugates:
        u = _uncancelled(_in_range(system, letters))
        r = system.parse_word(relators[i % len(relators)])
        word = product_word(word, product_word(product_word(u, r), invert_word(u)))
    return word


# |G_J|, the order of each system's action on level _jump: B/St(3) has
# order 2^6, and the others act on level 1 as Z/2, Z/3 or S3
_JUMP_GRAPH_SIZES = {
    "basilica": (BASILICA_TEXT, 64),
    "d3": (D3_TEXT, 6),
    "grigorchuk": (GRIGORCHUK_TEXT, 2),
    "gupta-sidki": (GUPTA_SIDKI_TEXT, 3),
    "hanoi": (HANOI_TEXT, 6),
    "lamplighter": (LAMPLIGHTER_TEXT, 2),
}


@pytest.mark.parametrize("kind", sorted(_JUMP_GRAPH_SIZES))
def test_jump_graph_holds_each_level_action_once(kind):
    # each node is reached by a word, read right to left from the identity;
    # the edge of letter l leads to the node of l w, and distinct nodes
    # have distinct level-_jump actions
    text, size = _JUMP_GRAPH_SIZES[kind]
    system = parse_system(text)
    k, start = system._jump, system._jump_graph()
    assert system._jump_nodes is start
    words, queue = {id(start): ()}, [start]
    for node in queue:
        for l in _signed_letters(system):
            word = (l,) + words[id(node)]
            if id(node[l]) not in words:
                words[id(node[l])] = word
                queue.append(node[l])
            assert system.word_level_perm(words[id(node[l])], k) == system.word_level_perm(word, k)
    assert len(queue) == size
    assert len({system.word_level_perm(w, k) for w in words.values()}) == size


@pytest.mark.parametrize("kind", sorted(_JUMP_GRAPH_SIZES))
def test_jump_graph_closes_the_walk_tables(kind, monkeypatch):
    # after one long decision the level-_jump walk tables hold a step for
    # every (action, letter) pair, their actions are the graph's nodes, and
    # a walk on them, which fills nothing, gives the action and the
    # sections of _reference_root_and_sections
    text, size = _JUMP_GRAPH_SIZES[kind]
    system = parse_system(text)
    rng = random.Random(size)
    letters = _signed_letters(system)
    system.word_is_trivial(_uncancelled(rng.choice(letters) for _ in range(core.MEMO_LETTERS + 1)))
    k, states = system._jump, system._walks[system._jump][0]
    assert _filled_steps(system, k) == size * len(letters)
    assert all(state[0] is p for p, state in states.items())
    # each node's action, from a word that reaches it
    actions, queue = {id(system._jump_nodes): ()}, [system._jump_nodes]
    for node in queue:
        for l in letters:
            if id(node[l]) not in actions:
                actions[id(node[l])] = (l,) + actions[id(node)]
                queue.append(node[l])
    assert {system.word_level_perm(w, k) for w in actions.values()} == set(states)
    monkeypatch.setattr(system, "_walk_step", None)  # a lazy fill would fail
    for _ in range(40):
        word = _uncancelled(rng.choice(letters) for _ in range(rng.randrange(65, 300)))
        expected = [word]
        for _ in range(k):
            expected = [s for w in expected for s in _reference_root_and_sections(system, w)[1]]
        assert system._walk_level(word, k) == (system.word_level_perm(word, k), tuple(expected))


# relators: Basilica's [a, a^b], Grigorchuk's involutions, bcd and (ad)^4,
# and the shortest relator of the d = 3 system (10 letters).  The roots of
# "s3-roots", a 3-cycle and two transpositions, admit no automorphism that
# inverts each generator, so a word read in the wrong order can act
# nontrivially where the word does not: (acb)^2 is a relator, but bcabca
# moves the root
_GRAPH_RELATORS = {
    "basilica": (BASILICA_TEXT, ["abaBAbAB"]),
    "d3": (D3_TEXT, ["abbAbABBaB"]),
    "grigorchuk": (GRIGORCHUK_TEXT, ["aa", "bb", "cc", "dd", "bcd", "adadadad"]),
    "s3-roots": (
        "alphabet 3\ngen a perm=1,2,0 sections=e,e,e\ngen b perm=1,0,2 sections=e,e,b\n"
        "gen c perm=0,2,1 sections=c,e,e\n",
        ["acbacb", "aaa", "bb", "cc"],
    ),
}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    st.sampled_from(sorted(_GRAPH_RELATORS)),
    st.lists(
        st.tuples(st.lists(st.sampled_from(_ALL_LETTERS), min_size=12, max_size=32), st.integers(0, 5)),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=2 * core.MEMO_LETTERS),
)
def test_jump_graph_keeps_every_verdict_and_memo(kind, conjugates, tail):
    # a relator product, times a random word: the verdicts and memos of a
    # system that folds long words through its graph and of one whose graph
    # is switched off agree
    text, relators = _GRAPH_RELATORS[kind]
    system = parse_system(text)
    relator = _relator_product(system, relators, conjugates)
    word = product_word(relator, _uncancelled(_in_range(system, tail)))
    assume(len(word) > core.MEMO_LETTERS)
    verdict = system.word_is_trivial(word)
    assert system._jump_nodes
    if not tail:
        assert verdict
    reference = parse_system(text)
    with pytest.MonkeyPatch.context() as patch:
        # the identity's action alone fits
        patch.setattr(core, "MAX_LEVEL_POINTS", system.alphabet_size**system._jump)
        assert reference.word_is_trivial(word) == verdict
    assert reference._jump_nodes is not None and not reference._jump_nodes
    assert system._trivial_cache == reference._trivial_cache


def test_long_word_trivial_on_the_jump_level_is_decided_by_the_walk():
    # (ab)^64 acts trivially on level 3, but B is torsion-free
    system = parse_system(BASILICA_TEXT)
    word = power_word((1, 2), 64)
    walked = _record_walks(system)
    assert len(word) == 128 and system.word_level_perm(word, 3) == tuple(range(8))
    assert not system.word_is_trivial(word)
    assert walked[0] == 3


def test_jump_graph_rejection_walks_nothing(rng):
    # long words of nontrivial level-3 action are rejected by the graph
    # alone: no walk, and the memo holds only the empty word
    system = parse_system(BASILICA_TEXT)
    walked = _record_walks(system)
    for _ in range(20):
        word = _uncancelled(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(65, 400)))
        if system.word_level_perm(word, 3) != tuple(range(8)):
            assert not system.word_is_trivial(word)
    # the graph's search closes the level-3 tables, and nothing is walked;
    # (the walk and graph tables are compared by their keys or length, so a
    # failure does not print their nested lists in full)
    assert walked == [] and sorted(system._walks) == [3]
    assert system._trivial_cache == {()}


def test_jump_graph_keeps_the_walk_tables_bound(monkeypatch, rng):
    # roots generating S6: a graph of every level-1 action would hold 720
    # actions, past 60 points; the system keeps no graph, tries to build it
    # once, and decides every word as the reference closure does
    system = parse_system(
        "alphabet 6; gen a perm=1,2,3,4,5,0 sections=e,b,e,e,e,e; "
        "gen b perm=1,0,2,3,4,5 sections=a,e,e,e,e,e"
    )
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 60)
    builds = []
    build = system._jump_graph
    monkeypatch.setattr(system, "_jump_graph", lambda: builds.append(1) or build())
    verdicts = set()
    for i in range(40):
        if i % 2:
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(65, 200))]
            word = _uncancelled(letters)
        else:
            conjugates = [([rng.choice([1, -1, 2, -2]) for _ in range(8)], j) for j in range(4)]
            word = _relator_product(system, ["aabAAbaaBAAB", "abABabABabAB"], conjugates)
        assert len(word) > core.MEMO_LETTERS
        verdict = system.word_is_trivial(word)
        assert verdict == _reference_is_trivial(system, word)
        verdicts.add(verdict)
    assert verdicts == {False, True}
    assert builds == [1] and system._jump_nodes is not None and not system._jump_nodes


# 25 generators, every lowercase name but e
_NAMES_25 = "abcdfghijklmnopqrstuvwxyz"


@pytest.mark.parametrize("pushes", ["one", "every"])
@pytest.mark.parametrize("states_cap", [None, 1])
def test_walk_steps_read_both_ends_of_the_letter_list(pushes, states_cap):
    # 25 generators with random roots and one-letter sections (at one letter
    # of the alphabet, or at both): the letters +-1..+-25 index both ends of
    # a state's 51-slot step list.  With states_cap 1 only the identity's
    # steps are kept
    rng = random.Random(25)
    lines = ["alphabet 2"]
    for name in _NAMES_25:
        sections = [rng.choice(_NAMES_25 + _NAMES_25.upper()) for _ in range(2)]
        if pushes == "one":
            sections[rng.randrange(2)] = "e"
        lines.append(f"gen {name} perm={rng.choice(['0,1', '1,0'])} sections={','.join(sections)}")
    system = parse_system("; ".join(lines))
    letters = list(range(1, 26)) + list(range(-25, 0))
    for k in (1, 2, 3):
        for _ in range(20):
            word = free_reduce(rng.choice(letters) for _ in range(rng.randrange(60)))
            expected = [word]
            for _ in range(k):
                expected = [s for w in expected for s in _reference_root_and_sections(system, w)[1]]
            action = system.word_level_perm(word, k)
            with pytest.MonkeyPatch.context() as patch:
                if states_cap is not None:
                    patch.setattr(core, "MAX_LEVEL_POINTS", states_cap * len(action))
                for _ in range(2):  # a cold walk, then one along the kept steps
                    assert system._walk_level(word, k) == (action, tuple(expected))
        assert states_cap is None or len(system._walks[k][0]) <= states_cap
        assert system._walks[k][2] == (pushes == "one")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.sampled_from([1, 2, 25]),
    st.lists(st.tuples(st.integers(1, 25), st.booleans()), max_size=80),
)
@example(1, [])
@example(25, [])
@example(25, [(25, True), (25, False), (25, False), (1, True)])
def test_exponent_sums_over_1_2_and_25_generators(generators, letters):
    # letters up to +-generators, not necessarily reduced
    word = tuple((1 if positive else -1) * ((i - 1) % generators + 1) for i, positive in letters)
    expected = [0] * generators
    for l in word:
        expected[abs(l) - 1] += 1 if l > 0 else -1
    assert exponent_sums(word, generators) == tuple(expected)


# a = sigma and each further generator is (its predecessor, 1)
_SYSTEM_25 = "alphabet 2; gen a perm=1,0 sections=e,e; " + "; ".join(
    f"gen {n} perm=0,1 sections={m},e" for m, n in zip(_NAMES_25, _NAMES_25[1:])
)
_PARSE_SYSTEMS = {
    kind: parse_system(text)
    for kind, text in {
        "basilica": BASILICA_TEXT,
        "grigorchuk": GRIGORCHUK_TEXT,
        "d3": D3_TEXT,
        "25-generators": _SYSTEM_25,
    }.items()
}
# no letter of any system: e and E, a NUL, ? (what a non-ASCII character
# encodes to), other ASCII, non-ASCII of 2, 3 and 4 UTF-8 bytes, a surrogate
_NOT_LETTERS = ["e", "E", "\x00", "?", " ", "1", "\x7f", "\xe9", "€", "\U0001f600", "\ud800"]


def _reference_letters(system):
    """Each surface character's letter, from the generator names."""
    letters = {n: i + 1 for i, n in enumerate(system.names)}
    letters.update((n.upper(), -(i + 1)) for i, n in enumerate(system.names))
    return letters


def _reference_parse(system, text):
    """Letter by letter, reduced on a stack, and the first column that holds
    no letter (None if every one does)."""
    letters = _reference_letters(system)
    word: list[int] = []
    for col, ch in enumerate(text, start=1):
        if ch not in letters:
            return None, col
        if word and word[-1] == -letters[ch]:
            word.pop()
        else:
            word.append(letters[ch])
    return tuple(word), None


def _letters_and_pairs(kind):
    """Texts of ``kind``'s system as lists of single letters and cancelling
    pairs, so a pair may start at any column."""
    names = _PARSE_SYSTEMS[kind].names
    names += tuple(n.upper() for n in names)
    tokens = names + tuple(ch + ch.swapcase() for ch in names)
    return st.tuples(st.just(kind), st.lists(st.sampled_from(tokens), max_size=60))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(_PARSE_SYSTEMS)).flatmap(_letters_and_pairs),
    st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_NOT_LETTERS)), max_size=2),
)
@example(("basilica", ["e"]), [])  # the empty word, as its two texts
@example(("d3", []), [])
@example(("basilica", ["a", "b"]), [(1, "\x00")])  # "a\x00b": column 2
@example(("25-generators", ["a", "b"]), [(1, "€")])  # "a€b": column 2
@example(("grigorchuk", ["a"]), [(1, "e"), (0, "E")])  # "Eae": column 1
def test_parse_word_agrees_with_letter_by_letter_reference(case, bad):
    kind, tokens = case
    system = _PARSE_SYSTEMS[kind]
    text = "".join(tokens)
    for pos, ch in bad:
        pos %= len(text) + 1
        text = text[:pos] + ch + text[pos:]
    expected, column = _reference_parse(system, text) if text != "e" else ((), None)
    if column is not None:
        for parse in (system.parse_word, system.element):
            with pytest.raises(WordParseError) as exc:
                parse(text)
            assert exc.value.column == column
            assert str(exc.value) == f"unknown letter {text[column - 1]!r} (column {column})"
        return
    assert system.parse_word(text) == expected
    assert system.element(text).word == expected
    names = {l: ch for ch, l in _reference_letters(system).items()}
    printed = system.word_str(expected)
    assert printed == ("".join(names[l] for l in expected) or "e")
    assert system.parse_word(printed) == expected


def test_word_str_rejects_letters_outside_the_system(B):
    for word in ((5,), (1, -3), (0,), (1, 200), (-128,), (2, 1.5)):
        with pytest.raises(InputError, match=f"letter {word[-1]!r} outside"):
            B.word_str(word)
    assert B.word_str((1, -2, 2)) == "aBb"  # printed as given, not reduced


def test_word_struct_cache_stays_bounded(B):
    maxsize = core._word_struct.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, 2 * maxsize):
        assert B.word_str(B.parse_word("ab" * n)) == "ab" * n
    assert core._word_struct.cache_info().currsize <= maxsize


_PROJECTION_SYSTEMS = {
    kind: parse_system(text)
    for kind, text in {
        "basilica": BASILICA_TEXT,
        "grigorchuk": GRIGORCHUK_TEXT,
        "gupta-sidki": GUPTA_SIDKI_TEXT,
        "d3": D3_TEXT,
    }.items()
}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.sampled_from(sorted(_PROJECTION_SYSTEMS)),
    st.lists(st.sampled_from(_ALL_LETTERS), max_size=24),
    st.lists(st.integers(0, 2), max_size=7),
)
def test_projection_is_the_section_exactly_at_fixed_vertices(kind, letters, digits):
    system = _PROJECTION_SYSTEMS[kind]
    d = system.alphabet_size
    g = system.element(_in_range(system, letters))
    path = tuple(x % d for x in digits)
    point = _level_point(path, d)
    projection = g.projection(path)
    if system.word_level_perm(g.word, len(path))[point] != point:
        assert projection is None
    else:
        section = g
        for x in path:
            section = section.section(x)
        assert projection is not None and projection.word == section.word


def test_projection_needs_the_vertex_fixed(B):
    # b's section at 0 is a, but b moves 0, so 0 is outside its stabilizer
    b = B.generator("b")
    assert equals(b.section(0), B.generator("a"))
    assert b.projection((0,)) is None
    assert equals(b.projection(()), b)
    assert equals((b * b).projection((0,)), B.generator("a"))


@pytest.mark.parametrize("x", [2, -1, 1.0, "1"])
def test_section_refuses_letters_outside_the_alphabet(B, x):
    with pytest.raises(InputError, match=f"^letter {re.escape(str(x))} outside the alphabet$"):
        B.element("b").section(x)


@pytest.mark.parametrize("path", [(2,), (-1,), (0, 2), (1, 0, 5)])
def test_projection_refuses_digits_outside_the_alphabet(B, path):
    # read as a point of its level, (0, 2) would be the vertex 10
    with pytest.raises(InputError, match="outside the alphabet"):
        B.element("a").projection(path)


@pytest.mark.parametrize(
    "path, digit",
    [((2,), "2"), ((0, -1), "-1"), ((0, 2), "2"), ((0, 1.0), "1.0"), ((0, "1"), "'1'"),
     ((0,) * 9 + (2,), "2")],
)
def test_word_at_refuses_digits_outside_the_alphabet(path, digit):
    # (0, 2) read as a point of level 2 would be the vertex 10, and
    # (0, -1) the vertex 01; the last path's bad digit lies in its second
    # chunk, past the key level
    message = f"vertex letter {digit} outside the alphabet"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        basilica().word_at((2,), path)


@pytest.mark.parametrize(
    "value, rule",
    [(1.5, "an integer, not 1.5"), (True, "an integer, not True"), ("3", "an integer, not '3'"),
     (-1, "non-negative, got -1")],
    ids=["float", "bool", "str", "negative"],
)
@pytest.mark.parametrize(
    "what, call",
    [
        ("alphabet size", lambda n: GeneratorSystem(n, [("a", (0, 1), ("e", "e"))])),
        ("level", lambda n: basilica().word_level_perm((1, 2), n)),
        ("portrait depth", lambda n: basilica().element("ab").portrait(n)),
        ("radius", lambda n: ball(basilica(), n)),
        ("stabilizer cap", lambda n: stabilizer_generator_pairs(
            SubgroupHandle.from_words(basilica(), ["a", "b"]), "0", n)),
        ("descent budget", lambda n: find_ab(basilica().element("ab"), n)),
        ("descent budget", lambda n: find_b_inv_a(basilica().element("aB"), n)),
        ("budget-states", lambda n: prodense_projection_search(
            SubgroupHandle.from_words(basilica(), ["ab", "Ba"]), max_states=n)),
    ],
    ids=["alphabet", "level", "portrait", "ball", "stab", "find-ab", "find-binva", "prodense"],
)
def test_counts_must_be_non_negative_ints(what, call, value, rule):
    # every level, depth, radius, budget and cap passes core.require_count,
    # which refuses a bool, a float, a str and a negative int alike; the
    # other two prodense budgets are test_descent's
    with pytest.raises(InputError, match=f"^{re.escape(f'{what} must be {rule}')}$"):
        call(value)


def test_memo_keeps_only_short_words():
    # lifts of two words to a depth-7 vertex: equal elements give a long
    # trivial word, different ones a long nontrivial word, and both closures
    # pass through short words
    system = parse_system(BASILICA_TEXT)
    g = basilica().element("ABab")
    trivial = (lift_section(g, "0110101") * lift_section(g * tau(3), "0110101").inverse()).word
    other = lift_section(basilica().element("AbaB"), "0110101")
    nontrivial = (lift_section(g, "0110101") * other.inverse()).word
    assert min(len(trivial), len(nontrivial)) > core.MEMO_LETTERS
    for _ in range(2):  # cold, then from the memo where it holds the words
        assert system.word_is_trivial(trivial)
        assert not system.word_is_trivial(nontrivial)
    proven = system._trivial_cache
    assert proven and max(map(len, proven)) <= core.MEMO_LETTERS


def test_section_reads_keep_no_per_word_state(rng):
    # roots, sections and depth-2 and depth-12 sections of 5000 distinct
    # words keep nothing past the walks' step tables, warmed first; what
    # tracemalloc still counts, about 130 KB, is freed tuples CPython holds
    # for reuse
    system = parse_system(BASILICA_TEXT)
    words = set()
    while len(words) < 5000:
        word = []
        for _ in range(rng.randint(8, 40)):
            word.append(rng.choice([l for l in (1, -1, 2, -2) if not word or l != -word[-1]]))
        words.add(tuple(word))

    def read(word):
        return (
            system.word_sections(word),
            system.word_root(word),
            system.word_at(word, (1, 0)),
            system.word_at(word, (1, 0) * 6),
        )

    for word in reduced_words(system, 4):
        read(word)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for word in words:
            read(word)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 512 * 1024


def test_deep_level_perm_keeps_no_tables():
    # a system keeps one key table per letter, its action on the key level
    # (8 when d = 2), which the index keys read; a deeper level builds the
    # tables of levels 1 to n for the call, about 18 MB at peak for level 16,
    # and drops them with it
    system = parse_system(BASILICA_TEXT)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(system.word_level_perm((1,), 16)) == 1 << 16
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(kept) < 1 << 20


def test_trivial_memo_holds_only_proofs(rng):
    # a ball decides many equalities both ways, then single decisions on
    # random words (mostly nontrivial) and on long trivial lifts
    system = parse_system(BASILICA_TEXT)
    ball(system, 5)
    g = system.element("ABab")
    trivial = (lift_section(g, "0110") * lift_section(g * tau(3), "0110").inverse()).word
    assert system.word_is_trivial(trivial)
    proven = system._trivial_cache
    for _ in range(300):
        word = random_element(system, rng, max_len=16).word
        before = set(proven)
        if not system.word_is_trivial(word):
            assert set(proven) == before  # a nontrivial verdict adds nothing
    fresh = parse_system(BASILICA_TEXT)
    assert len(proven) > 1
    assert all(len(w) <= core.MEMO_LETTERS and fresh.word_is_trivial(w) for w in proven)


def test_memo_is_looked_up_only_for_words_it_can_hold():
    # the memo holds no word longer than MEMO_LETTERS, so a longer closure
    # word, the input included, walks on without a lookup
    class Lookups(set):
        def __init__(self, words):
            super().__init__(words)
            self.asked = []

        def __contains__(self, word):
            self.asked.append(word)
            return super().__contains__(word)

    system = parse_system(BASILICA_TEXT)
    proven = system._trivial_cache = Lookups(system._trivial_cache)
    relator = tau(31).substitute(LIFT_SUBSTITUTION).substitute(LIFT_SUBSTITUTION).word
    assert len(relator) == 256 and system.word_is_trivial(relator)
    g = basilica().element("ABab")
    words = [lift_section(g, "0110101"), lift_section(g * tau(3), "0110101")]
    words.append(lift_section(basilica().element("AbaB"), "0110101"))
    first, same, other = (system.element(str(w)) for w in words)
    for h in (same, other):  # equals decides first h^-1, a long word
        assert len(product_word(first.word, invert_word(h.word))) > core.MEMO_LETTERS
    assert equals(first, same) and not equals(first, other)
    assert proven.asked and max(map(len, proven.asked)) <= core.MEMO_LETTERS


def test_level_perm_budget(monkeypatch):
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 16)
    system = parse_system(BASILICA_TEXT)
    assert len(system.element("ab").level_perm(4).images) == 16
    with pytest.raises(BudgetExceededError):
        system.element("ab").level_perm(5)
    d3 = parse_system(D3_TEXT)
    assert len(d3.element("ab").level_perm(2).images) == 9
    with pytest.raises(BudgetExceededError):
        d3.element("ab").level_perm(3)


def test_portrait_budget(B, monkeypatch):
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 4)
    assert len(B.element("ab").portrait(3).labels) == 7
    with pytest.raises(BudgetExceededError) as info:
        B.element("ab").portrait(4)
    assert info.value.partial == 3


def test_section_length_bound(B, rng):
    for _ in range(200):
        g = random_element(B, rng, max_len=12)
        s0, s1 = g.system.word_sections(g.word)
        assert len(s0) + len(s1) <= len(g.word)


def test_substitute(B):
    rule = {"a": "bb", "b": "a"}
    assert str(B.element("b").substitute(rule)) == "a"
    assert str(B.element("a").substitute(rule)) == "bb"
    assert str(B.element("aB").substitute(rule)) == "bbA"
    with pytest.raises(InputError):
        B.element("a").substitute({"a": "b"})


def test_closure_budget_counts_letters(monkeypatch):
    # a = (a^2, 1) is trivial, but its closure a, a^2, a^4, ... never ends:
    # it passes 1000 letters while it holds only 10 words
    system = parse_system(EXPANDING_TEXT)
    monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", 1000)
    with pytest.raises(BudgetExceededError) as info:
        system.word_is_trivial(system.parse_word("a"))
    assert 1000 < info.value.partial < 4000
    # on a contracting system a 256-letter relator closes in 256 letters: its
    # level-3 sections, which one walk reaches, all reduce to e
    relator = tau(31).substitute(LIFT_SUBSTITUTION).substitute(LIFT_SUBSTITUTION)
    assert relator.is_trivial()


def test_multiply_inverse(B):
    a, b = B.generators()
    assert (a * a.inverse()).word == ()
    assert str((a * b).inverse()) == "BA"
    assert str(a * b * (b.inverse() * a)) == "aa"
    assert invert_word((1, 2)) == (-2, -1)


_SIGNED = st.sampled_from([1, -1, 2, -2])


def _is_reduced(word):
    return all(x != -y for x, y in zip(word, word[1:]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_SIGNED, max_size=12).map(free_reduce), st.integers(-6, 6))
# aBA and AbaB are not cyclically reduced: their copies cancel where they meet
@example((1, -2, -1), 3)
@example((-1, 2, 1, -2), -2)
@example((1, -2, -1), 0)
@example((), 5)
def test_power_word_is_the_reduced_repetition(word, n):
    power = power_word(word, n)
    assert power == free_reduce((word if n >= 0 else invert_word(word)) * abs(n))
    assert _is_reduced(power)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(*[st.lists(_SIGNED, max_size=12).map(free_reduce)] * 2)
@example((1, 2, -1), (1, -2, -1))
def test_product_word_is_the_reduced_concatenation(u, v):
    product = product_word(u, v)
    assert product == free_reduce(u + v) and _is_reduced(product)


def test_pow(B):
    a = B.generator("a")
    assert str(a**3) == "aaa"
    assert str(a**-2) == "AA"
    assert (a**0).is_trivial()
    assert str(B.element("aBA") ** 3) == "aBBBA"
    assert str(B.element("aBA") ** -2) == "abbA"


def test_portrait(B):
    a, b = B.generators()
    ident = B.identity()
    p = ident.portrait(3)
    assert p.depth == 3 and all(l.is_identity() for l in p.labels.values())
    assert len(p.labels) == 7
    p = b.portrait(1)
    assert p.labels[""] == Perm((1, 0))
    p = (a * a).portrait(2)
    assert p.labels[""].is_identity()
    assert p.labels["0"].is_identity()
    assert p.labels["1"].is_identity()
    # a^2 = (1, b^2) and b^2 = (a, a), so the first swap sits below 111
    deeper = (a * a).portrait(4)
    assert deeper.labels["11"].is_identity()
    assert deeper.labels["111"] == Perm((1, 0))


_ELEVEN = parse_system(
    "alphabet 11; gen a perm=1,2,3,4,5,6,7,8,9,10,0 sections=a,e,e,e,e,e,e,e,e,e,e"
)


def test_portrait_names_vertices_only_up_to_ten_letters():
    # over 11 letters the level-1 vertex 10 and the level-2 vertex (1, 0)
    # would share the name "10"
    a = _ELEVEN.generator("a")
    for depth in (2, 3):
        with pytest.raises(InputError, match="alphabets up to 10"):
            a.portrait(depth)
    assert a.portrait(1).labels == {"": Perm((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0))}
    assert a.portrait(0).labels == {}
    for vertex in ("", "e"):
        with pytest.raises(InputError, match="alphabets up to 10"):
            a.act(vertex)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.sampled_from(["basilica", "d3"]),
    st.text(alphabet="aAbB", max_size=12),
    st.integers(0, 5),
)
def test_portrait_labels_in_shortlex_order(kind, text, depth):
    system = parse_system(_SYSTEMS[kind])
    labels = list(system.element(text).portrait(depth).labels)
    assert labels == sorted(labels, key=lambda v: (len(v), v))
    assert len(labels) == sum(system.alphabet_size**k for k in range(depth))


def test_portrait_labels_match_sections(B, rng):
    for _ in range(20):
        g = random_element(B, rng)
        p = g.portrait(3)
        for v, label in p.labels.items():
            assert label == g.section_at_vertex(v).root_perm()


def test_unknown_generator_name(B):
    with pytest.raises(InputError):
        B.generator("z")


def test_portrait_dot(B):
    dot = B.generator("b").portrait(1).to_dot()
    assert dot.startswith("digraph portrait {")
    assert 'root [label="(0 1)"]' in dot


def test_reduced_words_enumeration(B):
    assert sum(1 for _ in reduced_words(B, 0)) == 1
    assert sum(1 for _ in reduced_words(B, 1)) == 4
    assert sum(1 for _ in reduced_words(B, 2)) == 12
    words = list(reduced_words(B, 2))
    assert words == sorted(words, key=lambda w: [(abs(l), l < 0) for l in w])


def test_system_file_inline_form(B):
    inline = "alphabet 2; gen a perm=0,1 sections=e,b; gen b perm=1,0 sections=a,e"
    assert parse_system(inline) == B


def test_system_file_errors():
    with pytest.raises(InputError):
        parse_system("gen a perm=0,1 sections=e,a")
    with pytest.raises(InputError):
        parse_system("alphabet 2; gen a perm=0 sections=e,a")
    with pytest.raises(InputError):
        parse_system("alphabet 2; gen e perm=0,1 sections=e,e")
    with pytest.raises(InputError):
        parse_system("alphabet 1; gen a perm=0 sections=e")
    # numerals int() reads but a system file may not hold: Arabic-Indic two
    # and one, a sign
    for text in ("alphabet \u0662", "alphabet +2", "alphabet 2; gen a perm=\u0661,0 sections=e,e"):
        with pytest.raises(InputError):
            parse_system(text + "; gen b perm=1,0 sections=e,e")


def test_custom_system_loads():
    # the binary odometer: one generator, c = sigma (1, c)
    odo = parse_system("alphabet 2; gen c perm=1,0 sections=e,c")
    c = odo.generator("c")
    assert c.act("000") == "100"
    assert c.act("100") == "010"
    assert (c**8).section_at_vertex("000").is_trivial() is False
    assert (c**8).act("000") == "000"


def test_mirrored_convention_is_detected():
    # swapping the section tuples breaks the quoted commutator identity, so
    # a coordinate-order bug cannot pass the identity suite silently
    mirrored = parse_system(
        "alphabet 2; gen a perm=0,1 sections=b,e; gen b perm=1,0 sections=e,a"
    )
    a, b = mirrored.generators()
    comm = a.inverse() * b.inverse() * a * b
    assert not equals(comm.section(0), mirrored.element("Aba"))
    assert equals(comm.section(1), mirrored.element("Aba"))


@settings(derandomize=True, max_examples=100)
@given(st.integers(min_value=0, max_value=600).flatmap(lambda n: st.permutations(range(n))))
def test_invert_images_is_the_enumerate_inverse(images):
    expected = [0] * len(images)
    for x, y in enumerate(images):
        expected[y] = x
    assert invert_images(tuple(images)) == tuple(expected)


def test_invert_images_builds_no_ints(B):
    # one level-16 inverse keeps the tuple and nothing else; an int built
    # per entry held 2.35 MB for a 0.52 MB tuple
    p = B.element("ab").level_perm(16).images
    tracemalloc.start()
    try:
        inverse = invert_images(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(inverse)
    assert held < 1.1 * size
    assert peak < 3.5 * size


def test_perm_api():
    p = Perm((1, 2, 0))
    q = Perm((0, 2, 1))
    assert compose_images(p.images, q.images) == (1, 0, 2)
    assert invert_images(p.images) == (2, 0, 1)
    assert str(p) == "(0 1 2)"
    assert str(Perm(range(3))) == "e"
    with pytest.raises(InputError):
        Perm((0, 0, 1))


def test_perm_and_element_refuse_assignment_and_deletion(B):
    p = Perm((1, 0, 2))
    before = hash(p)
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)
    with pytest.raises(AttributeError):
        del p.images
    assert p.images == (1, 0, 2) and hash(p) == before
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and hash(clone) == before
    g = B.element("ab")
    with pytest.raises(AttributeError):
        g.word = (1,)
    for name in ("word", "system"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.word == (1, 2) and g.system is B


@pytest.mark.parametrize("bad", ["a", 1.0, None, 0, 3, -3, 10**30])
def test_element_rejects_letters_outside_the_system(B, bad):
    for letters in ([bad], [1, bad], (bad, -1)):
        with pytest.raises(InputError, match=f"^letter {bad!r} outside the generator range$"):
            Element(B, letters)


def test_element_checks_letters_before_reducing(B):
    with pytest.raises(InputError, match="letter 3 outside"):
        Element(B, [3, -3])
    for letters in ([1, -2, 2, 2], (1, -2, 2, 2), (l for l in [1, -2, 2, 2])):
        assert Element(B, letters).word == (1, 2)
    assert Element(B, ()).word == () and Element(B, iter(())).is_trivial()
