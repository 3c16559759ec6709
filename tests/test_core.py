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
    _product,
    compose_images,
    exponent_sums,
    invert_images,
    invert_word,
)
from basilica.descent import persist_ab
from basilica.norms import ball
from basilica.structure import LIFT_SUBSTITUTION, lift_section, tau

from conftest import BASILICA_TEXT, random_element, reduced_words


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
    for cls in ball(B, 6).classes:
        g = cls.element
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


def test_equals_mixed_systems_rejected(B):
    other = parse_system("alphabet 2; gen c perm=0,1 sections=e,c")
    with pytest.raises(InputError):
        equals(B.element("a"), other.element("c"))


def test_elements_unhashable(B):
    with pytest.raises(TypeError):
        hash(B.element("a"))


def test_decision_agrees_with_deep_level_action():
    # the level-12 action separates every pair of ball(4) classes that the
    # word-problem decision separates, and conversely
    B = basilica()
    classes = [cls.element for cls in ball(B, 4).classes]
    perms = [g.level_perm(12) for g in classes]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert equals(classes[i], classes[j]) == (perms[i] == perms[j])


_D3_SYSTEM = "alphabet 3; gen a perm=1,2,0 sections=e,b,a; gen b perm=0,2,1 sections=aB,e,b"
# a Basilica-like system on 300 letters: past 256 the index keys on level 0,
# so every word shares one bucket
_WIDE_SYSTEM = (
    "alphabet 300; gen a perm=" + ",".join(map(str, range(300)))
    + " sections=e,b" + ",e" * 298
    + "; gen b perm=" + ",".join(map(str, [*range(1, 300), 0]))
    + " sections=a" + ",e" * 299
)
_SYSTEMS = {"basilica": BASILICA_TEXT, "d3": _D3_SYSTEM, "wide": _WIDE_SYSTEM}
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
        idx, new = index.find_or_insert(g.word)
        matches = [i for i, h in enumerate(registered) if equals(g, h)]
        if new:
            assert matches == [] and idx == len(registered)
            registered.append(g)
        else:
            assert matches == [idx]
        assert index.find_word(g.word) == idx
        assert index._by_word == {core._word_bytes(w): i for i, w in enumerate(index._words)}
        for i in range(len(index)):
            level_perm = system.word_level_perm(index.word_at(i), _KEY_LEVEL[kind])
            assert index._keys[i] == bytes(level_perm)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(["basilica", "d3"]), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40))
def test_index_key_is_level_action(kind, letters):
    system = parse_system(_SYSTEMS[kind])
    word = free_reduce(letters)
    level = _KEY_LEVEL[kind]
    assert system.alphabet_size**level <= 256 < system.alphabet_size ** (level + 1)
    index = ElementIndex(system)
    idx, _ = index.find_or_insert(word)
    assert index._keys[idx] == bytes(system.word_level_perm(word, level))


_GRIGORCHUK = (
    "alphabet 2; gen a perm=1,0 sections=e,e; gen b perm=0,1 sections=a,c; "
    "gen c perm=0,1 sections=a,d; gen d perm=0,1 sections=e,b"
)
_CHILD_SYSTEMS = {"basilica": BASILICA_TEXT, "grigorchuk": _GRIGORCHUK, "d3": _D3_SYSTEM}


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_CHILD_SYSTEMS)), st.data())
def test_child_key_is_index_key_of_the_extension(kind, data):
    # the d = 3 system keys on 243 bytes, but a translation table has 256
    system = parse_system(_CHILD_SYSTEMS[kind])
    letters = [l for i in range(len(system.names)) for l in (i + 1, -(i + 1))]
    word = free_reduce(data.draw(st.lists(st.sampled_from(letters), max_size=30)))
    letter = data.draw(st.sampled_from([l for l in letters if not word or l != -word[-1]]))
    extended = word + (letter,)
    # a trivial word is the index's entry 0, the empty word (Grigorchuk's aa)
    assume(not (word and system.word_is_trivial(word)))
    assume(not system.word_is_trivial(extended))
    index = ElementIndex(system)
    idx, _ = index.find_or_insert(word)
    child, new = index.find_or_insert_child(idx, letter)
    assert (child, new) == (len(index) - 1, True)
    assert index.word_at(child) == extended
    assert index._keys[child] == bytes(system.word_level_perm(extended, _KEY_LEVEL[kind]))
    assert index._by_word[core._word_bytes(extended)] == child
    assert index.find_word(extended) == child


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


@functools.lru_cache(maxsize=None)
def _reference_letter_perm(kind, letter, n):
    """A letter's level-n Perm: x v goes to sigma(x) (s_x . v)."""
    system = parse_system(_SYSTEMS[kind])
    root, secs = _letter_data(system)[letter]
    size = system.alphabet_size ** (n - 1)
    images = []
    for x, sec in enumerate(secs):
        images.extend(root[x] * size + v for v in _reference_level_perm(kind, sec, n - 1).images)
    return Perm(images)


def _reference_level_perm(kind, word, n):
    """Product of the letters' level-n Perms; level 0 has one vertex."""
    p = Perm(range(parse_system(_SYSTEMS[kind]).alphabet_size ** n))
    for l in word if n else ():
        p = Perm(compose_images(p.images, _reference_letter_perm(kind, l, n).images))
    return p


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from(["basilica", "d3"]),
    st.integers(0, 9),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
)
def test_level_perm_is_product_of_letter_perms(kind, n, letters):
    system = parse_system(_SYSTEMS[kind])
    word = free_reduce(letters)
    assert system.element(word).level_perm(n) == _reference_level_perm(kind, word, n)


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


_GUPTA_SIDKI = "alphabet 3; gen a perm=1,2,0 sections=e,e,e; gen b perm=0,1,2 sections=a,A,b"
# the Hanoi towers group H(3): its roots generate S3
_HANOI = (
    "alphabet 3; gen a perm=1,0,2 sections=e,e,a; gen b perm=2,1,0 sections=e,b,e; "
    "gen c perm=0,2,1 sections=c,e,e"
)
# systems with trivial roots (Grigorchuk's b, c, d, Gupta-Sidki's b) and a
# nonabelian root group
_WALK_SYSTEMS = {
    "basilica": BASILICA_TEXT,
    "d3": _D3_SYSTEM,
    "grigorchuk": _GRIGORCHUK,
    "gupta-sidki": _GUPTA_SIDKI,
    "hanoi": _HANOI,
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
_EXPANDING = "alphabet 2; gen a perm=0,1 sections=aa,e; gen b perm=1,0 sections=e,e"
_AT_SYSTEMS = {**_WALK_SYSTEMS, "expanding": _EXPANDING}
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


# the adding machine a = sigma(1, a) beside a trivial b = (1, b): a adds one
# to a vertex read as a binary number, least significant digit first, so a
# word acts as adding its a-exponent sum n, and its section at a vertex v of
# level L is a^c with c the carry (v + n) >> L
_ADDING_MACHINE = "alphabet 2; gen a perm=1,0 sections=e,a; gen b perm=0,1 sections=e,b"


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=65, max_size=600),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=8),
)
def test_jump_walk_matches_the_adding_machine(letters, balance, path):
    system = parse_system(_ADDING_MACHINE)
    assert system._jump == 3
    word = _uncancelled(letters)
    if balance:
        # a b between, then a run of a^(-n): the a-exponent sum becomes 0
        n = exponent_sums(word, 2)[0]
        word += (2 if word[-1] != -2 else -2,) + (-1 if n > 0 else 1,) * abs(n)
    n = exponent_sums(word, 2)[0]
    assert len(word) > core.MEMO_LETTERS
    assert system.word_is_trivial(word) == (n == 0)
    assert 3 in system._walks
    image, section = system.word_at(word, tuple(path))
    v = sum(x << i for i, x in enumerate(path))
    assert image == tuple((v + n) >> i & 1 for i in range(len(path)))
    assert exponent_sums(section, 2)[0] == (v + n) >> len(path)


# levels a long word is walked at once
_JUMPS = {
    "basilica": (BASILICA_TEXT, 3),
    "adding-machine": (_ADDING_MACHINE, 3),
    # b = (a, c) holds two letters
    "grigorchuk": (_GRIGORCHUK, 1),
    "lamplighter": ("alphabet 2; gen a perm=1,0 sections=a,b; gen b perm=0,1 sections=a,b", 1),
    # a = (a^2, 1) doubles its words
    "expanding": (_EXPANDING, 1),
    "gupta-sidki": (_GUPTA_SIDKI, 1),
    "hanoi": (_HANOI, 1),
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
    "d3": (_D3_SYSTEM, 5),
    "wide": (_WIDE_SYSTEM, 1),
    # 16 letters in a's sections: 16^2 = 256 on level 2
    "sixteen": ("alphabet 2; gen a perm=1,0 sections=aaaaaaaa,aaaaaaaa", 2),
}


@pytest.mark.parametrize("kind", sorted(_CHUNKS))
def test_word_at_chunks_stop_where_sections_could_outgrow_the_key_level(kind):
    text, chunk = _CHUNKS[kind]
    system = parse_system(text)
    assert system._chunk == chunk
    system.word_at((1,), (1, 0, 1))
    assert max(system._points) == min(chunk, 3)


def test_walk_tables_stay_within_the_level_quotient(monkeypatch):
    system = parse_system(BASILICA_TEXT)
    built = []
    walk_tables = system._walk_tables
    monkeypatch.setattr(system, "_walk_tables", lambda k: built.append(k) or walk_tables(k))
    g = system.element("ABab")
    lifted = lift_section(g, "0110101").word
    trivial = _product(lifted, invert_word(lift_section(g * tau(3), "0110101").word))
    nontrivial = _product(lifted, invert_word(lift_section(system.element("AbaB"), "0110101").word))
    assert min(len(trivial), len(nontrivial)) > core.MEMO_LETTERS
    for _ in range(2):
        assert system.word_is_trivial(trivial) and not system.word_is_trivial(nontrivial)
        assert len(system.word_at(nontrivial, (0, 1, 1, 0, 1, 0, 1))[0]) == 7
    # each walked level's tables are built once, and the level-3 walk has
    # one state per element of B/St(3), of order 2^6
    assert sorted(built) == [1, 3]
    assert 1 < len(system._walks[3][0]) <= 64


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


# a = sigma and each further generator is (its predecessor, 1)
_SYSTEM_25 = "alphabet 2; gen a perm=1,0 sections=e,e; " + "; ".join(
    f"gen {n} perm=0,1 sections={m},e" for m, n in zip(_NAMES_25, _NAMES_25[1:])
)
_PARSE_SYSTEMS = {
    kind: parse_system(text)
    for kind, text in {
        "basilica": BASILICA_TEXT,
        "grigorchuk": _GRIGORCHUK,
        "d3": _D3_SYSTEM,
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
        "grigorchuk": _GRIGORCHUK,
        "gupta-sidki": _GUPTA_SIDKI,
        "d3": _D3_SYSTEM,
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


def test_level_perm_budget(monkeypatch):
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 16)
    system = parse_system(BASILICA_TEXT)
    assert len(system.element("ab").level_perm(4).images) == 16
    with pytest.raises(BudgetExceededError):
        system.element("ab").level_perm(5)
    d3 = parse_system(_D3_SYSTEM)
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
    system = parse_system("alphabet 2; gen a perm=0,1 sections=aa,e; gen b perm=1,0 sections=e,e")
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


def test_pow(B):
    a = B.generator("a")
    assert str(a**3) == "aaa"
    assert str(a**-2) == "AA"
    assert (a**0).is_trivial()


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
