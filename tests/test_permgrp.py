import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from basilica import (
    BudgetExceededError,
    GeneratorSystem,
    InputError,
    Perm,
    basilica,
    core,
    equals,
    parse_system,
    permgrp,
    quotients,
)
from basilica.certificate import hword_parse, hword_str
from basilica.core import (
    ElementIndex,
    compose_images,
    invert_word,
    product_word,
    vertex_str,
    vertex_word,
)
from basilica.permgrp import (
    SubgroupHandle,
    group_order,
    level_perms,
    level_quotient_equals_full,
    orbit,
    projected_subgroup,
    stabilizer_generator_pairs,
)
from basilica.quotients import _chain, _keeps_dyadic_blocks, _schreier_sims_order, _tree_order

from conftest import BASILICA_TEXT, D3_TEXT, GRIGORCHUK_TEXT, GUPTA_SIDKI_TEXT, fresh_interpreter_output


def mulclose(perms, maxsize=100_000):
    """Naive closure of a permutation set under composition."""
    els = {p.images for p in perms}
    if not els:
        return 1
    frontier = list(els)
    while frontier:
        new = []
        for p in frontier:
            for q in perms:
                r = tuple(p[y] for y in q.images)
                if r not in els:
                    els.add(r)
                    new.append(r)
                    if len(els) > maxsize:
                        raise RuntimeError("closure too large")
        frontier = new
    return len(els)


@pytest.fixture(scope="module")
def handles():
    B = basilica()
    a, b = B.generators()
    return B, SubgroupHandle(B, [a]), SubgroupHandle(B, [b]), SubgroupHandle(B, [a, b])


def test_reprs_name_their_values():
    B = basilica()
    assert repr(Perm([1, 2, 0])) == "Perm([1, 2, 0])"
    assert repr(B) == "GeneratorSystem(d=2, names=ab)"
    assert repr(B.element("abA")) == "Element('abA')"
    assert repr(B.identity()) == "Element('e')"
    assert repr(SubgroupHandle.from_words(B, ["ab", "Ba"])) == "SubgroupHandle(<ab, Ba>)"


def test_orbit_examples(handles):
    B, Ha, Hb, Hab = handles
    assert orbit(Hb, "0").orbit == ("0", "1")
    assert orbit(Ha, "0").orbit == ("0",)
    assert orbit(Hab, "101").orbit == tuple(
        format(i, "03b") for i in range(8)
    )


def test_orbit_transversal_moves_base(handles):
    B, Ha, Hb, Hab = handles
    tab = orbit(Hab, "01")
    assert tab.transversal["01"] == ()
    for u in tab.orbit:
        assert Hab.evaluate(tab.transversal[u]).act("01") == u


def test_root_vertex_e_is_the_empty_vertex(handles):
    B, Ha, Hb, Hab = handles
    assert orbit(Ha, "e") == orbit(Ha, "") == ({"": ()},)
    for H in (Ha, Hab):
        assert orbit(H, "e") == orbit(H, "")
        assert [(g.word, hw) for g, hw in stabilizer_generator_pairs(H, "e")] == [
            (g.word, hw) for g, hw in stabilizer_generator_pairs(H, "")
        ]
        at_e, at_empty = projected_subgroup(H, "e"), projected_subgroup(H, "")
        assert at_e.words() == at_empty.words()
        assert at_e.expressions == at_empty.expressions


def test_orbit_rejects_bad_vertex(handles):
    B, Ha, Hb, Hab = handles
    # "²" and "٠" pass str.isdigit(); int() refuses the first and reads the
    # second as 0, but neither is a vertex letter
    for vertex in ("0x", "0\u00b2", "\u06601"):
        with pytest.raises(InputError):
            orbit(Hab, vertex)


def test_orbit_and_stabilizer_parse_their_vertex_once(handles, monkeypatch):
    # the search moves point indices; the vertex text is read once per call
    B, Ha, Hb, Hab = handles
    calls = []
    parse = GeneratorSystem.parse_vertex

    def counting_parse(system, vertex):
        calls.append(vertex)
        return parse(system, vertex)

    monkeypatch.setattr(GeneratorSystem, "parse_vertex", counting_parse)
    for search in (orbit, stabilizer_generator_pairs):
        calls.clear()
        search(Hab, "0" * 10)
        assert calls == ["0" * 10]


def test_orbit_budget(handles, monkeypatch):
    # the search reads the generators' level permutations, so a vertex whose
    # level has more than core.MAX_LEVEL_POINTS vertices stops before any
    # walk, however small its orbit
    B, Ha, Hb, Hab = handles
    monkeypatch.setattr(core, "MAX_LEVEL_POINTS", 8)
    assert len(orbit(Hab, "000").orbit) == 8
    for H in (Ha, Hab):
        for search in (orbit, stabilizer_generator_pairs):
            with pytest.raises(BudgetExceededError) as info:
                search(H, "0000")
            assert str(info.value) == "level 4 of a 2-letter alphabet has more than 8 vertices"


def _reference_search(H, vertex):
    """The orbit search walking each generator word down each orbit path:
    the transversal over paths, in BFS order under g1, g1^-1, g2, ..., and
    each path's images under g1, g2, ...."""
    start = H.system.parse_vertex(vertex)
    moves = []
    for i, g in enumerate(H.generators):
        moves += [(i + 1, g.word), (-(i + 1), invert_word(g.word))]
    transversal, forward = {start: ()}, {}
    queue = [start]
    for u in queue:
        images = [H.system.word_at(word, u)[0] for _, word in moves]
        forward[u] = images[::2]
        for (letter, _), w in zip(moves, images):
            if w not in transversal:
                transversal[w] = (letter,) + transversal[u]
                queue.append(w)
    return transversal, forward


_SEARCH_SYSTEMS = {"basilica": BASILICA_TEXT, "grigorchuk": GRIGORCHUK_TEXT, "d3": D3_TEXT}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_SEARCH_SYSTEMS)), st.data())
def test_orbit_and_stabilizer_match_the_word_walk_search(kind, data):
    system = parse_system(_SEARCH_SYSTEMS[kind])
    letters = [l for i in range(1, len(system.names) + 1) for l in (i, -i)]
    words = st.lists(st.sampled_from(letters), max_size=6)
    H = SubgroupHandle(system, [system.element(w) for w in data.draw(st.lists(words, min_size=1, max_size=3))])
    digits = data.draw(st.lists(st.integers(0, system.alphabet_size - 1), max_size=6))
    vertex = "".join(map(str, digits))
    transversal, forward = _reference_search(H, vertex)
    table = "".join(
        f"{vertex_str(vertex_word(u))}\t{hword_str(transversal[u])}\n" for u in sorted(transversal)
    )
    assert orbit(H, vertex).table() == table
    candidates = []
    for u in sorted(transversal):
        for i, w in enumerate(forward[u]):
            hw = product_word(product_word(invert_word(transversal[w]), (i + 1,)), transversal[u])
            candidates.append((H.evaluate(hw), hw))
    candidates.sort(key=lambda pair: (len(pair[0].word), pair[0].word, len(pair[1])))
    index = ElementIndex(system)
    survivors = []
    for e, hw in candidates:
        if index.find_word(e.word) is None:
            index.insert_word(e.word)
            survivors.append((e.word, hw))
    pairs = stabilizer_generator_pairs(H, vertex)
    assert [(e.word, hw) for e, hw in pairs] == survivors[: permgrp.DEFAULT_SCHREIER_CAP]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.text(alphabet="aAbB", max_size=6), min_size=1, max_size=4), st.data())
def test_evaluate_is_letterwise_product(words, data):
    B = basilica()
    gens = [B.element(w) for w in words]
    letters = [l for i in range(1, len(gens) + 1) for l in (i, -i)]
    hword = data.draw(st.lists(st.sampled_from(letters), max_size=12))
    product = B.identity()
    for l in hword:
        g = gens[abs(l) - 1]
        product = product * (g if l > 0 else g.inverse())
    assert SubgroupHandle(B, gens).evaluate(hword).word == product.word


def test_evaluate_rejects_letters_outside_generators(handles):
    B, Ha, Hb, Hab = handles
    for bad in (0, 3, -3):
        with pytest.raises(InputError):
            Hab.evaluate((1, bad))


def stabilizer_elements(H, vertex):
    return [elem for elem, _ in stabilizer_generator_pairs(H, vertex)]


def test_stabilizer_of_root_is_generators(handles):
    B, Ha, Hb, Hab = handles
    gens = stabilizer_elements(Hab, "")
    assert len(gens) == 2
    assert equals(gens[0], B.generator("a"))
    assert equals(gens[1], B.generator("b"))
    # a trivial generator, the relator [b^-1 a b, a], and a second spelling
    # of a are both dropped by the identity test
    relator = "BAbABaba"
    assert B.element(relator).is_trivial()
    H = SubgroupHandle.from_words(B, ["a", relator, "b", relator + "a"])
    pairs = stabilizer_generator_pairs(H, "")
    assert [(str(elem), hw) for elem, hw in pairs] == [("a", (1,)), ("b", (3,))]
    assert [str(elem) for elem in stabilizer_elements(H, "0")] == ["a", "bb", "Bab"]


def test_stabilizer_cyclic_b(handles):
    B, Ha, Hb, Hab = handles
    gens = stabilizer_elements(Hb, "0")
    assert len(gens) == 1
    assert equals(gens[0], B.element("bb"))


def test_stabilizer_full_group(handles):
    B, Ha, Hb, Hab = handles
    gens = stabilizer_elements(Hab, "0")
    a, b = B.generators()
    expected = [a, b * b, b.inverse() * a * b]
    assert len(gens) == 3
    for want in expected:
        assert any(equals(g, want) for g in gens)
    # the conjugate b a b^-1 = (b, 1) lies in the generated stabilizer
    by_index = {str(g): g for g in gens}
    s_a, s_bb, s_bab = by_index["a"], by_index["bb"], by_index["Bab"]
    conj = s_bb * s_bab * s_bb.inverse()
    assert equals(conj, b * a * b.inverse())
    assert equals(conj.section(0), b)
    assert conj.section(1).is_trivial()


def test_stabilizer_generators_fix_vertex(handles):
    B, Ha, Hb, Hab = handles
    for vertex in ("0", "10", "110"):
        for g in stabilizer_elements(Hab, vertex):
            assert g.act(vertex) == vertex


def test_stabilizer_cap_bounds_survivors(handles):
    B, Ha, Hb, Hab = handles
    H = SubgroupHandle.from_words(B, ["ab", "ba"])
    full = stabilizer_generator_pairs(H, "0")
    assert len(full) == 3
    for cap in (0, 1, 2, 3, 4):
        assert stabilizer_generator_pairs(H, "0", cap=cap) == full[:cap]
    with pytest.raises(InputError, match="stabilizer cap must be non-negative, got -1"):
        stabilizer_generator_pairs(H, "0", cap=-1)


def test_stabilizer_pairs_expressions_match(handles):
    B, Ha, Hb, Hab = handles
    for elem, hw in stabilizer_generator_pairs(Hab, "10"):
        assert equals(Hab.evaluate(hw), elem)


def test_projected_subgroup_examples(handles):
    B, Ha, Hb, Hab = handles
    proj = projected_subgroup(Hab, "0")
    # the projection contains a and recovers b, so it is the whole group
    assert any(equals(g, B.generator("a")) for g in proj.generators)
    assert level_quotient_equals_full(proj, 3)
    assert projected_subgroup(Ha, "0").generators == ()
    # a subgroup given by its own generators expresses an hword as itself
    assert Hab.expressions is None and Hab.express((1, -2)) == (1, -2)
    Hab_only = SubgroupHandle(B, [B.element("ab")])
    proj = projected_subgroup(Hab_only, "")
    assert len(proj.generators) == 1
    assert equals(proj.generators[0], B.element("ab"))


_PROJECTION_SYSTEMS = {"basilica": BASILICA_TEXT, "d3": D3_TEXT}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(sorted(_PROJECTION_SYSTEMS)), st.data())
def test_projections_carry_expressions_over_the_starting_subgroup(kind, data):
    # (H_u)_w = H_(uw): a generator of either projection is the section at
    # uw of its expression evaluated in H
    system = parse_system(_PROJECTION_SYSTEMS[kind])
    letters = [l for i in range(1, len(system.names) + 1) for l in (i, -i)]
    words = st.lists(st.sampled_from(letters), max_size=6)
    H = SubgroupHandle(system, [system.element(w) for w in data.draw(st.lists(words, min_size=1, max_size=3))])
    digits = st.integers(0, system.alphabet_size - 1)
    u = data.draw(st.lists(digits, max_size=4))
    w = data.draw(st.lists(digits, max_size=4 - len(u)))
    u_text, w_text = "".join(map(str, u)), "".join(map(str, w))
    stepwise = projected_subgroup(projected_subgroup(H, u_text), w_text)
    for proj in (stepwise, projected_subgroup(H, u_text + w_text)):
        assert len(proj.expressions) == len(proj.generators)
        for s, e in zip(proj.generators, proj.expressions):
            assert H.evaluate(e).projection(u + w) == s


def test_self_replication(handles):
    B, Ha, Hb, Hab = handles
    for vertex in ("", "0", "1", "00", "01", "10", "11"):
        proj = projected_subgroup(Hab, vertex)
        assert level_quotient_equals_full(proj, 3)


def test_group_order_examples(handles):
    B, Ha, Hb, Hab = handles
    assert group_order([Perm((1, 0))]) == 2
    assert group_order([]) == 1
    assert group_order([Perm((0, 1, 2))]) == 1
    level2 = level_perms(B, Hab.generators, 2)
    assert group_order(level2) == mulclose(level2) == 8


def test_group_order_agrees_with_closure(handles):
    B, Ha, Hb, Hab = handles
    battery = [
        level_perms(B, Hab.generators, 3),
        level_perms(B, Hab.generators, 4),
        level_perms(B, [B.element("ab")], 4),
        level_perms(B, [B.element("ba"), B.element("bb")], 3),
        [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))],
    ]
    for perms in battery:
        fast = group_order(perms)
        if fast <= 5000:
            assert fast == mulclose(perms)


# up to three words of at most four letters, and a level n <= 6
_LEVEL_SUBGROUPS = (
    st.lists(st.text(alphabet="aAbB", min_size=1, max_size=4), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(*_LEVEL_SUBGROUPS)
def test_tree_order_agrees_with_schreier_sims(words, n):
    B = basilica()
    perms = level_perms(B, [B.element(w) for w in words], n)
    images = [p.images for p in perms]
    assert all(_keeps_dyadic_blocks(g) for g in images)
    assert group_order(perms) == _schreier_sims_order(images)[0]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(*_LEVEL_SUBGROUPS)
def test_tree_order_on_tuples_agrees_with_bytes(words, n):
    # lifted to 512 leaves, past the 256 that bytes elements hold
    B = basilica()
    images = [p.images for p in level_perms(B, [B.element(w) for w in words], n)]
    lifted = list(map(_lift, images))
    assert all(_keeps_dyadic_blocks(g) for g in lifted)
    assert group_order(lifted) == group_order(images)


def _lift(p):
    """A permutation p of 2^n leaves, n <= 9, as one of 512 leaves: p on the
    top n levels and the identity on the 9 - n below.  It keeps the dyadic
    blocks exactly when p does."""
    k = 10 - len(p).bit_length()
    mask = (1 << k) - 1
    return tuple(p[x >> k] << k | (x & mask) for x in range(512))


_GRIGORCHUK = parse_system(GRIGORCHUK_TEXT)


def _agree_with_schreier_sims(gens, elements):
    """Asserts that ``_chain`` and the oracle agree on the order and on each
    element's membership; returns the memberships."""
    order, contains = _chain(gens)
    oracle, oracle_contains = _schreier_sims_order(gens)
    assert order == oracle
    found = [contains(g) for g in elements]
    assert found == [oracle_contains(g) for g in elements]
    return found


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
    st.lists(st.text(alphabet="abcd", max_size=8), min_size=1, max_size=6),
)
def test_chain_agrees_with_schreier_sims_on_grigorchuk_subgroups(words, n, others):
    # membership of elements of the level quotient G_n, most outside H_n
    act = lambda w: _GRIGORCHUK.word_level_perm(_GRIGORCHUK.element(w).word, n)
    _agree_with_schreier_sims([act(w) for w in words], [act(w) for w in words + others])


def _portrait_images(n, swaps):
    """The automorphism of the binary tree of depth n that swaps the two
    children of each vertex (level, index) in ``swaps``, on its 2^n leaves."""
    images = []
    for x in range(1 << n):
        y = 0
        for j in range(n):
            y = y << 1 | (x >> n - 1 - j & 1) ^ ((j, x >> n - j) in swaps)
        images.append(y)
    return tuple(images)


@st.composite
def _dense_portraits(draw, n):
    """A random portrait: each of the 2^n - 1 vertices above the leaves
    swaps its children or not."""
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n) - 1) - 1))
    return _portrait_images(n, {(j, i) for j in range(n) for i in range(1 << j) if bits >> (1 << j) - 1 + i & 1})


@st.composite
def _portraits(draw, n):
    """A random portrait on the top (at most 3) levels and one more swap
    anywhere, so that the generated groups stay within reach of the
    Schreier-Sims oracle at 512 leaves."""
    top = draw(st.integers(min_value=0, max_value=min(n, 3)))
    swaps = {(j, i) for j in range(top) for i in range(1 << j) if draw(st.booleans())}
    j = draw(st.integers(min_value=0, max_value=n - 1))
    swaps ^= {(j, draw(st.integers(min_value=0, max_value=(1 << j) - 1)))}
    return _portrait_images(n, swaps)


@pytest.mark.parametrize("n", range(1, 10))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_chain_agrees_with_schreier_sims_on_portraits(n, data):
    # from 2 to 512 leaves, so level 9 takes the tuple path
    gens = data.draw(st.lists(_portraits(n), min_size=1, max_size=3))
    _agree_on_members_and_others(gens, _portraits(n), data)


@pytest.mark.parametrize("n", range(4, 7))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.data())
def test_chain_agrees_with_schreier_sims_on_dense_portraits(n, data):
    # every vertex swaps at random, so the layers are large and many of
    # their elements join as non-seeds, tested for commuting only with the
    # seeds of their layer
    gens = data.draw(st.lists(_dense_portraits(n), min_size=2, max_size=3))
    _agree_on_members_and_others(gens, _dense_portraits(n), data)


def _agree_on_members_and_others(gens, portraits, data):
    """``_agree_with_schreier_sims`` on products of the generators, which are
    members, on random automorphisms drawn from ``portraits``, some with the
    images of two leaves exchanged, which is mostly no tree automorphism,
    and on their products."""
    members = [
        reduce(compose_images, data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4)))
        for _ in range(2)
    ]
    leaves = st.lists(st.integers(0, len(gens[0]) - 1), min_size=2, max_size=2, unique=True)
    swapped = st.tuples(portraits, leaves).map(lambda pair: _swap(*pair))
    others = data.draw(st.lists(st.one_of(portraits, swapped), min_size=1, max_size=2))
    elements = members + others + [compose_images(g, h) for g in members for h in others]
    assert all(_agree_with_schreier_sims(gens, elements)[: len(members)])


@pytest.mark.parametrize("n", range(1, 10))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_dyadic_block_check_on_bytes_agrees_with_tuples(n, data):
    # random permutations, tree automorphisms, and tree automorphisms with
    # two leaves swapped, which break the blocks from some height on; up to
    # 256 leaves the check reads bytes, and on the lift to 512 leaves tuples
    automorphisms = _dense_portraits(n)
    swapped = st.tuples(automorphisms, st.permutations(range(1 << n))).map(lambda pair: _swap(*pair))
    p = data.draw(st.one_of(st.permutations(range(1 << n)).map(tuple), automorphisms, swapped))
    by_definition = all(
        len({(x >> s, y >> s) for x, y in enumerate(p)}) == 1 << n - s for s in range(1, n + 1)
    )
    assert _keeps_dyadic_blocks(p) == _keeps_dyadic_blocks(_lift(p)) == by_definition


def _swap(p, points):
    """p with the images of the first two of ``points`` exchanged."""
    x, y, *_ = points
    images = list(p)
    images[x], images[y] = images[y], images[x]
    return tuple(images)


# two automorphisms of the binary tree of depth 7, bit 2^j - 1 + i set when
# the vertex of level j and index i swaps its children: their group needs
# the commutators of elements of one layer, not only those with the
# generators, to be closed (without them the sequence has 82 elements)
_SAME_LAYER_GENS = (0x1017D67B6C220638BDBDB861DFAEFC80, 0x634339D02E3DBB776FF7B39ABD0053CD)


def test_tree_order_needs_same_layer_commutators():
    gens = [
        _portrait_images(7, {(j, i) for j in range(7) for i in range(1 << j) if g >> (1 << j) - 1 + i & 1})
        for g in _SAME_LAYER_GENS
    ]
    order, contains = _chain(gens)
    assert order == 2**83  # as _schreier_sims_order gives, in about 3 s
    rng = random.Random(83)
    products = [reduce(compose_images, rng.choices(gens, k=rng.randrange(1, 40))) for _ in range(64)]
    assert all(map(contains, products))


def test_tree_order_agrees_with_closure_on_every_depth_3_pair():
    # the 128 automorphisms of the binary tree of depth 3, one per set of
    # the 7 vertices that swap their children: the seed rule must close the
    # group of each of their 8128 pairs, not only the hand-found pair above
    vertices = [(j, i) for j in range(3) for i in range(1 << j)]
    autos = [_portrait_images(3, {v for b, v in enumerate(vertices) if g >> b & 1}) for g in range(128)]
    position = {p: i for i, p in enumerate(autos)}  # autos[0] is the identity
    products = [[position[compose_images(p, q)] for q in autos] for p in autos]
    for i, j in itertools.combinations(range(128), 2):
        group, frontier = {0}, [0]
        for x in frontier:
            for y in (products[x][i], products[x][j]):
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        assert _tree_order([autos[k] for k in (i, j) if k])[0] == len(group)


def test_tree_membership_checks_the_dyadic_blocks():
    # (0, 3, 2, 1) fixes the first leaf of each pair, so a sift that reads
    # only those leaves takes it for the identity, but it splits {0, 1}
    _, contains = _chain([(1, 0, 2, 3)])
    assert not contains((0, 3, 2, 1))
    assert contains((1, 0, 2, 3)) and contains((0, 1, 2, 3))


def test_full_group_level_orders():
    B = basilica()
    log2_orders = [
        group_order(level_perms(B, B.generators(), n)).bit_length() - 1
        for n in range(1, 11)
    ]
    assert log2_orders == [1, 3, 6, 12, 23, 45, 88, 174, 345, 687]


def test_group_order_off_the_tree():
    # S8 from a transposition and an 8-cycle: degree 2^3, but the 8-cycle
    # splits the pair {1, 2}
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    cycle = (1, 2, 3, 4, 5, 6, 7, 0)
    assert _keeps_dyadic_blocks(swap) and not _keeps_dyadic_blocks(cycle)
    assert group_order([swap, cycle]) == 40320
    # S3 on {0, 1, 2} inside degree 4: not a 2-group, so sifting on the
    # tree would be wrong
    s3 = [(1, 2, 0, 3), (1, 0, 2, 3)]
    assert not _keeps_dyadic_blocks(s3[0])
    assert group_order(s3) == _schreier_sims_order(s3)[0] == 6
    assert group_order([(0, 2, 1, 3)]) == 2
    assert group_order([(1, 0, 3, 2), (0, 2, 1, 3)]) == 8


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.integers(min_value=3, max_value=7).flatmap(
        lambda degree: st.lists(st.permutations(range(degree)), min_size=1, max_size=3)
    )
)
def test_schreier_sims_agrees_with_closure(gens):
    # random permutations, mostly off the tree path, against brute force
    images = [tuple(p) for p in gens]
    assert _schreier_sims_order(images)[0] == mulclose([Perm(p) for p in images])


def test_schreier_sims_sift_budget(monkeypatch):
    # the S8 chain from a transposition and an 8-cycle makes exactly 35 sifts
    gens = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
    monkeypatch.setattr(quotients, "MAX_SCHREIER_SIFTS", 35)
    assert _schreier_sims_order(gens)[0] == 40320
    for budget, base_points in ((34, 7), (10, 6), (0, 0)):
        monkeypatch.setattr(quotients, "MAX_SCHREIER_SIFTS", budget)
        with pytest.raises(BudgetExceededError) as exc:
            group_order(gens)
        assert exc.value.partial == base_points
        assert str(exc.value) == (
            f"stabilizer chain exceeded {budget} sifts with {base_points} base points"
        )


def test_tree_order_work_budget(monkeypatch):
    # the level-5 quotient of the Basilica group has order 2^23; its last
    # element joins the sequence after 67 products of degree 32
    B = basilica()
    gens = level_perms(B, B.generators(), 5)
    monkeypatch.setattr(quotients, "MAX_TREE_WORK", 67 * 32)
    assert group_order(gens) == 2**23
    for budget, elements in ((67 * 32 - 1, 22), (100, 1), (0, 0)):
        monkeypatch.setattr(quotients, "MAX_TREE_WORK", budget)
        with pytest.raises(BudgetExceededError) as exc:
            group_order(gens)
        assert exc.value.partial == elements
        assert str(exc.value) == (
            f"polycyclic sequence exceeded {budget} points of work with {elements} elements"
        )


def test_schreier_sims_default_budget_covers_d3_level_4():
    d3 = parse_system(D3_TEXT)
    order = group_order(level_perms(d3, d3.generators(), 4))
    assert order == 3263548471397396012655968256


def test_group_order_perms_and_tuples_agree(handles):
    B, Ha, Hb, Hab = handles
    for n in (1, 3, 5):
        perms = level_perms(B, Hab.generators, n)
        assert group_order(perms) == group_order([p.images for p in perms])
    s5 = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
    assert group_order(s5) == group_order([p.images for p in s5]) == 120


def test_group_order_mixed_degrees_rejected():
    with pytest.raises(InputError):
        group_order([Perm((1, 0)), Perm((0, 1, 2))])


@pytest.mark.parametrize("images", [(-1, 0), (0, 5), (1, 1, 0), (0, 0, 1, 1)])
def test_group_order_rejects_tuples_that_are_not_permutations(images):
    # a negative point, a point past the degree, and repeated points
    with pytest.raises(InputError, match="not a permutation"):
        group_order([images])


def test_level_quotient_equals_full(handles):
    B, Ha, Hb, Hab = handles
    assert level_quotient_equals_full(Hab, 3)
    assert not level_quotient_equals_full(Ha, 1)
    assert not level_quotient_equals_full(SubgroupHandle(B, [B.element("ab")]), 2)
    # degree 4 = 2^2: <x> takes the tree path, and y, which splits the
    # pairs x keeps, reduces through x's echelon to a residue other than
    # the identity, so it is no member
    d4 = parse_system(
        "alphabet 4; gen x perm=1,0,3,2 sections=e,e,e,e; gen y perm=1,2,3,0 sections=e,e,e,e"
    )
    assert not level_quotient_equals_full(SubgroupHandle(d4, [d4.element("x")]), 1)
    assert level_quotient_equals_full(SubgroupHandle(d4, [d4.element("y"), d4.element("x")]), 1)
    # b swaps below both level-1 vertices, so its level parities are zero
    # and G_2 = C2 x C2 has them of rank 1: <a> has the full group's
    # parities, yet is not full, which the chain decides
    blind = _QUOTIENT_SYSTEMS["parity-blind"][0]
    assert group_order(level_perms(blind, blind.generators(), 2)) == 4
    assert not level_quotient_equals_full(SubgroupHandle.from_words(blind, ["a"]), 2)
    assert level_quotient_equals_full(SubgroupHandle.from_words(blind, ["ab", "b"]), 2)


def test_full_quotient_parity_path_builds_no_chain(monkeypatch):
    def no_chain(perms):
        raise AssertionError("the level parities decide this test")

    monkeypatch.setattr(quotients, "_chain", no_chain)
    B = basilica()
    for n in range(2, 11):
        for words in (["a", "b"], ["a", "ab"]):
            assert level_quotient_equals_full(SubgroupHandle.from_words(B, words), n)
        for words in (["ab", "ba", "bb"], ["a", "bab"]):
            assert not level_quotient_equals_full(SubgroupHandle.from_words(B, words), n)


def test_projection_search_loads_no_order_code():
    # a cold certify worker makes these calls; compiling the order
    # algorithms would cost it more than the search, so they load with the
    # first group order, and the Basilica structure code (Heisenberg
    # quotient, B' coordinates, lifts) never
    probe = """
import sys
from basilica import basilica, descent
from basilica.permgrp import SubgroupHandle, group_order, level_perms

B = basilica()
H = SubgroupHandle.from_words(B, ["ba", "bb"])
cert = descent.prodense_projection_search(H)
parsed = descent.parse_certificate(cert.serialize())
assert descent.verify_certificate(H, cert) and descent.verify_certificate(H, parsed)
print("basilica.quotients" in sys.modules, "basilica.structure" in sys.modules)
full = SubgroupHandle.from_words(B, ["a", "b"])
print(group_order(level_perms(B, full.generators, 7)) == 2**88, "basilica.quotients" in sys.modules)
"""
    assert fresh_interpreter_output(probe) == "False False\nTrue True\n"


# system, deepest level tested; the systems are those of the ROADMAP
# Baseline, and one whose level parities miss a generator
_QUOTIENT_SYSTEMS = {
    "parity-blind": (parse_system(
        "alphabet 2; gen a perm=1,0 sections=e,e; gen b perm=0,1 sections=a,a"
    ), 6),
    "basilica": (basilica(), 6),
    "grigorchuk": (_GRIGORCHUK, 6),
    "gupta-sidki": (parse_system(GUPTA_SIDKI_TEXT), 2),
    "d3": (parse_system(D3_TEXT), 2),
}


@st.composite
def _binary_systems(draw):
    """A binary system of 1-4 generators with sections of at most 2 letters."""
    names = "abcd"[: draw(st.integers(min_value=1, max_value=4))]
    section = st.text(alphabet=names + names.upper(), max_size=2).map(lambda w: w or "e")
    gens = [
        f"gen {c} perm={draw(st.sampled_from(['0,1', '1,0']))} "
        f"sections={draw(section)},{draw(section)}"
        for c in names
    ]
    return parse_system("; ".join(["alphabet 2", *gens]))


@settings(derandomize=True, deadline=None, max_examples=240)
@given(st.sampled_from([*sorted(_QUOTIENT_SYSTEMS), "random binary"]), st.data())
def test_full_quotient_test_agrees_with_orders(name, data):
    if name == "random binary":
        system, top = data.draw(_binary_systems()), 5
    else:
        system, top = _QUOTIENT_SYSTEMS[name]
    n = data.draw(st.integers(min_value=1, max_value=top))
    letters = "".join(c + c.upper() for c in system.names)
    names = st.sampled_from(system.names)
    words = data.draw(st.lists(names, max_size=len(system.names), unique=True))
    words += data.draw(st.lists(st.text(alphabet=letters, max_size=4), max_size=3))
    gens = [system.element(w) for w in words]
    # a level-n action of a d-ary system has order dividing exp(S_d)^n, so
    # these powers act trivially on level n
    exponent = (2 if system.alphabet_size == 2 else 6) ** n
    powered = st.lists(st.text(alphabet=letters, min_size=1, max_size=3), max_size=2)
    for w in data.draw(powered):
        g = system.element(w) ** exponent
        assert g.level_perm(n).is_identity()
        gens.append(g)
    gens = data.draw(st.permutations(gens))
    H = SubgroupHandle(system, gens)
    full = group_order(level_perms(system, system.generators(), n))
    assert level_quotient_equals_full(H, n) == (group_order(level_perms(system, gens, n)) == full)


@pytest.mark.parametrize("name, p, logs", [
    ("grigorchuk", 2, [1, 3, 7, 12, 22, 42, 82]),
    ("gupta-sidki", 3, [1, 3, 7, 19]),
])
def test_level_quotient_orders_of_baseline_systems(name, p, logs):
    system = _QUOTIENT_SYSTEMS[name][0]
    for n, log in enumerate(logs, start=1):
        assert group_order(level_perms(system, system.generators(), n)) == p**log


def test_grigorchuk_full_quotients_with_dependent_parities():
    # d = bc, so <a, b, c> is the whole group; <a, b> is dihedral, and
    # (ab)^16 is trivial, so from level 6 on it is the dihedral group of
    # order 32
    G = _QUOTIENT_SYSTEMS["grigorchuk"][0]
    abc, ab = (SubgroupHandle.from_words(G, words) for words in (["a", "b", "c"], ["a", "b"]))
    assert G.element("bcd").is_trivial() and G.element("ab" * 16).is_trivial()
    for n, log in enumerate([1, 3, 4, 4, 5, 5, 5], start=1):
        assert level_quotient_equals_full(abc, n)
        assert level_quotient_equals_full(ab, n) == (n <= 2)
        assert group_order(level_perms(G, ab.generators, n)) == 2**log


def test_orbit_stabilizer_identity(handles):
    B, Ha, Hb, Hab = handles
    battery = [Hab, Hb, SubgroupHandle(B, [B.element("ab"), B.element("bb")])]
    for H in battery:
        for vertex in ("0", "1", "01", "110"):
            n = len(vertex) + 2
            tab = orbit(H, vertex)
            stab = stabilizer_elements(H, vertex)
            stab_order = group_order(level_perms(B, stab, n))
            full_order = group_order(level_perms(B, H.generators, n))
            assert stab_order * len(tab.orbit) == full_order


def test_hword_round_trip():
    for hw in [(), (1,), (1, -2, 1), (-3, -3, 2)]:
        assert hword_parse(hword_str(hw), 3) == hw
    with pytest.raises(InputError):
        hword_parse("g5", 2)
    with pytest.raises(InputError):
        hword_parse("x0", 2)
    # superscript two, Arabic-Indic three, a digit count int() refuses
    for text in ("g\u00b2", "g\u0663", "G\u0660 g0", "g+1", "g" + "1" * 5000):
        with pytest.raises(InputError):
            hword_parse(text, 4)
