import pytest
from hypothesis import assume, given, settings, strategies as st

from basilica import GeneratorSystem, basilica, equals, free_reduce, parse_system
from basilica.core import (
    BudgetExceededError,
    ElementIndex,
    InputError,
    PreconditionError,
    exponent_sums,
)
from basilica.descent import (
    FailureReport,
    NotInLattice,
    ProdenseCertificate,
    congruence_transition,
    find_ab,
    find_b_inv_a,
    parse_certificate,
    persist_ab,
    prodense_projection_search,
    solve_coset,
    verify_certificate,
)
from basilica.norms import geodesic_rep
from basilica.permgrp import SubgroupHandle, level_quotient_equals_full
from basilica.structure import ab_image, alpha, tau

from conftest import BASILICA_TEXT, GRIGORCHUK_TEXT, GUPTA_SIDKI_TEXT, LAMPLIGHTER_TEXT


def test_congruence_transition_table():
    assert congruence_transition((1, 1)) == (1, 1)
    assert congruence_transition((1, -1)) == (-1, 1)
    assert congruence_transition((-1, 1)) == (1, -1)
    with pytest.raises(InputError):
        congruence_transition((2, 1))


def test_transition_matches_engine(B):
    # both sections of g^2 land in the class the table predicts
    words = ["ab", "ba", "abABab", "aB", "bA", "Ab", "aBBAba"]
    for text in words:
        g = B.element(text)
        cls = ab_image(g)
        if cls not in {(1, 1), (1, -1), (-1, 1)}:
            continue
        predicted = congruence_transition(cls)
        sq = g * g
        assert ab_image(sq.section(0)) == predicted
        assert ab_image(sq.section(1)) == predicted


def test_goal_index_finds_the_identity_and_the_target(B):
    # the descent's goal index: the identity is entry 0, and a word of the
    # target that extends a registered word is keyed from that entry
    goal = ElementIndex(B)
    target_idx = goal.insert_word(geodesic_rep(B.element("ab")))
    relator = (tau(3) ** -1).word  # ABBBAbbbaBBBabbb, a reduced trivial word
    ab = B.element("ab").word
    assert goal.find_word(relator) == 0
    assert goal.find_word(ab + relator) == target_idx
    assert goal.find_word(relator + ab) == target_idx
    assert goal.find_word(B.element("ba").word) is None


def test_find_ab_base_cases(B):
    cert = find_ab(B.element("ab"))
    assert cert.vertex == "" and cert.exponent_log == 0
    assert cert.replay()
    cert = find_ab(B.element("ba"))
    assert cert.vertex == "1" and cert.exponent_log == 1
    assert cert.replay()


def test_find_ab_general(B):
    g = B.element("ab") * alpha(1, 1)
    cert = find_ab(g)
    assert cert.replay()
    assert cert.exponent_log == len(cert.vertex)
    power = g ** (2**cert.exponent_log)
    assert equals(power.section_at_vertex(cert.vertex), B.element("ab"))


def test_find_ab_precondition(B):
    with pytest.raises(PreconditionError):
        find_ab(B.element("a"))
    with pytest.raises(PreconditionError):
        find_ab(B.element("aB"))


# two-letter systems that are not Basilica; the lamplighter automaton has
# Basilica's alphabet and generator names, so only the check refuses it
_OTHER_SYSTEMS = {
    "lamplighter": LAMPLIGHTER_TEXT,
    "grigorchuk": GRIGORCHUK_TEXT,
    "gupta-sidki": GUPTA_SIDKI_TEXT,
}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(_OTHER_SYSTEMS)),
    st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8), min_size=1, max_size=3),
)
def test_exponent_sum_readers_require_basilica(kind, words):
    system = parse_system(_OTHER_SYSTEMS[kind])
    elements = [system.element(free_reduce(w)) for w in words]
    for g in elements:
        with pytest.raises(PreconditionError):
            ab_image(g)
        with pytest.raises(PreconditionError):
            find_ab(g)
    with pytest.raises(PreconditionError):
        solve_coset(SubgroupHandle(system, elements), (1, 1))


def test_find_b_inv_a_base_cases(B):
    cert = find_b_inv_a(B.element("Ba"))
    assert cert.vertex == "" and cert.exponent_log == 0
    cert = find_b_inv_a(B.element("bA"))
    assert cert.vertex == "0" and cert.exponent_log == 1
    assert cert.replay()
    cert = find_b_inv_a(B.element("aB"))
    assert cert.vertex == "00" and cert.exponent_log == 2
    assert cert.replay()


def test_find_b_inv_a_intermediate_sections(B):
    # (a b^-1)^2 = (a^-1 b, b a^-1) and (a^-1 b)^2 = (b^-1 a, b^-1 a)
    g = B.element("aB")
    sq = g * g
    assert equals(sq.section(0), B.element("Ab"))
    assert equals(sq.section(1), B.element("bA"))
    g2 = B.element("Ab")
    sq2 = g2 * g2
    assert equals(sq2.section(0), B.element("Ba"))
    assert equals(sq2.section(1), B.element("Ba"))


def test_find_b_inv_a_precondition(B):
    with pytest.raises(PreconditionError):
        find_b_inv_a(B.element("ab"))


def test_descent_budget(B):
    with pytest.raises(Exception) as exc:
        find_ab(B.element("ab") * alpha(2, 2), max_states=1)
    assert "states" in str(exc.value)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=160))
def test_square_sections_follow_the_section_law(letters):
    # descent forms (g^2)_x = g_{g(x)} g_x from one walk over g; words past
    # the memo length take the long-word walk
    B = basilica()
    word = free_reduce(letters)
    assume(exponent_sums(word, 2)[1] % 2)
    root, sections = B.word_root(word), B.word_sections(word)
    square = B.word_sections(free_reduce(word + word))
    for x in range(2):
        sec = free_reduce(sections[root[x]] + sections[x])
        assert sec == square[x] and len(sec) <= len(word)


def test_descent_budget_keeps_words_no_longer_than_the_input(B):
    g = B.element("ab") * alpha(5, 7) * alpha(3, -4) * alpha(-6, 9) * alpha(11, -13) * alpha(-9, 8)
    assert len(g.word) == 152 and find_ab(g).exponent_log == 8
    with pytest.raises(BudgetExceededError) as exc:
        find_ab(g, max_states=50)
    visited = exc.value.partial
    assert len(visited) > 50 and g.word in visited
    assert all(len(word) <= len(g.word) for word in visited)


def test_find_ab_negative_budget(B):
    # ab is its own target, so a search would end before counting a state
    with pytest.raises(InputError, match="descent budget must be non-negative, got -1"):
        find_ab(B.element("ab"), max_states=-1)
    assert find_ab(B.element("ab"), max_states=0).exponent_log == 0


def test_find_b_inv_a_negative_budget(B):
    with pytest.raises(InputError, match="descent budget must be non-negative, got -2"):
        find_b_inv_a(B.element("aB"), max_states=-2)


def test_persist_ab(B):
    ab = B.element("ab")
    ba = B.element("ba")
    assert persist_ab(ab, "") == (0, ab)
    k, final = persist_ab(ab, "1")
    assert k == 1 and equals(final, ba)
    k, final = persist_ab(ba, "10")
    assert k == 2 and equals(final, ba)
    k, final = persist_ab(ba, "11")
    assert k == 2 and equals(final, ba)
    with pytest.raises(InputError):
        persist_ab(B.element("a"), "0")


def test_persist_ab_replay(B):
    ab = B.element("ab")
    for vertex in ("0", "1", "01", "110", "0101"):
        k, final = persist_ab(ab, vertex)
        power = ab ** (2**k)
        assert power.act(vertex) == vertex
        assert equals(power.section_at_vertex(vertex), final)


def test_solve_coset(B):
    a, b = B.generators()
    H = SubgroupHandle(B, [a, b])
    hw = solve_coset(H, (1, 1))
    assert ab_image(H.evaluate(hw)) == (1, 1)
    res = solve_coset(SubgroupHandle(B, [a * b]), (1, -1))
    assert isinstance(res, NotInLattice)
    assert res.basis == ((1, 1),)
    H2 = SubgroupHandle.from_words(B, ["ab", "bb"])
    hw = solve_coset(H2, (1, -1))
    assert ab_image(H2.evaluate(hw)) == (1, -1)
    assert solve_coset(SubgroupHandle(B, []), (0, 0)) == ()
    res = solve_coset(SubgroupHandle(B, []), (1, 0))
    assert isinstance(res, NotInLattice) and res.basis == ()


def test_solve_coset_negative_coefficients(B):
    H = SubgroupHandle.from_words(B, ["aabb", "ab"])
    # (1,1) = 0*(2,2) + 1*(1,1); (0,0) should give the empty word
    assert solve_coset(H, (0, 0)) == ()
    hw = solve_coset(H, (1, 1))
    assert ab_image(H.evaluate(hw)) == (1, 1)
    hw = solve_coset(H, (3, 3))
    assert ab_image(H.evaluate(hw)) == (3, 3)


def test_search_full_group(B):
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    assert isinstance(cert, ProdenseCertificate)
    assert len(cert.vertex) <= 8
    assert verify_certificate(H, cert)


def test_search_failures(B):
    res = prodense_projection_search(SubgroupHandle(B, [B.element("ab")]))
    assert isinstance(res, FailureReport)
    assert res.stage == 4
    assert res.lattice == ((1, 1),)
    res = prodense_projection_search(SubgroupHandle(B, [B.generator("a")]))
    assert isinstance(res, FailureReport)
    assert res.stage == 1
    assert res.lattice == ((1, 0),)


def test_search_reports_a_stage_4_miss_of_both_projections_as_before(B):
    # with no stabilizer generator kept, the projection misses either way; the
    # report is the full level's and only its trace names the retry
    H = SubgroupHandle.from_words(B, ["AaAbAa", "babbAbAbA", "AABAABb"])
    res = prodense_projection_search(H, schreier_cap=0)
    assert res.describe() == "stage=4 target (1,-1) not in the exponent lattice lattice=(empty)"
    assert res.trace[-1] == "stabilizer vertex 00000001 level by level generators 0"
    # at depth 1 or less the retry would be the same call as stage 3
    res = prodense_projection_search(SubgroupHandle(B, [B.element("ab")]))
    assert res.stage == 4
    assert not any("level by level" in line for line in res.trace)


def test_find_ab_never_builds_the_ball(B):
    # descent states are plain section words; only the norm-2 target is
    # canonicalised through the ball registry
    fresh = parse_system(BASILICA_TEXT)
    cert = find_ab(fresh.element("bAbbbaBBaB"))
    assert cert.replay()
    assert fresh._ball_registry.radius_done <= 2


@pytest.mark.parametrize("words", [["aBB", "AAB", "a"], ["AAB", "Ab", "aa"]])
def test_search_certifies_subgroups_with_long_descent_states(B, words):
    # their descents pass through states of norm 10 or more, which a search
    # that canonicalises states through the ball reaches only by
    # enumerating ball(10) or larger
    fresh = parse_system(BASILICA_TEXT)
    H = SubgroupHandle.from_words(fresh, words)
    cert = prodense_projection_search(H)
    assert isinstance(cert, ProdenseCertificate)
    assert verify_certificate(H, cert)
    assert fresh._ball_registry.radius_done <= 2


def test_search_battery_certificates_sound(B):
    batteries = [["a", "b"], ["ab", "bb"], ["ba", "bb"], ["ba", "aB"], ["ba", "Ab"]]
    for words in batteries:
        H = SubgroupHandle.from_words(B, words)
        result = prodense_projection_search(H)
        assert isinstance(result, ProdenseCertificate), words
        assert verify_certificate(H, result), words


def test_projection_certificate_proves_h_v_not_h(B):
    # <aa, Ab> has a replayable certificate at the vertex 11, yet both its
    # generators have even total exponent sum, so H lies in an index-2
    # subgroup and no level quotient past the root is full: a certificate
    # proves H_v = B at its vertex, not H = B
    H = SubgroupHandle.from_words(B, ["aa", "Ab"])
    cert = prodense_projection_search(H)
    assert isinstance(cert, ProdenseCertificate) and cert.vertex == "11"
    assert verify_certificate(H, parse_certificate(cert.serialize()))
    assert [sum(exponent_sums(g.word, 2)) % 2 for g in H.generators] == [0, 0]
    assert level_quotient_equals_full(H, 1)
    assert not any(level_quotient_equals_full(H, n) for n in range(2, 9))


def test_certificate_serialization_round_trip(B):
    H = SubgroupHandle.from_words(B, ["ba", "bb"])
    cert = prodense_projection_search(H)
    text = cert.serialize()
    parsed = parse_certificate(text)
    assert parsed == cert
    assert parsed.serialize() == text


def test_certificate_tampered_vertex(B):
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    truncated = ProdenseCertificate(
        subgroup=cert.subgroup,
        stages=cert.stages,
        vertex=cert.vertex[:-1],
        expr_a=cert.expr_a,
        expr_b=cert.expr_b,
        budgets=cert.budgets,
        engine=cert.engine,
    )
    assert not verify_certificate(H, truncated)


def test_root_certificate_verifies_under_either_spelling(B):
    # a and b are their own sections at the root; the vertex is compared as
    # a parsed path, so "e" and "" are one vertex
    H = SubgroupHandle(B, list(B.generators()))

    def root_certificate(vertex):
        return ProdenseCertificate(
            subgroup=("a", "b"), stages=(), vertex=vertex, expr_a=(1,), expr_b=(2,),
            budgets={"states": 0, "schreier": 0, "depth": 0},
        )

    for vertex in ("e", ""):
        cert = root_certificate(vertex)
        assert verify_certificate(H, cert)
        assert "vertex: e\n" in cert.serialize()
        assert verify_certificate(H, parse_certificate(cert.serialize()))
    assert not verify_certificate(H, root_certificate("0"))


def test_certificate_foreign_generator(B):
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    foreign = ProdenseCertificate(
        subgroup=cert.subgroup,
        stages=cert.stages,
        vertex=cert.vertex,
        expr_a=cert.expr_a + (5,),
        expr_b=cert.expr_b,
        budgets=cert.budgets,
        engine=cert.engine,
    )
    with pytest.raises(InputError):
        verify_certificate(H, foreign)


def test_certificate_wrong_subgroup(B):
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    other = SubgroupHandle.from_words(B, ["ab", "bb"])
    assert not verify_certificate(other, cert)


def test_certificate_parse_errors(B):
    with pytest.raises(InputError):
        parse_certificate("not a certificate")
    with pytest.raises(InputError):
        parse_certificate("basilica-certificate: 1\n")
    text = prodense_projection_search(SubgroupHandle.from_words(B, ["ba", "bb"])).serialize()
    with pytest.raises(InputError, match="^unsupported certificate version$"):
        parse_certificate(text.replace("basilica-certificate: 1\n", "basilica-certificate: 2\n"))


def test_replay_and_verify_read_the_vertex_once(B, monkeypatch):
    # replay walks its own steps; verification reads the vertex through the
    # recursion written out in `certificate`, never through the engine
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    descent_cert = find_ab(B.element("ab") * alpha(1, 1))
    calls = []
    parse = GeneratorSystem.parse_vertex
    monkeypatch.setattr(
        GeneratorSystem, "parse_vertex", lambda system, v: calls.append(v) or parse(system, v)
    )
    assert descent_cert.replay() and calls == []
    assert verify_certificate(H, cert) and calls == []


def test_certificate_repeated_key_or_stage_label(B):
    text = prodense_projection_search(SubgroupHandle.from_words(B, ["ba", "bb"])).serialize()
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        key = line.split(":", 1)[0]
        for copy in (line, f"{key}: 0\n"):
            with pytest.raises(InputError, match=f"certificate states '{key}' twice"):
                parse_certificate("".join(lines[:i] + [copy] + lines[i:]))
    with pytest.raises(InputError, match="certificate states 'stage01' twice"):
        parse_certificate(text.replace("stage2:", "stage01:"))
    # an unknown key is ignored
    assert parse_certificate(text + "note: x\n").serialize() == text


def test_search_reports_budgets(B):
    res = prodense_projection_search(
        SubgroupHandle(B, [B.element("ab")]), max_states=123, schreier_cap=7
    )
    assert res.budgets == {"states": 123, "schreier": 7, "depth": 16}


@pytest.mark.parametrize(
    "budget, key",
    [("max_states", "states"), ("schreier_cap", "schreier"), ("max_depth", "depth")],
)
def test_search_rejects_negative_budget(B, budget, key):
    # parse_certificate takes ASCII digits only, so a certificate recording
    # a negative budget could never be read back
    H = SubgroupHandle.from_words(B, ["ab", "Ba"])
    with pytest.raises(InputError, match=f"budget-{key} must be non-negative"):
        prodense_projection_search(H, **{budget: -1})


@pytest.mark.parametrize(
    "words, vertex",
    # the endgame descends "1" after a persisted ba and "11" after ab
    [(["a", "b"], "001"), (["ba", "bb"], "1001"), (["a", "aB"], "0111")],
)
def test_search_depth_budget_admits_a_vertex_that_deep(B, words, vertex):
    H = SubgroupHandle.from_words(B, words)
    cert = prodense_projection_search(H, max_depth=len(vertex))
    assert isinstance(cert, ProdenseCertificate) and cert.vertex == vertex
    assert verify_certificate(H, parse_certificate(cert.serialize()))
    res = prodense_projection_search(H, max_depth=len(vertex) - 1)
    assert isinstance(res, FailureReport)
    assert res.describe() == f"stage=5 combined vertex deeper than {len(vertex) - 1}"


def test_search_state_budget_at_each_descent(B):
    # <ba, bb> needs 2 states to descend to ab (stage 2) and more than 2 to
    # descend its stabilizer's (1,-1) element to b^-1 a (stage 5)
    H = SubgroupHandle.from_words(B, ["ba", "bb"])
    for states, stage, lines in ((1, 2, 1), (2, 5, 4)):
        res = prodense_projection_search(H, max_states=states)
        assert res.describe() == (
            f"stage={stage} descent budget exhausted (descent exceeded {states} states)"
        )
        assert len(res.trace) == lines
    assert prodense_projection_search(H, max_states=5).vertex == "1001"


def test_search_depth_budget_at_the_descent_vertex(B):
    # <ba, bb> descends to ab at the vertex 1
    H = SubgroupHandle.from_words(B, ["ba", "bb"])
    res = prodense_projection_search(H, max_depth=0)
    assert res.describe() == "stage=2 descent vertex deeper than 0"
    assert res.trace == ("coset target (1,1) expr g0",)
    assert prodense_projection_search(H, max_depth=1).stage == 5


@pytest.mark.parametrize("value", [16.0, 1000.5, True, False, "16", None])
@pytest.mark.parametrize(
    "budget, key",
    [("max_states", "states"), ("schreier_cap", "schreier"), ("max_depth", "depth")],
)
def test_search_rejects_non_integer_budget(B, budget, key, value):
    # a certificate records its budgets as ASCII decimals, which 16.0 or
    # True would not read back as
    H = SubgroupHandle.from_words(B, ["ab", "Ba"])
    with pytest.raises(InputError, match=f"budget-{key} must be an integer, not {value!r}"):
        prodense_projection_search(H, **{budget: value})
