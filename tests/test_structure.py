import pytest
from hypothesis import example, given, settings, strategies as st

from basilica import (
    BudgetExceededError,
    PreconditionError,
    basilica,
    equals,
    free_reduce,
    parse_system,
)
from basilica import core
from basilica.core import exponent_sums, invert_word, product_word, substitute_word
from basilica.structure import (
    LIFT_SUBSTITUTION,
    HeisenbergElement,
    ab_image,
    alpha,
    bprime_coords,
    commutator,
    heis_image,
    in_derived_subgroup,
    lift_section,
    tau,
)

from conftest import random_element


def test_alpha_word(B):
    assert str(alpha(1, 1)) == "ABab"
    assert alpha(0, 5).is_trivial()
    assert str(alpha(2, -1)) == "AAbaaB"


def test_alpha_1_2_sections(B):
    g = alpha(1, 2)
    assert g.section(0).is_trivial()
    assert equals(g.section(1), alpha(1, 1).inverse())


def test_tau_relators(B):
    assert str(tau(1)) == "BAbABaba"
    assert tau(1).is_trivial()
    assert tau(3).is_trivial()
    word = tau(1)
    for _ in range(2):
        word = word.substitute(LIFT_SUBSTITUTION)
    assert word.is_trivial()
    with pytest.raises(PreconditionError):
        tau(2)
    with pytest.raises(PreconditionError):
        tau(-1)


def test_ab_image(B):
    a, b = B.generators()
    assert ab_image(a * b) == (1, 1)
    assert ab_image(alpha(3, -2)) == (0, 0)
    assert ab_image(b.inverse() * a) == (1, -1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=60))
def test_ab_image_is_the_exponent_sums(letters):
    g = basilica().element(free_reduce(letters))
    assert ab_image(g) == exponent_sums(g.word, 2)


def test_ab_image_requires_basilica():
    other = parse_system("alphabet 2; gen a perm=1,0 sections=e,a")
    with pytest.raises(PreconditionError):
        ab_image(other.generator("a"))


def test_heisenberg_normal_form():
    a = HeisenbergElement(1, 0, 0)
    b = HeisenbergElement(0, 1, 0)
    a_inv = HeisenbergElement(-1, 0, 0)
    b_inv = HeisenbergElement(0, -1, 0)
    c = a_inv * b_inv * a * b
    assert c == HeisenbergElement(0, 0, 1)
    # c is central
    assert a * c == c * a and b * c == c * b
    assert HeisenbergElement(-1, -1, -1) * (a * b) == HeisenbergElement(0, 0, 0)
    assert b_inv * b_inv * b_inv == HeisenbergElement(0, -3, 0)


def test_heis_image_values(B):
    a, b = B.generators()
    assert heis_image(commutator(a, b)) == HeisenbergElement(0, 0, 1)
    assert heis_image(commutator(commutator(a, b), a)).is_identity()
    assert heis_image(commutator(commutator(a, b), b)).is_identity()
    assert heis_image(a.inverse() * b * a) == HeisenbergElement(0, 1, -1)


def test_heis_image_homomorphism(B, rng):
    for _ in range(300):
        g = random_element(B, rng)
        h = random_element(B, rng)
        assert heis_image(g * h) == heis_image(g) * heis_image(h)


def test_heis_kills_relators(B):
    word = tau(5)
    for _ in range(3):
        assert heis_image(word).is_identity()
        word = word.substitute(LIFT_SUBSTITUTION)


def test_bprime_basis(B):
    assert bprime_coords(alpha(1, 1)) == (1, 0, 0)
    assert bprime_coords(alpha(1, -1)) == (0, 1, 0)
    assert bprime_coords(alpha(1, 2)) == (0, 0, 1)
    assert bprime_coords(alpha(2, 1)) == (2, 0, 0)


def test_bprime_round_trip_small(B):
    for l in (-1, 0, 2):
        for m in (-2, 1):
            for n in (0, 1):
                g = alpha(1, 1) ** l * alpha(1, -1) ** m * alpha(1, 2) ** n
                assert bprime_coords(g) == (l, m, n)


def test_bprime_requires_derived_subgroup(B):
    with pytest.raises(PreconditionError):
        bprime_coords(B.element("ab"))


def test_bprime_invariant_under_second_derived(B, rng):
    # multiplying by commutators of derived-subgroup elements cannot change
    # the coordinates
    basis = [alpha(1, 1), alpha(1, -1), alpha(1, 2)]
    for _ in range(10):
        g = alpha(1, 1) ** rng.randint(-2, 2) * alpha(1, 2) ** rng.randint(-2, 2)
        u = basis[rng.randrange(3)]
        v = basis[rng.randrange(3)]
        assert bprime_coords(g * commutator(u, v)) == bprime_coords(g)


def test_second_derived_projections(B):
    a, b = B.generators()
    lhs = commutator(alpha(1, 1), alpha(1, -1))
    assert equals(lhs.section(0), commutator(commutator(b, a), b))
    assert lhs.section(1).is_trivial()
    lhs = commutator(alpha(1, 1), alpha(1, 2))
    assert lhs.section(0).is_trivial()
    assert equals(lhs.section(1), commutator(commutator(b, a), b.inverse()).inverse())


def test_commutator_identities_spot(B):
    for s, t in [(2, 1), (-1, 2), (3, -3), (-2, -2)]:
        if t % 2:
            tt = (t - 1) // 2
            rhs = (alpha(1, 1) * (alpha(1, -1).inverse() * alpha(1, 1)) ** tt) ** s
        else:
            tt = t // 2
            rhs = (
                alpha(1, 1) ** (s - 1)
                * (alpha(1, 2) ** tt * alpha(1, 1).inverse()) ** (s - 1)
                * alpha(1, 2) ** tt
            )
        assert equals(alpha(s, t), rhs)


def test_lift_section_identity_vertex(B):
    g = alpha(1, 1)
    assert equals(lift_section(g, ""), g)


def test_lift_section_one_step(B):
    a, b = B.generators()
    g = commutator(a, b)
    lifted = lift_section(g, "1")
    assert equals(lifted, commutator(b * b, a))
    assert lifted.section(0).is_trivial()
    assert equals(lifted.section(1), g)
    lifted0 = lift_section(g, "0")
    assert equals(lifted0, b * commutator(b * b, a) * b.inverse())
    assert equals(lifted0.section(0), g)
    assert lifted0.section(1).is_trivial()


def test_lift_section_support(B):
    g = alpha(1, -1)
    for v in ("01", "110"):
        lifted = lift_section(g, v)
        assert in_derived_subgroup(lifted)
        level = len(v)
        vertices = [format(i, f"0{level}b") for i in range(2**level)]
        for u in vertices:
            assert lifted.act(u) == u
            sec = lifted.section_at_vertex(u)
            if u == v:
                assert equals(sec, g)
            else:
                assert sec.is_trivial()


def _lift_level_by_level(w, vertex):
    """The lift as its definition reads: substitute and reduce the whole
    word once per level, conjugating by b at a 0."""
    b = w.system.generator("b")
    out = w
    for x in reversed(vertex):
        out = out.substitute(LIFT_SUBSTITUTION)
        if x == "0":
            out = b * out * b.inverse()
    return out


def test_lift_section_is_the_level_by_level_lift(B, rng):
    a, b = B.generators()
    for depth in range(13):
        for _ in range(6):
            g = random_element(B, rng, max_len=12)
            s, t = ab_image(g)
            w = g * b ** (-t) * a ** (-s)  # exponent sums zero: in B'
            vertex = "".join(rng.choice("01") for _ in range(depth))
            assert lift_section(w, vertex).word == _lift_level_by_level(w, vertex).word


def _reference_lift(word, vertex):
    """The lift C s^n(w) C^-1 built from tuples, as ``lift_section``'s
    comment defines it, and the letter counts its three budget checks read,
    in order, each with the check's kind."""
    a_img, b_img, c, checks = (1,), (2,), (), []
    for x in vertex:
        if x == "0":
            checks.append(("conjugator", len(c) + len(b_img)))
            c += b_img
        checks.append(("image", 2 * len(b_img)))
        a_img, b_img = b_img + b_img, a_img
    a_letters = sum(abs(l) == 1 for l in word)
    checks.append(("word", a_letters * len(a_img) + (len(word) - a_letters) * len(b_img) + 2 * len(c)))
    lifted = product_word(product_word(c, tuple(substitute_word(word, (a_img, b_img)))), invert_word(c))
    return lifted, checks


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20),
    st.lists(st.sampled_from("01"), max_size=12),
)
# the empty word; words whose image cancels into the conjugator at both ends
@example([], [])
@example([], list("0101"))
@example([-1, -2, -1, 2, 1, 1], ["0"])
@example(list(basilica().parse_word("BBBBBBAbABAbaaabaBaBBAbbbABAbAbbAbaaBabb")), list("011010011101"))
def test_lift_section_is_the_reference_construction(letters, digits):
    # letters, then the powers of a and b that zero its exponent sums: a
    # word of B' of at most 40 letters
    s, t = exponent_sums(letters, 2)
    word = free_reduce(letters + [-1 if s > 0 else 1] * abs(s) + [-2 if t > 0 else 2] * abs(t))
    assert len(word) <= 40
    vertex = "".join(digits)
    lifted = lift_section(basilica().element(word), vertex)
    assert lifted.word == _reference_lift(word, vertex)[0]
    assert type(lifted.word) is tuple and all(type(l) is int for l in lifted.word)


def test_lift_budget_checks_stop_at_their_letter_counts(monkeypatch):
    # under each lowered budget, the first check past it raises, with its
    # letter count and text; every one of the three checks is reached
    B = basilica()
    kinds = set()
    cases = [("ABab", "0" * 10), ("ABab", "1" * 11), ("BAbbbaBBBAbbaB", "0110100110"), ("AABBaabb", "00"), ("abAB", "10" * 6)]
    for text, vertex in cases:
        word = B.parse_word(text)
        lifted, checks = _reference_lift(word, vertex)
        for limit in sorted({letters - 1 for _, letters in checks}):
            kind, letters = next((k, n) for k, n in checks if n > limit)
            monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", limit)
            with pytest.raises(BudgetExceededError) as stop:
                lift_section(B.element(text), vertex)
            assert str(stop.value) == f"lift would build a word of {letters} letters, more than {limit}"
            assert stop.value.partial == letters
            kinds.add(kind)
        monkeypatch.setattr(core, "MAX_CLOSURE_LETTERS", max(n for _, n in checks))
        assert lift_section(B.element(text), vertex).word == lifted
    assert kinds == {"conjugator", "image", "word"}


def test_lift_section_requires_derived(B):
    with pytest.raises(PreconditionError):
        lift_section(B.element("a"), "0")


def test_lift_machinery_assembles_b_squared(B):
    # the one-step lift of any word w has sections (a^s, w) with s the
    # a-exponent sum; applied to a itself that assembles (a, a), which must
    # be the group element b^2
    a, b = B.generators()
    assembled = a.substitute(LIFT_SUBSTITUTION)
    assert equals(assembled.section(0), a)
    assert equals(assembled.section(1), a)
    assert assembled.root_perm().is_identity()
    assert equals(assembled, b * b)
