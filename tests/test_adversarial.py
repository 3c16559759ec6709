"""Properties over untrusted text and over certificates: the parsers refuse
bad input only with InputError, a certificate survives a round trip through
its text, and an edited certificate verifies only when its claim still holds."""

import itertools

from hypothesis import assume, example, given, settings, strategies as st

from basilica import InputError, basilica, parse_system
from basilica.certificate import hword_parse, hword_str
from basilica.descent import (
    ProdenseCertificate,
    parse_certificate,
    prodense_projection_search,
    verify_certificate,
)
from basilica.permgrp import SubgroupHandle

from conftest import BASILICA_TEXT

# digits that str.isdigit() accepts but that are no ASCII digits: superscript
# two, Arabic-Indic zero and three, Devanagari nine, fullwidth one
_ODD_DIGITS = "²٠٣९１"
_DIGITS = "0123456789" + _ODD_DIGITS
_CHARS = "gGeabAB ,:;=#-+_\n\t" + _DIGITS
_D3_SYSTEM = "alphabet 3\ngen a perm=1,2,0 sections=e,e,a\ngen b perm=0,2,1 sections=b,e,a\n"

# generator tokens such as g12, G٣ or g²; vertices such as 01٠
_HWORD_TEXT = st.lists(
    st.tuples(st.sampled_from("gGx"), st.text(_DIGITS, max_size=3)).map("".join), max_size=4
).map(" ".join)
_VERTEX_TEXT = st.text("012x" + _ODD_DIGITS, max_size=6)
# numerals int() reads but a certificate must not: Arabic-Indic 16, and 16
# with an underscore or a sign
_BAD_NUMERALS = ("\u0661\u0666", "1_6", "-16", "+16")
_CERTIFICATE = prodense_projection_search(
    SubgroupHandle.from_words(basilica(), ["ba", "bb"])
).serialize()

# the freely reduced words of 1 to 3 letters, and subgroups of 2 or 3 of them
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
_WORDS = [
    "".join(w)
    for n in (1, 2, 3)
    for w in itertools.product("aAbB", repeat=n)
    if all(_INVERSE[x] != y for x, y in zip(w, w[1:]))
]
_SUBGROUPS = st.lists(st.sampled_from(_WORDS), min_size=2, max_size=3)
_STATES = 3000  # descent budget; keeps every search of these subgroups small


@st.composite
def _edited(draw, base: str) -> str:
    """``base`` after a few one-character inserts, replacements and deletions."""
    text = base
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(_CHARS))
        edits = (text[:i] + c + text[i:], text[:i] + c + text[i + 1 :], text[:i] + text[i + 1 :])
        text = draw(st.sampled_from(edits))
    return text


def _with_field(text: str, key: str, value: str) -> str:
    """Certificate text with the value of one field replaced."""
    lines = text.splitlines()
    lines = [f"{key}: {value}" if line.startswith(f"{key}:") else line for line in lines]
    return "\n".join(lines) + "\n"


def _with_stage_label(text: str, label: str) -> str:
    """Certificate text with the label of its first stage replaced."""
    return text.replace("\nstage1:", f"\nstage{label}:")


def _raises_only_input_error(parse, text):
    try:
        parse(text)
    except InputError:
        pass


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(_HWORD_TEXT, _edited("g0 G1 g2"), st.text(_CHARS, max_size=40), st.text(max_size=12)),
    st.integers(1, 4),
)
def test_hword_parse_raises_only_input_error(text, ngens):
    _raises_only_input_error(lambda t: hword_parse(t, ngens), text)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.sampled_from(["basilica", "d3"]),
    st.one_of(_VERTEX_TEXT, st.text(_CHARS, max_size=12), st.text(max_size=6)),
)
def test_parse_vertex_raises_only_input_error(kind, text):
    system = basilica() if kind == "basilica" else parse_system(_D3_SYSTEM)
    _raises_only_input_error(system.parse_vertex, text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(_edited(BASILICA_TEXT), _edited(_D3_SYSTEM), st.text(_CHARS, max_size=60)))
def test_parse_system_raises_only_input_error(text):
    _raises_only_input_error(parse_system, text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.one_of(
        st.builds(
            _with_field, st.just(_CERTIFICATE), st.sampled_from(["expr-a", "expr-b"]), _HWORD_TEXT
        ),
        st.builds(_with_field, st.just(_CERTIFICATE), st.just("vertex"), _VERTEX_TEXT),
        st.builds(
            _with_field,
            st.just(_CERTIFICATE),
            st.sampled_from(["subgroup", "stage1", "budget-depth"]),
            st.text(_CHARS, max_size=10),
        ),
        st.builds(
            _with_field,
            st.just(_CERTIFICATE),
            st.sampled_from(["budget-states", "budget-depth"]),
            st.sampled_from(_BAD_NUMERALS),
        ),
        st.builds(_with_stage_label, st.just(_CERTIFICATE), st.sampled_from(_BAD_NUMERALS)),
        _edited(_CERTIFICATE),
        st.text(_CHARS, max_size=60),
    )
)
def test_certificate_parse_and_verify_raise_only_input_error(text):
    H = SubgroupHandle.from_words(basilica(), ["ba", "bb"])
    _raises_only_input_error(lambda t: verify_certificate(H, parse_certificate(t)), text)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.sampled_from(["budget-states", "budget-schreier", "budget-depth", "stage"]),
    st.one_of(st.sampled_from(_BAD_NUMERALS), st.text(_DIGITS + "_-+ ", max_size=4)),
)
@example("stage", "\u0661")
@example("budget-depth", "\u0661\u0666")
@example("budget-depth", "1_6")
@example("budget-depth", "-16")
def test_edited_budget_value_or_stage_label_parses_only_as_ascii_digits(key, numeral):
    # the parser strips each line and each value, so a stage label keeps
    # its leading spaces and a budget value neither
    if key == "stage":
        text, digits = _with_stage_label(_CERTIFICATE, numeral), numeral.rstrip()
    else:
        text, digits = _with_field(_CERTIFICATE, key, numeral), numeral.strip()
    ascii_digits = digits.isascii() and digits.isdigit()
    try:
        cert = parse_certificate(text)
    except InputError:
        assert not ascii_digits
    else:
        assert ascii_digits
        if key != "stage":
            assert cert.budgets[key[len("budget-") :]] == int(digits)


def _certificate(words):
    H = SubgroupHandle.from_words(basilica(), words)
    result = prodense_projection_search(H, max_states=_STATES)
    assume(isinstance(result, ProdenseCertificate))
    return H, result


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_SUBGROUPS)
def test_certificates_round_trip_and_verify(words):
    H, cert = _certificate(words)
    text = cert.serialize()
    parsed = parse_certificate(text)
    assert parsed == cert
    assert parsed.serialize() == text
    assert verify_certificate(H, parsed) and _acts_as_claimed(H, parsed)


def _acts_as_claimed(H, cert, depth: int = 4) -> bool:
    """The claim as seen on the vertex action alone: both expressions fix the
    vertex and move the vertices ``depth`` levels below it as a and b move
    those below the root.  A certificate that verifies must pass this."""
    for expr, name in zip((cert.expr_a, cert.expr_b), "ab"):
        g, want = H.evaluate(expr), H.system.generator(name)
        for tail in map("".join, itertools.product("01", repeat=depth)):
            if g.act(cert.vertex + tail) != cert.vertex + want.act(tail):
                return False
    return True


def _verifies(H, text: str) -> bool:
    try:
        return verify_certificate(H, parse_certificate(text))
    except InputError:
        return False


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_SUBGROUPS, st.data())
def test_edited_subgroup_word_or_vertex_depth_never_verifies(words, data):
    # verification compares the subgroup words with H's; and a = (1, b) has
    # no section equal to a, so an expression whose section at v is a has
    # section a neither at v's parent nor at its children
    H, cert = _certificate(words)
    text = cert.serialize()
    edit = data.draw(st.sampled_from(["letter", "word", "longer", "shorter"]))
    if edit in ("letter", "word"):
        subgroup = list(cert.subgroup)
        i = data.draw(st.integers(0, len(subgroup) - 1))
        if edit == "word":
            subgroup[i] = data.draw(st.sampled_from([w for w in _WORDS if w != subgroup[i]]))
        else:
            w = subgroup[i]
            j = data.draw(st.integers(0, len(w) - 1))
            letter = data.draw(st.sampled_from([x for x in "aAbB" if x != w[j]]))
            subgroup[i] = w[:j] + letter + w[j + 1 :]
        edited = _with_field(text, "subgroup", ", ".join(subgroup))
    elif edit == "longer" or not cert.vertex:
        edited = _with_field(text, "vertex", cert.vertex + data.draw(st.sampled_from("01")))
    else:
        edited = _with_field(text, "vertex", cert.vertex[:-1] or "e")
    assert not _verifies(H, edited)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_SUBGROUPS, st.data())
def test_edited_vertex_digit_or_generator_token_verifies_only_if_it_holds(words, data):
    # Such an edit can leave a true certificate: the projection of <bAA, aB>
    # is the whole group at 10001 and, with the same expressions, at 10101.
    # The verdict must then agree with the vertex action.
    H, cert = _certificate(words)
    text = cert.serialize()
    key = data.draw(st.sampled_from(["vertex", "expr-a", "expr-b"]))
    if key == "vertex":
        v = cert.vertex
        assume(v)
        i = data.draw(st.integers(0, len(v) - 1))
        value = v[:i] + "10"[int(v[i])] + v[i + 1 :]
    else:
        hword = cert.expr_a if key == "expr-a" else cert.expr_b
        i = data.draw(st.integers(0, len(hword) - 1))
        letters = [l for g in range(1, len(cert.subgroup) + 1) for l in (g, -g) if l != hword[i]]
        value = hword_str(hword[:i] + (data.draw(st.sampled_from(letters)),) + hword[i + 1 :])
    edited = parse_certificate(_with_field(text, key, value))
    assert not verify_certificate(H, edited) or _acts_as_claimed(H, edited)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_SUBGROUPS, st.data())
def test_duplicated_line_never_verifies(words, data):
    # a copy of any line, as it is or with another certificate's value for
    # its key, placed anywhere: a key stated twice is refused, whichever copy
    # would have held
    H, cert = _certificate(words)
    lines = cert.serialize().splitlines(keepends=True)
    line = data.draw(st.sampled_from(lines))
    key = line.split(":", 1)[0]
    other = dict(l.split(": ", 1) for l in _CERTIFICATE.splitlines())
    copy = data.draw(st.sampled_from([line, f"{key}: {other.get(key, 'e')}\n"]))
    at = data.draw(st.integers(0, len(lines)))
    assert not _verifies(H, "".join(lines[:at] + [copy] + lines[at:]))
