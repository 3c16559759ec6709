"""Structure of the Basilica group: commutators, quotients, relators, lifts.

Everything here is specific to the system a = (1, b), b = sigma (a, 1).
The group abelianizes onto Z^2 by exponent sums, its quotient by the third
lower-central term is the discrete Heisenberg group, and the derived
subgroup B' (the elements with both exponent sums zero) has abelianization
Z^3 with basis [a,b], [a,b^-1], [a,b^2].  The lift construction below
realizes B' inside rigid vertex stabilizers, one conjugation-free
substitution step per tree level.
"""

from __future__ import annotations

from struct import Struct

from . import core
from .core import (
    BudgetExceededError,
    ConsistencyError,
    Element,
    PreconditionError,
    Record,
    basilica,
    exponent_sums,
    require_basilica,
)

#: Substitution whose image stabilizes the first level and restores the
#: original word at the right child: a -> b^2, b -> a.
LIFT_SUBSTITUTION = {"a": "bb", "b": "a"}


def commutator(g: Element, h: Element) -> Element:
    """[g, h] = g^-1 h^-1 g h."""
    return g.inverse() * h.inverse() * g * h


def alpha(s: int, t: int) -> Element:
    """The commutator [a^s, b^t] as a reduced word."""
    sys = basilica()
    a = sys.generator("a")
    b = sys.generator("b")
    return commutator(a**s, b**t)


def tau(m: int) -> Element:
    """The relator [b^-m a b^m, a]; defined for odd m >= 1."""
    if m < 1 or m % 2 == 0:
        raise PreconditionError("tau is defined for odd positive exponents")
    sys = basilica()
    a = sys.generator("a")
    b = sys.generator("b")
    return commutator(b ** (-m) * a * b**m, a)


def ab_image(g: Element) -> tuple[int, int]:
    """Exponent sums (s, t) of a and b; the abelianization onto Z^2."""
    require_basilica(g)
    return exponent_sums(g.word, 2)


def in_derived_subgroup(g: Element) -> bool:
    return ab_image(g) == (0, 0)


class HeisenbergElement(Record):
    """Normal form a^p b^q c^r in the discrete Heisenberg group, c = [a, b].

    Multiplication moves b^q past a^p' at the cost of c^(-q p'), which makes
    c central and [a, b] = c.
    """

    p: int
    q: int
    r: int

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.p + other.p,
            self.q + other.q,
            self.r + other.r - self.q * other.p,
        )

    def is_identity(self) -> bool:
        return self == HeisenbergElement(0, 0, 0)

    def __str__(self) -> str:
        return f"a^{self.p} b^{self.q} c^{self.r}"


def heis_image(g: Element) -> HeisenbergElement:
    """Image of g in the Heisenberg quotient, computed letter-wise: a^p b^q
    c^r times a^(+-1) is a^(p+-1) b^q c^(r-+q), and times b^(+-1) it is
    a^p b^(q+-1) c^r."""
    require_basilica(g)
    p = q = r = 0
    for l in g.word:
        if l == 1:
            p += 1
            r -= q
        elif l == -1:
            p -= 1
            r += q
        elif l == 2:
            q += 1
        else:
            q -= 1
    return HeisenbergElement(p, q, r)


def bprime_coords(g: Element) -> tuple[int, int, int]:
    """Coordinates of g in B'/B'' over the basis [a,b], [a,b^-1], [a,b^2].

    Reads the Heisenberg images of the two sections, which for an element of
    B' are (0, l+m, -l) and (0, -l-m, -n); any other shape means the engine's
    conventions are broken, so it raises instead of projecting.
    """
    if not in_derived_subgroup(g):
        raise PreconditionError("element is not in the derived subgroup")
    s0, s1 = g.sections()
    h0 = heis_image(s0)
    h1 = heis_image(s1)
    if h0.p != 0 or h1.p != 0 or h1.q != -h0.q:
        raise ConsistencyError(
            f"section images {h0} / {h1} violate the derived-subgroup shape"
        )
    l = -h0.r
    return (l, h0.q - l, -h1.r)


def _check_lift_budget(letters: int) -> None:
    if letters > core.MAX_CLOSURE_LETTERS:
        raise BudgetExceededError(
            f"lift would build a word of {letters} letters, more than "
            f"{core.MAX_CLOSURE_LETTERS}",
            partial=letters,
        )


def lift_section(w: Element, vertex: str) -> Element:
    """Rigid-stabilizer witness: fixes level |vertex| pointwise, restores w
    below ``vertex`` and is trivial below every other vertex of that level.

    One step lifts w in B' to the right child by the substitution a -> b^2,
    b -> a (its left section is the a-only image of w, trivial because the
    exponent sums vanish); the left child is reached by conjugating with b.
    Each step lands in B' again, so the construction recurses along the
    vertex.  The steps compose into one conjugate of the n-th power of the
    substitution, so w is substituted once.  The lifted word doubles in
    length every two levels; a lift that would build more than
    ``core.MAX_CLOSURE_LETTERS`` letters raises ``BudgetExceededError``.

    The word is assembled as packed bytes, one signed byte per letter: the
    image of w is one ``bytes.join`` of a run per letter, the conjugator's
    letters cancel only where it meets that image, and the result is
    unpacked once, by a ``Struct`` of its own length.
    """
    sys = require_basilica(w)
    if not in_derived_subgroup(w):
        raise PreconditionError("only derived-subgroup elements can be lifted")
    path = sys.parse_vertex(vertex)
    # With s the substitution and c_0 = b, c_1 = e, the step to x is
    # u -> c_x s(u) c_x^-1, so the lift at x_1 ... x_n is u -> C s^n(u) C^-1
    # with C = c_x1 s(c_x2) ... s^(n-1)(c_xn).  Level k reads s^(k-1)(b),
    # then s^k(a) = s^(k-1)(b)^2 and s^k(b) = s^(k-1)(a): powers of one
    # generator each, and C is a positive word.
    a_image, b_image, conjugator = b"\x01", b"\x02", b""
    for x in path:
        if x == 0:
            _check_lift_budget(len(conjugator) + len(b_image))
            conjugator += b_image
        _check_lift_budget(2 * len(b_image))
        a_image, b_image = b_image + b_image, a_image
    word = w.word
    packed = core._word_bytes(word)
    a_letters = packed.count(1) + packed.count(255)
    _check_lift_budget(
        a_letters * len(a_image) + (len(word) - a_letters) * len(b_image) + 2 * len(conjugator)
    )
    # s^n maps the letters of a and of b to powers of different generators,
    # so it keeps w reduced; a run of one letter is its own reverse
    invert = bytes.maketrans(b"\x01\x02", b"\xff\xfe")  # a, b -> A, B
    runs = [b"", a_image, b_image, b_image.translate(invert), a_image.translate(invert)]
    image = b"".join(map(runs.__getitem__, word))
    # C s^n(w) C^-1, reduced where the words meet as product_word reduces:
    # a letter and its inverse are bytes that sum to 256, and a letter
    # cancels into C^-1 where it equals C's letter, both read from the end
    k = 0
    while k < min(len(conjugator), len(image)) and conjugator[-1 - k] + image[k] == 256:
        k += 1
    left = conjugator[: len(conjugator) - k] + image[k:]
    k = 0
    while k < min(len(left), len(conjugator)) and left[-1 - k] == conjugator[-1 - k]:
        k += 1
    lifted = left[: len(left) - k] + conjugator[::-1][k:].translate(invert)
    return Element._reduced(sys, Struct(f"{len(lifted)}b").unpack(lifted))
