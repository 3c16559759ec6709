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

from typing import NamedTuple

from .core import (
    ConsistencyError,
    Element,
    GeneratorSystem,
    PreconditionError,
    basilica,
)

#: Substitution whose image stabilizes the first level and restores the
#: original word at the right child: a -> b^2, b -> a.
LIFT_SUBSTITUTION = {"a": "bb", "b": "a"}


def require_basilica(g) -> GeneratorSystem:
    """Return the system of ``g`` after checking it is the Basilica system."""
    system = g.system if isinstance(g, Element) else g
    if system != basilica():
        raise PreconditionError("operation requires the Basilica system")
    return system


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
    s = t = 0
    for l in g.word:
        if abs(l) == 1:
            s += 1 if l > 0 else -1
        else:
            t += 1 if l > 0 else -1
    return (s, t)


def in_derived_subgroup(g: Element) -> bool:
    return ab_image(g) == (0, 0)


class HeisenbergElement(NamedTuple):
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

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.p, -self.q, -self.r - self.p * self.q)

    def is_identity(self) -> bool:
        return self == HeisenbergElement(0, 0, 0)

    def __str__(self) -> str:
        return f"a^{self.p} b^{self.q} c^{self.r}"


_HEIS_A = HeisenbergElement(1, 0, 0)
_HEIS_B = HeisenbergElement(0, 1, 0)


def heis_image(g: Element) -> HeisenbergElement:
    """Image of g in the Heisenberg quotient, computed letter-wise."""
    require_basilica(g)
    out = HeisenbergElement(0, 0, 0)
    for l in g.word:
        gen = _HEIS_A if abs(l) == 1 else _HEIS_B
        out = out * (gen if l > 0 else gen.inverse())
    return out


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


def lift_section(w: Element, vertex: str) -> Element:
    """Rigid-stabilizer witness: fixes level |vertex| pointwise, restores w
    below ``vertex`` and is trivial below every other vertex of that level.

    One step lifts w in B' to the right child by the substitution a -> b^2,
    b -> a (its left section is the a-only image of w, trivial because the
    exponent sums vanish); the left child is reached by conjugating with b.
    Each step lands in B' again, so the construction recurses along the
    vertex.
    """
    sys = require_basilica(w)
    if not in_derived_subgroup(w):
        raise PreconditionError("only derived-subgroup elements can be lifted")
    path = sys.parse_vertex(vertex)
    b = sys.generator("b")
    out = w
    for x in reversed(path):
        out = out.substitute(LIFT_SUBSTITUTION)
        if x == 0:
            out = b * out * b.inverse()
    return out
