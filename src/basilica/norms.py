"""Word norms, geodesic representatives and ball enumeration.

A system's ball is one ``ElementIndex``, shared per system and grown with
``ElementIndex.grow``, one pass per sphere, in length-then-lexicographic
order (a < a^-1 < b < b^-1); its docstring gives the rule that prunes each
pass.  The first word reaching a class is its shortlex-least geodesic, the
class representative, whose length is the class's norm, so repeated norm
queries reuse the ball built so far.  The registry adds only the class
``Element``s a ``ball`` hands out, each built once and shared by every
later ``ball``.  A ``norm`` or ``geodesic_rep`` read is one ``find_word``
on the registry: a representative is found by the word, with no
fingerprint and no decision, and any other word is keyed from its longest
registered prefix, which prefix closure makes a geodesic itself.  The
registry is complete up to ``radius_done``: a word no longer than that has
no larger norm, so its class is registered in the word's bucket, and the
read passes ``complete`` to confirm every entry but the last and take the
last unchecked.  A longer word has every entry confirmed, and grows the
ball until it is found.  The registry holds at most ``MAX_CLASSES``
classes: ``ball``, ``norm`` and ``geodesic_rep`` raise
``BudgetExceededError`` past that, with the last complete radius as its
``partial``, having registered words of the next length only.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial

from .core import (
    ConsistencyError,
    Element,
    ElementIndex,
    GeneratorSystem,
    Record,
    Word,
    require_count,
)

MAX_CLASSES = 120_000
# classes one system's ball registry may hold; the Basilica ball(11) has
# 114713, and each radius multiplies the count by about 2.45


class Ball(Record):
    """All group elements of norm at most ``radius``, in discovery order."""

    radius: int
    classes: tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def table(self) -> str:
        """Tabular export: one `norm<TAB>geodesic` line per class."""
        lines = [f"{len(g.word)}\t{g.system.word_str(g.word)}" for g in self.classes]
        return "\n".join(lines) + "\n"


class _BallRegistry(ElementIndex):
    """Incremental ball of one system, an ``ElementIndex`` whose entries are
    its classes' representatives, grown with ``grow``."""

    def __init__(self, system: GeneratorSystem):
        super().__init__(system)
        # the class elements ``ball`` has handed out, in index order
        self.classes: list[Element] = []


def _registry(system: GeneratorSystem) -> _BallRegistry:
    if system._ball_registry is None:
        system._ball_registry = _BallRegistry(system)
    return system._ball_registry


def ball(system: GeneratorSystem, radius: int) -> Ball:
    """The ball of the given radius; deterministic class ordering.  Each
    class element is built once per registry and shared by every later ball."""
    require_count(radius, "radius")
    reg = _registry(system)
    reg.grow(radius, MAX_CLASSES)
    count = bisect_right(reg.words, radius, key=len)
    classes = reg.classes
    classes += map(partial(Element._reduced, system), reg.words[len(classes):count])
    return Ball(radius, tuple(classes[:count]))


def _find(g: Element) -> tuple[_BallRegistry, int]:
    """The registry of g's system and the index of g's class in it, growing
    the ball one radius at a time until it holds g."""
    reg = g.system._ball_registry or _registry(g.system)
    word = g.word
    while (idx := reg.find_word(word, done := len(word) <= reg.radius_done)) is None:
        if done:
            raise ConsistencyError("ball enumeration missed a word of its own radius")
        reg.grow(reg.radius_done + 1, MAX_CLASSES)
    return reg, idx


def norm(g: Element) -> int:
    """Minimal word length representing g; zero exactly for the identity."""
    reg, idx = _find(g)
    return len(reg.words[idx])


def geodesic_rep(g: Element) -> Word:
    """Lexicographically least word of length norm(g) equal to g."""
    reg, idx = _find(g)
    return reg.words[idx]
