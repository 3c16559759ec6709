"""Word norms, geodesic representatives and ball enumeration.

Balls are built radius by radius in length-then-lexicographic order
(a < a^-1 < b < b^-1).  The registry is an ``ElementIndex`` (level-action
fingerprint buckets confirmed by the exact decision procedure) that adds
only the completed radius, the class ``Element``s and the letter order.
Each word tried is assigned to its group-element class, so the first word
reaching a class is its shortlex-least geodesic, the class representative,
whose length is the class's norm.  A prefix of such a geodesic is one
itself, so radius r + 1 tries only the one-letter extensions of the norm-r
representatives, found by length in the registry's ``words`` with
``bisect``; a suffix is one too, so it keys only those whose last r letters
are a representative's word (one dict read each), each from its parent's
entry with one ``bytes.translate``, all in one ``grow_sphere`` pass.  The
registry is shared per system, so repeated norm queries reuse the ball
built so far.  A ball holds its classes as the ``Element``s of their
representatives, each built once and shared by every later ``ball``; a
class's norm is its word's length.  A ``norm`` or ``geodesic_rep`` read is
one ``find_word`` on the registry: a representative is found by the word,
with no fingerprint and no decision, and any other word is keyed from its
longest registered prefix, which prefix closure makes a geodesic itself.
The registry is complete up to ``radius_done``: a word no longer than that
has no larger norm, so its class is registered in the word's bucket, and
the read passes ``complete`` to confirm every entry but the last and take
the last unchecked.  A longer word has every entry confirmed, and grows the
ball until it is found.  The registry holds at most ``MAX_CLASSES``
classes: ``ball``, ``norm`` and ``geodesic_rep`` raise
``BudgetExceededError`` past that, with the last complete radius as its
``partial``, having registered words of the next length only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial

from .core import (
    BudgetExceededError,
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
    its classes' representatives; deterministic expansion order."""

    def __init__(self, system: GeneratorSystem):
        super().__init__(system)
        self.radius_done = 0
        # the class elements ``ball`` has handed out, in index order
        self.classes: list[Element] = []
        # a < a^-1 < b < b^-1 < ...
        self._letters = [l for i in range(len(system.names)) for l in (i + 1, -(i + 1))]

    def extend(self, radius: int) -> None:
        """Enumerate the classes up to ``radius``.

        A prefix of a shortlex-least geodesic is one itself, so every class
        of norm r first appears among the one-letter extensions of the
        norm-(r - 1) classes, in the same order as among all reduced words
        of length r.  The suffix rule prunes those: if x.v is the
        shortlex-least word of its class, so is v of its own, since a
        shorter word for v would shorten x.v and a lex-smaller one would
        make x.v lex-smaller.  So an extension w.l whose suffix w[1:].l is
        no class's representative is no new class: the class's
        shortlex-least word came earlier, in an earlier radius or under an
        earlier parent or letter, and is registered.  Only the extensions
        that pass are keyed from their parent's entry and confirmed against
        their bucket.  The norm-(r - 1) classes are read back from the
        registry by length; it may already hold some classes of norm r from
        a pass a budget stopped.
        """
        words = self.words
        while self.radius_done < radius:
            r = self.radius_done + 1
            first, stop = bisect_left(words, r - 1, key=len), bisect_left(words, r, key=len)
            if not self.grow_sphere(first, stop, self._letters, MAX_CLASSES):
                # the classes found so far are exact; a later call at or
                # below radius_done still reads them
                raise BudgetExceededError(
                    f"ball radius {r} needs more than {MAX_CLASSES} classes",
                    partial=self.radius_done,
                )
            self.radius_done = r


def _registry(system: GeneratorSystem) -> _BallRegistry:
    if system._ball_registry is None:
        system._ball_registry = _BallRegistry(system)
    return system._ball_registry


def ball(system: GeneratorSystem, radius: int) -> Ball:
    """The ball of the given radius; deterministic class ordering.  Each
    class element is built once per registry and shared by every later ball."""
    require_count(radius, "radius")
    reg = _registry(system)
    reg.extend(radius)
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
        reg.extend(reg.radius_done + 1)
    return reg, idx


def norm(g: Element) -> int:
    """Minimal word length representing g; zero exactly for the identity."""
    reg, idx = _find(g)
    return len(reg.words[idx])


def geodesic_rep(g: Element) -> Word:
    """Lexicographically least word of length norm(g) equal to g."""
    reg, idx = _find(g)
    return reg.words[idx]
