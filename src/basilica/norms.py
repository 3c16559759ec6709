"""Word norms, geodesic representatives and ball enumeration.

Balls are built by breadth-first search over freely reduced words in
length-then-lexicographic order (a < a^-1 < b < b^-1).  Each new word is
assigned to its group-element class through a level-action fingerprint
bucket confirmed by the exact decision procedure, so the first word reaching
a class is automatically its lexicographically least geodesic.  The registry
grows radius by radius and is shared per system, so repeated norm queries
reuse the ball built so far.  It holds at most ``MAX_CLASSES`` classes:
``ball``, ``norm`` and ``geodesic_rep`` raise ``BudgetExceededError`` past
that, with the last complete radius as its ``partial``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BudgetExceededError,
    Element,
    ElementIndex,
    GeneratorSystem,
    InputError,
    Word,
)

MAX_CLASSES = 120_000
# classes one system's ball registry may hold; the Basilica ball(11) has
# 114713, and each radius multiplies the count by about 2.45


@dataclass(frozen=True)
class BallClass:
    """One group element of the ball: canonical geodesic plus its norm."""

    element: Element
    norm: int

    @property
    def word(self) -> Word:
        return self.element.word


@dataclass(frozen=True)
class Ball:
    """All group elements of norm at most ``radius``, in discovery order."""

    radius: int
    classes: tuple[BallClass, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def table(self) -> str:
        """Tabular export: one `norm<TAB>geodesic` line per class."""
        lines = [
            f"{c.norm}\t{c.element.system.word_str(c.word)}" for c in self.classes
        ]
        return "\n".join(lines) + "\n"


class _BallRegistry:
    """Incremental ball of one system; deterministic expansion order."""

    def __init__(self, system: GeneratorSystem):
        self.system = system
        self.index = ElementIndex(system)
        self.norms: list[int] = []
        self.radius_done = -1
        self._frontier: list[Word] = []

    def extend(self, radius: int) -> None:
        while self.radius_done < radius:
            r = self.radius_done + 1
            words = [()] if r == 0 else list(self._expand(self._frontier))
            for w in words:
                idx, new = self.index.find_or_insert(w)
                if new:
                    self.norms.append(r)
                    if len(self.norms) > MAX_CLASSES:
                        # the classes found so far are exact; a later call
                        # at or below radius_done still reads them
                        raise BudgetExceededError(
                            f"ball radius {r} needs more than {MAX_CLASSES} classes",
                            partial=self.radius_done,
                        )
            self._frontier = words
            self.radius_done = r

    def _expand(self, frontier):
        letters = sorted(
            [i + 1 for i in range(len(self.system.names))]
            + [-(i + 1) for i in range(len(self.system.names))],
            key=lambda l: (abs(l), 0 if l > 0 else 1),
        )
        for w in frontier:
            last = w[-1] if w else 0
            for l in letters:
                if l != -last:
                    yield w + (l,)

    def find_norm(self, word: Word) -> int | None:
        idx = self.index.find_word(word)
        return None if idx is None else self.norms[idx]

    def class_at(self, idx: int) -> BallClass:
        return BallClass(Element._reduced(self.system, self.index.word_at(idx)), self.norms[idx])


def _registry(system: GeneratorSystem) -> _BallRegistry:
    if system._ball_registry is None:
        system._ball_registry = _BallRegistry(system)
    return system._ball_registry


def ball(system: GeneratorSystem, radius: int) -> Ball:
    """The ball of the given radius; deterministic class ordering."""
    if radius < 0:
        raise InputError("radius must be non-negative")
    reg = _registry(system)
    reg.extend(radius)
    classes = tuple(
        reg.class_at(i) for i in range(len(reg.norms)) if reg.norms[i] <= radius
    )
    return Ball(radius, classes)


def norm(g: Element) -> int:
    """Minimal word length representing g; zero exactly for the identity."""
    reg = _registry(g.system)
    for r in range(len(g.word) + 1):
        reg.extend(r)
        found = reg.find_norm(g.word)
        if found is not None:
            return found
    raise AssertionError("ball enumeration missed a word of its own radius")


def geodesic_rep(g: Element) -> Word:
    """Lexicographically least word of length norm(g) equal to g."""
    reg = _registry(g.system)
    norm(g)
    idx = reg.index.find_word(g.word)
    return reg.index.word_at(idx)
