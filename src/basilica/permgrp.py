"""Finite permutation machinery for level actions of finitely generated
subgroups: orbits with Schreier transversals, stabilizer generators and the
projections they give, and the entry points for exact group orders and
full-level-quotient tests.

Those two questions are decided in ``quotients``, which ``group_order`` and
``level_quotient_equals_full`` import inside their bodies, so a caller that
never needs an order does not load it.

Subgroup elements are tracked together with their expressions over the
subgroup's own generators (an "hword", in ``certificate``'s syntax: signed
1-based indices into the generator list), so downstream certificate
construction never has to trust intermediate rewriting.  ``projected_subgroup``
gives H_v with each generator's expression over the subgroup a chain of
projections started from, so (H_u)_w is H_(uw) expressed over H.
"""

from __future__ import annotations

from typing import Sequence

from .certificate import DEFAULT_SCHREIER_CAP, HWord, evaluate_hword, hword_str
from .core import (
    Element,
    ElementIndex,
    GeneratorSystem,
    InputError,
    Perm,
    Record,
    Word,
    free_reduce,
    invert_images,
    invert_word,
    product_word,
    require_count,
    substitute_word,
    vertex_str,
    vertex_word,
)


class SubgroupHandle:
    """A finitely generated subgroup, given by a list of generator elements.
    A projection's ``expressions`` hold, per generator, the hword of its
    stabilizer element over the subgroup its chain of projections started
    from; they are None for a subgroup given by its own generators."""

    def __init__(self, system: GeneratorSystem, generators: Sequence[Element], expressions=None):
        for g in generators:
            if not (g.system is system or g.system == system):
                raise InputError("subgroup generators must live in the given system")
        self.system = system
        self.generators = tuple(generators)
        self.expressions = None if expressions is None else tuple(expressions)

    @classmethod
    def from_words(cls, system: GeneratorSystem, words: Sequence[str]) -> "SubgroupHandle":
        return cls(system, [system.element(w) for w in words])

    def evaluate(self, hword: Sequence[int]) -> Element:
        """The element denoted by a word over this subgroup's generators."""
        words = [g.word for g in self.generators]  # each reduced and in range
        return Element._reduced(self.system, evaluate_hword(hword, words))

    def express(self, hword: HWord) -> HWord:
        """An hword over the generators as one over the starting subgroup's;
        unchanged for a subgroup given by its own generators."""
        if self.expressions is None:
            return hword
        return free_reduce(substitute_word(hword, self.expressions))

    def words(self) -> tuple[str, ...]:
        return tuple(self.system.word_str(g.word) for g in self.generators)

    def __repr__(self) -> str:
        return f"SubgroupHandle(<{', '.join(self.words())}>)"


class SchreierTable(Record):
    """Orbit of a vertex as its transversal: one hword per point, in vertex order."""

    transversal: dict[str, HWord]

    @property
    def orbit(self) -> tuple[str, ...]:
        return tuple(self.transversal)

    def table(self) -> str:
        lines = [f"{vertex_str(v)}\t{hword_str(hw)}" for v, hw in self.transversal.items()]
        return "\n".join(lines) + "\n"


def _schreier_search(H: SubgroupHandle, vertex: str) -> tuple[int, list, dict[int, HWord]]:
    """The vertex's level n, the generators' level-n images, and the orbit
    of the vertex's index in BFS order under g1, g1^-1, g2, g2^-1, ..., each
    point with the hword of an element taking the vertex there."""
    path = H.system.parse_vertex(vertex)
    perms = [H.system.word_level_perm(g.word, len(path)) for g in H.generators]
    moves = []
    for i, p in enumerate(perms):
        moves += [(i + 1, p), (-(i + 1), invert_images(p))]
    start = int(vertex_word(path) or "0", H.system.alphabet_size)
    transversal: dict[int, HWord] = {start: ()}
    queue = [start]
    for u in queue:  # the loop reaches the points appended below
        for letter, p in moves:
            w = p[u]
            if w not in transversal:
                # already reduced: the inverse of u's first letter leads back
                # to u's parent, which is visited, so it never reaches w
                transversal[w] = (letter,) + transversal[u]
                queue.append(w)
    return len(path), perms, transversal


def orbit(H: SubgroupHandle, vertex: str) -> SchreierTable:
    """Orbit of a vertex under the subgroup's generators, with BFS transversal hwords.

    A subgroup with generators raises ``BudgetExceededError`` before any
    search when the vertex's level has more than ``core.MAX_LEVEL_POINTS``
    vertices (binary depth past 16).
    """
    n, _, found = _schreier_search(H, vertex)
    # point indices of one level sort as their vertex strings do
    return SchreierTable({vertex_word(H.system._point_path(u, n)): found[u] for u in sorted(found)})


def stabilizer_generator_pairs(
    H: SubgroupHandle, vertex: str, cap: int = DEFAULT_SCHREIER_CAP
) -> list[tuple[Element, HWord]]:
    """Schreier generators of the vertex stabilizer with their hwords.

    One exact lookup in an index, which holds the identity, drops trivial
    and repeated elements; at most ``cap`` survive, shorter ones first.
    The candidates are words; an ``Element`` is built for a survivor only.
    Raises ``InputError`` when ``cap`` is not a non-negative int.
    """
    require_count(cap, "stabilizer cap")
    _, perms, transversal = _schreier_search(H, vertex)
    gen_words = [g.word for g in H.generators]
    candidates: list[tuple[Word, HWord]] = []
    # point indices of one level sort as their vertex strings do
    for u in sorted(transversal):
        for i, p in enumerate(perms):
            hw = product_word(product_word(invert_word(transversal[p[u]]), (i + 1,)), transversal[u])
            candidates.append((evaluate_hword(hw, gen_words), hw))
    candidates.sort(key=lambda pair: (len(pair[0]), pair[0], len(pair[1])))
    index = ElementIndex(H.system)
    survivors: list[tuple[Element, HWord]] = []
    for word, hw in candidates:
        if len(survivors) >= cap:
            break
        if index.find_word(word) is None:
            index.insert_word(word)
            survivors.append((Element._reduced(H.system, word), hw))
    return survivors


def projected_subgroup(
    H: SubgroupHandle, vertex: str, cap: int = DEFAULT_SCHREIER_CAP
) -> SubgroupHandle:
    """The projection H_v: the nontrivial sections at v of the
    vertex-stabilizer generators, in their order, each expressed by
    ``H.express`` of its stabilizer generator's hword."""
    path = H.system.parse_vertex(vertex)
    generators, expressions = [], []
    for elem, hw in stabilizer_generator_pairs(H, vertex, cap):
        sec = Element._reduced(H.system, H.system.word_at(elem.word, path)[1])
        if not sec.is_trivial():
            generators.append(sec)
            expressions.append(H.express(hw))
    return SubgroupHandle(H.system, generators, expressions)


def group_order(perms: Sequence) -> int:
    """Order of the group generated by ``Perm`` instances or image tuples of
    one degree; exact.  A tuple that is not a permutation raises
    ``InputError``.  ``quotients`` picks the method from the input."""
    from . import quotients

    return quotients._chain(perms)[0]


def level_perms(system: GeneratorSystem, elements: Sequence[Element], n: int) -> list[Perm]:
    return [g.level_perm(n) for g in elements]


def level_quotient_equals_full(H: SubgroupHandle, n: int) -> bool:
    """Whether H surjects onto the full group's level-n quotient G_n; decided
    by ``quotients.equals_full``, whose docstring gives the argument."""
    from . import quotients

    return quotients.equals_full(H.system, [g.word for g in H.generators], n)
