"""Finite permutation machinery for level actions of finitely generated
subgroups: orbits with Schreier transversals, stabilizer generators, exact
group orders via a stabilizer chain, and full-level-quotient tests.

Subgroup elements are tracked together with their expressions over the
subgroup's own generators (an "hword": signed 1-based indices into the
generator list), so downstream certificate construction never has to trust
intermediate rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Element,
    ElementIndex,
    GeneratorSystem,
    InputError,
    Perm,
    free_reduce,
    invert_word,
)

HWord = tuple[int, ...]
# a word over a subgroup's generator list; letter +(i+1) is generator i,
# -(i+1) its inverse


def hword_str(hword: Sequence[int]) -> str:
    """Tokens like ``g0 g1 G0`` (uppercase marks the inverse)."""
    if not hword:
        return "e"
    return " ".join(f"g{l - 1}" if l > 0 else f"G{-l - 1}" for l in hword)


def hword_parse(text: str, num_generators: int) -> HWord:
    text = text.strip()
    if text == "e" or not text:
        return ()
    letters = []
    for tok in text.split():
        if len(tok) < 2 or tok[0] not in "gG" or not tok[1:].isdigit():
            raise InputError(f"bad generator token {tok!r}")
        idx = int(tok[1:])
        if idx >= num_generators:
            raise InputError(f"token {tok!r} names a generator outside the subgroup")
        letters.append(idx + 1 if tok[0] == "g" else -(idx + 1))
    return tuple(letters)


class SubgroupHandle:
    """A finitely generated subgroup, given by a list of generator elements."""

    def __init__(self, system: GeneratorSystem, generators: Sequence[Element]):
        for g in generators:
            if not (g.system is system or g.system == system):
                raise InputError("subgroup generators must live in the given system")
        self.system = system
        self.generators = tuple(generators)

    @classmethod
    def from_words(cls, system: GeneratorSystem, words: Sequence[str]) -> "SubgroupHandle":
        return cls(system, [system.element(w) for w in words])

    def evaluate(self, hword: Sequence[int]) -> Element:
        """The element denoted by a word over this subgroup's generators."""
        out = self.system.identity()
        for l in hword:
            if l == 0 or abs(l) > len(self.generators):
                raise InputError(f"hword letter {l} outside the generator range")
            g = self.generators[abs(l) - 1]
            out = out * (g if l > 0 else g.inverse())
        return out

    def words(self) -> tuple[str, ...]:
        return tuple(self.system.word_str(g.word) for g in self.generators)

    def __repr__(self) -> str:
        return f"SubgroupHandle(<{', '.join(self.words())}>)"


@dataclass(frozen=True)
class SchreierTable:
    """Orbit of a vertex with one transversal hword per orbit point."""

    base: str
    orbit: tuple[str, ...]
    transversal: dict[str, HWord]

    def table(self) -> str:
        lines = [f"{v}\t{hword_str(self.transversal[v])}" for v in self.orbit]
        return "\n".join(lines) + "\n"


def orbit(H: SubgroupHandle, vertex: str) -> SchreierTable:
    """BFS orbit of a vertex under the subgroup's generator actions."""
    H.system.parse_vertex(vertex)
    transversal: dict[str, HWord] = {vertex: ()}
    queue = [vertex]
    moves = []
    for i, g in enumerate(H.generators):
        moves.append((i + 1, g))
        moves.append((-(i + 1), g.inverse()))
    while queue:
        u = queue.pop(0)
        for letter, g in moves:
            w = g.act(u)
            if w not in transversal:
                transversal[w] = free_reduce((letter,) + transversal[u])
                queue.append(w)
    return SchreierTable(vertex, tuple(sorted(transversal)), transversal)


def stabilizer_generator_pairs(
    H: SubgroupHandle, vertex: str, cap: int = 64
) -> list[tuple[Element, HWord]]:
    """Schreier generators of the vertex stabilizer with their hwords.

    Trivial generators are dropped and duplicates removed by exact equality,
    keeping at most ``cap`` survivors with shorter elements preferred.
    """
    tab = orbit(H, vertex)
    candidates: list[tuple[Element, HWord]] = []
    for u in tab.orbit:
        for i, g in enumerate(H.generators):
            w = g.act(u)
            hw = free_reduce(
                invert_word(tab.transversal[w]) + (i + 1,) + tab.transversal[u]
            )
            candidates.append((H.evaluate(hw), hw))
    candidates.sort(key=lambda pair: (len(pair[0].word), pair[0].word, len(pair[1])))
    index = ElementIndex(H.system)
    survivors: list[tuple[Element, HWord]] = []
    for elem, hw in candidates:
        if elem.is_trivial():
            continue
        _, new = index.find_or_insert(elem.word)
        if new:
            survivors.append((elem, hw))
            if len(survivors) >= cap:
                break
    return survivors


def stabilizer_generators(H: SubgroupHandle, vertex: str, cap: int = 64) -> list[Element]:
    """Generators of the stabilizer of ``vertex`` in H."""
    return [elem for elem, _ in stabilizer_generator_pairs(H, vertex, cap)]


def projected_subgroup(H: SubgroupHandle, vertex: str, cap: int = 64) -> SubgroupHandle:
    """The projection H_v: sections at v of the vertex-stabilizer generators."""
    sections = []
    for s in stabilizer_generators(H, vertex, cap):
        sec = s.section_at_vertex(vertex)
        if not sec.is_trivial():
            sections.append(sec)
    return SubgroupHandle(H.system, sections)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[y] for y in q)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def group_order(perms: Sequence) -> int:
    """Order of the group generated by permutations (stabilizer chain).

    Accepts Perm instances or plain image tuples; exact arbitrary-precision
    arithmetic throughout.  Base points are chosen as the smallest moved
    point, so the chain is deterministic.  Generator lists per level are
    cumulative: level i holds every strong generator fixing the first i base
    points, and a level is verified by stripping all its Schreier generators
    through the deeper chain.
    """
    gens = []
    degree = None
    for p in perms:
        images = p.images if isinstance(p, Perm) else tuple(p)
        if degree is None:
            degree = len(images)
        elif len(images) != degree:
            raise InputError("permutations act on different point sets")
        if any(images[x] != x for x in range(len(images))):
            gens.append(images)
    if not gens:
        return 1
    identity = tuple(range(degree))

    class _Level:
        __slots__ = ("base", "gens", "gen_set", "points", "trans", "pending")

        def __init__(self, base):
            self.base = base
            self.gens = []
            self.gen_set = set()
            self.points = [base]  # append-only orbit, discovery order
            self.trans = {base: identity}
            self.pending = []  # (point, gen) Schreier pairs not yet verified

    levels: list[_Level] = []

    def extend_orbit(lv):
        i = 0
        while i < len(lv.points):
            x = lv.points[i]
            ux = lv.trans[x]
            for g in lv.gens:
                y = g[x]
                if y not in lv.trans:
                    lv.trans[y] = _compose(g, ux)
                    lv.points.append(y)
                    lv.pending.extend((y, h) for h in lv.gens)
            i += 1

    def add_gen_to_level(lv, p):
        if p in lv.gen_set:
            return False
        lv.gens.append(p)
        lv.gen_set.add(p)
        lv.pending.extend((x, p) for x in lv.points)
        extend_orbit(lv)
        return True

    def strip(p, start):
        for i in range(start, len(levels)):
            lv = levels[i]
            y = p[lv.base]
            if y not in lv.trans:
                return p, i
            p = _compose(_invert(lv.trans[y]), p)
        return p, len(levels)

    def insert(p, start, stop):
        # p fixes every base above `start`; register it on levels start..stop
        if stop == len(levels):
            levels.append(_Level(min(x for x in range(degree) if p[x] != x)))
        changed = False
        for j in range(start, stop + 1):
            changed = add_gen_to_level(levels[j], p) or changed
        if changed:
            for j in range(stop, start - 1, -1):
                process_level(j)

    def process_level(i):
        # verified pairs stay members when deeper groups grow, so each
        # Schreier pair is processed exactly once
        lv = levels[i]
        while lv.pending:
            x, g = lv.pending.pop()
            schreier = _compose(_invert(lv.trans[g[x]]), _compose(g, lv.trans[x]))
            if schreier == identity:
                continue
            residue, lev = strip(schreier, i + 1)
            if residue != identity:
                insert(residue, i + 1, lev)

    for p in gens:
        residue, lev = strip(p, 0)
        if residue != identity:
            insert(residue, 0, lev)
    order = 1
    for lv in levels:
        order *= len(lv.points)
    return order


def level_perms(system: GeneratorSystem, elements: Sequence[Element], n: int) -> list[Perm]:
    return [g.level_perm(n) for g in elements]


def level_quotient_equals_full(H: SubgroupHandle, n: int) -> bool:
    """Whether H surjects onto the full group's level-n quotient."""
    system = H.system
    cache = system._full_level_orders
    if n not in cache:
        cache[n] = group_order(level_perms(system, system.generators(), n))
    sub = group_order(level_perms(system, H.generators, n))
    return sub == cache[n]
