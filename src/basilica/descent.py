"""Congruence-guided descent in the Basilica group and projection certificates.

The searches walk the move h -> section(h^2, child).  Every element whose
exponent-sum image is (1,1), (1,-1) or (-1,1) has odd b-exponent, hence a
nontrivial root permutation, so its square stabilizes the first level and
both sections are defined; squaring maps the image classes
(1,1) -> (1,1) and (1,-1) <-> (-1,1) and keeps section words no longer
than the parent word: |(g^2)_x| = |g_{g(x)} g_x| <= |g_0| + |g_1| <= |g|.
Finitely many words are that short, so breadth-first search over section
words terminates without enumerating any ball; only the goal test decides
element identity.  It must reach the target (ab, resp. b^-1 a) for inputs
in the right class.
A successful run of k moves yields the replayable witness: g^(2^k)
stabilizes the traversed vertex and its section there is the target.

The projection search chains these searches along the constructive pipeline
(coset solve for (1,1), descend to ab, the projection ``projection_pairs``
gives at that vertex, coset solve for (1,-1), descend to b^-1 a, persistence
of ab, endgame through a^2 = (1, b^2) and b^2 = (a, a)) and rewrites every
witness back into a word over the subgroup's original generators with
``substitute_word``, the substitution ``SubgroupHandle.evaluate`` replays.
Success exhibits a vertex where the subgroup projection is the full group;
it never claims prodensity of the input.
"""

from __future__ import annotations

from . import ENGINE
from .core import (
    BudgetExceededError,
    ConsistencyError,
    Element,
    ElementIndex,
    InputError,
    PreconditionError,
    Record,
    Word,
    ascii_int,
    exponent_sums,
    free_reduce,
    invert_word,
    require_basilica,
    substitute_word,
    vertex_str,
    vertex_word,
)
from .norms import geodesic_rep
from .permgrp import (
    DEFAULT_SCHREIER_CAP,
    HWord,
    SubgroupHandle,
    hword_parse,
    hword_str,
    projection_pairs,
)

DEFAULT_STATES = 100_000
# distinct section words one descent may visit
DEFAULT_DEPTH = 16
# deepest vertex a projection search may use; a certificate records both
# budgets it ran with (``budget-states``, ``budget-depth``)

CLASS_AB = (1, 1)
CLASS_AB_INV = (1, -1)
CLASS_A_INV_B = (-1, 1)

_TRANSITION = {
    CLASS_AB: CLASS_AB,
    CLASS_AB_INV: CLASS_A_INV_B,
    CLASS_A_INV_B: CLASS_AB_INV,
}


def congruence_transition(cls: tuple[int, int]) -> tuple[int, int]:
    """Image class of both sections of g^2 for g in the given class."""
    if cls not in _TRANSITION:
        raise InputError(f"no transition defined for class {cls}")
    return _TRANSITION[cls]


class DescentCertificate(Record):
    """Replayable witness that a 2-power of ``start`` projects to ``target``.

    ``start``^(2^``exponent_log``) stabilizes ``vertex`` and its section
    there equals ``target``; the step list records the child chosen at each
    squaring.
    """

    start: Element
    steps: tuple[int, ...]
    target: Element

    @property
    def exponent_log(self) -> int:
        return len(self.steps)

    @property
    def vertex(self) -> str:
        return vertex_word(self.steps)

    def replay(self) -> bool:
        """Re-check the witness with nothing but the recursion engine."""
        section = (self.start ** (2**self.exponent_log)).projection(self.steps)
        return section is not None and section == self.target


def _descend(g: Element, target: Element, allowed: tuple, max_states: int) -> DescentCertificate:
    if max_states < 0:
        raise InputError(f"descent budget must be non-negative, got {max_states}")
    # find_ab and find_b_inv_a have checked the system
    image = exponent_sums(g.word, 2)
    if image not in allowed:
        raise PreconditionError(
            f"descent requires exponent image in {allowed}, got {image}"
        )
    system = g.system
    # the goal index also holds the identity, as entry 0: a trivial state
    # finds it and then fails the root check below
    goal = ElementIndex(system)
    target_idx = goal.insert_word(geodesic_rep(target))
    visited = {g.word}
    queue: list[tuple[Word, tuple[int, ...]]] = [(g.word, ())]
    for word, path in queue:
        if goal.find_word(word) == target_idx:
            return DescentCertificate(g, path, target)
        root, sections = system._walk_level(word, 1)
        if root == (0, 1):
            raise ConsistencyError(
                "descent state has trivial root permutation; class invariant broken"
            )
        # (g^2)_x = g_{g(x)} g_x
        for x, sec in enumerate(sections):
            sec = free_reduce(sections[root[x]] + sec)
            if sec not in visited:
                visited.add(sec)
                queue.append((sec, path + (x,)))
        if len(visited) > max_states:
            raise BudgetExceededError(
                f"descent exceeded {max_states} states", partial=visited
            )
    raise ConsistencyError(
        "descent exhausted its reachable states without finding the target"
    )


def find_ab(g: Element, max_states: int = DEFAULT_STATES) -> DescentCertificate:
    """Descend from g (image (1,1)) to an exact projection equal to ab."""
    system = require_basilica(g)
    target = system.element("ab")
    return _descend(g, target, (CLASS_AB,), max_states)


def find_b_inv_a(g: Element, max_states: int = DEFAULT_STATES) -> DescentCertificate:
    """Descend from g (image (1,-1) or (-1,1)) to a projection equal to b^-1 a.

    Only positive powers are tracked: from the (1,-1) class the first
    squaring lands in (-1,1) and the second returns, so certificates always
    use exponent 2^k.
    """
    system = require_basilica(g)
    target = system.element("Ba")
    return _descend(g, target, (CLASS_AB_INV, CLASS_A_INV_B), max_states)


_PERSIST = {"ab": {0: "ba", 1: "ba"}, "ba": {0: "ba", 1: "ab"}}


def persist_ab(start: Element, vertex: str) -> tuple[int, Element]:
    """Walk ab (or ba) down a vertex by squaring; returns (k, final element).

    The transition table is ab -> ba at either child and ba -> (ba, ab);
    start^(2^k) with k = |vertex| stabilizes the vertex with the returned
    section.
    """
    system = require_basilica(start)
    path = system.parse_vertex(vertex)
    if start == system.element("ab"):
        state = "ab"
    elif start == system.element("ba"):
        state = "ba"
    else:
        raise InputError("persistence starts from ab or ba")
    for x in path:
        state = _PERSIST[state][x]
    return len(path), system.element(state)


class NotInLattice(Record):
    """Failure value of a coset solve: the target misses this lattice."""

    basis: tuple[tuple[int, int], ...]


def _lattice_reduce(columns: list[list[int]]):
    """Column-reduce a 2 x k integer matrix, tracking the transformation.

    Each column carries its row of the transformation after its two
    entries, so one list operation updates both.  Returns (the columns, the
    pivot column of row 0, that of row 1), a pivot being None when its row
    is zero; the pivots start (g1, y) and (0, g2) with g1, g2 > 0.
    """
    k = len(columns)
    work = [list(c) + [int(i == j) for i in range(k)] for j, c in enumerate(columns)]

    def reduce_row(row, exclude):
        while True:
            nz = [j for j in range(k) if j != exclude and work[j][row] != 0]
            if len(nz) <= 1:
                return nz[0] if nz else None
            j0 = min(nz, key=lambda j: abs(work[j][row]))
            for j in nz:
                if j != j0:
                    q = work[j][row] // work[j0][row]
                    work[j] = [x - q * y for x, y in zip(work[j], work[j0])]

    piv0 = reduce_row(0, None)
    piv1 = reduce_row(1, piv0)
    for row, piv in enumerate((piv0, piv1)):
        if piv is not None and work[piv][row] < 0:
            work[piv] = [-x for x in work[piv]]
    return work, piv0, piv1


def solve_coset(H: SubgroupHandle, target: tuple[int, int]):
    """Express an exponent-sum target over H's generators, if possible.

    Returns an hword realizing the target, or NotInLattice carrying a basis
    of the subgroup's exponent-sum lattice.
    """
    require_basilica(H.system)
    columns = [list(exponent_sums(g.word, 2)) for g in H.generators]
    work, piv0, piv1 = _lattice_reduce(columns)
    failure = NotInLattice(tuple(tuple(work[p][:2]) for p in (piv0, piv1) if p is not None))
    # subtract pivot columns from (target | 0) until the target part is
    # zero; the transformation part then holds minus the coefficients
    rest = list(target) + [0] * len(columns)
    for row, piv in enumerate((piv0, piv1)):
        if piv is None:
            if rest[row]:
                return failure
            continue
        q, r = divmod(rest[row], work[piv][row])
        if r:
            return failure
        rest = [x - q * y for x, y in zip(rest, work[piv])]
    letters: list[int] = []
    for i, c in enumerate(rest[2:]):
        letters.extend([-(i + 1) if c > 0 else i + 1] * abs(c))
    hword = free_reduce(letters)
    realized = exponent_sums(H.evaluate(hword).word, 2)
    if realized != target:
        raise ConsistencyError(f"coset solve produced image {realized} != {target}")
    return hword


def _hword_pow(hword: HWord, n: int) -> HWord:
    return free_reduce(hword * n)


_BUDGET_KEYS = ("states", "schreier", "depth")
# the certificate lines before the stage lines, in order
_FIELDS = (
    "basilica-certificate",
    "engine",
    "subgroup",
    "vertex",
    "expr-a",
    "expr-b",
    *(f"budget-{key}" for key in _BUDGET_KEYS),
)


class ProdenseCertificate(Record):
    """Checkable witness that the subgroup's projection at ``vertex`` is the
    whole group: two expressions over the original subgroup generators whose
    sections at the vertex are a and b."""

    subgroup: tuple[str, ...]
    stages: tuple[str, ...]
    vertex: str
    expr_a: HWord
    expr_b: HWord
    budgets: dict
    engine: str = ENGINE

    def serialize(self) -> str:
        values = (
            1,
            self.engine,
            ", ".join(self.subgroup),
            vertex_str(self.vertex),
            hword_str(self.expr_a),
            hword_str(self.expr_b),
            *(self.budgets[key] for key in _BUDGET_KEYS),
        )
        lines = [f"{field}: {value}" for field, value in zip(_FIELDS, values)]
        lines.extend(f"stage{i + 1}: {s}" for i, s in enumerate(self.stages))
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> ProdenseCertificate:
    """Unknown keys are ignored; a key or stage label stated twice, like a
    missing field, raises ``InputError``."""
    fields: dict[str, str] = {}
    stages: dict[int, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"bad certificate line: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        table, name = (stages, ascii_int(key[5:])) if key.startswith("stage") else (fields, key)
        if name is None:
            raise InputError(f"bad stage label {key!r}")
        if name in table:
            raise InputError(f"certificate states {key!r} twice")
        table[name] = value
    missing = set(_FIELDS) - set(fields)
    if missing:
        raise InputError(f"certificate misses fields: {sorted(missing)}")
    if fields["basilica-certificate"] != "1":
        raise InputError("unsupported certificate version")
    subgroup = tuple(w.strip() for w in fields["subgroup"].split(",") if w.strip())
    ngens = len(subgroup)
    budgets = {key: ascii_int(fields[f"budget-{key}"]) for key in _BUDGET_KEYS}
    if None in budgets.values():
        raise InputError("bad budget value")
    return ProdenseCertificate(
        subgroup=subgroup,
        stages=tuple(stages[label] for label in sorted(stages)),
        vertex=fields["vertex"],
        expr_a=hword_parse(fields["expr-a"], ngens),
        expr_b=hword_parse(fields["expr-b"], ngens),
        budgets=budgets,
        engine=fields["engine"],
    )


class FailureReport(Record):
    """Negative or aborted outcome of the projection search."""

    stage: int
    reason: str
    lattice: tuple[tuple[int, int], ...] | None
    budgets: dict
    trace: tuple[str, ...] = ()

    def describe(self) -> str:
        parts = [f"stage={self.stage}", self.reason]
        if self.lattice is not None:
            basis = " ".join(f"({v[0]},{v[1]})" for v in self.lattice) or "(empty)"
            parts.append(f"lattice={basis}")
        return " ".join(parts)


def prodense_projection_search(
    H: SubgroupHandle,
    max_states: int = DEFAULT_STATES,
    schreier_cap: int = DEFAULT_SCHREIER_CAP,
    max_depth: int = DEFAULT_DEPTH,
):
    """Run the projection pipeline; a certificate on success, else a report.

    Stages: (1) solve the (1,1) coset over H, (2) descend it to ab at a
    vertex v, (3) compute stabilizer generators of v with their sections,
    (4) solve the (1,-1) coset over the projection, (5) descend to b^-1 a at
    v', (6) persist ab down v' and finish through a^2 or b^2.  Every witness
    is rewritten over H's original generators, so the certificate can be
    replayed without trusting any of this code.  A negative budget raises
    ``InputError``, since a certificate records its budgets as decimals.
    """
    require_basilica(H.system)
    system = H.system
    budgets = dict(zip(_BUDGET_KEYS, (max_states, schreier_cap, max_depth)))
    for key, value in budgets.items():
        if value < 0:
            raise InputError(f"budget-{key} must be non-negative, got {value}")
    stages: list[str] = []

    def fail(stage, reason, lattice=None):
        return FailureReport(stage, reason, lattice, budgets, tuple(stages))

    # stage 1: an element of H congruent to ab
    solved = solve_coset(H, CLASS_AB)
    if isinstance(solved, NotInLattice):
        return fail(1, "target (1,1) not in the exponent lattice", solved.basis)
    expr_h = solved
    h = H.evaluate(expr_h)
    stages.append(f"coset target (1,1) expr {hword_str(expr_h)}")

    # stage 2: descend to ab at v
    try:
        cert_ab = find_ab(h, max_states=max_states)
    except BudgetExceededError as exc:
        return fail(2, f"descent budget exhausted ({exc})")
    v = cert_ab.vertex
    k = cert_ab.exponent_log
    if len(v) > max_depth:
        return fail(2, f"descent vertex deeper than {max_depth}")
    expr_ab_at_v = _hword_pow(expr_h, 2**k)
    stages.append(f"descend-ab vertex {vertex_str(v)} k {k}")

    # stage 3: generators of the projection H_v, paired with expressions
    pairs = projection_pairs(H, v, cap=schreier_cap)
    stages.append(f"stabilizer vertex {vertex_str(v)} generators {len(pairs)}")
    projection = SubgroupHandle(system, [sec for sec, _ in pairs])

    # stage 4: an element of H_v congruent to a b^-1
    solved = solve_coset(projection, CLASS_AB_INV)
    if isinstance(solved, NotInLattice):
        return fail(4, "target (1,-1) not in the exponent lattice", solved.basis)
    hprime = projection.evaluate(solved)
    expr_hprime = free_reduce(substitute_word(solved, [hw for _, hw in pairs]))
    stages.append(f"coset target (1,-1) expr {hword_str(solved)} over stabilizer generators")

    # stage 5: descend to b^-1 a at v'
    try:
        cert_ba = find_b_inv_a(hprime, max_states=max_states)
    except BudgetExceededError as exc:
        return fail(5, f"descent budget exhausted ({exc})")
    vprime = cert_ba.vertex
    kprime = cert_ba.exponent_log
    if len(v) + len(vprime) + 2 > max_depth:
        return fail(5, f"combined vertex deeper than {max_depth}")
    expr_binva = _hword_pow(expr_hprime, 2**kprime)
    stages.append(f"descend-binva vertex {vertex_str(vprime)} k {kprime}")

    # stage 6: persist ab down v' and assemble the endgame
    _, final = persist_ab(system.element("ab"), vprime)
    expr_persist = _hword_pow(expr_ab_at_v, 2 ** len(vprime))
    if final == system.element("ab"):
        # ab and b^-1 a give a^2 = (1, b^2), b^2 = (a, a): descend "11"
        vertex = v + vprime + "11"
        expr_a = free_reduce(expr_persist + expr_binva)
        expr_ab_deep = _hword_pow(expr_persist, 4)
        final_tag = "ab"
    else:
        # ba and b^-1 a give b^2 = (a, a): descend "1"
        vertex = v + vprime + "1"
        expr_a = free_reduce(expr_persist + invert_word(expr_binva))
        expr_ab_deep = _hword_pow(expr_persist, 2)
        final_tag = "ba"
    expr_b = free_reduce(invert_word(expr_a) + expr_ab_deep)
    stages.append(f"persist vertex {vertex_str(vprime)} final {final_tag}")

    certificate = ProdenseCertificate(
        subgroup=H.words(),
        stages=tuple(stages),
        vertex=vertex,
        expr_a=expr_a,
        expr_b=expr_b,
        budgets=budgets,
    )
    if not verify_certificate(H, certificate):
        raise ConsistencyError("search assembled a certificate that fails replay")
    return certificate


def verify_certificate(H: SubgroupHandle, cert: ProdenseCertificate) -> bool:
    """Independent replay: nothing is re-derived, only checked.

    Confirms the expressions use H's generators, stabilize the vertex
    pointwise along the path, and section to a and b.  Malformed
    certificates raise InputError; honest mismatches return False.
    """
    system = require_basilica(H.system)
    elements = [H.evaluate(expr) for expr in (cert.expr_a, cert.expr_b)]
    path = system.parse_vertex(cert.vertex)
    if tuple(cert.subgroup) != H.words():
        return False
    for elem, name in zip(elements, "ab"):
        section = elem.projection(path)
        if section is None or section != system.generator(name):
            return False
    return True
