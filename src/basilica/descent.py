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
(coset solve for (1,1), descend to ab, the projection ``projected_subgroup``
gives at that vertex, coset solve for (1,-1), descend to b^-1 a, persistence
of ab, endgame through a^2 = (1, b^2) and b^2 = (a, a)) and rewrites every
witness back into a word over the subgroup's original generators, through
the projection's ``express``.  When the (1,-1) coset misses the capped
projection at a vertex of depth 2 or more, the search takes that projection
again one level at a time, (H_u)_w = H_(uw), each level capped alike.
Success exhibits a vertex where the subgroup projection is the full group,
as a ``certificate.ProdenseCertificate``; it never claims prodensity of the
input.
"""

from __future__ import annotations

from .certificate import (  # perfbench/workloads.py reads parse_certificate here
    _BUDGET_KEYS, DEFAULT_DEPTH, DEFAULT_SCHREIER_CAP, DEFAULT_STATES, HWord,
    ProdenseCertificate, hword_str, parse_certificate, replay,
)
from .core import (
    BudgetExceededError,
    ConsistencyError,
    Element,
    ElementIndex,
    InputError,
    PreconditionError,
    Record,
    Word,
    exponent_sums,
    invert_word,
    power_word,
    product_word,
    require_basilica,
    require_count,
    vertex_str,
    vertex_word,
)
from .norms import geodesic_rep
from .permgrp import SubgroupHandle, projected_subgroup

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
    require_count(max_states, "descent budget")
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
            sec = product_word(sections[root[x]], sec)
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
    # one run of one sign per generator, so the word is reduced
    hword: HWord = ()
    for i, c in enumerate(rest[2:]):
        hword += (-(i + 1) if c > 0 else i + 1,) * abs(c)
    realized = exponent_sums(H.evaluate(hword).word, 2)
    if realized != target:
        raise ConsistencyError(f"coset solve produced image {realized} != {target}")
    return hword


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
    vertex v, (3) project H to v, (4) solve the (1,-1) coset over the
    projection, taken again level by level after a miss at depth 2 or more,
    (5) descend to b^-1 a at v', (6) persist ab down v' and finish through
    a^2 or b^2.  Every witness is rewritten over H's original generators, so
    the certificate can be replayed without trusting any of this code.  A budget that is not a
    non-negative int raises ``InputError``, since a certificate records its
    budgets as decimals; ``max_depth`` admits a vertex exactly that deep.
    """
    require_basilica(H.system)
    system = H.system
    budgets = dict(zip(_BUDGET_KEYS, (max_states, schreier_cap, max_depth)))
    for key, value in budgets.items():
        require_count(value, f"budget-{key}")
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
    expr_ab_at_v = power_word(expr_h, 2**k)
    stages.append(f"descend-ab vertex {vertex_str(v)} k {k}")

    # stage 3: generators of the projection H_v, with expressions over H
    projection = projected_subgroup(H, v, cap=schreier_cap)
    stages.append(f"stabilizer vertex {vertex_str(v)} generators {len(projection.generators)}")

    # stage 4: an element of H_v congruent to a b^-1; a miss in the capped
    # full-level projection at depth 2 or more is tried again level by level
    solved = solve_coset(projection, CLASS_AB_INV)
    if isinstance(solved, NotInLattice) and len(v) > 1:
        step = H
        for x in v:
            step = projected_subgroup(step, x, cap=schreier_cap)
        count = len(step.generators)
        stages.append(f"stabilizer vertex {vertex_str(v)} level by level generators {count}")
        if not isinstance(retried := solve_coset(step, CLASS_AB_INV), NotInLattice):
            projection, solved = step, retried
    if isinstance(solved, NotInLattice):
        return fail(4, "target (1,-1) not in the exponent lattice", solved.basis)
    hprime = projection.evaluate(solved)
    expr_hprime = projection.express(solved)
    stages.append(f"coset target (1,-1) expr {hword_str(solved)} over stabilizer generators")

    # stage 5: descend to b^-1 a at v'
    try:
        cert_ba = find_b_inv_a(hprime, max_states=max_states)
    except BudgetExceededError as exc:
        return fail(5, f"descent budget exhausted ({exc})")
    vprime = cert_ba.vertex
    kprime = cert_ba.exponent_log
    # ab persists down v' as ab or ba, and the endgame descends "11" or "1"
    _, final = persist_ab(system.element("ab"), vprime)
    ab_final = final == system.element("ab")
    vertex = v + vprime + ("11" if ab_final else "1")
    if len(vertex) > max_depth:
        return fail(5, f"combined vertex deeper than {max_depth}")
    expr_binva = power_word(expr_hprime, 2**kprime)
    stages.append(f"descend-binva vertex {vertex_str(vprime)} k {kprime}")

    # stage 6: persisted ab times b^-1 a is a^2 = (1, b^2), a at "11", and
    # persisted ba times a^-1 b is b^2 = (a, a), a at "1"; ab persisted down
    # v' and that suffix is ab again, so a^-1 (ab) is b there
    expr_persist = power_word(expr_ab_at_v, 2 ** len(vprime))
    expr_a = product_word(expr_persist, power_word(expr_binva, 1 if ab_final else -1))
    expr_ab_deep = power_word(expr_ab_at_v, 2 ** (len(vertex) - len(v)))
    expr_b = product_word(invert_word(expr_a), expr_ab_deep)
    stages.append(f"persist vertex {vertex_str(vprime)} final {'ab' if ab_final else 'ba'}")

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
    """``certificate.replay`` against H's generators."""
    return replay(H.system, [g.word for g in H.generators], cert)
