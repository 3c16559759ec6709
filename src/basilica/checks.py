"""The identity/lemma verification suite behind `basilica check-paper`.

Each check is a named, deterministic verification of one exact statement
about the Basilica group: a section identity, a relator, a quotient-map
value, a length-lemma sweep over a ball, or a descent-totality sweep.
Randomized sweeps draw from a seeded generator recorded in the report.
"""

from __future__ import annotations

import itertools
import random
import re

from . import ENGINE
from .core import (
    BudgetExceededError,
    ConsistencyError,
    Element,
    InputError,
    Record,
    equals,
    vertex_word,
)
from .norms import ball, norm
from .structure import (
    LIFT_SUBSTITUTION,
    HeisenbergElement,
    ab_image,
    alpha,
    basilica,
    bprime_coords,
    commutator,
    heis_image,
    in_derived_subgroup,
    lift_section,
    tau,
)
from .descent import (
    CLASS_AB,
    CLASS_AB_INV,
    DescentCertificate,
    congruence_transition,
    find_ab,
    find_b_inv_a,
    persist_ab,
)

LENGTHS_RADIUS = 8
DESCENT_RADIUS = 7
PERSIST_DEPTH = 4
LIFT_SAMPLES = 20
LIFT_DEPTH = 3

# geodesic patterns, over the surface syntax, that force |g_0| + |g_1| < |g|
_FORBIDDEN = (
    ("bb", re.compile("b.*B"), "has b before b^-1"),
    ("b2", re.compile("BB[aA]+bb"), "contains b^-2 a^k b^2"),
)


class CheckResult(Record):
    check_id: str
    claim: str
    status: str  # "pass" or "fail"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class CheckReport(Record):
    results: tuple[CheckResult, ...]
    seed: int
    engine: str = ENGINE

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    def all_passed(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        lines = [f"engine: {self.engine}", f"seed: {self.seed}"]
        for r in self.results:
            line = f"[{r.status.upper():4}] {r.check_id}: {r.claim}"
            if r.detail:
                line += f" -- {r.detail}"
            lines.append(line)
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines) + "\n"


class _Collector:
    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, check_id: str, claim: str, ok: bool, detail: str = ""):
        self.results.append(
            CheckResult(check_id, claim, "pass" if ok else "fail", detail)
        )


def _elem(text: str) -> Element:
    return basilica().element(text)


def _psi_is(g: Element, root_trivial: bool, left: Element, right: Element) -> bool:
    root_ok = g.root_perm().is_identity() == root_trivial
    return root_ok and equals(g.section(0), left) and equals(g.section(1), right)


def check_psi1(out: _Collector) -> None:
    """The quoted first-level section identities."""
    sys = basilica()
    a, b = sys.generator("a"), sys.generator("b")
    e = sys.identity()
    cases = [
        ("psi1-01", "[a,b] = (a^-1 b a, b^-1)", alpha(1, 1), True, _elem("Aba"), ~b),
        ("psi1-02", "[a,b^-1] = (b, b^-1)", alpha(1, -1), True, b, ~b),
        ("psi1-03", "[a,b^2] = (1, [a,b]^-1)", alpha(1, 2), True, e, ~alpha(1, 1)),
        ("psi1-04", "b^2 = (a, a)", b * b, True, a, a),
        ("psi1-05", "a^2 = (1, b^2)", a * a, True, e, b * b),
        ("psi1-06", "ab = sigma (ba, 1)", a * b, False, b * a, e),
        ("psi1-07", "(ab)^2 = (ba, ba)", (a * b) ** 2, True, b * a, b * a),
        ("psi1-08", "(ba)^2 = (ba, ab)", (b * a) ** 2, True, b * a, a * b),
        (
            "psi1-09",
            "(a b^-1)^-2 = (b^-1 a, a b^-1)",
            (a * ~b) ** -2,
            True,
            ~b * a,
            a * ~b,
        ),
    ]
    for check_id, claim, g, root_trivial, left, right in cases:
        out.add(check_id, claim, _psi_is(g, root_trivial, left, right))
    ok = all(
        _psi_is(b * a**k * ~b, True, b**k, e) for k in range(-4, 5)
    )
    out.add("psi1-10", "b a^k b^-1 = (b^k, 1) for k in [-4,4]", ok)
    ok = all(
        _psi_is(b**-2 * a**k * b**2, True, e, ~a * b**k * a) for k in range(-4, 5)
    )
    out.add("psi1-11", "b^-2 a^k b^2 = (1, a^-1 b^k a) for k in [-4,4]", ok)


def check_relators(out: _Collector, rng: random.Random) -> None:
    """Relator words are trivial; random words are not."""
    for m in (1, 3, 5, 7):
        word = tau(m)
        for k in range(4):
            ok = word.is_trivial()
            out.add(
                f"relators-m{m}-k{k}",
                f"substitution^{k} of [b^-{m} a b^{m}, a] is trivial",
                ok,
            )
            word = word.substitute(LIFT_SUBSTITUTION)
    sys = basilica()
    letters = [1, -1, 2, -2]
    bad = 0
    for _ in range(50):
        length = rng.randint(8, 12)
        w: list[int] = []
        while len(w) < length:
            l = rng.choice(letters)
            if w and w[-1] == -l:
                continue
            w.append(l)
        if sys.element(w).is_trivial():
            bad += 1
    out.add(
        "relators-random",
        "50 seeded random reduced words of length 8..12 are all nontrivial",
        bad == 0,
        f"{bad} unexpectedly trivial",
    )


def check_commutators(out: _Collector) -> None:
    """Rewriting rules for [a^s, b^t] over the three basic commutators."""
    a11, a1m1, a12 = alpha(1, 1), alpha(1, -1), alpha(1, 2)
    odd_ok = even_ok = power_ok = True
    for s in range(-3, 4):
        for t in range(-3, 4):
            lhs = alpha(s, 2 * t + 1)
            rhs = (a11 * (~a1m1 * a11) ** t) ** s
            odd_ok = odd_ok and equals(lhs, rhs)
            power_ok = power_ok and equals(lhs, alpha(1, 2 * t + 1) ** s)
            lhs = alpha(s, 2 * t)
            rhs = a11 ** (s - 1) * (a12**t * ~a11) ** (s - 1) * a12**t
            even_ok = even_ok and equals(lhs, rhs)
    out.add(
        "commutators-odd",
        "[a^s,b^(2t+1)] = ([a,b]([a,b^-1]^-1 [a,b])^t)^s for s,t in [-3,3]",
        odd_ok,
    )
    out.add(
        "commutators-even",
        "[a^s,b^2t] = [a,b]^(s-1) ([a,b^2]^t [a,b]^-1)^(s-1) [a,b^2]^t for s,t in [-3,3]",
        even_ok,
    )
    out.add(
        "commutators-power",
        "[a^s,b^(2t+1)] = [a,b^(2t+1)]^s for s,t in [-3,3]",
        power_ok,
    )


def check_quotients(out: _Collector, rng: random.Random) -> None:
    """Heisenberg quotient and the Z^3 coordinates on B'/B''."""
    sys = basilica()
    a, b = sys.generator("a"), sys.generator("b")
    c = commutator(a, b)
    out.add(
        "heis-relators",
        "[[a,b],a] and [[a,b],b] map to the Heisenberg identity",
        heis_image(commutator(c, a)).is_identity()
        and heis_image(commutator(c, b)).is_identity(),
    )
    ok = True
    for _ in range(300):
        u = sys.element([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))])
        v = sys.element([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))])
        if heis_image(u * v) != heis_image(u) * heis_image(v):
            ok = False
            break
    out.add("heis-hom", "the Heisenberg map is a homomorphism (300 seeded pairs)", ok)
    out.add(
        "heis-values",
        "[a,b] maps to c and a^-1 b a to b c^-1",
        heis_image(c) == HeisenbergElement(0, 0, 1)
        and heis_image(~a * b * a) == HeisenbergElement(0, 1, -1),
    )
    out.add(
        "bprime-basis",
        "[a,b], [a,b^-1], [a,b^2] have coordinates (1,0,0), (0,1,0), (0,0,1)",
        bprime_coords(alpha(1, 1)) == (1, 0, 0)
        and bprime_coords(alpha(1, -1)) == (0, 1, 0)
        and bprime_coords(alpha(1, 2)) == (0, 0, 1),
    )
    ok = True
    for l in range(-2, 3):
        for m in range(-2, 3):
            for n in range(-2, 3):
                g = alpha(1, 1) ** l * alpha(1, -1) ** m * alpha(1, 2) ** n
                if bprime_coords(g) != (l, m, n):
                    ok = False
    out.add(
        "bprime-roundtrip",
        "coordinates of [a,b]^l [a,b^-1]^m [a,b^2]^n are (l,m,n) on [-2,2]^3",
        ok,
    )
    lhs = commutator(alpha(1, 1), alpha(1, -1))
    t1 = commutator(commutator(b, a), b)
    ok = _psi_is(lhs, True, t1, sys.identity())
    out.add(
        "bprime-second-derived-1",
        "[[a,b],[a,b^-1]] = ([[b,a],b], 1)",
        ok,
    )
    lhs = commutator(alpha(1, 1), alpha(1, 2))
    t2 = ~commutator(commutator(b, a), ~b)
    out.add(
        "bprime-second-derived-2",
        "[[a,b],[a,b^2]] = (1, [[b,a],b^-1]^-1)",
        _psi_is(lhs, True, sys.identity(), t2),
    )


def check_lengths(out: _Collector) -> None:
    """Length lemmas over the ball: subadditivity of sections, the square
    bound, and the strict drops forced by forbidden geodesic patterns."""
    sys = basilica()
    sphere = ball(sys, LENGTHS_RADIUS)
    viol_sub = viol_sq = checked_sq = 0
    matched = {key: 0 for key, _, _ in _FORBIDDEN}
    violated = dict(matched)
    identity_root = tuple(range(2))
    for g in sphere.classes:
        size = len(g.word)
        n0 = norm(g.section(0))
        n1 = norm(g.section(1))
        if n0 + n1 > size:
            viol_sub += 1
        if sys.word_root(g.word) != identity_root:
            checked_sq += 1
            sq = g * g
            if norm(sq.section(0)) > size or norm(sq.section(1)) > size:
                viol_sq += 1
        text = sys.word_str(g.word)
        for key, pattern, _ in _FORBIDDEN:
            if pattern.search(text):
                matched[key] += 1
                if n0 + n1 >= size:
                    violated[key] += 1
    n = len(sphere.classes)
    out.add(
        "lengths-subadditive",
        f"|g_0| + |g_1| <= |g| for all {n} elements of ball({LENGTHS_RADIUS})",
        viol_sub == 0,
        f"{viol_sub} violations",
    )
    out.add(
        "lengths-square",
        f"sections of g^2 have norm <= |g| off the level stabilizer ({checked_sq} cases)",
        viol_sq == 0,
        f"{viol_sq} violations",
    )
    for key, _, claim in _FORBIDDEN:
        out.add(
            f"lengths-forbidden-{key}",
            f"strict drop when the geodesic {claim} ({matched[key]} matches)",
            matched[key] > 0 and violated[key] == 0,
            f"{violated[key]} violations",
        )
    counts = [len(ball(sys, r)) for r in range(LENGTHS_RADIUS + 1)]
    out.add(
        "lengths-growth",
        f"ball sizes strictly increase up to radius {LENGTHS_RADIUS}",
        all(x < y for x, y in zip(counts, counts[1:])),
        " ".join(map(str, counts)),
    )


def _descent_sweep(out: _Collector, tag: str, find, cls: tuple[int, int]) -> list:
    """Run ``find`` on every element of class ``cls`` in the ball, report
    that each search ends with a replayable witness, and return the states
    g, (g^2)_x1, ... that each witness passes through."""
    sphere = ball(basilica(), DESCENT_RADIUS)
    inputs = [g for g in sphere.classes if ab_image(g) == cls]
    failures = bad_replays = 0
    paths = []
    for g in inputs:
        try:
            cert = find(g)
        except BudgetExceededError:
            failures += 1
            continue
        if not cert.replay():
            bad_replays += 1
        path = [g]
        for x in cert.steps:
            path.append((path[-1] * path[-1]).section(x))
        paths.append(path)
    out.add(
        f"descent-{tag}-total",
        f"{find.__name__} terminates with a replayable witness on all {len(inputs)} "
        f"({cls[0]},{cls[1]})-elements of ball({DESCENT_RADIUS})",
        failures == 0 and bad_replays == 0,
        f"{failures} failures, {bad_replays} bad replays",
    )
    return paths


def _follows_transitions(path: list[Element]) -> bool:
    """Whether every state before the last has the class the transition
    table predicts from the first."""
    expected = ab_image(path[0])
    for state in path[:-1]:
        if ab_image(state) != expected:
            return False
        expected = congruence_transition(expected)
    return True


def check_descent(out: _Collector) -> None:
    """Descent totality with replay over the ball, plus trajectory invariants."""
    paths = _descent_sweep(out, "ab", find_ab, CLASS_AB)
    norms = [[norm(state) for state in path] for path in paths]
    out.add(
        "descent-ab-monotone",
        "norms never increase along descent paths",
        all(x >= y for ns in norms for x, y in zip(ns, ns[1:])),
    )
    out.add(
        "descent-ab-class",
        "every intermediate stays in class (1,1) with nontrivial root",
        all(_follows_transitions(path) for path in paths)
        and not any(state.root_perm().is_identity() for path in paths for state in path[:-1]),
    )
    paths = _descent_sweep(out, "binva", find_b_inv_a, CLASS_AB_INV)
    out.add(
        "descent-binva-alternation",
        "intermediate classes alternate (1,-1) <-> (-1,1) as the transition "
        "table predicts",
        all(_follows_transitions(path) for path in paths),
    )


def check_persist(out: _Collector) -> None:
    """Persistence transition table plus replay of every walk up to depth."""
    sys = basilica()
    ab = sys.element("ab")
    ba = sys.element("ba")
    table_ok = (
        _psi_is(ab**2, True, ba, ba)
        and _psi_is(ba**2, True, ba, ab)
    )
    out.add("persist-table", "(ab)^2 = (ba, ba) and (ba)^2 = (ba, ab)", table_ok)
    ok = True
    vertices = [""]
    for _ in range(PERSIST_DEPTH):
        vertices = [v + x for v in vertices for x in "01"]
        for v in vertices:
            k, final = persist_ab(ab, v)
            if k != len(v) or not DescentCertificate(ab, sys.parse_vertex(v), final).replay():
                ok = False
    out.add(
        "persist-replay",
        f"ab^(2^k) stabilizes every vertex up to depth {PERSIST_DEPTH} with the "
        "predicted section",
        ok,
    )


def check_lifts(out: _Collector, rng: random.Random) -> None:
    """Support contract of rigid-stabilizer lifts for sampled B' elements."""
    sys = basilica()
    sphere = ball(sys, 6)
    pool = [g for g in sphere.classes if in_derived_subgroup(g) and not g.is_trivial()]
    chosen = rng.sample(pool, min(LIFT_SAMPLES, len(pool)))
    vertices = [""]
    frontier = [""]
    for _ in range(LIFT_DEPTH):
        frontier = [v + x for v in frontier for x in "01"]
        vertices.extend(frontier)
    bad = ""  # the first failure; empty while every lift passes
    for w, v in itertools.product(chosen, vertices):
        r = lift_section(w, v)
        path = sys.parse_vertex(v)
        for u in itertools.product((0, 1), repeat=len(path)):
            section = r.projection(u)
            want = w if u == path else sys.identity()
            if section is None:
                bad = f"{w}@{v} moves {vertex_word(u)}"
            elif not equals(section, want):
                bad = f"{w}@{v} wrong section at {vertex_word(u)}"
            if bad:
                break
        if bad:
            break
    out.add(
        "lifts-support",
        f"{len(chosen)} sampled derived-subgroup elements lift to every vertex "
        f"of depth <= {LIFT_DEPTH} with exact support",
        not bad,
        bad,
    )


SUITES = {
    "psi1": lambda out, rng: check_psi1(out),
    "relators": check_relators,
    "commutators": lambda out, rng: check_commutators(out),
    "quotients": check_quotients,
    "lengths": lambda out, rng: check_lengths(out),
    "descent": lambda out, rng: check_descent(out),
    "persist": lambda out, rng: check_persist(out),
    "lifts": check_lifts,
}


def run_checks(only=None, seed: int = 0) -> CheckReport:
    """Run the verification suites (all by default) into one report."""
    names = list(SUITES) if only is None else list(only)
    if not names:
        raise InputError(f"no suite selected; choose from {sorted(SUITES)}")
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if names.count(name) > 1:
            raise InputError(f"suite {name!r} selected more than once")
    collector = _Collector()
    for name in names:
        SUITES[name](collector, random.Random(seed))
    ids = [r.check_id for r in collector.results]
    if len(set(ids)) != len(ids):
        raise ConsistencyError("duplicate check ids in report")
    return CheckReport(tuple(collector.results), seed)
