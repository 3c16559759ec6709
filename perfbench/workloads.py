"""The four workloads: seeded inputs, the operations on them, and the checks.

Inputs are plain strings built from the seed in the parent process; the
operations that turn them into library calls are built inside the worker.
Library functions are looked up on their modules at call time, so a traced
worker reaches the wrappers that ``spans.install`` put there.  Every check
uses ``oracle`` or facts fixed by how the input was built, never the code
under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

MIN_OPS = 100  # every battery has this many, so 10 latencies lie beyond p90


def random_word(rng: random.Random, length: int) -> str:
    word = ""
    while len(word) < length:
        ch = rng.choice("aAbB")
        if not word or word[-1] != ch.swapcase():
            word += ch
    return word


def random_vertex(rng: random.Random, depth: int) -> str:
    return "".join(rng.choice("01") for _ in range(depth))


def _str(system, word) -> str:
    text = system.word_str(word)
    return "" if text == "e" else text


# -- ball -------------------------------------------------------------------

BALL_RADIUS = 9
BALL_READS = 10000


def ball_battery(rng: random.Random):
    return [random_word(rng, rng.randint(1, BALL_RADIUS)) for _ in range(BALL_READS)]


def _norm_ok(word: str, n: int) -> bool:
    s, t = oracle.exponent_sums(word)
    return (
        abs(s) + abs(t) <= n <= len(word)
        and (len(word) - n) % 2 == 0
        and (n == 0) == oracle.is_trivial(word)
    )


def ball_ops(system, words):
    from basilica import norms

    def build():
        return tuple(len(norms.ball(system, r)) for r in range(BALL_RADIUS + 1))

    ops = [("ball", build, lambda counts: counts == oracle.BALL_COUNTS)]
    for i, w in enumerate(words):
        if i % 2:
            ops.append((
                "geodesic_rep",
                lambda w=w: _str(system, norms.geodesic_rep(system.element(w))),
                lambda rep, w=w: _norm_ok(w, len(rep)) and oracle.equal(rep, w),
            ))
        else:
            ops.append(("norm", lambda w=w: norms.norm(system.element(w)), lambda n, w=w: _norm_ok(w, n)))
    return ops


# -- words ------------------------------------------------------------------

EQ_OPS, REPLAY_OPS, LIFT_OPS = 2400, 400, 400
_PHI = {"a": "bb", "A": "BB", "b": "a", "B": "A"}  # a -> b^2, b -> a maps relators to relators
# [a,b], [a,b^-1], [a,b^2]: a basis of B'/B'', so each is nontrivial
BASIS = ("ABab", "AbaB", "ABBabb")


def tau(m: int) -> str:
    """The relator [b^-m a b^m, a] for odd m."""
    x = "B" * m + "a" + "b" * m
    return oracle.reduce(oracle.inverse(x) + "A" + x + "a")


def relator_orbit(depth: int = 8) -> list[str]:
    out = []
    for m in (1, 3, 5):
        w = tau(m)
        for _ in range(depth):
            out.append(w)
            w = oracle.reduce("".join(_PHI[ch] for ch in w))
    return out


def persisted(vertex: str) -> str:
    """Section of (ab)^(2^k) at a vertex of length k: ab -> (ba, ba), ba -> (ba, ab)."""
    state = "ab"
    for x in vertex:
        state = "ab" if state == "ba" and x == "1" else "ba"
    return state


def _trivial_product(rng, orbit) -> str:
    parts = []
    for _ in range(rng.randint(2, 6)):
        r = rng.choice(orbit)
        u = random_word(rng, rng.randint(1, 12))
        parts.append(oracle.inverse(u) + (r if rng.random() < 0.5 else oracle.inverse(r)) + u)
    return "".join(parts)


def words_battery(rng: random.Random):
    orbit = relator_orbit()
    items = []
    for _ in range(EQ_OPS):
        x = random_word(rng, rng.randint(10, 60))
        left = oracle.reduce(_trivial_product(rng, orbit) + x)
        if rng.random() < 0.5:
            items.append(("eq", left, x, True))
        else:
            i = rng.randint(0, len(x))
            c = rng.choice(BASIS)
            other = oracle.reduce(x[:i] + (c if rng.random() < 0.5 else oracle.inverse(c)) + x[i:])
            items.append(("eq", left, other, False))
    for _ in range(REPLAY_OPS):
        items.append(("replay", rng.randint(1, 10), None, None))
    for _ in range(LIFT_OPS):
        exps = tuple(rng.randint(-3, 3) for _ in BASIS)
        letters = [c if e > 0 else oracle.inverse(c) for c, e in zip(BASIS, exps) for _ in range(abs(e))]
        letters.append(_trivial_product(rng, orbit[:4]))
        rng.shuffle(letters)
        items.append(("lift", oracle.reduce("".join(letters)), exps, None))
    rng.shuffle(items)
    # vertices last, so the word inputs above do not depend on them
    return [(kind, a, b, c, random_vertex(rng, a if kind == "replay" else rng.randint(1, 10)))
            for kind, a, b, c in items]


def _lift_ok(answer, w, exps, vertex) -> bool:
    coords, lifted = answer
    return (
        tuple(coords) == exps
        and oracle.act(lifted, vertex) == vertex
        and oracle.equal(oracle.section_at(lifted, vertex), w)
    )


def words_ops(system, items):
    import basilica
    from basilica import structure

    ops = []
    for kind, a, b, c, vertex in items:
        if kind == "eq":
            ops.append((
                "equals",
                lambda a=a, b=b: basilica.equals(system.element(a), system.element(b)),
                lambda ans, c=c: ans is c,
            ))
        elif kind == "replay":
            def replay(k=a, vertex=vertex):
                g = system.element("ab" * 2**k)
                return g.act(vertex), _str(system, g.section_at_vertex(vertex).word)

            ops.append((
                "replay",
                replay,
                lambda ans, vertex=vertex: ans[0] == vertex and oracle.equal(ans[1], persisted(vertex)),
            ))
        else:
            def lift(w=a, vertex=vertex):
                g = system.element(w)
                return structure.bprime_coords(g), _str(system, structure.lift_section(g, vertex).word)

            ops.append(("lift", lift, lambda ans, w=a, exps=b, vertex=vertex: _lift_ok(ans, w, exps, vertex)))
    return ops


# -- pooled subgroups: certify, orders ------------------------------------

POOL_PATH = Path(__file__).with_name("pools.json")


def pool_battery(name: str, rng: random.Random) -> list:
    """A fixed number of subgroups from each tier of the workload's pool.

    The tiers keep their shares of the pool, so every seed runs the same mix
    (for ``certify``: cheap, slower and over-the-cap searches); only which
    members are drawn changes.  See make_pool.py.
    """
    pool = json.loads(POOL_PATH.read_text())[name]
    battery = []
    for tier, count in pool["per_round"].items():
        battery.extend(rng.sample(pool["tiers"][tier], count))
    rng.shuffle(battery)
    return battery


def certify_battery(rng: random.Random):
    return pool_battery("certify", rng)


def certify_call(system, gens):
    from basilica import descent, permgrp

    H = permgrp.SubgroupHandle.from_words(system, gens)
    result = descent.prodense_projection_search(H)
    if isinstance(result, descent.FailureReport):
        return {"stage": result.stage, "reason": result.describe()}
    text = result.serialize()
    parsed = descent.parse_certificate(text)
    return {
        "stage": None,
        "text": text,
        "verified": descent.verify_certificate(H, result) and descent.verify_certificate(H, parsed),
        "round_trip": parsed.serialize() == text,
    }


def _expr_word(gens, tokens: str) -> str:
    if tokens == "e":
        return ""
    parts = []
    for tok in tokens.split():
        g = gens[int(tok[1:])]
        parts.append(g if tok[0] == "g" else oracle.inverse(g))
    return oracle.reduce("".join(parts))


def certify_ok(gens, answer) -> bool:
    in_lattice = oracle.lattice_contains([oracle.exponent_sums(g) for g in gens], (1, 1))
    if answer["stage"] is not None:
        # stage 1 fails exactly when (1,1) misses the exponent-sum lattice
        return (answer["stage"] == 1) == (not in_lattice)
    if not (in_lattice and answer["verified"] and answer["round_trip"]):
        return False
    fields = dict(line.split(": ", 1) for line in answer["text"].splitlines())
    if [w.strip() for w in fields["subgroup"].split(",")] != list(gens):
        return False
    vertex = "" if fields["vertex"] == "e" else fields["vertex"]
    for key, target in (("expr-a", "a"), ("expr-b", "b")):
        word = _expr_word(gens, fields[key])
        if oracle.act(word, vertex) != vertex or not oracle.equal(oracle.section_at(word, vertex), target):
            return False
    return True


def certify_ops(system, gens):
    return [("prodense", lambda: certify_call(system, gens), lambda ans: certify_ok(gens, ans))]


# -- orders -----------------------------------------------------------------

SUBGROUP_LEVELS = (4, 5, 6)
FULL_LEVELS = (5, 6, 7)
GENERATING_SETS = 4  # per round, each tested at level 6


def random_subgroup(rng: random.Random, ngens: int) -> list[str]:
    return [random_word(rng, rng.randint(1, 3)) for _ in range(ngens)]


def generating_set(rng: random.Random) -> list[str]:
    """Two Nielsen moves away from (a, b), so it generates the whole group."""
    gens = ["a", "b"]
    for _ in range(2):
        i = rng.randint(0, 1)
        other = gens[1 - i] if rng.random() < 0.5 else oracle.inverse(gens[1 - i])
        gens[i] = oracle.reduce(gens[i] + other if rng.random() < 0.5 else other + gens[i])
    return gens


def orders_battery(rng: random.Random):
    return pool_battery("orders", rng), [generating_set(rng) for _ in range(GENERATING_SETS)]


def _log2_exact(n: int) -> int | None:
    return n.bit_length() - 1 if n > 0 and n & (n - 1) == 0 else None


def _order(system, gens, n):
    from basilica import permgrp

    H = permgrp.SubgroupHandle.from_words(system, gens)
    return permgrp.group_order(permgrp.level_perms(system, H.generators, n))


def _full(system, gens, n):
    from basilica import permgrp

    return permgrp.level_quotient_equals_full(permgrp.SubgroupHandle.from_words(system, gens), n)


def subgroup_ops(system, gens):
    """A random subgroup's orders at SUBGROUP_LEVELS and its full-quotient tests.

    Its order must be a power of two between its order one level down and
    the full order, and the full-quotient test must agree with it.
    """
    log2 = {}

    def order_ok(o, n):
        log2[n] = _log2_exact(o)
        return log2[n] is not None and log2.get(n - 1, 0) <= log2[n] <= oracle.FULL_LOG2_ORDER[n]

    ops = [("order", lambda n=n: _order(system, gens, n), lambda o, n=n: order_ok(o, n)) for n in SUBGROUP_LEVELS]
    for n in SUBGROUP_LEVELS[1:]:
        ops.append((
            "full",
            lambda n=n: _full(system, gens, n),
            lambda eq, n=n: eq is (log2.get(n) == oracle.FULL_LOG2_ORDER[n]),
        ))
    return ops


def orders_ops(system, battery):
    """Orders of level quotients and full-quotient tests, checked level by level.

    The full group must reach the known full order and pass the
    full-quotient test at every level up to 7, and so must the seeded
    generating sets at level 6; the random subgroups are checked by
    ``subgroup_ops``.  Level 7, the costliest, runs only on the full group,
    so its share of a round does not depend on the seed.
    """
    subgroups, generating_sets = battery
    full_group = ["a", "b"]
    ops = [
        ("order", lambda n=n: _order(system, full_group, n), lambda o, n=n: o == 2 ** oracle.FULL_LOG2_ORDER[n])
        for n in FULL_LEVELS
    ]
    ops += [("full", lambda n=n: _full(system, full_group, n), lambda eq: eq is True) for n in FULL_LEVELS]
    for gens in subgroups:
        ops += subgroup_ops(system, gens)
    for gens in generating_sets:
        ops.append(("full", lambda gens=gens: _full(system, gens, 6), lambda eq: eq is True))
    return ops


class Workload:
    """A battery, the operations on it, and its guard.

    ``round_s`` is the time one round takes on the reference machine (2 CPUs,
    Python 3.11); a run of S seconds makes S // round_s rounds, so the
    number of repeats does not depend on how fast the machine happens to be.
    """

    def __init__(self, name, battery, ops, cap_mb, deadline_s, round_s, worker_per_op=False, min_rounds=2):
        self.name = name
        self.battery = battery
        self.ops = ops
        self.cap_mb = cap_mb
        self.deadline_s = deadline_s
        self.round_s = round_s
        self.worker_per_op = worker_per_op
        self.min_rounds = min_rounds


WORKLOADS = {
    w.name: w
    for w in (
        # three rounds, so the median round discards one whose build the probes misread
        Workload("ball", ball_battery, ball_ops, cap_mb=2048, deadline_s=60, round_s=5.5, min_rounds=3),
        Workload("words", words_battery, words_ops, cap_mb=512, deadline_s=10, round_s=4.0),
        Workload("certify", certify_battery, certify_ops, cap_mb=64, deadline_s=3, round_s=6.0, worker_per_op=True),
        Workload("orders", orders_battery, orders_ops, cap_mb=512, deadline_s=30, round_s=6.0),
    )
}
