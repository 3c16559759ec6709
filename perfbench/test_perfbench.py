"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import guard  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from basilica import basilica  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
S = basilica()


def check_of(ops, i=0):
    return ops[i][2]


# -- tampered answers count as failed ----------------------------------------


def test_wrong_ball_class_count_fails():
    check = check_of(W.ball_ops(S, []))
    assert check(oracle.BALL_COUNTS)
    assert not check(oracle.BALL_COUNTS[:-1] + (18972,))


def test_norm_read_checks():
    ops = W.ball_ops(S, ["abAB", "ab"])
    norm_check, rep_check = ops[1][2], ops[2][2]
    assert norm_check(4) and not norm_check(3) and not norm_check(6) and not norm_check(0)
    assert rep_check("ab") and not rep_check("ba") and not rep_check("")


def test_tampered_certificate_fails():
    gens = ["a", "b"]
    answer = W.certify_call(S, gens)
    assert answer["stage"] is None and W.certify_ok(gens, answer)
    text = answer["text"]
    expr_a = next(line for line in text.splitlines() if line.startswith("expr-a"))
    expr_b = next(line for line in text.splitlines() if line.startswith("expr-b"))
    tampered = [
        text.replace(expr_a, "expr-a: " + expr_b.split(": ", 1)[1]),
        text.replace("vertex: ", "vertex: 0"),
        text.replace("subgroup: a, b", "subgroup: a, bb"),
    ]
    for bad in tampered:
        assert bad != text
        assert not W.certify_ok(gens, dict(answer, text=bad))
    assert not W.certify_ok(gens, dict(answer, verified=False))
    assert not W.certify_ok(gens, dict(answer, round_trip=False))


def test_stage1_failure_must_match_lattice():
    assert W.certify_ok(["aa", "b"], {"stage": 1})  # (1,1) misses 2Z x Z
    assert not W.certify_ok(["aa", "b"], {"stage": 4})
    assert not W.certify_ok(["a", "b"], {"stage": 1})
    assert W.certify_ok(["a", "b"], {"stage": 2})


def test_wrong_orders_fail():
    ops = W.orders_ops(S, ([["a", "bb"]], [["ab", "b"]]))
    full6 = check_of(ops, 1)
    assert full6(2**45) and not full6(2**44)
    assert check_of(ops, 5)(True) and not check_of(ops, 5)(False)
    order4, order5, order6, eq5, eq6 = (check_of(ops, i) for i in range(6, 11))
    assert order4(2**6) and order5(2**10)
    assert not order6(2**9)  # smaller than the order at the level below
    assert not order6(3 * 2**11)  # not a power of two
    assert not order6(2**46)  # larger than the full order
    assert order6(2**12)
    assert eq6(False) and not eq6(True)
    assert check_of(ops, 2)(2**88) and not check_of(ops, 2)(2**87)
    assert check_of(ops, 11)(True) and not check_of(ops, 11)(False)
    assert len(ops) == 12


def test_wrong_words_answers_fail():
    items = W.words_battery(random.Random(0))
    ops = W.words_ops(S, items)
    seen = set()
    for (kind, a, b, c, vertex), (_, call, check) in zip(items, ops):
        if kind in seen:
            continue
        seen.add(kind)
        answer = call()
        assert check(answer)
        if kind == "eq":
            assert not check(not answer)
        elif kind == "replay":
            assert not check((answer[0], "ab" if oracle.equal(answer[1], "ba") else "ba"))
        else:
            coords, lifted = answer
            assert not check(((coords[0] + 1,) + tuple(coords[1:]), lifted))
            assert not check((coords, lifted + "a"))
    assert seen == {"eq", "replay", "lift"}


def test_wrong_answer_and_guard_stops_count_as_failed():
    class Fake:
        name, cap_mb, deadline_s, worker_per_op = "fake", 512, 0.5, False

        @staticmethod
        def ops(system, items):
            table = {
                "right": lambda: 2,
                "wrong": lambda: 3,
                "memory": lambda: bytearray(1 << 30),
                "deadline": lambda: next(x for x in iter(int, 1) if x),
            }
            return [(item, table[item], lambda answer: answer == 2) for item in items]

    for items, failed, error in (
        (["right", "wrong", "right"], 1, None),
        (["right", "memory", "right"], 1, "memory"),
        (["deadline"], 1, "deadline"),
    ):
        rnd = run.run_round(Fake, S, items, traced=False)
        bad = [r for r in rnd.records if r["error"] or not r["ok"]]
        assert len(bad) == failed
        assert bad[0]["error"] == error
    assert len(rnd.records) == 1


def test_probe_time_is_out_of_latency_and_scales_it():
    meter = speed.Meter()
    meter.start()
    try:
        records = []
        busy = [("busy", lambda: sum(i * i for i in range(600_000)), lambda answer: answer > 0)]
        guard.run_ops(busy, records.append, 10, meter=meter)
    finally:
        meter.stop()
    (record,) = records
    assert record["ok"] and record["probe_s"] > 0
    assert len(meter.probes) > speed.WINDOW  # the interval timer probed inside the operation
    # the probes before the operation and those inside it; a later one may land in the check
    counts = range(speed.WINDOW + 1, len(meter.probes) + 1)
    assert any(record["scale"] == speed.scale_of(meter.probes[:n]) for n in counts)
    assert speed.scale_of([2 * speed.NOMINAL_S, 9.0, speed.NOMINAL_S]) == 0.5


# -- tracing ------------------------------------------------------------------


class ScriptedClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_nested_trace():
    clock = ScriptedClock()
    tr = spans.Tracer(clock=clock)
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 9]
    for t, event in [(0, "A"), (1, "B"), (2, "C"), (3, None), (4, None), (5, "B"), (9, None), (10, None)]:
        clock.now = t
        tr.enter(event) if event else tr.exit()
    assert tr.calls == {"A": 1, "B": 2, "C": 1}
    assert tr.self_ns == {"A": 10 - 3 - 4, "B": (3 - 1) + 4, "C": 1}
    assert sum(tr.self_ns.values()) == 10 and not tr.stack


def test_stopping_exception_is_charged_to_its_innermost_span():
    tr = spans.Tracer()
    first, later = MemoryError(), MemoryError()
    tr.record_fault(first, "core.word_level_perm")
    tr.record_fault(later, "descent.find_ab")  # raised while unwinding
    assert tr.fault_layer(later) == "core"
    tr.reset_fault()
    err = ValueError()
    tr.record_fault(err, "permgrp.orbit")
    tr.record_fault(err, "descent.prodense_projection_search")
    assert tr.fault_layer(err) == "permgrp"
    assert tr.fault_layer(KeyError()) == "none"


def test_wrappers_reach_callers_that_import_by_name():
    class Traced:
        name, cap_mb, deadline_s, worker_per_op = "traced", 512, 10, False

        @staticmethod
        def ops(system, items):
            from basilica import descent

            return [("find_ab", lambda: descent.find_ab(system.element("ab")).steps, lambda steps: True)]

    rnd = run.run_round(Traced, S, [None], traced=True)
    (end,) = rnd.ends
    assert end["calls"]["descent.find_ab"] == 1
    assert end["calls"]["norms.geodesic_rep"] >= 1  # bound in descent by name
    assert end["calls"]["core.ElementIndex.find_word"] >= 1
    assert end["self_ns"]["descent.find_ab"] > 0


def test_emitted_names():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    rnd = run.Round()
    rnd.wall_s = 1.0
    values = run.per_layer(rnd, rnd)
    for name in values:
        assert NAME.fullmatch(name), name
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.end_to_end([rnd], [0.1])[0])
    assert set(SPEC["workloads"][i]["name"] for i in range(len(SPEC["workloads"]))) == set(W.WORKLOADS)


# -- inputs and the oracle -----------------------------------------------------


def test_batteries_follow_the_seed():
    for name, workload in W.WORKLOADS.items():
        first = workload.battery(random.Random(f"{name}:1"))
        assert first == workload.battery(random.Random(f"{name}:1"))
        assert first != workload.battery(random.Random(f"{name}:2"))
        ops = len(first) if workload.worker_per_op else len(workload.ops(S, first))
        assert ops >= W.MIN_OPS


def test_words_inputs_are_what_they_claim():
    assert all(oracle.is_trivial(r) for r in W.relator_orbit(5))
    for k in range(1, 7):
        for vertex in map("".join, itertools.product("01", repeat=k)):
            word = "ab" * 2**k
            assert oracle.act(word, vertex) == vertex
            assert oracle.equal(oracle.section_at(word, vertex), W.persisted(vertex))
    for a, b in itertools.combinations(W.BASIS, 2):
        assert not oracle.equal(a, b) and not oracle.is_trivial(a)


def test_oracle_matches_brute_force_lattice():
    rng = random.Random(3)
    for _ in range(300):
        vectors = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        span = {
            (sum(c * v[0] for c, v in zip(cs, vectors)), sum(c * v[1] for c, v in zip(cs, vectors)))
            for cs in itertools.product(range(-40, 41), repeat=len(vectors))
        }
        assert oracle.lattice_contains(vectors, target) == (target in span)


def test_generating_sets_generate():
    rng = random.Random(5)
    for _ in range(20):
        gens = W.generating_set(rng)
        assert oracle.lattice_contains([oracle.exponent_sums(g) for g in gens], (1, 0))
        assert oracle.lattice_contains([oracle.exponent_sums(g) for g in gens], (0, 1))
