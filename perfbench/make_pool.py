"""Regenerate pools.json: random subgroups sorted into tiers, per workload.

Usage: python3 perfbench/make_pool.py [certify] [orders]

Without arguments it rebuilds both pools; with names, only those, keeping
the others as they are.  Candidates are subgroups with 2-3 generators of
length 1-3, drawn from POOL_SEED.  For ``certify`` a candidate's tier is
what one search cost under that workload's guard, scaled: fast or medium if
it finished, over if it passed the memory cap or the deadline.  For
``orders`` it is the candidate's cost band: the candidates are ranked by
the scaled time of their ``subgroup_ops`` in a fresh worker and cut into
ORDER_BANDS bands of equal size.  ``per_round`` keeps each tier's share of
the candidates, except as MOVED says, so every seed's battery has the same
mix, and only the members drawn change.
"""

from __future__ import annotations

import json
import random
import sys

import run
from workloads import POOL_PATH, WORKLOADS, Workload, random_subgroup, subgroup_ops

POOL_SEED = 20040169
CANDIDATES = 400
PER_ROUND = {"certify": 100, "orders": 30}
# certify draws 8 more medium searches than their share and 8 fewer fast ones:
# medium ones take about 100 ms and fast ones about 20, so at their share (8 of
# 92 that finish) the 90th percentile sits on the edge between the two
# clusters; with 16 it falls inside the medium cluster
MOVED = {"certify": ("fast", "medium", 8)}
ORDER_BANDS = 8
FAST_S = 0.075  # scaled; fast searches take under 35 ms, medium ones over 80


def certify_tier(system, gens) -> str:
    records, _ = run.run_ops_in_worker(WORKLOADS["certify"], system, gens, tracer=None)
    if not records or "end" in records[0] or records[0]["error"]:
        return "over"
    if not records[0]["ok"]:
        raise SystemExit(f"wrong answer while building the pool: {records[0]}")
    return "fast" if records[0]["latency_s"] * records[0]["scale"] < FAST_S else "medium"


def certify_tiers(system, candidates) -> list[str]:
    return [certify_tier(system, gens) for gens in candidates]


def orders_cost(system, gens) -> float:
    """Scaled seconds of one subgroup's ``subgroup_ops``, in a fresh worker."""
    guard = WORKLOADS["orders"]
    one = Workload("orders-one", None, subgroup_ops, guard.cap_mb, guard.deadline_s, guard.round_s)
    records, _ = run.run_ops_in_worker(one, system, gens, tracer=None)
    ops = [r for r in records if "end" not in r]
    if len(ops) != len(subgroup_ops(system, gens)) or not all(r["ok"] for r in ops):
        raise SystemExit(f"an orders operation failed while building the pool: {gens} {ops}")
    return sum(r["latency_s"] * r["scale"] for r in ops)


def orders_tiers(system, candidates) -> list[str]:
    """``band1`` .. ``band<ORDER_BANDS>``: the costs ranked and cut into equal parts."""
    costs = [orders_cost(system, gens) for gens in candidates]
    tiers = [""] * len(candidates)
    for rank, i in enumerate(sorted(range(len(candidates)), key=costs.__getitem__)):
        tiers[i] = f"band{rank * ORDER_BANDS // len(candidates) + 1}"
    return tiers


TIERS = {"certify": certify_tiers, "orders": orders_tiers}


def main(names) -> None:
    system = run.load_library().basilica()
    rng = random.Random(POOL_SEED)
    candidates = []
    while len(candidates) < CANDIDATES:
        gens = random_subgroup(rng, rng.randint(2, 3))
        if gens not in candidates:
            candidates.append(gens)
    pools = json.loads(POOL_PATH.read_text()) if POOL_PATH.exists() else {"seed": POOL_SEED}
    for name in names:
        tiers: dict[str, list] = {}
        for gens, tier in zip(candidates, TIERS[name](system, candidates)):
            tiers.setdefault(tier, []).append(gens)
        tiers = dict(sorted(tiers.items()))
        per_round = {t: max(1, round(PER_ROUND[name] * len(m) / CANDIDATES)) for t, m in tiers.items()}
        if name in MOVED:
            source, target, count = MOVED[name]
            per_round[source] -= count
            per_round[target] += count
        pools[name] = {"per_round": per_round, "tiers": tiers}
        print(name, {t: len(m) for t, m in tiers.items()}, per_round)
    pools["certify"].update(cap_mb=WORKLOADS["certify"].cap_mb, deadline_s=WORKLOADS["certify"].deadline_s)
    POOL_PATH.write_text(json.dumps({"seed": POOL_SEED, **pools}, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(TIERS))
