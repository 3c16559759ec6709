"""Benchmark of the basilica library: one closed-loop client, checked answers.

Usage:
    python3 perfbench/run.py --workload {ball,words,certify,orders,all}
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones in BENCHMARK.json; with ``--trace 1`` a round runs
untraced and then traced, and the metrics are the per-layer ones.  A
round runs one battery, drawn from the seed and the round's index, in
fresh workers; an untraced run makes ``--seconds`` // ``round_s`` rounds,
but at least the workload's ``min_rounds``, and beyond those fewer if they
would overrun ``--seconds`` by more than OVERRUN.  Times are scaled to a
nominal machine speed (speed.py).
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from guard import run_ops, run_worker
from spans import LAYERS, Tracer, install, public_callables
from speed import WINDOW, Meter, probe, scale_of
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_ROUND = 5  # interpreter starts timed before each round
OVERRUN = 1.15  # a run may take this share of --seconds before it drops rounds
SETUP_SCRIPT = "import basilica; basilica.basilica()"
STOPPED = ("memory", "deadline", "killed")  # the guard's failures; others are errors


def load_library():
    """Import basilica from this checkout's sources; exit 2 if they are absent."""
    if not (SRC / "basilica" / "__init__.py").is_file():
        print(f"no basilica sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import basilica

    return basilica


def measure_setup(samples: int) -> list[float]:
    """Scaled wall times of fresh interpreters importing basilica and building it.

    Each start is scaled by the probes timed just before and just after it.
    """
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    times = []
    for _ in range(samples):
        before = [probe() for _ in range(WINDOW)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT], env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale_of(before + [probe() for _ in range(WINDOW)]))
    return times


def _gauges(system, tracer: Tracer) -> dict:
    """Sizes of the library's memo caches and ball registry as the worker ends."""
    from basilica import norms

    out = {}
    if hasattr(system, "_level_cache"):
        out["core.level_cache.ints"] = sum(map(len, system._level_cache.values()))
    for name in ("section", "trivial"):
        if hasattr(system, f"_{name}_cache"):
            out[f"core.{name}_cache.entries"] = len(getattr(system, f"_{name}_cache"))
    if "norms.radius" in tracer.counts:
        out["norms.classes"] = len(inspect.unwrap(norms.ball)(system, tracer.counts["norms.radius"]))
    return out


def run_ops_in_worker(workload, system, inputs, tracer):
    """One forked worker runs the operations built from ``inputs``."""

    def target(emit):
        meter = None
        if tracer is not None:
            install(tracer)
        else:
            meter = Meter()
            meter.start()
        run_ops(workload.ops(system, inputs), emit, workload.deadline_s, tracer, meter)
        if meter:
            meter.stop()
        end = {}
        if tracer is not None:
            end = {"calls": tracer.calls, "self_ns": tracer.self_ns, "counts": tracer.counts}
            try:
                end["gauges"] = _gauges(system, tracer)
            except MemoryError:
                end["gauges"] = {}
        emit({"end": end})

    return run_worker(target, workload.cap_mb, workload.deadline_s)


class Round:
    """Operation records, peak RSS and (traced) span totals of one battery."""

    def __init__(self):
        self.records: list[dict] = []
        self.peak_rss_mb = 0.0
        self.ends: list[dict] = []
        self.wall_s = 0.0


def run_round(workload, system, battery, traced: bool) -> Round:
    rnd = Round()
    start = time.perf_counter()
    for inputs in battery if workload.worker_per_op else [battery]:
        forked = time.perf_counter()
        records, rss = run_ops_in_worker(workload, system, inputs, Tracer() if traced else None)
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, rss)
        ends = [r["end"] for r in records if "end" in r]
        ops = [r for r in records if "end" not in r]
        if not ends and not (ops and ops[-1]["error"]):
            # the worker died inside an operation: that one failed, the rest never ran
            spent = time.perf_counter() - forked - sum(r["latency_s"] + r["check_s"] for r in ops)
            scales = [r["scale"] for r in rnd.records + ops] or [1.0]
            ops.append({"kind": "?", "ok": False, "error": "killed", "layer": "none", "latency_s": spent,
                        "check_s": 0.0, "scale": statistics.median(scales), "probe_s": 0.0})
        rnd.records.extend(ops)
        rnd.ends.extend(ends)
    rnd.wall_s = time.perf_counter() - start - sum(r["check_s"] + r["probe_s"] for r in rnd.records)
    return rnd


def end_to_end(rounds: list[Round], setup_times: list[float]) -> tuple[dict, int]:
    """End-to-end metrics of repeated rounds, and the latency sample count.

    Each round runs its own battery, drawn from the seed and the round's
    index.  An operation's time is its latency scaled to the nominal machine
    speed (see speed.py).  ``wall_s`` is the median over rounds of the summed
    times of the operations a round attempted (failed ones included, up to
    where they stopped), since the scale misses some slow phases of the
    memory-bound ``ball`` build; the percentiles are taken over every
    operation that succeeded, in all rounds.
    """
    walls = [sum(r["latency_s"] * r["scale"] for r in rnd.records) for rnd in rounds]
    done = sorted(r["latency_s"] * r["scale"] for rnd in rounds for r in rnd.records if r["ok"])
    deciles = statistics.quantiles(done, n=10, method="inclusive") if len(done) > 1 else [0.0] * 9
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(done) * 1000 if done else 0.0,
        "op_p90_ms": deciles[8] * 1000,
        "peak_rss_mb": max(rnd.peak_rss_mb for rnd in rounds),
    }
    return values, len(done)


def span_names() -> list[str]:
    return [name for name, _, _ in public_callables()]


def per_layer(traced: Round, untraced: Round) -> dict:
    calls, self_ns, counts, gauges = Counter(), Counter(), Counter(), {}
    for end in traced.ends:
        if not end:
            continue
        calls.update(end["calls"])
        self_ns.update(end["self_ns"])
        counts.update(end["counts"])
        for key, value in end["gauges"].items():
            gauges[key] = max(gauges.get(key, 0), value)
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in ("core.deep_fp.calls", "core.confirm.calls", "permgrp.group_order.log2_sum",
                 "permgrp.orbit.points", "permgrp.stabilizer.survivors", "descent.steps",
                 "descent.certificates", *(f"descent.fail_stage{i}" for i in range(1, 7))):
        out[name] = counts[name]
    out["core.word_is_trivial.true_frac"] = _frac(counts["core.word_is_trivial.true"], calls["core.word_is_trivial"])
    out["core.confirm.hit_frac"] = _frac(counts["core.confirm.hits"], counts["core.confirm.calls"])
    for name in ("core.level_cache.ints", "core.section_cache.entries", "core.trivial_cache.entries", "norms.classes"):
        out[name] = gauges.get(name, 0)
    layer_total = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer) / 1e9
        layer_total += out[f"{layer}.self_s"]
    failed = Counter(r.get("layer") or "none" for r in traced.records if r["error"] or not r["ok"])
    for layer in (*LAYERS, "none"):
        out[f"bench.failed.{layer}"] = failed[layer]
    out["bench.traced_wall_s"] = traced.wall_s
    out["bench.harness.self_s"] = traced.wall_s - layer_total
    out["bench.trace_overhead_frac"] = traced.wall_s / untraced.wall_s - 1
    return out


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, system) -> dict:
    workload = WORKLOADS[name]

    def battery(k):
        return workload.battery(random.Random(f"{name}:{seed}:{k}"))

    rounds = []
    start = time.perf_counter()
    if trace:
        first = battery(0)
        rounds = [run_round(workload, system, first, traced=False), run_round(workload, system, first, traced=True)]
        values = per_layer(rounds[1], rounds[0])
        wanted = spec["per_layer"]
    else:
        setup_times = []
        for k in range(max(workload.min_rounds, int(seconds // workload.round_s))):
            elapsed = time.perf_counter() - start
            if len(rounds) >= workload.min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > OVERRUN * seconds:
                break  # the machine is slow right now; keep the run inside its time
            setup_times += measure_setup(SETUP_PER_ROUND)
            rounds.append(run_round(workload, system, battery(k), traced=False))
        values, samples = end_to_end(rounds, setup_times)
        wanted = spec["end_to_end"]
    records = [r for rnd in rounds for r in rnd.records]
    failed = [r for r in records if r["error"] or not r["ok"]]
    walls = " ".join(f"{rnd.wall_s:.2f}" for rnd in rounds)
    if not trace:
        walls += "; scaled " + " ".join(f"{sum(r['latency_s'] * r['scale'] for r in rnd.records):.2f}" for rnd in rounds)
    print(f"== {name}: seed {seed}, {len(rounds)} round(s) of {len(records) // len(rounds)} ops, "
          f"{time.perf_counter() - start:.1f} s, {'traced' if trace else 'untraced'}; round walls {walls}")
    if not trace:
        print(f"  latency percentiles over {samples} ops; "
              f"setup_s median of {len(setup_times)} interpreter starts")
        print(f"  failed_frac {len(failed) / len(records):.4f} ({len(failed)}/{len(records)}; "
              f"memory cap {workload.cap_mb} MB, deadline {workload.deadline_s} s per op)")
    for r in failed[:10]:
        print(f"  failed op: {r['kind']} after {r['latency_s']:.2f} s: {r['error'] or 'wrong answer'}"
              f" in {r.get('layer')} {r.get('check_error', '')}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"BENCHMARK.json names unknown metric {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    if trace:
        top = sorted((k for k in values if k.endswith(".self_s") and k.count(".") > 1), key=values.get, reverse=True)
        print("  largest span self times: " + ", ".join(f"{k} {values[k]:.3f}" for k in top[:6]))
    return {
        "correct": all(r["ok"] or r["error"] in STOPPED for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    system = load_library().basilica()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, system)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
