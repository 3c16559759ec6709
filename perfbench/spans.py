"""Per-layer spans recorded from outside the library.

``install`` wraps the public functions and methods of each layer module and
rebinds every module-level name in the package that pointed at an original,
so callers such as ``descent`` (which imports ``geodesic_rep`` by name) reach
the wrapper.  Spans are folded into per-name totals as they close, because
a ball build makes tens of millions of calls: a span's self time is its
duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("core", "structure", "norms", "permgrp", "descent")

# methods of these classes are named after their layer alone: they are the
# layer's word-level recursion, not an object a caller holds
_BARE_CLASSES = {"GeneratorSystem"}

DEEP_LEVEL = 10  # the level-10 fingerprint ElementIndex confirms collisions with


class Tracer:
    """Span stack plus per-name call counts, self time and event counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        # the innermost span an escaping exception left; a MemoryError or a
        # deadline stop latches it, since unwinding near the memory cap can
        # raise fresh MemoryErrors in outer spans.  Plain attribute stores,
        # so recording allocates nothing.
        self.fault_span: str | None = None
        self.fault_exc: BaseException | None = None
        self.stopped = False

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def reset_fault(self) -> None:
        self.fault_span = self.fault_exc = None
        self.stopped = False

    def record_fault(self, exc: BaseException, name: str) -> None:
        if not self.stopped and self.fault_exc is not exc:
            self.fault_exc = exc
            self.fault_span = name
            self.stopped = isinstance(exc, MemoryError) or not isinstance(exc, Exception)

    def fault_layer(self, exc: BaseException) -> str:
        """Layer where the operation was stopped, or where ``exc`` was raised; else ``none``."""
        if self.fault_span is not None and (self.stopped or self.fault_exc is exc):
            return self.fault_span.split(".", 1)[0]
        return "none"


def _hook_level_perm(tr, parent, args, result):
    if parent == "core.ElementIndex.find_word" and args[2] == DEEP_LEVEL:
        tr.counts["core.deep_fp.calls"] += 1


def _hook_is_trivial(tr, parent, args, result):
    tr.counts["core.word_is_trivial.true"] += result
    if parent == "core.ElementIndex.find_word":
        tr.counts["core.confirm.calls"] += 1
        tr.counts["core.confirm.hits"] += result


def _hook_group_order(tr, parent, args, result):
    tr.counts["permgrp.group_order.log2_sum"] += math.log2(result)


def _hook_orbit(tr, parent, args, result):
    tr.counts["permgrp.orbit.points"] += len(result.orbit)


def _hook_stabilizer(tr, parent, args, result):
    tr.counts["permgrp.stabilizer.survivors"] += len(result)


def _hook_descent(tr, parent, args, result):
    tr.counts["descent.steps"] += len(result.steps)


def _hook_prodense(tr, parent, args, result):
    stage = getattr(result, "stage", None)
    tr.counts["descent.certificates" if stage is None else f"descent.fail_stage{stage}"] += 1


def _radius_hook(radius_of):
    def hook(tr, parent, args, result):
        tr.counts["norms.radius"] = max(tr.counts["norms.radius"], radius_of(args, result))

    return hook


HOOKS = {
    "core.word_level_perm": _hook_level_perm,
    "core.word_is_trivial": _hook_is_trivial,
    "permgrp.group_order": _hook_group_order,
    "permgrp.orbit": _hook_orbit,
    "permgrp.stabilizer_generator_pairs": _hook_stabilizer,
    "descent.find_ab": _hook_descent,
    "descent.find_b_inv_a": _hook_descent,
    "descent.prodense_projection_search": _hook_prodense,
    # the registry reaches the largest norm any read has asked for
    "norms.ball": _radius_hook(lambda args, result: args[1]),
    "norms.norm": _radius_hook(lambda args, result: result),
    "norms.geodesic_rep": _radius_hook(lambda args, result: len(result)),
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = tracer.parent() if hook else None
        enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.record_fault(exc, name)
            raise
        finally:
            exit_()
        if hook:
            hook(tracer, parent, args, result)
        return result

    return traced


def public_callables():
    """(span name, owner, attribute) for every public function and method."""
    for layer in LAYERS:
        module = importlib.import_module(f"basilica.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", module, attr
            elif inspect.isclass(obj):
                prefix = layer if attr in _BARE_CLASSES else f"{layer}.{attr}"
                for method, raw in list(vars(obj).items()):
                    if not method.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(raw, classmethod)
                    ):
                        yield f"{prefix}.{method}", obj, method


def install(tracer: Tracer) -> None:
    """Wrap every public callable of the layers where its callers look it up."""
    originals = {}  # id(original function) -> wrapper
    for name, owner, attr in list(public_callables()):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__)))
        elif inspect.isclass(owner):
            setattr(owner, attr, _wrap(tracer, name, raw))
        else:
            originals[id(raw)] = (raw, _wrap(tracer, name, raw))
    for modname, module in list(sys.modules.items()):
        if modname == "basilica" or modname.startswith("basilica."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(module, attr, originals[id(obj)][1])
