"""Operations run in forked workers under a memory cap and a deadline.

The worker sets ``RLIMIT_AS`` on itself, so an operation that outgrows the
cap gets a ``MemoryError`` instead of taking the machine (or the benchmark)
down, and an interval timer raises ``Stopped`` in it when one operation
passes its deadline.  The cap counts from the address space the worker
inherits, so where an operation hits it does not drift with the parent's
heap; CPython can stall for good at some of those places, which the parent
ends with SIGKILL once the deadline and a grace period have passed.  Records stream back over a pipe one JSON line at a
time, so the parent keeps every finished operation even if it has to kill
the worker.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
import traceback

GRACE_S = 2.0  # how long past an operation's deadline the parent waits
HEADROOM_MB = 64  # above the cap, for reporting after an operation hit it


class Stopped(BaseException):
    """Raised inside a worker when an operation passes its deadline.

    A BaseException, so library code catching ``Exception`` cannot swallow it.
    """


def _raise_stopped(signum, frame):
    raise Stopped()


def arm(deadline_s: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, deadline_s)


def disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def run_worker(target, cap_mb: int, deadline_s: float):
    """Fork, let the child add at most ``cap_mb`` of address space, run ``target(emit)``.

    ``target`` arms the deadline around each operation itself.  Returns the
    emitted records and the child's peak RSS in MB.  If no record arrives
    within ``deadline_s + GRACE_S`` the child is killed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open("/proc/self/statm") as statm:
                cap = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (cap_mb << 20)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap + (HEADROOM_MB << 20)))
            signal.signal(signal.SIGALRM, _raise_stopped)
            with os.fdopen(write_fd, "w") as out:

                def emit(record):
                    out.write(json.dumps(record) + "\n")
                    out.flush()

                target(emit)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    records = []
    buffer = b""
    try:
        while True:
            ready, _, _ = select.select([read_fd], [], [], deadline_s + GRACE_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            records.extend(json.loads(line) for line in lines)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    return records, usage.ru_maxrss / 1024


def run_ops(ops, emit, deadline_s: float, tracer=None, meter=None) -> None:
    """Run ``(kind, call, check)`` operations in order, one record each.

    A failed operation ends the worker: after a ``MemoryError`` or a
    deadline its library state may be half-updated.  Time spent in
    ``check`` is reported apart from the operation's latency.  With a
    ``speed.Meter``, the record also holds the operation's ``scale`` and
    the ``probe_s`` its probes took, which are out of ``latency_s``.
    """
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    headroom = (hard, hard)
    for kind, call, check in ops:
        # every key exists up front, so recording a failure at the cap
        # does not need to grow the dict
        record = {"kind": kind, "ok": False, "error": None, "layer": None, "latency_s": 0.0, "check_s": 0.0,
                  "scale": 1.0, "probe_s": 0.0}
        if tracer:
            tracer.reset_fault()
        mark = meter.mark() if meter else None
        end = None
        try:
            arm(deadline_s)
            # the timer's system calls stay out of the latency: a ball read takes about 10 us
            start = time.perf_counter()
            try:
                answer = call()
                end = time.perf_counter()
            finally:
                disarm()
        except (MemoryError, Stopped) as exc:
            resource.setrlimit(resource.RLIMIT_AS, headroom)
            record["error"] = "memory" if isinstance(exc, MemoryError) else "deadline"
            record["layer"] = tracer.fault_layer(exc) if tracer else None
        except Exception as exc:
            record["error"] = f"exception: {type(exc).__name__}: {exc}"
            record["layer"] = tracer.fault_layer(exc) if tracer else None
        if end is None:  # it failed; the clock is read once there is room again
            end = time.perf_counter()
        record["latency_s"] = end - start
        if meter:
            record["scale"], record["probe_s"] = meter.since(mark)
            record["latency_s"] -= record["probe_s"]
        if record["error"]:
            emit(record)
            return
        try:
            record["ok"] = bool(check(answer))
        except Exception as exc:
            record["check_error"] = f"{type(exc).__name__}: {exc}"
        record["check_s"] = time.perf_counter() - end
        emit(record)
