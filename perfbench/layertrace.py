"""Timing wrappers around each STM layer's public entry points.

The traced run of the benchmark installs these wrappers, lets the workload
run, and reads back per-layer totals.  Nothing in the program is changed on
disk: :func:`install` replaces the entry points by name, in their defining
class or module and in every ``repro`` module that imported the same
function object, and :func:`uninstall` puts the originals back.

Every call through a wrapper is a span.  Spans nest on a per-thread stack,
so a span's *self* time is its duration minus the time its child spans
cover, whatever layer the child belongs to.  Each span records wall time
(``perf_counter_ns``) and the calling thread's CPU time
(``thread_time_ns``): self wall minus self CPU is time the thread waited
inside that layer (parked on a channel, waiting for the GIL or a reply).

An entry point that cannot be found (renamed, merged into another layer, or
bypassed by a direct dispatch path) is recorded in :attr:`Tracer.absent`
and otherwise ignored, so the benchmark keeps running and reports that
layer's figures as zero.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

__all__ = ["ENTRY_POINTS", "Tracer"]

#: (layer, module, qualified name) of every wrapped entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("stm", "repro.stm.api", "OutputConnection.put"),
    ("stm", "repro.stm.api", "InputConnection.get"),
    ("stm", "repro.stm.api", "InputConnection.consume"),
    ("stm", "repro.stm.api", "InputConnection.consume_until"),
    ("address_space", "repro.runtime.address_space", "AddressSpace.put"),
    ("address_space", "repro.runtime.address_space", "AddressSpace.get"),
    ("address_space", "repro.runtime.address_space", "AddressSpace.consume"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.put"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.get"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.consume"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.consume_until"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.collect_below"),
    ("channel_state", "repro.core.channel_state", "ChannelKernel.unconsumed_min"),
    ("payload", "repro.core.payload", "encode"),
    ("payload", "repro.core.payload", "decode"),
    ("serialization", "repro.transport.serialization", "encode_message_sg"),
    ("serialization", "repro.transport.serialization", "decode_message"),
    ("clf", "repro.transport.clf", "ClfEndpoint.send"),
    ("clf", "repro.transport.clf", "ClfEndpoint.recv"),
    ("gc_daemon", "repro.runtime.gc_daemon", "GcDaemon.run_once"),
    ("kiosk", "repro.kiosk.blob_tracker", "BlobTracker.analyze"),
)

# Span frame slots: child wall, child cpu, blocked flag, op name.
_CHILD_WALL, _CHILD_CPU, _BLOCKED, _OP = range(4)


class _ThreadTotals:
    """Accumulators owned by one thread (no lock: only its owner writes)."""

    __slots__ = ("ops", "stack")

    def __init__(self) -> None:
        # op -> [calls, wall_ns, cpu_ns, self_wall_ns, self_cpu_ns]
        self.ops: dict[str, list[int]] = {}
        self.stack: list[list] = []


class Tracer:
    """Installs the wrappers and accumulates span totals per operation.

    Extra counts that only a wrapper can see are kept beside the spans:
    ``payload.bytes`` (stored size returned by ``encode``), the puts that
    the kernel reported BLOCKED, and the GC epochs that completed while a
    blocked put waited.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.installed = False
        # Plain ints updated under the GIL by single bytecodes' worth of
        # work would still race on read-modify-write, so they take a lock.
        self._lock = threading.Lock()
        self.counts = {
            "payload.bytes": 0,
            "blocked_puts": 0,
            "epochs_waited": 0,
            "gc_epochs": 0,
        }

    # -- accumulation -------------------------------------------------
    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, op: str, fn):
        tracer = self
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns
        on_result = _RESULT_HOOKS.get(op)
        is_put = op == "address_space.put"

        def traced(*args, **kwargs):
            totals = tracer._totals()
            stack = totals.stack
            frame = [0, 0, False, op]
            epochs0 = tracer.counts["gc_epochs"] if is_put else 0
            stack.append(frame)
            w0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                dw = wall() - w0
                dc = cpu() - c0
                stack.pop()
                acc = totals.ops.get(op)
                if acc is None:
                    acc = totals.ops[op] = [0, 0, 0, 0, 0]
                acc[0] += 1
                acc[1] += dw
                acc[2] += dc
                acc[3] += dw - frame[_CHILD_WALL]
                acc[4] += dc - frame[_CHILD_CPU]
                if stack:
                    parent = stack[-1]
                    parent[_CHILD_WALL] += dw
                    parent[_CHILD_CPU] += dc
                if is_put and frame[_BLOCKED]:
                    tracer._count("blocked_puts", 1)
                    tracer._count(
                        "epochs_waited", tracer.counts["gc_epochs"] - epochs0
                    )
            if on_result is not None:
                on_result(tracer, stack, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", op)
        return traced

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        """Wrap every entry point that exists; idempotent."""
        with self._lock:
            if self.installed:
                return
            self.installed = True
        for layer, module_name, qualname in ENTRY_POINTS:
            op = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{qualname}")
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{module_name}:{qualname}")
                continue
            wrapped = self._wrap(op, original)
            self._patch(owner, attr, original, wrapped)
            if owner is module:
                # Functions imported by name elsewhere keep their own
                # reference; patch each such alias in the program's modules.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is module or not name.startswith("repro"):
                        continue
                    if getattr(other, attr, None) is original:
                        self._patch(other, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    # -- reading ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals over every thread: ``{"ops": {...}, "counts": {...}}``."""
        ops: dict[str, list[int]] = {}
        with self._lock:
            threads = list(self._threads)
            counts = dict(self.counts)
        for totals in threads:
            for op, acc in list(totals.ops.items()):
                into = ops.setdefault(op, [0, 0, 0, 0, 0])
                for i, value in enumerate(acc):
                    into[i] += value
        return {"ops": ops, "counts": counts, "absent": list(self.absent)}


def _after_encode(tracer: Tracer, stack, result) -> None:
    tracer._count("payload.bytes", result[1])


def _after_kernel_put(tracer: Tracer, stack, result) -> None:
    if getattr(getattr(result, "status", None), "name", "") != "BLOCKED":
        return
    for frame in reversed(stack):
        if frame[_OP] == "address_space.put":
            frame[_BLOCKED] = True
            return


def _after_gc_round(tracer: Tracer, stack, result) -> None:
    tracer._count("gc_epochs", 1)


_RESULT_HOOKS = {
    "payload.encode": _after_encode,
    "channel_state.put": _after_kernel_put,
    "gc_daemon.run_once": _after_gc_round,
}
