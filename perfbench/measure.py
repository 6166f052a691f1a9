"""Clocks, process counters and the arithmetic that turns a run into metrics.

All times are ``time.monotonic()`` seconds.
"""

from __future__ import annotations

import os
import resource
import statistics
from array import array
from dataclasses import dataclass, field

__all__ = [
    "Timeline",
    "RunRecord",
    "process_cpu_s",
    "peak_rss_mb",
    "quantile",
    "end_to_end_metrics",
    "layer_metrics",
]

@dataclass(frozen=True)
class Timeline:
    """Phase boundaries of one run.

    Items received before ``t_meas`` are warm-up.  With tracing, the
    measured span is split at ``t_switch``: the first half runs untraced
    (the reference for the tracing overhead), the second traced.
    """

    t_go: float
    t_meas: float
    t_switch: float | None
    t_end: float


@dataclass
class RunRecord:
    """What one run observed, before it is reduced to metrics."""

    timeline: Timeline
    #: creation and arrival time of each delivered item, in arrival order.
    born: array = field(default_factory=lambda: array("d"))
    arrived: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: phase name -> CPU seconds of the run's process at that mark.
    cpu_marks: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0
    #: traced runs: merged tracer snapshot and counter deltas of the traced half.
    trace: dict | None = None
    counters: dict = field(default_factory=dict)


def process_cpu_s() -> float:
    """User plus system CPU seconds of this process."""
    times = os.times()
    return times.user + times.system


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: the measured span is cut into this many windows; items_per_s is the
#: median of the windows' rates, so a stall of the host in one window moves
#: it little.
RATE_WINDOWS = 10


def _received_in(record: RunRecord, t0: float, t1: float) -> int:
    return sum(1 for received in record.arrived if t0 <= received < t1)


def _window_rate(record: RunRecord, t0: float, t1: float) -> float:
    """Median over the windows of (arrivals - 1) / (last - first arrival).

    Timing each window by its own first and last arrival, rather than by
    its fixed width, keeps the rate from being quantised to whole items
    per window.
    """
    width = (t1 - t0) / RATE_WINDOWS
    windows: list[list[float]] = [[] for _ in range(RATE_WINDOWS)]
    for received in record.arrived:
        if t0 <= received < t1:
            windows[min(int((received - t0) / width), RATE_WINDOWS - 1)].append(received)
    rates = [
        (len(w) - 1) / (max(w) - min(w)) if len(w) > 1 and max(w) > min(w) else 0.0
        for w in windows
    ]
    return statistics.median(rates)


def _cpu_ms_per_item(record: RunRecord, start: str, stop: str, t0, t1) -> float:
    items = _received_in(record, t0, t1)
    if items == 0:
        return float("nan")
    return (record.cpu_marks[stop] - record.cpu_marks[start]) * 1e3 / items


def end_to_end_metrics(record: RunRecord, setup_s: float) -> dict[str, tuple]:
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    tl = record.timeline
    latencies = [
        (received - created) * 1e3
        for created, received in zip(record.born, record.arrived)
        if tl.t_meas <= created < tl.t_end
    ]
    return {
        "items_per_s": (_window_rate(record, tl.t_meas, tl.t_end), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.50), "ms"),
        "latency_p95_ms": (quantile(latencies, 0.95), "ms"),
        "cpu_ms_per_item": (
            _cpu_ms_per_item(record, "meas", "end", tl.t_meas, tl.t_end), "ms"
        ),
        "peak_rss_mb": (record.rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(record: RunRecord) -> dict[str, tuple]:
    """The per-layer metrics of a traced run: name -> (value, unit).

    Per-item figures divide by the items received in the traced half.
    A layer whose entry points were absent, or that the workload does not
    use, reports 0.
    """
    tl = record.timeline
    trace = record.trace or {"ops": {}, "counts": {}}
    ops: dict[str, list[int]] = trace["ops"]
    counts: dict[str, int] = trace["counts"]
    c = record.counters
    items = _received_in(record, tl.t_switch, tl.t_end)
    traced_s = tl.t_end - tl.t_switch

    def calls(op):
        return ops.get(op, [0])[0]

    def total(op, slot):
        return ops.get(op, [0, 0, 0, 0, 0])[slot]

    def layer(prefix, slot):
        return sum(acc[slot] for op, acc in ops.items() if op.startswith(prefix + "."))

    def self_us(prefix):
        return _ratio(layer(prefix, 4), items) / 1e3

    before = _window_rate(record, tl.t_meas, tl.t_switch)
    after = _window_rate(record, tl.t_switch, tl.t_end)
    overhead = (before / after - 1.0) * 100.0 if after else 0.0
    consumes = calls("channel_state.consume") + calls("channel_state.consume_until")
    return {
        "stm.self_us_per_item": (self_us("stm"), "us"),
        "address_space.self_us_per_item": (self_us("address_space"), "us"),
        "address_space.wait_ms_per_item": (
            _ratio(layer("address_space", 3) - layer("address_space", 4), items) / 1e6,
            "ms",
        ),
        "address_space.wakeups_per_put": (
            _ratio(c.get("waiters_woken", 0), calls("address_space.put")), "count"
        ),
        "channel_state.us_per_item": (self_us("channel_state"), "us"),
        "channel_state.put_us": (
            _ratio(total("channel_state.put", 2), calls("channel_state.put")) / 1e3,
            "us",
        ),
        "channel_state.consume_us": (
            _ratio(
                total("channel_state.consume", 2)
                + total("channel_state.consume_until", 2),
                consumes,
            ) / 1e3,
            "us",
        ),
        "channel_state.get_calls_per_get": (
            _ratio(calls("channel_state.get"), calls("address_space.get")), "count"
        ),
        "payload.us_per_item": (self_us("payload"), "us"),
        "payload.bytes_per_item": (_ratio(counts.get("payload.bytes", 0), items), "B"),
        "serialization.us_per_item": (self_us("serialization"), "us"),
        "serialization.copies_per_transfer": (
            _ratio(c.get("payload_bytes_copied", 0), c.get("payload_bytes_framed", 0)),
            "count",
        ),
        "clf.us_per_item": (self_us("clf"), "us"),
        "clf.packets_per_item": (_ratio(c.get("packets_sent", 0), items), "count"),
        "clf.bytes_per_item": (_ratio(c.get("bytes_sent", 0), items), "B"),
        "gc_daemon.epochs_per_s": (_ratio(c.get("gc_epochs", 0), traced_s), "1/s"),
        "gc_daemon.ms_per_epoch": (
            _ratio(total("gc_daemon.run_once", 1), calls("gc_daemon.run_once")) / 1e6,
            "ms",
        ),
        "gc_daemon.items_collected_per_epoch": (
            _ratio(c.get("gc_collected", 0), c.get("gc_epochs", 0)), "count"
        ),
        "gc_daemon.epochs_waited_per_blocked_put": (
            _ratio(counts.get("epochs_waited", 0), counts.get("blocked_puts", 0)),
            "count",
        ),
        "kiosk.tracker_ms_per_frame": (
            _ratio(total("kiosk.analyze", 2), calls("kiosk.analyze")) / 1e6, "ms"
        ),
        "trace.overhead_pct": (overhead, "%"),
    }
