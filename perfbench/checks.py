"""Output checks of the workloads.

Each check takes what a run observed and returns a list of faults found
(empty when the output is right).  The expected values come from
:mod:`inputs`, computed apart from the program under test.
"""

from __future__ import annotations

import math
import os

__all__ = [
    "TRACKING_LIMIT_PX",
    "check_stream",
    "check_tracking",
    "check_occupancy",
    "check_empty",
    "check_leaks",
    "shm_segments",
]

#: how far (pixels) a detection's centroid may sit from the true centre.
TRACKING_LIMIT_PX = 3.0
#: faults listed per check before the rest are only counted.
_MAX_LISTED = 5


def _listed(errors: list[str], more: int) -> list[str]:
    if more > 0:
        errors.append(f"... and {more} more")
    return errors


def _check_sequence(timestamps: list[int], n_items: int, what: str) -> list[str]:
    """Every timestamp 0..n_items-1 exactly once, in increasing order."""
    errors: list[str] = []
    seen: set[int] = set()
    more = 0
    for position, ts in enumerate(timestamps):
        fault = None
        if ts in seen:
            fault = f"{what} {ts} delivered twice"
        elif ts != position:
            fault = f"{what} {ts} delivered at position {position}"
        seen.add(ts)
        if fault is not None:
            if len(errors) < _MAX_LISTED:
                errors.append(fault)
            else:
                more += 1
    missing = [ts for ts in range(n_items) if ts not in seen]
    if missing:
        errors.append(f"{len(missing)} {what}s never delivered, first {missing[0]}")
    extra = sorted(ts for ts in seen if not 0 <= ts < n_items)
    if extra:
        errors.append(f"{len(extra)} {what}s delivered that were never put")
    return _listed(errors, more)


def check_stream(observed, n_items: int, expected) -> list[str]:
    """Items of a stripe or bounded run.

    ``observed`` lists ``(timestamp, value)`` in arrival order;
    ``expected(ts)`` recomputes the payload put at ``ts``.  The consumer
    asks connection ``ts % K`` for exactly timestamp ``ts``, so an item
    that arrives in order with its own timestamp came on the expected
    connection.
    """
    errors = _check_sequence([ts for ts, _ in observed], n_items, "timestamp")
    more = 0
    for ts, value in observed:
        if value != expected(ts):
            if len(errors) < 2 * _MAX_LISTED:
                errors.append(f"timestamp {ts} carries a wrong payload")
            else:
                more += 1
    return _listed(errors, more)


def check_tracking(observed, n_frames: int, truth, limit: float = TRACKING_LIMIT_PX):
    """Frames of a kiosk run.

    ``observed`` lists ``(timestamp, record timestamp, centroids)`` in
    arrival order, where ``centroids`` are the detected regions' centres.
    Every frame must be tracked once and in order, and every customer that
    ``truth(ts)`` places in the frame must have a detection within
    ``limit`` pixels.
    """
    errors = _check_sequence([ts for ts, _, _ in observed], n_frames, "frame")
    more = 0
    for ts, record_ts, centroids in observed:
        fault = None
        if record_ts != ts:
            fault = f"frame {ts} tracked as frame {record_ts}"
        else:
            for gx, gy in truth(ts):
                error = min(
                    (math.hypot(cx - gx, cy - gy) for cx, cy in centroids),
                    default=math.inf,
                )
                if error > limit:
                    fault = (
                        f"frame {ts}: customer at ({gx:.1f}, {gy:.1f}) "
                        f"tracked {error:.1f} px off (limit {limit})"
                    )
                    break
        if fault is not None:
            if len(errors) < 2 * _MAX_LISTED:
                errors.append(fault)
            else:
                more += 1
    return _listed(errors, more)


def check_occupancy(samples: list[int], capacity: int) -> list[str]:
    """A bounded channel never held more items than its capacity."""
    over = [n for n in samples if n > capacity]
    if not samples:
        return ["occupancy was never sampled"]
    if over:
        return [
            f"channel held {max(over)} items, capacity {capacity} "
            f"({len(over)} of {len(samples)} samples over)"
        ]
    return []


def check_empty(occupancy: dict[str, int]) -> list[str]:
    """Every channel is empty after the run and a GC epoch."""
    return [
        f"channel {name} still holds {n} items after the run and a GC epoch"
        for name, n in sorted(occupancy.items())
        if n
    ]


def shm_segments(prefix: str) -> list[str]:
    """Names of shared-memory segments starting with ``prefix``."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def check_leaks(live_children: list, segments: list[str]) -> list[str]:
    """No child process and no shared-memory segment outlived the cluster.

    For a run on the process runtime (``ProcCluster``).  No workload of the
    benchmark starts one, so only the self-test calls this check.
    """
    errors = []
    if live_children:
        errors.append(
            f"{len(live_children)} child processes still alive: "
            + ", ".join(str(getattr(p, "pid", p)) for p in live_children)
        )
    if segments:
        errors.append(f"shared-memory segments left behind: {', '.join(segments)}")
    return errors
