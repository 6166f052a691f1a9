#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Builds correct observations the way a run would see them (the tracking
ones by running the blob tracker on the seeded frames), checks that every
check accepts them, then seeds one fault at a time and checks that the
matching check rejects it: a missing, duplicated or out-of-order item, a
wrong payload, a tracking error beyond the limit, a channel over its
capacity or not empty after GC, and a leaked child process or
shared-memory segment.  Exits 0 when every fault is caught.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def main() -> int:
    from checks import (
        TRACKING_LIMIT_PX,
        check_empty,
        check_leaks,
        check_occupancy,
        check_stream,
        check_tracking,
        shm_segments,
    )
    from inputs import ground_truth, kiosk_scene, payload, payload_pool, replay_frames

    from repro.kiosk import BlobTracker

    results: list[tuple[str, bool]] = []

    def expect(case: str, errors: list[str], should_fail: bool) -> None:
        caught = bool(errors)
        results.append((case, caught == should_fail))
        status = "ok  " if caught == should_fail else "FAIL"
        detail = errors[0] if errors else "no fault reported"
        print(f"{status} {case}: {detail}")

    seed, n_items = 7, 64
    pool = payload_pool(seed)
    good = [(ts, payload(pool, ts)) for ts in range(n_items)]
    expected_pool = payload_pool(seed)

    def stream(observed):
        return check_stream(observed, n_items, lambda ts: payload(expected_pool, ts))

    expect("stream, correct output", stream(good), False)
    expect("stream, missing item", stream(good[:10] + good[11:]), True)
    expect("stream, duplicated item", stream(good[:11] + good[10:]), True)
    expect("stream, out-of-order item",
           stream(good[:10] + [good[11], good[10]] + good[12:]), True)
    wrong = list(good)
    wrong[20] = (20, payload(pool, 21))
    expect("stream, wrong payload", stream(wrong), True)

    scene = kiosk_scene(seed)
    tracker = BlobTracker(scene.background)
    frames = replay_frames(seed)
    tracked = []
    for ts, pixels in enumerate(frames):
        record = tracker.analyze(ts, pixels)
        tracked.append((ts, record.timestamp, [(r.cx, r.cy) for r in record.regions]))
    truth = ground_truth(seed)
    n_frames = len(tracked)

    def tracking(observed):
        return check_tracking(observed, n_frames, truth)

    expect("tracking, correct output", tracking(tracked), False)
    expect("tracking, missing frame", tracking(tracked[:5] + tracked[6:]), True)
    expect("tracking, duplicated frame", tracking(tracked[:6] + tracked[5:]), True)
    expect("tracking, out-of-order frame",
           tracking(tracked[:5] + [tracked[6], tracked[5]] + tracked[7:]), True)
    with_actor = next(ts for ts in range(n_frames) if truth(ts))
    off = list(tracked)
    off[with_actor] = (
        with_actor, with_actor,
        [(cx + TRACKING_LIMIT_PX + 1.0, cy) for cx, cy in tracked[with_actor][2]],
    )
    expect("tracking, error beyond the limit", tracking(off), True)
    lost = list(tracked)
    lost[with_actor] = (with_actor, with_actor, [])
    expect("tracking, customer not detected", tracking(lost), True)

    expect("occupancy, within capacity", check_occupancy([0, 3, 8, 8, 1], 8), False)
    expect("occupancy, over capacity", check_occupancy([0, 3, 9, 8], 8), True)
    expect("channels, empty after GC", check_empty({"video": 0}), False)
    expect("channels, items left after GC", check_empty({"video": 2}), True)

    prefix = f"stm-selftest{os.getpid():x}-"
    expect("leaks, none", check_leaks(
        multiprocessing.active_children(), shm_segments(prefix)), False)
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    segment = shared_memory.SharedMemory(name=prefix + "r0-1", create=True, size=64)
    try:
        expect("leaks, child process left alive",
               check_leaks(multiprocessing.active_children(), []), True)
        expect("leaks, shared-memory segment left behind",
               check_leaks([], shm_segments(prefix)), True)
    finally:
        child.terminate()
        child.join(timeout=10)
        segment.close()
        segment.unlink()
    expect("leaks, all cleaned up", check_leaks(
        multiprocessing.active_children(), shm_segments(prefix)), False)

    failed = [case for case, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} cases as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
