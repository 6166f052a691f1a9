#!/usr/bin/env python3
"""Run one workload of the STM benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload stripe --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run pins itself to one CPU, sets the workload up several times
(``SETUP_MIN`` to ``SETUP_MAX`` set-ups, adding more while they have taken
under ``SETUP_BUDGET_S`` in all), reports the median as ``setup_s`` and
measures the last set-up: ``WARMUP_S`` seconds of warm-up, then
``--seconds`` seconds measured.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` splits the measured span into an untraced and a
traced half and prints the per-layer metrics.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--workload all`` runs every workload, each in its own process, and prints
a table of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    # The program is imported from the checkout's source tree.
    sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("stripe", "bounded", "kiosk")
#: set-ups per run: at least SETUP_MIN, more while the set-ups so far took
#: under SETUP_BUDGET_S, at most SETUP_MAX; their median is setup_s.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 60, 1.0
WARMUP_S = 2.0
#: lead time between the go signal and the first item.
GO_DELAY_S = 0.05


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The thread runtime runs one Python thread at a time (the GIL), so a
    second CPU gains the workloads little.  What it adds is GIL hand-offs
    and wake-ups of parked threads across CPUs, whose delay on a shared VM
    follows the load of other tenants: unpinned, `kiosk` p99 latency ranged
    120-194 ms over five runs, pinned 81-85 ms.  Threads started later
    inherit the mask.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``workload``, run it once and return the result object."""
    pin_to_one_cpu()
    from measure import Timeline, end_to_end_metrics, layer_metrics
    from workloads import WORKLOADS

    factory = WORKLOADS[workload]
    setups: list[float] = []
    while True:
        t0 = time.perf_counter()
        rig = factory(seed)
        setups.append(time.perf_counter() - t0)
        if len(setups) >= SETUP_MAX or (
            len(setups) >= SETUP_MIN and sum(setups) >= SETUP_BUDGET_S
        ):
            break
        rig.abort()
        # Free the unused set-up before the next, so that peak memory is
        # that of one set-up.
        del rig
        gc.collect()
    t_go = time.monotonic() + GO_DELAY_S
    t_meas = t_go + WARMUP_S
    timeline = Timeline(
        t_go=t_go,
        t_meas=t_meas,
        t_switch=t_meas + seconds / 2 if trace else None,
        t_end=t_meas + seconds,
    )
    record = rig.run(timeline)
    if trace:
        metrics = layer_metrics(record)
    else:
        metrics = end_to_end_metrics(record, statistics.median(setups))
    errors = list(record.errors)
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} could not be measured")
    for error in errors:
        print(f"CHECK FAILED [{workload}]: {error}", file=sys.stderr)
    absent = (record.trace or {}).get("absent")
    if absent:
        print(f"absent entry points: {', '.join(absent)}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process, with a table on stdout."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            results[workload] = {"correct": False, "exit_code": proc.returncode}
            print(f"{workload}: exited with code {proc.returncode}")
            continue
        result = json.loads(lines[-1])
        results[workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"the program's source tree {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, bool(args.trace))
        print(json.dumps(results))
        return 0 if all(r.get("correct") for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
