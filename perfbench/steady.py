#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the root of the repository::

    python3 perfbench/steady.py                      # every workload, 2 sets x 10 runs
    python3 perfbench/steady.py --workloads kiosk --runs 5

Each workload is run ``--runs`` times in each of two sets, the sets
interleaved (A, B, A, B, ...); run ``i`` of set ``s`` has the seed
``SEED_BASE + 2 * i + s``.  For each end-to-end metric the
command prints, per set, the median and the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  A metric passes
when each set's spread is within its bound in ``BENCHMARK.json`` (setup_s
is exempt) and the two medians differ by no more than the bound; the
share of failed operations must be the same in both sets.  Rerun it on any
commit to see whether the benchmark is steady there.

``--host-noise N`` instead times a fixed pure-Python loop in N fresh
processes: the spread no CPU-bound metric can beat on this host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEED_BASE = 1000


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


#: the fixed loop of --host-noise (under a second of pure Python).
NOISE_LOOP = (
    "import time\n"
    "t = time.perf_counter()\n"
    "s = 0\n"
    "for i in range(3_000_000):\n"
    "    s += i * i % 7\n"
    "print(time.perf_counter() - t)\n"
)


def host_noise(n: int) -> int:
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", NOISE_LOOP], stdout=subprocess.PIPE,
                             text=True, check=True, timeout=120).stdout
        times.append(float(out) * 1e3)
    median, q1, q3, spread = summarize(times)
    print(f"fixed loop in {n} processes: min {min(times):.0f} ms, median "
          f"{median:.0f} ms, max {max(times):.0f} ms, quartiles [{q1:.0f}, "
          f"{q3:.0f}] ms, spread {spread * 100:.1f}%")
    return 0


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) of a set of runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--host-noise", type=int, metavar="N",
                        help="only time a fixed loop in N processes")
    args = parser.parse_args(argv)
    if args.host_noise:
        return host_noise(args.host_noise)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    metrics = bench["end_to_end"]
    all_ok = True
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for s in range(SETS):
                sets[s].append(run_once(workload, SEED_BASE + i * SETS + s,
                                        args.seconds, 0))
        print(f"== {workload}: {args.runs} runs x {SETS} sets, "
              f"{args.seconds} s each")
        correct = all(r["correct"] for runs in sets for r in runs)
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in sets
        ]
        print(f"   correct in every run: {correct}; failed share per set: "
              + ", ".join(f"{share:.6f}" for share in shares))
        ok = correct and len(set(shares)) == 1
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                median, q1, q3, spread = summarize(
                    [r["metrics"][name]["value"] for r in runs]
                )
                medians.append(median)
                spread_ok = name == "setup_s" or spread <= bound
                ok &= spread_ok
                cells.append(
                    f"med {median:11.4f} [{q1:11.4f}, {q3:11.4f}] "
                    f"spread {spread * 100:5.1f}%{'' if spread_ok else ' (over)'}"
                )
            drift = abs(medians[1] - medians[0]) / medians[0]
            agree = drift <= bound
            ok &= agree
            print(f"   {name:15s} bound {bound * 100:4.1f}%  " + " | ".join(cells)
                  + f" drift {drift * 100:5.1f}% {'agree' if agree else 'DISAGREE'}")
        print(f"   => {'steady' if ok else 'NOT steady'}")
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
