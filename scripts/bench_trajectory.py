#!/usr/bin/env python3
"""Run the benchmark on every workload and several seeds; write BENCH_<pr>.json.

Usage: python3 scripts/bench_trajectory.py <pr>

Run from the repository root.  Each (seed, workload) pair is one process of
the unchanged ``bench/run.py --trace 0``, one at a time, the workloads
and the run length taken from ``BENCHMARK.json``.  The seeds are fixed, so
every file measures the same runs.  The file ``BENCH_<pr>.json`` at the root
holds, per workload and end-to-end metric, the median and quartiles over
the seeds and every run's value; per workload the operations attempted and
failed; and the machine: processor count and flags, numpy and Python.
Committed once per change, these files are the benchmark's trajectory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The result object that ``bench/run.py`` prints as its last line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs, and the runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def machine() -> dict:
    cpu = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("model name", platform.processor()),
        "cpu_flags": cpu.get("flags", "").split(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number in the output file name")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    runs = {w: [] for w in workloads}
    # seeds outside, so a slow stretch of the machine spreads over workloads
    for seed in SEEDS:
        for workload in workloads:
            result = run_once(workload, seed, seconds)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr)

    doc = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": list(SEEDS),
        "machine": machine(),
        "workloads": {
            w: {
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "metrics": {
                    m: {"unit": rs[0]["metrics"][m]["unit"],
                        **summary([r["metrics"][m]["value"] for r in rs])}
                    for m in metrics
                },
            }
            for w, rs in runs.items()
        },
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
