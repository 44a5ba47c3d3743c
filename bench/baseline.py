#!/usr/bin/env python3
"""Time the single calls of the baseline table in ROADMAP.md.

Run from the repository root:

    python3 bench/baseline.py [seed]

Prints one line per row: the best and the median of a few repeats, in
seconds.  Each row is one call on one seeded source, as the table states
it; the benchmark proper is ``bench/run.py``.
"""

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mergecode as mc  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = np.random.default_rng(seed)
    p4 = mc.canonicalize([8 / 15, 4 / 15, 2 / 15, 1 / 15], 2)
    p6 = mc.canonicalize(rng.dirichlet(np.ones(10**6)), 2)
    s6 = mc.build_schedule(p6)
    cap = np.log2(10**6) + 0.5
    level = mc.water_level(p6, 0.5 * s6.alpha_max).level
    p3 = mc.canonicalize(rng.dirichlet(np.ones(1000)), 2)
    env = {"PYTHONPATH": str(ROOT / "src")}
    rows = [
        ("optimal_code, n=4", lambda: mc.optimal_code(p4, 1 / 16), 200),
        ("build_schedule, n=10^6", lambda: mc.build_schedule(p6), 3),
        ("waterfill_weights alpha=1e-9, n=10^6", lambda: mc.waterfill_weights(p6, 1e-9), 3),
        ("limited_code cap=log2(n)+0.5, n=10^6", lambda: mc.limited_code(p6, cap, s6), 3),
        ("alpha_for_level, n=10^6", lambda: mc.alpha_for_level(p6, level), 3),
        ("payoff_curve default grid, n=10^3", lambda: mc.payoff_curve(p3), 3),
    ]
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        dist = Path(tmp) / "d.json"
        dist.write_text(json.dumps({"radix": 2, "probabilities":
                                    rng.dirichlet(np.ones(10**5)).tolist()}))
        raw = Path(tmp) / "r.bin"
        raw.write_bytes(rng.integers(0, 256, size=10 * 2**20, dtype=np.uint8).tobytes())

        def cli(*argv):
            return lambda: subprocess.run(
                [sys.executable, "-m", "mergecode.cli", *argv], env=env,
                stdout=subprocess.DEVNULL, check=True)

        rows += [
            ("mergecode code JSON, n=10^5", cli("code", "--input", str(dist), "--alpha", "0.3"), 3),
            ("import mergecode (process)", lambda: subprocess.run(
                [sys.executable, "-c", "import mergecode"], env=env, check=True), 5),
            ("mergecode ingest --raw, 10 MiB", cli("ingest", "--input", str(raw), "--raw"), 2),
        ]
        for name, fn, repeats in rows:
            best, med = timed(fn, repeats)
            print(f"{name:42s} best {best:9.6f} s  median {med:9.6f} s  ({repeats} runs)")


if __name__ == "__main__":
    main()
