#!/usr/bin/env python3
"""Benchmark of the mergecode library and CLI on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload bulk_1e6 --seed 1 --seconds 10 --trace 0

Workloads: bulk_1e6, small_queries, curves, cli (see README.md).  Each run
is a closed loop with one client: it makes whole groups, each one round of
operations made a fixed number of times over, until ``--seconds`` have
passed, checks every result, and prints as the last line
of stdout one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every round both untraced and traced, reports the per-layer metrics
and the tracing overhead, and writes the spans under ``bench/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
the run fails, printing no result, when it is not there.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The import as timed in this process and, by ``cold_import_s``, in fresh
# ones: from the interpreter's first statement to the end of the import.
IMPORT_PROGRAM = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, {src!r}); "
    "import mergecode; print(time.perf_counter() - t)"
)


def import_program() -> float:
    """Import mergecode from this checkout; returns seconds since start."""
    sys.path.insert(0, SRC)
    try:
        import mergecode
    except ImportError as exc:
        raise SystemExit(f"cannot import mergecode from {SRC}: {exc}") from None
    setup_s = time.perf_counter() - _START
    if os.path.dirname(os.path.dirname(os.path.abspath(mergecode.__file__))) != os.path.abspath(SRC):
        raise SystemExit(f"mergecode came from {mergecode.__file__}, not {SRC}")
    return setup_s


SETUP_S = import_program() if __name__ == "__main__" else None

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(SRC).parent

MAX_REPORTED_FAILURES = 5

# The machine's speed drifts by up to 1.8x, for minutes at a time (README.md,
# "Noise").  The end-to-end times are scaled to the speed at which a fixed
# pure Python loop of CALIBRATION_N steps takes REFERENCE_S.  The loop runs
# between operations and between their steps, outside the timed stretches,
# every CALIBRATE_EVERY seconds or more; its best time in the run stands for
# the machine's speed at its best, as each operation's best over its repeats
# does for the operation.
CALIBRATION_N = 20000
REFERENCE_S = 1.0e-3
CALIBRATE_EVERY = 0.5


def calibration_s() -> float:
    """Best of three runs of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        s = 0
        for i in range(CALIBRATION_N):
            s += i * i
        best = min(best, time.perf_counter() - t)
    return best


class Calibration:
    """The calibration loop's best time in this process."""

    def __init__(self):
        self.at = float("-inf")
        self.best = float("inf")

    def sample(self) -> None:
        """Time the loop, unless it was timed less than CALIBRATE_EVERY ago."""
        if time.perf_counter() - self.at >= CALIBRATE_EVERY:
            self.best = min(self.best, calibration_s())
            self.at = time.perf_counter()

    @property
    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        self.sample()
        return REFERENCE_S / self.best


CALIBRATION = Calibration()

# (name, unit) of every per-layer metric, in BENCHMARK.json order.  Times
# and counts are per operation of the traced phase; a layer that does not
# run on a workload reports 0.
SELF_TIMES = (
    "distributions.canonicalize", "distributions.from_counts",
    "distributions.load_distribution", "merging.build_schedule",
    "merging.weights_at", "codes.lengths_from_weights", "codes.payoff",
    "codes.payoff_curve", "limited.alpha_for_limit",
    "waterfilling.waterfill_weights", "waterfilling.water_level",
    "waterfilling.alpha_for_level", "exponential.solve_two_parameter",
    "exponential.closed_form_alpha1", "extension.extend",
    "extension.extension_bounds", "cli.main",
)
CALLS = ("merging.weights_at", "codes.lengths_from_weights")
COUNTS = {
    "merging.symbols_scheduled": "count", "codes.curve_points": "count",
    "exponential.iterations": "count", "extension.outcomes": "count",
    "cli.bytes_out": "B",
}
SUBCOMMANDS = ("code", "limited", "schedule", "waterfill", "exp", "ingest")


@dataclass
class Tally:
    """Outcomes of one phase.

    ``best`` holds one latency per operation of every finished group: its
    best over the group's repeats.  The machine's speed drifts by up to
    1.3x for seconds at a time (README.md, "Noise"); the best of k repeats
    of the same work is what it costs on the unloaded machine, and varies
    far less between runs.  k is the workload's fixed ``repeats``, however
    fast the program, so that a faster program is not taken at the best of
    more samples.  An operation that yields between its steps is taken at
    the best of each step, so that one slow stretch does not spoil a long
    operation.  Memory does not grow with the number of repeats.
    """

    attempted: int = 0
    failed: int = 0
    best: array = field(default_factory=lambda: array("d"))
    # position in the round -> best of each step so far, in the open group
    step_best: dict = field(default_factory=dict)
    # kind -> [seconds, operations] over every successful attempt
    kind_s: dict = field(default_factory=dict)

    def record(self, i: int, kind: str, laps: list[float]) -> None:
        old = self.step_best.get(i)
        self.step_best[i] = laps if old is None else [
            min(a, b) for a, b in zip(old, laps, strict=True)]
        total = self.kind_s.setdefault(kind, [0.0, 0])
        total[0] += sum(laps)
        total[1] += 1

    def close_group(self) -> None:
        self.best.extend(sum(steps) for steps in self.step_best.values())
        self.step_best.clear()

    @property
    def ops_per_s(self) -> float:
        """Operations per second, each operation taken at its best."""
        return len(self.best) / sum(self.best) if self.best else 0.0


def run_phase(make_round, seconds: float, repeats: int, tracers=(None,)) -> list[Tally]:
    """Groups until ``seconds`` have passed; every result is checked.

    A group is one round, ``make_round(g)``, made ``repeats`` times over on
    the same inputs; at least one group is made.  Each repeat is made once
    per entry of ``tracers`` (None: untraced), one after the other and in
    turn first, so traced and untraced operations share the same stretch of
    time and the same warm-up.  Returns one tally per entry.  Only
    ``op.run`` is timed.  An operation fails if it raises or its check does;
    failures are counted and the first few printed to stderr.
    """
    tallies = [Tally() for _ in tracers]
    start = time.perf_counter()
    g = r = 0
    while g == 0 or time.perf_counter() - start < seconds:
        ops = make_round(g)
        for _ in range(repeats):
            turn = r % len(tracers)
            for tally, tracer in zip(tallies[turn:] + tallies[:turn], tracers[turn:] + tracers[:turn]):
                for i, op in enumerate(ops):
                    run_op(op, tally, tracer, i)
            r += 1
        for tally in tallies:
            tally.close_group()
        g += 1
        # let the round go before the next one is made, so that the peak
        # memory does not depend on how many groups fit in the run
        del ops
    return tallies


def run_op(op, tally: Tally, tracer, i: int) -> None:
    tally.attempted += 1
    error = None
    if tracer is not None:
        tracer.op_id += 1
        tracer.active = True
    laps = []
    CALIBRATION.sample()
    mark = time.perf_counter()
    try:
        out = op.run()
        if inspect.isgenerator(out):
            out, mark = yield_laps(out, laps, mark)
    except Exception:  # the loop must go on; the failure is counted
        error = traceback.format_exc()
    finally:
        laps.append(time.perf_counter() - mark)
        if tracer is not None:
            tracer.active = False
    if error is None:
        try:
            op.check(out)
        except Exception:  # a check that cannot parse the output fails it
            error = traceback.format_exc()
    if error is None:
        tally.record(i, op.kind, laps)
        return
    tally.failed += 1
    if tally.failed <= MAX_REPORTED_FAILURES:
        print(f"FAILED {op.kind}:\n{error}", file=sys.stderr)


def yield_laps(steps, laps: list, mark: float):
    """Run a generator operation, timing the stretch up to each ``yield``.

    The machine's speed is calibrated between steps, untimed.  Returns the
    result and the time at which the last step started.
    """
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value, mark
        laps.append(time.perf_counter() - mark)
        CALIBRATION.sample()
        mark = time.perf_counter()


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def cold_import_s() -> float:
    """The import timed in a fresh process, as this process timed its own."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM.format(src=SRC)],
                          capture_output=True, text=True, check=True, timeout=150)
    return float(done.stdout)


def end_to_end(workload, tally: Tally, setup_s: float) -> dict:
    """The end-to-end metrics, with times at the reference speed."""
    scale = CALIBRATION.scale
    print(f"calibration loop at its best: {CALIBRATION.best * 1e3:.4f} ms; "
          f"times scaled by {scale:.4f}", file=sys.stderr)
    return {
        "setup_s": metric(setup_s * scale, "s"),
        "ops_per_s": metric(tally.ops_per_s / scale, "1/s"),
        "op_p50_ms": metric(statistics.median(tally.best or [0.0]) * 1e3 * scale, "ms"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
    }


def per_layer(workload, seconds: float, out_path: Path) -> tuple[Tally, dict]:
    """Per-operation layer figures, and the overhead of tracing them."""
    from tracer import Tracer

    tracer = workload.tracer = Tracer()
    as_processes = hasattr(workload, "inprocess_round")
    make_round = workload.inprocess_round if as_processes else workload.round
    tracer.install()
    try:
        plain, traced = run_phase(make_round, seconds, workload.repeats, (None, tracer))
    finally:
        tracer.uninstall()
    ops = traced.attempted - traced.failed or 1
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = metric(tracer.self_s.get(name, 0.0) / ops, "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = metric(tracer.calls.get(name, 0) / ops, "count")
    for name, unit in COUNTS.items():
        metrics[name] = metric(tracer.counts.get(name, 0) / ops, unit)
    phases = [plain, traced]
    walls = {}
    if as_processes:
        # the same invocations once more as processes, for their wall times
        whole, = run_phase(workload.round, 0, 1)
        phases.append(whole)
        walls = {kind: total / n for kind, (total, n) in whole.kind_s.items()}
        walls["import"] = workload.import_s()
    metrics["cli.import_s"] = metric(walls.pop("import", 0.0), "s")
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = metric(walls.get(sub, 0.0), "s")
    metrics["trace.ops_per_s"] = metric(traced.ops_per_s, "1/s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0), "%")
    tracer.dump(out_path, {
        "workload": workload.name,
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "metrics": {k: v["value"] for k, v in metrics.items()},
    })
    total = Tally(attempted=sum(t.attempted for t in phases),
                  failed=sum(t.failed for t in phases))
    return total, metrics


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            out = ROOT / "bench" / "results" / f"trace-{args.workload}-seed{args.seed}.json"
            tally, metrics = per_layer(workload, args.seconds, out)
        else:
            # setup_s is the best of three cold imports: this process's own
            # and one fresh process's on each side of the timed phase, so
            # that one slow stretch of the machine does not cover all three
            imports = [SETUP_S, cold_import_s()]
            tally, = run_phase(workload.round, args.seconds, workload.repeats)
            imports.append(cold_import_s())
            metrics = end_to_end(workload, tally, min(imports))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
