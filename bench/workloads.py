"""The four workloads: seeded inputs, operations, and their output checks.

A workload hands out rounds.  A round is a fixed list of operations; the
harness in ``run.py`` makes each round ``repeats`` times over, times each
operation's ``run`` and then calls its ``check`` on the result, untimed.
Inputs depend only on the seed, and every round of a run has the same
make-up, so the share of failed operations does not depend on how many
rounds fit in a run.

The program is used only through the package namespace (``mc.<name>``),
looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mergecode as mc

import checks as ck


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _rng(seed: int, workload: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, *more])


def _dirichlet(rng: np.random.Generator, n: int, conc: float) -> np.ndarray:
    """Strictly positive Dirichlet draw; the program rejects zero entries."""
    while True:
        raw = rng.dirichlet(np.full(n, conc))
        if np.all(raw > 0):
            return raw


def _reference(raw: np.ndarray) -> np.ndarray:
    """Canonical source computed apart from the program."""
    return raw[ck.canonical_order(raw)] / raw.sum()


class Workload:
    name = ""
    # times each round is made over on the same inputs; an operation is
    # taken at its best over these
    repeats = 1
    # set by a traced run, for counts the benchmark itself takes
    tracer = None

    def round(self, g: int) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ bulk_1e6


@dataclass
class _BulkSource:
    kind: str
    radix: int
    raw: np.ndarray | None     # values in input order, for Dirichlet sources
    counts: dict | None        # the from_counts document, for Zipf sources
    alphas: tuple              # below, mid, at/after alpha_max
    caps: tuple                # two feasible caps, tighter first


class Bulk(Workload):
    """Full analyses of n = 10^6 sources: one Dirichlet(1), one Zipf."""

    name = "bulk_1e6"
    repeats = 2  # each step is taken at the better of two
    N = 10**6
    ZIPF_TOKENS = 8 * 10**10   # about 1.3e5 distinct counts at n = 10^6
    EXT_BASE = 8
    EXT_ORDER = 6              # 8**6 = 262,144 outcomes
    EXT_ALPHA = 0.3

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 1)
        n = self.N
        dirichlet = rng.exponential(size=n)
        dirichlet /= dirichlet.sum()
        zipf = 1.0 / np.arange(1, n + 1, dtype=float)
        counts = rng.multinomial(self.ZIPF_TOKENS, zipf / zipf.sum()) + 1
        rng.shuffle(counts)
        self.ext_raw = _dirichlet(rng, self.EXT_BASE, 1.0)
        self.sources = [
            self._source("dirichlet", 2, dirichlet, None),
            self._source("zipf", 3, counts.astype(float),
                         {f"s{i}": int(c) for i, c in enumerate(counts)}),
        ]

    @staticmethod
    def _source(kind, radix, raw, counts) -> _BulkSource:
        # A Zipf source keeps only its from_counts document, the program's
        # input, so that the process holds no copy of its own at the peak.
        ref = _reference(raw)
        amax = ck.alpha_max(ref)
        return _BulkSource(
            kind=kind, radix=radix, raw=raw if counts is None else None, counts=counts,
            alphas=(0.1 * amax, 0.6 * amax, amax + 0.5 * (1.0 - amax)),
            caps=tuple(ck.max_length_at(ref, u * amax, radix) for u in (0.6, 0.25)),
        )

    def round(self, g: int) -> list[Op]:
        return [
            Op(f"analyse_{s.kind}", lambda s=s: self._analyse(s),
               lambda out, s=s: self._check(s, out))
            for s in self.sources
        ]

    def _analyse(self, s: _BulkSource):
        """One analysis, yielding between steps so each is timed apart."""
        if s.counts is None:
            p = mc.canonicalize(s.raw, s.radix)
        else:
            p = mc.from_counts(s.counts, s.radix)
        yield
        schedule = mc.build_schedule(p)
        yield
        out = {"p": p, "codes": [], "limited": []}
        for a in s.alphas:
            out["codes"].append(mc.optimal_code(p, a, schedule))
            yield
        for c in s.caps:
            out["limited"].append(mc.limited_code(p, c, schedule))
            yield
        out["water"] = mc.waterfill_weights(p, s.alphas[0])
        yield
        out["level"] = mc.water_level(p, s.alphas[1]).level
        yield
        out["alpha_back"] = mc.alpha_for_level(p, out["level"])
        if s.kind == "dirichlet":
            yield
            base = mc.canonicalize(self.ext_raw, 2)
            out["ext"] = mc.extension_bounds(base, self.EXT_ALPHA, self.EXT_ORDER)
        return out

    def _check(self, s: _BulkSource, out: dict) -> None:
        raw = s.raw
        if raw is None:
            raw = np.fromiter(s.counts.values(), float, len(s.counts))
        p = ck.check_canonical(raw, out["p"].probs, out["p"].perm)
        for a, (w, lengths, report) in zip(s.alphas, out["codes"]):
            ck.check_certificate(lengths.real_lengths, p, a, s.radix,
                                 payoff=report.payoff, weights=w.weights)
        lengths = out["codes"][0][1].real_lengths
        rtol = ck.weight_rtol(p.size, lengths, s.radix)
        ck.check_same_weights(out["water"].weights, out["codes"][0][0].weights,
                              rtol, "water route vs merge route")
        for cap, res in zip(s.caps, out["limited"]):
            ck.check_limited(res.lengths.real_lengths, res.alpha_hat, cap, p,
                             s.radix, weights=res.weights.weights)
        avgs = [res.avg_length for res in out["limited"]]
        ck.check_avg_monotone(list(s.caps), avgs, 2.0 * max(avgs) * rtol)
        ck.check_level(out["level"], p, s.alphas[1], rtol)
        ck.check_level(out["level"], p, out["alpha_back"], rtol)
        if "ext" in out:
            e = out["ext"]
            ck.check_extension(e.lower, e.per_symbol_payoff, e.upper)


# ------------------------------------------------------------- small_queries

EX1 = [8 / 15, 4 / 15, 2 / 15, 1 / 15]
EX2 = [9 / 26, 5 / 26, 4 / 26, 2 / 26, 2 / 26, 2 / 26, 1 / 26, 1 / 26]


class SmallQueries(Workload):
    """Single calls on fresh sources of 2 to 64 symbols."""

    name = "small_queries"
    KINDS = ("optimal", "limited", "waterfill")
    # A round is this many sets of 56 calls, each set on fresh sources, so
    # that the repeats of one call lie seconds apart and a slow stretch of
    # the machine does not cover all of them.
    SETS = 32
    repeats = 16

    def __init__(self, seed: int, workdir: Path):
        # What each position of a set does, in which radix, on how many
        # symbols and from which family is the same for every seed, so that
        # seeds differ only in the sources and parameters; all 18 kinds x
        # radix x family combinations appear 3 times, n spread over 2..64.
        self.seed = seed
        self.specs = [
            (self.KINDS[i % 3], 2 + (i * 41) % 63, 2 + (i // 3) % 3, (1.0, 0.2)[(i // 9) % 2])
            for i in range(54)
        ]

    def round(self, g: int) -> list[Op]:
        rng = _rng(self.seed, 2, g)
        ops = []
        for _ in range(self.SETS):
            ops += [
                Op("worked_ex1", self._ex1, self._check_ex1),
                Op("worked_ex2", self._ex2, self._check_ex2),
            ]
            for kind, n, radix, conc in self.specs:
                raw = _dirichlet(rng, n, conc)
                ops.append(getattr(self, f"_{kind}_op")(raw, radix, float(rng.random())))
        return ops

    @staticmethod
    def _optimal_op(raw, radix, alpha) -> Op:
        def run():
            p = mc.canonicalize(raw, radix)
            return p, mc.optimal_code(p, alpha)

        def check(out):
            p_obj, (w, lengths, report) = out
            p = ck.check_canonical(raw, p_obj.probs, p_obj.perm)
            ck.check_certificate(lengths.real_lengths, p, alpha, radix,
                                 payoff=report.payoff, weights=w.weights)
            water = mc.waterfill_weights(p_obj, alpha).weights
            ck.check_same_weights(w.weights, water, ck.weight_rtol(
                p.size, lengths.real_lengths, radix), "merge route vs water route")

        return Op("optimal_code", run, check)

    @staticmethod
    def _limited_op(raw, radix, u) -> Op:
        # The cap is the optimal maximum length at alpha = u * alpha_max,
        # u >= 1e-3: caps whose alpha is below about 1e-13 make the program
        # raise or overshoot the cap (see CHANGES.md, FOUND).
        ref = _reference(raw)
        cap = ck.max_length_at(ref, max(u, 1e-3) * ck.alpha_max(ref), radix)

        def run():
            p = mc.canonicalize(raw, radix)
            return p, mc.limited_code(p, cap)

        def check(out):
            p_obj, res = out
            p = ck.check_canonical(raw, p_obj.probs, p_obj.perm)
            ck.check_limited(res.lengths.real_lengths, res.alpha_hat, cap, p,
                             radix, weights=res.weights.weights)

        return Op("limited_code", run, check)

    @staticmethod
    def _waterfill_op(raw, radix, alpha) -> Op:
        def run():
            p = mc.canonicalize(raw, radix)
            return p, mc.waterfill_weights(p, alpha)

        def check(out):
            p_obj, w = out
            p = ck.check_canonical(raw, p_obj.probs, p_obj.perm)
            lengths = -np.log(w.weights) / np.log(radix)
            ck.check_certificate(lengths, p, alpha, radix, weights=w.weights)

        return Op("waterfill_weights", run, check)

    @staticmethod
    def _ex1():
        p = mc.canonicalize(EX1, 2)
        schedule = mc.build_schedule(p)
        return p, schedule, mc.optimal_code(p, 1 / 16, schedule)

    @staticmethod
    def _check_ex1(out) -> None:
        p_obj, schedule, (w, lengths, report) = out
        ck.check_rational(schedule.alphas[1], Fraction(1, 16), "ex1 alphas[1]")
        ck.check_rational(schedule.alpha_max, Fraction(17, 32), "ex1 alpha_max")
        for got, want in zip(w.weights, (Fraction(1, 2), Fraction(1, 4),
                                         Fraction(1, 8), Fraction(1, 8))):
            ck.check_rational(got, want, "ex1 weight at 1/16")
        p = ck.check_canonical(np.array(EX1), p_obj.probs, p_obj.perm)
        ck.check_certificate(lengths.real_lengths, p, 1 / 16, 2,
                             payoff=report.payoff, weights=w.weights)

    @staticmethod
    def _ex2():
        p = mc.canonicalize(EX2, 2)
        return p, mc.limited_code(p, 4.0)

    @staticmethod
    def _check_ex2(out) -> None:
        p_obj, res = out
        ck.check_rational(res.alpha_hat, Fraction(5, 96), "ex2 alpha at cap 4")
        p = ck.check_canonical(np.array(EX2), p_obj.probs, p_obj.perm)
        ck.check_limited(res.lengths.real_lengths, res.alpha_hat, 4.0, p, 2,
                         weights=res.weights.weights)


# ------------------------------------------------------------------- curves


class Curves(Workload):
    """Pay-off sweeps and tilted solves on fixed sources."""

    name = "curves"
    repeats = 6  # each operation taken at the best of six
    CURVE_N = (500, 2000)
    TILT_N = (64, 1000)
    TILT_T = (0.5, 2.0, 10.0, 50.0)
    TILT_ALPHA = (0.3, 0.9, 1.0)

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)
        self.sources = {}
        for n in self.CURVE_N:
            self._add_source(n, 2, _dirichlet(rng, n, 1.0))
        # Zipf-shaped with seeded jitter: the fixed point's iteration count
        # depends on the source's shape, which this keeps alike across seeds
        for n, radix in zip(self.TILT_N, (3, 2)):
            raw = np.exp(0.1 * rng.standard_normal(n)) / np.arange(1, n + 1)
            self._add_source(n, radix, raw / raw.sum())

    def _add_source(self, n: int, radix: int, raw: np.ndarray) -> None:
        p = mc.canonicalize(raw, radix)
        self.sources[n] = (p, ck.check_canonical(raw, p.probs, p.perm))

    def round(self, g: int) -> list[Op]:
        ops = [self._curve_op(n) for n in self.CURVE_N]
        ops += [self._tilt_op(n, t, a) for n in self.TILT_N
                for t in self.TILT_T for a in self.TILT_ALPHA]
        return ops

    def _curve_op(self, n: int) -> Op:
        p, ref = self.sources[n]

        def check(reports):
            ck.check_curve([x.alpha for x in reports], [x.payoff for x in reports],
                           [x.entropy_w for x in reports], ref, p.radix)

        return Op("payoff_curve", lambda: mc.payoff_curve(p), check)

    def _tilt_op(self, n: int, t: float, alpha: float) -> Op:
        p, ref = self.sources[n]

        def run():
            sol = mc.solve_two_parameter(p, t, alpha)
            closed = mc.closed_form_alpha1(p, t) if alpha == 1.0 else None
            return sol, closed

        def check(out):
            sol, closed = out
            ck.check_tilted(sol.lengths.real_lengths, ref, t, alpha, p.radix)
            if closed is not None:
                ck.check_alpha1(sol.lengths.real_lengths, closed.real_lengths,
                                ref, t, p.radix)

        return Op("solve_two_parameter", run, check)


# ---------------------------------------------------------------------- cli


class Cli(Workload):
    """Whole CLI runs, one subprocess at a time, on generated files."""

    name = "cli"
    # every invocation is repeated, its bytes compared, and its wall time
    # taken at the best of three
    repeats = 3
    N_LARGE = 10**5
    N_SMALL = 10**3
    RAW_BYTES = 2 * 2**20
    EXP_T, EXP_ALPHA = 2.0, 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 4)
        self.workdir = workdir
        large = rng.exponential(size=self.N_LARGE)
        large /= large.sum()
        small = _dirichlet(rng, self.N_SMALL, 1.0)
        symbols = rng.choice(256, size=200, replace=False)
        freq = 1.0 / np.arange(1, 201) ** 1.2
        self.raw_bytes = rng.choice(symbols, size=self.RAW_BYTES,
                                    p=freq / freq.sum()).astype(np.uint8).tobytes()
        files = {"large": large, "small": small}
        for key, raw in files.items():
            (workdir / f"{key}.json").write_text(
                json.dumps({"radix": 2, "probabilities": raw.tolist()}))
        (workdir / "bytes.bin").write_bytes(self.raw_bytes)

        self.order = ck.canonical_order(large)
        self.ref = {key: _reference(raw) for key, raw in files.items()}
        self.p_large = mc.load_distribution(workdir / "large.json")
        amax = ck.alpha_max(self.ref["large"])
        self.alpha = 0.4 * amax
        self.cap = ck.max_length_at(self.ref["large"], 0.5 * amax, 2)
        self.level = ck.water_level(self.ref["large"], 0.3 * amax)
        self.water = {self.alpha: mc.waterfill_weights(self.p_large, self.alpha).weights}

        a, cap, level = repr(self.alpha), repr(self.cap), repr(self.level)
        large, small, raw = (str(workdir / f) for f in ("large.json", "small.json", "bytes.bin"))
        self.invocations = [
            ("code", ["code", "--input", large, "--alpha", a], self._check_code_json),
            ("code", ["code", "--input", large, "--alpha", a, "--format", "csv"],
             self._check_code_csv),
            ("limited", ["limited", "--input", large, "--llim", cap], self._check_limited),
            ("schedule", ["schedule", "--input", large], self._check_breakpoints),
            ("waterfill", ["waterfill", "--input", large, "--level", level],
             self._check_waterfill),
            ("schedule", ["schedule", "--input", small, "--grid", "1001"],
             self._check_grid),
            ("exp", ["exp", "--input", small, "--t", repr(self.EXP_T),
                     "--alpha", repr(self.EXP_ALPHA)], self._check_exp),
            ("ingest", ["ingest", "--input", raw, "--raw"], self._check_ingest),
        ]
        self.first_output: dict[int, bytes] = {}
        self.env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).parent.parent))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def import_s(self, repeats: int = 3) -> float:
        """Median wall time of a process that only imports the package."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import mergecode"], cwd=self.workdir,
                           env=self.env, check=True, timeout=150)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def round(self, g: int) -> list[Op]:
        """Each invocation as its own process, output on stdout."""
        def op(i, sub, argv, check):
            def run():
                done = subprocess.run([sys.executable, "-m", "mergecode.cli", *argv],
                                      cwd=self.workdir,
                                      env=self.env, capture_output=True, timeout=150)
                return done.returncode, done.stdout, done.stderr
            return Op(sub, run, lambda out: self._check(i, check, *out))
        return [op(i, *inv) for i, inv in enumerate(self.invocations)]

    def inprocess_round(self, g: int) -> list[Op]:
        """Each invocation through ``mergecode.cli.main`` in this process."""
        import mergecode.cli

        def op(i, sub, argv, check):
            path = self.workdir / f"out{i}"

            def run():
                code = mergecode.cli.main([*argv, "--output", str(path)])
                if self.tracer is not None:
                    self.tracer.count("cli.bytes_out", path.stat().st_size)
                return code
            return Op(sub, run, lambda code: self._check(i, check, code, path.read_bytes(), b""))
        return [op(i, *inv) for i, inv in enumerate(self.invocations)]

    def _check(self, i, check, code, data, err) -> None:
        if code != 0:
            raise ck.CheckFailed(f"exit code {code}: {err.decode(errors='replace')[-500:]}")
        first = self.first_output.setdefault(i, data)
        if data != first:
            raise ck.CheckFailed(f"invocation {i} gave different bytes on repeat")
        check(data)

    @staticmethod
    def _csv(data: bytes) -> dict[str, list[str]]:
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        return dict(zip(header, cols))

    def _check_code(self, perm, weights, lengths, payoff) -> None:
        if not np.array_equal(np.asarray(perm, dtype=int), self.order):
            raise ck.CheckFailed("perm differs from the stable descending order")
        p = self.ref["large"]
        ck.check_certificate(lengths, p, self.alpha, 2, payoff=payoff,
                             weights=weights, rel_l=ck.TEXT_REL)
        rtol = ck.weight_rtol(p.size, lengths, 2, ck.TEXT_REL)
        ck.check_same_weights(weights, self.water[self.alpha], rtol,
                              "CLI weights vs in-process waterfill_weights")

    def _check_code_json(self, data: bytes) -> None:
        doc = json.loads(data)
        self._check_code(doc["perm"], np.array(doc["weights"]),
                         np.array(doc["lengths_real"]), doc["payoff"])

    def _check_code_csv(self, data: bytes) -> None:
        cols = self._csv(data)
        self._check_code(cols["symbol_index"], np.array(cols["weight"], dtype=float),
                         np.array(cols["real_length"], dtype=float), None)

    def _check_limited(self, data: bytes) -> None:
        doc = json.loads(data)
        if doc["feasible"] is not True:
            raise ck.CheckFailed("feasible cap reported infeasible")
        ck.check_limited(np.array(doc["lengths_real"]), doc["alpha"], self.cap,
                         self.ref["large"], 2, rel_l=ck.TEXT_REL)

    def _check_breakpoints(self, data: bytes) -> None:
        cols = self._csv(data)
        ck.check_breakpoints(np.array(cols["alpha_k"], dtype=float),
                             np.array(cols["cardinality"], dtype=int), self.ref["large"])

    def _check_waterfill(self, data: bytes) -> None:
        doc = json.loads(data)
        p = self.ref["large"]
        weights = np.array(doc["weights"])
        lengths = -np.log2(weights)
        alpha = doc["alpha"]
        rtol = ck.weight_rtol(p.size, lengths, 2, ck.TEXT_REL)
        if not abs(doc["level"] - self.level) <= rtol * self.level:
            raise ck.CheckFailed(f"level {doc['level']!r} is not the requested {self.level!r}")
        ck.check_level(self.level, p, alpha, rtol)
        if alpha not in self.water:
            self.water[alpha] = mc.waterfill_weights(self.p_large, alpha).weights
        ck.check_same_weights(weights, self.water[alpha], rtol,
                              "CLI weights vs in-process waterfill_weights")
        ck.check_certificate(lengths, p, alpha, 2, rel_l=ck.TEXT_REL)

    def _check_grid(self, data: bytes) -> None:
        cols = self._csv(data)
        ck.check_curve(np.array(cols["alpha"], dtype=float),
                       np.array(cols["payoff"], dtype=float),
                       np.array(cols["entropy_w"], dtype=float),
                       self.ref["small"], 2, rel_l=ck.TEXT_REL)

    def _check_exp(self, data: bytes) -> None:
        doc = json.loads(data)
        if doc["converged"] is not True:
            raise ck.CheckFailed("tilted solve did not converge")
        ck.check_tilted(np.array(doc["lengths_real"]), self.ref["small"],
                        self.EXP_T, self.EXP_ALPHA, 2, rel_l=ck.TEXT_REL)

    def _check_ingest(self, data: bytes) -> None:
        doc = json.loads(data)
        ck.check_ingest(doc["labels"], np.array(doc["probabilities"]), self.raw_bytes)


WORKLOADS = {w.name: w for w in (Bulk, SmallQueries, Curves, Cli)}
