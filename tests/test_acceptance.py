"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion failed.
"""

import time

import numpy as np
import pytest

from mergecode import (
    Infeasible,
    alpha_for_limit,
    build_schedule,
    canonicalize,
    closed_form_alpha1,
    default_alpha_grid,
    entropy,
    extension_bounds,
    lengths_from_weights,
    limited_code,
    optimal_code,
    payoff,
    payoff_curve,
    renyi_entropy,
    solve_two_parameter,
    waterfill_weights,
    weights_at,
)
from mergecode.oracle import brute_force_optimal

EX1 = [8 / 15, 4 / 15, 2 / 15, 1 / 15]
EX2 = [9 / 26, 5 / 26, 4 / 26, 2 / 26, 2 / 26, 2 / 26, 1 / 26, 1 / 26]


def _best_runtime(fn, repeats=20):
    """Best of several timed runs, in seconds; first call warms caches."""
    fn()
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_source(rng, n):
    return canonicalize(rng.dirichlet(np.ones(n)), 2)


def test_criterion_1_four_symbol_reproduction():
    """Breakpoints, weights, and lengths of the 4-symbol worked source."""
    p = canonicalize(EX1, 2)
    s = build_schedule(p)
    assert abs(s.alphas[1] - 1 / 16) <= 1e-12
    assert abs(s.alpha_max - 0.53125) <= 1e-12

    w = weights_at(s, p, 1 / 16)
    np.testing.assert_allclose(w.weights, [0.5, 0.25, 0.125, 0.125], atol=1e-12)

    lengths = lengths_from_weights(w, 2)
    np.testing.assert_allclose(lengths.real_lengths, [1, 2, 3, 3], atol=1e-9)
    assert lengths.int_lengths.tolist() == [1, 2, 3, 3]

    def solve():
        sched = build_schedule(p)
        lengths_from_weights(weights_at(sched, p, 1 / 16), 2)

    runtime = _best_runtime(solve)
    assert runtime < 1e-3, f"solve took {runtime * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1: PASS (4-symbol reproduction, {runtime * 1e6:.0f} us)")


def test_criterion_2_eight_symbol_length_caps():
    """Length-capped solutions of the 8-symbol worked source."""
    p = canonicalize(EX2, 2)

    result = limited_code(p, 4.0)
    assert abs(result.alpha_hat - 5 / 96) <= 1e-12
    assert abs(result.alpha_hat - 0.0521) <= 5e-4
    np.testing.assert_allclose(
        result.lengths.real_lengths,
        [1.61, 2.46, 2.78, 3.78, 3.78, 3.78, 4.0, 4.0],
        atol=0.01,
    )
    assert abs(result.avg_length - 2.6355) <= 5e-4

    assert alpha_for_limit(p, 5.0) == 0.0

    result3 = limited_code(p, 3.0)
    assert abs(result3.alpha_hat - 0.6389) <= 5e-4
    np.testing.assert_allclose(result3.lengths.real_lengths, 3.0, atol=1e-9)

    with pytest.raises(Infeasible):
        limited_code(p, 2.5)

    runtimes = {}
    for cap in (4.0, 5.0, 3.0):
        runtimes[cap] = _best_runtime(lambda c=cap: limited_code(p, c))
        assert runtimes[cap] < 1e-3, f"cap {cap} took {runtimes[cap] * 1e3:.3f} ms"
    worst_us = max(runtimes.values()) * 1e6
    print(f"ACCEPTANCE 2: PASS (8-symbol length caps, worst {worst_us:.0f} us)")


def test_criterion_3_oracle_triangle():
    """Merging rule vs water level on 200 instances; optimizer cross-check."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_weight_gap = 0.0
    small_instances = []
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = _random_source(rng, n)
        s = build_schedule(p)
        alpha = float(rng.uniform(0.0, max(s.alpha_max, 1e-12)))
        wm = weights_at(s, p, alpha).weights
        ww = waterfill_weights(p, alpha).weights
        worst_weight_gap = max(worst_weight_gap, float(np.max(np.abs(wm - ww))))
        if n <= 8 and len(small_instances) < 50:
            small_instances.append((p, alpha))
    assert worst_weight_gap <= 1e-9

    worst_payoff_gap = -np.inf
    for p, alpha in small_instances:
        _, _, report = optimal_code(p, alpha)
        bf_payoff = payoff(brute_force_optimal(p, alpha), p, alpha).payoff
        worst_payoff_gap = max(worst_payoff_gap, report.payoff - bf_payoff)
    assert worst_payoff_gap <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle triangle took {elapsed:.1f} s"
    print(
        f"ACCEPTANCE 3: PASS (weights agree to {worst_weight_gap:.2e}, "
        f"optimizer margin {worst_payoff_gap:.2e}, {elapsed:.1f} s)"
    )


def test_criterion_4_curve_shape():
    """Optimal pay-off: non-decreasing, concave, then exactly flat."""
    rng = np.random.default_rng(2025)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        p = _random_source(rng, n)
        s = build_schedule(p)
        grid = default_alpha_grid(s)
        reports = payoff_curve(p, grid, s)
        payoffs = np.array([r.payoff for r in reports])

        assert np.all(np.diff(payoffs) >= -1e-9)

        # concavity via second differences needs even spacing, so restrict
        # to the uniform part of the grid below the no-compression point
        uniform = np.linspace(0.0, 1.0, 1001)
        mask = np.isin(grid, uniform) & (grid <= s.alpha_max)
        f = payoffs[mask]
        assert np.all(f[2:] - 2 * f[1:-1] + f[:-2] <= 1e-9)

        flat = payoffs[grid >= s.alpha_max]
        np.testing.assert_allclose(flat, np.log2(n), atol=1e-12)
    print("ACCEPTANCE 4: PASS (curve monotone, concave, flat at log|X|)")


def test_criterion_5_entropy_sandwich():
    """Ceiled lengths: H(w) <= sum w*ceil(l) < H(w) + 1 on every grid alpha."""
    rng = np.random.default_rng(2026)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        p = _random_source(rng, n)
        s = build_schedule(p)
        for alpha in default_alpha_grid(s, 101):
            w = weights_at(s, p, float(alpha))
            lengths = lengths_from_weights(w, 2)
            ceiled_avg = float(np.dot(w.weights, lengths.int_lengths))
            h = entropy(w.weights, 2)
            assert h - 1e-9 <= ceiled_avg
            assert ceiled_avg < h + 1.0
    print("ACCEPTANCE 5: PASS (entropy sandwich on ceiled lengths)")


def test_criterion_6_exponential_payoff():
    """Fixed point vs closed form, Renyi sandwich, and the large-t limit.

    The t=100 distance bound holds for this pinned family; alphas drawn
    very close to a merge breakpoint approach the limit at roughly
    log(t)/t and can sit slightly above 5e-2 at t=100.
    """
    rng = np.random.default_rng(2026)
    for t in (0.5, 1.0, 2.0, 5.0):
        for p in (canonicalize(EX1, 2), canonicalize(EX2, 2),
                  _random_source(rng, int(rng.integers(2, 9)))):
            sol = solve_two_parameter(p, t, 1.0)
            cf = closed_form_alpha1(p, t)
            assert np.max(
                np.abs(sol.lengths.real_lengths - cf.real_lengths)
            ) <= 1e-8

            ceiled_avg = float(np.dot(p.probs, cf.int_lengths))
            h = renyi_entropy(p, 1.0 / (1.0 + t))
            assert h - 1e-12 <= ceiled_avg < h + 1.0

    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(8):
        p = _random_source(rng, int(rng.integers(2, 9)))
        s = build_schedule(p)
        alpha = float(rng.uniform(0.0, max(s.alpha_max, 1e-12)))
        merge_lengths = -np.log2(weights_at(s, p, alpha).weights)
        dists = []
        for t in (10.0, 30.0, 100.0):
            sol = solve_two_parameter(p, t, alpha, tol=1e-9, max_iter=200_000)
            dists.append(float(np.max(np.abs(
                sol.lengths.real_lengths - merge_lengths
            ))))
        assert dists[2] <= 5e-2
        assert dists[0] + 1e-9 >= dists[1] >= dists[2] - 1e-9
        worst = max(worst, dists[2])
    print(f"ACCEPTANCE 6: PASS (exponential pay-off, worst t=100 gap {worst:.3f})")


def test_criterion_7_block_coding_bounds():
    """Per-symbol sandwich with gap at most 1/n on the desk-scale sources."""
    sources = [canonicalize([0.75, 0.25], 2), canonicalize(EX1, 2)]
    for p in sources:
        for n in (1, 2, 3):
            for alpha in (0.0, 1 / 16, 0.3):
                report = extension_bounds(p, alpha, n)
                gap = report.per_symbol_payoff - report.lower
                assert -1e-9 <= gap <= 1.0 / n
                assert report.per_symbol_payoff < report.upper
    print("ACCEPTANCE 7: PASS (block-coding sandwich, gap <= 1/n)")


def test_criterion_8_figure_data_reproducible():
    """All sweep data regenerates byte-identically; no larger-scale claims."""
    from mergecode.cli import main

    import json
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        ex1 = Path(tmp) / "ex1.json"
        ex1.write_text(json.dumps({"radix": 2, "probabilities": EX1}))
        outputs = []
        for run in range(2):
            out = Path(tmp) / f"curve{run}.csv"
            assert main([
                "schedule", "--input", str(ex1), "--grid", "1001",
                "--output", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    print("ACCEPTANCE 8: PASS (sweep data byte-identical across runs)")
