"""Every output check of the benchmark rejects a corrupted result.

Each test first shows that the check accepts the program's own result and
then that it rejects the same result with one defect put in.  Run with

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mergecode as mc  # noqa: E402

import checks as ck  # noqa: E402
import run  # noqa: E402
from workloads import Op  # noqa: E402


def source(n, radix=2, seed=0):
    raw = np.random.default_rng(seed).dirichlet(np.ones(n))
    p = mc.canonicalize(raw, radix)
    return raw, p, ck.check_canonical(raw, p.probs, p.perm)


def payoff_of(lengths, p, alpha):
    return alpha * lengths.max() + (1 - alpha) * np.dot(p, lengths)


def mid_segment(schedule, k):
    return 0.5 * (schedule.alphas[k] + schedule.alphas[k + 1])


@pytest.mark.parametrize("n", [50, 100_000])
def test_certificate_rejects_weights_from_a_neighbouring_segment(n):
    raw, p_obj, p = source(n)
    s = mc.build_schedule(p_obj)
    k = n // 2
    alpha = mid_segment(s, k)
    w, lengths, report = mc.optimal_code(p_obj, alpha, s)
    ck.check_certificate(lengths.real_lengths, p, alpha, 2,
                         payoff=report.payoff, weights=w.weights)
    for j in (k - 1, k + 1):
        wstar = s.wstar_at_breakpoint[j] + (alpha - s.alphas[j]) * s.slope[j]
        bad = (1 - alpha) * p_obj.probs
        bad[n - 1 - j:] = wstar
        l_bad = -np.log2(bad)
        with pytest.raises(ck.CheckFailed):
            ck.check_certificate(l_bad, p, alpha, 2,
                                 payoff=payoff_of(l_bad, p, alpha), weights=bad)


@pytest.mark.parametrize("n", [50, 100_000])
@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_certificate_rejects_one_weight_nudged_by_1e9(n, factor):
    raw, p_obj, p = source(n)
    s = mc.build_schedule(p_obj)
    alpha = mid_segment(s, n // 2)
    w = np.array(mc.optimal_code(p_obj, alpha, s)[0].weights)
    for i in (0, n // 4, n - 1 - n // 2, n - 1):
        bad = w.copy()
        bad[i] *= factor
        l_bad = -np.log2(bad)
        with pytest.raises(ck.CheckFailed):
            ck.check_certificate(l_bad, p, alpha, 2,
                                 payoff=payoff_of(l_bad, p, alpha), weights=bad)
        # the same nudge on the weights alone, lengths left as they were
        with pytest.raises(ck.CheckFailed, match="weights vs"):
            ck.check_certificate(-np.log2(w), p, alpha, 2, weights=bad)


def test_limited_rejects_a_cap_exceeded_by_1e9():
    raw, p_obj, p = source(50)
    cap = ck.max_length_at(p, 0.3 * ck.alpha_max(p), 2)
    res = mc.limited_code(p_obj, cap)
    ck.check_limited(res.lengths.real_lengths, res.alpha_hat, cap, p, 2,
                     weights=res.weights.weights)
    with pytest.raises(ck.CheckFailed, match="above the cap"):
        ck.check_limited(res.lengths.real_lengths, res.alpha_hat, cap - 1e-9, p, 2,
                         weights=res.weights.weights)


def test_limited_rejects_an_alpha_that_is_not_minimal():
    raw, p_obj, p = source(50)
    cap = ck.max_length_at(p, 0.3 * ck.alpha_max(p), 2)
    alpha = mc.alpha_for_limit(p_obj, cap) + 1e-9
    w, lengths, _ = mc.optimal_code(p_obj, alpha)
    with pytest.raises(ck.CheckFailed, match="not minimal"):
        ck.check_limited(lengths.real_lengths, alpha, cap, p, 2, weights=w.weights)


def test_avg_monotone_rejects_a_rise():
    ck.check_avg_monotone([3.0, 4.0], [2.5, 2.4], 1e-12)
    with pytest.raises(ck.CheckFailed):
        ck.check_avg_monotone([3.0, 4.0], [2.4, 2.4 + 1e-9], 1e-12)


def test_canonical_rejects_a_swapped_perm_entry():
    raw, p_obj, _ = source(40)
    perm = np.array(p_obj.perm)
    perm[[3, 7]] = perm[[7, 3]]
    with pytest.raises(ck.CheckFailed):
        ck.check_canonical(raw, p_obj.probs, perm)


def test_canonical_rejects_a_swap_between_tied_symbols():
    raw = np.array([3, 1, 3, 2, 1, 3], dtype=float)
    p_obj = mc.canonicalize(raw / raw.sum(), 2)
    ck.check_canonical(raw, p_obj.probs, p_obj.perm)
    perm = np.array(p_obj.perm)
    perm[[0, 1]] = perm[[1, 0]]
    with pytest.raises(ck.CheckFailed, match="input order"):
        ck.check_canonical(raw, p_obj.probs, perm)


@pytest.mark.parametrize("max_iter", [20, 32])
def test_tilted_rejects_a_solution_stopped_early(max_iter):
    _, p_obj, p = source(64, radix=3)
    t, alpha = 10.0, 0.9
    sol = mc.solve_two_parameter(p_obj, t, alpha)
    ck.check_tilted(sol.lengths.real_lengths, p, t, alpha, 3)
    try:
        early = mc.solve_two_parameter(p_obj, t, alpha, max_iter=max_iter)
    except mc.NoConvergence as exc:
        early = exc.best
    with pytest.raises(ck.CheckFailed, match="fixed-point"):
        ck.check_tilted(early.lengths.real_lengths, p, t, alpha, 3)


def test_alpha1_rejects_lengths_off_the_closed_form():
    _, p_obj, p = source(64)
    t = 2.0
    sol = mc.solve_two_parameter(p_obj, t, 1.0)
    closed = mc.closed_form_alpha1(p_obj, t).real_lengths
    ck.check_alpha1(sol.lengths.real_lengths, closed, p, t, 2)
    with pytest.raises(ck.CheckFailed):
        ck.check_alpha1(sol.lengths.real_lengths + 1e-6, closed, p, t, 2)


def test_ingest_rejects_a_count_off_by_one():
    data = np.random.default_rng(3).integers(0, 200, size=50_000, dtype=np.uint8).tobytes()
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    seen = np.flatnonzero(counts)
    labels = [f"0x{b:02x}" for b in seen]
    ck.check_ingest(labels, counts[seen] / counts.sum(), data)
    off = counts[seen].copy()
    off[5] += 1
    with pytest.raises(ck.CheckFailed):
        ck.check_ingest(labels, off / off.sum(), data)


def test_curve_rejects_a_dent_and_a_wrong_start():
    _, p_obj, p = source(30)
    reports = mc.payoff_curve(p_obj)
    a = np.array([r.alpha for r in reports])
    f = np.array([r.payoff for r in reports])
    h = np.array([r.entropy_w for r in reports])
    ck.check_curve(a, f, h, p, 2)
    dented = f.copy()
    dented[len(f) // 3] -= 1e-6
    with pytest.raises(ck.CheckFailed):
        ck.check_curve(a, dented, h, p, 2)
    with pytest.raises(ck.CheckFailed):
        ck.check_curve(a, f + 1e-6, h + 1e-6, p, 2)


def test_level_check_rejects_a_level_off_by_1e9():
    _, p_obj, p = source(50)
    alpha = 0.4 * ck.alpha_max(p)
    level = mc.water_level(p_obj, alpha).level
    ck.check_level(level, p, alpha, 1e-12)
    with pytest.raises(ck.CheckFailed):
        ck.check_level(level * (1 + 1e-9), p, alpha, 1e-12)


def test_extension_rejects_a_payoff_at_the_upper_bound():
    ck.check_extension(1.0, 1.2, 1.5)
    with pytest.raises(ck.CheckFailed):
        ck.check_extension(1.0, 1.5, 1.5)


def test_rational_check_rejects_a_worked_value_off_by_1e13():
    s = mc.build_schedule(mc.canonicalize([8 / 15, 4 / 15, 2 / 15, 1 / 15], 2))
    ck.check_rational(s.alphas[1], Fraction(1, 16), "alphas[1]")
    with pytest.raises(ck.CheckFailed):
        ck.check_rational(s.alphas[1] + 1e-13, Fraction(1, 16), "alphas[1]")


def test_breakpoints_reject_a_table_that_stops_short():
    _, p_obj, p = source(40)
    s = mc.build_schedule(p_obj)
    ck.check_breakpoints(s.alphas, s.card, p)
    with pytest.raises(ck.CheckFailed):
        ck.check_breakpoints(s.alphas * (1 - 1e-9), s.card, p)


def test_harness_counts_raising_and_rejected_operations():
    def reject(_):
        raise ck.CheckFailed("rejected")

    ops = [Op("ok", lambda: 1, lambda out: None), Op("raises", lambda: 1 / 0, reject),
           Op("rejected", lambda: 1, reject)]
    tally, = run.run_phase(lambda r: ops, 0.0, 2)
    assert (tally.attempted, tally.failed) == (6, 4)
    assert len(tally.best) == 1
