import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergecode import (
    NoConvergence,
    SizeMismatch,
    build_schedule,
    canonicalize,
    default_alpha_grid,
    entropy,
    lengths_from_weights,
    limited_code,
    optimal_code,
    payoff,
    payoff_curve,
    weights_at,
)
from mergecode.codes import INT_SNAP, snap_ceil
from mergecode.merging import WeightVector
from mergecode.oracle import brute_force_optimal
from conftest import random_source


def _wv(weights, alpha=0.0):
    weights = np.asarray(weights, dtype=float)
    return WeightVector(weights=weights, alpha=alpha, merged_from=len(weights) - 1)


class TestLengthsFromWeights:
    def test_dyadic_weights_give_integer_lengths(self):
        L = lengths_from_weights(_wv([0.5, 0.25, 0.125, 0.125]), 2)
        np.testing.assert_allclose(L.real_lengths, [1, 2, 3, 3], atol=1e-12)
        assert L.int_lengths.tolist() == [1, 2, 3, 3]
        assert L.kraft_real == pytest.approx(1.0, abs=1e-12)
        assert L.kraft_int == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eight(self):
        L = lengths_from_weights(_wv([1 / 8] * 8), 2)
        np.testing.assert_allclose(L.real_lengths, 3.0, atol=1e-12)
        assert L.int_lengths.tolist() == [3] * 8

    def test_singleton(self):
        L = lengths_from_weights(_wv([1.0]), 2)
        assert L.real_lengths.tolist() == [0.0]
        assert L.int_lengths.tolist() == [0]

    def test_snap_ceil_keeps_exact_integers(self):
        vals = np.array([3.0, 3.0 + 5e-10, 3.0 - 5e-10, 2.2, 2.999])
        assert snap_ceil(vals).tolist() == [3, 3, 3, 3, 3]


def _snap_ceil_by_rint(values):
    """The reference: the nearest integer when within INT_SNAP, else ceil."""
    nearest = np.rint(values)
    out = np.where(np.abs(values - nearest) <= INT_SNAP, nearest, np.ceil(values))
    return out.astype(np.int64)


def _ulp_walk(x, steps=4):
    """x and the ``steps`` floats on either side of it."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=2**62),
    st.sampled_from([0.0, INT_SNAP, -INT_SNAP, 0.5, -0.5, 0.25]),
)
def test_snap_ceil_matches_the_rint_form(k, offset):
    # near k +- INT_SNAP, half-integers, 0 and beyond 2**52, where floats
    # hold only integers and ceil - 1 may round back to ceil
    vals = np.array(_ulp_walk(float(k) + offset))
    vals = vals[vals >= 0]
    assert np.array_equal(snap_ceil(vals), _snap_ceil_by_rint(vals))


def test_snap_ceil_matches_the_rint_form_on_the_edges():
    bases = [0.0, INT_SNAP, 0.5]
    for k in [*range(1, 70), *(2.0**e + d for e in range(51, 62) for d in (0, 1, 2, 3))]:
        bases += [k, k + INT_SNAP, k - INT_SNAP, k + 0.5, k - 0.5]
    vals = np.array([v for b in bases for v in _ulp_walk(float(b), 8)])
    vals = vals[vals >= 0]
    assert np.array_equal(snap_ceil(vals), _snap_ceil_by_rint(vals))
    lengths = np.random.default_rng(5).exponential(20.0, 100_000)
    assert np.array_equal(snap_ceil(lengths), _snap_ceil_by_rint(lengths))


class TestPayoff:
    def test_capped_example_average_length(self, eight_symbol_source):
        result = limited_code(eight_symbol_source, 4.0)
        report = payoff(result.lengths, eight_symbol_source, result.alpha_hat)
        assert report.avg_length == pytest.approx(2.6355, abs=5e-4)

    def test_shannon_case_equals_entropy(self, four_symbol_source):
        _, lengths, report = optimal_code(four_symbol_source, 0.0)
        np.testing.assert_allclose(
            lengths.real_lengths, -np.log2(four_symbol_source.probs), atol=1e-12
        )
        assert report.payoff == pytest.approx(
            entropy(four_symbol_source.probs, 2), abs=1e-12
        )

    def test_uniform_lengths_payoff_is_constant(self, four_symbol_source):
        L = lengths_from_weights(_wv([0.25] * 4), 2)
        for alpha in (0.0, 0.3, 1.0):
            report = payoff(L, four_symbol_source, alpha)
            assert report.payoff == pytest.approx(2.0, abs=1e-12)

    def test_size_mismatch(self, four_symbol_source):
        L = lengths_from_weights(_wv([0.5, 0.5]), 2)
        with pytest.raises(SizeMismatch):
            payoff(L, four_symbol_source, 0.1)

    def test_payoff_identity(self, eight_symbol_source):
        for alpha in np.linspace(0, 1, 37):
            _, _, report = optimal_code(eight_symbol_source, float(alpha))
            blend = alpha * report.max_length + (1 - alpha) * report.avg_length
            assert report.payoff == pytest.approx(blend, abs=1e-12)


class TestOptimalCode:
    def test_huffman_coincidence(self, four_symbol_source):
        _, lengths, _ = optimal_code(four_symbol_source, 1 / 16)
        np.testing.assert_allclose(lengths.real_lengths, [1, 2, 3, 3], atol=1e-9)

    def test_no_compression_point(self, four_symbol_source):
        _, lengths, _ = optimal_code(four_symbol_source, 0.53125)
        np.testing.assert_allclose(lengths.real_lengths, 2.0, atol=1e-12)

    def test_payoff_achieves_weight_entropy(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_source(rng, int(rng.integers(2, 11)))
            alpha = float(rng.uniform(0, 1))
            _, _, report = optimal_code(p, alpha)
            assert abs(report.payoff - report.entropy_w) <= 1e-9


class TestPayoffCurve:
    def test_worked_example_monotone(self, four_symbol_source):
        reports = payoff_curve(
            four_symbol_source, np.array([0.0, 1 / 16, 0.25, 0.53125])
        )
        payoffs = [r.payoff for r in reports]
        assert all(b - a >= -1e-12 for a, b in zip(payoffs[:-1], payoffs[1:]))

    def test_uniform_source_constant(self):
        p = canonicalize([0.25] * 4, 2)
        reports = payoff_curve(p, np.linspace(0, 1, 11))
        for r in reports:
            assert r.payoff == pytest.approx(2.0, abs=1e-12)

    def test_flat_beyond_alpha_max(self, four_symbol_source):
        reports = payoff_curve(four_symbol_source, np.linspace(0.53125, 1.0, 9))
        for r in reports:
            assert r.payoff == pytest.approx(2.0, abs=1e-12)

    def test_default_grid_contains_breakpoints(self, four_symbol_source):
        s = build_schedule(four_symbol_source)
        grid = default_alpha_grid(s)
        for a in s.alphas:
            assert np.any(grid == a)

    def test_monotone_concave_on_random_sources(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            p = random_source(rng, int(rng.integers(2, 9)))
            s = build_schedule(p)
            uniform = np.linspace(0, 1, 201)
            reports = payoff_curve(p, np.union1d(uniform, s.alphas), s)
            alphas = np.array([r.alpha for r in reports])
            payoffs = np.array([r.payoff for r in reports])
            assert np.all(np.diff(payoffs) >= -1e-9)
            # concavity on the evenly spaced sub-grid below alpha_max
            mask = np.isin(alphas, uniform) & (alphas <= s.alpha_max)
            f = payoffs[mask]
            assert np.all(f[2:] - 2 * f[1:-1] + f[:-2] <= 1e-9)

    def test_length_tradeoff_directions(self, eight_symbol_source):
        reports = payoff_curve(eight_symbol_source, np.linspace(0, 1, 101))
        max_lengths = np.array([r.max_length for r in reports])
        avg_lengths = np.array([r.avg_length for r in reports])
        assert np.all(np.diff(max_lengths) <= 1e-9)
        assert np.all(np.diff(avg_lengths) >= -1e-9)


class TestEntropySandwich:
    def test_ceiled_lengths_on_random_sources(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_source(rng, int(rng.integers(2, 11)))
            s = build_schedule(p)
            for alpha in np.linspace(0, 1, 101):
                w = weights_at(s, p, float(alpha))
                lengths = lengths_from_weights(w, p.radix)
                avg_int = float(np.dot(w.weights, lengths.int_lengths))
                h = entropy(w.weights, p.radix)
                assert h - 1e-9 <= avg_int < h + 1.0


class TestBruteForceOracle:
    def test_matches_merging_solution(self, four_symbol_source):
        lengths = brute_force_optimal(four_symbol_source, 1 / 16)
        np.testing.assert_allclose(
            lengths.real_lengths, [1, 2, 3, 3], atol=1e-4
        )

    def test_shannon_limit(self):
        rng = np.random.default_rng(37)
        for _ in range(3):
            p = random_source(rng, int(rng.integers(2, 7)))
            lengths = brute_force_optimal(p, 0.0)
            np.testing.assert_allclose(
                lengths.real_lengths, -np.log2(p.probs), atol=1e-6
            )

    def test_uniform_limit(self):
        rng = np.random.default_rng(41)
        p = random_source(rng, 5)
        lengths = brute_force_optimal(p, 1.0)
        np.testing.assert_allclose(lengths.real_lengths, np.log2(5), atol=1e-4)

    def test_payoff_agreement_on_random_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = random_source(rng, int(rng.integers(2, 9)))
            s = build_schedule(p)
            alpha = float(rng.uniform(0, max(s.alpha_max, 1e-12)))
            _, _, report = optimal_code(p, alpha, s)
            bf = brute_force_optimal(p, alpha)
            bf_payoff = payoff(bf, p, alpha).payoff
            assert abs(report.payoff - bf_payoff) <= 1e-4

    def test_starved_solve_raises_with_certified_best(self, four_symbol_source):
        # one iteration cannot reach the optimum of a non-dyadic source, so
        # the duality certificate must refuse it rather than return it
        tol = 1e-6
        with pytest.raises(NoConvergence) as info:
            brute_force_optimal(four_symbol_source, 0.22, iterations=1, tol=tol)
        best = info.value.best
        assert best.kraft_real == pytest.approx(1.0, abs=1e-12)
        assert np.sum(2.0 ** -best.real_lengths) == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(info.value.residual)
        assert info.value.residual > tol


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=100)
def test_kraft_invariants(weights, alpha, radix):
    p = canonicalize(weights, radix)
    _, lengths, _ = optimal_code(p, alpha)
    assert lengths.kraft_real == pytest.approx(1.0, abs=1e-9)
    assert lengths.kraft_int <= 1.0 + 1e-9
    assert np.all(np.diff(lengths.real_lengths) >= -1e-15)
    assert lengths.max_length == pytest.approx(lengths.real_lengths.max())
