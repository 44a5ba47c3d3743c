"""The batched pay-off sweep against the per-alpha solve it replaces.

``payoff_columns`` evaluates the closed form of ``codes.py`` at a whole grid
and ``lengths_on_grid`` broadcasts ``weights_at`` and
``lengths_from_weights`` over it; the reference for both is one
``optimal_code`` and one ``merged_cardinality`` call per alpha.
"""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergecode import (
    AlphaOutOfRange,
    InvalidParam,
    build_schedule,
    canonicalize,
    default_alpha_grid,
    entropy,
    merged_cardinality,
    optimal_code,
    payoff_curve,
    solve_two_parameter,
)
from mergecode.codes import lengths_on_grid, payoff_columns

EPS = np.finfo(float).eps
COLUMNS = ("payoff", "avg_length", "max_length", "entropy_w")


def make_source(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ties":  # a few distinct values
        raw = rng.integers(1, 5, n).astype(float)
    elif kind == "zipf":  # tied tail
        raw = np.floor(1000.0 / np.arange(1, n + 1) ** rng.choice([0.5, 1.0, 1.5])) + 1.0
    elif kind == "dirichlet":
        raw = rng.dirichlet(np.full(n, 0.2))
        raw = raw[raw > 0]
    else:  # "denormal": p_min = 5e-324 on a normalized source, so no renormalizing
        raw = rng.dirichlet(np.ones(n))
        return np.append(raw / raw.sum(), 5e-324)
    return raw / raw.sum()


def per_alpha_reference(p, schedule, grid):
    rows = [optimal_code(p, float(a), schedule) for a in grid]
    cols = {key: np.array([getattr(r[2], key) for r in rows]) for key in COLUMNS}
    cols["cardinality"] = np.array([merged_cardinality(schedule, float(a)) for a in grid])
    return rows, cols


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["ties", "zipf", "dirichlet", "denormal"]),
    n=st.integers(1, 150),
    radix=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_columns_match_per_alpha_solves(kind, n, radix, seed):
    p = canonicalize(make_source(kind, n, seed), radix)
    s = build_schedule(p)
    rng = np.random.default_rng(seed)
    # 0, every exact breakpoint (zero-width segments included), alpha_max,
    # points inside segments and past alpha_max, and 1.0
    grid = np.concatenate(
        [[0.0], s.alphas, [s.alpha_max], rng.uniform(0.0, 1.0, 16), [1.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log(0) or 0 * inf, at alpha = 1 too
        got = payoff_columns(p, grid, s)
        weights, real, ints = lengths_on_grid(p, grid, s)
    rows, want = per_alpha_reference(p, s, grid)

    # the closed form sums p and p ln p once, in another order than the
    # per-alpha dot products: a relative error of up to n ulps.  Each length
    # of the reference is log of a rounded weight, off by about one ulp of
    # 1 where the weight is near 1, hence the absolute term.
    rtol = 4 * p.size * EPS + 16 * EPS
    assert np.array_equal(got["alpha"], grid)
    np.testing.assert_array_equal(got["cardinality"], want["cardinality"])
    for key in COLUMNS:
        np.testing.assert_allclose(
            got[key], want[key], rtol=rtol, atol=8 * EPS, err_msg=key
        )
        assert not np.signbit(got[key][got[key] == 0]).any(), key  # no -0
    # the per-symbol rows are the same IEEE operations, so bitwise equal
    for g, (w, lengths, _) in enumerate(rows):
        assert np.array_equal(weights[g], w.weights)
        assert np.array_equal(real[g], lengths.real_lengths)
        assert np.array_equal(ints[g], lengths.int_lengths)


def test_one_symbol_columns_are_zero():
    p = canonicalize([1.0], 3)
    cols = payoff_columns(p, np.linspace(0.0, 1.0, 5))
    for key in COLUMNS:
        assert cols[key].tolist() == [0.0] * 5
        assert not np.signbit(cols[key]).any()
    assert cols["cardinality"].tolist() == [1] * 5


@pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan, np.inf, -np.inf])
def test_out_of_range_grid_raises(four_symbol_source, bad):
    grid = np.array([0.0, 0.5, bad, 1.0])
    with pytest.raises(AlphaOutOfRange, match="alpha must be in"):
        payoff_columns(four_symbol_source, grid)
    with pytest.raises(AlphaOutOfRange):
        lengths_on_grid(four_symbol_source, grid)
    with pytest.raises(AlphaOutOfRange):
        payoff_curve(four_symbol_source, grid)


def test_alpha_out_of_range_is_an_invalid_param(four_symbol_source):
    assert issubclass(AlphaOutOfRange, InvalidParam)
    with pytest.raises(AlphaOutOfRange):
        solve_two_parameter(four_symbol_source, t=1.0, alpha=np.nan)


def test_default_grid_curve_at_1e5_symbols():
    # one full solve per grid alpha made this O(n^2): minutes at n = 10^5
    rng = np.random.default_rng(41)
    p = canonicalize(rng.dirichlet(np.ones(100_000)), 2)
    s = build_schedule(p)
    start = time.perf_counter()
    reports = payoff_curve(p, schedule=s)
    elapsed = time.perf_counter() - start
    assert len(reports) == default_alpha_grid(s).size > 100_000
    assert elapsed < 10.0
    n_ulps = 4 * p.size * EPS
    assert reports[0].payoff == pytest.approx(entropy(p.probs, 2), rel=n_ulps)
    assert reports[-1].payoff == pytest.approx(np.log2(p.size), rel=n_ulps)
    payoffs = np.array([r.payoff for r in reports])
    assert np.all(np.diff(payoffs) >= -n_ulps * payoffs[1:])
