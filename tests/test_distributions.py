import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergecode import (
    AllZeroCounts,
    BadRadix,
    EmptyInput,
    NotNormalizable,
    ParseError,
    ZeroProbability,
    canonicalize,
    from_counts,
    load_distribution,
)

positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10
)


def test_canonicalize_sorts_descending_with_reversal_perm():
    p = canonicalize(
        [1 / 26, 1 / 26, 2 / 26, 2 / 26, 2 / 26, 4 / 26, 5 / 26, 9 / 26], 2
    )
    np.testing.assert_allclose(
        p.probs, np.array([9, 5, 4, 2, 2, 2, 1, 1]) / 26, rtol=1e-15
    )
    # stable sort: ties keep input order
    assert list(p.perm) == [7, 6, 5, 2, 3, 4, 0, 1]


def test_canonicalize_singleton():
    p = canonicalize([1.0], 2)
    assert p.probs.tolist() == [1.0]
    assert list(p.perm) == [0]


def test_canonicalize_sorts_normalized_vector():
    p = canonicalize([0.2, 0.2, 0.6], 2)
    np.testing.assert_allclose(p.probs, [0.6, 0.2, 0.2], rtol=1e-15)
    assert list(p.perm) == [2, 0, 1]


def test_canonicalize_errors():
    with pytest.raises(EmptyInput):
        canonicalize([], 2)
    with pytest.raises(BadRadix):
        canonicalize([0.5, 0.5], 1)
    with pytest.raises(BadRadix):
        canonicalize([0.5, 0.5], 2.5)
    with pytest.raises(ZeroProbability):
        canonicalize([0.5, 0.5, 0.0], 2)
    with pytest.raises(NotNormalizable):
        canonicalize([0.0, 0.0], 2)
    with pytest.raises(NotNormalizable):
        canonicalize([0.5, np.nan], 2)
    with pytest.raises(NotNormalizable):
        canonicalize([0.7, -0.2], 2)


def test_renormalizing_underflow_is_a_zero_probability():
    # 5e-324 / 4 rounds to 0, so the zero appears only after the division
    with pytest.raises(ZeroProbability, match="underflowed 1 probabilities"):
        canonicalize([3.0, 1.0, 5e-324], 2)
    p = canonicalize([3.0, 1.0, 5e-324], 2, labels=["a", "b", "c"], drop_zeros=True)
    assert p.probs.tolist() == [0.75, 0.25]
    assert p.labels == ("a", "b")
    assert p.dropped_labels == ("c",)


def test_drop_zeros_reports_labels():
    p = canonicalize([0.5, 0.0, 0.5], 2, labels=["a", "b", "c"], drop_zeros=True)
    assert p.dropped_labels == ("b",)
    assert p.labels == ("a", "c")
    np.testing.assert_allclose(p.probs, [0.5, 0.5])


def test_renormalization_flag():
    silent = canonicalize([0.5, 0.5 + 1e-8], 2)
    assert not silent.renormalized
    flagged = canonicalize([2.0, 2.0], 2)
    assert flagged.renormalized
    np.testing.assert_allclose(flagged.probs, [0.5, 0.5])


@given(positive_weights, st.integers(min_value=2, max_value=16))
def test_canonicalize_idempotent(weights, radix):
    first = canonicalize(weights, radix)
    second = canonicalize(first.probs, radix)
    assert np.array_equal(first.probs, second.probs)


@given(positive_weights, st.integers(min_value=2, max_value=16))
def test_canonicalize_invariants(weights, radix):
    p = canonicalize(weights, radix)
    assert np.all(p.probs > 0)
    assert np.all(np.diff(p.probs) <= 0)
    assert abs(p.probs.sum() - 1.0) <= 1e-9
    assert sorted(p.perm) == list(range(p.size))


@given(positive_weights)
def test_perm_round_trip(weights):
    p = canonicalize(weights, 2)
    total = sum(weights)
    np.testing.assert_allclose(
        p.to_original_order(), np.asarray(weights) / total, rtol=1e-12
    )


def test_from_counts_four_symbols():
    p = from_counts({"a": 8, "b": 4, "c": 2, "d": 1}, 2)
    np.testing.assert_allclose(p.probs, np.array([8, 4, 2, 1]) / 15, rtol=1e-15)
    assert p.labels == ("a", "b", "c", "d")


def test_from_counts_singleton():
    p = from_counts({"a": 5}, 2)
    assert p.probs.tolist() == [1.0]


def test_from_counts_drops_zero_and_reports():
    p = from_counts({"a": 1, "b": 1, "c": 0}, 2)
    np.testing.assert_allclose(p.probs, [0.5, 0.5])
    assert p.dropped_labels == ("c",)


def test_from_counts_all_zero():
    with pytest.raises(AllZeroCounts):
        from_counts({"a": 0, "b": 0}, 2)
    with pytest.raises(AllZeroCounts):
        from_counts({}, 2)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.integers(min_value=1, max_value=1000),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=2, max_value=7),
)
def test_from_counts_scale_invariant(counts, k):
    base = from_counts(counts, 2)
    scaled = from_counts({s: k * c for s, c in counts.items()}, 2)
    assert np.array_equal(base.probs, scaled.probs)
    assert np.array_equal(base.perm, scaled.perm)


def test_load_distribution_probabilities():
    p = load_distribution('{"radix": 2, "probabilities": [0.5, 0.25, 0.25]}')
    np.testing.assert_allclose(p.probs, [0.5, 0.25, 0.25])


def test_load_distribution_counts_document():
    doc = {
        "radix": 2,
        "counts": {"a": 9, "b": 5, "c": 4, "d": 2, "e": 2, "f": 2, "g": 1, "h": 1},
    }
    p = load_distribution(json.dumps(doc))
    np.testing.assert_allclose(
        p.probs, np.array([9, 5, 4, 2, 2, 2, 1, 1]) / 26, rtol=1e-15
    )


def test_load_distribution_bad_radix():
    with pytest.raises(BadRadix):
        load_distribution('{"radix": 1, "probabilities": [0.5, 0.5]}')


def test_load_distribution_parse_errors():
    with pytest.raises(ParseError):
        load_distribution("{not json")
    with pytest.raises(ParseError):
        load_distribution('{"radix": 2}')
    with pytest.raises(ParseError):
        load_distribution(
            '{"radix": 2, "probabilities": [0.5, 0.5], "counts": {"a": 1}}'
        )
    with pytest.raises(ParseError):
        load_distribution('{"radix": 2, "probabilities": [0.5, 0.5], "x": 1}')
    with pytest.raises(ParseError):
        load_distribution('{"radix": 2, "probabilities": [0.5, "half"]}')
    with pytest.raises(ParseError):
        load_distribution('{"radix": 2, "probabilities": [0.5, 0.5], "labels": ["a"]}')


def test_load_distribution_checks_entry_types_without_a_loop(monkeypatch):
    # a valid document needs no per-entry Python check; a bad entry is still
    # named by index, and numpy floats still pass
    import mergecode.distributions as dist

    calls = []

    def counting_isinstance(obj, cls):
        calls.append(obj)
        return isinstance(obj, cls)

    monkeypatch.setattr(dist, "isinstance", counting_isinstance, raising=False)
    probs = np.full(1000, 0.001).tolist()
    assert load_distribution({"radix": 2, "probabilities": probs}).size == 1000
    assert len(calls) < 20
    with pytest.raises(ParseError, match=r"probabilities\[2\] must be a number"):
        load_distribution({"radix": 2, "probabilities": [0.5, 0.25, True, 0.25]})
    mixed = [np.float64(0.5), 0.25, 0.25]
    assert load_distribution({"radix": 2, "probabilities": mixed}).size == 3


def test_labels_follow_sort():
    p = load_distribution(
        '{"radix": 2, "probabilities": [0.2, 0.6, 0.2], "labels": ["x", "y", "z"]}'
    )
    assert p.labels == ("y", "x", "z")
