"""Source distributions: validation, canonical ordering, and ingestion.

Everything downstream assumes probabilities sorted non-increasingly, so the
canonical form plus a permutation back to the caller's symbol order is the
single entry point for all inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroCounts,
    BadRadix,
    EmptyInput,
    NotNormalizable,
    ParseError,
    ZeroProbability,
)

# Input sums farther than this from 1 still get renormalized, but the result
# carries a warning flag; within it the fix-up is silent.
SILENT_RENORM_WINDOW = 1e-6
# Below this no renormalization happens at all, which keeps canonicalize
# exactly idempotent (dividing by a sum within an ulp of 1 would perturb
# entries on every pass).
RENORM_SKIP_WINDOW = 1e-12


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A validated source distribution in canonical (non-increasing) order.

    probs[i] is the i-th largest probability; perm[i] is the position that
    symbol had in the caller's input, so ``original[perm[i]] == probs[i]``.
    """

    probs: np.ndarray
    radix: int
    perm: np.ndarray
    labels: tuple[str, ...] | None = None
    renormalized: bool = False
    dropped_labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.perm.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def to_original_order(self) -> np.ndarray:
        """Probabilities rearranged back into the caller's symbol order."""
        out = np.empty_like(self.probs)
        out[self.perm] = self.probs
        return out


def canonicalize(
    raw: Sequence[float] | np.ndarray,
    radix: int,
    labels: Sequence[str] | None = None,
    drop_zeros: bool = False,
) -> ProbabilityVector:
    """Validate and sort a raw probability vector.

    Entries must be non-negative and sum to (approximately) 1; sums off by
    more than ``SILENT_RENORM_WINDOW`` are renormalized with a warning flag.
    Zeros, including entries that renormalizing underflows to 0, raise
    ZeroProbability, or with ``drop_zeros`` are dropped and their labels
    reported in ``dropped_labels``.
    The sort is stable and descending, so equal probabilities keep their
    input order.

    Raises EmptyInput, BadRadix, NotNormalizable, or ZeroProbability.
    """
    if not isinstance(radix, (int, np.integer)) or isinstance(radix, bool):
        raise BadRadix(f"radix must be an integer, got {radix!r}")
    if radix < 2:
        raise BadRadix(f"radix must be >= 2, got {radix}")

    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInput("probability vector is empty")
    if not np.all(np.isfinite(arr)):
        raise NotNormalizable("probability vector contains non-finite entries")
    if np.any(arr < 0):
        raise NotNormalizable("probability vector contains negative entries")
    total = float(arr.sum())
    if total <= 0:
        raise NotNormalizable(f"probability vector sums to {total}")

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != arr.size:
            raise ParseError(
                f"labels length {len(labels)} does not match {arr.size} probabilities"
            )

    renormalized = False
    scaled = arr
    if abs(total - 1.0) > RENORM_SKIP_WINDOW:
        renormalized = abs(total - 1.0) > SILENT_RENORM_WINDOW
        scaled = arr / total
    dropped: tuple[str, ...] = ()
    # zeros are looked for after the division, which can underflow a denormal
    if not scaled.min() > 0:
        if not drop_zeros:
            raise ZeroProbability(
                "zero probabilities are not allowed (use drop_zeros to strip them)"
                if np.any(arr == 0) else
                f"renormalizing by the sum {total!r} underflowed "
                f"{np.count_nonzero(scaled == 0)} probabilities to 0 "
                "(use drop_zeros to strip them)"
            )
        keep = scaled > 0
        if labels is not None:
            dropped = tuple(lab for lab, k in zip(labels, keep) if not k)
            labels = tuple(lab for lab, k in zip(labels, keep) if k)
        scaled = scaled[keep]

    order = np.argsort(-scaled, kind="stable")
    probs = np.ascontiguousarray(scaled[order])
    if labels is not None:
        ordered = np.empty(len(labels), dtype=object)
        ordered[:] = labels
        labels = tuple(ordered[order])

    return ProbabilityVector(
        probs=probs,
        radix=int(radix),
        perm=order.astype(np.intp),
        labels=labels,
        renormalized=renormalized,
        dropped_labels=dropped,
    )


def from_counts(
    counts: Mapping[str, int],
    radix: int,
    drop_zeros: bool = True,
) -> ProbabilityVector:
    """Empirical distribution from symbol counts.

    Zero-count symbols are dropped and reported through ``dropped_labels``.
    """
    if not counts:
        raise AllZeroCounts("no counts given")
    labels = [str(k) for k in counts]
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise NotNormalizable("counts must be finite and non-negative")
    total = values.sum()
    if total <= 0:
        raise AllZeroCounts("all counts are zero")
    return canonicalize(values / total, radix, labels=labels, drop_zeros=drop_zeros)


def load_distribution(
    document: str | bytes | Mapping | Path,
    radix_override: int | None = None,
    drop_zeros: bool = False,
) -> ProbabilityVector:
    """Parse a distribution document and canonicalize it.

    The document is a JSON object with ``radix`` and exactly one of
    ``probabilities`` (list of floats, optionally with parallel ``labels``)
    or ``counts`` (label -> non-negative integer).
    """
    if isinstance(document, Path):
        try:
            document = document.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {document}: {exc}") from exc
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        doc = document

    if not isinstance(doc, Mapping):
        raise ParseError(f"document must be a JSON object, got {type(doc).__name__}")

    unknown = set(doc) - {"radix", "probabilities", "counts", "labels"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    if "radix" not in doc:
        raise ParseError("missing required field 'radix'")
    has_probs = "probabilities" in doc
    has_counts = "counts" in doc
    if has_probs == has_counts:
        raise ParseError("exactly one of 'probabilities' or 'counts' is required")

    radix = doc["radix"] if radix_override is None else radix_override
    if isinstance(radix, float) and radix.is_integer():
        radix = int(radix)

    if has_counts:
        if "labels" in doc:
            raise ParseError("'labels' is only valid with 'probabilities'")
        counts = doc["counts"]
        if not isinstance(counts, Mapping):
            raise ParseError("'counts' must be an object mapping label -> count")
        for k, v in counts.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"count for {k!r} must be a number, got {v!r}")
        return from_counts({str(k): v for k, v in counts.items()}, radix)

    probs = doc["probabilities"]
    if not isinstance(probs, Sequence) or isinstance(probs, (str, bytes)):
        raise ParseError("'probabilities' must be an array of numbers")
    # JSON gives only int and float; the loop finds the first other entry,
    # and accepts subclasses such as numpy floats (but not bool)
    if not set(map(type, probs)) <= {int, float}:
        for i, v in enumerate(probs):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"probabilities[{i}] must be a number, got {v!r}")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, Sequence) or isinstance(labels, (str, bytes))
    ):
        raise ParseError("'labels' must be an array of strings")
    return canonicalize(probs, radix, labels=labels, drop_zeros=drop_zeros)
