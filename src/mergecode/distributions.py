"""Source distributions: validation, canonical ordering, and ingestion.

Everything downstream assumes probabilities sorted non-increasingly, so the
canonical form plus a permutation back to the caller's symbol order is the
single entry point for all inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
    Equal probabilities keep the caller's order (perm is increasing inside
    each run of ties).  When entries were dropped, ``original`` means the
    input with them removed, and ``dropped_count`` says how many went.

    The constructor takes the labels in caller order as ``caller_labels``
    (dropped entries already removed, any objects); ``labels``, the
    canonical-order ``tuple[str, ...]``, is built from them on first read.
    """

    probs: np.ndarray
    radix: int
    perm: np.ndarray
    caller_labels: tuple | None = None
    renormalized: bool = False
    dropped_labels: tuple[str, ...] = ()
    dropped_count: int = 0

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.perm.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def labels(self) -> tuple[str, ...] | None:
        """Labels as strings in canonical order, or None without labels."""
        if self.caller_labels is None:
            return None
        # str in caller order, then one gather: str on the gathered objects
        # would visit them in random memory order, several times slower
        texts = np.array(list(map(str, self.caller_labels)), dtype=object)
        return tuple(texts[self.perm].tolist())

    def to_original_order(self) -> np.ndarray:
        """Probabilities rearranged back into the caller's symbol order."""
        out = np.empty_like(self.probs)
        out[self.perm] = self.probs
        return out


def _descending_order(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable descending argsort of ``x`` and ``x`` in that order.

    numpy's default (unstable) argsort is several times faster than its
    stable one, so ties are fixed afterwards: each index gets the key
    run*n + index, with run the number of its tie run, and sorting the keys
    sorts the indices inside every run and moves nothing across runs.  The
    values are unchanged by that, so the first gather serves as the result.
    The key fits in int64 for n < 3e9.
    """
    order = np.argsort(-x)
    ordered = x[order]
    new_run = ordered[1:] != ordered[:-1]
    if new_run.all():
        return order, ordered
    key = np.zeros(order.size, dtype=np.int64)
    np.cumsum(new_run, out=key[1:])
    key *= order.size
    key += order
    del order, new_run
    key.sort()
    key %= key.size
    return key, ordered


def canonicalize(
    raw: Sequence[float] | np.ndarray,
    radix: int,
    labels: Sequence | None = None,
    drop_zeros: bool = False,
) -> ProbabilityVector:
    """Validate and sort a raw probability vector.

    Entries must be non-negative and sum to (approximately) 1; sums off by
    more than ``SILENT_RENORM_WINDOW`` are renormalized with a warning flag.
    Zeros, including entries that renormalizing underflows to 0, raise
    ZeroProbability, or with ``drop_zeros`` are dropped, counted in
    ``dropped_count`` and their labels reported in ``dropped_labels``.
    The order is the stable descending one: equal probabilities keep their
    input order.  Labels may be any objects; they are kept as given and
    turned into strings when ``labels`` is first read.

    Raises EmptyInput, BadRadix, NotNormalizable, or ZeroProbability.
    """
    if not isinstance(radix, (int, np.integer)) or isinstance(radix, bool):
        raise BadRadix(f"radix must be an integer, got {radix!r}")
    if radix < 2:
        raise BadRadix(f"radix must be >= 2, got {radix}")

    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInput("probability vector is empty")
    # a NaN makes the min NaN and an inf makes the sum inf or NaN, so the
    # entries are known finite and non-negative when both comparisons hold
    lo = float(arr.min())
    total = float(arr.sum())
    if not (lo >= 0 and total < np.inf):
        if not np.all(np.isfinite(arr)):
            raise NotNormalizable("probability vector contains non-finite entries")
        if lo < 0:
            raise NotNormalizable("probability vector contains negative entries")
    if total <= 0:
        raise NotNormalizable(f"probability vector sums to {total}")

    if labels is not None:
        labels = tuple(labels)
        if len(labels) != arr.size:
            raise ParseError(
                f"labels length {len(labels)} does not match {arr.size} probabilities"
            )

    renormalized = False
    scaled = arr
    if abs(total - 1.0) > RENORM_SKIP_WINDOW:
        renormalized = abs(total - 1.0) > SILENT_RENORM_WINDOW
        scaled = arr / total
        # dividing by a positive scalar is monotone, so this is scaled.min()
        lo /= total
    dropped: tuple[str, ...] = ()
    dropped_count = 0
    # zeros are looked for after the division, which can underflow a denormal
    if not lo > 0:
        if not drop_zeros:
            raise ZeroProbability(
                "zero probabilities are not allowed (use drop_zeros to strip them)"
                if np.any(arr == 0) else
                f"renormalizing by the sum {total!r} underflowed "
                f"{np.count_nonzero(scaled == 0)} probabilities to 0 "
                "(use drop_zeros to strip them)"
            )
        keep = scaled > 0
        scaled = scaled[keep]
        dropped_count = arr.size - scaled.size
        if labels is not None:
            dropped = tuple(str(labels[i]) for i in np.flatnonzero(~keep).tolist())
            labels = tuple(compress(labels, keep.tolist()))

    order, probs = _descending_order(scaled)
    return ProbabilityVector(
        probs=probs,
        radix=int(radix),
        perm=order.astype(np.intp, copy=False),
        caller_labels=labels,
        renormalized=renormalized,
        dropped_labels=dropped,
        dropped_count=dropped_count,
    )


def from_counts(counts: Mapping[str, int], radix: int) -> ProbabilityVector:
    """Empirical distribution from symbol counts.

    Zero-count symbols are dropped and reported through ``dropped_labels``.
    The keys become the labels, turned into strings when first read.
    """
    if not counts:
        raise AllZeroCounts("no counts given")
    labels = tuple(counts)
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise NotNormalizable("counts must be finite and non-negative")
    total = values.sum()
    if total <= 0:
        raise AllZeroCounts("all counts are zero")
    return canonicalize(values / total, radix, labels=labels, drop_zeros=True)


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
        # as for probabilities below: the loop only names a bad entry
        if not set(map(type, counts.values())) <= {int, float}:
            for k, v in counts.items():
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ParseError(f"count for {k!r} must be a number, got {v!r}")
        return from_counts(counts, radix)

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
