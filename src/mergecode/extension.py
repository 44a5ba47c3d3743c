"""Block coding: memoryless n-fold extensions and their pay-off bounds.

Coding length-n blocks instead of single symbols tightens the per-symbol
pay-off toward its entropy lower bound; the gap of the integer-length code
is at most 1/n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import entropy, lengths_from_weights
from .distributions import ProbabilityVector, canonicalize
from .errors import InvalidParam, TooLarge
from .merging import build_schedule, weights_at

MAX_OUTCOMES = 1_000_000


@dataclass(frozen=True)
class ExtensionReport:
    n: int
    per_symbol_payoff: float
    lower: float
    upper: float


def _block_probs(p: ProbabilityVector, n: int) -> np.ndarray:
    """Probabilities of the length-n blocks, in ``itertools.product`` order.

    Raises InvalidParam when a block probability underflows to 0, which
    the source's own probabilities never are.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidParam(f"extension order must be a positive integer, got {n!r}")
    n = int(n)
    size = p.size**n
    if size > MAX_OUTCOMES:
        raise TooLarge(
            f"extension has {p.size}**{n} = {size} outcomes "
            f"(limit {MAX_OUTCOMES})"
        )
    block = p.probs
    for _ in range(n - 1):
        block = np.multiply.outer(block, p.probs).ravel()
    # the last block is p_min**n, the smallest, as rounding is monotone
    if block[-1] == 0.0:
        raise InvalidParam(
            f"the order-{n} block product underflows to 0: the smallest "
            f"probability {float(p.probs[-1])!r} to the power {n} is below "
            f"the smallest float"
        )
    return block


def extend(p: ProbabilityVector, n: int) -> ProbabilityVector:
    """Product distribution over length-n blocks, canonicalized.

    Block labels join the base labels (or indices) so outcomes stay
    traceable after sorting.
    """
    block = _block_probs(p, n)
    base_labels = (
        p.labels if p.labels is not None else tuple(str(i) for i in range(p.size))
    )
    labels = [
        "".join(combo) for combo in itertools.product(base_labels, repeat=int(n))
    ]
    return canonicalize(block, p.radix, labels=labels)


def extension_bounds(
    p: ProbabilityVector, alpha: float, n: int
) -> ExtensionReport:
    """Per-symbol pay-off of the integer-length block code and its bounds.

    The block code ceils the optimal real lengths of the extension; its
    per-symbol pay-off always lies in [H(w)/n, H(w)/n + 1/n) where w is the
    extension's weight vector at this alpha.
    """
    pn = canonicalize(_block_probs(p, n), p.radix)
    schedule = build_schedule(pn)
    w = weights_at(schedule, pn, alpha)
    lengths = lengths_from_weights(w, pn.radix)
    ints = lengths.int_lengths.astype(float)
    block_payoff = float(alpha) * float(ints.max()) + (
        1.0 - float(alpha)
    ) * float(np.dot(pn.probs, ints))
    lower = entropy(w.weights, pn.radix) / n
    return ExtensionReport(
        n=n,
        per_symbol_payoff=block_payoff / n,
        lower=lower,
        upper=lower + 1.0 / n,
    )
