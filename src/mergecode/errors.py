"""Exception types shared across the package."""

from __future__ import annotations


class MergeCodeError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(MergeCodeError):
    pass


class ZeroProbability(MergeCodeError):
    pass


class NotNormalizable(MergeCodeError):
    pass


class BadRadix(MergeCodeError):
    pass


class AllZeroCounts(MergeCodeError):
    pass


class ParseError(MergeCodeError):
    pass


class InvalidParam(MergeCodeError):
    pass


class AlphaOutOfRange(InvalidParam):
    pass


class SizeMismatch(MergeCodeError):
    pass


class TooLarge(MergeCodeError):
    pass


class Infeasible(MergeCodeError):
    """No parameter value attains the requested constraint.

    Carries the smallest maximum codeword length any code on this source
    can achieve, so callers can report how far the request was off.
    """

    def __init__(self, message: str, min_achievable: float):
        super().__init__(message)
        self.min_achievable = float(min_achievable)


class NoConvergence(MergeCodeError):
    """Iterative solver stopped short of its tolerance.

    The solution it stopped at is attached so callers can still inspect it.
    """

    def __init__(self, message: str, best, residual: float, iterations: int):
        super().__init__(message)
        self.best = best
        self.residual = float(residual)
        self.iterations = int(iterations)
