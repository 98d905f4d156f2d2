"""Shared exception types, aligned with the CLI exit-code contract."""

from __future__ import annotations


class CsmhypError(Exception):
    """Base class for all errors raised by this package.  Raised as is
    for a broken internal identity: CLI exit code 3."""


class PolynomialParseError(CsmhypError):
    """Bad polynomial text: syntax error, unknown variable, zero or
    non-homogeneous result.  CLI exit code 2."""


class RandomnessError(CsmhypError):
    """Randomized trials were exhausted without agreement.  Carries the
    trial log for audit.  CLI exit code 4."""

    def __init__(self, message, trials=None):
        super().__init__(message)
        self.trials = list(trials) if trials is not None else []
