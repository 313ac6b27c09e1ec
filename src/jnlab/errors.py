"""Shared exception types, the one check of the exponent p, the one check
of a verifier's number of levels, and the checks that a JN_p value and a
verifier's right side did not overflow.

All carry enough payload to reconstruct the failing comparison.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "DepthOverflowError",
    "InvariantViolation",
    "MetricAxiomError",
    "PreconditionError",
]


class DepthOverflowError(ValueError):
    """A cube depth beyond the resolution of the stored grid function."""

    def __init__(self, depth: int, max_depth: int):
        self.depth = depth
        self.max_depth = max_depth
        super().__init__(f"requested depth {depth} exceeds grid resolution {max_depth}")


class _Detailed(Exception):
    """An error that keeps its keyword numbers in `details` and lists them
    after its message."""

    def __init__(self, message: str, **details):
        self.details = details
        extra = ", ".join(f"{k}={v!r}" for k, v in details.items())
        super().__init__(f"{message} ({extra})" if extra else message)


class PreconditionError(_Detailed, ValueError):
    """An operation's entry condition fails; `details` holds the numbers."""


class MetricAxiomError(ValueError):
    """Input fails a metric/measure axiom; `witness` names the offending entries."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}; witness {witness!r}")


class InvariantViolation(_Detailed, AssertionError):
    """A constructed object fails one of its own guaranteed properties."""


def _check_p(p: float) -> float:
    """The exponent p as a float; ValueError unless 1 < p < inf."""
    p = float(p)
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    return p


def _check_n_lambda(n_lambda: int) -> int:
    """The number of sweep levels as an int; PreconditionError unless it
    is an integer >= 1, since an empty sweep checks nothing."""
    if not (isinstance(n_lambda, numbers.Integral) and n_lambda >= 1):
        raise PreconditionError("n_lambda must be an integer >= 1", n_lambda=n_lambda)
    return int(n_lambda)


def _check_jn_value(value: float, p: float) -> float:
    """A JN_p term or sum; PreconditionError when it overflowed to inf."""
    if not math.isfinite(value):
        raise PreconditionError("JN_p value is not finite: values too large for p",
                                value=value, p=p)
    return value


def _jn_underflow(p: float) -> PreconditionError:
    """The error for a JN_p value that underflowed to 0 although the
    function is not constant, so that every bound built on it reads 0."""
    return PreconditionError("JN_p value underflows to 0: p too large for these values", p=p)


def _check_rhs(rhs: float, p: float) -> float:
    """A verifier's right side; PreconditionError naming p unless it is
    finite, since a bound of inf or NaN checks nothing."""
    if not math.isfinite(rhs):
        raise PreconditionError("bound is not finite: p too large for the float range",
                                rhs=rhs, p=p)
    return rhs
