"""Shared exception types, and the one check of the exponent p.

All carry enough payload to reconstruct the failing comparison.
"""

from __future__ import annotations

import math

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


class PreconditionError(ValueError):
    """An operation's entry condition fails; `details` holds the numbers."""

    def __init__(self, message: str, **details):
        self.details = details
        extra = ", ".join(f"{k}={v!r}" for k, v in details.items())
        super().__init__(f"{message} ({extra})" if extra else message)


class MetricAxiomError(ValueError):
    """Input fails a metric/measure axiom; `witness` names the offending entries."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}; witness {witness!r}")


class InvariantViolation(AssertionError):
    """A constructed object fails one of its own guaranteed properties."""

    def __init__(self, message: str, **details):
        self.details = details
        extra = ", ".join(f"{k}={v!r}" for k, v in details.items())
        super().__init__(f"{message} ({extra})" if extra else message)


def _check_p(p: float) -> float:
    """The exponent p as a float; ValueError unless 1 < p < inf."""
    p = float(p)
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    return p
