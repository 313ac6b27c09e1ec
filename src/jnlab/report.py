"""Uniform result record for every inequality check.

A report states one comparison lhs <= rhs.  ``margin = rhs - lhs`` and the
check passes iff ``margin >= -1e-9 * max(1, |rhs|)``.  Reports serialize to
JSON objects with keys {claim, lambda, lhs, rhs, constant, margin, pass,
witness} and to a lambda,lhs,rhs CSV for plotting.  Both serializers
return text; the CLI writes it to a file or to stdout.  The module holds
the one JSON writer and the one CSV row writer; the CLI's other outputs
use them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckReport",
    "PASS_SLACK",
    "all_pass",
    "degenerate_report",
    "reports_to_csv",
    "reports_to_json",
]

PASS_SLACK = 1e-9


@dataclass
class CheckReport:
    claim: str
    lhs: float
    rhs: float
    constant: float
    lam: float | None = None
    witness: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return float(self.rhs) - float(self.lhs)

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -PASS_SLACK * max(1.0, abs(float(self.rhs))))

    @property
    def degenerate(self) -> bool:
        return bool(self.witness.get("degenerate", False))

    def to_dict(self) -> dict:
        """The fields; the witness, copied, may hold tuples and numpy scalars."""
        return {
            "claim": self.claim,
            "lambda": None if self.lam is None else float(self.lam),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "constant": float(self.constant),
            "margin": float(self.margin),
            "pass": self.passed,
            "witness": dict(self.witness),
        }


def degenerate_report(claim: str, reason: str, **witness) -> CheckReport:
    """Trivially passing report for inputs where the claim is vacuous
    (typically an a.e.-constant function, norm 0)."""
    w = {"degenerate": True, "reason": reason}
    w.update(witness)
    return CheckReport(claim=claim, lhs=0.0, rhs=0.0, constant=0.0, lam=None, witness=w)


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


def _plain(obj):
    """A numpy scalar or array as the Python value(s) it holds."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """`obj` as indented JSON with sorted keys, numpy values as Python ones."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def _csv_cell(x) -> str:
    """An int as str, a float as repr(float), None as empty and an index
    tuple joined by ';'."""
    if x is None:
        return ""
    if isinstance(x, tuple):
        return ";".join(map(str, x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    return repr(float(x))


def _csv_text(header, rows) -> str:
    """A header line of column names, then one line of cells per row."""
    lines = [",".join(header)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> str:
    return _json_text([r.to_dict() for r in reports])


def reports_to_csv(reports) -> str:
    """lambda,lhs,rhs rows (full-precision floats), one line per report."""
    return _csv_text(("lambda", "lhs", "rhs"), (
        (None if r.lam is None else float(r.lam), float(r.lhs), float(r.rhs))
        for r in reports))
