"""Uniform result record for every inequality check.

A report states one comparison lhs <= rhs.  ``margin = rhs - lhs`` and the
check passes iff ``margin >= -1e-9 * max(1, |rhs|)``.  Reports serialize to
JSON objects with keys {claim, lambda, lhs, rhs, constant, margin, pass,
witness} and to a lambda,lhs,rhs CSV for plotting.  Both serializers
return text; the CLI writes it to a file or to stdout.
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
        return {
            "claim": self.claim,
            "lambda": None if self.lam is None else float(self.lam),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "constant": float(self.constant),
            "margin": float(self.margin),
            "pass": self.passed,
            "witness": _jsonable(self.witness),
        }


def degenerate_report(claim: str, reason: str, **witness) -> CheckReport:
    """Trivially passing report for inputs where the claim is vacuous
    (typically an a.e.-constant function, norm 0)."""
    w = {"degenerate": True, "reason": reason}
    w.update(witness)
    return CheckReport(claim=claim, lhs=0.0, rhs=0.0, constant=0.0, lam=None, witness=w)


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def reports_to_json(reports) -> str:
    payload = [r.to_dict() for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_csv(reports) -> str:
    """lambda,lhs,rhs rows (full-precision floats), one line per report."""
    rows = ["lambda,lhs,rhs\n"]
    for r in reports:
        lam = "" if r.lam is None else repr(float(r.lam))
        rows.append(f"{lam},{repr(float(r.lhs))},{repr(float(r.rhs))}\n")
    return "".join(rows)
