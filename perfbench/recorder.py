"""Runs and checks the public calls of one repetition.

``Recorder.call`` times one call, applies the failure rule, and hashes a
canonical form of the call's output into the repetition's digest, so that
two runs of one commit can be compared output for output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from time import perf_counter

import numpy as np

from jnlab.report import CheckReport


def _canon(x, out: list) -> None:
    """Append a canonical text form of a returned value to `out`."""
    if x is None or isinstance(x, (bool, np.bool_)):
        out.append(repr(None if x is None else bool(x)))
    elif isinstance(x, (int, np.integer)):
        out.append(repr(int(x)))
    elif isinstance(x, (float, np.floating)):
        out.append(repr(float(x)))
    elif isinstance(x, str):
        out.append(repr(x))
    elif isinstance(x, np.ndarray):
        out.append(f"array{x.dtype.str}{x.shape}:"
                   + hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())
    elif isinstance(x, (list, tuple)):
        out.append(f"[{len(x)}")
        for item in x:
            _canon(item, out)
        out.append("]")
    elif isinstance(x, dict):
        out.append(f"{{{len(x)}")
        for key in sorted(x, key=str):
            out.append(str(key))
            _canon(x[key], out)
        out.append("}")
    elif dataclasses.is_dataclass(x):
        out.append(type(x).__name__ + "(")
        for fld in dataclasses.fields(x):
            out.append(fld.name)
            _canon(getattr(x, fld.name), out)
        out.append(")")
    else:
        out.append(type(x).__name__ + "(")
        _canon({k: v for k, v in vars(x).items() if not k.startswith("_")}, out)
        out.append(")")


def _failure(out) -> str | None:
    """The failure rule: a report that does not pass, a verifier with no
    reports, or a CLI exit code other than 0."""
    if isinstance(out, CheckReport):
        return None if out.passed else "report does not pass"
    if isinstance(out, list):
        if not out:
            return "verifier returned no reports"
        bad = sum(1 for r in out if not r.passed)
        return f"{bad} of {len(out)} reports do not pass" if bad else None
    if isinstance(out, int) and not isinstance(out, bool) and out != 0:
        return f"exit code {out}"
    return None


class Recorder:
    """Runs the public calls of one repetition: times each one, applies the
    failure rule, and hashes every output into the repetition's digest.
    The hashing happens between the timed calls."""

    def __init__(self):
        self.durations: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.problems: list[str] = []
        self._hash = hashlib.sha256()

    def call(self, label: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            out, raised = fn(*args, **kwargs), None
        except Exception:
            out, raised = None, traceback.format_exc()
        self.durations.append(perf_counter() - t0)
        self.labels.append(label)
        why = f"raised:\n{raised}" if raised else _failure(out)
        if why:
            self.failed += 1
            self.problems.append(f"{label}: {why}")
        parts: list = []
        _canon("raised" if raised else out, parts)
        self.digest_text(label, "\n".join(parts))
        return out

    def digest_text(self, label: str, text: str) -> None:
        self._hash.update(f"{label}\n{text}\n".encode())

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()
