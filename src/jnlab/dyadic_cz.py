"""Dyadic maximal function, Calderon-Zygmund cube selection, and the
good-lambda / weak-type John-Nirenberg checks on grid functions.

The maximal value at a cell is the largest average of |f| over the dyadic
cubes containing it (within a fixed ancestor cube Q0).  CZ selection at
level lam keeps the maximal dyadic cubes whose |f|-average exceeds lam;
coarser cubes are inspected first, so the kept cubes are pairwise disjoint
and their parents all have average <= lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import _pow, _sum_left, theorem_constants
from .errors import InvariantViolation, PreconditionError, _check_n_lambda, _check_rhs
from .functionals import jnp_dyadic
from .grid import (CellSet, DyadicCube, GridFunction, _cube_mean, _deviation, _subtree_cubes,
                   _z_to_cells, mean_oscillation)
from .report import CheckReport, degenerate_report

__all__ = [
    "CzCover",
    "MaximalField",
    "check_good_lambda_dyadic",
    "cz_decompose_dyadic",
    "dyadic_maximal",
    "level_set",
    "verify_jn_dyadic",
]


@dataclass
class MaximalField:
    """Maximal averages over the subtree of ``q0``.

    ``values`` holds one per finest cell of q0, in local lexicographic
    order.  The arrays are read-only: in 1-D ``values`` and the private
    Morton-order ``_zvalues`` are one buffer.
    """

    q0: DyadicCube
    max_depth: int
    values: np.ndarray
    _zvalues: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.values.max())


def _running_max_of(leaves: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """Per-leaf max of ancestor averages over a depth-`depth` subtree.
    `leaves` holds its finest values in local Morton order and must be a
    fresh array: the sweep overwrites it and returns it.  The pyramid of
    `leaves`, each level scaled to averages in place, takes one
    ``kernels._running_max``."""
    levels = list(kernels.build_pyramid(leaves, depth, dim))
    for k, level in enumerate(levels[:-1]):  # the finest cells are their own averages
        level *= 1.0 / float(1 << (dim * (depth - k)))
    return kernels._running_max(levels, dim)


def dyadic_maximal(f: GridFunction, q0: DyadicCube) -> MaximalField:
    """Per-cell max of ancestor |f|-averages within q0: the maximal sweep
    of |f| over q0's cells."""
    local_depth = f.max_depth - q0.depth
    zrun = _running_max_of(np.abs(f.zslice(q0)), f.dim, local_depth)
    values = _z_to_cells(zrun, f.dim, local_depth)
    for a in (zrun, values):
        a.setflags(write=False)
    return MaximalField(q0=q0, max_depth=f.max_depth, values=values, _zvalues=zrun)


def level_set(field: MaximalField, lam: float) -> CellSet:
    """Cells of q0 where the maximal value strictly exceeds ``lam``,
    as a bitmask over the full grid."""
    if math.isnan(lam):
        raise PreconditionError("level must not be NaN", lam=lam)
    return CellSet._from_block(field.q0, field._zvalues > lam)


@dataclass
class CzCover:
    """Maximal dyadic cubes with |f|-average in (lam, 2^n lam], plus the
    residual cells where |f| <= lam."""

    lam: float
    q0: DyadicCube
    cubes: tuple[DyadicCube, ...]
    averages: np.ndarray
    residual: CellSet

    @property
    def union_measure(self) -> float:
        return _sum_left(q.measure for q in self.cubes)


def cz_decompose_dyadic(f: GridFunction, q0: DyadicCube, lam: float) -> CzCover:
    """Stopping-time selection of the maximal dyadic subcubes of q0 whose
    |f|-average exceeds lam; requires the q0 average itself to be <= lam.
    """
    lam = float(lam)
    pyr = f.abs_pyramid()
    local_depth = f.max_depth - q0.depth
    arity = 1 << f.dim

    avg0 = _cube_mean(f, pyr, q0)
    if not avg0 <= lam:
        raise PreconditionError(
            "cz level must dominate the root |f| average", average=avg0, lam=lam
        )

    # cubes in (depth, local z) order, one decode per level
    cubes: list[DyadicCube] = []
    avg_parts, depths = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    active = np.ones(1, dtype=bool)
    for rel in range(1, local_depth + 1):
        cnt = 1 << (f.dim * (local_depth - rel))
        avgs = f.pyramid_slice(pyr, q0, rel)
        if cnt > 1:  # a finest cell is its own average: no copy of |f|
            avgs = avgs * (1.0 / float(cnt))
        active = np.repeat(active, arity)
        sel = active & (avgs > lam)
        z = np.flatnonzero(sel)
        cubes.extend(_subtree_cubes(q0, rel, z))
        avg_parts.append(avgs[z])
        depths.append(np.full(z.size, q0.depth + rel))
        active &= ~sel

    cover = CzCover(lam, q0, tuple(cubes), np.concatenate(avg_parts),
                    CellSet._from_block(q0, active))
    _verify_cz(f, cover, np.concatenate(depths))
    return cover


def _verify_cz(f: GridFunction, cover: CzCover, depths: np.ndarray) -> None:
    """Check a cover's invariants; `depths` holds the depth of each cube."""
    lam, avgs = cover.lam, cover.averages
    for bad, what in ((~(avgs > lam), "selected cube average not above level"),
                      (~(avgs <= (1 << f.dim) * lam), "selected cube average above 2^n * level")):
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(what, cube=cover.cubes[i], average=float(avgs[i]), lam=lam)
    res = cover.residual.mask
    worst = max(float(np.max(f.values, where=res, initial=0.0)),
                -float(np.min(f.values, where=res, initial=0.0)))
    if worst > lam:
        raise InvariantViolation("residual cell above level", value=worst, lam=lam)
    measures = f.root.measure / np.ldexp(1.0, f.dim * depths)
    total = float(measures.sum())
    integral = float(avgs @ measures)
    if lam > 0 and total * lam > integral * (1.0 + 1e-9) + 1e-300:
        raise InvariantViolation("union measure exceeds integral / level",
                                 union=total, integral=integral, lam=lam)


def _shifted_levels(f: GridFunction, q0: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
    """The maximal values of h = f - avg_{Q0} f over q0's cells, as both
    dyadic verifiers count them: the distinct values in increasing order,
    and for each the number of cells at or above it, then a final 0.
    Built once per (f, q0), read-only.  Each value is an ancestor cube's
    average, so they are few: 1.6% of the cells of a depth-20 martingale."""
    def build():
        run = _running_max_of(_deviation(f, q0), f.dim, f.max_depth - q0.depth)
        run.sort()
        return kernels._sorted_runs(run)
    return f._memo(("shifted_levels", q0), build)


def _level_measure(f: GridFunction, levels, lam: float) -> float:
    """``level_set(field, lam).measure`` without building the set: the count
    of maximal values above lam, from :func:`_shifted_levels`, over the
    cells of the full grid, as in ``CellSet.measure``."""
    values, above = levels
    count = int(above[np.searchsorted(values, lam, side="right")])
    return f.root.measure * (count / float(f.n_cells))


def check_good_lambda_dyadic(
    f: GridFunction,
    q0: DyadicCube,
    p: float,
    b: float | None,
    lam: float,
) -> CheckReport:
    """One good-lambda comparison for h = f - avg_{Q0} f:

        |{M h > lam}|  <=  (a K / lam) |{M h > b lam}|^(1/q),

    a = 1/(1 - 2^n b), q = p/(p-1), K = ``jnp_dyadic(f, q0, p).norm``, the
    dyadic JN_p norm that ``verify_jn_dyadic`` reports too.  Requires
    0 < b < 2^-n (None: 2^-(n+1)), lam > 0 and lam >= osc_{Q0}(f) / b.
    Raises PreconditionError, from ``jnp_dyadic``, when K underflows to 0
    on values that are not constant on Q0.
    """
    arity = 1 << f.dim
    cons = theorem_constants(2.0**f.dim, p, n=f.dim)
    p, b = cons.p, (cons.b if b is None else b)
    if not 0 < b < 1.0 / arity:
        raise PreconditionError("b must lie in (0, 2^-n)", b=b, dim=f.dim)
    if not lam > 0:
        raise PreconditionError("lambda must be positive", lam=lam)
    threshold = mean_oscillation(f, q0) / b
    if lam < threshold * (1.0 - 1e-12):
        raise PreconditionError("lambda below the good-lambda threshold",
                                lam=lam, threshold=threshold)
    K = jnp_dyadic(f, q0, p).norm
    levels = _shifted_levels(f, q0)
    a = 1.0 / (1.0 - arity * b)
    lhs = _level_measure(f, levels, lam)
    eb = _level_measure(f, levels, b * lam)
    rhs = (a * K / lam) * eb ** (1.0 / cons.q)
    return CheckReport(
        claim="good-lambda-dyadic",
        lhs=lhs,
        rhs=rhs,
        constant=a,
        lam=float(lam),
        witness={"b": float(b), "p": p, "q": cons.q, "K": float(K),
                 "measure_at_b_lambda": eb},
    )


def verify_jn_dyadic(f: GridFunction, q0: DyadicCube, p: float,
                     n_lambda: int = 60) -> list[CheckReport]:
    """Weak-type John-Nirenberg sweep on the dyadic maximal sets of
    h = f - avg_{Q0} f:

        |{M h > lam}| <= C (K/lam)^p,

    with C = 2^((n+1)p) for lam <= eta = K / (b |Q0|^(1/p)), b = 2^-(n+1),
    and C = 2^(p + (n+1)(p^2 + (p/q)^3)) above eta, K the dyadic JN_p norm.
    The constants come from ``theorem_constants`` with c_mu = 2^n, the exact
    doubling constant of Lebesgue measure for dyadic cubes.
    """
    n_lambda = _check_n_lambda(n_lambda)
    K = jnp_dyadic(f, q0, p).norm
    if K == 0.0:
        return [degenerate_report("jn-weak-lp-dyadic", "constant function, K = 0")]
    n = f.dim
    cons = theorem_constants(2.0**n, p, n=n, K=K, measure_q0=q0.measure)
    p, eta = cons.p, cons.eta

    levels = _shifted_levels(f, q0)
    sup = float(levels[0][-1])  # the largest maximal value
    lo = eta / 20.0
    hi = 8.0 * max(eta, sup, lo * 10.0)
    lams = np.logspace(np.log10(lo), np.log10(hi), n_lambda)

    reports = []
    for lam in lams:
        lam = float(lam)
        small = lam <= eta
        const = cons.dyadic_small_constant if small else cons.dyadic_constant
        lhs = _level_measure(f, levels, lam)
        rhs = _check_rhs(const * _pow(K / lam, p), p)
        reports.append(CheckReport(
            claim="jn-weak-lp-dyadic",
            lhs=lhs,
            rhs=rhs,
            constant=const,
            lam=lam,
            witness={"branch": "small" if small else "large",
                     "eta": float(eta), "K": float(K), "p": p, "b": cons.b},
        ))
    return reports
