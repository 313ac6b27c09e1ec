"""Oscillation functionals on dyadic grids.

``jnp_dyadic`` computes the John-Nirenberg-type partition supremum

    sup over dyadic partitions P of Q0 of  sum_{Q in P} |Q| (osc_Q f)^p,

where osc_Q f is the mean oscillation of f over Q.  The supremum over
partitions equals the supremum over families of pairwise disjoint dyadic
subcubes (a disjoint family extends to a partition without decreasing the
sum), so this value is the p-th power of the dyadic JN_p norm of f on Q0.
The best partition is found exactly by the bottom-up recursion
value(Q) = max(term(Q), sum of children values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import _check_jn_value, _check_p, _jn_underflow
from .grid import (DyadicCube, GridFunction, RootCube, _cube_mean, _deviation,
                   _subtree_cubes, average)

__all__ = [
    "PartitionResult",
    "bmo_dyadic",
    "distribution",
    "jnp_dyadic",
    "notlp_terms",
    "weak_lp",
]


_WEAK_BLOCK = 1 << 16  # sorted positions scored per block in weak_lp


@dataclass(frozen=True)
class PartitionResult:
    """Best-partition value: ``norm == value ** (1/p)``."""

    value: float
    norm: float
    p: float
    witness: tuple[DyadicCube, ...]


def _subtree_terms(f: GridFunction, q0: DyadicCube, p: float) -> tuple[np.ndarray, ...]:
    """Pyramid of |Q| (osc_Q f)^p over the subtree of q0, one array per
    relative depth.  A finest cell's oscillation is +0.0, so its term is
    mu * 0^p = +0.0 for p > 1: that level is zeros, with no power, as a
    zero-stride view like the pyramid's own finest level."""
    pyr = f.osc_pyramid()
    terms = []
    for rel in range(f.max_depth - q0.depth):
        k = q0.depth + rel
        cnt = 1 << (f.dim * (f.max_depth - k))
        mu = f.root.measure / float(1 << (f.dim * k))
        osc_sums = f.pyramid_slice(pyr, q0, rel)
        with np.errstate(over="ignore"):  # an inf term reaches the DP root
            terms.append(mu * np.power(osc_sums * (1.0 / float(cnt)), p))
    terms.append(np.broadcast_to(0.0, 1 << (f.dim * (f.max_depth - q0.depth))))
    return tuple(terms)


def jnp_dyadic(f: GridFunction, q0: DyadicCube, p: float) -> PartitionResult:
    """Exact dyadic JN_p partition supremum on the subtree of ``q0``.

    Ties between a cube and its best-split children keep the cube, so the
    witness is the coarsest optimal partition; cubes appear in depth-first
    lexicographic order.  The result is built once per (f, q0, p).
    PreconditionError when the value underflows to 0 although f is not
    constant on q0, since every bound built on it would then read 0.
    """
    p = _check_p(p)
    f._check_cube(q0)
    return f._memo(("jnp", q0, p), lambda: _best_partition(f, q0, p))


def _best_partition(f: GridFunction, q0: DyadicCube, p: float) -> PartitionResult:
    terms = _subtree_terms(f, q0, p)
    # the finest terms are zeros, and children summing to +0.0 never beat a
    # term >= +0.0: the DP starts one level up, with the same values and
    # splits, so the witness walk never reaches the finest level
    with np.errstate(over="ignore"):  # an overflowed sum reaches the root too
        values, split = kernels.dp_sweep(terms[:max(1, len(terms) - 1)], f.dim)
    value = _check_jn_value(float(values[0][0]), p)
    if value == 0.0:
        block = f.zslice(q0)
        if float(block.min()) != float(block.max()):
            raise _jn_underflow(p)

    witness = []
    arity = 1 << f.dim
    stack = [(0, 0)]  # (relative depth, local z index), DFS
    while stack:
        rel, z = stack.pop()
        if split[rel][z]:
            base = z * arity
            stack.extend((rel + 1, base + j) for j in range(arity - 1, -1, -1))
        else:
            witness += _subtree_cubes(q0, rel, [z])
    return PartitionResult(value, value ** (1.0 / p), p, tuple(witness))


def bmo_dyadic(f: GridFunction, q0: DyadicCube) -> float:
    """Largest mean oscillation over all dyadic subcubes of ``q0`` (incl. q0)."""
    pyr = f.osc_pyramid()
    # 0.0 is a finest cell's oscillation, so that level is not read
    return max([0.0] + [_cube_mean(f, pyr, q0, rel) for rel in range(f.max_depth - q0.depth)])


def distribution(f: GridFunction, q0: DyadicCube, lam: float) -> float:
    """Measure of ``{x in Q0 : |f(x) - avg_{Q0} f| > lam}``."""
    n_over = int(np.count_nonzero(_deviation(f, q0) > lam))
    return f.root.measure * (n_over / float(f.n_cells))


def weak_lp(f: GridFunction, q0: DyadicCube, p: float, centered: bool = True) -> float:
    """sup_{t>0} t * mu({|g| >= t})^(1/p) on Q0, g = f - avg (or f raw).

    |g| takes finitely many values, and t -> mu(|g| >= t) is constant
    between consecutive ones, so the sup is attained at a distinct value.
    With |g| sorted, position i of n is scored as t = a[i] with the n - i
    cells from i on: that is mu(|g| >= t) at the first position of a run
    of equal values and no more at a later one.  Block by block, the run
    starts and each block's first position are scored, so the max is
    bitwise the max over the distinct values.
    """
    p = _check_p(p)
    # one working copy, then in place: at 2**20 cells each copy is 8 MB
    a = _deviation(f, q0) if centered else np.abs(f.zslice(q0))
    a.sort()
    a = a[np.searchsorted(a, 0.0, side="right"):]  # the values > 0
    best = 0.0
    for lo in range(0, a.size, _WEAK_BLOCK):
        run = a[lo:lo + _WEAK_BLOCK]
        scored = np.empty(run.size, dtype=bool)
        scored[0] = True
        np.not_equal(run[1:], run[:-1], out=scored[1:])
        at = np.flatnonzero(scored)
        meas = np.subtract(a.size - lo, at, dtype=np.float64)
        meas /= float(f.n_cells)
        meas *= f.root.measure
        meas **= 1.0 / p
        meas *= run[at]
        best = max(best, float(meas.max()))
    return best


def notlp_terms(p: float, n_terms: int, depth: int) -> np.ndarray:
    """Per-cube terms |Q_j| (osc_{Q_j} f)^p for f(x) = x^(-1/p) on (0, 2).

    Q_j is the dyadic interval (2^-j, 2^(1-j)); the terms are essentially
    constant in j, so their partial sums grow linearly and f lies in every
    JN_p-type class's complement: sup over disjoint families diverges as
    the family grows.  Needs `depth >= n_terms + 2` so the deepest cube
    still holds several cells.
    """
    p = _check_p(p)
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if depth < n_terms + 2:
        raise ValueError(f"depth {depth} too small for {n_terms} terms; need >= {n_terms + 2}")
    root = RootCube(1, (0.0,), 2.0)
    f = GridFunction.from_callable(root, depth, lambda pts: pts[:, 0] ** (-1.0 / p))
    terms = np.empty(n_terms, dtype=np.float64)
    for j in range(n_terms):
        # the oscillation sum over Q_j alone, bitwise its `mean_oscillation`
        # pyramid entry (see `GridFunction.osc_pyramid`), without the
        # whole grid's tiled pyramid
        q = DyadicCube(root, j + 1, (1,))
        block = f.zslice(q)
        width = depth - q.depth
        osc = float(kernels._osc_sums(block, [average(f, q)], width)[0]) / float(block.size)
        terms[j] = q.measure * osc ** p
    return terms
