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

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import _check_jn_value, _check_p
from .grid import (DyadicCube, GridFunction, RootCube, average, cube_from_zindex,
                   mean_oscillation)

__all__ = [
    "PartitionResult",
    "bmo_dyadic",
    "distribution",
    "jnp_bruteforce",
    "jnp_dyadic",
    "notlp_terms",
    "weak_lp",
]


@dataclass(frozen=True)
class PartitionResult:
    """Best-partition value: ``norm == value ** (1/p)``."""

    value: float
    norm: float
    p: float
    witness: tuple[DyadicCube, ...]


def _subtree_terms(f: GridFunction, q0: DyadicCube, p: float) -> tuple[np.ndarray, ...]:
    """Pyramid of |Q| (osc_Q f)^p over the subtree of q0, one array per
    relative depth."""
    pyr = f.osc_pyramid()
    terms = []
    for rel in range(f.max_depth - q0.depth + 1):
        k = q0.depth + rel
        cnt = 1 << (f.dim * (f.max_depth - k))
        mu = f.root.measure / float(1 << (f.dim * k))
        osc_sums = f.pyramid_slice(pyr, q0, rel)
        with np.errstate(over="ignore"):  # an inf term reaches the DP root
            terms.append(mu * np.power(osc_sums * (1.0 / float(cnt)), p))
    return tuple(terms)


def jnp_dyadic(f: GridFunction, q0: DyadicCube, p: float) -> PartitionResult:
    """Exact dyadic JN_p partition supremum on the subtree of ``q0``.

    Ties between a cube and its best-split children keep the cube, so the
    witness is the coarsest optimal partition; cubes appear in depth-first
    lexicographic order.
    """
    p = _check_p(p)
    f._check_cube(q0)
    terms = _subtree_terms(f, q0, p)
    with np.errstate(over="ignore"):  # an overflowed sum reaches the root too
        values, split = kernels.dp_sweep(terms, f.dim)
    value = _check_jn_value(float(values[0][0]), p)

    witness = []
    arity = 1 << f.dim
    stack = [(0, 0)]  # (relative depth, local z index), DFS
    while stack:
        rel, z = stack.pop()
        if split[rel][z]:
            base = z * arity
            stack.extend((rel + 1, base + j) for j in range(arity - 1, -1, -1))
        else:
            gz = (q0.zindex() << (f.dim * rel)) + z
            witness.append(cube_from_zindex(f.root, q0.depth + rel, gz))
    return PartitionResult(value, value ** (1.0 / p), p, tuple(witness))


def _partition_count(arity: int, extra_depth: int) -> int:
    n = 1
    for _ in range(extra_depth):
        n = 1 + n**arity
    return n


def jnp_bruteforce(f: GridFunction, q0: DyadicCube, p: float,
                   max_extra_depth: int, _cap: int = 200_000) -> PartitionResult:
    """Literal enumeration of every dyadic partition of ``q0`` down to
    ``max_extra_depth`` further levels; intended as an oracle on tiny grids.

    Terms come from the same table the DP uses (vectorized pow is not
    bitwise reproducible term by term), so any disagreement with
    ``jnp_dyadic`` isolates a bug in the recursion, not in rounding.
    """
    p = _check_p(p)
    f._check_cube(q0)
    depth_budget = min(max_extra_depth, f.max_depth - q0.depth)
    arity = 1 << f.dim
    n_part = _partition_count(arity, depth_budget)
    if n_part > _cap:
        raise ValueError(
            f"{n_part} partitions exceed the enumeration cap {_cap}; "
            "reduce max_extra_depth"
        )
    terms = _subtree_terms(f, q0, p)

    def enum(rel: int, z: int, budget: int):
        # (value, ((rel, z), ...)) for every partition of this subtree
        out = [(float(terms[rel][z]), ((rel, z),))]
        if budget > 0:
            per_child = [enum(rel + 1, arity * z + t, budget - 1)
                         for t in range(arity)]
            for combo in itertools.product(*per_child):
                vals = [v for v, _ in combo]
                while len(vals) > 1:
                    vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
                out.append((vals[0], tuple(c for _, cs in combo for c in cs)))
        return out

    best_val, best_keys = None, None
    for val, keys in enum(0, 0, depth_budget):
        if best_val is None or val > best_val:
            best_val, best_keys = val, keys
    best_val = _check_jn_value(best_val, p)
    witness = tuple(
        cube_from_zindex(f.root, q0.depth + rel, (q0.zindex() << (f.dim * rel)) + z)
        for rel, z in best_keys)
    return PartitionResult(best_val, best_val ** (1.0 / p), p, witness)


def bmo_dyadic(f: GridFunction, q0: DyadicCube) -> float:
    """Largest mean oscillation over all dyadic subcubes of ``q0`` (incl. q0)."""
    f._check_cube(q0)
    pyr = f.osc_pyramid()
    best = 0.0
    for rel in range(f.max_depth - q0.depth + 1):
        cnt = 1 << (f.dim * (f.max_depth - q0.depth - rel))
        level = f.pyramid_slice(pyr, q0, rel) * (1.0 / float(cnt))
        cand = float(level.max())
        if cand > best:
            best = cand
    return best


def distribution(f: GridFunction, q0: DyadicCube, lam: float) -> float:
    """Measure of ``{x in Q0 : |f(x) - avg_{Q0} f| > lam}``."""
    block = f.zslice(q0)
    avg = average(f, q0)
    n_over = int(np.count_nonzero(np.abs(block - avg) > lam))
    return f.root.measure * (n_over / float(f.n_cells))


def weak_lp(f: GridFunction, q0: DyadicCube, p: float, centered: bool = True) -> float:
    """sup_{t>0} t * mu({|g| >= t})^(1/p) on Q0, g = f - avg (or f raw).

    |g| takes finitely many values, and t -> mu(|g| >= t) is constant
    between consecutive ones, so the sup is attained at a distinct value.
    """
    p = _check_p(p)
    block = f.zslice(q0)
    if centered:
        block = block - average(f, q0)
    a = np.sort(np.abs(block))
    a = a[np.searchsorted(a, 0.0, side="right"):]  # the values > 0
    if a.size == 0:
        return 0.0
    # each distinct value starts a run of the sort, and the cells from
    # that start on are those with |g| >= the value
    starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    vals = a[starts]
    meas = f.root.measure * ((a.size - starts) / float(f.n_cells))
    return float(np.max(vals * meas ** (1.0 / p)))


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
        q = DyadicCube(root, j + 1, (1,))
        terms[j] = q.measure * mean_oscillation(f, q) ** p
    return terms
