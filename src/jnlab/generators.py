"""Seeded generators for grid functions, metric spaces, and point values.

Every random generator takes an integer seed and feeds a fresh
``numpy.random.default_rng(seed)``, so outputs are reproducible bytes.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, RootCube
from .metric import MetricMeasureSpace, build_space, space_from_points

__all__ = [
    "f_distance",
    "f_log_distance",
    "f_random",
    "gen_constant",
    "gen_grid2d",
    "gen_line",
    "gen_log_singularity",
    "gen_power_singularity",
    "gen_random_cloud",
    "gen_random_martingale",
    "gen_random_uniform",
    "gen_step",
    "gen_tree_graph",
]

def _unit_root(dim: int) -> RootCube:
    return RootCube(dim, (0.0,) * dim, 1.0)


# --------------------------------------------------------------------- grids


def gen_constant(dim: int, depth: int, value: float = 1.0) -> GridFunction:
    return GridFunction(_unit_root(dim), depth,
                        np.full(1 << (dim * depth), float(value)))


def gen_step(dim: int, depth: int) -> GridFunction:
    """Indicator of the half where the first coordinate passes midpoint."""
    root = _unit_root(dim)
    return GridFunction.from_callable(
        root, depth, lambda pts: (pts[:, 0] >= 0.5).astype(np.float64))


def gen_power_singularity(p: float, depth: int) -> GridFunction:
    """x^(-1/p) on (0, 2); the singularity sits on the cube boundary and
    midpoint sampling keeps every value finite."""
    root = RootCube(1, (0.0,), 2.0)
    return GridFunction.from_callable(root, depth,
                                      lambda pts: pts[:, 0] ** (-1.0 / float(p)))


def gen_log_singularity(depth: int) -> GridFunction:
    """log(x) on (0, 1): the canonical unbounded mean-oscillation-bounded
    profile."""
    root = _unit_root(1)
    return GridFunction.from_callable(root, depth, lambda pts: np.log(pts[:, 0]))


def gen_random_uniform(dim: int, depth: int, seed: int) -> GridFunction:
    rng = np.random.default_rng(seed)
    return GridFunction(_unit_root(dim), depth,
                        rng.uniform(0.0, 1.0, 1 << (dim * depth)))


def gen_random_martingale(dim: int, depth: int, seed: int) -> GridFunction:
    """Dyadic martingale: each refinement adds increments that sum to zero
    over every sibling block, scaled by 2^(-k/2) at step k.  Cube averages
    therefore reproduce the coarser values, and two runs with the same seed
    but different depths agree on their common scales."""
    rng = np.random.default_rng(seed)
    arity = 1 << dim
    zvals = np.zeros(1)
    for k in range(depth):
        zvals = _refine(zvals, rng.standard_normal(zvals.size * arity), arity,
                        2.0 ** (-0.5 * k))
    # the field is built cube-contiguously, in Morton order
    return GridFunction._from_zvalues(_unit_root(dim), depth, zvals)


def _refine(parents: np.ndarray, eps: np.ndarray, arity: int, scale: float) -> np.ndarray:
    """One martingale step, in place in `eps`: child j of parent i, at
    i * arity + j, is parents[i] + (eps[i * arity + j] - mean of parent
    i's eps) * scale."""
    block = eps.reshape(-1, arity)
    block -= block.mean(axis=1)[:, None]
    block *= scale
    block += parents[:, None]
    return eps


# -------------------------------------------------------------------- spaces


def gen_line(m: int) -> MetricMeasureSpace:
    """m integer points on a line, unit weights."""
    return space_from_points(np.arange(m, dtype=np.float64))


def gen_grid2d(side: int) -> MetricMeasureSpace:
    """side x side lattice with the graph (L1 hop) metric, unit weights."""
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1).astype(np.float64)
    d = (np.abs(pts[:, None, 0] - pts[None, :, 0])
         + np.abs(pts[:, None, 1] - pts[None, :, 1]))
    return build_space(dmat=d)


def gen_tree_graph(m: int, seed: int) -> MetricMeasureSpace:
    """Random recursive tree on m nodes with hop distance."""
    rng = np.random.default_rng(seed)
    parent = np.zeros(m, dtype=np.int64)
    for i in range(2, m):
        parent[i] = rng.integers(0, i)
    # row i marks i and its ancestors; (anc anc^T)[i, j] = depth(lca) + 1
    anc = np.eye(m)
    for i in range(1, m):
        anc[i] += anc[parent[i]]
    depth = anc.sum(axis=1) - 1.0
    d = depth[:, None] + depth[None, :] - 2.0 * (anc @ anc.T - 1.0)
    return build_space(dmat=d)


def gen_random_cloud(m: int, seed: int, dim: int = 2) -> MetricMeasureSpace:
    """Uniform points in the unit cube with Euclidean distance; weights 1."""
    rng = np.random.default_rng(seed)
    return space_from_points(rng.uniform(0.0, 1.0, (m, dim)))


# ---------------------------------------------------------- point functions


def _anchor_row(space: MetricMeasureSpace, anchor: int) -> np.ndarray:
    if not 0 <= anchor < space.m:
        raise ValueError(f"anchor {anchor} out of range for m={space.m}")
    return space.d[anchor]


def f_log_distance(space: MetricMeasureSpace, anchor: int = 0) -> np.ndarray:
    """log(delta + d(anchor, .)) with delta the smallest positive distance:
    bounded mean oscillation at every scale, unbounded range on big spaces."""
    row = _anchor_row(space, anchor)
    pos = row[row > 0]
    delta = float(pos.min()) if pos.size else 1.0
    return np.log(delta + row)


def f_distance(space: MetricMeasureSpace, anchor: int = 0) -> np.ndarray:
    return _anchor_row(space, anchor).copy()


def f_random(space: MetricMeasureSpace, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, space.m)
