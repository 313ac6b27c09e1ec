"""Per-bit and per-cube reference implementations of the dyadic layout.

These are the direct computations that the Morton codec in
``jnlab.grid`` and the array-based CZ selection replaced: the per-bit
loops of ``DyadicCube.zindex``, ``cube_from_zindex`` and the lex-to-Morton
permutation, the CZ construction that decoded one cube at a time and
built the residual through a full-grid Morton mask, and the martingale
generator that repeated its parents and block means.  They work on Python
ints, so they hold at any depth.  Tests compare the package against them
bitwise.  ``jnp_bruteforce`` enumerates every dyadic partition, the
oracle of the JN_p dynamic program on tiny grids, and ``jnp_full_dp``
runs that program over every level, the finest included.
"""

from __future__ import annotations

import itertools

import numpy as np

from jnlab import kernels
from jnlab.errors import _check_jn_value, _check_p
from jnlab.functionals import PartitionResult, _subtree_terms
from jnlab.grid import CellSet, DyadicCube, GridFunction, _subtree_cubes


def zindex(cube: DyadicCube) -> int:
    """Bit-interleaved position among the cubes of the cube's depth."""
    z = 0
    for level in range(cube.depth):
        for j, i in enumerate(cube.index):
            bit = (i >> level) & 1
            z |= bit << (level * cube.dim + (cube.dim - 1 - j))
    return z


def cube_from_zindex(root, depth: int, z: int) -> DyadicCube:
    """Inverse of :func:`zindex` at a fixed depth."""
    index = [0] * root.dim
    for level in range(depth):
        for j in range(root.dim):
            bit = (z >> (level * root.dim + (root.dim - 1 - j))) & 1
            index[j] |= bit << level
    return DyadicCube(root, depth, tuple(index))


def lex_to_z_perm(dim: int, depth: int) -> np.ndarray:
    """perm[lex_position] = interleaved position, over all finest cells."""
    n_cells = 1 << (dim * depth)
    lex = np.arange(n_cells, dtype=np.int64)
    z = np.zeros(n_cells, dtype=np.int64)
    rem = lex
    for j in range(dim):
        p = np.int64(1) << (depth * (dim - 1 - j))
        coord = rem // p
        rem = rem - coord * p
        for level in range(depth):
            bit = (coord >> level) & 1
            z |= bit << (level * dim + (dim - 1 - j))
    return z


def random_martingale_values(dim: int, depth: int, seed: int) -> np.ndarray:
    """The former ``gen_random_martingale`` field in cell order: reshape
    means, ``np.repeat`` of the means and of the parents, and a gather
    through the per-bit permutation."""
    rng = np.random.default_rng(seed)
    arity = 1 << dim
    zvals = np.zeros(1)
    for k in range(depth):
        eps = rng.standard_normal(zvals.size * arity)
        eps = eps - np.repeat(eps.reshape(-1, arity).mean(axis=1), arity)
        zvals = np.repeat(zvals, arity) + eps * 2.0 ** (-0.5 * k)
    return zvals[lex_to_z_perm(dim, depth)]


def cz_cover(f, q0: DyadicCube, lam: float):
    """(cubes, averages, residual, union_measure) of the CZ selection at
    level lam, one cube at a time; lam must dominate the q0 |f| average."""
    pyr = f.abs_pyramid()
    local_depth = f.max_depth - q0.depth
    arity = 1 << f.dim
    picked, picked_avgs = [], []
    active = np.ones(1, dtype=bool)
    for rel in range(1, local_depth + 1):
        cnt = 1 << (f.dim * (local_depth - rel))
        avgs = f.pyramid_slice(pyr, q0, rel) * (1.0 / float(cnt))
        active = np.repeat(active, arity)
        sel = active & (avgs > lam)
        for z in np.flatnonzero(sel):
            picked.append((rel, int(z)))
            picked_avgs.append(float(avgs[z]))
        active &= ~sel
    picked.sort()
    cubes = tuple(
        cube_from_zindex(f.root, q0.depth + rel, (zindex(q0) << (f.dim * rel)) + z)
        for rel, z in picked)
    width = f.dim * local_depth
    zres = np.zeros(1 << (f.dim * f.max_depth), dtype=bool)
    zres[zindex(q0) << width:(zindex(q0) + 1) << width] = active
    residual = CellSet(f.root, f.max_depth, zres[lex_to_z_perm(f.dim, f.max_depth)])
    union = float(sum(q.measure for q in cubes))
    return cubes, np.asarray(picked_avgs), residual, union


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
    witness = tuple(c for rel, z in best_keys for c in _subtree_cubes(q0, rel, [z]))
    return PartitionResult(best_val, best_val ** (1.0 / p), p, witness)


def jnp_full_dp(f: GridFunction, q0: DyadicCube, p: float) -> tuple[float, tuple[DyadicCube, ...]]:
    """(value, witness) of the JN_p dynamic program over the whole term
    pyramid: |Q| (osc_Q f)^p through `np.power` at every level, the
    finest included, and `kernels.dp_sweep` from the finest level up.  The
    witness walks the split flags depth first, children in z order; the
    value is inf when a term or sum overflowed."""
    pyr = f.osc_pyramid()
    terms = []
    with np.errstate(over="ignore"):
        for rel in range(f.max_depth - q0.depth + 1):
            k = q0.depth + rel
            cnt = 1 << (f.dim * (f.max_depth - k))
            mu = f.root.measure / float(1 << (f.dim * k))
            terms.append(mu * np.power(f.pyramid_slice(pyr, q0, rel) * (1.0 / float(cnt)), p))
        values, split = kernels.dp_sweep(terms, f.dim)
    witness = []

    def walk(cube: DyadicCube, rel: int, z: int) -> None:
        if split[rel][z]:
            for j, child in enumerate(cube.children()):
                walk(child, rel + 1, (z << f.dim) + j)
        else:
            witness.append(cube)

    walk(q0, 0, 0)
    return float(values[0][0]), tuple(witness)
