"""Per-bit and per-cube reference implementations of the dyadic layout.

These are the direct computations that the Morton codec in
``jnlab.grid`` and the array-based CZ selection replaced: the per-bit
loops of ``DyadicCube.zindex``, ``cube_from_zindex`` and the lex-to-Morton
permutation, and the CZ construction that decoded one cube at a time and
built the residual through a full-grid Morton mask.  They work on Python
ints, so they hold at any depth.  Tests compare the package against them
bitwise.
"""

from __future__ import annotations

import numpy as np

from jnlab.grid import CellSet, DyadicCube


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
