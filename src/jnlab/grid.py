"""Dyadic cubes and piecewise-constant grid functions.

A root cube in R^n is split ``max_depth`` times into ``2**n`` children per
step; a :class:`GridFunction` holds one value per finest cell.  The public
cell order is lexicographic in the index tuple (first coordinate most
significant).  Internally the values are also kept in bit-interleaved
(Morton) order, where the cells of any dyadic cube form one contiguous
block; all cube sums are computed by repeated adjacent-pair addition over
such blocks, so a per-cube query and a full-grid sweep produce bitwise
identical numbers.  Averages divide those sums by powers of two (exact).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DepthOverflowError

__all__ = [
    "CellSet",
    "DyadicCube",
    "GridFunction",
    "RootCube",
    "average",
    "cube_from_zindex",
    "mean_oscillation",
]

# Cell-count cap for grids read from a file or built by the CLI: at most
# 2**MAX_CELL_BITS finest cells, so dim * depth <= MAX_CELL_BITS is checked
# before any per-cell array is allocated.
MAX_CELL_BITS = 24


@dataclass(frozen=True)
class RootCube:
    """Axis-parallel cube: ``prod_j [origin_j, origin_j + side)``."""

    dim: int
    origin: tuple[float, ...]
    side: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.origin) != self.dim:
            raise ValueError(f"origin has {len(self.origin)} entries, expected {self.dim}")
        if not (self.side > 0 and np.isfinite(self.side)):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "side", float(self.side))

    @property
    def measure(self) -> float:
        return self.side**self.dim

    def top(self) -> "DyadicCube":
        return DyadicCube(self, 0, (0,) * self.dim)


@dataclass(frozen=True)
class DyadicCube:
    """Depth-``depth`` dyadic subcube of ``root`` with per-axis index tuple."""

    root: RootCube
    depth: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if len(self.index) != self.root.dim:
            raise ValueError(f"index has {len(self.index)} entries, expected {self.root.dim}")
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))
        top = 1 << self.depth
        for i in self.index:
            if not 0 <= i < top:
                raise ValueError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def side(self) -> float:
        return self.root.side / float(1 << self.depth)

    @property
    def measure(self) -> float:
        return self.root.measure / float(1 << (self.dim * self.depth))

    def corner(self) -> tuple[float, ...]:
        h = self.side
        return tuple(o + i * h for o, i in zip(self.root.origin, self.index))

    def children(self) -> tuple["DyadicCube", ...]:
        kids = []
        for bits in itertools.product((0, 1), repeat=self.dim):
            idx = tuple(2 * i + b for i, b in zip(self.index, bits))
            kids.append(DyadicCube(self.root, self.depth + 1, idx))
        return tuple(kids)

    def ancestor(self, depth: int) -> "DyadicCube":
        if not 0 <= depth <= self.depth:
            raise ValueError(f"ancestor depth {depth} not in [0, {self.depth}]")
        shift = self.depth - depth
        return DyadicCube(self.root, depth, tuple(i >> shift for i in self.index))

    def contains(self, other: "DyadicCube") -> bool:
        if other.root != self.root or other.depth < self.depth:
            return False
        shift = other.depth - self.depth
        return all((oi >> shift) == i for oi, i in zip(other.index, self.index))

    def zindex(self) -> int:
        """Bit-interleaved position among the cubes of this depth."""
        z = 0
        for level in range(self.depth):
            for j, i in enumerate(self.index):
                bit = (i >> level) & 1
                z |= bit << (level * self.dim + (self.dim - 1 - j))
        return z


def cube_from_zindex(root: RootCube, depth: int, z: int) -> DyadicCube:
    """Inverse of :meth:`DyadicCube.zindex` at a fixed depth."""
    index = [0] * root.dim
    for level in range(depth):
        for j in range(root.dim):
            bit = (z >> (level * root.dim + (root.dim - 1 - j))) & 1
            index[j] |= bit << level
    return DyadicCube(root, depth, tuple(index))


@functools.lru_cache(maxsize=64)
def _lex_to_z_perm(dim: int, depth: int) -> np.ndarray:
    """perm[lex_position] = interleaved position, over all finest cells.

    Cached; the returned array is index-only and must not be written to.
    """
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
    z.setflags(write=False)
    return z


class GridFunction:
    """Piecewise-constant function on the finest cells of a dyadic grid.

    Parameters
    ----------
    root : RootCube
    max_depth : int
        Number of dyadic refinements; the grid has ``2**(n*max_depth)`` cells.
    values : array_like
        One finite value per finest cell, lexicographic cell order.

    The instance is immutable; what is derived from it (the Morton-order
    values, the pyramids, the dyadic verifiers' per-(Q0, p) data) is
    memoized in ``_cache`` and freed with it.
    """

    def __init__(self, root: RootCube, max_depth: int, values):
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        want = 1 << (root.dim * max_depth)
        if vals.size != want:
            raise ValueError(f"expected {want} cell values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value at cell {bad}: {vals[bad]}")
        # below this bound every cube sum of f, |f| and |f - avg| is finite
        bound = float(np.finfo(np.float64).max) / (2 * want)
        if max(vals.max(), -vals.min()) > bound:
            raise ValueError(f"values too large for {want} cells: need |value| <= {bound!r}")
        self.root = root
        self.max_depth = int(max_depth)
        self.values = vals.copy()
        self.values.setflags(write=False)
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def n_cells(self) -> int:
        return self.values.size

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.root, self.max_depth, values)

    # ---------------------------------------------------------- internals

    def _memo(self, key, build):
        """The value cached under `key`, made by ``build()`` on first use
        (nothing is cached when it raises)."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def zperm(self) -> np.ndarray:
        return self._memo("zperm", lambda: _lex_to_z_perm(self.dim, self.max_depth))

    @property
    def zvalues(self) -> np.ndarray:
        def build():
            zv = np.empty_like(self.values)
            zv[self.zperm] = self.values
            zv.setflags(write=False)
            return zv
        return self._memo("zvalues", build)

    def _check_cube(self, cube: DyadicCube) -> None:
        if cube.root != self.root:
            raise ValueError(f"cube root {cube.root} does not match grid root {self.root}")
        if cube.depth > self.max_depth:
            raise DepthOverflowError(cube.depth, self.max_depth)

    def zslice(self, cube: DyadicCube) -> np.ndarray:
        """The cube's finest-cell values as one contiguous block."""
        self._check_cube(cube)
        width = self.dim * (self.max_depth - cube.depth)
        z0 = cube.zindex() << width
        return self.zvalues[z0:z0 + (1 << width)]

    def pyramid_slice(self, pyramid, cube: DyadicCube, rel_depth: int) -> np.ndarray:
        """Entries of a pyramid level restricted to the subtree of `cube`.

        Returns the block of all depth-``cube.depth + rel_depth`` descendants
        of `cube`, in interleaved order, as a view into the pyramid.
        """
        k = cube.depth + rel_depth
        if k > self.max_depth:
            raise DepthOverflowError(k, self.max_depth)
        width = self.dim * rel_depth
        z = cube.zindex()
        return pyramid[k][z << width:(z + 1) << width]

    def sum_pyramid(self) -> tuple[np.ndarray, ...]:
        """Tree sums of the values at every depth, one array per depth
        (interleaved order); the deepest entry is :attr:`zvalues` itself."""
        return self._memo("pyr_sum", lambda: kernels.build_pyramid(
            self.zvalues, self.max_depth, self.dim))

    def abs_pyramid(self) -> tuple[np.ndarray, ...]:
        """Tree sums of |values| at every depth."""
        return self._memo("pyr_abs", lambda: kernels.build_pyramid(
            np.abs(self.zvalues), self.max_depth, self.dim))

    def osc_pyramid(self) -> tuple[np.ndarray, ...]:
        """Per-cube sums of |value - cube average| at every depth."""
        def build():
            sums = self.sum_pyramid()
            levels = []
            for k in range(self.max_depth):
                width = self.dim * (self.max_depth - k)
                levels.append(kernels.osc_sums(
                    self.zvalues, sums[k] * (1.0 / float(1 << width)), width))
            # a finest cell is its own average: |v - v| is +0.0 for finite v
            levels.append(np.zeros(self.n_cells))
            return tuple(levels)
        return self._memo("pyr_osc", build)

    # ---------------------------------------------------------- geometry

    def cell_midpoints(self) -> np.ndarray:
        """(n_cells, dim) midpoints of the finest cells, lexicographic order."""
        edge = 1 << self.max_depth
        h = self.root.side / float(edge)
        axes = [np.asarray(self.root.origin[j]) + (np.arange(edge) + 0.5) * h
                for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @classmethod
    def from_callable(cls, root: RootCube, max_depth: int, fn) -> "GridFunction":
        """Sample ``fn`` at the midpoint of every finest cell.

        ``fn`` receives an (n_cells, dim) array and returns n_cells values.
        """
        probe = cls(root, max_depth, np.zeros(1 << (root.dim * max_depth)))
        pts = probe.cell_midpoints()
        return cls(root, max_depth, np.asarray(fn(pts), dtype=np.float64))

    # ---------------------------------------------------------- IO

    def to_csv(self, path) -> None:
        """Header ``n,D,origin...,side`` then one value per line (full precision)."""
        with open(path, "w", encoding="ascii") as fh:
            head = [str(self.dim), str(self.max_depth)]
            head += [repr(x) for x in self.root.origin] + [repr(self.root.side)]
            fh.write(",".join(head) + "\n")
            fh.writelines(repr(float(v)) + "\n" for v in self.values)

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        with open(path, "r", encoding="ascii") as fh:
            head = fh.readline().strip().split(",")
            if len(head) < 4:
                raise ValueError(f"malformed grid header: {head!r}")
            dim, depth = int(head[0]), int(head[1])
            if len(head) != 2 + dim + 1:
                raise ValueError(f"grid header has {len(head)} fields, expected {3 + dim}")
            if depth < 0 or dim * depth > MAX_CELL_BITS:
                raise ValueError(f"grid header asks for dim {dim}, depth {depth}; "
                                 f"need depth >= 0 and dim * depth <= {MAX_CELL_BITS}")
            origin = tuple(float(x) for x in head[2:2 + dim])
            side = float(head[2 + dim])
            vals = [float(line) for line in fh if line.strip()]
        return cls(RootCube(dim, origin, side), depth, vals)


def average(f: GridFunction, cube: DyadicCube) -> float:
    """Average of ``f`` over a dyadic cube (its sum pyramid entry / cell count)."""
    f._check_cube(cube)
    cells = 1 << (f.dim * (f.max_depth - cube.depth))
    return float(f.pyramid_slice(f.sum_pyramid(), cube, 0)[0]) / float(cells)


def mean_oscillation(f: GridFunction, cube: DyadicCube) -> float:
    """Average of |f - average(f, cube)| over the cube."""
    block = f.zslice(cube)
    width = f.dim * (f.max_depth - cube.depth)
    return float(kernels.osc_sums(block, [average(f, cube)], width)[0]) / float(block.size)


class CellSet:
    """Subset of the finest cells at a fixed depth, as a lexicographic bitmask."""

    def __init__(self, root: RootCube, depth: int, mask):
        m = np.asarray(mask, dtype=bool).reshape(-1)
        want = 1 << (root.dim * depth)
        if m.size != want:
            raise ValueError(f"mask has {m.size} cells, expected {want}")
        self.root = root
        self.depth = int(depth)
        self.mask = m.copy()
        self.mask.setflags(write=False)

    @classmethod
    def from_zmask(cls, root: RootCube, depth: int, zmask: np.ndarray, zperm: np.ndarray):
        return cls(root, depth, zmask[zperm])

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        # count / total is a dyadic rational, exact in binary floating point
        return self.root.measure * (self.count / float(self.mask.size))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __eq__(self, other):
        return (
            isinstance(other, CellSet)
            and other.root == self.root
            and other.depth == self.depth
            and bool(np.array_equal(other.mask, self.mask))
        )

    def __repr__(self):
        return f"CellSet(depth={self.depth}, count={self.count}/{self.mask.size})"
