"""Dyadic cubes and piecewise-constant grid functions.

A root cube in R^n is split ``max_depth`` times into ``2**n`` children per
step; a :class:`GridFunction` holds one value per finest cell.  The public
cell order is lexicographic in the index tuple (first coordinate most
significant).  Cube sums read the values in bit-interleaved (Morton)
order, where the cells of any dyadic cube form one contiguous block; all
cube sums are computed by repeated adjacent-pair addition over such
blocks, so a per-cube query and a full-grid sweep produce bitwise
identical numbers.  :func:`_cube_mean` divides them by powers of two (exact),
and :func:`_deviation` alone builds |f - avg_{Q0} f| over Q0's cells.
The Morton codec in this module is the only code that knows the bit
layout: bit k of a cube's index on axis j is bit k*dim + dim-1-j of its
z-index.  In 1-D that is bit k of the index itself, so Morton order is
cell order and a grid keeps one array of values; in 2-D and up it also
keeps a Morton-order copy.  Other modules move arrays between the two
orders only through :func:`_z_to_cells` and :func:`_cells_to_z`.
"""

from __future__ import annotations

import functools
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

_OSC_TILE_BITS = 15  # cells per tile of the oscillation pyramid: 2**15 doubles, 256 KB


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
        """The 2**dim children, in lexicographic order of their indices."""
        return _subtree_cubes(self, 1, np.arange(1 << self.dim))

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
        return int(sum(_spread(np.int64(i), self.dim, self.depth) << (self.dim - 1 - j)
                       for j, i in enumerate(self.index)))


def cube_from_zindex(root: RootCube, depth: int, z: int) -> DyadicCube:
    """Inverse of :meth:`DyadicCube.zindex` at a fixed depth."""
    return _subtree_cubes(root.top(), depth, [z])[0]


# ------------------------------------------------------------ Morton codec

_CHUNK = 8  # index bits moved per table lookup


@functools.lru_cache(maxsize=16)
def _spread_table(dim: int, bits: int) -> np.ndarray:
    """t[i] = i with bit k moved to bit k * dim, for 0 <= i < 2**bits."""
    t = np.zeros(1 << bits, dtype=np.int64)
    for k in range(bits):  # doubling: the entries whose top bit is k
        t[1 << k:2 << k] = t[:1 << k] + (1 << (k * dim))
    t.setflags(write=False)
    return t


def _spread(x: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """Encode: each index x < 2**depth with bit k moved to bit k * dim."""
    if dim * depth > 62:
        raise ValueError(f"a depth-{depth} z-index in dim {dim} needs more than 62 bits")
    t = _spread_table(dim, _CHUNK)
    s = np.zeros(np.shape(x), dtype=np.int64)
    for k in range(0, depth, _CHUNK):
        s |= t[(x >> k) & ((1 << _CHUNK) - 1)] << (k * dim)
    return s


def _compact(s: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """Decode: the inverse of :func:`_spread`, ignoring bits of s that are
    not at multiples of dim."""
    t = _spread_table(dim, _CHUNK)
    x = np.zeros(np.shape(s), dtype=np.int64)
    for k in range(0, depth, _CHUNK):
        x |= np.searchsorted(t, (s >> (k * dim)) & t[-1]) << k
    return x


@functools.lru_cache(maxsize=1)
def _lex_to_z_perm(dim: int, depth: int) -> np.ndarray:
    """perm[lex_position] = interleaved position, over all finest cells:
    the outer sum of the spread coordinates, first axis most significant.
    Read-only; only the last is kept (8 B/cell): callers convert one grid's arrays."""
    z = axis = _spread_table(dim, depth)
    for _ in range(dim - 1):
        z = np.add.outer(z << 1, axis).reshape(-1)
    z.setflags(write=False)
    return z


def _z_to_cells(zvals: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """Morton order -> cell order over all finest cells of a depth-`depth`
    grid.  Bit k of a 1-D index is bit k of its z-index, so in 1-D the two
    orders agree and `zvals` itself is returned."""
    if dim == 1:
        return zvals
    return zvals[_lex_to_z_perm(dim, depth)]


def _cells_to_z(vals: np.ndarray, dim: int, depth: int) -> np.ndarray:
    """Cell order -> Morton order, the inverse of :func:`_z_to_cells`;
    `vals` itself in 1-D."""
    if dim == 1:
        return vals
    zvals = np.empty_like(vals)
    zvals[_lex_to_z_perm(dim, depth)] = vals
    return zvals


def _block(cube: DyadicCube, rel: int) -> slice:
    """The run of interleaved positions of the descendants of `cube`
    `rel` levels down."""
    start = cube.zindex() << (cube.dim * rel)
    return slice(start, start + (1 << (cube.dim * rel)))


def _subtree_cubes(q0: DyadicCube, rel: int, z) -> tuple[DyadicCube, ...]:
    """The descendants of q0 `rel` levels down at local z-indices `z`."""
    z = np.asarray(z, dtype=np.int64)
    index = np.stack([_compact(z >> (q0.dim - 1 - j), q0.dim, rel) + (i << rel)
                      for j, i in enumerate(q0.index)], axis=-1)
    return tuple(DyadicCube(q0.root, q0.depth + rel, tuple(i)) for i in index.tolist())


class _Memoized:
    """Mixin: keeps what an immutable object derives in its ``_cache``."""

    def _memo(self, key, build):
        """The value cached under `key`, made by ``build()`` on first use
        (nothing is cached when it raises).  Every caller shares it, so an
        array, or each array of a tuple, is made read-only."""
        if key not in self._cache:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]


class GridFunction(_Memoized):
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
        self._adopt(root, max_depth, np.array(values, dtype=np.float64, order="C"))

    def _adopt(self, root: RootCube, max_depth: int, vals: np.ndarray) -> None:
        """Validate `vals`, a float64 array that nothing else will write,
        and keep it, read-only, as the values."""
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        vals = vals.reshape(-1)
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
        vals.setflags(write=False)
        self.values = vals
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

    @property
    def zvalues(self) -> np.ndarray:
        """The values in Morton order: :attr:`values` itself in 1-D."""
        return self._memo("zvalues", lambda: _cells_to_z(self.values, self.dim, self.max_depth))

    @classmethod
    def _from_zvalues(cls, root: RootCube, max_depth: int, zvalues: np.ndarray) -> "GridFunction":
        """The grid whose Morton-order values are `zvalues`, a float64 array
        that the grid keeps, read-only, and nothing else will write; it is
        validated as any values.  In 1-D it becomes :attr:`values`, and in
        2-D and up :attr:`zvalues`, so it is neither copied nor scattered
        back."""
        f = cls.__new__(cls)
        f._adopt(root, max_depth, _z_to_cells(zvalues, root.dim, max_depth))
        if root.dim > 1:
            f._memo("zvalues", lambda: zvalues)
        return f

    def _check_cube(self, cube: DyadicCube) -> None:
        if cube.root != self.root:
            raise ValueError(f"cube root {cube.root} does not match grid root {self.root}")
        if cube.depth > self.max_depth:
            raise DepthOverflowError(cube.depth, self.max_depth)

    def zslice(self, cube: DyadicCube) -> np.ndarray:
        """The cube's finest-cell values as one contiguous block."""
        self._check_cube(cube)
        return self.zvalues[_block(cube, self.max_depth - cube.depth)]

    def pyramid_slice(self, pyramid, cube: DyadicCube, rel_depth: int) -> np.ndarray:
        """Entries of a pyramid level restricted to the subtree of `cube`.

        Returns the block of all depth-``cube.depth + rel_depth`` descendants
        of `cube`, in interleaved order, as a view into the pyramid.
        """
        self._check_cube(cube)
        k = cube.depth + rel_depth
        if k > self.max_depth:
            raise DepthOverflowError(k, self.max_depth)
        return pyramid[k][_block(cube, rel_depth)]

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
        """Per-cube sums of |value - cube average| at every depth.

        Built tile by tile, so that the cells of a tile stay in cache
        while every level is summed over them: a cube inside a tile is
        summed there, and a larger cube gets one partial sum per tile,
        pair-summed after the walk.  A tile is an aligned subtree of the
        pair tree, so each sum is bitwise that of one untiled
        `kernels._osc_sums` call.
        """
        def build():
            sums = self.sum_pyramid()
            tbits = min(_OSC_TILE_BITS, self.dim * self.max_depth)
            n_tiles = self.n_cells >> tbits
            widths = [self.dim * (self.max_depth - k) for k in range(self.max_depth)]
            levels = [np.empty(sums[k].size) for k in range(self.max_depth)]
            partials = {k: np.empty(n_tiles) for k, w in enumerate(widths) if w > tbits}
            for t in range(n_tiles):
                tile = self.zvalues[t << tbits:(t + 1) << tbits]
                for k, w in enumerate(widths):
                    # the averages of the cubes the tile meets, scaled here
                    # so that no level of averages is built up front
                    if w > tbits:  # one partial sum of the cube holding the tile
                        i = t >> (w - tbits)
                        avg = sums[k][i:i + 1] * (1.0 / float(1 << w))
                        partials[k][t] = kernels._osc_sums(tile, avg, tbits)[0]
                    else:
                        run = slice(t << (tbits - w), (t + 1) << (tbits - w))
                        avg = sums[k][run] * (1.0 / float(1 << w))
                        levels[k][run] = kernels._osc_sums(tile, avg, w)
            for k, part in partials.items():
                levels[k] = kernels.build_pyramid(part, widths[k] - tbits, 1)[0]
            # a finest cell is its own average: |v - v| is +0.0 for finite v,
            # kept as a read-only zero-stride view, so no cell-sized array
            levels.append(np.broadcast_to(0.0, self.n_cells))
            return tuple(levels)
        return self._memo("pyr_osc", build)

    # ---------------------------------------------------------- geometry

    def cell_midpoints(self) -> np.ndarray:
        """(n_cells, dim) midpoints of the finest cells, lexicographic order."""
        return _cell_midpoints(self.root, self.max_depth)

    @classmethod
    def from_callable(cls, root: RootCube, max_depth: int, fn) -> "GridFunction":
        """Sample ``fn`` at the midpoint of every finest cell.

        ``fn`` receives an (n_cells, dim) array and returns n_cells values.
        """
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        pts = _cell_midpoints(root, max_depth)
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


def _cell_midpoints(root: RootCube, depth: int) -> np.ndarray:
    """(n_cells, dim) midpoints of the depth-`depth` cells of `root`,
    lexicographic order."""
    edge = 1 << depth
    h = root.side / float(edge)
    axes = [np.asarray(root.origin[j]) + (np.arange(edge) + 0.5) * h
            for j in range(root.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _cube_mean(f: GridFunction, pyramid, cube: DyadicCube, rel: int = 0) -> float:
    """The mean over `cube` of what `pyramid` sums: its entry / cell count.
    With rel > 0, the largest such mean `rel` levels down: 2^-k scaling is
    monotone, so scaling after the max gives the largest scaled entry."""
    cells = 1 << (f.dim * (f.max_depth - cube.depth - rel))
    return float(f.pyramid_slice(pyramid, cube, rel).max()) / float(cells)


def average(f: GridFunction, cube: DyadicCube) -> float:
    """Average of ``f`` over a dyadic cube."""
    return _cube_mean(f, f.sum_pyramid(), cube)


def mean_oscillation(f: GridFunction, cube: DyadicCube) -> float:
    """Average of |f - average(f, cube)| over the cube."""
    return _cube_mean(f, f.osc_pyramid(), cube)


def _deviation(f: GridFunction, q0: DyadicCube) -> np.ndarray:
    """|f - avg_{Q0} f| over q0's cells in Morton order: a fresh array
    that the caller may write."""
    dev = f.zslice(q0) - average(f, q0)
    np.abs(dev, out=dev)
    return dev


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
    def _from_block(cls, q0: DyadicCube, zmask: np.ndarray) -> "CellSet":
        """The finest cells of q0 whose flag in `zmask` (one per cell of q0,
        in q0's local interleaved order) is set."""
        rel = (zmask.size.bit_length() - 1) // q0.dim
        full = np.zeros(1 << (q0.dim * (q0.depth + rel)), dtype=bool)
        full[_block(q0, rel)] = zmask
        return cls(q0.root, q0.depth + rel, _z_to_cells(full, q0.dim, q0.depth + rel))

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
