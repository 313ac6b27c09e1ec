import numpy as np
import pytest

import grid_oracles as oracle
from jnlab import kernels
from jnlab.errors import DepthOverflowError
from jnlab.generators import gen_random_martingale
from jnlab.grid import (CellSet, DyadicCube, GridFunction, RootCube, _lex_to_z_perm,
                        _subtree_cubes, average, cube_from_zindex, mean_oscillation)


def tree_total(values):
    vals = [float(v) for v in values]
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
    return vals[0]


def unit(dim):
    return RootCube(dim, (0.0,) * dim, 1.0)


def rand_f(dim, depth, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(unit(dim), depth, rng.uniform(lo, hi, 1 << (dim * depth)))


# ----------------------------------------------------------------- geometry


def test_root_cube_validation():
    with pytest.raises(ValueError):
        RootCube(0, (), 1.0)
    with pytest.raises(ValueError):
        RootCube(1, (0.0,), -2.0)
    with pytest.raises(ValueError):
        RootCube(2, (0.0,), 1.0)  # origin length mismatch


def test_cube_validation_and_geometry():
    root = RootCube(2, (1.0, -1.0), 4.0)
    c = DyadicCube(root, 1, (1, 0))
    assert c.side == 2.0
    assert c.measure == 4.0
    assert c.corner() == (3.0, -1.0)
    with pytest.raises(ValueError):
        DyadicCube(root, 1, (2, 0))
    with pytest.raises(ValueError):
        DyadicCube(root, -1, (0, 0))


def test_children_lex_order_and_ancestor():
    root = unit(2)
    top = root.top()
    kids = top.children()
    assert [k.index for k in kids] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    deep = DyadicCube(root, 3, (5, 2))
    assert deep.ancestor(0) == top
    assert deep.ancestor(2) == DyadicCube(root, 2, (2, 1))
    assert top.contains(deep)
    assert not kids[1].contains(kids[0])


def test_zindex_round_trip():
    root = unit(2)
    for depth in (1, 2, 3):
        seen = set()
        for i in range(1 << depth):
            for j in range(1 << depth):
                c = DyadicCube(root, depth, (i, j))
                z = c.zindex()
                seen.add(z)
                assert cube_from_zindex(root, depth, z) == c
        assert seen == set(range(1 << (2 * depth)))


# every (dim <= 4, depth) with dim * depth <= 14, and two benchmark shapes
CODEC_SHAPES = [(dim, depth) for dim in range(1, 5) for depth in range(14 // dim + 1)]
CODEC_SHAPES += [(1, 20), (2, 10)]


@pytest.mark.parametrize("dim,depth", CODEC_SHAPES)
def test_codec_matches_per_bit_oracles(dim, depth):
    perm = _lex_to_z_perm(dim, depth)
    assert perm.dtype == np.int64 and not perm.flags.writeable
    assert np.array_equal(perm, oracle.lex_to_z_perm(dim, depth))
    root = unit(dim)
    n = 1 << (dim * depth)
    rng = np.random.default_rng(dim * 100 + depth)
    zs = range(n) if n <= 1024 else [0, n - 1, *rng.integers(0, n, 300).tolist()]
    for z in zs:
        c = oracle.cube_from_zindex(root, depth, z)
        assert cube_from_zindex(root, depth, z) == c
        assert c.zindex() == oracle.zindex(c) == z


def test_codec_at_the_cell_cap():
    # 2**24 cells, the CLI's cap; built uncached so the 128 MB table is freed
    dim, depth = 2, 12
    perm = _lex_to_z_perm.__wrapped__(dim, depth)
    n = 1 << (dim * depth)
    assert perm.size == n and perm.min() == 0 and perm.max() == n - 1
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    assert seen.all()
    del seen
    root, side = unit(dim), 1 << depth
    for lex in np.random.default_rng(12).integers(0, n, 200).tolist():
        c = DyadicCube(root, depth, divmod(lex, side))
        assert c.zindex() == int(perm[lex]) == oracle.zindex(c)


def test_one_permutation_is_cached():
    # a permutation takes 8 B per cell; only the last shape's outlives its grids
    for depth in (5, 6):
        assert rand_f(2, depth, depth).zvalues.size == 1 << (2 * depth)
    assert _lex_to_z_perm.cache_info().currsize <= 1


def test_codec_on_deep_cubes():
    rng = np.random.default_rng(62)
    for dim, depth in ((1, 62), (2, 31), (3, 20), (4, 15)):
        root = unit(dim)
        for _ in range(20):
            idx = tuple(int(i) for i in rng.integers(0, 1 << depth, dim))
            c = DyadicCube(root, depth, idx)
            assert c.zindex() == oracle.zindex(c)
            assert cube_from_zindex(root, depth, c.zindex()) == c
    with pytest.raises(ValueError, match="62 bits"):
        DyadicCube(unit(2), 32, (1, 0)).zindex()


def test_children_are_the_lexicographic_refinement():
    for dim in (1, 2, 3):
        c = DyadicCube(unit(dim), 2, (1,) * dim)
        kids = c.children()
        assert [k.index for k in kids] == sorted(k.index for k in kids)
        assert all(k.ancestor(2) == c for k in kids) and len(set(kids)) == 1 << dim


def test_zindex_children_contiguous():
    # the z-block of a cube is exactly the union of its children's blocks
    root = unit(2)
    c = DyadicCube(root, 1, (1, 0))
    z = c.zindex()
    kid_z = sorted(k.zindex() for k in c.children())
    assert kid_z == [4 * z + t for t in range(4)]


# ------------------------------------------------------------ grid function


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(unit(1), 2, np.arange(3.0))
    with pytest.raises(ValueError):
        GridFunction(unit(1), 1, np.array([1.0, np.nan]))


def test_values_are_read_only():
    f = rand_f(1, 3, 0)
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_zslice_matches_lex_selection():
    f = rand_f(2, 3, 5)
    vals = f.values.reshape((8, 8))
    c = DyadicCube(f.root, 1, (1, 0))
    sl = f.zslice(c)
    lex = vals[4:8, 0:4].reshape(-1)
    assert sorted(sl.tolist()) == sorted(lex.tolist())
    assert tree_total(sl) == f.pyramid_slice(f.sum_pyramid(), c, 0)[0]


def test_average_of_linear_samples_is_exact():
    f = GridFunction.from_callable(unit(1), 8, lambda pts: pts[:, 0])
    assert average(f, f.root.top()) == 0.5


def test_from_callable_builds_no_probe_grid(monkeypatch):
    # the midpoints depend on (root, depth) alone: one grid is built, the
    # sampled one
    built = []
    adopt = GridFunction._adopt

    def counting(self, root, depth, vals):
        built.append(vals.size)
        adopt(self, root, depth, vals)

    monkeypatch.setattr(GridFunction, "_adopt", counting)
    root = RootCube(2, (1.0, -2.0), 4.0)
    f = GridFunction.from_callable(root, 3, lambda pts: pts[:, 0] - 3.0 * pts[:, 1])
    assert built == [64]
    pts = f.cell_midpoints()
    assert pts[0].tolist() == [1.25, -1.75] and pts[1].tolist() == [1.25, -1.25]
    assert np.array_equal(f.values, pts[:, 0] - 3.0 * pts[:, 1])
    with pytest.raises(ValueError, match="max_depth"):
        GridFunction.from_callable(unit(1), -1, lambda pts: pts[:, 0])


def test_average_matches_tree_total():
    f = rand_f(2, 3, 7)
    for depth in (0, 1, 2, 3):
        for _ in range(4):
            rng = np.random.default_rng(depth * 10)
            idx = tuple(rng.integers(0, 1 << depth, 2))
            c = DyadicCube(f.root, depth, idx)
            expect = tree_total(f.zslice(c)) / f.zslice(c).size
            assert average(f, c) == expect


def test_mean_oscillation_hand_values():
    f2 = GridFunction(unit(1), 1, np.array([0.0, 1.0]))
    assert mean_oscillation(f2, f2.root.top()) == 0.5
    f4 = GridFunction(unit(1), 2, np.array([0.0, 1.0, 1.0, 1.0]))
    assert mean_oscillation(f4, f4.root.top()) == 0.375


@pytest.mark.parametrize("dim,depth", [(1, 17), (2, 9)])
def test_mean_oscillation_matches_untiled_osc_sums_bitwise(dim, depth):
    # cubes of 2**(dim * (depth - k)) cells lie on both sides of the
    # oscillation pyramid's 2**15-cell tile.  Every cube of a level with
    # at most 2**12 cubes is read; 2**12 sampled ones below that, since a
    # call per cube of these grids takes 10-20 s
    f = gen_random_martingale(dim, depth, 1)
    top, sums = f.root.top(), f.sum_pyramid()
    rng = np.random.default_rng(depth)
    for k in range(depth + 1):
        width = dim * (depth - k)
        cells = float(1 << width)
        want = kernels._osc_sums(f.zvalues, sums[k] / cells, width) / cells
        n = 1 << (dim * k)
        z = np.arange(n) if n <= 1 << 12 else np.unique(rng.integers(0, n, 1 << 12))
        got = np.array([mean_oscillation(f, c) for c in _subtree_cubes(top, k, z)])
        assert np.array_equal(got.view(np.int64), want[z].view(np.int64)), (dim, k)


def test_osc_pyramid_matches_direct():
    f = rand_f(2, 3, 11)
    pyr = f.osc_pyramid()
    for depth in (0, 1, 2, 3):
        for z in range(1 << (2 * depth)):
            c = cube_from_zindex(f.root, depth, z)
            sl = f.zslice(c)
            avg = tree_total(sl) / sl.size
            dev_total = tree_total(np.abs(sl - avg))
            got = f.pyramid_slice(pyr, c, 0)[0] / sl.size
            assert abs(got - dev_total / sl.size) <= 1e-15 * max(1.0, abs(avg))


def test_memo_builds_once_and_caches_no_failure():
    f = rand_f(1, 3, 0)
    built = []

    def build():
        built.append(1)
        return object()

    first = f._memo("k", build)
    assert f._memo("k", build) is first and len(built) == 1

    def fail():
        built.append(1)
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            f._memo("bad", fail)
    assert "bad" not in f._cache and len(built) == 3
    assert f.sum_pyramid() is f.sum_pyramid()
    assert f.osc_pyramid() is f.osc_pyramid()
    # a shared result cannot be written through, array or tuple of arrays
    assert not f._memo("arr", lambda: np.zeros(2)).flags.writeable
    assert not any(level.flags.writeable for level in f.abs_pyramid())


def test_depth_overflow():
    f = rand_f(1, 2, 0)
    deep = DyadicCube(f.root, 5, (3,))
    with pytest.raises(DepthOverflowError):
        f.zslice(deep)


def test_csv_round_trip_exact():
    import tempfile, os
    f = rand_f(2, 3, 13)
    with tempfile.TemporaryDirectory() as td:
        p1 = os.path.join(td, "a.csv")
        p2 = os.path.join(td, "b.csv")
        f.to_csv(p1)
        g = GridFunction.from_csv(p1)
        assert np.array_equal(f.values, g.values)
        assert g.root == f.root and g.max_depth == f.max_depth
        g.to_csv(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_with_values():
    f = rand_f(1, 4, 17)
    g = f.with_values(f.values - 2.5)
    assert np.array_equal(g.values, f.values - 2.5)
    assert g.root == f.root and g.max_depth == f.max_depth
    h = f.with_values(np.zeros(16))
    assert average(h, h.root.top()) == 0.0


def test_values_whose_cube_sums_overflow_raise():
    big = np.finfo(np.float64).max
    with pytest.raises(ValueError, match="too large"):
        GridFunction(unit(1), 1, [1.7e308, 1.7e308])
    for dim, depth in ((1, 1), (1, 3), (2, 2)):
        n = 1 << (dim * depth)
        bound = big / (2 * n)
        for bad in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf)):
            vals = np.zeros(n)
            vals[n // 2] = bad
            with pytest.raises(ValueError, match="too large"):
                GridFunction(unit(dim), depth, vals)
        # at the bound every cube sum of f, |f| and |f - avg| is finite
        rng = np.random.default_rng(n)
        for vals in (np.full(n, bound), np.where(rng.random(n) < 0.5, bound, -bound)):
            f = GridFunction(unit(dim), depth, vals)
            for pyr in (f.sum_pyramid(), f.abs_pyramid(), f.osc_pyramid()):
                assert all(np.all(np.isfinite(level)) for level in pyr)


# ------------------------------------------------------------------ cellset


def test_cellset_measure_and_ops():
    root = unit(2)
    mask = np.zeros(16, dtype=bool)
    mask[:4] = True
    s = CellSet(root, 2, mask)
    assert s.measure == 0.25
    assert s.count == 4
    assert np.array_equal(s.indices(), np.arange(4))
