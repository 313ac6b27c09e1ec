import numpy as np
import pytest

from jnlab import grid, kernels
from jnlab.grid import DyadicCube, GridFunction, RootCube


def tree_total(values):
    # independent adjacent-pair reduction in pure Python floats
    vals = [float(v) for v in values]
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
    return vals[0]


def osc_tree_totals(values, avgs):
    # sums of |v - avg| over equal consecutive runs, pure Python trees
    vals = [float(v) for v in values]
    run = len(vals) // len(avgs)
    return [tree_total([abs(v - float(a)) for v in vals[j * run:(j + 1) * run]])
            for j, a in enumerate(avgs)]


def test_pair_sums_hand():
    levels = kernels.build_pyramid(np.array([1.0, 2.0, 3.0, 4.0]), 2, 1)
    assert [level.tolist() for level in levels] == [[10.0], [3.0, 7.0], [1.0, 2.0, 3.0, 4.0]]
    out = kernels._osc_sums(np.array([1.0, 2.0, 3.0, 5.0]), [1.5, 3.0], 1)
    assert out.tolist() == [1.0, 2.0]


def test_pair_sums_match_python_tree():
    rng = np.random.default_rng(1)
    for depth in (1, 3, 6, 10):
        x = rng.uniform(-1, 1, 1 << depth)
        assert kernels.build_pyramid(x, depth, 1)[0][0] == tree_total(x)
        avg = float(rng.uniform(-1, 1))
        assert kernels._osc_sums(x, [avg], depth)[0] == osc_tree_totals(x, [avg])[0]


def test_build_pyramid_levels_are_tree_sums():
    rng = np.random.default_rng(2)
    for depth, nbits in ((4, 1), (3, 2)):
        leaves = rng.uniform(0, 1, 1 << (nbits * depth))
        levels = kernels.build_pyramid(leaves, depth, nbits)
        assert len(levels) == depth + 1
        assert np.array_equal(levels[depth], leaves)
        for k in range(depth + 1):
            width = 1 << (nbits * (depth - k))
            assert levels[k].shape == (1 << (nbits * k),)
            for j in range(1 << (nbits * k)):
                block = leaves[j * width:(j + 1) * width]
                assert levels[k][j] == tree_total(block)


# ------------------------------------------- strided pair sums vs reduction


def reshape_pair_sums(x):
    """The former pair-sum kernel: numpy's sum over each adjacent pair."""
    return np.ascontiguousarray(x).reshape(-1, 2).sum(axis=1)


def reshape_pyramid(leaves, depth, nbits):
    levels = [np.asarray(leaves, dtype=np.float64)]
    for _ in range(depth):
        x = levels[-1]
        for _ in range(nbits):
            x = reshape_pair_sums(x)
        levels.append(x)
    return tuple(reversed(levels))


def reshape_dp_sweep(terms, nbits):
    depth = len(terms) - 1
    values = [terms[depth]]
    splits = [np.zeros(terms[depth].shape[0], dtype=bool)]
    for k in range(depth - 1, -1, -1):
        child = values[-1]
        for _ in range(nbits):
            child = reshape_pair_sums(child)
        cut = child > terms[k]
        values.append(np.where(cut, child, terms[k]))
        splits.append(cut)
    return tuple(reversed(values)), tuple(reversed(splits))


def same_bits(a, b):
    """Equal dtype, shape and bit patterns (so -0.0 differs from +0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def hard_floats(n, seed):
    """Mixed magnitudes, exact and near cancellations, and signed zeros."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    k = n // 4
    x[1:k:2] = -x[0:k - 1:2]  # pairs that cancel exactly
    x[k + 1:2 * k:2] = -x[k:2 * k - 1:2] * (1.0 + 2.0**-52)  # nearly
    x[2 * k + 1:3 * k:2] = 1e-17 * x[2 * k:3 * k - 1:2]  # absorbed
    zeros = rng.random(n) < 0.2
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return x


def signed_zeros():
    z = np.array([0.0, -0.0])
    return np.array([(a, b) for a in z for b in z]).reshape(-1)


def test_pair_sums_match_reduction_bitwise():
    inputs = [hard_floats(1 << 12, s) for s in range(4)] + [signed_zeros()]
    base = hard_floats(3 << 10, 9)
    inputs += [base[::3], base[1::3][:512]]
    for x in inputs:
        depth = x.size.bit_length() - 1
        got = kernels.build_pyramid(x, depth, 1)
        assert all(same_bits(g, w) for g, w in zip(got, reshape_pyramid(x, depth, 1)))
        dev = np.abs(x - 0.5)
        for width in range(depth + 1):
            want = reshape_pyramid(dev, width, 1)[0]
            assert same_bits(kernels._osc_sums(x, np.full(x.size >> width, 0.5), width), want)
    assert kernels.build_pyramid(signed_zeros(), 3, 1)[2].tobytes() == np.zeros(4).tobytes()


def osc_sums_cases():
    """(grid, level k) for every level of 1-D and 2-D grids of hard floats,
    signed zeros and exactly cancelling values."""
    rng = np.random.default_rng(4)
    cases = []
    for dim, depth in ((1, 10), (2, 5)):
        n = 1 << (dim * depth)
        root = RootCube(dim, (0.0,) * dim, 1.0)
        for vals in (hard_floats(n, dim), np.tile(signed_zeros(), n // 8),
                     rng.uniform(-1.0, 1.0, n)):
            f = GridFunction(root, depth, vals)
            cases += [(f, k) for k in range(depth + 1)]
    return cases


def test_osc_sums_matches_python_tree_bitwise():
    for f, k in osc_sums_cases():
        width = f.dim * (f.max_depth - k)
        avgs = f.sum_pyramid()[k] * (1.0 / float(1 << width))
        got = kernels._osc_sums(f.zvalues, avgs, width)
        want = np.array(osc_tree_totals(f.zvalues, avgs))
        assert same_bits(got, want), (f.dim, k)
        assert same_bits(f.osc_pyramid()[k], want)


def test_build_pyramid_matches_reduction_bitwise():
    for nbits, depth in ((1, 10), (2, 5), (3, 3)):
        n = 1 << (nbits * depth)
        base = hard_floats(3 * n, nbits)
        cases = [base[:n], base[::3], np.tile(signed_zeros(), n // 8),
                 np.arange(n, dtype=np.int64) - n // 2]
        # views into a sum pyramid: an inner level below a depth-1 cube,
        # and the leaves below a depth-2 cube
        bits = nbits * depth
        grid = GridFunction(RootCube(1, (0.0,), 1.0), bits + 2, hard_floats(4 * n, 7))
        pyr = grid.sum_pyramid()
        for cube in (DyadicCube(grid.root, 1, (1,)), DyadicCube(grid.root, 2, (3,))):
            cases.append(grid.pyramid_slice(pyr, cube, bits))
        for leaves in cases:
            got = kernels.build_pyramid(leaves, depth, nbits)
            want = reshape_pyramid(leaves, depth, nbits)
            assert len(got) == len(want)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            assert all(level.dtype == np.float64 for level in got)


def test_dp_sweep_matches_reduction_bitwise():
    rng = np.random.default_rng(5)
    for nbits, depth in ((1, 8), (2, 4), (3, 2)):
        arity = 1 << nbits
        floats = [np.abs(hard_floats(arity**k, 10 * nbits + k)) for k in range(depth + 1)]
        floats[depth][::5] = -0.0
        ints = [rng.integers(0, 50, arity**k) for k in range(depth + 1)]
        for terms in (floats, ints):
            got_v, got_s = kernels.dp_sweep(terms, nbits)
            want_v, want_s = reshape_dp_sweep(terms, nbits)
            assert all(same_bits(g, w) for g, w in zip(got_v, want_v))
            assert all(same_bits(g, w) for g, w in zip(got_s, want_s))


def test_odd_length_pair_sums_raise():
    for n in (1, 3, 7):
        with pytest.raises(ValueError):
            kernels.build_pyramid(np.ones(n), 1, 1)
        with pytest.raises(ValueError):
            kernels._osc_sums(np.ones(n), [0.0], 1)
    with pytest.raises(ValueError):
        kernels.build_pyramid(np.ones(6), 2, 1)
    with pytest.raises(ValueError):
        kernels.dp_sweep((np.ones(1), np.ones(3)), 1)


def mask_maximal_sweep(pyramid, nbits):
    """The first maximal sweep: boolean-index assignments of each strictly
    larger average onto a repeated copy of the parent's running max."""
    arity = 1 << nbits
    depth = len(pyramid) - 1
    run = np.full(1, pyramid[0][0] / float(arity**depth))
    deepest = np.zeros(1, dtype=np.int64)  # the depth that attains the max
    for k in range(1, depth + 1):
        run = np.repeat(run, arity)
        deepest = np.repeat(deepest, arity)
        avg = pyramid[k] * (1.0 / float(arity ** (depth - k)))
        better = avg > run
        run[better] = avg[better]
        deepest[better] = k
    return run, deepest


def assert_running_max_matches_mask_oracle(f, pyr):
    """_running_max, in place in a copy of `pyr` scaled to averages,
    against the mask oracle's run; returns the oracle's deepest depths."""
    depth = len(pyr) - 1
    levels = [level * (1.0 / float(1 << (f.dim * (depth - k))))
              for k, level in enumerate(pyr)]
    got = kernels._running_max(levels, f.dim)
    want, deepest = mask_maximal_sweep(pyr, f.dim)
    assert got is levels[-1] and same_bits(got, want), f.dim
    return deepest


def test_maximal_sweep_matches_mask_oracle_bitwise():
    # signed zeros (ties of -0.0 with +0.0 in the signed sums, where the
    # parent's zero must win) and cancellations
    for f, k in osc_sums_cases():
        if k:
            continue
        for pyr in (f.sum_pyramid(), f.abs_pyramid(), f.osc_pyramid()):
            deepest = assert_running_max_matches_mask_oracle(f, pyr)
            # the sweep is not trivial: the max is attained at more than one depth
            assert len(set(deepest.tolist())) > 1 or pyr[0][0] == 0.0


def test_running_max_matches_maximal_sweep_bitwise():
    # hard floats in 1-3 D, and the |f - avg| pyramid that the dyadic
    # verifiers sweep
    for dim, depth in ((1, 9), (2, 4), (3, 3)):
        f = GridFunction(RootCube(dim, (0.0,) * dim, 1.0), depth,
                         hard_floats(1 << (dim * depth), 30 + dim))
        dev = np.abs(f.zvalues - f.sum_pyramid()[0][0] / f.n_cells)
        for pyr in (f.sum_pyramid(), f.abs_pyramid(), f.osc_pyramid(),
                    kernels.build_pyramid(dev, f.max_depth, f.dim)):
            assert_running_max_matches_mask_oracle(f, pyr)


def test_osc_pyramid_leaf_level_is_zero_bitwise():
    for f, k in osc_sums_cases():
        if k == f.max_depth:
            leaf = f.osc_pyramid()[k]
            assert same_bits(leaf, kernels._osc_sums(f.zvalues, f.zvalues, 0))
            assert same_bits(leaf, np.zeros(f.n_cells))


def assert_tiled_osc_pyramid_bitwise(shapes, min_tiles):
    """The tiled osc_pyramid against one untiled osc_sums per level, on
    grids of at least `min_tiles` tiles: hard floats, signed zeros,
    uniform and constant values."""
    for dim, depth in shapes:
        n = 1 << (dim * depth)
        assert n >= min_tiles << grid._OSC_TILE_BITS
        root = RootCube(dim, (0.0,) * dim, 1.0)
        for vals in (hard_floats(n, 20 + dim), np.tile(signed_zeros(), n // 8),
                     np.random.default_rng(dim).uniform(-1.0, 1.0, n), np.full(n, 0.1)):
            f = GridFunction(root, depth, vals)
            pyr = f.osc_pyramid()
            assert len(pyr) == depth + 1
            for k in range(depth + 1):
                width = dim * (depth - k)
                avgs = f.sum_pyramid()[k] * (1.0 / float(1 << width))
                assert same_bits(pyr[k], kernels._osc_sums(f.zvalues, avgs, width)), (dim, k)


def test_osc_pyramid_tiles_match_untiled_osc_sums_bitwise():
    # levels inside a tile and levels larger than one (one partial sum
    # per tile) on grids of several tiles
    assert_tiled_osc_pyramid_bitwise(((1, 17), (2, 9)), 4)


@pytest.mark.parametrize("tile_bits", [3, 6])
def test_osc_pyramid_small_tiles_match_untiled_osc_sums_bitwise(monkeypatch, tile_bits):
    # many tiles, so that most levels are pair sums of many partials
    monkeypatch.setattr(grid, "_OSC_TILE_BITS", tile_bits)
    assert_tiled_osc_pyramid_bitwise(((1, 10), (2, 5)), 16)
