import numpy as np
import pytest

import grid_oracles as oracle
from jnlab.generators import (f_distance, f_log_distance, f_random, gen_constant,
                              gen_grid2d, gen_line, gen_log_singularity,
                              gen_power_singularity, gen_random_cloud,
                              gen_random_martingale, gen_random_uniform, gen_step,
                              gen_tree_graph)
from jnlab.grid import DyadicCube, average


def test_constant():
    f = gen_constant(2, 2, 3.5)
    assert f.values.shape == (16,)
    assert np.all(f.values == 3.5)


def test_step_halves():
    f = gen_step(1, 3)
    assert f.values.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    g = gen_step(2, 1)
    # first coordinate splits rows in lexicographic cell order
    assert g.values.tolist() == [0, 0, 1, 1]


def test_power_singularity_profile():
    f = gen_power_singularity(2.0, 10)
    assert f.root.side == 2.0
    assert np.all(np.isfinite(f.values))
    assert np.all(np.diff(f.values) < 0)
    # midpoint of the first cell is 2^-10, so the top value is 2^5
    assert f.values[0] == 32.0


def test_log_singularity_profile():
    f = gen_log_singularity(8)
    assert np.all(np.isfinite(f.values))
    assert np.all(np.diff(f.values) > 0)
    assert f.values[0] == np.log(2.0 ** -9)


def test_random_uniform_seeded():
    a = gen_random_uniform(2, 3, 11)
    b = gen_random_uniform(2, 3, 11)
    c = gen_random_uniform(2, 3, 12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_martingale_cube_averages_reproduce_coarse_run():
    # same seed, deeper refinement: averages at the shallow scale agree
    coarse = gen_random_martingale(1, 3, 21)
    fine = gen_random_martingale(1, 5, 21)
    for i in range(8):
        c = DyadicCube(fine.root, 3, (i,))
        assert np.isclose(average(fine, c), coarse.values[i], rtol=1e-12)


def test_martingale_root_average_zero():
    f = gen_random_martingale(2, 4, 3)
    assert abs(average(f, f.root.top())) < 1e-12


@pytest.mark.parametrize("dim,depths", [(1, (0, 1, 2, 7, 20)), (2, (1, 3, 10)), (3, (1, 2, 5))])
def test_martingale_matches_former_generator_bitwise(dim, depths):
    # steps in place in the draws and the Morton field handed to the
    # grid, against np.repeat of the parents and means and a gather
    for depth in depths:
        for seed in (1, 2718):
            f = gen_random_martingale(dim, depth, seed)
            want = oracle.random_martingale_values(dim, depth, seed)
            assert f.values.tobytes() == want.tobytes(), (depth, seed)
            # the grid's Morton copy is the scatter of its values
            zv = np.empty_like(want)
            zv[oracle.lex_to_z_perm(dim, depth)] = want
            assert f.zvalues.tobytes() == zv.tobytes()
            assert not f.values.flags.writeable and not f.zvalues.flags.writeable


def test_line_space():
    s = gen_line(5)
    assert s.m == 5
    assert s.d[0, 4] == 4.0
    assert np.all(s.w == 1.0)


def test_grid2d_manhattan():
    s = gen_grid2d(3)
    assert s.m == 9
    # points in row-major (i, j) order: d((0,0),(2,1)) = 3
    assert s.d[0, 7] == 3.0


def test_tree_graph_hops():
    s = gen_tree_graph(12, 5)
    assert s.d[0, 0] == 0.0
    assert np.all(s.d[s.d > 0] >= 1.0)
    assert np.all(s.d == np.round(s.d))
    assert s.d[1, 0] == 1.0  # node 1 always hangs off the root


def test_cloud_seeded():
    a = gen_random_cloud(10, 7)
    b = gen_random_cloud(10, 7)
    assert np.array_equal(a.d, b.d)


def test_log_distance_uses_min_positive_gap():
    s = gen_line(6)
    f = f_log_distance(s, 0)
    assert f[0] == np.log(1.0)
    assert f[3] == np.log(1.0 + 3.0)
    assert np.all(np.isfinite(f))


def test_distance_and_random_values():
    s = gen_line(6)
    assert f_distance(s, 2)[5] == 3.0
    a = f_random(s, 9)
    b = f_random(s, 9)
    assert np.array_equal(a, b)
    assert a.shape == (6,)


@pytest.mark.parametrize("fn", [f_distance, f_log_distance])
@pytest.mark.parametrize("anchor", [-1, 6])
def test_anchor_out_of_range_rejected(fn, anchor):
    with pytest.raises(ValueError, match="anchor"):
        fn(gen_line(6), anchor)
