"""The vectorized prefix-table path against the loop oracles, bitwise."""

import numpy as np
import pytest

import metric_oracles as oracle
from jnlab import kernels
from jnlab.generators import f_random, gen_grid2d, gen_line, gen_random_cloud, gen_tree_graph
from jnlab.metric import (Ball, bmo_norm_metric, global_maximal, hl_maximal_restricted,
                          space_from_points)
from jnlab.metric_cz import compute_witness

SEEDS = range(10)


def make_space(kind, seed):
    if kind == "line":
        return gen_line(12 + seed)
    if kind == "grid2d":
        return gen_grid2d(3 + seed % 4)
    if kind == "tree-graph":
        return gen_tree_graph(15 + 2 * seed, seed)
    if kind == "random-cloud":
        return gen_random_cloud(20 + 2 * seed, seed)
    if kind == "weighted-grid":
        # integer coordinates tie many distances; weights are not all 1
        side = 3 + seed % 3
        pts = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
        w = np.random.default_rng(seed).choice([0.5, 1.0, 3.0], size=pts.shape[0])
        return space_from_points(pts, weights=w)
    raise ValueError(kind)


def base_balls(space):
    """A spanning ball, a sub-ball holding about half the points, and a
    small ball, all about the most central point."""
    c = int(np.argmin(space.d.max(axis=1)))
    sd = space.sorted_d[c]
    return [
        Ball(c, 1.5 * float(sd[-1]) + 1.0),
        Ball(c, 0.5 * float(sd[space.m // 2] + sd[space.m // 2 - 1]) + 1e-9),
        Ball(c, float(sd[min(2, space.m - 1)]) + 1e-9),
    ]


def value_sets(space, seed):
    rng = np.random.default_rng(seed + 100)
    return [
        f_random(space, seed),
        # few distinct values make equal averages, so the tie rules decide
        rng.integers(0, 3, space.m).astype(float),
    ]


def assert_path_matches(space, f):
    g = np.abs(f)
    wc, fc, osc = oracle.ball_tables(space.orders, space.w, f)
    got_wc, got_fc = kernels.ball_tables(space.orders, space.w, f)
    assert np.array_equal(got_wc, wc) and np.array_equal(got_wc, space.wcum)
    assert np.array_equal(got_fc, fc)
    for c in range(space.m):
        assert np.array_equal(space.critical_radii(c), oracle.critical_radii(space, c))
    assert np.array_equal(kernels.osc_table(space.orders, space.w, f), osc)
    assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f)
    assert np.array_equal(global_maximal(space, f), oracle.global_maximal(space, f))
    for b0 in base_balls(space):
        assert np.array_equal(hl_maximal_restricted(space, f, b0),
                              oracle.hl_maximal_restricted(space, f, b0), equal_nan=True)
        table = compute_witness(space, g, b0)
        balls, values = oracle.compute_witness(space, g, b0)
        assert table.balls == balls
        assert np.array_equal(table.values, values)


@pytest.mark.parametrize("kind", ["line", "grid2d", "tree-graph", "random-cloud",
                                  "weighted-grid"])
def test_prefix_path_matches_loop_oracles(kind):
    for seed in SEEDS:
        space = make_space(kind, seed)
        for f in value_sets(space, seed):
            assert_path_matches(space, f)


def test_prefix_path_single_point():
    space = space_from_points(np.array([[0.5, 0.5]]), weights=np.array([2.0]))
    assert_path_matches(space, np.array([-3.0]))
    table = compute_witness(space, np.array([3.0]), Ball(0, 0.25))
    assert table.balls == [Ball(0, 1.0)] and table.values.tolist() == [3.0]
