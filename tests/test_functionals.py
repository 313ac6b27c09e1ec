import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracles import _partition_count, jnp_bruteforce, jnp_full_dp
from jnlab import functionals, kernels
from jnlab.errors import PreconditionError
from jnlab.functionals import bmo_dyadic, distribution, jnp_dyadic, notlp_terms, weak_lp
from jnlab.generators import (gen_constant, gen_power_singularity, gen_random_martingale,
                              gen_random_uniform, gen_step)
from jnlab.grid import (DyadicCube, GridFunction, RootCube, average, cube_from_zindex,
                        mean_oscillation)
from test_kernels import osc_sums_cases


def unit(dim):
    return RootCube(dim, (0.0,) * dim, 1.0)


def rand_f(dim, depth, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(unit(dim), depth, rng.uniform(-1, 1, 1 << (dim * depth)))


def all_cubes(f, q0):
    out = []
    stack = [q0]
    while stack:
        c = stack.pop()
        out.append(c)
        if c.depth < f.max_depth:
            stack.extend(c.children())
    return out


def tree_total(values):
    vals = [float(v) for v in values]
    while len(vals) > 1:
        vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
    return vals[0]


def tree_mean_oscillation(f, cube):
    """Mean oscillation of f over a cube from pure-Python pair-sum trees."""
    block = f.zslice(cube)
    avg = tree_total(block) / len(block)
    return tree_total([abs(float(v) - avg) for v in block]) / len(block)


def test_partition_counts():
    # number of partitions of a depth-d binary/quad tree into subtree roots
    assert [_partition_count(2, d) for d in range(4)] == [1, 2, 5, 26]
    assert [_partition_count(4, d) for d in range(3)] == [1, 2, 17]
    assert _partition_count(4, 3) == 83522


def test_jnp_hand_value_step():
    f = GridFunction(unit(1), 1, np.array([0.0, 1.0]))
    r = jnp_dyadic(f, f.root.top(), 2.0)
    assert r.value == 0.25
    assert r.norm == 0.5
    assert r.witness == (f.root.top(),)


def test_jnp_hand_value_five_partitions():
    # partitions of ((0,1),(1,1)): the root alone wins with (3/8)^2 = 9/64
    f = GridFunction(unit(1), 2, np.array([0.0, 1.0, 1.0, 1.0]))
    r = jnp_dyadic(f, f.root.top(), 2.0)
    assert r.value == 9.0 / 64.0
    assert r.witness == (f.root.top(),)
    b = jnp_bruteforce(f, f.root.top(), 2.0, 2)
    assert b.value == r.value and b.witness == r.witness


def test_jnp_dp_equals_bruteforce_1d():
    for seed in range(40):
        f = rand_f(1, 3, seed)
        q0 = f.root.top()
        for p in (1.5, 2.0, 3.0):
            a = jnp_dyadic(f, q0, p)
            b = jnp_bruteforce(f, q0, p, 3)
            assert a.value == b.value
            assert a.witness == b.witness


def test_jnp_dp_equals_bruteforce_2d():
    for seed in range(15):
        f = rand_f(2, 2, seed + 100)
        q0 = f.root.top()
        a = jnp_dyadic(f, q0, 2.0)
        b = jnp_bruteforce(f, q0, 2.0, 2)
        assert a.value == b.value
        assert a.witness == b.witness


def test_jnp_on_subcube():
    f = rand_f(1, 4, 3)
    q0 = DyadicCube(f.root, 1, (1,))
    a = jnp_dyadic(f, q0, 2.0)
    b = jnp_bruteforce(f, q0, 2.0, 3)
    assert a.value == b.value
    for c in a.witness:
        assert q0.contains(c)


def test_jnp_and_bmo_on_2d_subcube():
    # a depth-2 sub-cube of a 2-D depth-5 grid: its pyramid is a run of
    # slices that start in the middle of each level
    f = rand_f(2, 5, 41)
    q0 = DyadicCube(f.root, 2, (1, 2))
    a = jnp_dyadic(f, q0, 2.0)
    b = jnp_bruteforce(f, q0, 2.0, 3)
    assert a.value > 0
    assert a.value == b.value
    assert a.witness == b.witness
    assert all(q0.contains(c) for c in a.witness)
    direct = max(tree_mean_oscillation(f, c) for c in all_cubes(f, q0))
    assert bmo_dyadic(f, q0) == direct


def test_jnp_witness_is_disjoint_partition_of_support():
    f = rand_f(2, 2, 9)
    q0 = f.root.top()
    r = jnp_dyadic(f, q0, 2.0)
    cells = set()
    for c in r.witness:
        width = 2 * (f.max_depth - c.depth)
        z0 = c.zindex() << width
        block = set(range(z0, z0 + (1 << width)))
        assert not cells & block
        cells |= block


def test_jnp_monotone_in_depth():
    f = rand_f(1, 4, 21)
    q0 = f.root.top()
    vals = [jnp_bruteforce(f, q0, 2.0, d).value for d in (0, 1, 2)]
    assert vals[0] <= vals[1] <= vals[2] <= jnp_dyadic(f, q0, 2.0).value


def test_jnp_dp_from_one_level_up_matches_full_term_pyramid_bitwise():
    # the DP skips the all-zero finest level; its value and witness are
    # those of the DP over every level, on Q0s of every local depth
    for f, k in osc_sums_cases():
        q0 = cube_from_zindex(f.root, k, (1 << (f.dim * k)) - 1)
        for p in (1.5, 2.0, 3.0):
            value, witness = jnp_full_dp(f, q0, p)
            if not np.isfinite(value):
                with pytest.raises(PreconditionError, match="not finite"):
                    jnp_dyadic(f, q0, p)
                continue
            got = jnp_dyadic(f, q0, p)
            assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
            assert got.witness == witness
            if k == f.max_depth:  # a finest cell
                assert got.value == 0.0 and got.witness == (q0,)


# ------------------------------------------- JN_p against osc and BMO
#
# With S_p = (JN_p(f, Q0) / |Q0|)^(1/p):
#   lower:    |Q| osc_Q(f)^p <= JN_p(f, Q0) for every dyadic Q in Q0,
#             since {Q} is a family;
#   upper:    S_p <= ||f||_BMO(Q0), since a family's cubes are disjoint;
#   monotone: S_p is non-decreasing in p, a sup of L^p means over
#             sub-probability weights |Q_i| / |Q0|.
# Equality holds on some inputs, so each side is compared at a relative
# tolerance of 1e-12.

RTOL = 1e-12
PS = (1.5, 2.0, 3.0, 6.0)


def ratio(lhs, rhs):
    """lhs / rhs, with 0 / 0 = 0 and lhs / 0 = inf for lhs > 0."""
    return lhs / rhs if rhs else (np.inf if lhs else 0.0)


def jn_bound_ratios(f, q0):
    """The largest lower, upper and monotone ratio lhs / rhs over PS;
    each is at most 1 + RTOL where the inequality holds."""
    pyr = f.osc_pyramid()
    bmo = bmo_dyadic(f, q0)
    lower = upper = monotone = prev = 0.0
    for p in PS:
        jn = jnp_dyadic(f, q0, p).value
        top = 0.0
        for rel in range(f.max_depth - q0.depth + 1):
            k = q0.depth + rel
            cnt = float(1 << (f.dim * (f.max_depth - k)))
            mu = f.root.measure / float(1 << (f.dim * k))
            top = max(top, float((mu * (f.pyramid_slice(pyr, q0, rel) / cnt) ** p).max()))
        s_p = (jn / q0.measure) ** (1.0 / p)
        lower = max(lower, ratio(top, jn))
        upper = max(upper, ratio(s_p, bmo))
        monotone = max(monotone, ratio(prev, s_p))
        prev = s_p
    return lower, upper, monotone


def test_jn_bounds_on_criterion_3_grids():
    # the grids of acceptance criterion 3; the lower side is tight where
    # a single cube is the best family, so that check can fail
    ratios = []
    for dim, depth, n in ((1, 3, 150), (2, 2, 45), (2, 3, 5)):
        for seed in range(n):
            f = gen_random_uniform(dim, depth, 30000 + 1000 * dim + seed)
            ratios.append(jn_bound_ratios(f, f.root.top()))
    ratios = np.array(ratios)
    assert np.all(ratios <= 1.0 + RTOL), ratios.max(axis=0)
    assert ratios[:, 0].max() >= 1.0 - RTOL


@st.composite
def small_grid_cubes(draw):
    """A 1-D grid of depth <= 6 or a 2-D one of depth <= 3, with values
    that are 0 or of magnitude in [1e-6, 1e6] (so no term underflows),
    and one of its cubes."""
    dim = draw(st.sampled_from((1, 2)))
    depth = draw(st.integers(0, 6 if dim == 1 else 3))
    n = 1 << (dim * depth)
    value = st.one_of(st.integers(-4, 4).map(float),
                      st.floats(1e-6, 1e6).flatmap(lambda x: st.sampled_from((x, -x))))
    f = GridFunction(unit(dim), depth, draw(st.lists(value, min_size=n, max_size=n)))
    k = draw(st.integers(0, depth))
    return f, cube_from_zindex(f.root, k, draw(st.integers(0, (1 << (dim * k)) - 1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_grid_cubes())
def test_jn_bounds_on_small_grids(case):
    f, q0 = case
    assert all(r <= 1.0 + RTOL for r in jn_bound_ratios(f, q0))


def test_jnp_bruteforce_cap():
    f = rand_f(2, 3, 1)
    with pytest.raises(ValueError):
        jnp_bruteforce(f, f.root.top(), 2.0, 3, _cap=1000)


def test_p_validation():
    f = rand_f(1, 2, 0)
    for bad in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError):
            jnp_dyadic(f, f.root.top(), bad)


def test_bmo_is_max_oscillation():
    f = rand_f(2, 3, 33)
    q0 = f.root.top()
    direct = max(mean_oscillation(f, c) for c in all_cubes(f, q0))
    assert bmo_dyadic(f, q0) == direct


def test_bmo_constant_is_zero():
    f = GridFunction(unit(1), 4, np.full(16, 3.25))
    assert bmo_dyadic(f, f.root.top()) == 0.0
    assert jnp_dyadic(f, f.root.top(), 2.0).value == 0.0


def test_distribution_hand_value():
    f = GridFunction(unit(1), 2, np.array([5.0, 0.0, 0.0, 0.0]))
    q0 = f.root.top()
    # f - avg = (3.75, -1.25, -1.25, -1.25)
    assert distribution(f, q0, 1.0) == 1.0
    assert distribution(f, q0, 1.3) == 0.25
    assert distribution(f, q0, 4.0) == 0.0


def test_distribution_heap_per_cell():
    # one working copy of Q0's cells (8 B) and the count's mask (1 B); the
    # sum pyramid that the average reads is built before tracing
    f = gen_random_martingale(1, 16, 1)
    q0 = f.root.top()
    f.sum_pyramid()
    tracemalloc.start()
    try:
        distribution(f, q0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / f.n_cells <= 9.5


def test_distribution_monotone():
    f = rand_f(1, 6, 4)
    q0 = f.root.top()
    lams = np.linspace(0.01, 2.0, 25)
    vals = [distribution(f, q0, l) for l in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_weak_lp_hand_value():
    # |f| = indicator of [0, 1/4): sup over lambda < 1 of lambda * (1/4)^(1/2)
    f = GridFunction(unit(1), 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert weak_lp(f, f.root.top(), 2.0, centered=False) == 0.5


def test_weak_lp_dominates_distribution():
    f = rand_f(1, 6, 8)
    q0 = f.root.top()
    w = weak_lp(f, q0, 2.0)
    for lam in np.linspace(0.05, 1.5, 20):
        assert lam * distribution(f, q0, lam) ** 0.5 <= w + 1e-12


def weak_lp_unique(f, q0, p, centered=True):
    """The former weak_lp body: distinct values from np.unique, counts
    from searchsorted on the sort."""
    block = f.zslice(q0)
    if centered:
        block = block - average(f, q0)
    a = np.sort(np.abs(block))
    vals = np.unique(a)
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    n_ge = a.size - np.searchsorted(a, vals, side="left")
    meas = f.root.measure * (n_ge / float(f.n_cells))
    return float(np.max(vals * meas ** (1.0 / p)))


def weak_lp_sort_copies(f, q0, p, centered=True):
    """The weak_lp body before it worked in place: a new array per step."""
    block = f.zslice(q0)
    if centered:
        block = block - average(f, q0)
    a = np.sort(np.abs(block))
    a = a[np.searchsorted(a, 0.0, side="right"):]
    if a.size == 0:
        return 0.0
    starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    vals = a[starts]
    meas = f.root.measure * ((a.size - starts) / float(f.n_cells))
    return float(np.max(vals * meas ** (1.0 / p)))


def test_weak_lp_matches_unique_oracle():
    rng = np.random.default_rng(4)
    grids = [rand_f(1, 10, 3), rand_f(2, 5, 4),
             GridFunction(RootCube(1, (0.0,), 3.0), 10,
                          np.round(rng.standard_normal(1 << 10), 1)),
             GridFunction(unit(2), 4, rng.integers(-2, 3, 256).astype(float)),
             GridFunction(unit(1), 6, np.zeros(64))]
    for f in grids:
        for q0 in (f.root.top(), DyadicCube(f.root, 1, (1,) * f.dim)):
            for p in (1.5, 2.0, 3.0):
                for centered in (True, False):
                    got = weak_lp(f, q0, p, centered=centered)
                    assert got == weak_lp_unique(f, q0, p, centered=centered)
                    # the in-place body against a new array per step, bitwise
                    want = weak_lp_sort_copies(f, q0, p, centered=centered)
                    assert type(got) is type(want)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def weak_lp_sorted_runs(f, q0, p, centered=True):
    """The weak_lp body before it streamed: the max over the distinct
    values only, from `kernels._sorted_runs`."""
    block = f.zslice(q0)
    a = block - average(f, q0) if centered else block.copy()
    np.abs(a, out=a)
    a.sort()
    a = a[np.searchsorted(a, 0.0, side="right"):]
    if a.size == 0:
        return 0.0
    vals, n_ge = kernels._sorted_runs(a)
    meas = n_ge[:-1] / float(f.n_cells)
    meas *= f.root.measure
    meas **= 1.0 / p
    return float(np.multiply(vals, meas, out=meas).max())


@pytest.mark.parametrize("block", [3, 64, functionals._WEAK_BLOCK])
def test_weak_lp_streamed_max_matches_sorted_runs_bitwise(monkeypatch, block):
    # grids with long runs of tied values, so most sorted positions score
    # below their run's first one; small blocks split the runs
    monkeypatch.setattr(functionals, "_WEAK_BLOCK", block)
    rng = np.random.default_rng(20)
    grids = [gen_step(1, 10), gen_step(2, 5), gen_constant(1, 8, 2.5),
             GridFunction(unit(1), 10, rng.integers(-3, 4, 1 << 10).astype(float)),
             GridFunction(unit(2), 5, rng.integers(0, 3, 1 << 10).astype(float)),
             gen_power_singularity(2.0, 12), rand_f(1, 10, 21)]
    for f in grids:
        for q0 in (f.root.top(), DyadicCube(f.root, 1, (1,) * f.dim)):
            for p in (1.5, 2.0, 3.0):
                for centered in (True, False):
                    got = weak_lp(f, q0, p, centered=centered)
                    want = weak_lp_sorted_runs(f, q0, p, centered=centered)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_notlp_terms_flat_and_positive():
    terms = notlp_terms(2.0, 8, 14)
    assert terms.shape == (8,)
    assert np.all(terms > 0)
    # scale-invariance of the construction keeps early terms nearly equal
    assert np.max(np.abs(terms[:7] - terms[0])) <= 0.15 * terms[0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_notlp_terms_match_mean_oscillation_bitwise(p):
    # Q_1 .. Q_4 at depth 18 span 2^17 .. 2^14 cells: the tiled pyramid sums
    # the first two from per-tile partials and the last two inside a tile
    depth, n = 18, 4
    root = RootCube(1, (0.0,), 2.0)
    f = GridFunction.from_callable(root, depth, lambda pts: pts[:, 0] ** (-1.0 / p))
    want = [q.measure * mean_oscillation(f, q) ** p
            for q in (DyadicCube(root, j + 1, (1,)) for j in range(n))]
    assert notlp_terms(p, n, depth).tobytes() == np.array(want).tobytes()


def test_notlp_depth_requirement():
    with pytest.raises(ValueError):
        notlp_terms(2.0, 10, 11)
