"""The vectorized prefix-table path and the ball-family overlap tests
against the loop oracles, bitwise."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metric_oracles as oracle
from jnlab import kernels
from jnlab.errors import MetricAxiomError
from jnlab.generators import (f_distance, f_log_distance, f_random, gen_grid2d, gen_line,
                              gen_random_cloud, gen_tree_graph)
from jnlab.metric import (Ball, MetricMeasureSpace, _first_overlap, _osc_bounds, _osc_nodes,
                          _validate_metric, bmo_norm_metric, check_admissible,
                          doubling_constant, global_maximal, hl_maximal_restricted,
                          jnp_metric_lower, space_from_points, vitali_subcover)
from jnlab.metric_cz import compute_witness, nested_cz

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


def osc_means(space, f):
    """The prefix means fl(F / W) that every oscillation entry is about."""
    wcum, fcum = kernels.ball_tables(space.orders, space.w, f)
    return fcum / wcum


def osc_at_every_entry(space, f):
    """kernels.osc_entries asked for all m x m (center, prefix) entries."""
    m = space.m
    rows, ends = np.divmod(np.arange(m * m), m)
    avg = osc_means(space, f).reshape(-1)
    return kernels.osc_entries(space.orders, space.w, f, rows, ends, avg).reshape(m, m)


def assert_path_matches(space, f):
    g = np.abs(f)
    wc, fc, osc = oracle.ball_tables(space.orders, space.w, f)
    got_wc, got_fc = kernels.ball_tables(space.orders, space.w, f)
    assert np.array_equal(got_wc, wc) and np.array_equal(got_wc, space.wcum)
    assert np.array_equal(got_fc, fc)
    for c in range(space.m):
        assert np.array_equal(space.critical_radii(c), oracle.critical_radii(space, c))
    assert np.array_equal(osc_at_every_entry(space, f), osc)
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


@pytest.mark.parametrize("kind", ["line", "grid2d", "tree-graph", "random-cloud",
                                  "weighted-grid"])
def test_doubling_constant_matches_radius_scan(kind):
    for seed in SEEDS:
        space = make_space(kind, seed)
        assert doubling_constant(space) == oracle.doubling_constant(space)
    for space in (make_space(kind, 40), make_space(kind, 61)):
        assert doubling_constant(space) == oracle.doubling_constant(space)


@pytest.mark.parametrize("m", [1, 2, 3, 10, 57, 150, 600])
def test_tree_graph_matches_lca_loop(m):
    for seed in (0, 1, 7):
        d = gen_tree_graph(m, seed).d
        want = oracle.tree_graph_distances(m, seed)
        assert d.dtype == want.dtype and d.tobytes() == want.tobytes()


def test_prefix_path_single_point():
    space = space_from_points(np.array([[0.5, 0.5]]), weights=np.array([2.0]))
    assert_path_matches(space, np.array([-3.0]))
    assert doubling_constant(space) == oracle.doubling_constant(space) == 1.0
    table = compute_witness(space, np.array([3.0]), Ball(0, 0.25))
    assert table.balls == [Ball(0, 1.0)] and table.values.tolist() == [3.0]


def bmo_cases():
    """(name, space, values) on which rounding, ties and pruning differ."""
    rng = np.random.default_rng(5)
    cloud = gen_random_cloud(120, 3)
    u = rng.uniform(0.0, 1.0, cloud.m)
    weighted = MetricMeasureSpace(cloud.d, rng.choice([0.25, 1.0, 3.0, 7.5], cloud.m))
    grid = gen_grid2d(7)
    return [
        ("linear f_distance", cloud, f_distance(cloud)),
        ("integer values with ties", grid, rng.integers(0, 4, grid.m).astype(float)),
        ("offset 1e8 + 1e-8 U", cloud, 1e8 + 1e-8 * u),
        ("offset 1e15 + U", cloud, 1e15 + u),
        ("scale 1e-300", cloud, 1e-300 * u),
        ("scale 1e300", cloud, 1e300 * (u - 0.5)),
        ("non-unit weights", weighted, f_log_distance(weighted, 7)),
        ("non-unit weights, offset", weighted, 1e8 + 1e-8 * u),
        # equal weight at +-1 in every even ball: mean oscillation = sigma = 1
        ("two values", gen_line(20), np.resize([1.0, -1.0], 20)),
        ("m = 1", space_from_points([[0.5]], weights=[3.0]), np.array([0.1])),
        ("m = 2", space_from_points([0.0, 2.0], weights=[1.0, 3.0]), np.array([0.1, -0.7])),
    ]


@pytest.mark.parametrize("name,space,f", bmo_cases(), ids=[c[0] for c in bmo_cases()])
def test_bmo_norm_is_the_oracle_bitwise(name, space, f):
    assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f)


@pytest.mark.parametrize("name,space,f", bmo_cases(), ids=[c[0] for c in bmo_cases()])
def test_osc_bounds_cover_every_computed_entry(name, space, f):
    wcum, _, osc = oracle.ball_tables(space.orders, space.w, f)
    ub = np.empty((space.m, space.m))
    t = _osc_nodes(f)
    a = _osc_bounds(space, 0, space.m, f, t, ub, np.empty(space.m**2 * t.size))
    assert np.array_equal(a, osc_means(space, f))
    ends = np.isfinite(ub)
    assert np.array_equal(ends, ub > -np.inf)
    assert np.all(ub[ends] >= osc[ends] / wcum[ends])
    for c in range(space.m):
        assert np.array_equal(np.flatnonzero(ends[c]), space.group_ends(c))


@pytest.mark.parametrize("seed", range(4))
def test_bmo_norm_sums_few_balls_exactly(seed, monkeypatch):
    """The bounds prune all but a few percent of the balls, for evenly
    spread values as for a log singularity, so the cost of the norm
    hardly depends on the values."""
    summed = []

    def counting(orders, w, f, rows, ends, avg):
        summed.append(len(ends))
        return osc_entries(orders, w, f, rows, ends, avg)

    osc_entries = kernels.osc_entries
    monkeypatch.setattr(kernels, "osc_entries", counting)
    space = gen_random_cloud(120, seed)
    for f in (f_distance(space), f_distance(space, 60), f_log_distance(space, 5)):
        summed.clear()
        assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f)
        assert summed[0] == space.m  # one seed ball per center
        assert sum(summed[1:]) <= space.m**2 // 20


def test_bmo_norm_of_a_constant_is_zero():
    space = gen_random_cloud(40, 1)
    f = np.full(space.m, 2.5)
    assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f) == 0.0


@st.composite
def small_spaces(draw):
    m = draw(st.integers(1, 9))
    # distinct integer points on a line, so many distances tie
    pts = np.array(draw(st.lists(st.integers(0, 12), min_size=m, max_size=m, unique=True)),
                   dtype=float)
    w = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=m,
                               max_size=m)))
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200]))
    offset = draw(st.sampled_from([0.0, 1e8, -1e15]))
    f = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m)))
    return space_from_points(pts, weights=w), offset + scale * f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_spaces())
def test_bmo_norm_matches_oracle_on_small_spaces(case):
    space, f = case
    assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f)


# ------------------------------------------------------- ball families


def sub_ball(space):
    """The sub-ball about the most central point holding about half the
    points (the benchmark's search ball)."""
    c = int(np.argmin(space.d.max(axis=1)))
    ds = np.sort(space.d[c])
    k = space.m // 2
    return Ball(c, 0.5 * (float(ds[k - 1]) + float(ds[k])))


def pool_size(space, b0):
    """Number of realized balls centered in b0 inside 11*b0: the search's
    singleton phase uses exactly this many evaluations."""
    big = space.members(b0.dilate(11.0))
    return sum(1 for c in np.flatnonzero(space.members(b0))
               for r in space.critical_radii(c)
               if not np.any(space.members(Ball(int(c), float(r))) & ~big))


def search_cases():
    """(space, values, b0, budgets), with n the pool size.  The search
    spends n evaluations on singletons and at most 12 on Vitali seeds; the
    ascent runs when a pool family leads after them, as it does when 11*B0
    leaves points out (the 4-point B0), and the subset enumeration follows.
    So n + 3 stops among the Vitali seeds, n + 12 + n // 2 in the first
    ascent round or else in the enumeration, and 4 n in the enumeration.
    On the small spaces every budget up to the completing count is run."""
    grid = gen_grid2d(8)
    c = int(np.argmin(grid.d.max(axis=1)))
    yield grid, f_log_distance(grid, int(np.argmax(grid.d[c]))), sub_ball(grid), (2000,)
    cases = [(gen_random_cloud(m, seed), seed, False) for seed, m in enumerate((40, 60, 80))]
    cases += [(gen_random_cloud(40, 3), 3, True), (gen_tree_graph(30, 3), 3, True),
              (make_space("weighted-grid", 2), 2, True)]
    for space, seed, half in cases:
        c = int(np.argmin(space.d.max(axis=1)))
        b0 = sub_ball(space) if half else Ball(c, float(np.sort(space.d[c])[3]) + 1e-9)
        n = pool_size(space, b0)
        budgets = (n + 3, n + 12 + n // 2) + (() if half and n > 200 else (4 * n,))
        for f in value_sets(space, seed):
            yield space, f, b0, budgets
    for space, stride in ((gen_line(8), 1), (gen_tree_graph(9, 1), 25)):
        b0 = sub_ball(space)
        full = jnp_metric_lower(space, f_random(space, 4), b0, 2.0, budget=10**6)
        assert full.evaluations < 10**6  # the enumeration completes
        for f in value_sets(space, 4):
            yield space, f, b0, range(1, full.evaluations + 2, stride)


def test_search_pool_beyond_budget_matches_oracle_in_small_memory():
    # a spanning B0 puts all m^2 = 6400 balls in the pool, so the budget
    # ends among the singletons; nothing pool x m may be built then
    space = gen_random_cloud(80, 5)
    c = int(np.argmin(space.d.max(axis=1)))
    b0 = Ball(c, 1.5 * float(space.d[c].max()) + 1.0)
    f = f_random(space, 5)
    assert pool_size(space, b0) == space.m ** 2
    want = oracle.jnp_metric_lower(space, f, b0, 2.0, budget=2000)
    tracemalloc.start()
    try:
        got = jnp_metric_lower(space, f, b0, 2.0, budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.value == want.value and got.evaluations == want.evaluations == 2000
    assert got.family == want.family
    assert peak < 1.5e6


def random_families(space, rng, n_fam=20):
    """Ball lists over centers and realized radii of the space, some with
    overlapping members or fifths, a few empty or single."""
    for _ in range(n_fam):
        k = int(rng.integers(0, 9))
        centers = rng.integers(0, space.m, size=k)
        yield [Ball(int(c), float(rng.choice(space.critical_radii(int(c)))))
               for c in centers]


def test_ball_family_overlap_tests_match_loop_oracles():
    for space, f, b0, budgets in search_cases():
        for budget in budgets:
            got = jnp_metric_lower(space, f, b0, 2.0, budget=budget)
            want = oracle.jnp_metric_lower(space, f, b0, 2.0, budget=budget)
            assert got.value == want.value and got.evaluations == want.evaluations
            assert got.family.balls == want.family.balls
            assert got.family.witness == want.family.witness
            assert got.family == want.family

    rng = np.random.default_rng(0)
    for kind in ("line", "grid2d", "tree-graph", "random-cloud", "weighted-grid"):
        for seed in range(4):
            space = make_space(kind, seed)
            b0 = sub_ball(space)
            for balls in random_families(space, rng):
                for factor in (1.0, 0.2, 5.0):
                    masks = [space.members(b.dilate(factor)) for b in balls]
                    assert _first_overlap(masks) == oracle.first_overlap(masks)
                assert check_admissible(space, b0, balls) == \
                    oracle.check_admissible(space, b0, balls)
                assert vitali_subcover(space, balls) == oracle.vitali_subcover(space, balls)

    # spikes far apart on a spanning B0 give several balls per level, some
    # inside more than one coarser 5-dilate, so the first container counts
    parents = []
    for space in (gen_line(80), gen_grid2d(10)):
        c = int(np.argmin(space.d.max(axis=1)))
        b0 = Ball(c, 1.5 * float(space.d[c].max()) + 1.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            g = np.full(space.m, 0.1)
            g[rng.choice(space.m, size=6, replace=False)] = rng.uniform(5, 50, 6)
            lam = space.integral_mask(g, space.members(b0)) / space.measure_mask(space.members(b0))
            nest = nested_cz(space, g, b0, (1.05 * lam, 1.6 * lam, 2.4 * lam))
            for k in range(1, 3):
                lo, hi = nest.covers[k - 1], nest.covers[k]
                assert nest.containment[k] == oracle.containment(space, lo.balls, hi.balls)
                parents += nest.containment[k]
    assert max(parents) > 0


# ------------------------------------------------------- triangle check


def triangle_verdict(check, d):
    """None when `check` accepts d, else the MetricAxiomError it raised."""
    try:
        check(d)
    except MetricAxiomError as exc:
        return exc
    return None


def assert_same_triangle_verdict(d):
    """The tiled check and the per-k loop agree; a rejection names a triple
    that really violates the inequality beyond the tolerance.  Returns
    the tiled check's error, or None when both accept."""
    got = triangle_verdict(lambda x: _validate_metric(x, np.ones(x.shape[0])), d)
    want = triangle_verdict(oracle.triangle_check, d)
    assert (got is None) == (want is None)
    if got is None:
        return None
    assert str(got).startswith("triangle inequality fails")
    i, j, k, dij, via = got.witness
    assert dij == d[i, j] and via == d[i, k] + d[k, j]
    assert dij - via > 1e-12 * max(1.0, float(d.max()))
    return got


def lattice_metric(rng, m, ord):
    """Distances between m distinct lattice points in Euclidean (ord 2) or
    L1 (ord 1) norm: few distinct values, and L1 makes many triples exact
    equalities d_ij = d_ik + d_kj."""
    dim = int(rng.integers(1, 4))
    side = int(np.ceil(m ** (1.0 / dim))) + int(rng.integers(0, 3))
    idx = rng.choice(side**dim, size=m, replace=False)
    pts = np.stack(np.unravel_index(idx, (side,) * dim), axis=1).astype(float)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], ord=ord, axis=2)


def test_triangle_check_matches_per_k_loop():
    rng = np.random.default_rng(2024)
    rejected = 0
    for _ in range(3000):
        m = int(rng.integers(2, 71))
        d = lattice_metric(rng, m, int(rng.choice([1, 2])))
        # power-of-two scales keep L1 equalities exact; others round them
        if rng.random() < 0.5:
            d *= 2.0 ** int(rng.integers(-8, 9))
        else:
            d *= 10 ** rng.uniform(-4, 4)
        eps = rng.choice([0.0, 1e-13, 1e-12, 2e-12, 1e-9, 0.1, 1.0])
        i, j = rng.choice(m, size=2, replace=False)
        step = eps * float(d.max()) * rng.choice([-1.0, 1.0])
        if d[i, j] + step > 0:
            d[i, j] = d[j, i] = d[i, j] + step
        rejected += assert_same_triangle_verdict(d) is not None
    assert 500 < rejected < 2500


@pytest.mark.parametrize("m", [200, 1030])
def test_triangle_violation_in_last_partial_tile(m):
    # the check tiles rows by max(16, 2**14 // m): 81 + 81 + 38 rows at
    # m = 200, and 64 tiles of 16 then 6 rows at m = 1030
    rows = max(16, 2**14 // m)
    last = m - m % rows
    assert 0 < m - last < rows
    rng = np.random.default_rng(m)
    d = lattice_metric(rng, m, 2)
    i, j = last + 1, m - 1
    d[i, j] = d[j, i] = 2.5 * float(d.max())  # only rows i and j see it
    assert assert_same_triangle_verdict(d).witness[0] in (i, j)
