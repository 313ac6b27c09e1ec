"""The vectorized prefix-table path and the ball-family overlap tests
against the loop oracles, bitwise."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metric_oracles as oracle
from test_acceptance import _corpus
from test_metric_cz import witness
from jnlab import kernels, metric
from jnlab.errors import MetricAxiomError
from jnlab.generators import (f_distance, f_log_distance, f_random, gen_grid2d, gen_line,
                              gen_random_cloud, gen_tree_graph)
from jnlab.metric import (_TRIANGLE_TILE, Ball, MetricMeasureSpace, _first_overlap,
                          _jn_pool, _osc_bounds, _osc_nodes, _prefix_means, _radius_at,
                          _tie_group_ends, _validate_metric,
                          bmo_norm_metric, check_admissible, doubling_constant, global_maximal,
                          hl_maximal_restricted, jnp_metric_lower, space_from_points,
                          vitali_subcover)
from jnlab.metric_cz import nested_cz

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


def adjacent_float_line():
    """Six points on a line with 1 and 1 + eps among them.  From the point
    at 0 the distances 1 and 1 + eps are adjacent floats, so their midpoint
    rounds onto 1, and the open ball of radius 1 would leave out the
    points at distance 1."""
    x = np.array([-2.0, -1.0, 0.0, 1.0, 1.0 + 2.0**-52, 2.5])
    return MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.ones(x.size))


def value_sets(space, seed):
    rng = np.random.default_rng(seed + 100)
    return [
        f_random(space, seed),
        # few distinct values make equal averages, so the tie rules decide
        rng.integers(0, 3, space.m).astype(float),
    ]


def osc_means(space, f):
    """The prefix means fl(F / W) that every oscillation entry is about,
    checked against the oracle's tables."""
    wcum, fcum, _ = oracle.ball_tables(space.orders, space.w, f)
    means = _prefix_means(space, f, slice(None))
    assert np.array_equal(space.wcum, wcum) and np.array_equal(means, fcum / wcum)
    return means


def osc_at_every_entry(space, f):
    """kernels.osc_entries asked for all m x m (center, prefix) entries."""
    m = space.m
    rows, ends = np.divmod(np.arange(m * m), m)
    avg = osc_means(space, f).reshape(-1)
    return kernels.osc_entries(space.orders, space.w, f, rows, ends, avg).reshape(m, m)


def assert_path_matches(space, f):
    g = np.abs(f)
    wc, fc, osc = oracle.ball_tables(space.orders, space.w, f)
    assert np.array_equal(space.wcum, wc)
    assert np.array_equal(_prefix_means(space, f, slice(None)), fc / wc)
    rows = np.arange(space.m)[::-2]  # an index array, as the witness tables pass
    assert np.array_equal(_prefix_means(space, f, rows), (fc / wc)[rows])
    ends, rad = _tie_group_ends(space.sorted_d), _radius_at(space.sorted_d)
    for c in range(space.m):
        assert np.array_equal(np.flatnonzero(ends[c]), oracle.group_ends(space, c))
        assert np.array_equal(rad[c][ends[c]], oracle.critical_radii(space, c))
    assert np.array_equal(osc_at_every_entry(space, f), osc)
    assert bmo_norm_metric(space, f) == oracle.bmo_norm_metric(space, f)
    assert np.array_equal(global_maximal(space, f), oracle.global_maximal(space, f))
    for b0 in base_balls(space):
        assert np.array_equal(hl_maximal_restricted(space, f, b0),
                              oracle.hl_maximal_restricted(space, f, b0), equal_nan=True)
        balls, values = witness(space, g, b0)
        want_balls, want_values = oracle.compute_witness(space, g, b0)
        assert balls == want_balls
        assert np.array_equal(values, want_values)


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


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_doubling_constant_matches_per_center_loop(rows, monkeypatch):
    # rows: centers per block of the scan (None: the package's own block).
    # The corpus, tied grids, trees and lines, weighted spaces, and one
    # and two points
    spaces = [sp for sp, _, _ in _corpus()]
    spaces += [make_space(kind, seed) for kind in ("line", "grid2d", "tree-graph",
                                                   "random-cloud", "weighted-grid")
               for seed in (0, 3, 40)]
    spaces += [gen_grid2d(17), gen_tree_graph(150, 3), gen_line(1), gen_line(2),
               space_from_points([[0.0], [3.0]], weights=[0.5, 7.0]),
               MetricMeasureSpace(gen_tree_graph(40, 1).d, np.arange(1.0, 41.0))]
    for space in spaces:
        if rows is not None:
            monkeypatch.setattr(metric, "_DOUBLING_ENTRIES", rows * space.m)
        space._cache.pop("doubling", None)  # the corpus is shared with other tests
        assert doubling_constant(space) == oracle.doubling_constant_loop(space), space.m


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
    balls, values = witness(space, np.array([3.0]), Ball(0, 0.25))
    assert balls == [Ball(0, 1.0)] and values.tolist() == [3.0]


def test_prefix_path_adjacent_floats():
    space = adjacent_float_line()
    for f in value_sets(space, 0):
        assert_path_matches(space, f)


def order_cases():
    """(name, space) for the sorted tables: a cloud, whose rows hold no tie;
    grid2d, tree-graph and line, with ties in every row (the line's two end
    rows excepted); -0.0 on the diagonal; adjacent-float distances, with
    and without a tie in the row."""
    cloud = gen_random_cloud(200, 1)
    d = np.array(cloud.d)
    d[np.arange(0, 200, 3), np.arange(0, 200, 3)] = -0.0
    line = np.array(gen_line(9).d)
    np.fill_diagonal(line, -0.0)
    x = np.array([0.0, 1.0, 1.0 + 2.0**-52, 3.75, 7.5])
    return [
        ("cloud", cloud),
        ("grid2d", gen_grid2d(9)),
        ("tree-graph", gen_tree_graph(80, 3)),
        ("line", gen_line(40)),
        ("cloud-negative-zero", MetricMeasureSpace(d, cloud.w)),
        ("line-negative-zero", MetricMeasureSpace(line, np.ones(9))),
        ("adjacent-floats", MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.ones(5))),
        ("adjacent-floats-tied", adjacent_float_line()),
    ]


@pytest.mark.parametrize("name,space", order_cases(), ids=[c[0] for c in order_cases()])
def test_orders_are_the_stable_argsort(name, space):
    want = np.argsort(space.d, axis=1, kind="stable")
    assert space.orders.dtype == np.int64 and np.array_equal(space.orders, want)
    sd = np.take_along_axis(space.d, want, axis=1)
    assert space.sorted_d.tobytes() == sd.tobytes()


def witness_cases():
    """(space, values, mask0): integer values over grid2d, where many centers
    tie on value and radius; values of +0.0 and -0.0 only; and the spaces of
    `make_space` with their value sets; each over a spanning ball, a sub-ball
    and a small ball."""
    rng = np.random.default_rng(5)
    for side in (3, 5, 8):
        space = gen_grid2d(side)
        sets = [rng.integers(0, 3, space.m).astype(float),
                rng.integers(-2, 3, space.m).astype(float),
                np.where(rng.random(space.m) < 0.5, -0.0, 0.0)]
        for f in sets:
            for b0 in base_balls(space):
                yield space, f, space.members(b0)
    for kind in ("line", "tree-graph", "random-cloud", "weighted-grid"):
        space = make_space(kind, 3)
        for f in value_sets(space, 3):
            for b0 in base_balls(space):
                yield space, f, space.members(b0)
    # w f overflows to +inf and -inf: every qualifying ball of center 0
    # holds both, so its row of means is NaN, while center 6's balls stop
    # at point 7, outside B0, and hold neither
    x = np.arange(10.0)
    space = MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.full(10, 4.0))
    f = np.zeros(10)
    f[:2] = 1e308, -1e308
    yield space, f, space.members(Ball(3, 3.5))


@pytest.mark.parametrize("rows", [None, 1, 4])
def test_witness_merge_matches_per_center_loop(rows, monkeypatch):
    # rows: centers per block of the merge (None: the package's own block)
    for space, f, mask0 in witness_cases():
        if rows is not None:
            monkeypatch.setattr(metric, "_MERGE_ENTRIES", rows * space.m)
        with np.errstate(over="ignore", invalid="ignore"):
            got = metric._witness_table(space, f, mask0)
            want = oracle.witness_arrays(space, f, mask0)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert np.array_equal(np.flatnonzero(ends[c]), oracle.group_ends(space, c))


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
def small_spaces(draw, values=st.floats(-4.0, 4.0), scales=(1.0, 1e-200, 1e200),
                 offsets=(0.0, 1e8, -1e15)):
    m = draw(st.integers(1, 9))
    # distinct integer points on a line, so many distances tie
    pts = np.array(draw(st.lists(st.integers(0, 12), min_size=m, max_size=m, unique=True)),
                   dtype=float)
    w = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=m,
                               max_size=m)))
    scale = draw(st.sampled_from(scales))
    offset = draw(st.sampled_from(offsets))
    f = np.array(draw(st.lists(values, min_size=m, max_size=m)), dtype=float)
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
    """Number of realized balls centered in b0 inside 11*b0: the search
    enumerates subsets only when its budget exceeds this."""
    return len(oracle.pool_balls(space, b0)[0])


def search_cases():
    """(space, values, b0, budgets), with n the pool size.  The best pool
    ball costs the first evaluation and the greedy family the second, and
    the subset enumeration runs only when n is below the budget.  So
    budget 1 stops after the best ball, 2 after the greedy, n is the
    largest budget with no enumeration, n + 1 stops after n - 1
    enumerated families, and 4 n deeper in the enumeration.  On the small
    spaces every budget up to one past the completing count is run."""
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
        budgets = (1, 2, n, n + 1) + (() if half and n > 200 else (4 * n,))
        for f in value_sets(space, seed):
            yield space, f, b0, budgets
    for space, stride in ((gen_line(8), 1), (gen_tree_graph(9, 1), 25),
                          (adjacent_float_line(), 1)):
        b0 = sub_ball(space)
        full = jnp_metric_lower(space, f_random(space, 4), b0, 2.0, budget=10**6)
        assert full.evaluations < 10**6  # the enumeration completes
        for f in value_sets(space, 4):
            yield space, f, b0, range(1, full.evaluations + 2, stride)


def test_search_pool_beyond_budget_matches_oracle_in_small_memory():
    # a spanning B0 puts all m^2 = 6400 balls in the pool, so the search
    # ends after its seed; nothing pool x m may be built then
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
    assert got.value == want.value and got.evaluations == want.evaluations == 2
    assert got.family == want.family
    assert peak < 1.5e6


def pool_term_gaps(space, f, b0, p):
    """The search pool against the per-center loop of masked terms: the
    balls bitwise, and per ball the ratio of the term gap to its bound.

    Both routes sum the n <= m points of a ball B, in different orders, so
    each of the weight W, the mean a and the oscillation sum S carries an
    error of at most n eps times the sum of its terms' magnitudes: W by
    n eps W, a by n eps g with g = max_B |f|, and S by n eps S + W |da|
    <= n eps W (M + g), with M = max_B |f - a| >= S / W.  The term
    T = W (S / W)^p then moves by at most p (S / W)^(p-1) times the change
    in S plus (p - 1) (S / W)^p times the change in W, each route by at most
    2 p n eps W (M + n eps g)^(p-1) (M + g).  The bound is four times that,
    8 p n eps mu(B) (M + n eps g)^(p-1) (M + g): it scales with
    mu(B) max_B |f - f_B|^p, not with the term, since S can cancel to
    nearly 0; the n eps g inside covers a ball of equal values whose
    computed mean is off by a rounding."""
    centers, radii, terms = _jn_pool(space, f, b0, p)
    want_c, want_r, want_t = oracle.search_pool(space, f, b0, p)
    assert centers.tobytes() == want_c.tobytes() and radii.tobytes() == want_r.tobytes()
    eps = np.finfo(float).eps
    gaps = []
    for c, r, t, u in zip(centers, radii, terms, want_t):
        mem = space.d[c] < r
        n = int(np.count_nonzero(mem))
        g = float(np.max(np.abs(f[mem])))
        dev = float(np.max(np.abs(f[mem] - oracle.average_mask(space, f, mem))))
        bound = 8 * p * n * eps * space.measure_mask(mem) * (dev + n * eps * g) ** (p - 1) \
            * (dev + g)
        gaps.append(abs(t - u) / bound if t != u else 0.0)
    return np.array(gaps)


def reach_cases():
    """Small B0s whose 11*B0 leaves points out, so that the pool drops the
    realized balls that reach past it: 3 of 40 points on a line, a corner
    of a 10 x 10 grid, and one point whose next distances are adjacent
    floats."""
    for seed, (space, b0) in enumerate(((gen_line(40), Ball(10, 1.5)),
                                        (gen_grid2d(10), Ball(0, 1.5)),
                                        (adjacent_float_line(), Ball(2, 1e-20)))):
        cent = np.flatnonzero(space.members(b0))
        realized = sum(oracle.critical_radii(space, c).size for c in cent)
        assert pool_size(space, b0) < realized
        for f in value_sets(space, seed):
            yield space, f, b0, ()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_search_pool_matches_per_center_loop(p):
    for space, f, b0, _ in itertools.chain(search_cases(), reach_cases()):
        gaps = pool_term_gaps(space, f, b0, p)
        assert np.all(gaps <= 1.0), float(gaps.max())


def test_every_radius_realizes_its_prefix():
    spaces = [make_space(kind, seed) for seed in range(3)
              for kind in ("line", "grid2d", "tree-graph", "random-cloud", "weighted-grid")]
    for space in spaces + [adjacent_float_line()]:
        rad = _radius_at(space.sorted_d)
        for c, k in zip(*np.nonzero(_tie_group_ends(space.sorted_d))):
            assert np.count_nonzero(space.d[c] < rad[c, k]) == k + 1


def test_search_pool_keeps_adjacent_float_balls_whole():
    # B0 and 11*B0 hold only the point at 0; the ball holding its two
    # neighbours at distance 1 has radius 1 + eps, past the reach 1
    space = adjacent_float_line()
    f, b0 = np.array([0.0, 3.0, 0.0, 3.0, 1.0, 2.0]), Ball(2, 1e-20)
    centers, radii, terms = _jn_pool(space, f, b0, 2.0)
    assert centers.tolist() == [2] and radii.tolist() == [0.5] and terms.tolist() == [0.0]
    got = jnp_metric_lower(space, f, b0, 2.0)
    assert got.value == 0.0 and got.family.balls == ()


def test_search_is_at_least_its_best_ball_and_grows_with_budget():
    # the first `budget` singletons used to miss the best ball: cloud-300
    # returned 52.914 at budget 4000 against a best term of 53.198
    cloud = gen_random_cloud(300, 1)
    spanning = Ball(0, 1.5 * float(cloud.d[0].max()) + 1.0)
    cases = [(cloud, f_log_distance(cloud, 0), spanning, (1, 2, 4000))]
    for space, f, b0, budgets in itertools.chain(cases, search_cases()):
        top = _jn_pool(space, f, b0, 2.0)[2].max()
        values = []
        for budget in budgets:
            got = jnp_metric_lower(space, f, b0, 2.0, budget=budget)
            assert got.value >= top and got.evaluations <= budget
            assert got.family.admissible
            values.append(got.value)
        assert values == sorted(values)


def test_search_is_at_least_the_staged_search():
    # the seeded search against the four-stage one it replaced, at equal
    # budget: the acceptance corpus and every search case
    cases = [(sp, f, b0, (400, 4000)) for sp, f, b0 in _corpus()]
    for space, f, b0, budgets in itertools.chain(cases, search_cases()):
        for budget in budgets:
            got = jnp_metric_lower(space, f, b0, 2.0, budget=budget)
            old = oracle.jnp_metric_lower_staged(space, f, b0, 2.0, budget=budget)
            assert got.value >= old.value * (1.0 - 1e-12)


def random_families(space, rng, n_fam=20):
    """Ball lists over centers and realized radii of the space, some with
    overlapping members or fifths, a few empty or single."""
    for _ in range(n_fam):
        k = int(rng.integers(0, 9))
        centers = rng.integers(0, space.m, size=k)
        yield [Ball(int(c), float(rng.choice(oracle.critical_radii(space, int(c)))))
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
    flags = set()  # the admissibility flags seen failing
    for kind in ("line", "grid2d", "tree-graph", "random-cloud", "weighted-grid"):
        for seed in range(4):
            space = make_space(kind, seed)
            b0 = sub_ball(space)
            # an empty family, a ball centred off B0, and about a B0 whose
            # 11-dilate misses the farthest point, a ball that escapes it
            far = float(space.d[b0.center].max())
            off = int(np.flatnonzero(~space.members(b0))[0])
            special = [(b0, []), (b0, [Ball(b0.center, b0.radius), Ball(off, b0.radius)]),
                       (Ball(b0.center, far / 12.0),
                        [Ball(b0.center, far / 24.0), Ball(b0.center, 1.5 * far + 1.0)])]
            for base, balls in [(b0, fam) for fam in random_families(space, rng)] + special:
                for factor in (1.0, 0.2, 5.0):
                    masks = [space.members(b.dilate(factor)) for b in balls]
                    assert _first_overlap(masks) == oracle.first_overlap(masks)
                family = check_admissible(space, base, balls)
                assert family == oracle.check_admissible(space, base, balls)
                assert vitali_subcover(space, balls) == oracle.vitali_subcover(space, balls)
                flags.update(k for k in ("centered", "contained", "fifth_disjoint")
                             if not getattr(family, k))

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
            mask0 = space.members(b0)
            lam = oracle.integral_mask(space, g, mask0) / space.measure_mask(mask0)
            nest = nested_cz(space, g, b0, (1.05 * lam, 1.6 * lam, 2.4 * lam))
            for k in range(1, 3):
                lo, hi = nest.covers[k - 1], nest.covers[k]
                assert nest.containment[k] == oracle.containment(space, lo.balls, hi.balls)
                parents += nest.containment[k]
    assert max(parents) > 0
    assert flags == {"centered", "contained", "fifth_disjoint"}


# ------------------------------------------------------- CZ covers


def cover_cases():
    """(space, g, b0, threshold): g = |f - f_B0|, and the threshold, the
    lowest level a cover takes, is the integral of g over 11*B0 divided by
    mu(B0).  The acceptance corpus, then random clouds, lines and trees
    about a spanning and a half B0."""
    cases = list(_corpus())
    for seed in range(4):
        for space in (gen_random_cloud(24 + 6 * seed, seed + 11), gen_line(20 + 5 * seed),
                      gen_tree_graph(20 + 6 * seed, seed)):
            cases += [(space, f, b0) for b0 in base_balls(space)[:2]
                      for f in value_sets(space, seed)]
    for space, f, b0 in cases:
        g = np.abs(f - oracle.average_mask(space, f, space.members(b0)))
        big = space.members(b0.dilate(11.0))
        yield space, g, b0, oracle.integral_mask(space, g, big) / oracle.measure(space, b0)


def assert_same_cover(got, want):
    """Two CzBallCovers equal field by field, arrays bitwise."""
    for name in ("averages", "averages5", "level_mask", "residual_mask", "union5_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("lam", "b0", "balls", "measures", "exponents", "point_exponents", "truncated"):
        assert getattr(got, name) == getattr(want, name), name


def test_nested_covers_match_per_level_oracle():
    # 1 to 4 levels, one repeated; each level's cover against the oracle's
    # cover built alone, and the containment map against the pair loop
    factors = (1.05, 1.6, 2.4, 4.0)
    n_balls = 0
    for space, g, b0, thr in cover_cases():
        want = {x: oracle.cz_cover(space, g, b0, thr * x) for x in factors}
        for levels in ((1.05,), (1.05, 2.4), (1.05, 1.6, 2.4), (1.05, 1.05, 2.4, 4.0)):
            nest = nested_cz(space, g, b0, tuple(thr * x for x in levels))
            for got, x in zip(nest.covers, levels):
                assert_same_cover(got, want[x])
            pairs = zip(levels, levels[1:])
            assert nest.containment == ((),) + tuple(
                oracle.containment(space, want[lo].balls, want[hi].balls) for lo, hi in pairs)
        n_balls += sum(len(cover.balls) for cover in want.values())
    assert n_balls > 500


# ------------------------------------------------ JN_p value against U


def density_bound_ratio(space, f, b0, p, budget=4000):
    """Assert the search's value <= U <= c^3 mu(11 B0) ||f||_BMO^p at
    relative tolerance 1e-12; returns value / U (0 where U is 0)."""
    value = jnp_metric_lower(space, f, b0, p, budget=budget).value
    upper = oracle.density_bound(space, f, b0, p)
    closed = (doubling_constant(space) ** 3 * oracle.measure(space, b0.dilate(11.0))
              * bmo_norm_metric(space, f) ** p)
    assert value <= upper * (1.0 + 1e-12)
    assert upper <= closed * (1.0 + 1e-12)
    return value / upper if upper else 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_search_value_below_density_bound(p):
    cases = [(sp, f, b0, (400,)) for sp, f, b0 in _corpus()]
    ratios = [density_bound_ratio(space, f, b0, p, budget=max(budgets))
              for space, f, b0, budgets in itertools.chain(cases, search_cases())]
    assert max(ratios) > 0.9  # nearly attained, so the first bound could fail


# multiples of 1/8 sum exactly, so a computed oscillation is never all
# rounding, and the package's and the masked terms agree to 1e-14
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_spaces(st.integers(-32, 32).map(lambda k: k / 8.0), (1.0,), (0.0,)), st.data())
def test_search_value_below_density_bound_on_small_spaces(case, data):
    space, f = case
    c = data.draw(st.integers(0, space.m - 1))
    b0 = Ball(c, data.draw(st.sampled_from(oracle.critical_radii(space, c).tolist())))
    density_bound_ratio(space, f, b0, data.draw(st.sampled_from([1.5, 2.0, 3.0])))


# ------------------------------------------------------- triangle check


def triangle_verdict(check, d):
    """None when `check` accepts d, else the MetricAxiomError it raised."""
    try:
        check(d)
    except MetricAxiomError as exc:
        return exc
    return None


def assert_same_triangle_verdict(d):
    """The blocked check and the per-k loop agree; a rejection names the
    whole matrix's worst violation and a triple that really violates the
    inequality beyond the tolerance.  Returns the blocked check's error, or
    None when both accept."""
    got = triangle_verdict(lambda x: _validate_metric(x, np.ones(x.shape[0])), d)
    want = triangle_verdict(oracle.triangle_check, d)
    assert (got is None) == (want is None)
    if got is None:
        return None
    assert str(got).startswith("triangle inequality fails")
    i, j, k, dij, via = got.witness
    assert (i, j) == oracle.worst_triangle_violation(d)
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


@pytest.mark.parametrize("frac", [0.25, 0.5])
def test_triangle_check_matches_per_k_loop_near_symmetric(frac):
    # d_ij raised by frac * tol on one side only: symmetric within the
    # tolerance but not bitwise, so the check reads every column
    rng = np.random.default_rng(int(4 * frac))
    rejected = 0
    for _ in range(600):
        m = int(rng.integers(2, 71))
        d = lattice_metric(rng, m, int(rng.choice([1, 2])))
        d *= 2.0 ** int(rng.integers(-8, 9))
        eps = rng.choice([0.0, 1e-13, 1e-12, 2e-12, 1e-9, 0.1])
        i, j = rng.choice(m, size=2, replace=False)
        step = eps * float(d.max()) * rng.choice([-1.0, 1.0])
        if d[i, j] + step > 0:
            d[i, j] = d[j, i] = d[i, j] + step
        i, j = rng.choice(m, size=2, replace=False)
        d[i, j] += frac * 1e-12 * max(1.0, float(d.max()))
        assert d[i, j] != d[j, i]
        rejected += assert_same_triangle_verdict(d) is not None
    assert 100 < rejected < 500


@pytest.mark.parametrize("m", [200, 1030])
def test_triangle_violation_in_last_partial_tile(m):
    # the worst violation at (lo, m - 1) and its mirror, with lo the first
    # row of the last row block: at m = 1030 that block has 6 of its 8 rows.
    # Bitwise symmetric, the block reads columns lo..m-1 only; symmetric
    # within the tolerance, it reads every column, and column m - 1 lies
    # in the last block of 8 (m = 200) or 6 (m = 1030) of 16 columns.  A
    # smaller violation at (0, 1) sits in the first block
    rows, cols = _TRIANGLE_TILE
    lo = (m - 1) // rows * rows
    assert 0 < m % cols < cols and 0 < m - lo < cols
    rng = np.random.default_rng(m)
    d = lattice_metric(rng, m, 2)
    top = float(d.max())
    d[0, 1] = d[1, 0] = 1.5 * top  # violated by at most 1.5 * top
    d[lo, m - 1] = d[m - 1, lo] = 4.0 * top  # by at least 2 * top
    assert assert_same_triangle_verdict(d).witness[:2] == (lo, m - 1)
    d[2, 3] += 0.5e-12 * float(d.max())
    assert assert_same_triangle_verdict(d).witness[:2] == (lo, m - 1)
