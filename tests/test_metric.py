import itertools
import os
import tempfile

import numpy as np
import pytest

from jnlab.errors import InvariantViolation, MetricAxiomError
from jnlab.metric import (Ball, MetricMeasureSpace, bmo_norm_metric, build_space,
                          check_admissible, doubling_constant, global_maximal,
                          hl_maximal_restricted, jnp_metric_lower, space_from_csv,
                          space_from_points, space_to_csv, values_from_csv,
                          values_to_csv, vitali_subcover)


def cloud(m, seed, dim=2):
    rng = np.random.default_rng(seed)
    return space_from_points(rng.uniform(0, 1, (m, dim)))


def spanning_ball(space, center=0):
    return Ball(center, 1.5 * float(space.d[center].max()) + 1.0)


# ------------------------------------------------------------------- axioms


def test_axioms_accept_euclidean_cloud():
    s = cloud(20, 0)
    assert s.m == 20
    assert s.total_measure == 20.0


def test_axioms_reject_asymmetry():
    d = np.array([[0.0, 1.0], [1.5, 0.0]])
    with pytest.raises(MetricAxiomError):
        build_space(dmat=d)


def test_axioms_reject_triangle_violation():
    d = np.array([[0.0, 1.0, 3.0],
                  [1.0, 0.0, 1.0],
                  [3.0, 1.0, 0.0]])
    with pytest.raises(MetricAxiomError):
        build_space(dmat=d)


def test_axioms_reject_bad_weights():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(MetricAxiomError):
        build_space(dmat=d, weights=np.array([1.0, 0.0]))


def test_axioms_reject_total_weight_overflow():
    # each weight is finite, but their sum is inf; the check itself must
    # not raise numpy's overflow RuntimeWarning
    with pytest.raises(MetricAxiomError, match="total weight is not finite"):
        MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [1e308, 1e308])
    assert MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [8e307, 8e307]).total_measure == 1.6e308


def test_axioms_reject_empty_space(tmp_path):
    with pytest.raises(MetricAxiomError, match="at least one point"):
        MetricMeasureSpace(np.zeros((0, 0)), [])
    path = tmp_path / "s.csv"
    path.write_text("m,0\n")
    with pytest.raises(MetricAxiomError, match="at least one point"):
        space_from_csv(path)


def test_axioms_reject_zero_offdiagonal():
    d = np.zeros((2, 2))
    with pytest.raises(MetricAxiomError):
        build_space(dmat=d)


def test_space_does_not_alias_caller_arrays():
    d = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])
    w = np.array([1.0, 2.0, 3.0])
    dv, wv = d[:], w[:]  # views taken before the space validates
    s = build_space(dmat=d, weights=w)
    lo = s.sorted_d.copy()
    dv[0, 2] = dv[2, 0] = 5.0  # would break the triangle inequality
    wv[1] = -1.0
    assert d.flags.writeable and w.flags.writeable
    assert s.d[0, 2] == 2.0 and s.w.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(s.sorted_d, lo)
    assert np.array_equal(s.sorted_d, np.sort(s.d, axis=1))


def test_sorted_tables_share_the_grid_memo():
    from jnlab.grid import GridFunction
    assert MetricMeasureSpace._memo is GridFunction._memo
    s = space_from_points(np.array([0.0, 1.0, 3.0, 7.0]))
    for name in ("orders", "sorted_d", "wcum"):
        assert isinstance(vars(MetricMeasureSpace)[name], property)
        table = getattr(s, name)
        assert table is getattr(s, name) and not table.flags.writeable
    first = doubling_constant(s)
    assert s._cache["doubling"] == first == doubling_constant(s)


def test_members_are_strict():
    s = space_from_points(np.array([0.0, 1.0, 2.0]))
    assert s.members(Ball(0, 1.0)).tolist() == [True, False, False]
    assert s.members(Ball(0, 1.000001)).tolist() == [True, True, False]


# ----------------------------------------------------------------- doubling


def test_doubling_ten_points_counting_measure():
    s = space_from_points(np.arange(10, dtype=np.float64))
    assert doubling_constant(s) == 3.0


def test_doubling_bounds_every_real_radius():
    for seed in (1, 2, 3):
        s = cloud(25, seed)
        c_mu = doubling_constant(s)
        rng = np.random.default_rng(seed + 100)
        for _ in range(300):
            center = int(rng.integers(0, s.m))
            r = float(rng.uniform(1e-6, 1.6 * s.d[center].max() + 0.5))
            num = s.measure(Ball(center, 2 * r))
            den = s.measure(Ball(center, r))
            assert num <= c_mu * den * (1 + 1e-12)


def test_doubling_attained():
    # the constant is a realized ratio, not just an upper bound
    s = space_from_points(np.arange(10, dtype=np.float64))
    best = 0.0
    for center in range(s.m):
        for r in s.critical_radii(center):
            for rr in (r, r / 2.0):
                den = s.measure(Ball(center, rr))
                if den > 0:
                    best = max(best, s.measure(Ball(center, 2 * rr)) / den)
    assert best == doubling_constant(s)


# ------------------------------------------------------------------- vitali


def test_vitali_postconditions_random():
    for seed in range(8):
        s = cloud(30, seed + 10)
        rng = np.random.default_rng(seed)
        balls = [Ball(int(rng.integers(0, s.m)),
                      float(rng.uniform(0.05, 0.8)))
                 for _ in range(12)]
        kept = vitali_subcover(s, balls)
        # disjoint member sets
        masks = [s.members(balls[i]) for i in kept]
        for a, b in itertools.combinations(masks, 2):
            assert not np.any(a & b)
        # 5-dilates of kept balls swallow every input ball
        for b in balls:
            mem = s.members(b)
            assert any(not np.any(mem & ~s.members(balls[i].dilate(5.0)))
                       for i in kept)


def test_vitali_keeps_largest_first():
    s = space_from_points(np.arange(6, dtype=np.float64))
    balls = [Ball(2, 0.5), Ball(3, 2.5)]
    kept = vitali_subcover(s, balls)
    assert kept[0] == 1


# ------------------------------------------------------------ maximal / bmo


def brute_restricted_maximal(space, f, b0):
    inside = space.members(b0)
    g = np.abs(np.asarray(f, dtype=np.float64))
    out = np.full(space.m, np.nan)
    for x in range(space.m):
        if not inside[x]:
            continue
        best = -np.inf
        for c in range(space.m):
            for r in space.critical_radii(c):
                mem = space.members(Ball(c, r))
                if not mem[x] or np.any(mem & ~inside):
                    continue
                best = max(best, float(np.sum(space.w[mem] * g[mem])
                                       / np.sum(space.w[mem])))
        out[x] = best
    return out


def test_maximal_hand_three_points():
    s = space_from_points(np.array([0.0, 1.0, 2.0]))
    f = np.array([0.0, 1.0, 0.0])
    mf = global_maximal(s, f)
    assert mf.tolist() == [0.5, 1.0, 0.5]


def test_restricted_maximal_matches_bruteforce():
    for seed in range(5):
        s = cloud(18, seed + 30)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(s.m)
        b0 = Ball(int(rng.integers(0, s.m)),
                  float(rng.uniform(0.4, 0.9)) * float(s.d[0].max()))
        if not np.any(s.members(b0)):
            continue
        got = hl_maximal_restricted(s, f, b0)
        want = brute_restricted_maximal(s, f, b0)
        inside = s.members(b0)
        assert np.allclose(got[inside], want[inside], rtol=1e-12, atol=0)
        assert np.all(np.isnan(got[~inside]))


def test_global_maximal_dominates_f():
    s = cloud(25, 77)
    f = np.random.default_rng(5).standard_normal(s.m)
    mf = global_maximal(s, f)
    assert np.all(mf >= np.abs(f) - 1e-12)


def test_bmo_hand_two_points():
    s = space_from_points(np.array([0.0, 1.0]))
    assert bmo_norm_metric(s, np.array([0.0, 1.0])) == 0.5


def test_bmo_matches_bruteforce():
    for seed in range(5):
        s = cloud(16, seed + 60)
        f = np.random.default_rng(seed).uniform(-2, 2, s.m)
        best = 0.0
        for c in range(s.m):
            for r in s.critical_radii(c):
                mem = s.members(Ball(c, r))
                ww = s.w[mem]
                avg = float(np.sum(ww * f[mem]) / np.sum(ww))
                best = max(best, float(np.sum(ww * np.abs(f[mem] - avg))
                                       / np.sum(ww)))
        assert np.isclose(bmo_norm_metric(s, f), best, rtol=1e-12, atol=0)


def test_bmo_constant_is_zero():
    s = cloud(12, 4)
    assert bmo_norm_metric(s, np.full(s.m, 2.5)) == 0.0


# ------------------------------------------------------------- JN_p search


def candidate_pool(space, b0):
    inside = space.members(b0)
    big = space.members(b0.dilate(11.0))
    pool = []
    for c in range(space.m):
        if not inside[c]:
            continue
        for r in space.critical_radii(c):
            ball = Ball(c, float(r))
            if np.any(space.members(ball) & ~big):
                continue
            pool.append(ball)
    return pool


def exhaustive_jnp(space, f, b0, p):
    """Supremum over every admissible subset of the search's candidate pool
    (deduplicated by member/5th-member signatures)."""
    pool = candidate_pool(space, b0)
    seen = {}
    for ball in pool:
        key = (tuple(space.members(ball).tolist()),
               tuple(space.members(ball.dilate(0.2)).tolist()))
        seen.setdefault(key, ball)
    balls = list(seen.values())
    fifth = [space.members(b.dilate(0.2)) for b in balls]
    terms = [space.measure(b) * space.osc_mask(f, space.members(b)) ** p
             for b in balls]
    best = 0.0
    for k in range(1, len(balls) + 1):
        for combo in itertools.combinations(range(len(balls)), k):
            ok = True
            for a, b in itertools.combinations(combo, 2):
                if np.any(fifth[a] & fifth[b]):
                    ok = False
                    break
            if ok:
                best = max(best, float(sum(terms[i] for i in combo)))
    return best


def test_jnp_search_tiny_exhaustive():
    for seed in range(4):
        s = cloud(4, seed + 200, dim=1)
        f = np.random.default_rng(seed).uniform(0, 3, s.m)
        b0 = spanning_ball(s)
        got = jnp_metric_lower(s, f, b0, 2.0, budget=3000)
        want = exhaustive_jnp(s, f, b0, 2.0)
        assert got.value <= want * (1 + 1e-9)
        assert np.isclose(got.value, want, rtol=1e-9)


def test_jnp_search_budget_monotone():
    s = cloud(24, 300)
    f = np.random.default_rng(7).uniform(-1, 4, s.m)
    b0 = spanning_ball(s)
    vals = [jnp_metric_lower(s, f, b0, 2.0, budget=b).value
            for b in (50, 200, 1000, 4000)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("budget", [0, -1])
def test_jnp_search_rejects_budget_below_one(budget):
    s = cloud(6, 1)
    with pytest.raises(ValueError, match="budget"):
        jnp_metric_lower(s, np.arange(6.0), spanning_ball(s), 2.0, budget=budget)


def test_jnp_search_family_admissible():
    s = cloud(20, 41)
    f = np.random.default_rng(8).uniform(0, 2, s.m)
    b0 = Ball(3, 0.4 * float(s.d[3].max()))
    res = jnp_metric_lower(s, f, b0, 2.0, budget=1500)
    fam = check_admissible(s, b0, res.family.balls)
    assert fam.admissible or len(res.family.balls) == 0
    assert res.norm == res.value ** 0.5


def test_check_admissible_flags():
    s = space_from_points(np.arange(8, dtype=np.float64))
    b0 = Ball(3, 20.0)
    good = check_admissible(s, b0, [Ball(1, 0.6), Ball(5, 0.6)])
    assert good.admissible and good.centered and good.contained
    bad = check_admissible(s, b0, [Ball(1, 5.1), Ball(2, 5.1)])
    assert not bad.fifth_disjoint
    outside = check_admissible(s, Ball(3, 0.5), [Ball(6, 0.4)])
    assert not outside.centered


# ---------------------------------------------------------------------- io


def test_space_csv_round_trip():
    s = cloud(9, 9)
    with tempfile.TemporaryDirectory() as td:
        p1 = os.path.join(td, "s.csv")
        p2 = os.path.join(td, "s2.csv")
        space_to_csv(s, p1)
        t = space_from_csv(p1)
        assert np.array_equal(s.d, t.d)
        assert np.array_equal(s.w, t.w)
        space_to_csv(t, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_values_csv_round_trip():
    f = np.random.default_rng(3).standard_normal(7)
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "v.csv")
        values_to_csv(f, p)
        g = values_from_csv(p)
        assert np.array_equal(f, g)


def test_values_csv_rejects_missing_index():
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "v.csv")
        with open(p, "w") as fh:
            fh.write("m,3\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError):
            values_from_csv(p)


@pytest.mark.parametrize("rows", ["0,1.0\n5,2.0\n2,3.0\n", "0,1.0\n1,2.0\n-1,3.0\n"])
def test_values_csv_rejects_index_out_of_range(rows):
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "v.csv")
        with open(p, "w") as fh:
            fh.write("m,3\n" + rows)
        with pytest.raises(ValueError, match="out of range"):
            values_from_csv(p)


def test_values_csv_rejects_duplicate_index():
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "v.csv")
        with open(p, "w") as fh:
            fh.write("m,3\n0,1.0\n1,2.0\n1,3.0\n2,4.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            values_from_csv(p)


def test_values_csv_validates_rows_before_allocating():
    # a header m of 10**15 would need 8 PB if the array came first
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "v.csv")
        with open(p, "w") as fh:
            fh.write("m,1000000000000000\n0,1.0\n")
        with pytest.raises(ValueError, match="missing value for point 1"):
            values_from_csv(p)
