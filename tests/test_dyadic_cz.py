import math
import tracemalloc

import numpy as np
import pytest

import grid_oracles as oracle
from jnlab import dyadic_cz, grid
from jnlab.dyadic_cz import (check_good_lambda_dyadic, cz_decompose_dyadic,
                             dyadic_maximal, level_set, verify_jn_dyadic)
from jnlab.dyadic_cz import _level_measure, _shifted_levels
from jnlab.errors import PreconditionError
from jnlab.functionals import bmo_dyadic, jnp_dyadic
from jnlab.generators import (gen_constant, gen_log_singularity, gen_power_singularity,
                              gen_random_martingale, gen_random_uniform)
from jnlab.grid import (DyadicCube, GridFunction, RootCube, average, cube_from_zindex,
                        mean_oscillation)
from jnlab.report import all_pass, reports_to_json


def unit(dim):
    return RootCube(dim, (0.0,) * dim, 1.0)


def rand_f(dim, depth, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(unit(dim), depth, rng.uniform(lo, hi, 1 << (dim * depth)))


def brute_maximal(f, q0):
    """Max of |f|-averages over all dyadic ancestors, per finest cell of q0
    in local lexicographic order."""
    from jnlab.grid import _lex_to_z_perm
    g = f.with_values(np.abs(f.values))
    local_depth = f.max_depth - q0.depth
    n_local = 1 << (f.dim * local_depth)
    perm = _lex_to_z_perm(f.dim, local_depth)
    z0 = q0.zindex() << (f.dim * local_depth)
    vals = np.empty(n_local)
    for lex in range(n_local):
        z = z0 + int(perm[lex])
        vals[lex] = max(average(g, cube_from_zindex(f.root, depth,
                                                    z >> (f.dim * (f.max_depth - depth))))
                        for depth in range(q0.depth, f.max_depth + 1))
    return vals


def test_one_dimensional_shared_buffers_are_read_only():
    # Morton order is cell order in 1-D: one buffer serves both, so no
    # holder of either may write it
    f = gen_random_martingale(1, 8, 3)
    assert f.zvalues is f.values
    g = GridFunction(f.root, 8, f.values)
    assert g.zvalues is g.values and not np.shares_memory(g.values, f.values)
    field = dyadic_maximal(f, f.root.top())
    assert field.values is field._zvalues
    for a in (f.values, g.values, field.values):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("dim,depth", [(1, 16), (2, 8)])
def test_verify_jn_dyadic_heap_per_cell(dim, depth):
    # a fresh grid: its pyramids, its Morton copy and the permutation (2-D)
    # are all built inside the call, so the traced peak is its whole heap;
    # one copy of the cells plus the pyramids it reads is about 35 B per cell
    values = gen_random_martingale(dim, depth, 1).values
    f = GridFunction(unit(dim), depth, values)
    grid._lex_to_z_perm.cache_clear()
    tracemalloc.start()
    try:
        verify_jn_dyadic(f, f.root.top(), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / f.n_cells <= 45.0


def test_maximal_matches_bruteforce_exact():
    for dim in (1, 2):
        for depth in (1, 2, 3):
            for seed in range(6):
                f = rand_f(dim, depth, seed * 7 + depth)
                field = dyadic_maximal(f, f.root.top())
                assert np.array_equal(field.values, brute_maximal(f, f.root.top()))


def test_maximal_on_subcube():
    f = rand_f(1, 4, 5)
    q0 = DyadicCube(f.root, 1, (1,))
    field = dyadic_maximal(f, q0)
    assert np.array_equal(field.values, brute_maximal(f, q0))


def test_maximal_and_cz_on_2d_subcube():
    # a depth-2 sub-cube of a 2-D depth-5 grid, away from the first block
    f = rand_f(2, 5, 29, lo=-1.0, hi=2.0)
    q0 = DyadicCube(f.root, 2, (1, 2))
    field = dyadic_maximal(f, q0)
    assert np.array_equal(field.values, brute_maximal(f, q0))

    g = f.with_values(np.abs(f.values))
    lam = average(g, q0) * 1.3
    cover = cz_decompose_dyadic(f, q0, lam)
    assert cover.cubes
    union_cells = 0
    for c, a in zip(cover.cubes, cover.averages):
        assert q0.contains(c) and c != q0
        assert a == average(g, c)
        assert lam < a <= 4 * lam
        union_cells += 1 << (2 * (f.max_depth - c.depth))
    e = level_set(field, lam)
    assert e.count == union_cells
    q0_cells = 1 << (2 * (f.max_depth - q0.depth))
    assert cover.residual.count == q0_cells - union_cells
    # residual and level set are disjoint cells of q0, and |f| <= lam there
    assert not np.any(cover.residual.mask & e.mask)
    lo = [i << (f.max_depth - q0.depth) for i in q0.index]
    hi = [(i + 1) << (f.max_depth - q0.depth) for i in q0.index]
    side = 1 << f.max_depth
    for cell in np.flatnonzero(cover.residual.mask | e.mask):
        x, y = divmod(int(cell), side)
        assert lo[0] <= x < hi[0] and lo[1] <= y < hi[1]
    assert np.max(np.abs(f.values[cover.residual.mask])) <= lam


def test_maximal_sup_is_max_abs_over_q0_bitwise():
    # no cube average exceeds the largest |f| on the cube's cells, in
    # floats too, and the finest level is |f| itself, so `jnlab analyze`
    # prints this max without building the field
    rng = np.random.default_rng(8)
    huge = float(np.finfo(np.float64).max) / (2 << 8)  # the grid's value cap
    grids = [gen_random_martingale(1, 10, 1), gen_random_martingale(2, 5, 2),
             gen_random_martingale(3, 3, 3), rand_f(2, 4, 7, lo=-3.0, hi=1.0),
             GridFunction(unit(1), 8, huge * rng.choice([-1.0, 1.0, 0.5], 256)),
             GridFunction(unit(2), 3, rng.uniform(-1.0, 1.0, 64) * 1e-310),
             GridFunction(unit(1), 4, np.full(16, -0.0)),
             GridFunction(unit(2), 2, np.full(16, -0.0))]
    for f in grids:
        for q0 in (f.root.top(), DyadicCube(f.root, 1, (1,) * f.dim),
                   DyadicCube(f.root, 2, (2,) * f.dim)):
            want = float(np.abs(f.zslice(q0)).max())
            assert same_float(dyadic_maximal(f, q0).sup, want), (f.dim, q0)


def test_maximal_dominates_function():
    f = rand_f(2, 3, 11)
    field = dyadic_maximal(f, f.root.top())
    assert np.all(field.values >= np.abs(f.values))


def test_level_set_hand_value():
    f = GridFunction(unit(1), 3, np.r_[np.zeros(4), np.ones(4)])
    field = dyadic_maximal(f, f.root.top())
    e = level_set(field, 0.6)
    assert e.measure == 0.5
    assert np.array_equal(e.indices(), np.arange(4, 8))


def test_cz_hand_selection():
    f = GridFunction(unit(1), 3, np.r_[np.zeros(4), np.ones(4)])
    cover = cz_decompose_dyadic(f, f.root.top(), 0.6)
    assert [(c.depth, c.index) for c in cover.cubes] == [(1, (1,))]
    assert cover.averages == (1.0,)
    assert cover.union_measure == 0.5


def test_cz_requires_dominating_level():
    f = rand_f(1, 4, 0, lo=0.5, hi=1.0)
    with pytest.raises(PreconditionError):
        cz_decompose_dyadic(f, f.root.top(), 0.1)


def test_nan_level_is_rejected_by_cz():
    f = rand_f(1, 4, 0)
    with pytest.raises(PreconditionError, match="dominate"):
        cz_decompose_dyadic(f, f.root.top(), float("nan"))


def test_nan_level_is_rejected_by_level_set():
    f = rand_f(2, 3, 0)
    field = dyadic_maximal(f, f.root.top())
    with pytest.raises(PreconditionError, match="NaN"):
        level_set(field, float("nan"))


def _oracle_grids():
    side3 = GridFunction(RootCube(2, (0.5, -1.0), 3.0), 5,
                         np.random.default_rng(3).standard_normal(1 << 10))
    return [gen_random_martingale(1, 12, 1), gen_random_martingale(2, 6, 2),
            gen_random_martingale(3, 4, 3), side3]


def test_cz_equals_per_cube_construction():
    covers = 0
    for f in _oracle_grids():
        g = f.with_values(np.abs(f.values))
        last = DyadicCube(f.root, 1, (1,) * f.dim)
        for q0 in (f.root.top(), last, DyadicCube(f.root, 2, (2,) * f.dim)):
            for scale in (1.0, 1.05, 1.5, 3.0):
                lam = scale * average(g, q0)
                cover = cz_decompose_dyadic(f, q0, lam)
                cubes, avgs, residual, union = oracle.cz_cover(f, q0, lam)
                assert cover.cubes == cubes
                assert cover.averages.dtype == avgs.dtype
                assert cover.averages.tobytes() == avgs.tobytes()
                assert cover.residual == residual
                assert cover.union_measure == union
                covers += len(cubes) > 0
    assert covers >= 20


def test_verify_cz_names_the_first_failing_cube():
    from jnlab.errors import InvariantViolation
    f = gen_random_martingale(2, 6, 2)
    lam = 1.05 * average(f.with_values(np.abs(f.values)), f.root.top())
    cover = cz_decompose_dyadic(f, f.root.top(), lam)
    depths = np.array([c.depth for c in cover.cubes])
    assert len(cover.cubes) >= 3
    for avg, what in ((0.5 * lam, "not above"), (5.0 * lam, r"above 2\^n")):
        avgs = cover.averages.copy()
        avgs[1:] = avg
        bad = dyadic_cz.CzCover(lam, cover.q0, cover.cubes, avgs, cover.residual)
        with pytest.raises(InvariantViolation, match=what) as err:
            dyadic_cz._verify_cz(f, bad, depths)
        assert err.value.details["cube"] == cover.cubes[1]


def test_good_lambda_threshold_equals_mean_oscillation():
    # the threshold is osc_Q0 / b, osc_Q0 read from the cached oscillation
    # pyramid as mean_oscillation reads it (checked against untiled
    # osc_sums in test_grid)
    tiny = GridFunction(unit(1), 4, np.random.default_rng(5).standard_normal(16) * 1e-310)
    for f in _oracle_grids() + [tiny]:
        for q0 in (f.root.top(), DyadicCube(f.root, 1, (1,) * f.dim)):
            b = 2.0 ** -(f.dim + 1)
            threshold = mean_oscillation(f, q0) / b
            with pytest.raises(PreconditionError, match="threshold") as err:
                check_good_lambda_dyadic(f, q0, 2.0, b, threshold * (1.0 - 1e-9))
            assert err.value.details["threshold"] == threshold
            if f is tiny:  # its JN_2 norm underflows to 0 (K^2 is far below 1e-308)
                with pytest.raises(PreconditionError, match="underflows"):
                    check_good_lambda_dyadic(f, q0, 2.0, b, threshold)
            else:
                check_good_lambda_dyadic(f, q0, 2.0, b, threshold)


def test_cz_properties_random():
    # selection bounds, disjointness, weak-type bound, small residual
    checked = 0
    for seed in range(60):
        dim = 1 + seed % 2
        f = rand_f(dim, 3 + seed % 3, seed, lo=-1.0, hi=2.0)
        q0 = f.root.top()
        g = f.with_values(np.abs(f.values))
        avg0 = average(g, q0)
        lam = avg0 * (1.1 + (seed % 5) * 0.3)
        cover = cz_decompose_dyadic(f, q0, lam)
        arity = 1 << dim
        union_cells = 0
        integral_union = 0.0
        for c, a in zip(cover.cubes, cover.averages):
            assert a == average(g, c)
            assert lam < a <= arity * lam
            union_cells += 1 << (dim * (f.max_depth - c.depth))
            integral_union += c.measure * a
        assert cover.union_measure * lam <= integral_union * (1 + 1e-9)
        if cover.cubes:
            checked += 1
        # maximal level set equals the union of selected cubes
        e = level_set(dyadic_maximal(f, q0), lam)
        assert e.count == union_cells
        # residual: |f| <= lam off the union
        res = cover.residual.indices()
        if res.size:
            assert np.max(np.abs(f.values[res])) <= lam
    assert checked >= 30  # the suite exercises nonempty covers


def test_cz_cubes_disjoint():
    f = rand_f(2, 3, 17, lo=0.0, hi=3.0)
    q0 = f.root.top()
    lam = average(f, q0) * 1.2
    cover = cz_decompose_dyadic(f, q0, lam)
    seen = set()
    for c in cover.cubes:
        width = 2 * (f.max_depth - c.depth)
        z0 = c.zindex() << width
        block = set(range(z0, z0 + (1 << width)))
        assert not seen & block
        seen |= block


def test_good_lambda_random():
    # the check uses the exact JN_2 norm; the bound also holds with the
    # brute-force K, which in 2-D searches partitions only to depth 2
    # and so lies at or below the norm
    for seed in range(30):
        dim = 1 + seed % 2
        f = rand_f(dim, 3, seed + 50)
        q0 = f.root.top()
        b = 2.0 ** (-(dim + 1))
        a = 1.0 / (1.0 - (1 << dim) * b)
        k = oracle.jnp_bruteforce(f, q0, 2.0, 3 if dim == 1 else 2).norm
        if k == 0.0:
            continue
        rep = None
        for t in (1.0, 2.0, 5.0):
            lam = t * mean_oscillation(f, q0) / b
            if lam <= 0:
                continue
            rep = check_good_lambda_dyadic(f, q0, 2.0, b, lam)
            assert rep.passed, (seed, t, rep.to_dict())
            assert rep.witness["K"] == jnp_dyadic(f, q0, 2.0).norm
            bound = (a * k / lam) * rep.witness["measure_at_b_lambda"] ** 0.5
            assert rep.lhs <= bound * (1.0 + 1e-9), (seed, t, rep.to_dict())
        assert rep is None or rep.constant == a


@pytest.mark.parametrize("f", [gen_power_singularity(2, 14), gen_log_singularity(14)],
                         ids=["power", "log"])
def test_good_lambda_sides_are_the_papers_on_singular_profiles(f):
    # both sides recomputed outside the verifier: lhs = |{M h > lam}| and
    # rhs = (a K / lam) |{M h > b lam}|^(1/q), with a = 1/(1 - 2^n b),
    # q = p/(p - 1), K the dyadic JN_p norm and the measures read from the
    # maximal field of h = f - avg_Q0 f; a singular profile makes some
    # report live (lhs > 0 and rhs < |Q0|), so neither side can be
    # scaled or zeroed without a failure here
    q0, p, b = f.root.top(), 2.0, 0.25
    a, q = 1.0 / (1.0 - 2.0 * b), p / (p - 1.0)
    K = jnp_dyadic(f, q0, p).norm
    field = dyadic_maximal(f.with_values(f.values - average(f, q0)), q0)
    threshold = mean_oscillation(f, q0) / b
    reports = [check_good_lambda_dyadic(f, q0, p, b, float(lam))
               for lam in np.geomspace(threshold, 200.0 * threshold, 36)]
    for rep in reports:
        lam = rep.lam
        assert rep.lhs == level_set(field, lam).measure, lam
        rhs = (a * K / lam) * level_set(field, b * lam).measure ** (1.0 / q)
        assert math.isclose(rep.rhs, rhs, rel_tol=1e-12), (lam, rep.rhs, rhs)
        assert rep.passed, rep.to_dict()
    assert any(r.lhs > 0 and r.rhs < q0.measure for r in reports)


def test_good_lambda_validates_inputs():
    f = rand_f(1, 3, 2)
    q0 = f.root.top()
    with pytest.raises(ValueError):
        check_good_lambda_dyadic(f, q0, 2.0, 0.5, 1.0)  # b >= 2^-n
    with pytest.raises(PreconditionError):
        check_good_lambda_dyadic(f, q0, 2.0, 0.25, 1e-9)  # lam below threshold


def test_good_lambda_rejects_nonpositive_lambda():
    # a constant function has threshold 0, so only lam > 0 keeps K / lam finite
    f = GridFunction(unit(1), 5, np.full(32, 1.5))
    for lam in (0.0, -1.0):
        with pytest.raises(PreconditionError, match="positive"):
            check_good_lambda_dyadic(f, f.root.top(), 2.0, 0.25, lam)


def test_good_lambda_default_b_is_two_to_minus_n_plus_one():
    f = rand_f(2, 3, 4)
    q0 = f.root.top()
    lam = 3.0 * mean_oscillation(f, q0) / 0.125
    default = check_good_lambda_dyadic(f, q0, 2.0, None, lam)
    explicit = check_good_lambda_dyadic(f, q0, 2.0, 0.125, lam)
    assert reports_to_json([default]) == reports_to_json([explicit])


def test_verify_jn_dyadic_all_pass_and_branches():
    f = rand_f(1, 7, 23)
    reports = verify_jn_dyadic(f, f.root.top(), 2.0, n_lambda=40)
    assert len(reports) == 40
    assert all_pass(reports)
    branches = {r.witness["branch"] for r in reports}
    assert branches == {"small", "large"}
    # bound constants match the two-branch formula
    n = 1
    for r in reports:
        if r.witness["branch"] == "small":
            assert r.constant == 2.0 ** ((n + 1) * 2.0)
        else:
            assert r.constant == 2.0 ** (2.0 + (n + 1) * (4.0 + 1.0))


def test_verify_jn_dyadic_degenerate_constant():
    f = GridFunction(unit(1), 5, np.full(32, 1.5))
    reports = verify_jn_dyadic(f, f.root.top(), 2.0)
    assert len(reports) == 1
    assert reports[0].degenerate
    assert reports[0].passed


# ----------------------------------------- level measures from one sort


def level_cases():
    """(f, q0): 1-D depth 10 and 2-D depth 5 on roots of side 3, at the
    root and at a proper sub-cube, where the full-grid denominator counts."""
    rng = np.random.default_rng(11)
    f1 = GridFunction(RootCube(1, (0.0,), 3.0), 10,
                      np.round(rng.standard_normal(1 << 10), 1))
    f2 = GridFunction(RootCube(2, (0.0, 0.0), 3.0), 5,
                      rng.uniform(-2.0, 5.0, 1 << 10))
    return [(f1, f1.root.top()), (f1, DyadicCube(f1.root, 2, (1,))),
            (f2, f2.root.top()), (f2, DyadicCube(f2.root, 2, (1, 2)))]


def same_float(a, b):
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_level_measure_equals_level_set_bitwise():
    for f, q0 in level_cases():
        h = f.with_values(f.values - average(f, q0))
        field = dyadic_maximal(h, q0)
        # the verifiers' levels of h, swept over q0's cells alone, are the
        # sorted field of a whole-grid copy of h, bit for bit
        levels = _shifted_levels(f, q0)
        values, above = levels
        assert np.all(values[1:] > values[:-1]) and above[-1] == 0
        run_lengths = above[:-1] - above[1:]
        assert same_bits(np.repeat(values, run_lengths), np.sort(field._zvalues)), q0
        vals = np.unique(field.values)
        lams = np.concatenate([vals, np.nextafter(vals, np.inf),
                               np.nextafter(vals, -np.inf),
                               [vals[0] - 1.0, vals[-1] + 1.0, -np.inf, np.inf]])
        measures = set()
        for lam in lams:
            want = level_set(field, float(lam)).measure
            assert same_float(_level_measure(f, levels, float(lam)), want), (q0, lam)
            measures.add(want)
        assert len(measures) > 10
        assert level_set(field, vals[0] - 1.0).measure == q0.measure


def fresh(f):
    """A copy of f with an empty cache."""
    return GridFunction(f.root, f.max_depth, f.values)


def test_verifiers_report_level_set_measures(monkeypatch):
    def run(f, q0):
        reports = verify_jn_dyadic(f, q0, 2.0, n_lambda=30)
        b = 2.0 ** -(f.dim + 1)
        threshold = mean_oscillation(f, q0) / b
        for t in (1.01, 2.0, 4.0):
            reports.append(check_good_lambda_dyadic(f, q0, 2.0, b, t * threshold))
        return reports

    cases = level_cases()
    fast = [run(f, q0) for f, q0 in cases]
    for (f, q0), got in zip(cases, fast):
        field = dyadic_maximal(f.with_values(f.values - average(f, q0)), q0)
        monkeypatch.setattr(dyadic_cz, "_level_measure",
                            lambda g, levels, lam: level_set(field, lam).measure)
        assert reports_to_json(got) == reports_to_json(run(fresh(f), q0))
        assert any(r.lhs > 0 for r in got)


# ----------------------------------------- one field and one JN_p per (f, q0, p)


def memo_steps(f, q0):
    """Closures of one verifier call each, by name, on a grid g."""
    b = 2.0 ** -(f.dim + 1)
    threshold = mean_oscillation(f, q0) / b
    steps = {}
    for p in (2.0, 3.0):
        steps[("verify", p)] = (
            lambda g, p=p: reports_to_json(verify_jn_dyadic(g, q0, p, n_lambda=30)))
        for t in (1.01, 2.0, 4.0):
            steps[("good-lambda", p, t)] = (
                lambda g, p=p, t=t: reports_to_json(
                    [check_good_lambda_dyadic(g, q0, p, b, t * threshold)]))
    return steps


def test_memo_call_orders_match_fresh_grids():
    gls = [("good-lambda", 2.0, t) for t in (1.01, 2.0, 4.0)]
    orders = {
        "verify first": [("verify", 2.0)] + gls,
        "verify last": gls + [("verify", 2.0)],
        "p interleaved": [("good-lambda", 3.0, 2.0), ("verify", 2.0),
                          ("good-lambda", 2.0, 1.01), ("verify", 3.0),
                          ("good-lambda", 3.0, 4.0), ("good-lambda", 2.0, 4.0)],
    }
    cases = level_cases()
    for (f, top), (_, sub) in (cases[0:2], cases[2:4]):
        for name, order in orders.items():
            g = fresh(f)
            steps = memo_steps(f, top)
            for key in order:
                assert steps[key](g) == steps[key](fresh(f)), (name, key)
        # a sub-cube q0 on a grid whose cache already holds the root's data
        g = fresh(f)
        steps_top, steps_sub = memo_steps(f, top), memo_steps(f, sub)
        for key in [("verify", 2.0), ("good-lambda", 2.0, 2.0)]:
            for steps in (steps_top, steps_sub, steps_top):
                assert steps[key](g) == steps[key](fresh(f)), ("sub-cube", key)
        assert jnp_dyadic(g, sub, 2.0) == jnp_dyadic(fresh(f), sub, 2.0)


def test_memo_builds_once_and_levels_are_read_only():
    f, q0 = level_cases()[1]
    levels = _shifted_levels(f, q0)
    assert _shifted_levels(f, q0) is levels
    assert _shifted_levels(f, f.root.top()) is not levels
    for arr in levels:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert jnp_dyadic(f, q0, 2) is jnp_dyadic(f, q0, 2.0)
    assert jnp_dyadic(f, q0, 3.0) is not jnp_dyadic(f, q0, 2.0)


def test_overflowing_jnp_raises_on_every_call():
    f = GridFunction(unit(1), 1, np.array([1e154, -1e154]))
    q0 = f.root.top()
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not finite"):
            jnp_dyadic(f, q0, 3.0)
        with pytest.raises(PreconditionError, match="not finite"):
            verify_jn_dyadic(f, q0, 3.0)
    assert not any(key[0] == "jnp" for key in f._cache if isinstance(key, tuple))


def test_verify_jn_dyadic_rejects_empty_sweep():
    f = rand_f(1, 5, 2)
    const = GridFunction(unit(1), 5, np.full(32, 1.5))
    for g in (f, const):
        for n in (0, -1, 2.5, None):
            with pytest.raises(PreconditionError, match="n_lambda"):
                verify_jn_dyadic(g, g.root.top(), 2.0, n_lambda=n)
    assert len(verify_jn_dyadic(f, f.root.top(), 2.0, n_lambda=np.int64(1))) == 1


def test_underflowing_jnp_raises_and_only_constants_are_degenerate():
    # at p = 1100 the JN_p value of these values underflows to 0; the
    # verifiers used to read that as a constant function
    f = gen_random_uniform(1, 6, 0)
    q0 = f.root.top()
    assert bmo_dyadic(f, q0) > 0.4
    with pytest.raises(PreconditionError, match="underflows.*p=1100.0"):
        jnp_dyadic(f, q0, 1100.0)
    with pytest.raises(PreconditionError, match="underflows.*p=1100.0"):
        verify_jn_dyadic(f, q0, 1100.0)
    const = gen_constant(1, 6, 3.0)
    reports = verify_jn_dyadic(const, const.root.top(), 1100.0)
    assert len(reports) == 1 and reports[0].degenerate
