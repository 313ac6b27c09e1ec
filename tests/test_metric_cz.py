import dataclasses
import math

import numpy as np
import pytest

import metric_oracles as oracle
from jnlab import metric_cz
from jnlab.constants import g_factor, theorem_constants
from jnlab.errors import PreconditionError
from jnlab.generators import f_log_distance, f_random, gen_grid2d, gen_line, gen_random_cloud
from jnlab.metric import (Ball, _witness_arrays, doubling_constant, hl_maximal_restricted,
                          space_from_points)
from jnlab.metric_cz import check_toiterate, cz_balls, nested_cz, verify_bmo_jn, verify_mainresult
from jnlab.report import all_pass


def spanning_ball(space, center=0):
    return Ball(center, 1.5 * float(space.d[center].max()) + 1.0)


def witness(space, f, b0):
    """(balls, values): the witness ball of each point (None outside b0)
    and its f-average, from the arrays the covers read."""
    values, radii, centers = _witness_arrays(space, space.check_values(f), space.members(b0))
    balls = [None if c < 0 else Ball(c, r) for c, r in zip(centers.tolist(), radii.tolist())]
    return balls, values


def shifted_abs(space, f, b0):
    return np.abs(f - oracle.average_mask(space, f, space.members(b0)))


def threshold(space, g, b0):
    return (oracle.integral_mask(space, g, space.members(b0.dilate(11.0)))
            / space.measure_mask(space.members(b0)))


# ---------------------------------------------------------------- constants


def test_theorem_constants_hand_values():
    c = theorem_constants(1.0, 2.0, n=1)
    assert c.q == 2.0
    assert c.C1 == 3.0
    assert c.a == 2.0
    assert c.c1 == 4.0
    assert c.c2 == math.log(2.0) / 2.0
    assert c.dyadic_constant == 2.0 ** 12


def test_theorem_constants_overflow_to_inf():
    # 2^(p + 2(p^2 + (p/q)^3)) passes the float range from p = 9 in 1-D, and
    # p^2 itself from p = 1.4e154; neither raises
    c = theorem_constants(2.0, 10.0, n=1)
    assert c.dyadic_constant == math.inf and c.dyadic_small_constant == 2.0 ** 20
    c = theorem_constants(2.0, 1e200, n=1)
    assert c.dyadic_constant == c.dyadic_small_constant == math.inf


def test_theorem_constants_q_conjugate():
    for p in (1.5, 2.0, 3.0, 7.0):
        c = theorem_constants(2.0, p)
        assert np.isclose(1.0 / p + 1.0 / c.q, 1.0, rtol=1e-14)


def test_theorem_constants_lambda0():
    c = theorem_constants(2.0, 2.0, K=3.0, mu_b0=16.0)
    assert c.lambda0 == 3.0 * 2.0 ** 8 * 3.0 / 16.0 ** 0.5


def test_g_factor_base_cases():
    assert g_factor(0, 2.0, 2.0) == 1.0
    assert g_factor(1, 2.0, 2.0) == 1.0
    assert g_factor(1, 3.0, 1.5) == 1.0
    assert g_factor(2, 2.0, 2.0) == 2.0


def test_g_factor_closed_form():
    # 2 ** sum_{i<N} (N-1-i) q^-i, using sum_{i<N} q^-i = p - p q^-N
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        for n in range(7):
            expo = sum((n - 1 - i) * q ** (-i) for i in range(n))
            assert np.isclose(g_factor(n, p, q), 2.0 ** expo, rtol=1e-12)


# ------------------------------------------------------------------ witness


def test_witness_matches_restricted_maximal():
    for seed in range(4):
        s = gen_random_cloud(20, seed + 1)
        f = np.abs(np.random.default_rng(seed).standard_normal(s.m)) + 0.05
        b0 = spanning_ball(s)
        balls, values = witness(s, f, b0)
        mf = hl_maximal_restricted(s, f, b0)
        inside = s.members(b0)
        for x in range(s.m):
            if not inside[x]:
                assert balls[x] is None
                continue
            mem = s.members(balls[x])
            assert mem[x]
            assert not np.any(mem & ~inside)
            assert np.isclose(values[x], mf[x], rtol=1e-12, atol=0)


def test_witness_takes_any_numeric_values():
    # integer values and lists are read as float64, as the other maximal
    # functions read them
    s = gen_random_cloud(12, 3)
    ints = np.random.default_rng(3).integers(0, 5, s.m)
    want_balls, want_values = witness(s, ints.astype(float), spanning_ball(s))
    for f in (ints, ints.tolist()):
        balls, values = witness(s, f, spanning_ball(s))
        assert balls == want_balls and np.array_equal(values, want_values)


def test_witness_prefers_smaller_balls_on_ties():
    # constant function: every ball has the same average; the witness must
    # be the singleton at the point, by the radius-then-center tie rule
    s = space_from_points(np.arange(5, dtype=np.float64))
    f = np.full(5, 2.0)
    b0 = spanning_ball(s)
    balls, _ = witness(s, f, b0)
    for x in range(5):
        mem = s.members(balls[x])
        assert mem.sum() == 1 and mem[x]


# ----------------------------------------------------------------- cz_balls


def test_cz_balls_requires_nonnegative():
    s = gen_line(10)
    with pytest.raises(PreconditionError):
        cz_balls(s, np.linspace(-1, 1, 10), spanning_ball(s), 1.0)


def test_cz_balls_requires_dominating_level():
    s = gen_line(10)
    f = np.ones(10)
    with pytest.raises(PreconditionError):
        cz_balls(s, f, spanning_ball(s), 0.5)


def test_cz_balls_selection_properties():
    rng = np.random.default_rng(0)
    for seed in range(10):
        s = gen_random_cloud(25, seed + 40)
        f = np.abs(np.random.default_rng(seed).standard_normal(s.m)) * 3.0
        b0 = spanning_ball(s)
        thr = threshold(s, f, b0)
        top = float(hl_maximal_restricted(s, f, b0)[s.members(b0)].max())
        if top <= thr * 1.05:
            continue
        lam = thr * 1.05
        cover = cz_balls(s, f, b0, lam)
        c = doubling_constant(s)
        big = s.members(b0.dilate(11.0))
        for ball, avg, avg5 in zip(cover.balls, cover.averages, cover.averages5):
            assert lam < avg <= c ** 3 * lam * (1 + 1e-9)
            assert avg5 <= lam * (1 + 1e-9)
            assert avg5 > lam / c ** 3 * (1 - 1e-9)
            assert not np.any(s.members(ball.dilate(5.0)) & ~big)
        # selected balls pairwise disjoint, 5-dilates cover the level set
        for i in range(len(cover.balls)):
            for j in range(i + 1, len(cover.balls)):
                assert not np.any(s.members(cover.balls[i])
                                  & s.members(cover.balls[j]))
        assert not np.any(cover.level_mask & ~cover.union5_mask)
        # residual: maximal values at most lam off the level set
        res = cover.residual_mask
        if np.any(res):
            mf = hl_maximal_restricted(s, f, b0)
            assert float(np.nanmax(mf[res])) <= lam * (1 + 1e-9)


def test_cz_balls_stopping_exponents():
    s = gen_random_cloud(20, 9)
    f = np.abs(np.random.default_rng(9).standard_normal(s.m)) * 2.0
    b0 = spanning_ball(s)
    thr = threshold(s, f, b0)
    lam = thr * 1.1
    balls, _ = witness(s, f, b0)
    cover = cz_balls(s, f, b0, lam)
    for x, n_x in cover.point_exponents.items():
        assert n_x >= 1
        base = balls[x]
        assert oracle.average_mask(s, f, s.members(base.dilate(5.0 ** n_x))) <= lam * (1 + 1e-9)
        if n_x > 1:
            assert oracle.average_mask(s, f, s.members(base.dilate(5.0 ** (n_x - 1)))) > lam


def test_cz_stopping_sides_exact_at_attained_levels():
    # levels that some ball's average attains: the masked mean of each
    # witness ball (which misses the ball's prefix-table mean by an ulp on
    # some balls), each witness value, and the averages of a cover.  A kept
    # ball's average is above the level and its 5-dilate's at or below it,
    # with no slack, and an exponent-1 ball reports its witness value
    tight = 0
    for seed in range(6):
        s = gen_random_cloud(80, seed)
        b0 = spanning_ball(s)
        g = shifted_abs(s, f_random(s, seed), b0)
        thr = threshold(s, g, b0)
        balls, values = witness(s, g, b0)
        by_ball = dict(zip(balls, values.tolist()))
        masked = [oracle.average_mask(s, g, s.members(b)) for b in by_ball]
        attained = masked + values.tolist() + cz_balls(s, g, b0, 1.05 * thr).averages.tolist()
        levels = sorted({lam for lam in attained if lam >= thr})
        for cover in nested_cz(s, g, b0, levels).covers:
            lam = cover.lam
            assert np.all(cover.averages > lam), lam
            assert np.all(cover.averages5 <= lam), lam
            for ball, avg, n in zip(cover.balls, cover.averages.tolist(), cover.exponents):
                assert n > 1 or avg == by_ball[ball], (lam, ball)
            tight += int(np.count_nonzero(cover.averages5 == lam))
    assert tight > 0


def test_nested_cz_structure():
    s = gen_grid2d(5)
    f = np.abs(f_log_distance(s, 0)) + 0.1
    b0 = spanning_ball(s)
    thr = threshold(s, f, b0)
    levels = (thr * 1.05, thr * 1.6, thr * 2.4)
    nest = nested_cz(s, f, b0, levels)
    assert nest.levels == levels
    assert len(nest.covers) == 3
    # every higher-level ball is swallowed by its parent's 5-dilate
    for k in range(1, 3):
        lo, hi = nest.covers[k - 1], nest.covers[k]
        for j, ball in enumerate(hi.balls):
            parent = nest.containment[k][j]
            assert parent is not None
            mem = s.members(ball)
            assert not np.any(mem & ~s.members(lo.balls[parent].dilate(5.0)))
        assert not np.any(hi.level_mask & ~lo.level_mask)


def test_nested_cz_rejects_decreasing_levels():
    s = gen_line(12)
    f = np.abs(f_log_distance(s, 0)) + 0.1
    b0 = spanning_ball(s)
    thr = threshold(s, f, b0)
    with pytest.raises(ValueError):
        nested_cz(s, f, b0, (thr * 2.0, thr * 1.5))


# ---------------------------------------------------------------- verifiers


def test_check_toiterate_passes_and_is_nonvacuous():
    # spike profile: both levels select balls, so the inequality has teeth
    pts = np.arange(40, dtype=np.float64)
    s = space_from_points(pts)
    f = np.zeros(40)
    f[0] = 40.0
    f[20] = 8.0
    b0 = spanning_ball(s)
    g = shifted_abs(s, f, b0)
    thr = threshold(s, g, b0)
    rep = check_toiterate(s, f, b0, thr * 1.2, 2.0)
    assert rep.passed
    assert rep.lhs > 0.0
    assert rep.witness["n_balls_low"] >= 1
    assert rep.witness["n_balls_high"] >= 1


def test_check_toiterate_rejects_nonpositive_lambda():
    # a constant function has threshold 0, so only lam > 0 keeps S / lam finite
    s = gen_line(8)
    for lam in (0.0, -1.0):
        with pytest.raises(PreconditionError, match="lam > 0"):
            check_toiterate(s, np.full(8, 2.0), spanning_ball(s), lam, 2.0)


def test_check_toiterate_random_spaces():
    for seed in range(6):
        s = gen_random_cloud(22, seed + 70)
        f = np.random.default_rng(seed).uniform(0, 5, s.m)
        b0 = spanning_ball(s)
        g = shifted_abs(s, f, b0)
        thr = threshold(s, g, b0)
        rep = check_toiterate(s, f, b0, thr * 1.3, 2.0)
        assert rep.passed, rep.to_dict()


def test_verify_mainresult_passes_and_reports_constants():
    s = gen_line(24)
    f = f_log_distance(s, 0)
    b0 = spanning_ball(s)
    reports = verify_mainresult(s, f, b0, 2.0, n_lambda=18)
    assert len(reports) == 18
    assert all_pass(reports)
    c = doubling_constant(s)
    branches = set()
    for r in reports:
        w = r.witness
        branches.add(w["branch"])
        assert np.isclose(w["lambda0"],
                          3.0 * c ** 8 * w["K_cert"] / w["mu_B0"] ** 0.5,
                          rtol=1e-12)
    assert branches == {"small", "large"}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_verify_mainresult_certified_ladder(p, monkeypatch):
    # with C1 and lambda0 shrunk 1e4-fold the seed ladder selects balls, so
    # the 5-dilates certify a K above the single-ball seed and a second,
    # certified ladder runs at lambda0(K_cert)
    def shrunk(*args, **kwargs):
        cons = theorem_constants(*args, **kwargs)
        lam0 = None if cons.lambda0 is None else cons.lambda0 * 1e-4
        return dataclasses.replace(cons, C1=cons.C1 * 1e-4, lambda0=lam0)

    monkeypatch.setattr(metric_cz, "theorem_constants", shrunk)
    s = gen_line(32)
    rng = np.random.default_rng(0)
    f = np.zeros(32)
    f[rng.choice(32, 4, replace=False)] = rng.uniform(1, 3, 4)
    b0 = spanning_ball(s, int(np.argmin(s.d.max(axis=1))))
    reports = verify_mainresult(s, f, b0, p, n_lambda=40)
    w = next(r.witness for r in reports if r.witness["branch"] == "large")
    assert w["K_cert"] > w["K_seed"]
    lam0 = shrunk(doubling_constant(s), p, K=w["K_cert"], mu_b0=w["mu_B0"]).lambda0
    assert w["lambda0"] == lam0
    g = metric_cz._deviation(s, f, b0)  # the verifier's |f - avg_B0 f|
    nest = nested_cz(s, g, b0, [lam0 * 2.0**i for i in range(metric_cz._MAIN_LADDER + 1)])
    assert w["ladder_ball_counts"] == [len(cov.balls) for cov in nest.covers]
    assert w["ladder_ball_counts"][0] > 0
    assert w["sum_mu_ladder"] == [cov.total_measure for cov in nest.covers]


def test_verify_mainresult_degenerate_on_constant():
    # 4.0 stays exact under weighted averaging, so K is exactly zero
    s = gen_line(12)
    reports = verify_mainresult(s, np.full(12, 4.0), spanning_ball(s), 2.0)
    assert len(reports) == 1
    assert reports[0].degenerate and reports[0].passed


def test_verify_bmo_degenerate_on_constant():
    s = gen_line(12)
    reports = verify_bmo_jn(s, np.full(12, 4.0), spanning_ball(s))
    assert len(reports) == 1
    r = reports[0]
    assert r.degenerate and r.passed and r.claim == "bmo-exponential"
    assert r.witness["reason"] == "constant function, norm 0"


def test_extreme_p_raises_unless_constant_on_11_b0():
    # (C1 K / lam)^p overflows at p = 200, and K underflows to 0 at p = 2000
    s = gen_line(5)
    b0 = spanning_ball(s)
    f = f_log_distance(s, 0)
    for p, what in ((200.0, "bound is not finite"), (2000.0, "underflows")):
        with pytest.raises(PreconditionError, match=f"{what}.*p={p!r}"):
            verify_mainresult(s, f, b0, p)
    reports = verify_mainresult(s, np.full(5, 4.0), b0, 2000.0)
    assert len(reports) == 1 and reports[0].degenerate


def test_metric_verifiers_reject_empty_sweep():
    s = gen_line(12)
    b0 = spanning_ball(s)
    for f in (f_log_distance(s, 0), np.full(12, 4.0)):
        for n in (0, -1, 2.5):
            with pytest.raises(PreconditionError, match="n_lambda"):
                verify_mainresult(s, f, b0, 2.0, n_lambda=n)
            with pytest.raises(PreconditionError, match="n_lambda"):
                verify_bmo_jn(s, f, b0, n_lambda=n)


def test_verify_bmo_passes_with_both_claims():
    s = gen_grid2d(5)
    f = f_log_distance(s, 7)
    b0 = spanning_ball(s, 7)
    reports = verify_bmo_jn(s, f, b0, n_lambda=20)
    assert all_pass(reports)
    claims = {r.claim for r in reports}
    assert claims == {"bmo-halving", "bmo-exponential"}


def test_bmo_halving_ingredients_nonvacuous():
    # the two facts the halving argument rests on, checked on real balls:
    # mu(5B) <= c^3 mu(B) and osc of the normalized function at most 1
    from jnlab.metric import bmo_norm_metric
    s = gen_grid2d(5)
    f = f_log_distance(s, 0)
    b0 = spanning_ball(s)
    u = (f - oracle.average_mask(s, f, s.members(b0))) / bmo_norm_metric(s, f)
    c = doubling_constant(s)
    for center in range(0, s.m, 3):
        for r in oracle.critical_radii(s, center)[::2]:
            ball = Ball(center, float(r))
            mu, mu5 = oracle.measure(s, ball), oracle.measure(s, ball.dilate(5.0))
            assert mu5 <= c ** 3 * mu * (1 + 1e-12)
            assert oracle.osc_mask(s, u, s.members(ball)) <= 1.0 + 1e-12
