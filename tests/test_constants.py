"""One source of constants: each verifier reads the constants it reports
from ``theorem_constants``, so shrinking them there makes its checks fail."""

import dataclasses
import functools
import importlib
import math
import operator
import pkgutil

import numpy as np
import pytest

import jnlab
import metric_oracles as oracle
from jnlab import dyadic_cz, metric, metric_cz
from jnlab.constants import g_factor, theorem_constants
from jnlab.functionals import jnp_dyadic
from jnlab.generators import (f_log_distance, f_random, gen_line, gen_random_cloud,
                              gen_random_martingale)
from jnlab.grid import DyadicCube, GridFunction, RootCube
from jnlab.metric import Ball, build_space


def test_report_constant_hand_values():
    c = theorem_constants(2.0, 2.0, n=1, K=3.0, measure_q0=4.0)
    assert c.c3 == 8.0
    assert c.c3q == 2.0 ** 1.5
    assert c.b == 0.25
    assert c.dyadic_small_constant == 2.0 ** 4
    assert c.dyadic_constant == 2.0 ** 12
    assert c.eta == 3.0 / (0.25 * 2.0)
    assert c.lambda0 is None


def test_dimension_free_fields_stay_none():
    c = theorem_constants(3.0, 1.5)
    assert c.n is c.b is c.dyadic_small_constant is c.dyadic_constant is None
    assert c.eta is None and c.lambda0 is None


# ------------------------------------------------------------ falsification


SHRUNK = ("dyadic_small_constant", "dyadic_constant", "c3q", "c1")


def shrunk_constants(*args, **kwargs):
    """The real constants with every report constant scaled by 1e-12."""
    cons = theorem_constants(*args, **kwargs)
    return dataclasses.replace(cons, **{
        name: getattr(cons, name) * 1e-12
        for name in SHRUNK if getattr(cons, name) is not None})


def line_input():
    """gen_line(40), f_log_distance anchored at 0, B0 spanning the line."""
    space = gen_line(40)
    return space, f_log_distance(space, 0), Ball(0, 1.5 * float(space.d[0].max()) + 1.0)


def jn_dyadic_reports():
    f = gen_random_martingale(1, 10, 3)
    return dyadic_cz.verify_jn_dyadic(f, f.root.top(), 2.0)


def level_doubling_reports():
    space, v, b0 = line_input()
    g = np.abs(v - oracle.average_mask(space, v, space.members(b0)))
    threshold = (oracle.integral_mask(space, g, space.members(b0.dilate(11.0)))
                 / space.measure_mask(space.members(b0)))
    return [metric_cz.check_toiterate(space, v, b0, 1.02 * threshold, 2.0)]


def bmo_exponential_reports():
    reports = metric_cz.verify_bmo_jn(*line_input())
    return [r for r in reports if r.claim == "bmo-exponential"]


FAMILIES = {
    "jn-weak-lp-dyadic": jn_dyadic_reports,
    "cz-level-doubling": level_doubling_reports,
    "bmo-exponential": bmo_exponential_reports,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_passes_with_theorem_constants(family):
    reports = FAMILIES[family]()
    assert reports and all(r.passed for r in reports)
    assert any(r.lhs > 0 for r in reports)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_fails_with_shrunk_constants(family, monkeypatch):
    for module in (dyadic_cz, metric_cz):
        monkeypatch.setattr(module, "theorem_constants", shrunk_constants)
    reports = FAMILIES[family]()
    assert reports and not all(r.passed for r in reports)


# ------------------------------------------------------ right-hand sides

# Each rhs rebuilt from theorem_constants, the report's witness and the
# masked oracles, independently of the verifier that wrote it.


def test_jn_weak_lp_dyadic_rhs_both_branches():
    f = gen_random_martingale(1, 10, 3)
    q0 = f.root.top()
    K = jnp_dyadic(f, q0, 2.0).norm
    cons = theorem_constants(2.0, 2.0, n=1, K=K, measure_q0=q0.measure)
    branches = set()
    for r in dyadic_cz.verify_jn_dyadic(f, q0, 2.0):
        assert r.witness["K"] == K
        small = r.lam <= cons.eta
        const = cons.dyadic_small_constant if small else cons.dyadic_constant
        assert r.rhs == pytest.approx(const * (K / r.lam) ** 2.0, rel=1e-12)
        branches.add(r.witness["branch"])
    assert branches == {"small", "large"}


def test_jn_weak_metric_rhs_both_branches():
    space, v, b0 = line_input()
    c = oracle.doubling_constant(space)
    mask0 = space.members(b0)
    mu0 = space.measure_mask(mask0)
    g = np.abs(v - oracle.average_mask(space, v, mask0))
    integral = oracle.integral_mask(space, g, space.members(b0.dilate(11.0)))
    branches = set()
    for r in metric_cz.verify_mainresult(space, v, b0, 2.0):
        w = r.witness
        cons = theorem_constants(c, 2.0, K=w["K_cert"], mu_b0=mu0)
        p, q, lam0 = cons.p, cons.q, cons.lambda0
        assert w["lambda0"] == pytest.approx(lam0, rel=1e-12)
        if r.lam <= lam0:
            want = (cons.C1 * w["K_cert"] / r.lam) ** p
        else:
            n = w["N"]
            assert 2.0 ** n * lam0 < r.lam <= 2.0 ** (n + 1) * lam0
            want = (cons.c3 * (cons.c3q * w["K_used"] / lam0) ** (p - p * q ** -n)
                    / g_factor(n, p, q) * (integral / lam0) ** (q ** -n))
        assert r.rhs == pytest.approx(want, rel=1e-9)
        branches.add(w["branch"])
    assert branches == {"small", "large"}


def test_bmo_exponential_rhs():
    space, v, b0 = line_input()
    cons = theorem_constants(oracle.doubling_constant(space), 2.0)
    mu0 = oracle.measure(space, b0)
    for r in bmo_exponential_reports():
        assert r.rhs == pytest.approx(cons.c1 * mu0 * math.exp(-cons.c2 * r.lam), rel=1e-12)


def test_bmo_halving_rhs_is_half_the_lower_cover(monkeypatch):
    # at the real step a = 2 c^8 (c >= 2 on two or more points) no ball's
    # average reaches the first level here and both sides read 0; a step
    # just above the 11*B0 threshold of u = |f - f_B0| / ||f||_* makes the
    # covers live
    space, v, b0 = line_input()
    mask0 = space.members(b0)
    u = np.abs(v - oracle.average_mask(space, v, mask0)) / oracle.bmo_norm_metric(space, v)
    step = 1.05 * (oracle.integral_mask(space, u, space.members(b0.dilate(11.0)))
                   / space.measure_mask(mask0))
    monkeypatch.setattr(metric_cz, "theorem_constants", lambda *args, **kwargs:
                        dataclasses.replace(theorem_constants(*args, **kwargs), a=step))
    reports = [r for r in metric_cz.verify_bmo_jn(space, v, b0) if r.claim == "bmo-halving"]
    for r in reports:
        lower = oracle.cz_cover(space, u, b0, r.witness["lower_level"])
        want = 0.5 * sum(oracle.measure(space, b) for b in lower.balls)
        assert r.rhs == pytest.approx(want, rel=1e-12)
    assert len(reports) == 3 and all(r.rhs > 0 for r in reports)


# ------------------------------------------------------------ sum order


def sum_order_outputs():
    """(summands, value) of each of the package's float sums, then the
    summands of g_factor's exponent sum and g_factor, on inputs where adding
    left to right and `math.fsum` round differently."""
    m = 80
    space = build_space(gen_line(m).d, np.full(m, 0.1))
    v = np.zeros(m)
    v[5::8] = 10.0  # ten spikes: cover balls of three and of one 0.1-weight point
    b0 = Ball(40, 1.5 * float(space.d[40].max()) + 1.0)
    low, high = metric_cz.nested_cz(space, metric_cz._deviation(space, v, b0), b0,
                                    (3.0, 6.0)).covers
    rep = metric_cz.check_toiterate(space, v, b0, 3.0, 2.0)
    cover = metric_cz.cz_balls(space, v, b0, 3.0)

    grid = GridFunction(RootCube(1, (0.0,), 0.3), 6,
                        np.random.default_rng(0).exponential(size=64) ** 3)
    dy = dyadic_cz.cz_decompose_dyadic(grid, DyadicCube(grid.root, 0, (0,)),
                                       2.0 * float(np.mean(grid.values)))

    cloud = gen_random_cloud(40, 0)
    w, c0 = f_random(cloud, 0), Ball(0, 1.5 * float(cloud.d[0].max()) + 1.0)
    centers, radii, terms = metric._jn_pool(cloud, w, c0, 2.0)
    greedy = terms[metric._greedy_family(cloud, centers, radii, terms)].tolist()
    q = 3.0  # the conjugate of p = 1.5
    return [
        (cover.measures, cover.total_measure),
        (high.measures, rep.lhs),
        (low.measures, rep.witness["sum_mu_low"]),
        ([c.measure for c in dy.cubes], dy.union_measure),
        (greedy, metric.jnp_metric_lower(cloud, w, c0, 2.0, budget=2).value),
    ], ([i * q ** -i for i in range(1, 4)], g_factor(4, 1.5, q))


def left_to_right(parts):
    return functools.reduce(operator.add, parts, 0.0)


def test_float_sums_do_not_follow_the_interpreter(monkeypatch):
    # builtin sum() compensates float sums from Python 3.12 on; shadowing
    # it by math.fsum in every module must not move a value
    sums, (g_parts, g) = before = sum_order_outputs()
    for parts, value in sums:
        assert value == left_to_right(parts) != math.fsum(parts)
    assert left_to_right(g_parts) != math.fsum(g_parts)
    for info in pkgutil.iter_modules(jnlab.__path__):
        monkeypatch.setattr(importlib.import_module(f"jnlab.{info.name}"), "sum", math.fsum,
                            raising=False)
    assert sum_order_outputs() == before
