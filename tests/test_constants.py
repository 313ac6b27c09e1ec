"""One source of constants: each verifier reads the constants it reports
from ``theorem_constants``, so shrinking them there makes its checks fail."""

import dataclasses

import numpy as np
import pytest

from jnlab import dyadic_cz, metric_cz
from jnlab.constants import theorem_constants
from jnlab.generators import f_log_distance, gen_line, gen_random_martingale
from jnlab.metric import Ball


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
    g = np.abs(v - space.average_mask(v, space.members(b0)))
    threshold = (space.integral_mask(g, space.members(b0.dilate(11.0)))
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
