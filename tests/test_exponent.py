"""Every public entry point that takes the exponent p rejects p outside (1, inf)."""

import math

import numpy as np
import pytest

from jnlab.constants import theorem_constants
from jnlab.dyadic_cz import check_good_lambda_dyadic, verify_jn_dyadic
from jnlab.functionals import jnp_dyadic
from jnlab.generators import f_log_distance, gen_line
from jnlab.grid import GridFunction, RootCube
from jnlab.metric import Ball, jnp_metric_lower
from jnlab.metric_cz import check_toiterate, verify_mainresult


F = GridFunction(RootCube(1, (0.0,), 1.0), 4, np.random.default_rng(3).uniform(-1, 1, 16))
Q0 = F.root.top()
SPACE = gen_line(16)
V = f_log_distance(SPACE, 0)
B0 = Ball(0, 1.5 * float(SPACE.d[0].max()) + 1.0)

ENTRY_POINTS = {
    "jnp_dyadic": lambda p: jnp_dyadic(F, Q0, p),
    "check_good_lambda_dyadic": lambda p: check_good_lambda_dyadic(F, Q0, p, 0.25, 100.0),
    "verify_jn_dyadic": lambda p: verify_jn_dyadic(F, Q0, p),
    "theorem_constants": lambda p: theorem_constants(2.0, p),
    "check_toiterate": lambda p: check_toiterate(SPACE, V, B0, 1.0, p),
    "verify_mainresult": lambda p: verify_mainresult(SPACE, V, B0, p),
    "jnp_metric_lower": lambda p: jnp_metric_lower(SPACE, V, B0, p, budget=10),
}


@pytest.mark.parametrize("p", [math.inf, math.nan, 1.0])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_p_outside_open_interval_rejected(name, p):
    with pytest.raises(ValueError, match="p must lie in"):
        ENTRY_POINTS[name](p)
