"""jnlab: dyadic and metric Calderon-Zygmund machinery with empirical
John-Nirenberg verification.

The package computes JN_p and BMO functionals on discretized inputs (dyadic
grids in R^n, finite doubling metric measure spaces), builds the stopping
covers behind them, and checks the weak-L^p and exponential distribution
bounds with their explicit constants.
"""

from .constants import Constants, g_factor, theorem_constants
from .dyadic_cz import (MaximalField, check_good_lambda_dyadic, cz_decompose_dyadic,
                        dyadic_maximal, level_set, verify_jn_dyadic)
from .errors import (DepthOverflowError, InvariantViolation, MetricAxiomError,
                     PreconditionError)
from .functionals import (PartitionResult, bmo_dyadic, distribution, jnp_dyadic,
                          notlp_terms, weak_lp)
from .generators import (f_distance, f_log_distance, f_random, gen_constant,
                         gen_grid2d, gen_line, gen_log_singularity,
                         gen_power_singularity, gen_random_cloud,
                         gen_random_martingale, gen_random_uniform, gen_step,
                         gen_tree_graph)
from .grid import (CellSet, DyadicCube, GridFunction, RootCube, average,
                   cube_from_zindex, mean_oscillation)
from .metric import (Ball, BallFamily, JnSearchResult, MetricMeasureSpace,
                     bmo_norm_metric, build_space, check_admissible,
                     doubling_constant, global_maximal, hl_maximal_restricted,
                     jnp_metric_lower, space_from_csv, space_from_points,
                     space_to_csv, values_from_csv, values_to_csv,
                     vitali_subcover)
from .metric_cz import (CzBallCover, NestedCovers, check_toiterate, cz_balls, nested_cz,
                        verify_bmo_jn, verify_mainresult)
from .report import CheckReport, all_pass, degenerate_report, reports_to_csv, reports_to_json

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BallFamily",
    "CellSet",
    "CheckReport",
    "Constants",
    "CzBallCover",
    "DepthOverflowError",
    "DyadicCube",
    "GridFunction",
    "InvariantViolation",
    "JnSearchResult",
    "MaximalField",
    "MetricAxiomError",
    "MetricMeasureSpace",
    "NestedCovers",
    "PartitionResult",
    "PreconditionError",
    "RootCube",
    "all_pass",
    "average",
    "bmo_dyadic",
    "bmo_norm_metric",
    "build_space",
    "check_admissible",
    "check_good_lambda_dyadic",
    "check_toiterate",
    "cube_from_zindex",
    "cz_balls",
    "cz_decompose_dyadic",
    "degenerate_report",
    "distribution",
    "doubling_constant",
    "dyadic_maximal",
    "f_distance",
    "f_log_distance",
    "f_random",
    "g_factor",
    "gen_constant",
    "gen_grid2d",
    "gen_line",
    "gen_log_singularity",
    "gen_power_singularity",
    "gen_random_cloud",
    "gen_random_martingale",
    "gen_random_uniform",
    "gen_step",
    "gen_tree_graph",
    "global_maximal",
    "hl_maximal_restricted",
    "jnp_dyadic",
    "jnp_metric_lower",
    "level_set",
    "mean_oscillation",
    "nested_cz",
    "notlp_terms",
    "reports_to_csv",
    "reports_to_json",
    "space_from_csv",
    "space_from_points",
    "space_to_csv",
    "theorem_constants",
    "values_from_csv",
    "values_to_csv",
    "verify_bmo_jn",
    "verify_jn_dyadic",
    "verify_mainresult",
    "vitali_subcover",
    "weak_lp",
]
