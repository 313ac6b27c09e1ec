"""A catalogue of mutants: small faults in the package and the tests that
must catch each one.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each mutant replaces one piece of text, which occurs exactly once in its
file, by another.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and first runs every selected
mutant's tests there unchanged; they must pass.  Then, for each mutant, it
applies the replacement to a fresh copy, runs the mutant's tests with
``-x`` against that copy's ``src/``, and prints ``killed`` when a test
fails or ``survived`` when every test passes.  It exits 1 if any mutant
survives or its run ends in an error (a mutant that breaks the import is
an error, not a kill).

pytest does not collect this module.  ``test_mutants.py`` checks, at no
runtime cost, that every old text still occurs exactly once and that every
named test file exists, so the catalogue stays in step with refactors.
A mutant that no sound test can kill belongs here too, marked with the
reason; never loosen a test to make the runner pass.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    """Replace `old` by `new` in `path` (relative to the repository root);
    `tests` are pytest node ids or test files, relative to the root, at
    least one of which must fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("good-lambda-rhs-x1e6", "src/jnlab/dyadic_cz.py",
           "    rhs = (a * K / lam) * eb ** (1.0 / cons.q)",
           "    rhs = 1e6 * (a * K / lam) * eb ** (1.0 / cons.q)",
           ("tests/test_dyadic_cz.py",)),
    Mutant("good-lambda-lhs-x0", "src/jnlab/dyadic_cz.py",
           "    lhs = _level_measure(f, levels, lam)\n    eb = ",
           "    lhs = 0.0 * _level_measure(f, levels, lam)\n    eb = ",
           ("tests/test_dyadic_cz.py",)),
    Mutant("jn-weak-lp-dyadic-lhs-x0", "src/jnlab/dyadic_cz.py",
           "        lhs = _level_measure(f, levels, lam)\n        rhs = ",
           "        lhs = 0.0 * _level_measure(f, levels, lam)\n        rhs = ",
           ("tests/test_constants.py",)),
    Mutant("check-toiterate-rhs-x1e6", "src/jnlab/metric_cz.py",
           "    rhs = cons.c3q * (s_val ** (1.0 / p) / lam)",
           "    rhs = 1e6 * cons.c3q * (s_val ** (1.0 / p) / lam)",
           ("tests/test_acceptance.py::test_criterion_08_level_doubling_with_certified_value",)),
    Mutant("bmo-exponential-lhs-x0", "src/jnlab/metric_cz.py",
           "        lhs = space.measure_mask(mask0 & (gu > lam))",
           "        lhs = 0.0 * space.measure_mask(mask0 & (gu > lam))",
           ("tests/test_acceptance.py::test_criterion_10_bmo_exponential_on_grids",)),
    Mutant("jn-weak-lp-dyadic-rhs-x1e6", "src/jnlab/dyadic_cz.py",
           "rhs = _check_rhs(const * _pow(K / lam, p), p)",
           "rhs = _check_rhs(1e6 * const * _pow(K / lam, p), p)",
           ("tests/test_constants.py::test_jn_weak_lp_dyadic_rhs_both_branches",)),
    Mutant("jn-weak-metric-small-rhs-x1e6", "src/jnlab/metric_cz.py",
           "            rhs = _pow(cons.C1 * k_cert / lam, p)",
           "            rhs = 1e6 * _pow(cons.C1 * k_cert / lam, p)",
           ("tests/test_constants.py::test_jn_weak_metric_rhs_both_branches",)),
    Mutant("jn-weak-metric-large-rhs-x1e6", "src/jnlab/metric_cz.py",
           "            rhs = cons.c3 * prod * (m0_bound",
           "            rhs = 1e6 * cons.c3 * prod * (m0_bound",
           ("tests/test_constants.py::test_jn_weak_metric_rhs_both_branches",)),
    Mutant("bmo-exponential-rhs-x1e6", "src/jnlab/metric_cz.py",
           "        rhs = cons.c1 * mu0 * math.exp(-cons.c2 * lam)",
           "        rhs = 1e6 * cons.c1 * mu0 * math.exp(-cons.c2 * lam)",
           ("tests/test_constants.py::test_bmo_exponential_rhs",)),
    # the halving checks are live only at a step below the theorem's 2 c^8
    Mutant("bmo-halving-rhs-5x", "src/jnlab/metric_cz.py",
           "rhs=0.5 * lo.total_measure,",
           "rhs=5.0 * lo.total_measure,",
           ("tests/test_constants.py::test_bmo_halving_rhs_is_half_the_lower_cover",)),
    # at a level a walk's mean attains, a strict comparison stops one step
    # late, and the kept ball's average then equals the level
    Mutant("cz-stopping-strict-less", "src/jnlab/metric_cz.py",
           "int(np.argmax(means[row[x], 1:] <= lam)) + 1",
           "int(np.argmax(means[row[x], 1:] < lam)) + 1",
           ("tests/test_metric_cz.py::test_cz_stopping_sides_exact_at_attained_levels",)),
    # a tie of -0.0 with +0.0 must keep the parent's zero; only the
    # bitwise comparison with the mask oracle sees the difference
    Mutant("sweep-level-strict-less", "src/jnlab/kernels.py",
           "np.less_equal(child, parent, out=keep)",
           "np.less(child, parent, out=keep)",
           ("tests/test_kernels.py",)),
    # grid2d and tree rows tie everywhere, and the default argsort orders
    # equal distances by no fixed rule
    Mutant("sorted-tables-skip-stable-resort", "src/jnlab/metric.py",
           "    if tied.size:\n",
           "    if tied.size and False:\n",
           ("tests/test_metric_oracles.py::test_orders_are_the_stable_argsort",)),
    # a later block's center of equal value and radius replaces the first;
    # the killer runs the merge one center per block too
    Mutant("witness-merge-last-tying-center", "src/jnlab/metric.py",
           "win |= (val == values) & (rad < radii)",
           "win |= (val == values) & (rad <= radii)",
           ("tests/test_metric_oracles.py::test_witness_merge_matches_per_center_loop",)),
    Mutant("jn-pool-drop-power", "src/jnlab/metric.py",
           "        terms **= p\n",
           "",
           ("tests/test_metric_oracles.py::test_search_value_below_density_bound",)),
    Mutant("bmo-dyadic-twice-count", "src/jnlab/functionals.py",
           "[_cube_mean(f, pyr, q0, rel) for rel",
           "[0.5 * _cube_mean(f, pyr, q0, rel) for rel",
           ("tests/test_functionals.py::test_jn_bounds_on_criterion_3_grids",)),
    # on five of the tiny clouds only the enumeration reaches the optimum
    Mutant("jnp-dfs-skipped", "src/jnlab/metric.py",
           "    if terms.size < budget:\n",
           "    if False:\n",
           ("tests/test_metric.py::test_jnp_search_tiny_exhaustive",)),
    # where two distances are adjacent floats the midpoint rounds onto the
    # nearer one, and the open ball of that radius loses its tie group
    Mutant("realized-radius-strict", "src/jnlab/metric.py",
           "np.copyto(mid, nxt, where=mid <= near)",
           "np.copyto(mid, nxt, where=mid < near)",
           ("tests/test_metric_oracles.py::test_prefix_path_adjacent_floats",)),
    Mutant("maximal-top-level-unscaled", "src/jnlab/dyadic_cz.py",
           "    for k, level in enumerate(levels[:-1]):",
           "    for k, level in enumerate(levels[1:-1], 1):",
           ("tests/test_dyadic_cz.py::test_maximal_matches_bruteforce_exact",)),
    # one row list feeds both cz formats; only its JSON rows carry the exponent
    Mutant("cz-json-ball-no-exponent", "src/jnlab/cli.py",
           "average5=a5, measure=mu, exponent=n)",
           "average5=a5, measure=mu)",
           ("tests/test_cli.py::test_cz_space_formats_list_the_same_rows",)),
    Mutant("cz-ball-header-average-swapped", "src/jnlab/cli.py",
           'columns = ("center", "radius", "average", "average5", "measure")',
           'columns = ("center", "radius", "average5", "average", "measure")',
           ("tests/test_cli.py::test_cz_space_formats_list_the_same_rows",)),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(tree: str, tests) -> int:
    """Exit code of pytest on `tests` in `tree`, importing jnlab from its src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def apply(mutant: Mutant, tree: str) -> None:
    """Write `mutant` into the copy at `tree`."""
    path = os.path.join(tree, mutant.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in names] or list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean")
        _copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(clean, tests) != 0:
            print("the unmutated tree fails the selected tests", file=sys.stderr)
            return 2
        bad = 0
        for i, mutant in enumerate(chosen):
            tree = os.path.join(tmp, f"m{i}")
            shutil.copytree(clean, tree)
            apply(mutant, tree)
            code = _pytest(tree, mutant.tests)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            bad += code != 1
            print(f"{mutant.name}: {verdict}", flush=True)
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
