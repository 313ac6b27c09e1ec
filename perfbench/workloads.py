"""The benchmark's two workloads.

A workload is a pair of functions.  ``setup(seed, workdir)`` builds the
inputs from the seed; its time is ``setup_s``.  ``calls(inputs, rec)`` makes
the workload's fixed list of public jnlab calls through ``rec.call``, which
times each call, applies the failure rule and hashes its output, then checks
properties of the outputs that the mathematics guarantees.

Every jnlab function is looked up on the package at call time, so a traced
run reaches the wrappers that ``layers.py`` installs.  README.md in this
directory says why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import math
import os

import numpy as np

import jnlab as J
import jnlab.cli  # noqa: F401  (binds J.cli)

P_METRIC = 2.0  # exponent of the metric sweeps and of every JN_p search
# Evaluation budget of the JN_p search: half the default of 4000, so that
# the search takes about two seconds rather than four.
SEARCH_BUDGET = 2000


def _sub_seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _central(space) -> int:
    """Point with the smallest largest distance (ties: smaller index)."""
    return int(np.argmin(space.d.max(axis=1)))


def _sub_ball(space, center: int):
    """Proper sub-ball about `center` holding about half of the points."""
    ds = np.sort(space.d[center])
    k = space.m // 2
    return J.Ball(center, 0.5 * (float(ds[k - 1]) + float(ds[k])))


def _spanning_ball(space, center: int):
    """Ball about `center` that holds every point (the CLI's 'auto' radius)."""
    return J.Ball(center, 1.5 * float(space.d[center].max()) + 1.0)


def _toiterate_level(space, v: np.ndarray, b0) -> float:
    """1.5 times the lowest level check_toiterate accepts: the integral of
    |f - f_B0| over 11*B0 divided by mu(B0)."""
    row, w = space.d[b0.center], space.w
    mask0 = row < b0.radius
    big = row < 11.0 * b0.radius
    mu0 = float(np.sum(w[mask0]))
    g = np.abs(v - float(np.sum(w[mask0] * v[mask0])) / mu0)
    return 1.5 * float(np.sum(w[big] * g[big])) / mu0


def _jn_sum(space, v: np.ndarray, balls, p: float) -> float:
    """sum mu(B) osc_B(v)^p over a family, recomputed from the matrix."""
    total = 0.0
    for b in balls:
        mask = space.d[b.center] < b.radius
        w, x = space.w[mask], v[mask]
        mu = float(np.sum(w))
        avg = float(np.sum(w * x)) / mu
        total += mu * (float(np.sum(w * np.abs(x - avg))) / mu) ** p
    return total


# --------------------------------------------------------------- dyadic-grid


def setup_dyadic_grid(seed: int, workdir: str) -> list:
    s = _sub_seeds(seed, 3)
    grids = [
        ("martingale-1d-d20", J.gen_random_martingale(1, 20, s[0])),
        ("martingale-1d-d18", J.gen_random_martingale(1, 18, s[1])),
        ("martingale-2d-d10", J.gen_random_martingale(2, 10, s[2])),
        ("power-1d-d18", J.gen_power_singularity(2, 18)),
    ]
    inputs = []
    for name, f in grids:
        v = f.values
        mean_abs = float(np.mean(np.abs(v)))
        b = 2.0 ** -(f.dim + 1)
        threshold = float(np.mean(np.abs(v - np.mean(v)))) / b
        inputs.append({
            "name": name, "f": f,
            # levels at or above the root |f| average, as the CZ selection
            # requires; near it many cubes stop
            "cz_levels": (1.05 * mean_abs, 1.5 * mean_abs),
            # good-lambda levels at or above osc_Q0(f) / b
            "b": b, "gl_levels": (1.01 * threshold, 2.0 * threshold, 4.0 * threshold),
            "osc0": float(np.mean(np.abs(v - np.mean(v)))),
        })
    return inputs


def calls_dyadic_grid(inputs: list, rec) -> None:
    for inp in inputs:
        name, f = inp["name"], inp["f"]
        q0 = f.root.top()
        reports = rec.call(f"{name} verify_jn_dyadic", J.verify_jn_dyadic, f, q0, 2.0,
                           n_lambda=60)
        rec.call(f"{name} reports_to_json", J.reports_to_json, reports)
        jn = rec.call(f"{name} jnp_dyadic p=3", J.jnp_dyadic, f, q0, 3.0)
        for lam in inp["cz_levels"]:
            rec.call(f"{name} cz_decompose_dyadic lam={lam!r}", J.cz_decompose_dyadic,
                     f, q0, lam)
        for lam in inp["gl_levels"]:
            report = rec.call(f"{name} check_good_lambda_dyadic lam={lam!r}",
                              J.check_good_lambda_dyadic, f, q0, 2.0, inp["b"], lam)
            rec.call(f"{name} reports_to_json", J.reports_to_json, [report])
        rec.call(f"{name} weak_lp", J.weak_lp, f, q0, 2.0)
        bmo = rec.call(f"{name} bmo_dyadic", J.bmo_dyadic, f, q0)

        # the root cube alone is a partition, and a partition covers Q0
        root_term = q0.measure * inp["osc0"] ** 3
        if jn is not None:
            rec.require(jn.value >= root_term * (1 - 1e-9),
                        f"{name}: JN_3 value below the root cube's term")
            rec.require(math.fsum(c.measure for c in jn.witness) == q0.measure,
                        f"{name}: JN_3 witness is not a partition of Q0")
        if bmo is not None:
            rec.require(bmo >= inp["osc0"] * (1 - 1e-9),
                        f"{name}: BMO norm below the root mean oscillation")


# ------------------------------------------------------------- metric-verify


def setup_metric_verify(seed: int, workdir: str) -> dict:
    s = _sub_seeds(seed, 2)
    cloud = J.gen_random_cloud(600, s[0])
    grid = J.gen_grid2d(17)
    tree_gen = J.gen_tree_graph(150, s[1])

    c = _central(cloud)
    cloud_in = {"name": "cloud-600", "space": cloud, "b0": _sub_ball(cloud, c),
                "v": J.f_log_distance(cloud, c)}
    c = _central(grid)
    grid_in = {"name": "grid2d-17", "space": grid, "b0": _spanning_ball(grid, c),
               "v": J.f_log_distance(grid, c), "maximal": True}

    # the tree goes through the CSV files the CLI reads back
    c = _central(tree_gen)
    space_csv = os.path.join(workdir, "tree-space.csv")
    values_csv = os.path.join(workdir, "tree-values.csv")
    J.space_to_csv(tree_gen, space_csv)
    J.values_to_csv(J.f_log_distance(tree_gen, c), values_csv)
    tree = J.space_from_csv(space_csv)
    b0 = _sub_ball(tree, c)
    tree_in = {"name": "tree-150", "space": tree, "b0": b0,
               "v": J.values_from_csv(values_csv),
               "cli": ["verify", "bmo", "--space", space_csv, "--values", values_csv,
                       "--ball", f"{b0.center}:{b0.radius!r}",
                       "--out", os.path.join(workdir, "cli-bmo.json")]}

    spaces = [cloud_in, grid_in, tree_in]
    for inp in spaces:
        inp["lam"] = _toiterate_level(inp["space"], inp["v"], inp["b0"])
    return {"spaces": spaces, "search": _search_input(seed)}


def _search_input(seed: int) -> dict:
    """The JN_p search's input: gen_grid2d(8), B0 the sub-ball about its most
    central point, values f_log_distance anchored at the point farthest from
    it.  The space and the anchor are fixed; the seed scales the values by a
    power of two.  That scaling is exact in floating point, so it changes the
    values the search returns but not one comparison it makes, and so not its
    path or its cost.  Geometry and anchor would add their own spread to the
    machine's: over ten seeds one cloud search took 2.7 s to 9.5 s, and over
    five anchors the grid search took 1.3 s to 1.9 s."""
    grid = J.gen_grid2d(8)
    c = _central(grid)
    anchor = int(np.argmax(grid.d[c]))
    scale = 2.0 ** int(np.random.default_rng(seed).integers(-8, 9))
    return {"name": "grid2d-8 sub-ball", "space": grid, "b0": _sub_ball(grid, c),
            "v": scale * J.f_log_distance(grid, anchor)}


def calls_metric_verify(inputs: dict, rec) -> None:
    for inp in inputs["spaces"]:
        name, space, v, b0 = inp["name"], inp["space"], inp["v"], inp["b0"]
        reports = rec.call(f"{name} verify_mainresult", J.verify_mainresult,
                           space, v, b0, P_METRIC)
        rec.call(f"{name} reports_to_json", J.reports_to_json, reports)
        reports = rec.call(f"{name} verify_bmo_jn", J.verify_bmo_jn, space, v, b0)
        bmo_json = rec.call(f"{name} reports_to_json", J.reports_to_json, reports)
        report = rec.call(f"{name} check_toiterate", J.check_toiterate,
                          space, v, b0, inp["lam"], P_METRIC)
        rec.call(f"{name} reports_to_json", J.reports_to_json, [report])
        if inp.get("maximal"):
            hl = rec.call(f"{name} hl_maximal_restricted", J.hl_maximal_restricted,
                          space, v, b0)
            gm = rec.call(f"{name} global_maximal", J.global_maximal, space, v)
            if hl is not None and gm is not None:
                # every point sees its own singleton ball, and B0 spans the
                # space, so the restriction changes nothing
                rec.require(bool(np.all(hl >= np.abs(v))),
                            f"{name}: maximal function below |f|")
                rec.require(bool(np.array_equal(hl, gm)),
                            f"{name}: restricted and global maximal differ on a "
                            "spanning B0")
        if "cli" in inp:
            code = rec.call(f"{name} cli verify bmo", J.cli.main, inp["cli"])
            if code == 0:
                with open(inp["cli"][-1], encoding="ascii") as fh:
                    cli_json = fh.read()
                rec.digest_text(f"{name} cli output", cli_json)
                rec.require(cli_json == bmo_json,
                            f"{name}: CLI reports differ from the in-process reports")

    inp = inputs["search"]
    name, space, v = inp["name"], inp["space"], inp["v"]
    res = rec.call(f"{name} jnp_metric_lower", J.jnp_metric_lower,
                   space, v, inp["b0"], P_METRIC, budget=SEARCH_BUDGET)
    if res is not None:
        rec.require(res.family.admissible, f"{name}: search family not admissible")
        rec.require(res.evaluations <= SEARCH_BUDGET, f"{name}: search overran its budget")
        rec.require(res.value > 0, f"{name}: search found no positive family")
        again = _jn_sum(space, v, res.family.balls, P_METRIC)
        rec.require(abs(again - res.value) <= 1e-9 * max(1.0, abs(res.value)),
                    f"{name}: search value {res.value!r} but its family sums to "
                    f"{again!r}")


WORKLOADS = {
    "dyadic-grid": (setup_dyadic_grid, calls_dyadic_grid),
    "metric-verify": (setup_metric_verify, calls_metric_verify),
}
