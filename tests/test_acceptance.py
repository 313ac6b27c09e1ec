"""End-to-end acceptance suite.

Thirteen headline guarantees, one test each.  Every test re-derives its
claim from scratch (independent oracles, explicit constants, fixed seeds)
and prints a single PASS/FAIL summary line; run with

    python3 -m pytest tests/test_acceptance.py -v -s

to see the verdicts as they come.
"""

import math
import time

import numpy as np

import metric_oracles as oracle
from grid_oracles import jnp_bruteforce
from jnlab import grid
from jnlab.dyadic_cz import (check_good_lambda_dyadic, cz_decompose_dyadic,
                             dyadic_maximal, level_set, verify_jn_dyadic)
from jnlab.functionals import distribution, jnp_dyadic, notlp_terms, weak_lp
from jnlab.generators import (f_log_distance, f_random, gen_grid2d, gen_line,
                              gen_log_singularity, gen_power_singularity,
                              gen_random_cloud, gen_random_martingale,
                              gen_random_uniform, gen_step, gen_tree_graph)
from jnlab.grid import DyadicCube, GridFunction, RootCube, average, mean_oscillation
from jnlab.metric import (Ball, doubling_constant, global_maximal,
                          hl_maximal_restricted, jnp_metric_lower,
                          vitali_subcover)
from jnlab.metric_cz import cz_balls, check_toiterate, nested_cz, verify_bmo_jn, verify_mainresult

SLACK = 1e-9


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + SLACK * max(1.0, abs(rhs))


def _verdict(num: int, label: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}"
    print(line)
    assert ok, line


def _root_cube(f: GridFunction) -> DyadicCube:
    return DyadicCube(f.root, 0, (0,) * f.dim)


# shared corpus of 50 small metric spaces with a spanning base ball
_CACHE: dict = {}


def _corpus():
    if "spaces" not in _CACHE:
        out = []
        for k in range(50):
            kind = k % 4
            if kind == 0:
                sp = gen_line(8 + 8 * (k % 7))
            elif kind == 1:
                sp = gen_grid2d(3 + (k // 4) % 5)
            elif kind == 2:
                sp = gen_tree_graph(10 + (3 * k) % 50, seed=k)
            else:
                sp = gen_random_cloud(8 + (5 * k) % 52, seed=k)
            assert sp.m <= 60
            if k % 3 == 2:
                f = f_random(sp, seed=k)
            else:
                f = f_log_distance(sp, anchor=k % sp.m)
            b0 = Ball(0, 1.5 * float(np.max(sp.d[0])) + 1.0)
            out.append((sp, f, b0))
        _CACHE["spaces"] = out
    return _CACHE["spaces"]


def _centered_abs(sp, f, b0):
    return np.abs(np.asarray(f) - oracle.average_mask(sp, f, sp.members(b0)))


def _cz_threshold(sp, g, b0) -> float:
    big = sp.members(b0.dilate(11.0))
    return oracle.integral_mask(sp, g, big) / sp.measure_mask(sp.members(b0))


# --------------------------------------------------------------- criterion 1


def _maximal_oracle(f: GridFunction) -> np.ndarray:
    """Best containing-cube |f|-average per cell, by direct enumeration of
    every ancestor level (same pairwise summation tree, so exact)."""
    gz = np.empty(f.n_cells)
    gz[grid._lex_to_z_perm(f.dim, f.max_depth)] = np.abs(f.values)
    best = gz.copy()
    s = gz
    for up in range(1, f.max_depth + 1):
        for _ in range(f.dim):
            s = s.reshape(-1, 2).sum(axis=1)
        cnt = 1 << (f.dim * up)
        best = np.maximum(best, np.repeat(s * (1.0 / float(cnt)), cnt))
    return best[grid._lex_to_z_perm(f.dim, f.max_depth)]


def _maximal_loop(f: GridFunction) -> np.ndarray:
    """Literal per-cell loop over all containing cubes (small grids only)."""
    out = np.empty(f.n_cells)
    zperm = grid._lex_to_z_perm(f.dim, f.max_depth)
    for lex in range(f.n_cells):
        z = int(zperm[lex])
        cand = []
        for depth in range(f.max_depth + 1):
            width = f.dim * (f.max_depth - depth)
            block = np.abs(f.zvalues[(z >> width) << width:
                                     ((z >> width) + 1) << width])
            while block.size > 1:
                block = block.reshape(-1, 2).sum(axis=1)
            cand.append(float(block[0]) / float(1 << width))
        out[lex] = max(cand)
    return out


def test_criterion_01_maximal_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for dim in (1, 2):
        for depth in range(1, 9):
            for seed in range(100):
                f = gen_random_uniform(dim, depth, (dim * 8 + depth) * 100 + seed)
                field = dyadic_maximal(f, _root_cube(f))
                ok &= np.array_equal(field.values, _maximal_oracle(f))
    # independent literal loop on the small grids
    for dim in (1, 2):
        for depth in (1, 2):
            for seed in range(10):
                f = gen_random_martingale(dim, depth, seed)
                field = dyadic_maximal(f, _root_cube(f))
                ok &= np.array_equal(field.values, _maximal_loop(f))
    dt = time.perf_counter() - t0
    _verdict(1, f"dyadic maximal == brute force over containing cubes, "
                f"1600 grids in {dt:.1f}s", ok and dt < 10.0)


# --------------------------------------------------------------- criterion 2


def test_criterion_02_cz_selection_residual_weaktype():
    rng = np.random.default_rng(20260815)
    ok = True
    pairs = nonempty = 0
    i = 0
    while pairs < 500:
        dim = 1 if i % 2 == 0 else 2
        depth = 3 + (i % 4) if dim == 1 else 2 + (i % 2)
        make = gen_random_uniform if i % 3 else gen_random_martingale
        f = make(dim, depth, 7000 + i)
        i += 1
        q0 = _root_cube(f)
        g = np.abs(f.values)
        a0, top = float(np.mean(g)), float(g.max())
        if not top > a0:
            continue
        lam = a0 + float(rng.uniform(0.02, 0.9)) * (top - a0)
        cover = cz_decompose_dyadic(f, q0, lam)
        pairs += 1
        arity = 1 << dim
        # (i) every selected cube average sits in (lam, 2^n lam]
        for cube in cover.cubes:
            block = np.abs(f.zslice(cube))
            n_block = block.size
            while block.size > 1:
                block = block.reshape(-1, 2).sum(axis=1)
            a = float(block[0]) / float(n_block)
            ok &= a > lam - SLACK * max(1.0, lam) and _le(a, arity * lam)
        # (ii) |f| <= lam on the residual cells
        if cover.residual.count:
            ok &= _le(float(np.max(g[cover.residual.mask])), lam)
        # (iii) weak type: the cubes tile {M f > lam} and
        #       |E(lam)| <= (1/lam) * integral of |f| over E(lam)
        e = level_set(dyadic_maximal(f, q0), lam)
        ok &= e.measure == cover.union_measure
        cell = f.root.measure / float(f.n_cells)
        ok &= _le(e.measure, float(np.sum(g[e.mask])) * cell / lam)
        nonempty += bool(cover.cubes)
    _verdict(2, f"stopping-cube selection, residual and weak-type bounds on "
                f"500 pairs ({nonempty} nonempty covers)", ok and nonempty >= 300)


# --------------------------------------------------------------- criterion 3


def test_criterion_03_jnp_dp_equals_bruteforce():
    ok = True
    # pinned hand value: cells (0, 1, 1, 1), p = 2 -> 9/64
    f = GridFunction(RootCube(1, (0.0,), 1.0), 2, [0.0, 1.0, 1.0, 1.0])
    q0 = _root_cube(f)
    ok &= jnp_dyadic(f, q0, 2.0).value == 9.0 / 64.0
    ok &= jnp_bruteforce(f, q0, 2.0, 2).value == 9.0 / 64.0

    cases = ([(1, 3, s) for s in range(150)]
             + [(2, 2, s) for s in range(45)]
             + [(2, 3, s) for s in range(5)])
    assert len(cases) == 200
    for j, (dim, depth, seed) in enumerate(cases):
        f = gen_random_uniform(dim, depth, 30000 + 1000 * dim + seed)
        q0 = _root_cube(f)
        p = (1.5, 2.0, 3.0)[j % 3]
        dp = jnp_dyadic(f, q0, p)
        bf = jnp_bruteforce(f, q0, p, depth)
        ok &= dp.value == bf.value
        key = lambda c: (c.depth, c.index)
        ok &= sorted(map(key, dp.witness)) == sorted(map(key, bf.witness))
    _verdict(3, "JN_p dynamic program == exhaustive partition search on 200 "
                "instances plus the 9/64 hand value", ok)


# --------------------------------------------------------------- criterion 4


def test_criterion_04_good_lambda_every_admissible_level():
    ok = True
    checked = 0
    cases = [(1, 3, s) for s in range(70)] + [(2, 2, s) for s in range(30)]
    for j, (dim, depth, seed) in enumerate(cases):
        f = gen_random_uniform(dim, depth, 50000 + 97 * j)
        q0 = _root_cube(f)
        p = (1.5, 2.0, 3.0)[j % 3]
        b = 2.0 ** -(dim + 1)
        a_expect = 1.0 / (1.0 - (1 << dim) * b)
        K = jnp_bruteforce(f, q0, p, depth).norm
        field = dyadic_maximal(f.with_values(f.values - average(f, q0)), q0)
        thr = mean_oscillation(f, q0) / b
        # both sides are piecewise monotone between consecutive level-set
        # breakpoints, so checking each breakpoint of either side (and just
        # below it) covers every admissible level
        grid = {thr, 1.5 * thr, 4.0 * thr}
        for v in np.unique(field.values):
            for cand in (float(v), float(v) / b):
                for x in (cand, cand * (1.0 - 1e-9)):
                    if x >= thr:
                        grid.add(x)
        for lam in sorted(grid):
            rep = check_good_lambda_dyadic(f, q0, p, b, lam)
            ok &= rep.passed and rep.constant == a_expect and rep.witness["K"] == K
            checked += 1
    _verdict(4, f"good-lambda inequality with a = 1/(1 - 2^n b) at every "
                f"admissible level ({checked} checks, 100 instances)", ok)


# --------------------------------------------------------------- criterion 5


def test_criterion_05_jn_weak_bound_with_explicit_constants():
    funcs = [gen_step(1, 6), gen_log_singularity(10)]
    funcs += [gen_random_uniform(1, 6, 600 + s) for s in range(25)]
    funcs += [gen_random_martingale(1, 7, 700 + s) for s in range(15)]
    funcs += [gen_random_uniform(2, 3, 800 + s) for s in range(10)]
    ok = True
    branches = set()
    for f in funcs:
        q0 = _root_cube(f)
        n = f.dim
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            c_small = 2.0 ** ((n + 1) * p)
            c_large = 2.0 ** (p + (n + 1) * (p * p + (p / q) ** 3))
            reports = verify_jn_dyadic(f, q0, p, n_lambda=60)
            ok &= len(reports) == 60
            for r in reports:
                ok &= r.passed
                branches.add(r.witness["branch"])
                want = c_small if r.witness["branch"] == "small" else c_large
                ok &= r.constant == want
                # the maximal level set dominates the plain distribution,
                # so the stated bound holds for it as well; spot-check that
                ok &= _le(distribution(f, q0, r.lam), r.rhs)
    _verdict(5, "weak JN_p sweep (60 points x 52 functions x 3 exponents) "
                "with both branch constants", ok and branches == {"small", "large"})


# --------------------------------------------------------------- criterion 6


def test_criterion_06_jn_but_not_lp_example():
    terms = notlp_terms(2.0, 8, 14)
    flat = bool(np.all(np.abs(terms[:7] / terms[0] - 1.0) <= 0.15))
    partial = np.cumsum(notlp_terms(2.0, 16, 18))
    linear = partial[15] / partial[7] >= 1.8
    w = []
    for d in (10, 12, 14):
        f = gen_power_singularity(2.0, d)
        w.append(weak_lp(f, _root_cube(f), 2.0, centered=False))
    stable = max(w) / min(w) <= 1.10
    _verdict(6, f"power-singularity terms flat within 15%, partial sums "
                f"S16/S8 = {partial[15] / partial[7]:.2f} >= 1.8, weak value "
                f"spread {max(w) / min(w):.3f} <= 1.10", flat and linear and stable)


# --------------------------------------------------------------- criterion 7


def test_criterion_07_metric_cz_suite():
    ok = True
    nonempty = 0
    for sp, f, b0 in _corpus():
        c3 = doubling_constant(sp) ** 3
        g = _centered_abs(sp, f, b0)
        lam = max(_cz_threshold(sp, g, b0), 1e-12) * 1.15
        cover = cz_balls(sp, g, b0, lam)
        mf = hl_maximal_restricted(sp, g, b0)
        mems = [sp.members(b) for b in cover.balls]
        union5 = np.zeros(sp.m, dtype=bool)
        for b in cover.balls:
            union5 |= sp.members(b.dilate(5.0))
        # (i) selected averages against the level, with the computed c_mu
        for b, mem in zip(cover.balls, mems):
            avg = oracle.average_mask(sp, g, mem)
            avg5 = oracle.average_mask(sp, g, sp.members(b.dilate(5.0)))
            ok &= avg > lam - SLACK * max(1.0, lam) and _le(avg, c3 * lam)
            ok &= _le(avg5, lam) and avg5 > lam / c3 - SLACK * max(1.0, lam)
        # (ii) disjointness and coverage of the level set by the 5-dilates
        for a in range(len(mems)):
            for b in range(a + 1, len(mems)):
                ok &= not np.any(mems[a] & mems[b])
        ok &= not np.any(cover.level_mask & ~union5)
        # (iii) off the 5-dilates the restricted maximal stays at the level
        resid = sp.members(b0) & ~union5
        if np.any(resid):
            ok &= _le(float(np.max(mf[resid])), lam)
        nonempty += bool(cover.balls)
        # three nondecreasing levels share one witness table and come with
        # a total containment map into the previous level's 5-dilates
        nest = nested_cz(sp, g, b0, (lam, 2.0 * lam, 4.0 * lam))
        ok &= len(nest.covers) == 3 and len(nest.containment) == 3
        for k in (1, 2):
            row = nest.containment[k]
            ok &= len(row) == len(nest.covers[k].balls)
            ok &= all(0 <= j < len(nest.covers[k - 1].balls) for j in row)
    _verdict(7, f"stopping-ball covers pass selection/disjointness/residual "
                f"on 50 spaces ({nonempty} nonempty), nested maps total",
             ok and nonempty >= 35)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_level_doubling_with_certified_value():
    ok = True
    nonvacuous = 0
    for k, (sp, f, b0) in enumerate(_corpus()):
        p = (1.5, 2.0, 3.0)[k % 3]
        q = p / (p - 1.0)
        g = _centered_abs(sp, f, b0)
        lam = max(_cz_threshold(sp, g, b0) * 1.02, 1e-12)
        rep = check_toiterate(sp, f, b0, lam, p)
        ok &= rep.passed
        # the right side is assembled from the family's certified S^(1/p)
        w = rep.witness
        want = rep.constant * (w["S"] ** (1.0 / p) / lam) * w["sum_mu_low"] ** (1.0 / q)
        ok &= bool(np.isclose(rep.rhs, want, rtol=1e-12))
        ok &= bool(np.isclose(rep.constant, doubling_constant(sp) ** (3.0 / q),
                              rtol=1e-12))
        ok &= w["K_lower"] == w["S"] ** (1.0 / p)
        nonvacuous += rep.lhs > 0
    _verdict(8, f"level-doubling inequality with the certified family value "
                f"on all 50 trials ({nonvacuous} with nonzero left side)",
             ok and nonvacuous >= 10)


# --------------------------------------------------------------- criterion 9


def test_criterion_09_mainresult_sweep():
    ok = True
    branches = set()
    for k, (sp, f, b0) in enumerate(_corpus()):
        p = (1.5, 2.0, 3.0)[k % 3]
        c = doubling_constant(sp)
        reports = verify_mainresult(sp, f, b0, p, n_lambda=60)
        ok &= len(reports) == 60 and not any(r.degenerate for r in reports)
        for r in reports:
            ok &= r.passed
            w = r.witness
            branches.add(w["branch"])
            lam0 = 3.0 * c**8 * w["K_cert"] / w["mu_B0"] ** (1.0 / p)
            ok &= bool(np.isclose(w["lambda0"], lam0, rtol=1e-12))
            want = 3.0 * c**8 if w["branch"] == "small" else c**3
            ok &= bool(np.isclose(r.constant, want, rtol=1e-12))
    _verdict(9, "distribution bound sweep passes on all 50 spaces with "
                "C1 = 3 c^8 and lambda0 = C1 K / mu(B0)^(1/p), both branches",
             ok and branches == {"small", "large"})


# -------------------------------------------------------------- criterion 10


def test_criterion_10_bmo_exponential_on_grids():
    ok = True
    attained = 0
    n_halving = 0
    for side in (3, 4, 5, 6):
        sp = gen_grid2d(side)
        c = doubling_constant(sp)
        for anchor in (0, sp.m // 2):
            f = f_log_distance(sp, anchor=anchor)
            b0 = Ball(0, 1.5 * float(np.max(sp.d[0])) + 1.0)
            reports = verify_bmo_jn(sp, f, b0, n_lambda=60)
            halving = [r for r in reports if r.claim == "bmo-halving"]
            expo = [r for r in reports if r.claim == "bmo-exponential"]
            n_halving += len(halving)
            ok &= len(halving) == 3 and len(expo) >= 8
            for r in halving:
                ok &= r.passed and r.constant == 0.5
            for r in expo:
                ok &= r.passed
                ok &= bool(np.isclose(r.constant, 4.0 * c**7, rtol=1e-12))
                ok &= bool(np.isclose(r.witness["c2"],
                                      math.log(2.0) / (2.0 * c**8), rtol=1e-12))
                attained += r.lhs > 0
    _verdict(10, f"exponential bound with c1 = 4 c^7, c2 = log2/(2 c^8) and "
                 f"{n_halving} halving pairs on grid graphs "
                 f"({attained} sweep points attained)",
             ok and attained > 0 and n_halving == 24)


# -------------------------------------------------------------- criterion 11


def test_criterion_11_maximal_subset_chain():
    ok = True
    n_balls = 0
    for k in range(0, 50, 2):
        sp, f, b0 = _corpus()[k]
        jobs = []
        res = jnp_metric_lower(sp, f, b0, 2.0, budget=400)
        jobs.append((res.family.balls, np.asarray(f)))
        g = _centered_abs(sp, f, b0)
        cover = cz_balls(sp, g, b0, max(_cz_threshold(sp, g, b0), 1e-12) * 1.15)
        if cover.balls:
            # 5-dilates of a disjoint cover form an admissible family too
            jobs.append((tuple(b.dilate(5.0) for b in cover.balls), g))
        for balls, vals in jobs:
            mf = global_maximal(sp, vals)
            for b in balls:
                lhs = oracle.average_mask(sp, mf, sp.members(b.dilate(0.2)))
                rhs = oracle.average_mask(sp, np.abs(vals), sp.members(b))
                ok &= lhs >= rhs - SLACK * max(1.0, abs(rhs))
                n_balls += 1
    _verdict(11, f"fifth-ball maximal average dominates the full-ball "
                 f"|f|-average on every family ball ({n_balls} balls)",
             ok and n_balls >= 25)


# -------------------------------------------------------------- criterion 12


def test_criterion_12_vitali_and_doubling():
    ok = True
    # counting measure on 0..9: doubling constant exactly 3, re-derived by
    # scanning the breakpoint grid {v, v/2} of each center by hand
    ok &= doubling_constant(gen_line(10)) == 3.0
    best = 1.0
    for c in range(10):
        drow = np.abs(np.arange(10.0) - c)
        pos = np.unique(drow[drow > 0])
        grid = np.unique(np.concatenate([pos, 0.5 * pos]))
        radii = np.concatenate([[0.5 * grid[0]],
                                0.5 * (grid[:-1] + grid[1:]),
                                [2.0 * grid[-1]]])
        for r in radii:
            best = max(best, float(np.sum(drow < 2 * r)) / float(np.sum(drow < r)))
    ok &= best == 3.0

    rng = np.random.default_rng(1234)
    n_vitali = 0
    for k in range(0, 50, 3):
        sp, _f, _b0 = _corpus()[k]
        cmu = doubling_constant(sp)
        # every realized ball obeys mu(2B) <= c_mu mu(B); member sets only
        # change at distances and half-distances, so this grid is exhaustive
        for c in range(sp.m):
            pos = np.unique(sp.d[c][sp.d[c] > 0])
            if pos.size == 0:
                continue
            grid = np.unique(np.concatenate([pos, 0.5 * pos]))
            radii = np.concatenate([[0.5 * grid[0]],
                                    0.5 * (grid[:-1] + grid[1:]),
                                    [1.5 * grid[-1] + 1.0]])
            for r in radii:
                mu_r = float(np.sum(sp.w[sp.d[c] < r]))
                mu_2r = float(np.sum(sp.w[sp.d[c] < 2.0 * r]))
                ok &= mu_2r <= cmu * mu_r * (1.0 + SLACK)
        # random collections through the greedy 5r-covering selection
        dmax = float(np.max(sp.d))
        for _ in range(3):
            balls = [Ball(int(rng.integers(sp.m)),
                          float(rng.uniform(0.05, 1.2)) * dmax + 1e-9)
                     for _ in range(12)]
            kept = vitali_subcover(sp, balls)
            n_vitali += 1
            union5 = np.zeros(sp.m, dtype=bool)
            for i in kept:
                union5 |= sp.members(balls[i].dilate(5.0))
            for a in range(len(kept)):
                for b in range(a + 1, len(kept)):
                    ok &= not np.any(sp.members(balls[kept[a]])
                                     & sp.members(balls[kept[b]]))
            for b in balls:
                ok &= not np.any(sp.members(b) & ~union5)
    _verdict(12, f"5r-covering outputs disjoint + covering ({n_vitali} runs), "
                 f"doubling of ten points == 3, mu(2B) <= c_mu mu(B) on every "
                 f"realized ball", ok)


# -------------------------------------------------------------- criterion 13


def test_criterion_13_cli_determinism(tmp_path):
    from jnlab.cli import main as cli
    specs = [
        ("gen", "random-martingale", "--dim", "2", "--depth", "6", "--seed", "11"),
        ("gen", "random-cloud", "--m", "25", "--seed", "3"),
        ("analyze", "random-uniform", "--depth", "8", "--p", "2", "--seed", "4"),
        ("analyze", "notlp", "--p", "2", "--terms", "8", "--depth", "14"),
        ("cz", "random-uniform", "--depth", "7", "--seed", "2", "--lam", "0.8",
         "--format", "csv"),
        ("verify", "jn-dyadic", "random-uniform", "--depth", "6", "--seed", "9",
         "--n-lambda", "20"),
        ("verify", "mainresult", "--space", "random-cloud", "--m", "20",
         "--seed", "6", "--values-kind", "random-values", "--n-lambda", "12"),
    ]
    ok = True
    for i, spec in enumerate(specs):
        blobs = []
        for run in (0, 1):
            out = tmp_path / f"{i}_{run}.dat"
            ok &= cli(list(spec) + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1]
    _verdict(13, f"repeated runs with identical seeds give byte-identical "
                 f"outputs ({len(specs)} command pairs)", ok)
