"""Loop-based reference implementations of the metric prefix-table path
and of the ball-family overlap tests.

These are the direct computations the vectorized code replaced: the
masked ball algebra (a member set's measure, integral, mean, mean
oscillation and JN_p term by numpy reductions over a mask), a ball's
measure and integral by one left-to-right loop over its points, the
O(m^3) per-center oscillation table, the distinct-distance critical radii,
the per-center maximal loop, the per-center witness loop and the
per-center merge of the witness tables, the doubling
constant's scan of radii between breakpoints, the pairwise
member-mask loops behind the Vitali, admissibility, CZ-cover and nested-
cover checks, the CZ cover built one level at a time with one stopping
walk of loop means per level point, the JN_p search with its greedy and
clash tests on member masks (and, as the floor of its value, the
four-stage search it replaced), the search pool's per-center loop of
masked terms and the density bound U over it, the tree generator's
per-pair lowest-common-ancestor loop, and the triangle
check's full m x m pass per intermediate point.  Tests compare the
package against them bitwise.  The pool's terms are compared within a
rounding bound, since the masked sums run in another order.  The triangle
check is compared by its accept/reject verdict, and a rejection's (i, j)
against the whole matrix's worst violation.
"""

from __future__ import annotations

import math

import numpy as np

from jnlab.errors import InvariantViolation, MetricAxiomError, _check_jn_value
from jnlab.metric import (Ball, BallFamily, JnSearchResult, _prefix_means, _radius_at,
                          _tie_group_ends)
from jnlab.metric_cz import CzBallCover


# ------------------------------------------------------- ball algebra


def measure(space, ball):
    return space.measure_mask(space.members(ball))


def integral_mask(space, f, mask):
    """Integral of f over the member set (weighted sum)."""
    return float(np.sum(space.w[mask] * f[mask]))


def average_mask(space, f, mask):
    return integral_mask(space, f, mask) / space.measure_mask(mask)


def osc_mask(space, f, mask):
    """Weighted mean oscillation of f over the member set."""
    avg = average_mask(space, f, mask)
    return float(np.sum(space.w[mask] * np.abs(f[mask] - avg))) / space.measure_mask(mask)


def jn_term(space, v, mask, p):
    """mu(B) * osc_B(v)^p for the member set `mask` of one ball B, by
    masked reductions; PreconditionError when it is not finite."""
    try:
        term = space.measure_mask(mask) * osc_mask(space, v, mask) ** p
    except OverflowError:
        term = math.inf
    return _check_jn_value(term, p)


def loop_sums(space, v, ball):
    """(W, F): the measure of a ball and the integral of v over it, each
    summed by one loop over the ball's points in (distance, index) order,
    starting from the first point's term."""
    row = space.d[ball.center].tolist()
    pts = sorted((x for x in range(space.m) if row[x] < ball.radius), key=lambda x: (row[x], x))
    w, vals = space.w.tolist(), np.asarray(v, dtype=np.float64).tolist()
    W, F = w[pts[0]], vals[pts[0]] * w[pts[0]]
    for x in pts[1:]:
        W += w[x]
        F += vals[x] * w[x]
    return W, F


def loop_mean(space, v, ball):
    W, F = loop_sums(space, v, ball)
    return F / W


def ball_tables(orders, w, f):
    """(wcum, fcum, osc) per center, with osc built one center at a time."""
    m = w.shape[0]
    ws = w[orders]
    fs = f[orders]
    wcum = np.cumsum(ws, axis=1)
    fcum = np.cumsum(ws * fs, axis=1)
    osc = np.empty((m, m), dtype=np.float64)
    diag = np.arange(m)
    for c in range(m):
        avg = fcum[c] / wcum[c]
        dev = np.abs(fs[c][None, :] - avg[:, None]) * ws[c][None, :]
        osc[c] = np.cumsum(dev, axis=1)[diag, diag]
    return wcum, fcum, osc


def triangle_check(d):
    """The triangle inequality on a square, finite matrix with zero diagonal,
    symmetric within the tolerance: for each k, one full m x m add, subtract
    and max against the tolerance 1e-12 * max(1, max d)."""
    m = d.shape[0]
    scale = float(d.max()) if m > 1 else 1.0
    tol = 1e-12 * max(1.0, scale)
    for k in range(m):
        via = d[:, k][:, None] + d[k, :][None, :]
        bad = d - via
        worst = float(bad.max())
        if worst > tol:
            i, j = np.argwhere(bad == worst)[0]
            raise MetricAxiomError(
                "triangle inequality fails",
                witness=(int(i), int(j), int(k), float(d[i, j]), float(via[i, j])),
            )


def worst_triangle_violation(d):
    """(i, j) of the largest d_ij - min_k fl(d_ik + d_kj) over the whole
    matrix, the first in row-major order on ties."""
    best, via = np.full(d.shape, np.inf), np.empty(d.shape)
    for k in range(d.shape[0]):
        np.add(d[:, k][:, None], d[k, :][None, :], out=via)
        np.minimum(best, via, out=best)
    i, j = np.unravel_index(np.argmax(d - best), d.shape)
    return int(i), int(j)


def group_ends(space, c):
    """Sorted positions of center c whose next distance differs, then the
    last position: the ends of c's realized member sets."""
    sd = space.sorted_d[c]
    return np.array([k for k in range(space.m) if k == space.m - 1 or sd[k + 1] != sd[k]],
                    dtype=np.int64)


def critical_radii(space, c):
    """Midpoints between consecutive distinct distances from center c (the
    farther distance where the midpoint rounds onto the nearer), then one
    value past the largest."""
    vals = np.unique(space.sorted_d[c])
    if vals.size == 1:  # single point space
        return np.array([1.0])
    mids = 0.5 * (vals[:-1] + vals[1:])
    mids = np.where(mids > vals[:-1], mids, vals[1:])
    return np.append(mids, 1.5 * float(vals[-1]) + 1.0)


def tree_graph_distances(m, seed):
    """Hop distances of gen_tree_graph(m, seed), from the same parent draws,
    with each pair's lowest common ancestor found by intersecting the two
    root paths."""
    rng = np.random.default_rng(seed)
    parent = np.zeros(m, dtype=np.int64)
    for i in range(2, m):
        parent[i] = rng.integers(0, i)
    d = np.zeros((m, m))

    def path_to_root(i):
        path = [i]
        while path[-1] != 0:
            path.append(int(parent[path[-1]]))
        return path

    paths = [path_to_root(i) for i in range(m)]
    depth = {i: len(paths[i]) - 1 for i in range(m)}
    anc = [set(p) for p in paths]
    for i in range(m):
        for j in range(i + 1, m):
            lca = max(anc[i] & anc[j], key=lambda x: depth[x])
            dij = float(depth[i] + depth[j] - 2 * depth[lca])
            d[i, j] = d[j, i] = dij
    return d


def doubling_constant(space):
    """sup of mu(B(x, 2r)) / mu(B(x, r)) over midpoints of the refined
    breakpoint grid {v} U {v/2} of each center's distances v."""
    best = 1.0
    for c in range(space.m):
        ds = space.sorted_d[c]
        pos = np.unique(ds[ds > 0])
        if pos.size == 0:
            continue
        grid = np.unique(np.concatenate([pos, 0.5 * pos]))
        radii = np.concatenate([
            [0.5 * grid[0]],
            0.5 * (grid[:-1] + grid[1:]),
            [1.5 * grid[-1] + 1.0],
        ])
        k_r = np.searchsorted(ds, radii, side="left")
        k_2r = np.searchsorted(ds, 2.0 * radii, side="left")
        mu_r = space.wcum[c][k_r - 1]
        mu_2r = space.wcum[c][k_2r - 1]
        cand = float(np.max(mu_2r / mu_r))
        if cand > best:
            best = cand
    return best


def maximal(space, g, mask0):
    """Per-point sup of ball averages of g over realized balls containing
    the point with member set inside mask0; -inf where none qualifies."""
    orders = space.orders
    wcum, fcum, _ = ball_tables(orders, space.w, g)
    out = np.full(space.m, -np.inf)
    for c in range(space.m):
        if not mask0[c]:
            continue
        ends = group_ends(space, c)
        inb = mask0[orders[c]]
        bad = np.flatnonzero(~inb)
        first_out = bad[0] if bad.size else space.m
        allowed = ends[ends < first_out]
        if allowed.size == 0:
            continue
        avg = fcum[c][allowed] / wcum[c][allowed]
        sufmax = np.maximum.accumulate(avg[::-1])[::-1]
        grp = np.searchsorted(ends, np.arange(space.m), side="left")
        n_allowed = allowed.size
        for k in range(space.m):
            gi = grp[k]
            if gi >= n_allowed:
                break
            j = orders[c, k]
            v = sufmax[gi]
            if v > out[j]:
                out[j] = v
    return out


def hl_maximal_restricted(space, f, b0):
    g = np.abs(space.check_values(f))
    mask0 = space.members(b0)
    out = maximal(space, g, mask0)
    out[~mask0] = np.nan
    return out


def global_maximal(space, f):
    g = np.abs(space.check_values(f))
    return maximal(space, g, np.ones(space.m, dtype=bool))


def compute_witness(space, f, b0):
    """(balls, values): the argmax ball per point of b0, ties broken by
    smaller radius, then smaller center index."""
    mask0 = space.members(b0)
    orders = space.orders
    wcum, fcum, _ = ball_tables(orders, space.w, f)
    best_val = np.full(space.m, -np.inf)
    best_rad = np.full(space.m, np.inf)
    best_ball: list = [None] * space.m
    for c in range(space.m):
        if not mask0[c]:
            continue
        ends = group_ends(space, c)
        radii = critical_radii(space, c)
        inb = mask0[orders[c]]
        bad = np.flatnonzero(~inb)
        first_out = bad[0] if bad.size else space.m
        allowed = np.flatnonzero(ends < first_out)
        if allowed.size == 0:
            continue
        ends_a = ends[allowed]
        avg = fcum[c][ends_a] / wcum[c][ends_a]
        suf_val = np.empty(allowed.size)
        suf_t = np.empty(allowed.size, dtype=np.int64)
        suf_val[-1] = avg[-1]
        suf_t[-1] = allowed.size - 1
        for t in range(allowed.size - 2, -1, -1):
            if avg[t] >= suf_val[t + 1]:
                suf_val[t] = avg[t]
                suf_t[t] = t
            else:
                suf_val[t] = suf_val[t + 1]
                suf_t[t] = suf_t[t + 1]
        grp = np.searchsorted(ends_a, np.arange(space.m), side="left")
        for k in range(space.m):
            gi = grp[k]
            if gi >= allowed.size:
                break
            x = orders[c, k]
            val = suf_val[gi]
            rad = float(radii[allowed[suf_t[gi]]])
            if (val > best_val[x]
                    or (val == best_val[x] and rad < best_rad[x])):
                best_val[x] = val
                best_rad[x] = rad
                best_ball[x] = Ball(c, rad)
    return best_ball, best_val


def witness_arrays(space, g, mask0):
    """`metric._witness_arrays` with its per-center merge: the same suffix-
    maximum tables, with a radius at every (center, position), merged one
    center at a time in ascending order; a center replaces a point's ball
    only with a larger value, or an equal one at a smaller radius."""
    m = space.m
    values = np.full(m, -np.inf)
    radii = np.full(m, np.inf)
    centers = np.full(m, -1, dtype=np.int64)
    cent = np.flatnonzero(mask0)
    orders, sd = space.orders[cent], space.sorted_d[cent]
    avg = _prefix_means(space, g, cent)
    allowed = np.logical_and.accumulate(mask0[orders], axis=1)
    allowed &= _tie_group_ends(sd)
    avg[~allowed] = -np.inf
    best = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
    end = np.where(avg == best, np.arange(m), m)
    np.minimum.accumulate(end[:, ::-1], axis=1, out=end[:, ::-1])
    np.minimum(end, m - 1, out=end)
    rad = np.take_along_axis(_radius_at(sd), end, axis=1)
    for r, c in enumerate(cent):
        pts, val, rr = orders[r], best[r], rad[r]
        cur_val, cur_rad = values[pts], radii[pts]
        win = (val > cur_val) | ((val == cur_val) & (rr < cur_rad))
        win &= val > -np.inf
        pts = pts[win]
        values[pts] = val[win]
        radii[pts] = rr[win]
        centers[pts] = c
    return values, radii, centers


def bmo_norm_metric(space, f):
    v = space.check_values(f)
    wcum, _, osc = ball_tables(space.orders, space.w, v)
    best = 0.0
    for c in range(space.m):
        ends = group_ends(space, c)
        cand = float(np.max(osc[c][ends] / wcum[c][ends]))
        if cand > best:
            best = cand
    return best


# ------------------------------------------------------- ball-family loops


def first_overlap(masks):
    """First pair i < j, in lexicographic order, of masks that share a
    point, found pair by pair; None when they are pairwise disjoint."""
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if np.any(masks[i] & masks[j]):
                return i, j
    return None


def containment(space, lo_balls, hi_balls):
    """For each ball of hi_balls, the first ball of lo_balls whose 5-dilate
    holds its member set, recomputing the 5-dilate for every pair; None
    where no such ball exists."""
    row = []
    for b in hi_balls:
        mem = space.members(b)
        parent = None
        for j, bj in enumerate(lo_balls):
            if not np.any(mem & ~space.members(bj.dilate(5.0))):
                parent = j
                break
        row.append(parent)
    return tuple(row)


def cz_cover(space, g, b0, lam):
    """The level-lam stopping-ball cover, one level at a time: the loop
    witness table, each level point's own walk of loop means over the 5^k
    dilates of its witness ball, first occurrences of the stopped balls,
    the loop Vitali pass, and per-ball loop measures and means."""
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    witness_balls, witness_values = compute_witness(space, g, b0)
    level = mask0 & (witness_values > lam)
    cand, cand_exp, point_exp, seen = [], [], {}, set()
    for x in np.flatnonzero(level):
        base = witness_balls[x]
        n_x = next(k for k in range(1, 200) if loop_mean(space, g, base.dilate(5.0**k)) <= lam)
        point_exp[int(x)] = n_x
        ball = base.dilate(5.0 ** (n_x - 1))
        if (ball.center, ball.radius) not in seen:
            seen.add((ball.center, ball.radius))
            cand.append(ball)
            cand_exp.append(n_x)
    kept = vitali_subcover(space, cand)
    balls = tuple(cand[i] for i in kept)
    mem5 = [space.members(b.dilate(5.0)) for b in balls]
    union5 = np.zeros(space.m, dtype=bool)
    for mask in mem5:
        union5 |= mask
    return CzBallCover(
        lam=lam, b0=b0, balls=balls,
        averages=np.asarray([loop_mean(space, g, b) for b in balls]),
        averages5=np.asarray([loop_mean(space, g, b.dilate(5.0)) for b in balls]),
        measures=tuple(loop_sums(space, g, b)[0] for b in balls),
        exponents=tuple(cand_exp[i] for i in kept),
        point_exponents=point_exp,
        level_mask=level,
        residual_mask=mask0 & ~union5,
        union5_mask=union5,
        truncated=bool(np.all(big)),
    )


def vitali_subcover(space, balls):
    balls = list(balls)
    order = sorted(range(len(balls)), key=lambda i: (-balls[i].radius, i))
    kept = []
    union = np.zeros(space.m, dtype=bool)
    for i in order:
        mem = space.members(balls[i])
        if not np.any(mem & union):
            kept.append(i)
            union |= mem

    cover5 = np.zeros(space.m, dtype=bool)
    for i in kept:
        cover5 |= space.members(balls[i].dilate(5.0))
    for i, b in enumerate(balls):
        mem = space.members(b)
        if np.any(mem & ~cover5):
            raise InvariantViolation("input ball escapes the kept 5-dilates",
                                     ball=b, index=i)
    for a_pos in range(len(kept)):
        for b_pos in range(a_pos + 1, len(kept)):
            ma = space.members(balls[kept[a_pos]])
            mb = space.members(balls[kept[b_pos]])
            if np.any(ma & mb):
                raise InvariantViolation("kept balls intersect",
                                         first=balls[kept[a_pos]],
                                         second=balls[kept[b_pos]])
    return kept


def check_admissible(space, b0, balls):
    balls = tuple(balls)
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    witness = {}

    centered = True
    for b in balls:
        if not mask0[b.center]:
            centered = False
            witness.setdefault("off_center", b)
            break
    contained = True
    for b in balls:
        if np.any(space.members(b) & ~big):
            contained = False
            witness.setdefault("escapes_11B0", b)
            break
    fifth_disjoint = True
    fifths = [space.members(b.dilate(0.2)) for b in balls]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if np.any(fifths[i] & fifths[j]):
                fifth_disjoint = False
                witness.setdefault("fifth_overlap", (balls[i], balls[j]))
                break
        if not fifth_disjoint:
            break
    return BallFamily(
        balls=balls,
        centered=centered,
        contained=contained,
        fifth_disjoint=fifth_disjoint,
        truncated=bool(np.all(big)),
        witness=witness,
    )


def pool_balls(space, b0):
    """(centers, radii) of the JN_p search pool, one center at a time: each
    center in b0 with each of its critical radii whose ball stays inside
    11*b0, in center-then-radius order."""
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    centers, radii = [], []
    for c in range(space.m):
        if not mask0[c]:
            continue
        for r in critical_radii(space, c):
            if not np.any((space.d[c] < r) & ~big):
                centers.append(c)
                radii.append(r)
    return np.array(centers, dtype=np.int64), np.array(radii)


def search_pool(space, f, b0, p):
    """(centers, radii, terms) of the JN_p search pool, each term
    mu(B) osc_B(f)^p by masked reductions over the ball's member set
    (numpy's pairwise sums, in point order)."""
    v = space.check_values(f)
    centers, radii = pool_balls(space, b0)
    terms = [jn_term(space, v, space.d[c] < r, p) for c, r in zip(centers, radii)]
    return centers, radii, np.array(terms)


def pool_terms(space, v, b0, p):
    """The search pool as `Ball`s and its terms, each read from its
    center's prefix tables (the package's formula, so the searches compare
    bitwise)."""
    wcum, _, osc = ball_tables(space.orders, space.w, v)
    centers, radii = pool_balls(space, b0)
    pool = [Ball(int(c), float(r)) for c, r in zip(centers, radii)]
    # the ball is a prefix of c's order
    k = np.array([np.count_nonzero(space.members(b)) - 1 for b in pool], dtype=np.int64)
    pool_w, pool_osc = wcum[centers, k], osc[centers, k]
    return pool, (pool_w * (pool_osc / pool_w) ** p).tolist()


def enumerate_pool(space, pool, pool_term, budget, evals, consider):
    """The depth-first enumeration of admissible subsets of the pool,
    deduplicated by member set and fifth, with the clash tests made on
    member masks: at each depth, every later candidate's fifth against
    the union of the chosen fifths at once.  Calls consider(value, pool
    indices) once per family, until `evals` reaches the budget; returns
    the final count."""
    sig_first = {}
    for i, b in enumerate(pool):
        key = (space.members(b).tobytes()
               + space.members(b.dilate(0.2)).tobytes())
        sig_first.setdefault(key, i)
    dedup = sorted(sig_first.values())
    fifth = np.array([space.members(pool[i].dilate(0.2)) for i in dedup])

    def extend(chosen, start, used, val):
        nonlocal evals
        for t in (start + np.flatnonzero(~np.any(fifth[start:] & used, axis=1))).tolist():
            if evals >= budget:
                return
            i = dedup[t]
            grown = chosen + (i,)
            evals += 1
            consider(val + pool_term[i], grown)
            extend(grown, t + 1, used | fifth[t], val + pool_term[i])

    extend((), 0, np.zeros(space.m, dtype=bool), 0.0)
    return evals


def density_bound(space, f, b0, p):
    """U = sum_x w_x max{term_b / mu(fifth_b) : x in fifth_b} over the JN_p
    search pool (0 at points in no fifth), one pool ball at a time with
    masked terms: an upper bound for every family of pool balls whose
    fifths are disjoint."""
    centers, radii, terms = search_pool(space, f, b0, p)
    best = np.zeros(space.m)
    for c, r, t in zip(centers, radii, terms):
        fifth = space.d[c] < r * 0.2
        best[fifth] = np.maximum(best[fifth], t / space.measure_mask(fifth))
    return float(np.sum(space.w * best))


def search_result(space, b0, p, value, balls, evals):
    """The JnSearchResult of a family, checked by the loop check_admissible."""
    family = check_admissible(space, b0, balls)
    if balls and not family.admissible:
        raise InvariantViolation("search produced an inadmissible family",
                                 flags=(family.centered, family.contained,
                                        family.fifth_disjoint))
    return JnSearchResult(
        value=value,
        norm=value ** (1.0 / p) if value > 0 else 0.0,
        p=p,
        family=family,
        evaluations=evals,
    )


def _check_p(p):
    p = float(p)
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    return p


def jnp_metric_lower(space, f, b0, p, budget=4000):
    """The seeded JN_p search on member masks.  The best pool ball costs
    one evaluation.  With budget >= 2 the density greedy costs one more:
    it visits the pool by decreasing term / mu(fifth), ties in pool order,
    and tests each fifth's mask against the union of the kept fifths.  A
    fifth's measure is read from its center's cumulative weights, the
    package's formula, so both visit in one order.  When the pool is
    smaller than the budget, the enumeration spends the rest."""
    v = space.check_values(f)
    p = _check_p(p)
    pool, pool_term = pool_terms(space, v, b0, p)
    best = [0.0, ()]

    def consider(val, idx):
        if val > best[0]:
            best[:] = val, tuple(idx)

    for i in range(len(pool)):
        consider(pool_term[i], (i,))
    evals = 1
    if budget >= 2:
        evals += 1
        wcum = np.cumsum(space.w[space.orders], axis=1)
        fifths = [space.members(b.dilate(0.2)) for b in pool]
        density = [pool_term[i] / wcum[b.center, np.count_nonzero(fifths[i]) - 1]
                   for i, b in enumerate(pool)]
        used = np.zeros(space.m, dtype=bool)
        fam = []
        for i in sorted(range(len(pool)), key=lambda i: -density[i]):
            if pool_term[i] > 0 and not np.any(fifths[i] & used):
                fam.append(i)
                used |= fifths[i]
        fam.sort()
        consider(float(sum(pool_term[i] for i in fam)), fam)
    if len(pool) < budget:
        evals = enumerate_pool(space, pool, pool_term, budget, evals, consider)
    value, idx = best
    return search_result(space, b0, p, value, tuple(pool[i] for i in idx), evals)


def jnp_metric_lower_staged(space, f, b0, p, budget=4000):
    """The JN_p search before the greedy seed, on the loop versions of
    vitali_subcover and check_admissible: all pool singletons, each costing
    one evaluation; then, with budget left, Vitali subcovers at six radius
    quantiles and their 5-dilates, steepest-ascent add/swap moves over the
    pool, and the enumeration.  A 5-dilate's term is summed over its
    member mask."""
    v = space.check_values(f)
    p = _check_p(p)
    big = space.members(b0.dilate(11.0))

    def term(ball):
        mem = space.members(ball)
        if np.any(mem & ~big):
            return None
        return jn_term(space, v, mem, p)

    pool, pool_term = pool_terms(space, v, b0, p)

    evals = 0
    best_val = 0.0
    best_balls = ()
    best_pool_idx = ()

    def consider(val, balls, idx=()):
        nonlocal best_val, best_balls, best_pool_idx
        if val > best_val:
            best_val = val
            best_balls = tuple(balls)
            best_pool_idx = tuple(idx)

    for i in range(len(pool)):
        if evals >= budget:
            break
        evals += 1
        consider(pool_term[i], (pool[i],), (i,))

    if pool and evals < budget:
        radii = np.array([b.radius for b in pool])
        scales = np.quantile(radii, [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
        for s in scales:
            if evals >= budget:
                break
            largest_below = {}
            for i, b in enumerate(pool):
                if b.radius <= s:
                    largest_below[b.center] = i
            cand_idx = [largest_below[c] for c in sorted(largest_below)]
            if not cand_idx:
                continue
            kept = vitali_subcover(space, [pool[i] for i in cand_idx])
            fam = tuple(sorted(cand_idx[k] for k in kept))
            evals += 1
            consider(float(sum(pool_term[i] for i in fam)),
                     tuple(pool[i] for i in fam), fam)
            if evals >= budget:
                break
            dil, dil_terms = [], []
            for i in fam:
                bb = pool[i].dilate(5.0)
                t = term(bb)
                if t is not None:
                    dil.append(bb)
                    dil_terms.append(t)
            if dil:
                evals += 1
                consider(float(sum(dil_terms)), tuple(dil))

    if best_pool_idx and evals < budget:
        cur = list(best_pool_idx)
        cur_fifth = {i: space.members(pool[i].dilate(0.2)) for i in cur}
        improved = True
        while improved and evals < budget:
            improved = False
            best_gain, best_move = 0.0, None
            for j in range(len(pool)):
                if evals >= budget:
                    break
                if j in cur_fifth:
                    continue
                evals += 1
                fj = space.members(pool[j].dilate(0.2))
                clash = [i for i in cur if np.any(fj & cur_fifth[i])]
                if not clash:
                    gain = pool_term[j]
                    if gain > best_gain:
                        best_gain, best_move = gain, ("add", j)
                elif len(clash) == 1:
                    gain = pool_term[j] - pool_term[clash[0]]
                    if gain > best_gain:
                        best_gain, best_move = gain, ("swap", j, clash[0])
            if best_move is not None:
                j = best_move[1]
                if best_move[0] == "swap":
                    old = best_move[2]
                    cur.remove(old)
                    del cur_fifth[old]
                cur.append(j)
                cur.sort()
                cur_fifth[j] = space.members(pool[j].dilate(0.2))
                improved = True
        consider(float(sum(pool_term[i] for i in cur)),
                 tuple(pool[i] for i in cur), tuple(cur))

    if pool and evals < budget:
        evals = enumerate_pool(space, pool, pool_term, budget, evals,
                               lambda val, idx: consider(val, (pool[j] for j in idx), idx))
    return search_result(space, b0, p, best_val, best_balls, evals)
