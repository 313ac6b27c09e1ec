"""Loop-based reference implementations of the metric prefix-table path
and of the ball-family overlap tests.

These are the direct computations the vectorized code replaced: the
O(m^3) per-center oscillation table, the distinct-distance critical radii,
the per-center maximal loop, the per-center witness loop, the doubling
constant's scan of radii between breakpoints, the pairwise
member-mask loops behind the Vitali, admissibility, CZ-cover and nested-
cover checks, the JN_p search that scanned its chosen balls one by one
for a clash, the tree generator's per-pair lowest-common-ancestor
loop, and the triangle check's full m x m pass per intermediate point.
Tests compare the package against them bitwise, and the triangle check
by its accept/reject verdict.
"""

from __future__ import annotations

import numpy as np

from jnlab.errors import InvariantViolation, MetricAxiomError
from jnlab.metric import Ball, BallFamily, JnSearchResult, _jn_term


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
    """The triangle inequality on a square, symmetric, finite matrix with
    zero diagonal: for each k, one full m x m add, subtract and max against
    the tolerance 1e-12 * max(1, max d)."""
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


def critical_radii(space, c):
    """Midpoints between consecutive distinct distances from center c, then
    one value past the largest."""
    vals = np.unique(space.sorted_d[c])
    if vals.size == 1:  # single point space
        return np.array([1.0])
    mids = 0.5 * (vals[:-1] + vals[1:])
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
        ends = space.group_ends(c)
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
        ends = space.group_ends(c)
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


def bmo_norm_metric(space, f):
    v = space.check_values(f)
    wcum, _, osc = ball_tables(space.orders, space.w, v)
    best = 0.0
    for c in range(space.m):
        ends = space.group_ends(c)
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


def jnp_metric_lower(space, f, b0, p, budget=4000):
    """The JN_p search with its clash tests made against each chosen ball
    in turn, on the loop versions of vitali_subcover and check_admissible."""
    v = space.check_values(f)
    p = float(p)
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))

    def term(ball):
        mem = space.members(ball)
        if np.any(mem & ~big):
            return None
        return _jn_term(space, v, mem, p)

    pool = []
    pool_term = []
    for c in range(space.m):
        if not mask0[c]:
            continue
        for r in space.critical_radii(c):
            ball = Ball(c, float(r))
            t = term(ball)
            if t is not None:
                pool.append(ball)
                pool_term.append(t)

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
        sig_first = {}
        for i, b in enumerate(pool):
            key = (space.members(b).tobytes()
                   + space.members(b.dilate(0.2)).tobytes())
            sig_first.setdefault(key, i)
        dedup = sorted(sig_first.values())
        fifth = {i: space.members(pool[i].dilate(0.2)) for i in dedup}

        def extend(chosen, start, val):
            nonlocal evals
            for t in range(start, len(dedup)):
                if evals >= budget:
                    return
                i = dedup[t]
                if any(np.any(fifth[i] & fifth[j]) for j in chosen):
                    continue
                grown = chosen + (i,)
                evals += 1
                consider(val + pool_term[i],
                         tuple(pool[j] for j in grown), grown)
                extend(grown, t + 1, val + pool_term[i])

        extend((), 0, 0.0)

    family = check_admissible(space, b0, best_balls)
    if best_balls and not family.admissible:
        raise InvariantViolation("search produced an inadmissible family",
                                 flags=(family.centered, family.contained,
                                        family.fifth_disjoint))
    return JnSearchResult(
        value=best_val,
        norm=best_val ** (1.0 / p) if best_val > 0 else 0.0,
        p=p,
        family=family,
        evaluations=evals,
    )
