"""Loop-based reference implementations of the metric prefix-table path.

These are the direct computations the vectorized kernels replaced: the
O(m^3) per-center oscillation table, the distinct-distance critical radii,
the per-center maximal loop and the per-center witness loop.  Tests compare
the package against them bitwise.
"""

from __future__ import annotations

import numpy as np

from jnlab.metric import Ball


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


def critical_radii(space, c):
    """Midpoints between consecutive distinct distances from center c, then
    one value past the largest."""
    vals = np.unique(space.sorted_d[c])
    if vals.size == 1:  # single point space
        return np.array([1.0])
    mids = 0.5 * (vals[:-1] + vals[1:])
    return np.append(mids, 1.5 * float(vals[-1]) + 1.0)


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
