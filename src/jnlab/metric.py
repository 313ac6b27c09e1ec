"""Finite metric measure spaces with doubling geometry.

Points are indices 0..m-1 with positive weights; balls are open,
``B(c, r) = {x : d(c, x) < r}``.  Every ball's member set is realized by
one of finitely many critical radii per center (midpoints between
consecutive distinct distances, or the farther one where the midpoint
rounds onto the nearer), which makes suprema over all real radii
exactly computable.  Mean oscillations and averages are weighted.  A ball
is a prefix of its center's distance order, so its measure, integral and
mean are read from the sorted prefix tables (`_ball_sums`), one mean a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import _pow, _sum_left
from .errors import (InvariantViolation, MetricAxiomError, PreconditionError, _check_jn_value,
                     _check_p, _jn_underflow)
from .grid import _Memoized

__all__ = [
    "Ball",
    "BallFamily",
    "JnSearchResult",
    "MetricMeasureSpace",
    "bmo_norm_metric",
    "build_space",
    "check_admissible",
    "doubling_constant",
    "global_maximal",
    "hl_maximal_restricted",
    "jnp_metric_lower",
    "space_from_csv",
    "space_from_points",
    "space_to_csv",
    "values_from_csv",
    "values_to_csv",
    "vitali_subcover",
]


@dataclass(frozen=True)
class Ball:
    """Open ball: index of the center point and a positive radius."""

    center: int
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "radius", float(self.radius))

    def dilate(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)


# the range of distances between distinct points: from the smallest
# normal float up, every radius's fifth r * 0.2 is positive, and up to
# max / 32, d_ik + d_kj, the radius 1.5 d + 1 past the farthest point and
# 11 times such a radius are finite
_D_MIN, _D_MAX = np.finfo(np.float64).tiny, np.finfo(np.float64).max / 32

# the triangle check's block of (rows, columns); its sums fill a
# rows x columns x m buffer, 600 KB at m = 600
_TRIANGLE_TILE = (8, 16)


def _validate_metric(d: np.ndarray, w: np.ndarray) -> None:
    m = d.shape[0]
    if d.shape != (m, m):
        raise MetricAxiomError(f"distance matrix must be square, got {d.shape}")
    if w.shape != (m,):
        raise MetricAxiomError(f"need {m} weights, got shape {w.shape}")
    if m == 0:
        raise MetricAxiomError("a space needs at least one point")
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise MetricAxiomError("non-finite distance", witness=(int(i), int(j)))
    if not np.all(np.isfinite(w) & (w > 0)):
        i = int(np.flatnonzero(~(np.isfinite(w) & (w > 0)))[0])
        raise MetricAxiomError("weights must be positive and finite",
                               witness=(i, float(w[i])))
    if np.any(np.diag(d) != 0.0):
        i = int(np.flatnonzero(np.diag(d) != 0.0)[0])
        raise MetricAxiomError("nonzero diagonal distance", witness=(i, float(d[i, i])))
    apart = d >= _D_MIN
    np.fill_diagonal(apart, True)
    if not apart.all():
        i, j = np.argwhere(~apart)[0]
        raise MetricAxiomError("distinct points at distance below 2^-1022",
                               witness=(int(i), int(j), float(d[i, j])))
    top = float(d.max())
    if top > _D_MAX:
        i, j = np.unravel_index(np.argmax(d), d.shape)
        raise MetricAxiomError("distance too large: sums of distances could overflow",
                               witness=(int(i), int(j), top))
    scale = top if m > 1 else 1.0
    tol = 1e-12 * max(1.0, scale)
    asym = np.subtract(d, d.T)
    np.abs(asym, out=asym)
    if float(asym.max(initial=0.0)) > tol:
        i, j = np.argwhere(asym == asym.max())[0]
        raise MetricAxiomError("asymmetric distances",
                               witness=(int(i), int(j), float(d[i, j]), float(d[j, i])))
    # min-plus on contiguous blocks: best[i, j] = min_k fl(d_ik + dT_jk),
    # the per-k loop's sums with dT_jk = d_kj.  fl(d_ij - x) is monotone in
    # x, so max_k fl(d_ij - fl(d_ik + d_kj)) = fl(d_ij - best[i, j]) and the
    # verdict is the per-k loop's.  A bitwise symmetric d is its own dT, and
    # a violation at (i, j) has an equal mirror at (j, i), so a row block
    # needs only the columns j >= its first row.
    sym = not asym.any()
    del asym  # keep one m x m temporary alive at a time
    dT = d if sym else np.ascontiguousarray(d.T)
    rows, cols = _TRIANGLE_TILE
    buf = np.empty((min(rows, m), min(cols, m), m))
    best = np.empty((buf.shape[0], m))
    worst, at = tol, None  # the worst violation, first in row-major order
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        j0 = lo if sym else 0
        for c in range(j0, m, cols):
            t = buf[:hi - lo, :min(cols, m - c)]
            np.add(d[lo:hi, None], dT[None, c:c + cols], out=t)
            np.minimum.reduce(t, axis=2, out=best[:hi - lo, c:c + cols])
        bad = np.subtract(d[lo:hi, j0:], best[:hi - lo, j0:], out=best[:hi - lo, j0:])
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        if bad[i, j] > worst:
            worst, at = float(bad[i, j]), (lo + int(i), j0 + int(j))
    if at is not None:
        i, j = at
        k = int(np.argmin(d[i] + d[:, j]))
        raise MetricAxiomError(
            "triangle inequality fails",
            witness=(i, j, k, float(d[i, j]), float(d[i, k] + d[k, j])),
        )
    with np.errstate(over="ignore"):  # the same sum as `total_measure`
        total = float(np.sum(w))
    if not math.isfinite(total):
        raise MetricAxiomError("total weight is not finite")


def _tie_group_ends(sd: np.ndarray) -> np.ndarray:
    """True where a sorted-distance row (last axis) ends a tie group."""
    ends = np.ones(sd.shape, dtype=bool)
    ends[..., :-1] = sd[..., 1:] != sd[..., :-1]
    return ends


def _radius_at(sd: np.ndarray) -> np.ndarray:
    """Radius of the realized ball ending at each position of a sorted-
    distance row (last axis): the midpoint to the next distance, or the next
    distance itself where the two are adjacent floats and the midpoint
    rounds onto the first (the open ball of that radius would lose the tie
    group ending there); 1.5 * last + 1 past the farthest point.  Read at
    tie-group ends."""
    rad = np.empty_like(sd)
    near, nxt, mid = sd[..., :-1], sd[..., 1:], rad[..., :-1]
    np.add(near, nxt, out=mid)
    mid *= 0.5
    np.copyto(mid, nxt, where=mid <= near)
    rad[..., -1] = 1.5 * sd[..., -1] + 1.0
    return rad


def _stable_order(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orders, sorted_d): each row's stable argsort (ties by index) and
    its sorted distances.  A row of distinct distances has one sorted
    order, so the default (unstable, vectorized) argsort gives it; only
    the rows whose sorted distances hold an equal neighbour are sorted
    again stably.  Their sorted distances need no new gather: equal
    distances are bitwise equal, since a row holds one zero, its diagonal."""
    orders = np.argsort(d, axis=1)
    sd = np.take_along_axis(d, orders, axis=1)
    tied = np.flatnonzero(np.any(sd[:, 1:] == sd[:, :-1], axis=1))
    if tied.size:
        orders[tied] = np.argsort(d[tied], axis=1, kind="stable")
    return orders, sd


class MetricMeasureSpace(_Memoized):
    """Validated finite metric measure space (distances and weights)."""

    def __init__(self, dmat, weights):
        # own copies: the caller's arrays (and any views of them) stay
        # writable without reaching the validated distances or weights
        d = np.array(dmat, dtype=np.float64, order="C")
        w = np.array(weights, dtype=np.float64).reshape(-1)
        _validate_metric(d, w)
        self.d = d
        self.w = w
        self.d.setflags(write=False)
        self.w.setflags(write=False)
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.w.size

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.w))

    # ------------------------------------------------------- sorted tables

    def _sorted_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self._memo("sorted", lambda: _stable_order(self.d))

    @property
    def orders(self) -> np.ndarray:
        """Per-center stable distance order of all points (ties by index)."""
        return self._sorted_tables()[0]

    @property
    def sorted_d(self) -> np.ndarray:
        return self._sorted_tables()[1]

    @property
    def wcum(self) -> np.ndarray:
        """Cumulative weight along each center's distance order."""
        return self._memo("wcum", lambda: np.cumsum(self.w[self.orders], axis=1))

    # ------------------------------------------------------- ball algebra

    def members(self, ball: Ball) -> np.ndarray:
        if not 0 <= ball.center < self.m:
            raise ValueError(f"center {ball.center} out of range (m={self.m})")
        return self.d[ball.center] < ball.radius

    def measure_mask(self, mask: np.ndarray) -> float:
        return float(np.sum(self.w[mask]))

    def check_values(self, f) -> np.ndarray:
        v = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
        if v.size != self.m:
            raise ValueError(f"need {self.m} point values, got {v.size}")
        if not np.all(np.isfinite(v)):
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at point {i}: {v[i]}")
        return v


def build_space(dmat, weights=None) -> MetricMeasureSpace:
    """Space from an explicit distance matrix (unit weights by default);
    ``space_from_points`` builds one from coordinates."""
    d = np.asarray(dmat, dtype=np.float64)
    w = np.ones(d.shape[0]) if weights is None else weights
    return MetricMeasureSpace(d, w)


def space_from_points(points, weights=None) -> MetricMeasureSpace:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=2))
    w = np.ones(pts.shape[0]) if weights is None else weights
    return MetricMeasureSpace(d, w)


def doubling_constant(space: MetricMeasureSpace) -> float:
    """Exact sup over centers x and real radii r > 0 of
    mu(B(x, 2r)) / mu(B(x, r)).

    Let a_0 = 0 < a_1 < ... be the distinct distances from x.  For r in
    (a_j, a_{j+1}] the ball B(x, r) is the tie groups up to a_j, and
    B(x, 2r) grows with r, so the sup over that interval is
    mu(d < 2 a_{j+1}) / mu(d <= a_j).  Past the largest distance the ratio
    is 1.  Both measures are entries of the center's cumulative weights.
    """
    def build():
        best = 1.0
        sd, wcum = space.sorted_d, space.wcum
        ends = _tie_group_ends(sd)
        for c in range(space.m):
            ds = sd[c]
            nxt = np.flatnonzero(ends[c, :-1]) + 1  # first position of each group a_{j+1}
            if nxt.size == 0:
                continue
            k_2r = np.searchsorted(ds, 2.0 * ds[nxt], side="left")
            cand = float(np.max(wcum[c][k_2r - 1] / wcum[c][nxt - 1]))
            if cand > best:
                best = cand
        return best
    return space._memo("doubling", build)


def _ball_arrays(space: MetricMeasureSpace, balls) -> tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of a ball family; ValueError for a center out of range."""
    centers = np.array([b.center for b in balls], dtype=np.int64)
    bad = np.flatnonzero((centers < 0) | (centers >= space.m))
    if bad.size:
        raise ValueError(f"center {centers[bad[0]]} out of range (m={space.m})")
    return centers, np.array([b.radius for b in balls], dtype=np.float64)


def _member_rows(space: MetricMeasureSpace, balls) -> np.ndarray:
    """The member sets of a ball family as the rows of one boolean array,
    each bitwise `members`."""
    centers, radii = _ball_arrays(space, balls)
    return space.d[centers] < radii[:, None]


def _first_overlap(masks) -> tuple[int, int] | None:
    """First pair i < j, in lexicographic order, of member-set rows that
    share a point; None when the rows are pairwise disjoint."""
    if len(masks) < 2:
        return None
    rows = np.array(masks, dtype=np.float64)
    hits = np.argwhere(np.triu(rows @ rows.T, k=1) > 0)
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


def _escapes(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether member-set row i has a point outside mask j: a rows x masks
    array, or one flag per row for a single mask.  A 0/1 matmul counts
    those points, as `_first_overlap` counts shared ones."""
    return rows.astype(np.float64) @ np.logical_not(masks).T.astype(np.float64) > 0


def vitali_subcover(space: MetricMeasureSpace, balls) -> list[int]:
    """Greedy 5r-covering selection: scan by non-increasing radius (ties by
    input position), keep balls whose member sets are disjoint from all
    kept ones.  Returns indices into `balls` in selection order.

    Postconditions (checked): kept member sets pairwise disjoint; every
    input ball's member set lies in the union of the kept 5-dilates.
    """
    balls = list(balls)
    rows = _member_rows(space, balls)
    order = sorted(range(len(balls)), key=lambda i: (-balls[i].radius, i))
    kept: list[int] = []
    union = np.zeros(space.m, dtype=bool)
    for i in order:
        if not np.any(rows[i] & union):
            kept.append(i)
            union |= rows[i]

    cover5 = _member_rows(space, [balls[i].dilate(5.0) for i in kept]).any(axis=0)
    escape = np.flatnonzero(_escapes(rows, cover5))
    if escape.size:
        i = int(escape[0])
        raise InvariantViolation("input ball escapes the kept 5-dilates", ball=balls[i], index=i)
    pair = _first_overlap(rows[kept])
    if pair is not None:
        first, second = (balls[kept[k]] for k in pair)
        raise InvariantViolation("kept balls intersect", first=first, second=second)
    return kept


# ------------------------------------------------------------------ maximal

_MERGE_ENTRIES = 2**15  # (center, point) entries per block of the witness merge


def _witness_arrays(space: MetricMeasureSpace, g: np.ndarray, mask0: np.ndarray):
    """Per point: the largest g-average over realized balls containing it
    whose member sets sit inside mask0, and the ball attaining it (ties:
    smaller radius, then smaller center).  Returns (values, radii, centers);
    -inf, inf and -1 where no ball qualifies (points outside mask0).

    Rows are the centers in mask0, columns their sorted positions.  A ball
    ending at position k qualifies when k ends a tie group and no position
    up to k leaves mask0.  A point at position k lies in exactly the balls
    ending at k or later, so its best ball is a suffix maximum.  Each
    (row x position) temporary is freed once spent, to bound peak memory.

    The centers' best balls merge per point as a lexicographic reduction
    over a block of centers at a time: the largest value, then among the
    centers holding it (+0.0 and -0.0 alike) the smallest radius, then the
    first center; a block's winner replaces the earlier blocks' only when
    it is strictly better, so the result is the first best center, as a
    loop over centers in ascending order would keep.  Radii come from one
    `_radius_at` table of the block's rows, read only where a center holds
    the block's largest value at a point.
    """
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
    # earliest allowed end attaining the suffix maximum = smaller radius
    end = np.where(avg == best, np.arange(m), m)
    del avg
    np.minimum.accumulate(end[:, ::-1], axis=1, out=end[:, ::-1])
    np.minimum(end, m - 1, out=end)
    np.fmax(best, -np.inf, out=best)  # a NaN mean never wins, as -inf
    pts = np.arange(m)
    step = max(1, _MERGE_ENTRIES // m)
    for lo in range(0, cent.size, step):
        val = best[lo:lo + step]
        n = val.shape[0]
        # flat index of each (center, position) entry in the block's
        # (center, point) tables: values, then radii
        at = orders[lo:lo + n] + (np.arange(n) * m)[:, None]
        by_val = np.empty((n, m))
        by_val.reshape(-1)[at] = val
        top = by_val.max(axis=0)
        top[top == -np.inf] = np.nan  # no qualifying ball: no candidate
        tie = np.flatnonzero(val == top[orders[lo:lo + n]])  # flat (center, position)
        e = np.take(end[lo:lo + n], tie)
        e += tie - tie % m  # flat (center, end position)
        rad = np.take(_radius_at(sd[lo:lo + n]), e)
        by_rad = np.full((n, m), np.inf)
        by_rad.reshape(-1)[np.take(at, tie)] = rad
        first = np.argmin(by_rad, axis=0)  # the first center of smallest radius
        rad = by_rad[first, pts]
        val = by_val[first, pts]
        win = val > values
        win |= (val == values) & (rad < radii)  # a -inf value never wins
        values[win] = val[win]
        radii[win] = rad[win]
        centers[win] = cent[lo + first[win]]
    return values, radii, centers


def hl_maximal_restricted(space: MetricMeasureSpace, f, b0: Ball) -> np.ndarray:
    """Hardy-Littlewood maximal function restricted to b0: at each point of
    b0, the largest |f|-average over realized balls containing the point
    with member set inside b0; NaN outside b0."""
    g = np.abs(space.check_values(f))
    mask0 = space.members(b0)
    out, _, _ = _witness_arrays(space, g, mask0)
    if np.any(~np.isfinite(out[mask0])):
        # every point of B0 sees at least its own singleton ball
        raise InvariantViolation("point of B0 with no admissible ball")
    out[~mask0] = np.nan
    return out


def global_maximal(space: MetricMeasureSpace, f) -> np.ndarray:
    """Unrestricted maximal |f|-average over all realized balls."""
    g = np.abs(space.check_values(f))
    return _witness_arrays(space, g, np.ones(space.m, dtype=bool))[0]


_EPS = 2.0**-52
_OSC_NODES = 8  # quantiles of f that serve as nodes of the oscillation bound


def _prefix_sums(space: MetricMeasureSpace, v: np.ndarray, rows) -> np.ndarray:
    """F = sum w v, left to right, at every sorted position of centers `rows`."""
    fcum = (v * space.w)[space.orders[rows]]
    return np.cumsum(fcum, axis=1, out=fcum)


def _prefix_means(space: MetricMeasureSpace, v: np.ndarray, rows) -> np.ndarray:
    """fl(F / W) at every sorted position of centers `rows`, W = `space.wcum`."""
    fcum = _prefix_sums(space, v, rows)
    return np.divide(fcum, space.wcum[rows], out=fcum)


def _ball_sums(space: MetricMeasureSpace, fcum: np.ndarray, centers, radii) -> tuple:
    """(W, F) of the balls B(centers[i], radii[i]), F from row i of `fcum =
    _prefix_sums(space, v, centers)`: a ball is its center's sorted positions
    0..k, k = count(sorted_d[c] < r) - 1, and F / W is `_prefix_means` at k."""
    k = np.count_nonzero(space.sorted_d[centers] < radii[:, None], axis=1) - 1
    return space.wcum[centers, k], fcum[np.arange(k.size), k]


def _family_sums(space: MetricMeasureSpace, v: np.ndarray, balls) -> tuple:
    """(W, F) of each ball of a family, by `_ball_sums`."""
    centers, radii = _ball_arrays(space, balls)
    return _ball_sums(space, _prefix_sums(space, v, centers), centers, radii)


def _osc_nodes(v: np.ndarray) -> np.ndarray:
    """At least two increasing nodes for `_osc_bounds`: _OSC_NODES
    quantiles of v and its maximum."""
    s = np.sort(v)
    t = np.unique(np.append(s[np.arange(_OSC_NODES) * s.size // _OSC_NODES], s[-1]))
    if t.size == 1:
        t = np.append(t, t[0] + max(abs(float(t[0])), 1.0))
    return t


def _osc_bounds(space: MetricMeasureSpace, lo: int, hi: int, v: np.ndarray,
                t: np.ndarray, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Into `out`: for centers lo..hi-1 and every sorted position, a bound
    on the computed mean oscillation of the ball ending there, -inf where
    no realized ball ends (see `bmo_norm_metric`).  Returns the prefix
    means, `_prefix_means(space, v, slice(lo, hi))`.  `buf` is scratch of
    at least m * t.size * (hi - lo) elements."""
    o, wcum = space.orders[lo:hi], space.wcum[lo:hi]
    a = _prefix_means(space, v, slice(lo, hi))
    # at[k, b, c] = T(t_b) over the first k+1 points of center lo+c:
    # position-major, so that each step adds whole rows
    at = buf[:space.m * t.size * (hi - lo)].reshape(space.m, t.size, hi - lo)
    np.subtract(v[o.T][:, None, :], t[:, None], out=at)
    np.abs(at, out=at)
    at *= space.w[o.T][:, None, :]
    for k in range(1, space.m):
        np.add(at[k - 1], at[k], out=at[k])
    j = np.searchsorted(t, a, side="right") - 1
    np.clip(j, 0, t.size - 2, out=j)
    tl, tr = t[j], t[j + 1]
    ac = np.clip(a, tl, tr)  # a'
    h = tr - tl
    lam = np.subtract(tr, ac, out=tr)
    lam /= h
    lam += 2.0**-1074
    # flat index of at[k, j[c, k], c], in the (center, position) shape of j
    n = hi - lo
    flat = np.multiply(j, n, out=j)
    flat += np.arange(n)[:, None]
    flat += np.arange(space.m) * (t.size * n)
    lam *= np.take(at, flat)
    mu = np.subtract(ac, tl, out=tl)
    mu /= h
    mu += 2.0**-1074
    flat += n  # node j + 1
    mu *= np.take(at, flat)
    del at
    lam += mu
    outside = np.subtract(a, ac, out=ac)
    np.abs(outside, out=outside)
    outside *= wcum
    lam += outside
    np.divide(lam, wcum, out=out)
    n = np.arange(1.0, space.m + 1.0)  # points in each prefix
    out *= 1.0 + (2.0 * n + 32.0) * _EPS
    tiny = np.reciprocal(wcum, out=mu)
    tiny += 1.0
    tiny *= (8.0 * n + 32.0) * 2.0**-1070
    out += tiny
    out[~_tie_group_ends(space.sorted_d[lo:hi])] = -np.inf
    return a


def bmo_norm_metric(space: MetricMeasureSpace, f) -> float:
    """Largest weighted mean oscillation of f over all realized balls.

    The ball ending at sorted position k of center c has, as computed,
    the mean a = fl(F_k / W_k) of the prefix sums F (of w f) and W (of
    w), and the value r = fl(S / W_k), where S sums w_i |f_i - a| left
    to right (`kernels.osc_entries`).  Summing every entry costs O(m^3).
    Instead every entry gets a bound ub >= r in O(m^2 q), per tile of
    centers, for q = _OSC_NODES; each center's entry of largest bound is
    summed exactly, the best of these is the incumbent L, and then
    exactly the entries where ub < L is not true are summed.  The maximum
    is bitwise that of summing every entry, since a pruned entry has
    r <= ub < L.

    The bound: T(x) = sum_{i<=k} w_i |f_i - x| is convex in x, so for
    nodes t_j < t_{j+1} (quantiles of f, so few points lie between two
    nodes) and a' the point of [t_j, t_{j+1}] nearest a,

        T(a) <= lam T(t_j) + mu T(t_{j+1}) + W |a - a'|,

    lam = (t_{j+1} - a') / (t_{j+1} - t_j), mu = (a' - t_j) / (t_{j+1} - t_j).
    Every sum in it has non-negative terms, so rounding costs relative
    error only, with u = eps / 2: S <= (1 + u)^(n+1) T(a) for n = k + 1
    points, each computed T(t_b) is at least (1 - u)^(n+1) times the
    exact one, W_k at least (1 - u)^(n-1) times the exact weight, and lam
    and mu, each raised by 2^-1074 to cover an underflowing quotient, at
    least (1 - u) / (1 + u)^2 times the exact ones.  The bound's few
    operations after that cost (1 - u)^10 at most, so the factor
    (1 + (2n + 32) eps) on the computed bound divided by W_k covers
    r <= (1 + u)^(n+2) T(a) / W_k.  Underflow adds at most
    (2n + 8) 2^-1075 (1 + 1/W_k) to any of these, and
    tiny = (8n + 32) 2^-1070 (1 + 1/W_k) covers it.  A bound that
    overflows is inf or NaN; neither is below L, so it never prunes.

    PreconditionError unless 4 max(max |f|, sum w |f|) < 2^1023 (checked
    on exponents, so the check itself cannot overflow): otherwise a
    prefix sum, a difference f - a or a sum S could overflow, and the
    norm would not be finite.
    """
    v = space.check_values(f)
    m, w = space.m, space.w
    absv = np.abs(v)
    top = float(absv.max())
    e_top = math.frexp(top)[1]  # |f| < 2^e_top
    mass = float(np.dot(w, np.ldexp(absv, -e_top)))  # sum w |f| / 2^e_top
    if not math.isfinite(mass) or e_top + math.frexp(max(mass, 1.0))[1] > 1021:
        raise PreconditionError("values too large for the BMO norm: its sums could overflow",
                                max_abs=top)
    t = _osc_nodes(v)
    orders, wcum = space.orders, space.wcum
    # a tile's node table fills one block the size of an m x m array, so
    # that the allocator reuses the blocks of the space's own tables
    rows = max(1, m // t.size)
    tiles = [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    ub = np.empty((m, m))
    seed_k = np.empty(m, dtype=np.int64)
    seed_avg = np.empty(m)
    buf = np.empty(m * max(m, t.size))
    for lo, hi in tiles:
        a = _osc_bounds(space, lo, hi, v, t, ub[lo:hi], buf)
        seed_k[lo:hi] = np.argmax(ub[lo:hi], axis=1)
        seed_avg[lo:hi] = a[np.arange(hi - lo), seed_k[lo:hi]]
    del buf
    centers = np.arange(m)
    osc = kernels.osc_entries(orders, w, v, centers, seed_k, seed_avg)
    best = float(np.max(osc / wcum[centers, seed_k]))
    ub[centers, seed_k] = -np.inf  # summed already
    cand_c, cand_k, cand_avg = [], [], []
    for lo, hi in tiles:
        r, k = np.nonzero(~(ub[lo:hi] < best))
        if r.size:
            cand_c.append(r + lo)
            cand_k.append(k)
            cand_avg.append(_prefix_means(space, v, slice(lo, hi))[r, k])
    del ub
    if cand_c:
        cand_c, cand_k = np.concatenate(cand_c), np.concatenate(cand_k)
        osc = kernels.osc_entries(orders, w, v, cand_c, cand_k, np.concatenate(cand_avg))
        best = max(best, float(np.max(osc / wcum[cand_c, cand_k])))
    return max(0.0, best)


# ------------------------------------------------------------- admissible


@dataclass
class BallFamily:
    """A candidate family for the JN_p functional with its admissibility
    flags: centers in B0, member sets inside 11*B0, and pairwise disjoint
    (1/5)-dilates.  `truncated` records that 11*B0 already swallows every
    point, so containment could not be certified geometrically."""

    balls: tuple[Ball, ...]
    centered: bool
    contained: bool
    fifth_disjoint: bool
    truncated: bool
    witness: dict

    @property
    def admissible(self) -> bool:
        return self.centered and self.contained and self.fifth_disjoint


def check_admissible(space: MetricMeasureSpace, b0: Ball, balls) -> BallFamily:
    balls = tuple(balls)
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    # ValueError for a center out of range, before any center indexes mask0
    escape = np.flatnonzero(_escapes(_member_rows(space, balls), big))
    witness: dict = {}
    off = [b for b in balls if not mask0[b.center]]
    if off:
        witness["off_center"] = off[0]
    if escape.size:
        witness["escapes_11B0"] = balls[escape[0]]
    pair = _first_overlap(_member_rows(space, [b.dilate(0.2) for b in balls]))
    if pair is not None:
        witness["fifth_overlap"] = (balls[pair[0]], balls[pair[1]])
    return BallFamily(
        balls=balls,
        centered=not off,
        contained=not escape.size,
        fifth_disjoint=pair is None,
        truncated=bool(np.all(big)),
        witness=witness,
    )


@dataclass
class JnSearchResult:
    """Certified lower bound for the metric JN_p functional."""

    value: float  # sum mu(B_i) osc(B_i)^p over the best family found
    norm: float   # value ** (1/p)
    p: float
    family: BallFamily
    evaluations: int


def _family_jn_sum(space: MetricMeasureSpace, v: np.ndarray, balls, p: float) -> float:
    """sum W (S / W)^p over a family, left to right, in Python floats (so an
    overflow is inf): W and the mean a from the prefix tables, S = sum w |v - a|
    by one mask per ball, cheaper for the few large balls outside the search
    pool (5-dilates, B0, 11*B0) than `kernels.osc_entries`' position walk."""
    meas, integ = _family_sums(space, v, balls)
    total = 0.0
    for mask, wsum, fsum in zip(_member_rows(space, balls), meas.tolist(), integ.tolist()):
        osc = float(np.sum(space.w[mask] * np.abs(v[mask] - fsum / wsum))) / wsum
        total += _check_jn_value(wsum * _pow(osc, p), p)
    return total


def _bits(mask: np.ndarray) -> int:
    """A boolean point mask as a Python-int bitset: two masks share a point
    iff the AND of their bitsets is nonzero."""
    return int.from_bytes(np.packbits(mask).tobytes(), "big")


def _jn_pool(space: MetricMeasureSpace, v: np.ndarray, b0: Ball, p: float):
    """(centers, radii, terms) of the search pool, in center-then-radius
    order: every (center c in B0, tie-group end k) entry of the sorted
    tables whose radius is at most c's reach, the distance from c to the
    nearest point outside 11*B0.  A term is W (S / W)^p with
    W = wcum[c, k] and S = sum w |v - a| about the prefix mean a, all
    summed left to right; PreconditionError, with no numpy warning, when
    one is not finite."""
    cent = np.flatnonzero(space.members(b0))
    outside = ~space.members(b0.dilate(11.0))
    reach = np.min(space.d[cent], axis=1, where=outside, initial=np.inf)
    # each (centers x positions) table is freed once spent, to bound peak memory
    sd = space.sorted_d[cent]
    rad = _radius_at(sd)
    keep = _tie_group_ends(sd)
    del sd
    keep &= rad <= reach[:, None]
    row, end = np.nonzero(keep)
    del keep
    centers, radii = cent[row], rad[row, end]
    del rad
    with np.errstate(over="ignore", invalid="ignore"):
        avg = _prefix_means(space, v, cent)[row, end]
        del row
        terms = kernels.osc_entries(space.orders, space.w, v, centers, end, avg)
        del avg
        wsum = space.wcum[centers, end]
        terms /= wsum
        terms **= p
        terms *= wsum
    _check_jn_value(float(terms.max(initial=0.0)), p)
    return centers, radii, terms


_GREEDY_BLOCK = 1024  # pool balls per step of the greedy visit


def _greedy_family(space: MetricMeasureSpace, centers: np.ndarray, radii: np.ndarray,
                   terms: np.ndarray) -> list[int]:
    """Pool indices, ascending, of the density-greedy family: the pool
    balls by decreasing term / mu(fifth), ties in pool order, each kept
    when its term is positive and its fifth misses the kept fifths.

    The fifth d(c, .) < r/5 is a prefix of c's distance order, of length
    one `searchsorted` on `sorted_d[c]`, so it is free iff the first
    position of a kept point in c's order is at least that length.
    Keeping a ball lowers every center's first position through the
    inverse of `orders`; the kept fifths are disjoint, so that costs
    O(m^2) in all.  The visit runs a block of balls per numpy step."""
    m, orders = space.m, space.orders
    start = np.flatnonzero(np.diff(centers, prepend=-1))  # the pool is center-major
    flen = np.concatenate([np.searchsorted(space.sorted_d[c], r * 0.2)
                           for c, r in zip(centers[start], np.split(radii, start[1:]))])
    with np.errstate(over="ignore"):  # an infinite density only puts a ball first
        key = np.divide(terms, space.wcum[centers, flen - 1])
    visit = np.argsort(np.negative(key, out=key), kind="stable")
    del key
    inv = np.empty_like(orders)
    inv[np.arange(m)[:, None], orders] = np.arange(m)
    first = np.full(m, m)  # per center, the first position of a kept point
    kept, at = [], 0
    while at < visit.size:
        block = visit[at:at + _GREEDY_BLOCK]
        free = (first[centers[block]] >= flen[block]) & (terms[block] > 0)
        j = int(np.argmax(free))
        if free[j]:
            i = int(block[j])
            kept.append(i)
            np.minimum(first, inv[:, orders[centers[i], :flen[i]]].min(axis=1), out=first)
        at += j + 1 if free[j] else block.size
    return sorted(kept)


def jnp_metric_lower(space: MetricMeasureSpace, f, b0: Ball, p: float,
                     budget: int = 4000) -> JnSearchResult:
    """Deterministic search for a heavy admissible family.

    The pool holds one ball per center in B0 and realized member set (one
    per tie group of the center's sorted distances) that stays inside
    11*B0: the arrays `centers` and `radii`, in center-then-radius order,
    and the terms mu(B) osc_B(f)^p, built in one pass over the sorted
    tables by `_jn_pool`.  At a spanning B0 it has m^2 balls.

    An evaluation is the sum over one candidate family; `budget` >= 1 caps
    them.  The seed is the pool's best ball (the first of equal terms),
    then, at budget >= 2, the density-greedy family: one evaluation each.
    Only when the pool is smaller than the budget does a depth-first
    enumeration of the admissible subsets of the pool, deduplicated by
    member set and fifth, spend the rest; it completes on small spaces,
    and the value is then the pool's supremum.  Only then is each pool
    ball's fifth and member set built, once, as a bitset over the m
    points, so each table holds fewer than budget x m bits.  The value is
    at least the best pool term and non-decreasing in budget.  The
    incumbent is a tuple of pool indices, made `Ball`s once, at the end.
    PreconditionError when the value underflows to 0 although f is not
    constant on some pool ball, since a bound built on it would read 0.
    """
    v = space.check_values(f)
    p = _check_p(p)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    centers, radii, terms = _jn_pool(space, v, b0, p)

    best_val, best_idx = 0.0, ()

    def consider(val: float, idx) -> None:
        nonlocal best_val, best_idx
        if val > best_val:
            best_val, best_idx = val, tuple(idx)

    i = int(np.argmax(terms))
    consider(float(terms[i]), (i,))
    evals = min(budget, 2)
    if budget >= 2:
        fam = _greedy_family(space, centers, radii, terms)
        consider(_sum_left(terms[fam].tolist()), fam)

    # the enumeration; same-center balls always clash, so the admissible
    # count stays tame on small spaces and the DFS finishes there
    if terms.size < budget:
        d, terms = space.d, terms.tolist()
        fbits = [_bits(d[c] < r * 0.2) for c, r in zip(centers, radii)]
        first: dict[tuple[int, int], int] = {}
        for i, (c, r) in enumerate(zip(centers, radii)):
            first.setdefault((_bits(d[c] < r), fbits[i]), i)
        dedup = list(first.values())  # ascending: first occurrences
        chosen: list[int] = []

        # `used` is the union of the chosen fifths
        def extend(start: int, used: int, val: float) -> None:
            nonlocal evals
            for t in range(start, len(dedup)):
                if evals >= budget:
                    return
                i = dedup[t]
                if fbits[i] & used:
                    continue
                chosen.append(i)
                evals += 1
                consider(val + terms[i], chosen)
                extend(t + 1, used | fbits[i], val + terms[i])
                chosen.pop()

        extend(0, 0, 0.0)

    best_val = _check_jn_value(best_val, p)  # a sum of finite terms may overflow
    if best_val == 0.0:
        # each center's pool balls are prefixes of its distance order, so
        # its last one holds them all; min != max, since a constant's
        # prefix mean can miss the constant by an ulp
        last = np.flatnonzero(np.diff(centers, append=-1))
        mem = space.d[centers[last]] < radii[last, None]
        vals = np.broadcast_to(v, mem.shape)
        if np.any(np.max(vals, axis=1, where=mem, initial=-np.inf)
                  != np.min(vals, axis=1, where=mem, initial=np.inf)):
            raise _jn_underflow(p)
    balls = tuple(Ball(int(centers[i]), float(radii[i])) for i in best_idx)
    family = check_admissible(space, b0, balls)
    if balls and not family.admissible:
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


# ------------------------------------------------------------------- IO


def _m_header(fh, what: str) -> int:
    """m from the ``m,<m>`` first line of a space or values CSV."""
    head = fh.readline().strip().split(",")
    if len(head) != 2 or head[0] != "m":
        raise ValueError(f"malformed {what} header: {head!r}")
    return int(head[1])


def space_to_csv(space: MetricMeasureSpace, path) -> None:
    """Header ``m,<m>``; then one row per point: m distances then the weight."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m,{space.m}\n")
        for i in range(space.m):
            row = [repr(float(x)) for x in space.d[i]] + [repr(float(space.w[i]))]
            fh.write(",".join(row) + "\n")


def space_from_csv(path) -> MetricMeasureSpace:
    with open(path, "r", encoding="ascii") as fh:
        m = _m_header(fh, "space")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) != m:
        raise ValueError(f"expected {m} rows, got {len(rows)}")
    d = np.empty((m, m))
    w = np.empty(m)
    for i, row in enumerate(rows):
        if len(row) != m + 1:
            raise ValueError(f"row {i} has {len(row)} fields, expected {m + 1}")
        d[i] = [float(x) for x in row[:m]]
        w[i] = float(row[m])
    return MetricMeasureSpace(d, w)


def values_to_csv(f: np.ndarray, path) -> None:
    """Header ``m,<m>``; then ``index,value`` rows."""
    v = np.asarray(f, dtype=np.float64).reshape(-1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m,{v.size}\n")
        for i, x in enumerate(v):
            fh.write(f"{i},{repr(float(x))}\n")


def values_from_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        m = _m_header(fh, "values")
        vals: dict[int, float] = {}
        for line in fh:
            if not line.strip():
                continue
            idx, val = line.strip().split(",")
            i = int(idx)
            if not 0 <= i < m:
                raise ValueError(f"value index {i} out of range for m={m}")
            if i in vals:
                raise ValueError(f"duplicate value index {i}")
            vals[i] = float(val)
    if len(vals) < m:
        missing = next(i for i in range(m) if i not in vals)
        raise ValueError(f"missing value for point {missing}")
    # every index is in range and unique, so the rows fill all m slots
    out = np.empty(m)
    out[list(vals)] = list(vals.values())
    return out
