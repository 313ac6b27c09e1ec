"""Finite metric measure spaces with doubling geometry.

Points are indices 0..m-1 with positive weights; balls are open,
``B(c, r) = {x : d(c, x) < r}``.  Every ball's member set is realized by
one of finitely many critical radii per center (midpoints between
consecutive distinct distances), which makes suprema over all real radii
exactly computable.  Mean oscillations and averages are weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (InvariantViolation, MetricAxiomError, PreconditionError, _check_jn_value,
                     _check_p)
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
    off = d + np.eye(m)  # lift the diagonal so only off-diagonal zeros trip
    if np.any(off <= 0):
        i, j = np.argwhere(off <= 0)[0]
        raise MetricAxiomError("distinct points at distance <= 0",
                               witness=(int(i), int(j), float(d[i, j])))
    scale = float(d.max()) if m > 1 else 1.0
    asym = np.abs(d - d.T)
    if float(asym.max(initial=0.0)) > 1e-12 * max(1.0, scale):
        i, j = np.argwhere(asym == asym.max())[0]
        raise MetricAxiomError("asymmetric distances",
                               witness=(int(i), int(j), float(d[i, j]), float(d[j, i])))
    tol = 1e-12 * max(1.0, scale)
    # one min-plus pass per row tile: best[i, j] = min_k fl(d_ik + d_kj).
    # fl(d_ij - x) is monotone in x, so max_k fl(d_ij - fl(d_ik + d_kj))
    # equals fl(d_ij - best[i, j]) and the verdict is the per-k loop's.
    rows = max(16, 2**14 // max(m, 1))
    best = np.empty((min(rows, m), m))
    via = np.empty_like(best)
    for lo in range(0, m, rows):
        blk = d[lo:lo + rows]
        b, v = best[:blk.shape[0]], via[:blk.shape[0]]
        np.add(blk[:, 0, None], d[0], out=b)
        for k in range(1, m):
            np.add(blk[:, k, None], d[k], out=v)
            np.minimum(b, v, out=b)
        bad = np.subtract(blk, b, out=b)
        if float(bad.max()) > tol:
            i, j = divmod(int(np.argmax(bad)), m)
            i += lo
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
    distance row (last axis): the midpoint to the next distance, or
    1.5 * last + 1 past the farthest point.  Read at tie-group ends."""
    rad = np.empty_like(sd)
    np.add(sd[..., :-1], sd[..., 1:], out=rad[..., :-1])
    rad[..., :-1] *= 0.5
    rad[..., -1] = 1.5 * sd[..., -1] + 1.0
    return rad


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

    @property
    def orders(self) -> np.ndarray:
        """Per-center stable distance order of all points (ties by index)."""
        return self._memo("orders", lambda: np.argsort(
            self.d, axis=1, kind="stable").astype(np.int64))

    @property
    def sorted_d(self) -> np.ndarray:
        return self._memo("sorted_d", lambda: np.take_along_axis(self.d, self.orders, axis=1))

    @property
    def wcum(self) -> np.ndarray:
        """Cumulative weight along each center's distance order."""
        return self._memo("wcum", lambda: np.cumsum(self.w[self.orders], axis=1))

    def group_ends(self, center: int) -> np.ndarray:
        """Sorted positions ending a tie group of equal distances; prefixes
        up to these positions are exactly the realized ball member sets."""
        return np.flatnonzero(_tie_group_ends(self.sorted_d[center]))

    def critical_radii(self, center: int) -> np.ndarray:
        """One radius per realized member set of balls at this center:
        midpoints between consecutive distinct distances, then one value
        past the largest distance."""
        return _radius_at(self.sorted_d[center])[self.group_ends(center)]

    # ------------------------------------------------------- ball algebra

    def members(self, ball: Ball) -> np.ndarray:
        if not 0 <= ball.center < self.m:
            raise ValueError(f"center {ball.center} out of range (m={self.m})")
        return self.d[ball.center] < ball.radius

    def measure_mask(self, mask: np.ndarray) -> float:
        return float(np.sum(self.w[mask]))

    def measure(self, ball: Ball) -> float:
        return self.measure_mask(self.members(ball))

    def integral_mask(self, f: np.ndarray, mask: np.ndarray) -> float:
        """Integral of f over the member set (weighted sum)."""
        return float(np.sum(self.w[mask] * f[mask]))

    def average_mask(self, f: np.ndarray, mask: np.ndarray) -> float:
        wsum = float(np.sum(self.w[mask]))
        if wsum == 0.0:
            raise ValueError("average over an empty member set")
        return float(np.sum(self.w[mask] * f[mask])) / wsum

    def osc_mask(self, f: np.ndarray, mask: np.ndarray) -> float:
        """Weighted mean oscillation of f over the member set."""
        avg = self.average_mask(f, mask)
        wsum = float(np.sum(self.w[mask]))
        return float(np.sum(self.w[mask] * np.abs(f[mask] - avg))) / wsum

    def check_values(self, f) -> np.ndarray:
        v = np.ascontiguousarray(f, dtype=np.float64).reshape(-1)
        if v.size != self.m:
            raise ValueError(f"need {self.m} point values, got {v.size}")
        if not np.all(np.isfinite(v)):
            i = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at point {i}: {v[i]}")
        return v


def build_space(points=None, dmat=None, weights=None) -> MetricMeasureSpace:
    """Space from coordinates (Euclidean metric) or an explicit matrix."""
    if (points is None) == (dmat is None):
        raise ValueError("provide exactly one of points / dmat")
    if points is not None:
        return space_from_points(points, weights)
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


def _first_overlap(masks) -> tuple[int, int] | None:
    """First pair i < j, in lexicographic order, of member-set rows that
    share a point; None when the rows are pairwise disjoint."""
    if len(masks) < 2:
        return None
    rows = np.array(masks, dtype=np.float64)
    hits = np.argwhere(np.triu(rows @ rows.T, k=1) > 0)
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


def vitali_subcover(space: MetricMeasureSpace, balls) -> list[int]:
    """Greedy 5r-covering selection: scan by non-increasing radius (ties by
    input position), keep balls whose member sets are disjoint from all
    kept ones.  Returns indices into `balls` in selection order.

    Postconditions (checked): kept member sets pairwise disjoint; every
    input ball's member set lies in the union of the kept 5-dilates.
    """
    balls = list(balls)
    order = sorted(range(len(balls)), key=lambda i: (-balls[i].radius, i))
    kept: list[int] = []
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
        if np.any(space.members(b) & ~cover5):
            raise InvariantViolation("input ball escapes the kept 5-dilates",
                                     ball=b, index=i)
    pair = _first_overlap([space.members(balls[i]) for i in kept])
    if pair is not None:
        first, second = (balls[kept[k]] for k in pair)
        raise InvariantViolation("kept balls intersect", first=first, second=second)
    return kept


# ------------------------------------------------------------------ maximal


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
    """
    m = space.m
    values = np.full(m, -np.inf)
    radii = np.full(m, np.inf)
    centers = np.full(m, -1, dtype=np.int64)
    cent = np.flatnonzero(mask0)
    orders, sd = space.orders[cent], space.sorted_d[cent]
    wcum, fcum = kernels.ball_tables(orders, space.w, g)
    avg = np.divide(fcum, wcum, out=fcum)
    del wcum
    allowed = np.logical_and.accumulate(mask0[orders], axis=1)
    allowed &= _tie_group_ends(sd)
    avg[~allowed] = -np.inf
    best = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
    # earliest allowed end attaining the suffix maximum = smaller radius
    end = np.where(avg == best, np.arange(m), m)
    del avg
    np.minimum.accumulate(end[:, ::-1], axis=1, out=end[:, ::-1])
    np.minimum(end, m - 1, out=end)
    rad = np.take_along_axis(_radius_at(sd), end, axis=1)
    del end
    # merge centers in ascending order; each row of orders is a permutation
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


def _prefix_means(space: MetricMeasureSpace, v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """fl(F / W) at every sorted position of centers lo..hi-1: the
    weighted mean of each prefix of their distance orders, bitwise as
    `kernels.ball_tables` sums F and W."""
    o = space.orders[lo:hi]
    fcum = v[o]
    fcum *= space.w[o]
    np.cumsum(fcum, axis=1, out=fcum)
    return np.divide(fcum, space.wcum[lo:hi], out=fcum)


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
    means, `_prefix_means(space, v, lo, hi)`.  `buf` is scratch of at
    least m * t.size * (hi - lo) elements."""
    o, wcum = space.orders[lo:hi], space.wcum[lo:hi]
    a = _prefix_means(space, v, lo, hi)
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
    lam *= np.take_along_axis(at, j.T[:, None, :], axis=1)[:, 0, :].T
    mu = np.subtract(ac, tl, out=tl)
    mu /= h
    mu += 2.0**-1074
    j += 1
    mu *= np.take_along_axis(at, j.T[:, None, :], axis=1)[:, 0, :].T
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
            cand_avg.append(_prefix_means(space, v, lo, hi)[r, k])
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
    witness: dict = {}

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
    pair = _first_overlap([space.members(b.dilate(0.2)) for b in balls])
    if pair is not None:
        witness["fifth_overlap"] = (balls[pair[0]], balls[pair[1]])
    return BallFamily(
        balls=balls,
        centered=centered,
        contained=contained,
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


def _jn_term(space: MetricMeasureSpace, v: np.ndarray, mask: np.ndarray,
             p: float) -> float:
    """mu(B) * osc_B(v)^p for the member set `mask` of one ball B."""
    try:
        term = space.measure_mask(mask) * space.osc_mask(v, mask) ** p
    except OverflowError:
        term = math.inf
    return _check_jn_value(term, p)


def _bits(mask: np.ndarray) -> int:
    """A boolean point mask as a Python-int bitset: two masks share a point
    iff the AND of their bitsets is nonzero."""
    return int.from_bytes(np.packbits(mask).tobytes(), "big")


def jnp_metric_lower(space: MetricMeasureSpace, f, b0: Ball, p: float,
                     budget: int = 4000) -> JnSearchResult:
    """Deterministic search for a heavy admissible family.

    The pool holds one ball per center in B0 and critical radius (one per
    tie group) whose member set stays inside 11*B0: the arrays `centers`
    and `radii`, in center-then-radius order, and the list `terms` of
    mu(B) osc_B(f)^p.  At a spanning B0 it has m^2 balls, so nothing the
    size of pool x m is built from all of it.

    Candidate stream (fixed order, independent of budget, so the result is
    non-decreasing in budget): all pool singletons, Vitali subcovers at
    several radius scales (both the disjoint balls and their 5-dilates),
    steepest-ascent add/swap moves over the pool, and finally a depth-first
    enumeration of admissible pool subsets, which completes on small spaces
    and turns the lower bound into the exact pool supremum there.  Every
    candidate family / move probe counts against `budget`, which must be at
    least 1.

    The singletons spend one evaluation per pool ball, so the later stages
    run only when the pool is smaller than the budget.  Only then is each
    pool ball's fifth built, once, as a bitset over the m points (and, for
    the enumeration's dedup, its member set): each table holds fewer than
    budget x m bits.  The incumbent is a tuple of pool indices, or the
    balls of a 5-dilate family, and becomes `Ball`s once, at the end.
    """
    v = space.check_values(f)
    p = _check_p(p)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    d = space.d
    outside = ~space.members(b0.dilate(11.0))
    # B(c, r) stays inside 11*B0 iff r <= reach[c], the distance from c to
    # the nearest point outside it
    reach = np.full(space.m, np.inf)
    centers, radii, terms = [], [], []
    for c in np.flatnonzero(space.members(b0)).tolist():
        reach[c] = d[c][outside].min(initial=np.inf)
        for r in space.critical_radii(c).tolist():
            if r <= reach[c]:
                centers.append(c)
                radii.append(r)
                terms.append(_jn_term(space, v, d[c] < r, p))
    n = len(terms)
    centers, radii = np.array(centers, dtype=np.int64), np.array(radii)

    best_val = 0.0
    best_idx: tuple[int, ...] = ()
    best_balls: tuple[Ball, ...] = ()

    def consider(val: float, idx, balls: tuple[Ball, ...] = ()) -> None:
        nonlocal best_val, best_idx, best_balls
        if val > best_val:
            best_val, best_idx, best_balls = val, tuple(idx), balls

    # 1. singletons (the first of equal terms wins)
    evals = min(n, budget)
    if evals:
        i = int(np.argmax(terms[:evals]))
        consider(terms[i], (i,))

    if evals < budget and n:
        fbits = [_bits(d[c] < r * 0.2) for c, r in zip(centers, radii)]

        # 2. Vitali seeds at a few radius scales
        for s in np.quantile(radii, [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]):
            if evals >= budget:
                break
            # the largest radius <= s of each center: pool order is center, then radius
            below = np.flatnonzero(radii <= s)
            cand = below[np.diff(centers[below], append=-1) != 0]
            kept = vitali_subcover(space, [Ball(int(centers[i]), float(radii[i]))
                                           for i in cand])
            fam = sorted(cand[kept].tolist())
            evals += 1
            consider(float(sum(terms[i] for i in fam)), fam)
            # disjoint balls have disjoint fifths, and so do their 5-dilates
            if evals >= budget:
                break
            dil = [Ball(int(centers[i]), float(radii[i]) * 5.0) for i in fam
                   if radii[i] * 5.0 <= reach[centers[i]]]
            if dil:
                evals += 1
                consider(float(sum(_jn_term(space, v, space.members(b), p) for b in dil)),
                         (), tuple(dil))

        # 3. steepest ascent (runs when the incumbent is a pool family)
        if best_idx and evals < budget:
            cur = list(best_idx)
            improved = True
            while improved and evals < budget:
                improved = False
                best_gain, best_move = 0.0, None
                for j in range(n):
                    if evals >= budget:
                        break
                    if j in cur:
                        continue
                    evals += 1
                    clash = [i for i in cur if fbits[j] & fbits[i]]
                    if not clash:
                        gain = terms[j]
                        if gain > best_gain:
                            best_gain, best_move = gain, (j, None)
                    elif len(clash) == 1:
                        gain = terms[j] - terms[clash[0]]
                        if gain > best_gain:
                            best_gain, best_move = gain, (j, clash[0])
                if best_move is not None:
                    j, old = best_move
                    if old is not None:
                        cur.remove(old)
                    cur.append(j)
                    cur.sort()
                    improved = True
            consider(float(sum(terms[i] for i in cur)), cur)

        # 4. exhaustive subset enumeration over the deduplicated pool with the
        # remaining budget; same-center balls always clash, so the admissible
        # count stays tame on small spaces and the DFS finishes there
        if evals < budget:
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
    balls = best_balls or tuple(Ball(int(centers[i]), float(radii[i])) for i in best_idx)
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


def space_to_csv(space: MetricMeasureSpace, path) -> None:
    """Header ``m,<m>``; then one row per point: m distances then the weight."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"m,{space.m}\n")
        for i in range(space.m):
            row = [repr(float(x)) for x in space.d[i]] + [repr(float(space.w[i]))]
            fh.write(",".join(row) + "\n")


def space_from_csv(path) -> MetricMeasureSpace:
    with open(path, "r", encoding="ascii") as fh:
        head = fh.readline().strip().split(",")
        if len(head) != 2 or head[0] != "m":
            raise ValueError(f"malformed space header: {head!r}")
        m = int(head[1])
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
        head = fh.readline().strip().split(",")
        if len(head) != 2 or head[0] != "m":
            raise ValueError(f"malformed values header: {head!r}")
        m = int(head[1])
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
