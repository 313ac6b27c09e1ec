"""Calderon-Zygmund ball covers on doubling spaces and the two
John-Nirenberg style verifiers built from them.

`nested_cz` builds the covers at nondecreasing levels lam_1 <= lam_2 <= ...
in one pass (for a nonnegative function f with lam_1 >= mean of f over
11*B0 relative to mu(B0)); `cz_balls` is its one-level case:

* every point x of B0 gets a witness ball: the realized ball containing x
  with member set inside B0 maximizing the f-average (ties: smaller
  radius, then smaller center index); the witness assignment depends only
  on f and B0, not on lam, so all levels share it, and a cover computes it;
* the witness ball of each point where that maximum exceeds lam_1 is
  walked, once however many points share it: the 5^k dilates, k = 1, 2,
  ..., until the average drops to lam_1 or below.  A point's stopping
  exponent n_x(lam) at any level is the first k of its walk with average
  <= lam, and its witness ball dilated by 5^(n_x - 1) is a candidate;
* per level, a greedy 5r-covering pass keeps a disjoint subfamily.

The kept balls B_i satisfy: f <= lam on B0 off the union of the 5B_i;
lam < avg(B_i) <= c^3 lam; c^-3 lam < avg(5B_i) <= lam, where c is the
space's doubling constant.  All three are re-checked on every build; the
stopping sides exactly, as every average comes from the prefix tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import _pow, _sum_left, g_factor, theorem_constants
from .errors import (InvariantViolation, PreconditionError, _check_n_lambda, _check_rhs,
                     _jn_underflow)
from .metric import (_EPS, Ball, MetricMeasureSpace, _ball_sums, _escapes, _family_jn_sum,
                     _family_sums, _member_rows, _prefix_sums,
                     _witness_arrays, bmo_norm_metric, doubling_constant, vitali_subcover)
from .report import CheckReport, degenerate_report

__all__ = [
    "CzBallCover",
    "NestedCovers",
    "check_toiterate",
    "cz_balls",
    "nested_cz",
    "verify_bmo_jn",
    "verify_mainresult",
]

_SLACK = 1e-9
_MAIN_LADDER = 5  # doublings of lambda0 in verify_mainresult's ladder
_BMO_LADDER = 4   # levels a, 2a, ... of verify_bmo_jn's halving checks


# ------------------------------------------------------------------ cz cover


@dataclass
class CzBallCover:
    """Disjoint level-lam stopping balls and their bookkeeping."""

    lam: float
    b0: Ball
    balls: tuple[Ball, ...]
    averages: np.ndarray      # f-average over each B_i
    averages5: np.ndarray     # f-average over each 5 B_i
    measures: tuple[float, ...]  # mu(B_i)
    exponents: tuple[int, ...]   # B_i = 5^(exponent-1) * witness ball
    point_exponents: dict       # stopping exponent of each level-set point
    level_mask: np.ndarray    # E = {x in B0 : witness value > lam}
    residual_mask: np.ndarray  # members(B0) minus union of the 5 B_i
    union5_mask: np.ndarray
    truncated: bool

    @property
    def total_measure(self) -> float:
        return _sum_left(self.measures)


def cz_balls(space: MetricMeasureSpace, f, b0: Ball, lam: float) -> CzBallCover:
    """Level-lam stopping-ball cover of a nonnegative f: `nested_cz` at one level."""
    return nested_cz(space, f, b0, (lam,)).covers[0]


@dataclass
class NestedCovers:
    """Covers at nondecreasing levels sharing one witness table; ball i of
    a finer level sits inside the 5-dilate of ball containment[k][i] of the
    previous level."""

    levels: tuple[float, ...]
    covers: tuple[CzBallCover, ...]
    containment: tuple[tuple[int, ...], ...]


def _stop_walks(space: MetricMeasureSpace, v, centers, radii, lam: float) -> tuple:
    """(measures, means, rows): row j of the two arrays holds the 5^k dilates
    of the j-th distinct ball B(centers[i], radii[i]), in order of first
    occurrence, in column k = 0, 1, ... up to the first k >= 1 with mean
    <= lam, NaN after; ball i's row is rows[i]."""
    key: dict = {}
    rows = [key.setdefault(b, len(key)) for b in zip(centers.tolist(), radii.tolist())]
    first = np.unique(rows, return_index=True)[1]
    centers, radii = centers[first], radii[first]
    fcum = _prefix_sums(space, v, centers)
    meas, means = np.full((2, centers.size, 200), np.nan)
    active = np.arange(centers.size)
    for k in range(200):
        with np.errstate(over="ignore"):  # an infinite radius holds every point
            mu, integ = _ball_sums(space, fcum[active], centers[active], radii[active] * 5.0**k)
        meas[active, k], means[active, k] = mu, integ / mu
        active = active[~(means[active, k] <= lam) | (k == 0)]  # k = 0 is the ball itself
        if not active.size:
            return meas, means, rows
    raise InvariantViolation("stopping dilation did not terminate", lam=lam,
                             ball=Ball(int(centers[active[0]]), float(radii[active[0]])))


def _mean_cap(space: MetricMeasureSpace, v: np.ndarray, mask0: np.ndarray) -> float:
    """An upper bound on the computed v-average of every realized ball
    inside mask0, for v >= 0 (see `nested_cz`)."""
    m, w0 = space.m, space.w[mask0]
    top = float(np.max(v[mask0]))
    if not math.isfinite(4.0 * top * max(1.0, float(np.sum(w0)))):
        return math.inf  # a prefix sum or a mean could overflow
    tiny = (m + 4.0) * (1.0 + 1.0 / float(np.min(w0))) * 2.0**-1070
    return top * (1.0 + (2 * m + 32) * _EPS) + tiny


def nested_cz(space: MetricMeasureSpace, f, b0: Ball, levels) -> NestedCovers:
    """Stopping-ball covers at every level, in one pass (module docstring).

    No ball is selected at any level when the lowest one is at or above
    `_mean_cap`, a bound on every computed average the witness table can
    hold; the table and the stopping walks are then skipped, and the
    covers are empty, bitwise as the full build makes them.  The bound:
    the ball ending at sorted position k of a center in B0 has the
    computed mean fl(F / W) of the prefix sums F of w v and W of w over its
    n = k + 1 <= m points, and the exact mean of v over it is at most
    M = max_{B0} v.  With u = eps / 2, each product fl(w_i v_i) is at most
    (1 + u) w_i v_i, plus 2^-1075 where it underflows; the n - 1 additions
    of non-negative terms raise F by at most (1 + u)^(n-1) and never
    underflow; and W is at least (1 + u)^-(n-1) times the exact weight,
    itself at least w_min, the smallest weight in B0.  So

        fl(F / W) <= (1 + u)^(2n) M + (1 + u)^(2n-1) n 2^-1075 / w_min + 2^-1075.

    The cap is M (1 + (2m + 32) eps) + (m + 4) (1 + 1/w_min) 2^-1070,
    computed in floats.  1 + (2m + 32) eps is exact; the other roundings
    lower each of the two terms by at most a factor (1 + u)^-4, and by
    2^-1075 where a product underflows, which leaves the cap above that
    bound with room to spare.  The bound assumes that no F overflows: the
    cap is inf unless 4 M max(1, mu(B0)) is finite, which keeps every F
    and every mean below half the float range.  Only an infinite lowest
    level, which no witness value exceeds, is at or above an infinite cap.
    """
    v = space.check_values(f)  # a verifier's |f - f_B0| may overflow
    if np.any(v < 0):
        i = int(np.flatnonzero(v < 0)[0])
        raise PreconditionError("cz covers need f >= 0", index=i, value=float(v[i]))
    levels = tuple(float(x) for x in levels)
    if not levels:
        raise ValueError("need at least one level")
    if not all(a <= b for a, b in zip(levels, levels[1:])):  # NaN is unordered
        raise PreconditionError("levels must be nondecreasing", levels=levels)
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    mu, integral = _family_sums(space, v, [b0, b0.dilate(11.0)])
    threshold = integral[1] / mu[0]
    if levels[0] < threshold * (1.0 - 1e-12):
        raise PreconditionError("cz level below the 11*B0 mean threshold",
                                lam=levels[0], threshold=threshold)
    if levels[0] < _mean_cap(space, v, mask0):
        values, radii, centers = _witness_arrays(space, v, mask0)
        # every level set lies in the lowest one, and stops at or before it
        lowest = np.flatnonzero(mask0 & (values > levels[0]))
        meas, means, rows = _stop_walks(space, v, centers[lowest], radii[lowest], levels[0])
        row = dict(zip(lowest.tolist(), rows))
    else:  # no witness value exceeds a level, so no level point needs a ball
        values = np.full(space.m, -np.inf)
        meas = means = np.empty((0, 200))

    built = []  # (cover, its balls' member sets, their 5-dilates')
    for lam in levels:
        level = mask0 & (values > lam)
        point_exp: dict = {}
        cand: dict = {}  # candidate ball -> (exponent, walk row), first occurrence kept
        for x in np.flatnonzero(level).tolist():
            n_x = point_exp[x] = int(np.argmax(means[row[x], 1:] <= lam)) + 1
            ball = Ball(int(centers[x]), float(radii[x]) * 5.0 ** (n_x - 1))
            cand.setdefault(ball, (n_x, row[x]))
        balls = list(cand)
        balls = tuple(balls[i] for i in vitali_subcover(space, balls))
        # an exponent-n ball is step n - 1 of its base's walk, its 5-dilate step n
        n, i = np.array([cand[b] for b in balls], dtype=np.int64).reshape(-1, 2).T
        mem, mem5 = _member_rows(space, balls), _member_rows(space, [b.dilate(5.0) for b in balls])
        union5 = mem5.any(axis=0)
        cover = CzBallCover(
            lam=lam,
            b0=b0,
            balls=balls,
            averages=means[i, n - 1],
            averages5=means[i, n],
            measures=tuple(meas[i, n - 1].tolist()),
            exponents=tuple(n.tolist()),
            point_exponents=point_exp,
            level_mask=level,
            residual_mask=mask0 & ~union5,
            union5_mask=union5,
            truncated=bool(np.all(big)),
        )
        _verify_cz_balls(space, v, cover, mem5, big)
        built.append((cover, mem, mem5))

    maps = [()]
    for k in range(1, len(built)):
        (lo, _, lo5), (hi, mem, _) = built[k - 1], built[k]
        # same witness: a point selected at the higher level is selected at
        # the lower one, and dilates further there
        if np.any(hi.level_mask & ~lo.level_mask):
            raise InvariantViolation("higher level set not nested in lower",
                                     levels=(levels[k - 1], levels[k]))
        for x, n_hi in hi.point_exponents.items():
            if lo.point_exponents[x] < n_hi:
                raise InvariantViolation(
                    "stopping exponent decreased at the lower level",
                    point=x, low=lo.point_exponents[x], high=n_hi)
        # the first coarser ball whose 5-dilate holds each ball's member set
        held = ~_escapes(mem, lo5)
        orphan = np.flatnonzero(~held.any(axis=1))
        if orphan.size:
            raise InvariantViolation("ball not contained in any coarser 5-dilate",
                                     ball=hi.balls[orphan[0]], level=levels[k])
        maps.append(tuple(np.argmax(held, axis=1).tolist()) if hi.balls else ())
    return NestedCovers(levels=levels, covers=tuple(c for c, _, _ in built),
                        containment=tuple(maps))


def _verify_cz_balls(space: MetricMeasureSpace, v: np.ndarray, cover: CzBallCover,
                     mem5: np.ndarray, big: np.ndarray) -> None:
    """Re-check a cover but for disjointness, which `vitali_subcover`
    checked; `mem5` holds its 5-dilates' member sets, `big` 11*B0's."""
    lam, avg, avg5 = cover.lam, cover.averages, cover.averages5
    c3 = doubling_constant(space) ** 3  # >= 1
    tol = _SLACK * max(1.0, lam)
    for bad, what in ((~(avg > lam), "kept ball average not above level"),
                      (~(avg <= c3 * lam + tol), "kept ball average exceeds c^3 * level"),
                      (~(avg5 <= lam), "5-dilate average above level"),
                      (~(avg5 > lam / c3 - tol), "5-dilate average below level / c^3"),
                      (_escapes(mem5, big), "5-dilate escapes 11*B0")):
        if bad.any():
            i = int(np.argmax(bad))
            raise InvariantViolation(what, ball=cover.balls[i], average=float(avg[i]),
                                     average5=float(avg5[i]), lam=lam, c3=c3)
    if np.any(cover.level_mask & ~cover.union5_mask):
        raise InvariantViolation("level set escapes the 5-dilate union")
    # slack: a singleton's mean fl(fl(w v) / w) can miss v by an ulp where w != 1
    worst = float(np.max(v[cover.residual_mask], initial=0.0))  # v >= 0
    if worst > lam + tol:
        raise InvariantViolation("residual point above level", value=worst, lam=lam)


# ------------------------------------------------------------------ checks


def _deviation(space: MetricMeasureSpace, v: np.ndarray, b0: Ball) -> np.ndarray:
    """|v - avg_{B0} v| at every point, with B0's mean from the prefix tables."""
    (mu0,), (integral,) = _family_sums(space, v, [b0])
    return np.abs(v - integral / mu0)


def check_toiterate(space: MetricMeasureSpace, f, b0: Ball, lam: float,
                    p: float) -> CheckReport:
    """Level-doubling inequality on covers of g = |f - avg_{B0} f|:

        sum_j mu(B_j(2 lam))
          <= c^(3/q) * (S^(1/p) / lam) * (sum_i mu(B_i(lam)))^(1/q),

    where S = sum_i mu(5B_i) osc_{5B_i}(f)^p is the certified lower bound
    for the JN_p sum coming from the admissible family {5 B_i(lam)}.
    """
    v = space.check_values(f)
    cons = theorem_constants(doubling_constant(space), p)
    p, lam = cons.p, float(lam)
    if not lam > 0:
        raise PreconditionError("level-doubling needs lam > 0", lam=lam)
    g = _deviation(space, v, b0)
    nest = nested_cz(space, g, b0, (lam, 2.0 * lam))
    lo, hi = nest.covers
    sum_lo = lo.total_measure
    s_val = _family_jn_sum(space, v, [b.dilate(5.0) for b in lo.balls], p)
    if s_val == 0.0 and lo.balls:
        raise _jn_underflow(p)
    rhs = cons.c3q * (s_val ** (1.0 / p) / lam) * sum_lo ** (1.0 / cons.q)
    return CheckReport(
        claim="cz-level-doubling",
        lhs=hi.total_measure,
        rhs=rhs,
        constant=cons.c3q,
        lam=lam,
        witness={
            "p": p, "q": cons.q,
            "S": s_val, "K_lower": s_val ** (1.0 / p),
            "n_balls_low": len(lo.balls), "n_balls_high": len(hi.balls),
            "sum_mu_low": sum_lo,
            "truncated": lo.truncated,
        },
    )


def verify_mainresult(space: MetricMeasureSpace, f, b0: Ball, p: float,
                      n_lambda: int = 60) -> list[CheckReport]:
    """Weak JN_p bound sweep on B0 for the distribution of |f - avg_{B0} f|:

        mu({x in B0 : |f - f_B0| > lam})  <=  rhs(lam),

    rhs built from the cover iteration above lambda0 = C1 K / mu(B0)^(1/p)
    (C1 = 3 c^8) and from mu(B0) = (C1 K / lambda0)^p below it.  K is
    certified from admissible families only: single balls {B0}, {11B0} and
    every ladder level's disjoint family 5-dilates, so rhs is a true bound
    whenever the JN_p functional is finite.  The ladder has _MAIN_LADDER + 1
    levels lambda0 * 2^i.
    """
    n_lambda = _check_n_lambda(n_lambda)
    v = space.check_values(f)
    c = doubling_constant(space)
    cons = theorem_constants(c, p)
    p, q = cons.p, cons.q
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    g = _deviation(space, v, b0)
    mu, integral = _family_sums(space, g, [b0, b0.dilate(11.0)])
    mu0, integral_g = float(mu[0]), float(integral[1])

    k0 = max(_family_jn_sum(space, v, [b], p) for b in (b0, b0.dilate(11.0))) ** (1.0 / p)
    if k0 == 0.0:
        if float(np.min(v[big])) == float(np.max(v[big])):
            return [degenerate_report("jn-weak-metric", "constant on 11*B0, K = 0")]
        raise _jn_underflow(p)

    def ladder(k_norm: float):
        lam0 = theorem_constants(c, p, K=k_norm, mu_b0=mu0).lambda0
        levels = tuple(lam0 * 2.0**i for i in range(_MAIN_LADDER + 1))
        nest = nested_cz(space, g, b0, levels)
        return lam0, nest, [_family_jn_sum(space, v, [b.dilate(5.0) for b in cov.balls], p)
                            for cov in nest.covers]

    seed = ladder(k0)
    k_cert = max([k0] + [s ** (1.0 / p) for s in seed[2]])
    lam0, nest, s_b = seed if k_cert == k0 else ladder(k_cert)
    k_used = max([k_cert] + [s ** (1.0 / p) for s in s_b])

    sums = [cov.total_measure for cov in nest.covers]
    m0_bound = integral_g / lam0

    lams = np.geomspace(lam0 / 40.0, lam0 * 2.0 ** (_MAIN_LADDER + 1), n_lambda)
    reports = []
    for lam in lams:
        lam = float(lam)
        lhs = space.measure_mask(mask0 & (g > lam))
        if lam <= lam0:
            rhs = _pow(cons.C1 * k_cert / lam, p)
            extra = {"branch": "small"}
            const = cons.C1
        else:
            n_steps = 0
            while lam > 2.0 ** (n_steps + 1) * lam0:
                n_steps += 1
            if n_steps > _MAIN_LADDER:
                raise InvariantViolation("sweep point beyond the built ladder",
                                         lam=lam, lambda0=lam0)
            prod = 1.0
            for i in range(n_steps):
                base = cons.c3q * k_used / (2.0 ** (n_steps - 1 - i) * lam0)
                prod *= base ** (q ** (-float(i)))
            rhs = cons.c3 * prod * (m0_bound ** (q ** (-float(n_steps))))
            gn = g_factor(n_steps, p, q)
            closed = (cons.c3q * k_used / lam0) ** (p - p * q ** (-float(n_steps))) / gn
            if prod > 0 and abs(prod - closed) > 1e-9 * prod:
                raise InvariantViolation("iteration product disagrees with g(N)",
                                         product=prod, closed_form=closed, N=n_steps)
            extra = {"branch": "large", "N": n_steps, "g_N": gn,
                     "ladder_ball_counts": [len(cv.balls) for cv in nest.covers],
                     "sum_mu_ladder": sums}
            const = cons.c3
        w = {"K_cert": k_cert, "K_used": k_used, "K_seed": k0,
             "lambda0": lam0, "mu_B0": mu0, "p": p, "q": q, "c_mu": c,
             "truncated": nest.covers[0].truncated}
        w.update(extra)
        reports.append(CheckReport(
            claim="jn-weak-metric", lhs=lhs, rhs=_check_rhs(rhs, p), constant=const,
            lam=lam, witness=w,
        ))
    return reports


def verify_bmo_jn(space: MetricMeasureSpace, f, b0: Ball,
                  n_lambda: int = 60) -> list[CheckReport]:
    """Exponential decay sweep for u = (f - avg_{B0} f) / ||f||_*:

        mu({x in B0 : |u| > lam})  <=  c1 mu(B0) exp(-c2 lam),

    c1 = 4 c^7 and c2 = log2 / (2 c^8), plus the cover-size halving checks
    sum_j mu(B_j(lam + a)) <= 1/2 sum_k mu(B_k(lam)) on the arithmetic
    ladder lam = a, 2a, ..., _BMO_LADDER a, a = 2 c^8.
    """
    n_lambda = _check_n_lambda(n_lambda)
    v = space.check_values(f)
    norm = bmo_norm_metric(space, v)
    if norm == 0.0:
        return [degenerate_report("bmo-exponential", "constant function, norm 0")]
    cons = theorem_constants(doubling_constant(space), 2.0)  # a, c1, c2 do not involve p
    mask0 = space.members(b0)
    gu = _deviation(space, v, b0) / norm  # |x| / norm is |x / norm| bitwise
    mu, integral = _family_sums(space, gu, [b0, b0.dilate(11.0)])
    mu0, threshold = float(mu[0]), float(integral[1] / mu[0])
    if threshold > cons.a * (1.0 + _SLACK):
        raise InvariantViolation("normalized mean exceeds 2 c^8",
                                 threshold=threshold, a=cons.a)

    levels = tuple(cons.a * (k + 1) for k in range(_BMO_LADDER))
    nest = nested_cz(space, gu, b0, levels)
    reports = []
    for k in range(1, len(levels)):
        lo, hi = nest.covers[k - 1], nest.covers[k]
        reports.append(CheckReport(
            claim="bmo-halving",
            lhs=hi.total_measure,
            rhs=0.5 * lo.total_measure,
            constant=0.5,
            lam=levels[k],
            witness={"lower_level": levels[k - 1],
                     "n_balls": (len(lo.balls), len(hi.balls)),
                     "a": cons.a, "truncated": lo.truncated},
        ))

    # log sweep across the theorem scale plus quantiles of the attained
    # |u| values, so some points have a nonzero left side
    pos = np.sort(np.unique(gu[mask0 & (gu > 0)]))
    n_quant = int(min(pos.size, 12))
    n_geo = max(8, n_lambda - n_quant)
    sweep = [float(x) for x in np.geomspace(max(cons.a * 1e-4, 1e-12),
                                            3.0 * cons.a, n_geo)]
    if n_quant:
        qs = np.quantile(pos, np.linspace(0.05, 0.95, n_quant))
        sweep = sorted(set(sweep) | {float(x) for x in qs})
    for lam in sweep:
        lhs = space.measure_mask(mask0 & (gu > lam))
        rhs = cons.c1 * mu0 * math.exp(-cons.c2 * lam)
        reports.append(CheckReport(
            claim="bmo-exponential",
            lhs=lhs,
            rhs=rhs,
            constant=cons.c1,
            lam=float(lam),
            witness={"c2": cons.c2, "a": cons.a, "bmo_norm": norm,
                     "mu_B0": mu0, "truncated": nest.covers[0].truncated},
        ))
    return reports
