"""Calderon-Zygmund ball covers on doubling spaces and the two
John-Nirenberg style verifiers built from them.

Cover construction at level lam (for a nonnegative function f with
lam >= mean of f over 11*B0 relative to mu(B0)):

* every point x of B0 gets a witness ball: the realized ball containing x
  with member set inside B0 maximizing the f-average (ties: smaller
  radius, then smaller center index); the witness assignment depends only
  on f and B0, not on lam, so nested levels share it;
* for the points where that maximum exceeds lam, dilate the witness ball
  by powers of 5 until the average drops to lam or below; the ball one
  step before stopping is a candidate;
* a greedy 5r-covering pass keeps a disjoint subfamily.

The kept balls B_i satisfy: f <= lam on B0 off the union of the 5B_i;
lam < avg(B_i) <= c^3 lam; c^-3 lam < avg(5B_i) <= lam, where c is the
space's doubling constant.  All three are re-checked on every build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import g_factor, theorem_constants
from .errors import InvariantViolation, PreconditionError, _check_n_lambda
from .metric import (Ball, MetricMeasureSpace, _family_jn_sum, _first_overlap,
                     _jn_term, _witness_arrays, bmo_norm_metric, doubling_constant,
                     vitali_subcover)
from .report import CheckReport, degenerate_report

__all__ = [
    "CzBallCover",
    "NestedCovers",
    "WitnessTable",
    "check_toiterate",
    "compute_witness",
    "cz_balls",
    "nested_cz",
    "verify_bmo_jn",
    "verify_mainresult",
]

_SLACK = 1e-9


# ------------------------------------------------------------- witness table


@dataclass
class WitnessTable:
    """Per-point argmax ball over realized balls inside B0 (None outside
    B0) and the attained f-average."""

    b0: Ball
    balls: list
    values: np.ndarray


def compute_witness(space: MetricMeasureSpace, f: np.ndarray, b0: Ball) -> WitnessTable:
    """Deterministic witness assignment: maximize the ball f-average,
    break ties by smaller radius, then smaller center index."""
    values, radii, centers = _witness_arrays(space, space.check_values(f),
                                             space.members(b0))
    balls = [None if c < 0 else Ball(c, r)
             for c, r in zip(centers.tolist(), radii.tolist())]
    return WitnessTable(b0=b0, balls=balls, values=values)


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
        return float(sum(self.measures))


def _stop_exponent(space: MetricMeasureSpace, f: np.ndarray, base: Ball,
                   lam: float) -> int:
    """Smallest k >= 1 with avg(f, 5^k * base) <= lam."""
    for k in range(1, 200):
        mem = space.members(base.dilate(5.0**k))
        if space.average_mask(f, mem) <= lam:
            return k
    raise InvariantViolation("stopping dilation did not terminate",
                             ball=base, lam=lam)


def cz_balls(space: MetricMeasureSpace, f, b0: Ball, lam: float,
             witness: WitnessTable | None = None) -> CzBallCover:
    """Level-lam stopping-ball cover for a nonnegative function."""
    v = space.check_values(f)
    if np.any(v < 0):
        i = int(np.flatnonzero(v < 0)[0])
        raise PreconditionError("cz_balls needs f >= 0", index=i, value=float(v[i]))
    lam = float(lam)
    mask0 = space.members(b0)
    if not np.any(mask0):
        raise PreconditionError("B0 has no members", ball=b0)
    big = space.members(b0.dilate(11.0))
    mu0 = space.measure_mask(mask0)
    threshold = space.integral_mask(v, big) / mu0
    if lam < threshold * (1.0 - 1e-12):
        raise PreconditionError("cz level below the 11*B0 mean threshold",
                                lam=lam, threshold=threshold)
    if witness is None:
        witness = compute_witness(space, v, b0)
    elif witness.b0 != b0:
        raise ValueError("witness table was built for a different base ball")

    level = mask0 & (witness.values > lam)
    cand: list[Ball] = []
    cand_exp: list[int] = []
    point_exp: dict = {}
    seen: set[tuple[int, float]] = set()
    for x in np.flatnonzero(level):
        base = witness.balls[x]
        n_x = _stop_exponent(space, v, base, lam)
        point_exp[int(x)] = n_x
        ball = base.dilate(5.0 ** (n_x - 1))
        key = (ball.center, ball.radius)
        if key not in seen:
            seen.add(key)
            cand.append(ball)
            cand_exp.append(n_x)

    kept = vitali_subcover(space, cand) if cand else []
    balls = tuple(cand[i] for i in kept)
    exponents = tuple(cand_exp[i] for i in kept)

    avgs, avgs5, measures = [], [], []
    union5 = np.zeros(space.m, dtype=bool)
    for b in balls:
        mem = space.members(b)
        mem5 = space.members(b.dilate(5.0))
        avgs.append(space.average_mask(v, mem))
        avgs5.append(space.average_mask(v, mem5))
        measures.append(space.measure_mask(mem))
        union5 |= mem5

    cover = CzBallCover(
        lam=lam,
        b0=b0,
        balls=balls,
        averages=np.asarray(avgs),
        averages5=np.asarray(avgs5),
        measures=tuple(measures),
        exponents=exponents,
        point_exponents=point_exp,
        level_mask=level,
        residual_mask=mask0 & ~union5,
        union5_mask=union5,
        truncated=bool(np.all(big)),
    )
    _verify_cz_balls(space, v, cover)
    return cover


def _verify_cz_balls(space: MetricMeasureSpace, v: np.ndarray,
                     cover: CzBallCover) -> None:
    lam = cover.lam
    c3 = doubling_constant(space) ** 3
    tol = _SLACK * max(1.0, lam)
    big = space.members(cover.b0.dilate(11.0))
    for b, avg, avg5 in zip(cover.balls, cover.averages, cover.averages5):
        if not avg > lam - tol:
            raise InvariantViolation("kept ball average not above level",
                                     ball=b, average=float(avg), lam=lam)
        if not avg <= c3 * lam + tol:
            raise InvariantViolation("kept ball average exceeds c^3 * level",
                                     ball=b, average=float(avg), lam=lam, c3=c3)
        if not avg5 <= lam + tol:
            raise InvariantViolation("5-dilate average above level",
                                     ball=b, average5=float(avg5), lam=lam)
        if c3 > 0 and not avg5 > lam / c3 - tol:
            raise InvariantViolation("5-dilate average below level / c^3",
                                     ball=b, average5=float(avg5), lam=lam, c3=c3)
        if np.any(space.members(b.dilate(5.0)) & ~big):
            raise InvariantViolation("5-dilate escapes 11*B0", ball=b)
    # disjointness comes from the covering pass; re-check member sets
    pair = _first_overlap([space.members(b) for b in cover.balls])
    if pair is not None:
        first, second = (cover.balls[k] for k in pair)
        raise InvariantViolation("kept balls overlap", first=first, second=second)
    if np.any(cover.level_mask & ~cover.union5_mask):
        raise InvariantViolation("level set escapes the 5-dilate union")
    if cover.residual_mask.any():
        worst = float(np.max(v[cover.residual_mask]))
        if worst > lam + tol:
            raise InvariantViolation("residual point above level",
                                     value=worst, lam=lam)


@dataclass
class NestedCovers:
    """Covers at nondecreasing levels sharing one witness table; ball i of
    a finer level sits inside the 5-dilate of ball containment[k][i] of the
    previous level."""

    levels: tuple[float, ...]
    covers: tuple[CzBallCover, ...]
    containment: tuple[tuple[int, ...], ...]


def nested_cz(space: MetricMeasureSpace, f, b0: Ball, levels,
              witness: WitnessTable | None = None) -> NestedCovers:
    v = space.check_values(f)
    if np.any(v < 0):
        i = int(np.flatnonzero(v < 0)[0])
        raise PreconditionError("nested_cz needs f >= 0", index=i, value=float(v[i]))
    levels = tuple(float(x) for x in levels)
    if not levels:
        raise ValueError("need at least one level")
    if any(b < a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("levels must be nondecreasing", levels=levels)
    if witness is None:
        witness = compute_witness(space, v, b0)
    covers = tuple(cz_balls(space, v, b0, lam, witness=witness) for lam in levels)

    maps = [()]
    for k in range(1, len(covers)):
        lo, hi = covers[k - 1], covers[k]
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
        outside5 = ~np.array([space.members(b.dilate(5.0)) for b in lo.balls],
                             dtype=bool).reshape(len(lo.balls), space.m)
        row = []
        for b in hi.balls:
            # coarser balls whose 5-dilate holds b's member set; take the first
            holds = np.flatnonzero(~np.any(space.members(b) & outside5, axis=1))
            if holds.size == 0:
                raise InvariantViolation(
                    "ball not contained in any coarser 5-dilate",
                    ball=b, level=levels[k])
            row.append(int(holds[0]))
        maps.append(tuple(row))
    return NestedCovers(levels=levels, covers=covers, containment=tuple(maps))


# ------------------------------------------------------------------ checks


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
    mask0 = space.members(b0)
    g = np.abs(v - space.average_mask(v, mask0))
    nest = nested_cz(space, g, b0, (lam, 2.0 * lam))
    lo, hi = nest.covers
    sum_lo = float(sum(lo.measures))
    sum_hi = float(sum(hi.measures))
    s_val = _family_jn_sum(space, v, [b.dilate(5.0) for b in lo.balls], p)
    rhs = cons.c3q * (s_val ** (1.0 / p) / lam) * sum_lo ** (1.0 / cons.q)
    return CheckReport(
        claim="cz-level-doubling",
        lhs=sum_hi,
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
                      n_lambda: int = 60, n_ladder: int = 5) -> list[CheckReport]:
    """Weak JN_p bound sweep on B0 for the distribution of |f - avg_{B0} f|:

        mu({x in B0 : |f - f_B0| > lam})  <=  rhs(lam),

    rhs built from the cover iteration above lambda0 = C1 K / mu(B0)^(1/p)
    (C1 = 3 c^8) and from mu(B0) = (C1 K / lambda0)^p below it.  K is
    certified from admissible families only: single balls {B0}, {11B0} and
    every ladder level's disjoint family 5-dilates, so rhs is a true bound
    whenever the JN_p functional is finite.
    """
    n_lambda = _check_n_lambda(n_lambda)
    v = space.check_values(f)
    c = doubling_constant(space)
    cons = theorem_constants(c, p)
    p, q = cons.p, cons.q
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    mu0 = space.measure_mask(mask0)
    g = np.abs(v - space.average_mask(v, mask0))

    k0 = max(_jn_term(space, v, mask0, p), _jn_term(space, v, big, p)) ** (1.0 / p)
    if k0 == 0.0 and float(np.max(g[mask0], initial=0.0)) == 0.0:
        return [degenerate_report("jn-weak-metric", "constant on 11*B0, K = 0")]

    witness = compute_witness(space, g, b0)
    integral_g = space.integral_mask(g, big)

    def ladder(k_norm: float):
        lam0 = theorem_constants(c, p, K=k_norm, mu_b0=mu0).lambda0
        levels = tuple(lam0 * 2.0**i for i in range(n_ladder + 1))
        nest = nested_cz(space, g, b0, levels, witness=witness)
        s_vals = [
            _family_jn_sum(space, v, [b.dilate(5.0) for b in cov.balls], p)
            for cov in nest.covers
        ]
        return lam0, nest, s_vals

    _, nest_a, s_a = ladder(k0)
    k_cert = max([k0] + [s ** (1.0 / p) for s in s_a])
    lam0, nest, s_b = ladder(k_cert)
    k_used = max([k_cert] + [s ** (1.0 / p) for s in s_b])

    sums = [float(sum(cov.measures)) for cov in nest.covers]
    m0_bound = integral_g / lam0

    lams = np.geomspace(lam0 / 40.0, lam0 * 2.0 ** (n_ladder + 1), n_lambda)
    reports = []
    for lam in lams:
        lam = float(lam)
        lhs = space.measure_mask(mask0 & (g > lam))
        if lam <= lam0:
            rhs = (cons.C1 * k_cert / lam) ** p
            extra = {"branch": "small"}
            const = cons.C1
        else:
            n_steps = 0
            while lam > 2.0 ** (n_steps + 1) * lam0:
                n_steps += 1
            if n_steps > n_ladder:
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
            claim="jn-weak-metric", lhs=lhs, rhs=rhs, constant=const,
            lam=lam, witness=w,
        ))
    return reports


def verify_bmo_jn(space: MetricMeasureSpace, f, b0: Ball,
                  n_lambda: int = 60, n_ladder: int = 4) -> list[CheckReport]:
    """Exponential decay sweep for u = (f - avg_{B0} f) / ||f||_*:

        mu({x in B0 : |u| > lam})  <=  c1 mu(B0) exp(-c2 lam),

    c1 = 4 c^7 and c2 = log2 / (2 c^8), plus the cover-size halving checks
    sum_j mu(B_j(lam + a)) <= 1/2 sum_k mu(B_k(lam)) on the arithmetic
    ladder lam = a, 2a, ..., a = 2 c^8.
    """
    n_lambda = _check_n_lambda(n_lambda)
    v = space.check_values(f)
    norm = bmo_norm_metric(space, v)
    if norm == 0.0:
        return [degenerate_report("bmo-exponential", "constant function, norm 0")]
    cons = theorem_constants(doubling_constant(space), 2.0)  # a, c1, c2 do not involve p
    mask0 = space.members(b0)
    big = space.members(b0.dilate(11.0))
    mu0 = space.measure_mask(mask0)
    u = (v - space.average_mask(v, mask0)) / norm
    gu = np.abs(u)

    threshold = space.integral_mask(gu, big) / mu0
    if threshold > cons.a * (1.0 + _SLACK):
        raise InvariantViolation("normalized mean exceeds 2 c^8",
                                 threshold=threshold, a=cons.a)

    witness = compute_witness(space, gu, b0)
    levels = tuple(cons.a * (k + 1) for k in range(n_ladder))
    nest = nested_cz(space, gu, b0, levels, witness=witness)
    reports = []
    for k in range(1, len(levels)):
        lo, hi = nest.covers[k - 1], nest.covers[k]
        reports.append(CheckReport(
            claim="bmo-halving",
            lhs=float(sum(hi.measures)),
            rhs=0.5 * float(sum(lo.measures)),
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
