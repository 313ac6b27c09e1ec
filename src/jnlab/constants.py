"""The explicit constants of the John-Nirenberg inequalities: the one
formula of each constant a verifier writes into a ``CheckReport``."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError, _check_p

__all__ = ["Constants", "g_factor", "theorem_constants"]


@dataclass(frozen=True)
class Constants:
    """Explicit constants attached to the inequalities, from the doubling
    constant c_mu and exponent p (q is the conjugate).  Fields requiring
    extra data (dimension n, a norm K, measures) stay None when unknown."""

    c_mu: float
    p: float
    q: float
    C1: float                      # 3 c_mu^8: weak JN_p scale factor
    a: float                       # 2 c_mu^8: exponential ladder step
    c1: float                      # 4 c_mu^7: exponential prefactor
    c2: float                      # log 2 / a: exponential decay rate
    c3: float                      # c_mu^3: cover step ratio bound
    c3q: float                     # c_mu^(3/q): level-doubling factor
    n: int | None = None
    b: float | None = None                 # dyadic good-lambda shrink 2^-(n+1)
    dyadic_small_constant: float | None = None  # 2^((n+1) p)
    dyadic_constant: float | None = None   # 2^(p + (n+1)(p^2 + (p/q)^3))
    lambda0: float | None = None           # C1 K / mu(B0)^(1/p)
    eta: float | None = None               # K / (b |Q0|^(1/p))


def _sum_left(xs) -> float:
    """`xs` added left to right; builtin `sum` compensates floats from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where that overflows the float range."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def theorem_constants(c_mu: float, p: float, n: int | None = None,
                      K: float | None = None, mu_b0: float | None = None,
                      measure_q0: float | None = None) -> Constants:
    c_mu = float(c_mu)
    if not (c_mu >= 1.0 and math.isfinite(c_mu)):
        raise ValueError(f"doubling constant must be >= 1, got {c_mu}")
    p = _check_p(p)
    q = p / (p - 1.0)
    C1, a = 3.0 * _pow(c_mu, 8), 2.0 * _pow(c_mu, 8)
    if not math.isfinite(C1):
        raise PreconditionError("doubling constant too large: 3 c^8 overflows", c_mu=c_mu)
    b = small = dyadic = lam0 = eta = None
    if n is not None:  # inf where p is too large for the float range
        b, small = 2.0 ** -(n + 1), _pow(2.0, (n + 1) * p)
        dyadic = _pow(2.0, p + (n + 1) * (_pow(p, 2) + _pow(p / q, 3)))
    if K is not None and mu_b0 is not None:
        lam0 = C1 * K / mu_b0 ** (1.0 / p)
    if K is not None and measure_q0 is not None and b is not None:
        eta = K / (b * measure_q0 ** (1.0 / p))
    return Constants(
        c_mu=c_mu, p=p, q=q, C1=C1, a=a, c1=4.0 * c_mu**7, c2=math.log(2.0) / a,
        c3=c_mu**3, c3q=c_mu ** (3.0 / q), n=n, b=b, dyadic_small_constant=small,
        dyadic_constant=dyadic, lambda0=lam0, eta=eta,
    )


def g_factor(N: int, p: float, q: float) -> float:
    """Iteration gain after N doubling steps:

        1/g(N) = 2^(q^-1 + 2 q^-2 + ... + (N-1) q^-(N-1)) / 2^((N-1)(p - p q^-N)),

    with g(0) = g(1) = 1.  Equivalently g(N) = 2^(sum_{i<N} (N-1-i) q^-i),
    the power of two collected when unrolling the level-doubling recursion.
    """
    if N <= 1:
        return 1.0
    s = _sum_left(i * q ** (-i) for i in range(1, N))
    return 2.0 ** ((N - 1) * (p - p * q ** (-N)) - s)
