"""Numeric kernels.

The four grid kernels (``build_pyramid``, ``osc_sums``,
``maximal_sweep``, ``dp_sweep``) are plain numpy functions that add only
adjacent pairs, so every cube sum is a fixed-shape tree of pair additions
and bitwise reproducible.

A level of pair sums is one strided add, ``x[0::2] + x[1::2]``, over ten
times faster than ``x.reshape(-1, 2).sum(axis=1)`` on 2**20 doubles.  Each
output is one correctly rounded addition of the same two operands, so the
sums are bitwise those of the reduction, with one exception: numpy's
reduction adds onto +0.0, so two negative zeros sum to +0.0 there and to
-0.0 in a plain add.  Adding 0 afterwards turns -0.0 into +0.0 and
leaves every other value as it is.  A 4-wide block (``nbits = 2``) is
still two rounds of pair sums, since one 4-term reduction rounds
differently.

Pyramid layout: a function on ``A**L`` leaves (``A = 2**nbits`` children
per node) is stored as a sequence of ``L + 1`` arrays, one per level.
Level ``k`` holds the ``A**k`` depth-k values in depth-first
(bit-interleaved) order, so each node's descendants at any level form a
contiguous block, and a subtree's pyramid is a sequence of slices.

Of the metric kernels, ``ball_tables`` gives the per-center prefix sums
of weight and weighted values along the distance order, which is all the
maximal functions and witness tables need.  ``osc_table`` builds
the O(m^3) table of prefix oscillations that only the BMO norm reads.
Both sum left to right along each center's order, so their entries are
bitwise those of the direct per-center loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ball_tables",
    "build_pyramid",
    "dp_sweep",
    "maximal_sweep",
    "osc_sums",
    "osc_table",
]


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1], x[2] + x[3], ... of a 1-D array of even length."""
    if x.shape[0] % 2:
        raise ValueError(f"pair sums need an even length, got {x.shape[0]}")
    out = x[0::2] + x[1::2]
    out += 0  # -0.0 + -0.0 is +0.0 in numpy's reduction (module docstring)
    return out


def _pair_sums(x: np.ndarray, times: int) -> np.ndarray:
    """`times` rounds of adjacent-pair sums."""
    for _ in range(times):
        x = _pair_sum(x)
    return x


def _sorted_runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted, non-empty 1-D array, and for each
    the number of entries at or above it (int64); each distinct value
    starts a run of the sort."""
    new_run = np.empty(a.size, dtype=bool)
    new_run[0] = True
    np.not_equal(a[1:], a[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    del new_run
    values = a[starts]
    return values, np.subtract(a.size, starts, out=starts)


def build_pyramid(leaves: np.ndarray, depth: int, nbits: int) -> tuple[np.ndarray, ...]:
    """All-level tree sums of `leaves` (length (2**nbits)**depth, block
    order), one array per level; the last entry is `leaves` itself."""
    levels = [np.asarray(leaves, dtype=np.float64)]
    for _ in range(depth):
        levels.append(_pair_sums(levels[-1], nbits))
    return tuple(reversed(levels))


def osc_sums(block: np.ndarray, avgs, width: int) -> np.ndarray:
    """Tree sums of |v - avgs[j]| over the j-th run of 2**width cells of `block`."""
    avgs = np.asarray(avgs, dtype=np.float64)
    dev = np.reshape(block, (avgs.size, 1 << width)) - avgs[:, None]
    np.abs(dev, out=dev)
    return _pair_sums(dev.reshape(-1), width)


def maximal_sweep(pyramid, nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-leaf max of ancestor averages of a sum pyramid, with the depth
    of the shallowest ancestor attaining it (strict improvement updates)."""
    arity = 1 << nbits
    depth = len(pyramid) - 1
    run = np.full(1, pyramid[0][0] / float(arity**depth))
    prov = np.zeros(1, dtype=np.int64)
    for k in range(1, depth + 1):
        run = np.repeat(run, arity)
        prov = np.repeat(prov, arity)
        avg = pyramid[k] * (1.0 / float(arity ** (depth - k)))
        better = avg > run
        np.copyto(run, avg, where=better)
        np.copyto(prov, k, where=better)
    return run, prov


def dp_sweep(terms, nbits: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Bottom-up best-partition values over a term pyramid, per level.

    value(node) = max(term(node), sum over children of value(child));
    split flag is True where the children strictly beat the node's own term.
    """
    depth = len(terms) - 1
    values = [terms[depth]]
    splits = [np.zeros(terms[depth].shape[0], dtype=bool)]
    for k in range(depth - 1, -1, -1):
        child = _pair_sums(values[-1], nbits)
        cut = child > terms[k]
        values.append(np.where(cut, child, terms[k]))
        splits.append(cut)
    return tuple(reversed(values)), tuple(reversed(splits))


# ---------------------------------------------------------------- ball tables


def ball_tables(orders: np.ndarray, w: np.ndarray,
                f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums over distance-sorted points, one row per center.

    Returns (wcum, fcum): cumulative weight and cumulative weighted f along
    each row of `orders`, summed left to right, so entry [c, k] covers the
    first k+1 points in center c's distance order.
    """
    orders = np.ascontiguousarray(orders, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    f = np.ascontiguousarray(f, dtype=np.float64)
    wcum = w[orders]
    fcum = f[orders]
    fcum *= wcum
    np.cumsum(fcum, axis=1, out=fcum)
    np.cumsum(wcum, axis=1, out=wcum)
    return wcum, fcum


def osc_table(orders: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """osc[c, k] = sum_{i<=k} w_i |f_i - avg_{c,k}|, where avg_{c,k} is the
    weighted mean of the first k+1 points in center c's distance order.

    O(m^3) work.  The sum runs left to right over i, as in the direct
    per-entry loop, but position-major: step i adds point i's term to every
    prefix k >= i of every center at once, on (position x center) arrays.
    The result is the transpose of that layout, a (center x position) view.
    """
    orders = np.ascontiguousarray(orders, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    f = np.ascontiguousarray(f, dtype=np.float64)
    m = w.shape[0]
    wcum, fcum = ball_tables(orders, w, f)
    avg = np.ascontiguousarray(np.divide(fcum, wcum, out=fcum).T)
    del wcum, fcum
    cols = orders.T  # cols[i] = the sorted position-i point of every center
    acc = np.zeros((m, m), dtype=np.float64)
    buf = np.empty((m, m), dtype=np.float64)
    for i in range(m):
        pts = cols[i]
        dev = buf[i:]
        np.subtract(f[pts], avg[i:], out=dev)
        np.abs(dev, out=dev)
        dev *= w[pts]
        acc[i:] += dev
    return acc.T
