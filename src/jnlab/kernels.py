"""Numeric kernels.

The grid kernels (``build_pyramid``, ``_osc_sums``, ``_running_max`` and
``dp_sweep``) are plain numpy functions that add only adjacent pairs, so
every cube sum is a fixed-shape tree of pair additions and bitwise
reproducible.

A level of pair sums is one strided add, ``x[0::2] + x[1::2]``, over ten
times faster than ``x.reshape(-1, 2).sum(axis=1)`` on 2**20 doubles.  Each
output is one correctly rounded addition of the same two operands, so the
sums are bitwise those of the reduction, with one exception: numpy's
reduction adds onto +0.0, so two negative zeros sum to +0.0 there and to
-0.0 in a plain add.  Adding 0 afterwards turns -0.0 into +0.0 and
leaves every other value as it is.  ``_osc_sums`` needs no such pass:
each addend is |x| >= +0.0, and no sum of those is -0.0.  A 4-wide
block (``nbits = 2``) is still two rounds of pair sums, since one
4-term reduction rounds differently.

The maximal sweep runs down a pyramid of averages: each level becomes the
max of its own averages and its parent's running max, where an average
replaces the parent's only if it is strictly larger (so a tie of -0.0
with +0.0 keeps the parent's).  ``_sweep_level`` is that step, in place
and with no per-leaf copy of the parent level, and ``_running_max`` runs
it down a pyramid of averages its caller owns.  It is the one maximal
sweep: ``dyadic_maximal`` and the dyadic verifiers both call it.

Pyramid layout: a function on ``A**L`` leaves (``A = 2**nbits`` children
per node) is stored as a sequence of ``L + 1`` arrays, one per level.
Level ``k`` holds the ``A**k`` depth-k values in depth-first
(bit-interleaved) order, so each node's descendants at any level form a
contiguous block, and a subtree's pyramid is a sequence of slices.

The metric kernel ``osc_entries`` sums the weighted oscillation of only
the requested (center, prefix) entries: the BMO norm bounds every
realized ball first and sums exactly only the few that can attain the
supremum, so no O(m^3) table is built.  It sums left to right along each
center's distance order, so its entries are bitwise those of the direct
per-center loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_pyramid",
    "dp_sweep",
    "osc_entries",
]


_OSC_RUN = 2**15  # entries per position-major run in osc_entries


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
    the number of entries at or above it, then a final 0 (int64); each
    distinct value starts a run of the sort."""
    new_run = np.empty(a.size + 1, dtype=bool)
    new_run[0] = new_run[-1] = True  # the end starts an empty last run
    np.not_equal(a[1:], a[:-1], out=new_run[1:-1])
    starts = np.flatnonzero(new_run)
    del new_run
    values = a[starts[:-1]]
    return values, np.subtract(a.size, starts, out=starts)


def build_pyramid(leaves: np.ndarray, depth: int, nbits: int) -> tuple[np.ndarray, ...]:
    """All-level tree sums of `leaves` (length (2**nbits)**depth, block
    order), one array per level; the last entry is `leaves` itself."""
    levels = [np.asarray(leaves, dtype=np.float64)]
    for _ in range(depth):
        levels.append(_pair_sums(levels[-1], nbits))
    return tuple(reversed(levels))


def _osc_sums(block: np.ndarray, avgs, width: int) -> np.ndarray:
    """Tree sums of |v - avgs[j]| over the j-th run of 2**width cells of
    `block`.  The tiled oscillation pyramid calls it once per tile and
    level; it is private, so that a tracer wrapping every public kernel
    sees that build as one call, not hundreds."""
    avgs = np.asarray(avgs, dtype=np.float64)
    dev = np.reshape(block, (avgs.size, 1 << width)) - avgs[:, None]
    np.abs(dev, out=dev)
    out = dev.reshape(-1)
    for _ in range(width):  # addends >= +0.0: no -0.0 sum to clear
        out = out[0::2] + out[1::2]
    return out


def _sweep_level(parent: np.ndarray, level: np.ndarray, nbits: int) -> None:
    """One step of the maximal sweep, in place: each average in `level`
    that is not strictly larger than its parent's running max becomes that
    max.  It takes one strided slot of siblings at a time, so each
    operation is one loop over `parent`, not a loop over each parent's few
    children."""
    arity = 1 << nbits
    keep = np.empty(parent.size, dtype=bool)
    for j in range(arity):
        child = level[j::arity]
        np.less_equal(child, parent, out=keep)  # values are finite
        np.copyto(child, parent, where=keep)


def _running_max(levels, nbits: int) -> np.ndarray:
    """Per-leaf max of ancestor averages, in place: `levels` is a list of
    writable average levels, top first, and each takes one
    :func:`_sweep_level` step from its parent; returns the finest level."""
    for parent, level in zip(levels, levels[1:]):
        _sweep_level(parent, level, nbits)
    return levels[-1]


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


# ------------------------------------------------------------ metric entries


def osc_entries(orders: np.ndarray, w: np.ndarray, f: np.ndarray, rows: np.ndarray,
                ends: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """osc[j] = sum_{i<=ends[j]} w_x |f_x - avg[j]|, x = orders[rows[j], i]:
    the weighted oscillation sum of entry j, the first ends[j]+1 points in
    center rows[j]'s distance order, about the given mean avg[j].

    The sum runs left to right over i from 0, as in the direct per-entry
    loop, but position-major, in runs of up to _OSC_RUN entries of nearby
    centers so that a run's arrays stay in cache: with a run's entries
    sorted longest first, step i adds point i's term to the entries that
    reach position i, reading f and w at each center's position-i point
    once.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    avg = np.asarray(avg, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    out = np.empty(ends.size)
    by_row = np.argsort(rows, kind="stable")
    for lo in range(0, ends.size, _OSC_RUN):
        run = by_row[lo:lo + _OSC_RUN]
        run = run[np.argsort(ends[run])[::-1]]
        out[run] = _osc_run(orders, w, f, rows[run], ends[run], avg[run])
    return out


def _osc_run(orders: np.ndarray, w: np.ndarray, f: np.ndarray, rows: np.ndarray,
             ends: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """`osc_entries` for entries sorted by non-increasing `ends`."""
    first = int(rows.min())
    block = orders[first:int(rows.max()) + 1]
    rows = rows - first
    # reach[i] = number of entries whose prefix holds position i
    reach = np.searchsorted(-ends, -np.arange(int(ends[0]) + 1), side="right")
    acc = np.zeros(ends.size)
    dev = np.empty_like(acc)
    wts = np.empty_like(acc)
    for i, n in enumerate(reach):
        pts = block[:, i]
        r, d, ww = rows[:n], dev[:n], wts[:n]
        np.take(f[pts], r, out=d, mode="wrap")  # r is in range; skip the check
        np.subtract(d, avg[:n], out=d)
        np.abs(d, out=d)
        np.take(w[pts], r, out=ww, mode="wrap")
        d *= ww
        acc[:n] += d
    return acc
