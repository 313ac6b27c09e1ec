"""Numeric kernels.

The four grid kernels (``halve_pairs``, ``build_pyramid``,
``maximal_sweep``, ``dp_sweep``) have two interchangeable backends, numba
and pure numpy.  numba is used when importable unless the environment
variable ``JNLAB_NUMBA`` is set to ``0``, ``false``, ``off`` or ``no``.
Results are identical across backends: every cube sum is a fixed-shape
tree of adjacent-pair additions.

Pyramid layout: a function on ``A**L`` leaves (``A = 2**nbits`` children
per node) is stored level by level in one flat buffer.  Level ``k`` holds
``A**k`` entries and starts at ``offsets[k]``; entries are in depth-first
(bit-interleaved) order so each node's leaves form a contiguous block.

The metric kernels are numpy only.  ``ball_tables`` gives the per-center
prefix sums of weight and weighted values along the distance order, which
is all the maximal functions and witness tables need.  ``osc_table`` builds
the O(m^3) table of prefix oscillations that only the BMO norm reads.
Both sum left to right along each center's order, so their entries are
bitwise those of the direct per-center loops.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "available_backends",
    "build_pyramid",
    "current_backend",
    "dp_sweep",
    "halve_pairs",
    "ball_tables",
    "maximal_sweep",
    "osc_table",
    "pyramid_offsets",
    "use_backend",
]


def _env_disables_numba() -> bool:
    return os.environ.get("JNLAB_NUMBA", "").strip().lower() in {"0", "false", "off", "no"}


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False


def pyramid_offsets(depth: int, nbits: int) -> np.ndarray:
    """Start index of each level, plus one past the end (length depth+2)."""
    arity = 1 << nbits
    sizes = arity ** np.arange(depth + 1, dtype=np.int64)
    off = np.zeros(depth + 2, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    return off


# ---------------------------------------------------------------- numpy impl


def _np_halve_pairs(x):
    return x.reshape(-1, 2).sum(axis=1)


def _np_pyramid_fill(buf, off, nbits):
    depth = len(off) - 2
    for k in range(depth, 0, -1):
        cur = buf[off[k]:off[k + 1]]
        for _ in range(nbits):
            cur = cur.reshape(-1, 2).sum(axis=1)
        buf[off[k - 1]:off[k]] = cur


def _np_maximal_sweep(buf, off, nbits):
    arity = 1 << nbits
    depth = len(off) - 2
    run = np.full(1, buf[0] / float(arity**depth))
    prov = np.zeros(1, dtype=np.int64)
    for k in range(1, depth + 1):
        run = np.repeat(run, arity)
        prov = np.repeat(prov, arity)
        avg = buf[off[k]:off[k + 1]] * (1.0 / float(arity ** (depth - k)))
        better = avg > run
        run[better] = avg[better]
        prov[better] = k
    return run, prov


def _np_dp_sweep(tbuf, off, nbits):
    depth = len(off) - 2
    vbuf = np.empty_like(tbuf)
    split = np.zeros(tbuf.shape[0], dtype=np.uint8)
    vbuf[off[depth]:off[depth + 1]] = tbuf[off[depth]:off[depth + 1]]
    for k in range(depth - 1, -1, -1):
        child = vbuf[off[k + 1]:off[k + 2]]
        for _ in range(nbits):
            child = child.reshape(-1, 2).sum(axis=1)
        term = tbuf[off[k]:off[k + 1]]
        cut = child > term
        vbuf[off[k]:off[k + 1]] = np.where(cut, child, term)
        split[off[k]:off[k + 1]] = cut
    return vbuf, split


_NUMPY_IMPL = {
    "halve_pairs": _np_halve_pairs,
    "pyramid_fill": _np_pyramid_fill,
    "maximal_sweep": _np_maximal_sweep,
    "dp_sweep": _np_dp_sweep,
}


# ---------------------------------------------------------------- numba impl

if HAVE_NUMBA:

    @njit(cache=True)
    def _nb_halve_pairs(x):
        half = x.shape[0] // 2
        out = np.empty(half, dtype=np.float64)
        for i in range(half):
            out[i] = x[2 * i] + x[2 * i + 1]
        return out

    @njit(cache=True)
    def _nb_pyramid_fill(buf, off, nbits):
        depth = off.shape[0] - 2
        for k in range(depth, 0, -1):
            cur = buf[off[k]:off[k + 1]].copy()
            for _ in range(nbits):
                half = cur.shape[0] // 2
                nxt = np.empty(half, dtype=np.float64)
                for i in range(half):
                    nxt[i] = cur[2 * i] + cur[2 * i + 1]
                cur = nxt
            for i in range(cur.shape[0]):
                buf[off[k - 1] + i] = cur[i]

    @njit(cache=True)
    def _nb_maximal_sweep(buf, off, nbits):
        arity = np.int64(1) << nbits
        depth = off.shape[0] - 2
        nleaf = off[depth + 1] - off[depth]
        run = np.empty(nleaf, dtype=np.float64)
        prov = np.zeros(nleaf, dtype=np.int64)
        top = buf[0] / float(arity**depth)
        for i in range(nleaf):
            run[i] = top
        for k in range(1, depth + 1):
            blk = arity ** (depth - k)
            inv = 1.0 / float(blk)
            for j in range(off[k + 1] - off[k]):
                avg = buf[off[k] + j] * inv
                s = j * blk
                # run/prov are constant on each level-k block here
                if avg > run[s]:
                    for i in range(s, s + blk):
                        run[i] = avg
                        prov[i] = k
        return run, prov

    @njit(cache=True)
    def _nb_dp_sweep(tbuf, off, nbits):
        depth = off.shape[0] - 2
        vbuf = np.empty_like(tbuf)
        split = np.zeros(tbuf.shape[0], dtype=np.uint8)
        for i in range(off[depth], off[depth + 1]):
            vbuf[i] = tbuf[i]
        for k in range(depth - 1, -1, -1):
            cur = vbuf[off[k + 1]:off[k + 2]].copy()
            for _ in range(nbits):
                half = cur.shape[0] // 2
                nxt = np.empty(half, dtype=np.float64)
                for i in range(half):
                    nxt[i] = cur[2 * i] + cur[2 * i + 1]
                cur = nxt
            for j in range(off[k + 1] - off[k]):
                term = tbuf[off[k] + j]
                if cur[j] > term:
                    vbuf[off[k] + j] = cur[j]
                    split[off[k] + j] = 1
                else:
                    vbuf[off[k] + j] = term
        return vbuf, split

    _NUMBA_IMPL = {
        "halve_pairs": _nb_halve_pairs,
        "pyramid_fill": _nb_pyramid_fill,
        "maximal_sweep": _nb_maximal_sweep,
        "dp_sweep": _nb_dp_sweep,
    }


_IMPL: dict = {}
_backend = ""


def available_backends() -> tuple[str, ...]:
    return ("numpy", "numba") if HAVE_NUMBA else ("numpy",)


def use_backend(name: str) -> None:
    """Switch kernel implementations; 'numba' requires numba to be installed."""
    global _backend
    if name == "numpy":
        _IMPL.update(_NUMPY_IMPL)
    elif name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        _IMPL.update(_NUMBA_IMPL)
    else:
        raise ValueError(f"unknown backend {name!r}")
    _backend = name


def current_backend() -> str:
    return _backend


use_backend("numba" if HAVE_NUMBA and not _env_disables_numba() else "numpy")


# ---------------------------------------------------------------- dispatch


def halve_pairs(x: np.ndarray) -> np.ndarray:
    """Sums of adjacent pairs; the only reduction primitive used on grids."""
    return _IMPL["halve_pairs"](np.ascontiguousarray(x, dtype=np.float64))


def build_pyramid(leaves: np.ndarray, depth: int, nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """All-level tree sums of `leaves` (length (2**nbits)**depth, block order)."""
    off = pyramid_offsets(depth, nbits)
    buf = np.empty(off[-1], dtype=np.float64)
    buf[off[depth]:off[depth + 1]] = leaves
    if depth > 0:
        _IMPL["pyramid_fill"](buf, off, nbits)
    return buf, off


def maximal_sweep(buf: np.ndarray, off: np.ndarray, nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-leaf max of ancestor averages of a sum pyramid, with the depth
    of the shallowest ancestor attaining it (strict improvement updates)."""
    return _IMPL["maximal_sweep"](buf, off, nbits)


def dp_sweep(tbuf: np.ndarray, off: np.ndarray, nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up best-partition values over a term pyramid.

    value(node) = max(term(node), sum over children of value(child));
    split flag is 1 where the children strictly beat the node's own term.
    """
    return _IMPL["dp_sweep"](tbuf, off, nbits)


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
