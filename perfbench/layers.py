"""Per-layer times and work counts of a traced run, measured from outside.

``LayerTrace.installed()`` replaces every public function of every jnlab
module, at each module binding that holds it (``metric_cz`` and ``cli``
import many by name), with a wrapper that records the call's self time:
its duration minus the durations of the wrapped calls it makes.  A few
methods and cached properties are wrapped the same way.  Work counts are
read from return values and arguments.  The originals are restored on exit;
the package itself carries no instrumentation.

``LayerTrace.metrics()`` folds the records into the ``per_layer`` metrics
named in BENCHMARK.json.  A function a later version of the package no
longer has simply reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("kernels", "grid", "functionals", "dyadic_cz", "generators",
           "metric", "metric_cz", "report", "cli")

MB = float(1 << 20)

# timed methods and cached properties: (module, class, attribute)
METHODS = (
    ("grid", "GridFunction", "sum_pyramid"),
    ("grid", "GridFunction", "abs_pyramid"),
    ("grid", "GridFunction", "osc_pyramid"),
    ("metric", "MetricMeasureSpace", "orders"),
    ("metric", "MetricMeasureSpace", "sorted_d"),
    ("metric", "MetricMeasureSpace", "wcum"),
)
# methods counted but not timed, so their time stays with their callers
BALL_OPS = ("members", "average_mask", "osc_mask")

VERIFIERS = ("dyadic_cz.verify_jn_dyadic", "dyadic_cz.check_good_lambda_dyadic",
             "metric_cz.verify_mainresult", "metric_cz.verify_bmo_jn",
             "metric_cz.check_toiterate")

# metric name -> the wrapped keys whose self times it sums
SELF_TIMES = {
    "kernels.ball_tables_s": ("kernels.ball_tables",),
    "kernels.build_pyramid_s": ("kernels.build_pyramid",),
    "kernels.maximal_sweep_s": ("kernels.maximal_sweep",),
    "kernels.dp_sweep_s": ("kernels.dp_sweep",),
    "kernels.halve_pairs_s": ("kernels.halve_pairs",),
    "grid.osc_pyramid_s": ("grid.osc_pyramid",),
    "grid.abs_pyramid_s": ("grid.abs_pyramid",),
    "grid.sum_pyramid_s": ("grid.sum_pyramid",),
    "functionals.jnp_dyadic_s": ("functionals.jnp_dyadic",),
    "functionals.weak_lp_s": ("functionals.weak_lp",),
    "functionals.distribution_s": ("functionals.distribution",),
    "functionals.bmo_dyadic_s": ("functionals.bmo_dyadic",),
    "dyadic_cz.dyadic_maximal_s": ("dyadic_cz.dyadic_maximal",),
    "dyadic_cz.level_set_s": ("dyadic_cz.level_set",),
    "dyadic_cz.cz_decompose_dyadic_s": ("dyadic_cz.cz_decompose_dyadic",),
    "dyadic_cz.verify_jn_dyadic_s": ("dyadic_cz.verify_jn_dyadic",),
    "dyadic_cz.check_good_lambda_dyadic_s": ("dyadic_cz.check_good_lambda_dyadic",),
    "metric.construct_s": ("metric.space_from_points", "metric.build_space",
                           "metric.space_from_csv"),
    "metric.tables_s": ("metric.orders", "metric.sorted_d", "metric.wcum"),
    "metric.doubling_constant_s": ("metric.doubling_constant",),
    "metric.bmo_norm_metric_s": ("metric.bmo_norm_metric",),
    "metric.hl_maximal_restricted_s": ("metric.hl_maximal_restricted",),
    "metric.global_maximal_s": ("metric.global_maximal",),
    "metric.vitali_subcover_s": ("metric.vitali_subcover",),
    "metric.jnp_metric_lower_s": ("metric.jnp_metric_lower",),
    "metric.check_admissible_s": ("metric.check_admissible",),
    "metric_cz.compute_witness_s": ("metric_cz.compute_witness",),
    "metric_cz.cz_balls_s": ("metric_cz.cz_balls",),
    "metric_cz.nested_cz_s": ("metric_cz.nested_cz",),
    "metric_cz.verify_mainresult_s": ("metric_cz.verify_mainresult",),
    "metric_cz.verify_bmo_jn_s": ("metric_cz.verify_bmo_jn",),
    "metric_cz.check_toiterate_s": ("metric_cz.check_toiterate",),
    "report.serialize_s": ("report.reports_to_json", "report.write_reports_json",
                           "report.write_reports_csv"),
}
# metric name -> module whose self times it sums (every wrapped function)
MODULE_SELF_TIMES = {f"{m}.self_s": m for m in MODULES if m != "cli"}
MODULE_SELF_TIMES["cli.main_s"] = "cli"

CALL_COUNTS = {
    "kernels.ball_tables.calls": "kernels.ball_tables",
    "kernels.halve_pairs.calls": "kernels.halve_pairs",
    "dyadic_cz.level_set.calls": "dyadic_cz.level_set",
    "metric_cz.compute_witness.calls": "metric_cz.compute_witness",
    "metric_cz.cz_balls.calls": "metric_cz.cz_balls",
}
# counts taken from return values and arguments, by the hooks below
WORK_COUNTS = ("grid.pyramid_builds", "dyadic_cz.cz_cubes",
               "metric.vitali.candidates", "metric.vitali.kept",
               "metric.jnp.evaluations", "metric.ball_ops.calls",
               "metric_cz.cover_balls", "report.reports", "report.nonvacuous")


def metric_units() -> dict:
    """Every per-layer metric this module reports, with its unit."""
    units = {name: "s" for name in list(SELF_TIMES) + list(MODULE_SELF_TIMES)}
    units.update({name: "count" for name in list(CALL_COUNTS) + list(WORK_COUNTS)})
    units["kernels.out_mb"] = "MB"
    return units


def _array_bytes(out) -> int:
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, tuple):
        return sum(_array_bytes(x) for x in out)
    return 0


class LayerTrace:
    """Self times, call counts and work counts of one traced repetition."""

    def __init__(self):
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child = [0.0]  # time of wrapped callees, one slot per open call
        self._pyramids: dict = {}  # (id(grid), key) -> (grid, last pyramid)

    # --------------------------------------------------------- wrappers

    def _span(self, key: str, fn, hook=None):
        child, self_s, calls = self._child, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                self_s[key] += dt - inner
                calls[key] += 1
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["metric.ball_ops.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hook(self, key: str):
        counts = self.counts
        if key.startswith("kernels."):
            def hook(args, out):
                counts["kernels.out_bytes"] += _array_bytes(out)
        elif key == "dyadic_cz.cz_decompose_dyadic":
            def hook(args, out):
                counts["dyadic_cz.cz_cubes"] += len(out.cubes)
        elif key == "metric_cz.cz_balls":
            def hook(args, out):
                counts["metric_cz.cover_balls"] += len(out.balls)
        elif key == "metric.vitali_subcover":
            def hook(args, out):
                counts["metric.vitali.candidates"] += len(args[1])
                counts["metric.vitali.kept"] += len(out)
        elif key == "metric.jnp_metric_lower":
            def hook(args, out):
                counts["metric.jnp.evaluations"] += out.evaluations
        elif key in VERIFIERS:
            def hook(args, out):
                reports = out if isinstance(out, list) else [out]
                counts["report.reports"] += len(reports)
                counts["report.nonvacuous"] += sum(1 for r in reports if r.lhs > 0)
        elif key.startswith("grid.") and key.endswith("_pyramid"):
            pyramids = self._pyramids

            def hook(args, out):
                # the cache hands back the same object; a new one was built
                slot = (id(args[0]), key)
                seen = pyramids.get(slot)
                if seen is None or seen[1] is not out:
                    counts["grid.pyramid_builds"] += 1
                    pyramids[slot] = (args[0], out)
        else:
            hook = None
        return hook

    # --------------------------------------------------------- install

    @contextlib.contextmanager
    def installed(self):
        patches = []  # (owner, name, original)

        def patch(owner, name, new):
            patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, new)

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"jnlab.{short}")
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    key = f"{short}.{name}"
                    wrappers[fn] = self._span(key, fn, self._hook(key))
        bindings = [m for n, m in list(sys.modules.items())
                    if n == "jnlab" or n.startswith("jnlab.")]
        for mod in bindings:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    patch(mod, name, wrappers[val])

        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"jnlab.{short}"), cls_name, None)
            orig = None if cls is None else cls.__dict__.get(attr)
            key = f"{short}.{attr}"
            if isinstance(orig, property):
                patch(cls, attr, property(self._span(key, orig.fget)))
            elif inspect.isfunction(orig):
                patch(cls, attr, self._span(key, orig, self._hook(key)))
        space_cls = importlib.import_module("jnlab.metric").MetricMeasureSpace
        for attr in BALL_OPS:
            if inspect.isfunction(space_cls.__dict__.get(attr)):
                patch(space_cls, attr, self._counted(space_cls.__dict__[attr]))
        try:
            yield self
        finally:
            for owner, name, orig in reversed(patches):
                setattr(owner, name, orig)
            self._pyramids.clear()

    # --------------------------------------------------------- results

    def metrics(self) -> dict:
        out = {}
        for name, keys in SELF_TIMES.items():
            out[name] = sum(self.self_s.get(k, 0.0) for k in keys)
        for name, module in MODULE_SELF_TIMES.items():
            out[name] = sum(t for k, t in self.self_s.items()
                            if k.split(".", 1)[0] == module)
        for name, key in CALL_COUNTS.items():
            out[name] = self.calls.get(key, 0)
        for name in WORK_COUNTS:
            out[name] = self.counts.get(name, 0)
        out["kernels.out_mb"] = self.counts.get("kernels.out_bytes", 0) / MB
        return out
