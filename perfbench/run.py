#!/usr/bin/env python3
"""jnlab benchmark: time to every verdict of a workload, and where it goes.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload metric-verify --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
One run is one process.  It repeats the workload (set-up, then the fixed
call list, on fresh inputs and with the package's caches cold) until
``--seconds`` would be exceeded.  Each call's time is its fastest over the
repetitions; set-up time is the median.  With ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see layers.py).

Standard output ends with two lines: the run record (commit, versions,
backend, output digest, ...) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  Problems go to stderr.
README.md in this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_FLOOR_S = 0.25
MAX_SETUPS = 16
END_TO_END_UNITS = {"wall_s": "s", "slowest_call_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


def cap_threads() -> None:
    """Keep BLAS and OpenMP pools at most nproc wide; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = NPROC
        os.environ[var] = str(max(1, min(n, NPROC)))


def import_package():
    """Import jnlab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import jnlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import jnlab from {SRC}: {exc}")
    if not os.path.abspath(jnlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: jnlab was imported from {jnlab.__file__}, not from {SRC}")
    return jnlab


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of the package sources, which names the code measured without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "jnlab")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ------------------------------------------------------------------- runs


def clear_package_caches() -> None:
    """Empty the package's module-level memo caches, as a new process has them."""
    for name, mod in list(sys.modules.items()):
        if name == "jnlab" or name.startswith("jnlab."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def repetition(workload, seed: int, workdir: str, traced: bool) -> dict:
    """Set up and make the call list once.  An untraced repetition repeats a
    short set-up until it has run for SETUP_FLOOR_S, so that a set-up of a
    few milliseconds still gives a steady median; the last inputs are used."""
    from layers import LayerTrace
    from recorder import Recorder

    setup_fn, calls_fn = workload
    gc.collect()
    trace = LayerTrace() if traced else None
    rec = Recorder()
    setups: list[float] = []
    start = perf_counter()
    with trace.installed() if traced else contextlib.nullcontext():
        while True:
            clear_package_caches()
            t0 = perf_counter()
            inputs = setup_fn(seed, workdir)
            setups.append(perf_counter() - t0)
            if traced or sum(setups) >= SETUP_FLOOR_S or len(setups) >= MAX_SETUPS:
                break
        calls_fn(inputs, rec)
    return {
        "traced": traced,
        "setups": setups,
        "durations": rec.durations,
        "labels": rec.labels,
        "total_s": perf_counter() - start,
        "attempted": len(rec.durations),
        "failed": rec.failed,
        "problems": rec.problems,
        "digest": rec.digest,
        "layers": trace.metrics() if traced else None,
    }


def run(args) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reps: list[dict] = []
    need = 2 if args.trace else 1
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        start = perf_counter()
        while True:
            # a traced run alternates untraced and traced repetitions
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(repetition(workload, args.seed, workdir, traced))
            longest = max(r["total_s"] for r in reps)
            if len(reps) >= need and perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(args, reps)


def summarize(args, reps: list[dict]) -> tuple[dict, dict]:
    import jnlab
    import numpy as np

    from layers import SELF_TIMES, metric_units

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append(f"repetitions gave {len(digests)} different output digests")

    def best_calls(rows) -> list[float]:
        """Each call's fastest duration over the repetitions.  The machine
        only ever slows a call down (other tenants, the processor's clock),
        so the fastest repetition is the one they touched least."""
        if any(r["labels"] != rows[0]["labels"] for r in rows):
            problems.append("repetitions made different call lists")
        return [min(ds) for ds in zip(*(r["durations"] for r in rows))]

    best = best_calls(plain)
    slowest = max(range(len(best)), key=best.__getitem__)

    if args.trace:
        units = metric_units()
        values = {}
        for name in units:
            seen = [r["layers"][name] for r in traced]
            if units[name] == "s":
                values[name] = statistics.median(seen)
            else:
                # counts repeat exactly; a count that moves is a defect
                if len(set(seen)) > 1:
                    problems.append(f"count {name} differs between repetitions: {seen}")
                values[name] = seen[0]
        values["trace.wall_s"] = sum(best_calls(traced))
        values["trace.overhead_frac"] = values["trace.wall_s"] / sum(best) - 1.0
        units.update({"trace.overhead_frac": "ratio", "trace.wall_s": "s"})
    else:
        values = {
            "wall_s": sum(best),
            "slowest_call_s": best[slowest],
            "setup_s": statistics.median(t for r in plain for t in r["setups"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    get_backend = getattr(jnlab.kernels, "current_backend", None)
    backend = get_backend() if get_backend else "numpy"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "commit": git_commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": NPROC, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "backend": backend,
        # timings are comparable across commits only on the numpy backend
        "comparable": backend == "numpy",
        "digest": digests[0] if len(digests) == 1 else digests,
        "failed_frac": failed / attempted,
        "slowest_call": plain[0]["labels"][slowest],
        "wall_s_each": [sum(r["durations"]) for r in plain],
        "setup_s_each": [t for r in plain for t in r["setups"]],
    }
    if args.trace:
        # self times are medians over the traced repetitions, so they are
        # shares of the median traced call-list time; set-up is not part of
        # it, so its layers are left out
        wall = statistics.median(sum(r["durations"]) for r in traced)
        top = sorted((n for n in SELF_TIMES if n != "metric.construct_s"),
                     key=values.get, reverse=True)[:6]
        record["largest_self_time_shares_of_wall"] = {n: values[n] / wall for n in top}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("dyadic-grid", "metric-verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cap_threads()
    import_package()
    record, result = run(args)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
