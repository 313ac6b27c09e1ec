"""Command-line front end.

Four subcommands:

  gen      write a grid function, a metric space, or point values to CSV
  analyze  compute functionals (JN_p, BMO, weak-L^p, maximal sup)
  cz       run a Calderon-Zygmund decomposition and dump the cover
  verify   run an inequality verifier and write pass/fail reports

Option precedence is flags > config file > built-in defaults; the config
file (--config) is a flat ``key = value`` text file using the long option
names.  Identical arguments and seed produce byte-identical output files.

Exit codes:

  0  all checks passed (or the command has no checks and succeeded)
  1  at least one check failed, or a verify run produced no checks
  2  usage or input error, reported in one line
  3  internal error: an unexpected exception, reported in one line
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import generators as gen
from .dyadic_cz import cz_decompose_dyadic, dyadic_maximal, verify_jn_dyadic, check_good_lambda_dyadic
from .errors import InvariantViolation, MetricAxiomError, PreconditionError
from .functionals import bmo_dyadic, distribution, jnp_dyadic, notlp_terms, weak_lp
from .grid import MAX_CELL_BITS, DyadicCube, GridFunction, average, mean_oscillation
from .metric import (Ball, bmo_norm_metric, doubling_constant, hl_maximal_restricted,
                     jnp_metric_lower, space_from_csv, space_to_csv,
                     values_from_csv, values_to_csv)
from .metric_cz import check_toiterate, cz_balls, verify_bmo_jn, verify_mainresult
from .report import _jsonable, all_pass, write_reports_csv, write_reports_json

GRID_KINDS = ("constant", "step", "power-singularity", "log-singularity",
              "random-uniform", "random-martingale")
SPACE_KINDS = ("line", "grid2d", "tree-graph", "random-cloud")
VALUE_KINDS = ("log-distance", "distance", "random-values")
FORMATS = ("json", "csv")

VERIFY_CLAIMS = ("jn-dyadic", "good-lambda", "mainresult", "bmo", "toiterate")

# per-key parsers for config-file values; also the set of known option names
_SCHEMA = {
    "seed": int, "depth": int, "dim": int, "m": int, "side": int,
    "terms": int, "anchor": int, "budget": int, "n_lambda": int,
    "p": float, "lam": float, "value": float, "b": float,
    "out": str, "format": str, "space": str, "values": str,
    "values_kind": str, "q0": str, "ball": str, "config": str,
    "curve_out": str,
}

_DEFAULTS = {
    "seed": 0, "depth": 8, "dim": 1, "m": 32, "side": 8, "terms": 6,
    "anchor": 0, "budget": 4000, "n_lambda": 60,
    "p": 2.0, "value": 1.0,
    "format": "json", "q0": "0", "ball": "0:auto",
}


def load_config(path: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SCHEMA:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                out[key] = _SCHEMA[key](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults"""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key, val in vars(args).items():
        if val is not None and key in _SCHEMA:
            cfg[key] = val
    for key in ("command", "kind", "source", "claim"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    _check_inputs(cfg)
    return cfg


def _check_inputs(cfg: dict) -> None:
    """Reject sizes and levels no command can use, before any work."""
    for key in ("m", "side", "n_lambda", "budget"):
        if cfg[key] < 1:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 1, got {cfg[key]}")
    if cfg["depth"] < 0:
        raise ValueError(f"--depth must be >= 0, got {cfg['depth']}")
    for key in ("p", "lam", "b"):
        val = cfg.get(key)
        if val is not None and not math.isfinite(val):
            raise ValueError(f"--{key} must be finite, got {val}")
    for key, choices in (("format", FORMATS), ("values_kind", VALUE_KINDS)):
        if cfg.get(key) is not None and cfg[key] not in choices:
            raise ValueError(f"--{key.replace('_', '-')} must be one of "
                             f"{', '.join(choices)}, got {cfg[key]!r}")


def _check_grid_size(cfg: dict, source: str) -> None:
    """Refuse a generated grid above the cell cap before it is allocated,
    and a --dim other than 1 for a source that is always 1-D."""
    dim, depth = cfg["dim"], cfg["depth"]
    if source in ("power-singularity", "log-singularity", "notlp") and dim != 1:
        raise ValueError(f"--dim must be 1 for {source}, got {dim}")
    if dim * depth > MAX_CELL_BITS:
        raise ValueError(f"--depth {depth} gives a {dim}-D grid of 2**{dim * depth} "
                         f"cells; the cap is 2**{MAX_CELL_BITS}")


# ------------------------------------------------------------------ sources


def _read_csv(reader, path: str):
    """Run a CSV reader; its input errors name the file."""
    try:
        return reader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _grid_from_source(cfg: dict, source: str) -> GridFunction:
    if os.path.exists(source):
        return _read_csv(GridFunction.from_csv, source)
    _check_grid_size(cfg, source)
    if source == "constant":
        return gen.gen_constant(cfg["dim"], cfg["depth"], cfg["value"])
    if source == "step":
        return gen.gen_step(cfg["dim"], cfg["depth"])
    if source == "power-singularity":
        return gen.gen_power_singularity(cfg["p"], cfg["depth"])
    if source == "log-singularity":
        return gen.gen_log_singularity(cfg["depth"])
    if source == "random-uniform":
        return gen.gen_random_uniform(cfg["dim"], cfg["depth"], cfg["seed"])
    if source == "random-martingale":
        return gen.gen_random_martingale(cfg["dim"], cfg["depth"], cfg["seed"])
    raise ValueError(f"unknown grid source {source!r} (not a file, not a generator)")


def _space_from_kind(cfg: dict, kind: str):
    if kind == "line":
        return gen.gen_line(cfg["m"])
    if kind == "grid2d":
        return gen.gen_grid2d(cfg["side"])
    if kind == "tree-graph":
        return gen.gen_tree_graph(cfg["m"], cfg["seed"])
    if kind == "random-cloud":
        return gen.gen_random_cloud(cfg["m"], cfg["seed"],
                                    dim=max(2, cfg["dim"]))
    raise ValueError(f"unknown space kind {kind!r}")


def _values_from_kind(cfg: dict, space, kind: str) -> np.ndarray:
    if kind == "log-distance":
        return gen.f_log_distance(space, cfg["anchor"])
    if kind == "distance":
        return gen.f_distance(space, cfg["anchor"])
    if kind == "random-values":
        return gen.f_random(space, cfg["seed"])
    raise ValueError(f"unknown values kind {kind!r}")


def _load_space(cfg: dict):
    src = cfg.get("space")
    if not src:
        raise ValueError("this command needs --space (a CSV path or a space kind)")
    if os.path.exists(src):
        return _read_csv(space_from_csv, src)
    return _space_from_kind(cfg, src)


def _load_values(cfg: dict, space) -> np.ndarray:
    path = cfg.get("values")
    kind = cfg.get("values_kind")
    if path and kind:
        raise ValueError("give --values or --values-kind, not both")
    if path:
        return _read_csv(lambda p: space.check_values(values_from_csv(p)), path)
    return _values_from_kind(cfg, space, kind or "log-distance")


def _parse_q0(spec: str, f: GridFunction) -> DyadicCube:
    """"0" = root; "2:1,3" = depth 2, index (1,3)."""
    head, _, tail = spec.partition(":")
    depth = int(head)
    if tail:
        index = tuple(int(t) for t in tail.split(","))
    else:
        index = (0,) * f.dim
    return DyadicCube(f.root, depth, index)


def _parse_ball(spec: str, space) -> Ball:
    """"c:r"; radius "auto" (or omitted) takes in the whole space."""
    head, _, tail = spec.partition(":")
    center = int(head)
    if center < 0 or center >= space.m:
        raise ValueError(f"ball center {center} out of range for m={space.m}")
    if not tail or tail == "auto":
        radius = 1.5 * float(np.max(space.d[center])) + 1.0
    else:
        radius = float(tail)
    return Ball(center, radius)


# ------------------------------------------------------------------- output


def _dump_json(obj, out: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(reports, cfg: dict) -> int:
    out = cfg.get("out")
    if out:
        if cfg["format"] == "csv":
            write_reports_csv(reports, out)
        else:
            write_reports_json(reports, out)
    else:
        _dump_json([r.to_dict() for r in reports], None)
    if not reports:
        print("FAIL: no checks ran", file=sys.stderr)
        return 1
    n_fail = sum(0 if r.passed else 1 for r in reports)
    if n_fail:
        print(f"FAIL: {n_fail} of {len(reports)} checks failed", file=sys.stderr)
    return 0 if all_pass(reports) else 1


def _cube_dict(c: DyadicCube) -> dict:
    return {"depth": c.depth, "index": list(c.index)}


# ----------------------------------------------------------------- commands


def cmd_gen(cfg: dict) -> int:
    kind = cfg["kind"]
    out = cfg.get("out")
    if not out:
        raise ValueError("gen needs --out")
    if kind in GRID_KINDS:
        _grid_from_source(cfg, kind).to_csv(out)
    elif kind in SPACE_KINDS:
        space_to_csv(_space_from_kind(cfg, kind), out)
    elif kind in VALUE_KINDS:
        space = _load_space(cfg)
        values_to_csv(_values_from_kind(cfg, space, kind), out)
    else:
        raise ValueError(f"unknown generator {kind!r}")
    return 0


def _analyze_grid(cfg: dict) -> int:
    f = _grid_from_source(cfg, cfg["source"])
    q0 = _parse_q0(cfg["q0"], f)
    p = cfg["p"]
    jn = jnp_dyadic(f, q0, p)
    field = dyadic_maximal(f, q0)
    result = {
        "source": cfg["source"],
        "p": p,
        "q0": _cube_dict(q0),
        "average": average(f, q0),
        "mean_oscillation": mean_oscillation(f, q0),
        "bmo": bmo_dyadic(f, q0),
        "jnp": {"value": jn.value, "norm": jn.norm,
                "n_witness": len(jn.witness),
                "witness": [_cube_dict(c) for c in jn.witness[:64]]},
        "weak_lp": weak_lp(f, q0, p),
        "maximal_sup": field.sup,
    }
    _dump_json(result, cfg.get("out"))
    if cfg.get("curve_out"):
        g = np.abs(f.values - average(f, q0))
        top = float(g.max())
        lams = np.geomspace(max(top, 1e-12) / 1e4, max(top, 1e-12), 60)
        rows = ["lambda,measure"]
        rows += [f"{repr(float(l))},{repr(distribution(f, q0, float(l)))}"
                 for l in lams]
        _dump_lines(rows, cfg["curve_out"])
    return 0


def _analyze_notlp(cfg: dict) -> int:
    _check_grid_size(cfg, "notlp")
    terms = notlp_terms(cfg["p"], cfg["terms"], cfg["depth"])
    partial = np.cumsum(terms)
    rows = ["j,term,partial"]
    rows += [f"{j},{repr(float(terms[j]))},{repr(float(partial[j]))}"
             for j in range(terms.size)]
    _dump_lines(rows, cfg.get("out"))
    return 0


def _analyze_space(cfg: dict) -> int:
    space = _load_space(cfg)
    f = _load_values(cfg, space)
    b0 = _parse_ball(cfg["ball"], space)
    jn = jnp_metric_lower(space, f, b0, cfg["p"], budget=cfg["budget"])
    mf = hl_maximal_restricted(space, f, b0)
    mask0 = space.members(b0)
    result = {
        "space": cfg["space"],
        "m": space.m,
        "p": cfg["p"],
        "ball": {"center": b0.center, "radius": b0.radius},
        "doubling": doubling_constant(space),
        "average": space.average_mask(f, mask0),
        "bmo": bmo_norm_metric(space, f),
        "jnp_lower": {
            "value": jn.value, "norm": jn.norm,
            "evaluations": jn.evaluations,
            "n_balls": len(jn.family.balls),
            "balls": [{"center": b.center, "radius": b.radius}
                      for b in jn.family.balls],
        },
        "maximal_sup": float(np.nanmax(mf)),
    }
    _dump_json(result, cfg.get("out"))
    return 0


def cmd_analyze(cfg: dict) -> int:
    source = cfg.get("source")
    if source == "notlp":
        return _analyze_notlp(cfg)
    if source:
        return _analyze_grid(cfg)
    if cfg.get("space"):
        return _analyze_space(cfg)
    raise ValueError("analyze needs a grid source argument or --space")


def cmd_cz(cfg: dict) -> int:
    if cfg.get("lam") is None:
        raise ValueError("cz needs --lam")
    lam = cfg["lam"]
    if cfg.get("source"):
        f = _grid_from_source(cfg, cfg["source"])
        q0 = _parse_q0(cfg["q0"], f)
        cover = cz_decompose_dyadic(f, q0, lam)
        if cfg["format"] == "csv":
            rows = ["depth,index,average,measure"]
            rows += ["%d,%s,%s,%s" % (c.depth, ";".join(map(str, c.index)),
                                      repr(float(a)), repr(c.measure))
                     for c, a in zip(cover.cubes, cover.averages)]
            _dump_lines(rows, cfg.get("out"))
        else:
            _dump_json({
                "lambda": lam,
                "q0": _cube_dict(q0),
                "n_cubes": len(cover.cubes),
                "cubes": [dict(_cube_dict(c), average=a, measure=c.measure)
                          for c, a in zip(cover.cubes, cover.averages)],
                "union_measure": cover.union_measure,
                "residual_measure": cover.residual.measure,
            }, cfg.get("out"))
        return 0
    if cfg.get("space"):
        space = _load_space(cfg)
        f = _load_values(cfg, space)
        b0 = _parse_ball(cfg["ball"], space)
        cover = cz_balls(space, f, b0, lam)
        if cfg["format"] == "csv":
            rows = ["center,radius,average,average5,measure"]
            rows += ["%d,%s,%s,%s,%s" % (b.center, repr(b.radius),
                                         repr(float(a)), repr(float(a5)),
                                         repr(mu))
                     for b, a, a5, mu in zip(cover.balls, cover.averages,
                                             cover.averages5, cover.measures)]
            _dump_lines(rows, cfg.get("out"))
        else:
            _dump_json({
                "lambda": lam,
                "ball": {"center": b0.center, "radius": b0.radius},
                "n_balls": len(cover.balls),
                "balls": [{"center": b.center, "radius": b.radius,
                           "average": a, "average5": a5, "measure": mu,
                           "exponent": ex}
                          for b, a, a5, mu, ex in zip(
                              cover.balls, cover.averages, cover.averages5,
                              cover.measures, cover.exponents)],
                "total_measure": cover.total_measure,
                "level_measure": space.measure_mask(cover.level_mask),
                "truncated": cover.truncated,
            }, cfg.get("out"))
        return 0
    raise ValueError("cz needs a grid source argument or --space")


def cmd_verify(cfg: dict) -> int:
    claim = cfg["claim"]
    if claim in ("jn-dyadic", "good-lambda"):
        if not cfg.get("source"):
            raise ValueError(f"verify {claim} needs a grid source argument")
        f = _grid_from_source(cfg, cfg["source"])
        q0 = _parse_q0(cfg["q0"], f)
        if claim == "jn-dyadic":
            reports = verify_jn_dyadic(f, q0, cfg["p"], n_lambda=cfg["n_lambda"])
        else:
            if cfg.get("lam") is None:
                raise ValueError("verify good-lambda needs --lam")
            reports = [check_good_lambda_dyadic(f, q0, cfg["p"], cfg.get("b"), cfg["lam"])]
        return _emit_reports(reports, cfg)
    space = _load_space(cfg)
    f = _load_values(cfg, space)
    b0 = _parse_ball(cfg["ball"], space)
    if claim == "mainresult":
        reports = verify_mainresult(space, f, b0, cfg["p"], n_lambda=cfg["n_lambda"])
    elif claim == "bmo":
        reports = verify_bmo_jn(space, f, b0, n_lambda=cfg["n_lambda"])
    elif claim == "toiterate":
        if cfg.get("lam") is None:
            raise ValueError("verify toiterate needs --lam")
        reports = [check_toiterate(space, f, b0, cfg["lam"], cfg["p"])]
    else:
        raise ValueError(f"unknown claim {claim!r}")
    return _emit_reports(reports, cfg)


# ------------------------------------------------------------------- parser


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=FORMATS)
    sp.add_argument("--config")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--side", type=int)
    sp.add_argument("--value", type=float)
    sp.add_argument("--anchor", type=int)
    sp.add_argument("--space", help="space CSV path or space kind")
    sp.add_argument("--values", help="values CSV path")
    sp.add_argument("--values-kind", dest="values_kind", choices=VALUE_KINDS)
    sp.add_argument("--ball", help="B0 as center:radius (radius 'auto' spans the space)")
    sp.add_argument("--q0", help="dyadic base cube as depth:i0,i1,...")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jnlab",
        description="Calderon-Zygmund decompositions and John-Nirenberg checks")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate inputs")
    sp.add_argument("kind", help="one of: %s; %s; %s" % (
        ", ".join(GRID_KINDS), ", ".join(SPACE_KINDS), ", ".join(VALUE_KINDS)))
    _add_common(sp)

    sp = sub.add_parser("analyze", help="compute functionals")
    sp.add_argument("source", nargs="?",
                    help="grid CSV path, grid generator name, or 'notlp'")
    sp.add_argument("--terms", type=int)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--curve-out", dest="curve_out",
                    help="also write the distribution curve CSV here")
    _add_common(sp)

    sp = sub.add_parser("cz", help="run a decomposition at level --lam")
    sp.add_argument("source", nargs="?", help="grid CSV path or generator name")
    sp.add_argument("--lam", type=float)
    _add_common(sp)

    sp = sub.add_parser("verify", help="run an inequality verifier")
    sp.add_argument("claim", choices=VERIFY_CLAIMS)
    sp.add_argument("source", nargs="?", help="grid CSV path or generator name")
    sp.add_argument("--lam", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--n-lambda", dest="n_lambda", type=int)
    _add_common(sp)

    return ap


_COMMANDS = {"gen": cmd_gen, "analyze": cmd_analyze, "cz": cmd_cz,
             "verify": cmd_verify}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except (PreconditionError, MetricAxiomError, ValueError, OSError) as exc:
        print(f"jnlab: error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"jnlab: check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"jnlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
