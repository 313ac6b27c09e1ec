"""Command-line front end.

Four subcommands:

  gen      write a grid function, a metric space, or point values to CSV
  analyze  compute functionals (JN_p, BMO, weak-L^p, maximal sup)
  cz       run a Calderon-Zygmund decomposition and dump the cover
  verify   run an inequality verifier and write pass/fail reports

Every option is one entry of ``OPTIONS``: its name, type, default,
choices or range, help text and the subcommands that take it.  The parser,
the config file and the input checks all read that table.  Option
precedence is flags > config file > built-in defaults; the config file
(--config) is a flat ``key = value`` text file whose keys are the long
option names.  A flag and a config value are parsed and checked alike.
Identical arguments and seed produce byte-identical output files.

Exit codes:

  0  all checks passed (or the command has no checks and succeeded)
  1  at least one check failed, or a verify run produced no checks
  2  usage or input error, reported in one line
  3  internal error: an unexpected exception, reported in one line
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import generators as gen
from .dyadic_cz import check_good_lambda_dyadic, cz_decompose_dyadic, verify_jn_dyadic
from .errors import InvariantViolation, MetricAxiomError, PreconditionError
from .functionals import bmo_dyadic, distribution, jnp_dyadic, notlp_terms, weak_lp
from .grid import MAX_CELL_BITS, DyadicCube, GridFunction, _deviation, average, mean_oscillation
from .metric import (Ball, _family_sums, bmo_norm_metric, doubling_constant,
                     hl_maximal_restricted, jnp_metric_lower, space_from_csv, space_to_csv,
                     values_from_csv, values_to_csv)
from .metric_cz import check_toiterate, cz_balls, verify_bmo_jn, verify_mainresult
from .report import _csv_text, _json_text, all_pass, reports_to_csv, reports_to_json

# ---------------------------------------------------------------- generators

# grid generators: name -> (always 1-D, builder from the resolved options)
GRIDS = {
    "constant": (False, lambda o: gen.gen_constant(o["dim"], o["depth"], o["value"])),
    "step": (False, lambda o: gen.gen_step(o["dim"], o["depth"])),
    "power-singularity": (True, lambda o: gen.gen_power_singularity(o["p"], o["depth"])),
    "log-singularity": (True, lambda o: gen.gen_log_singularity(o["depth"])),
    "random-uniform": (False, lambda o: gen.gen_random_uniform(o["dim"], o["depth"], o["seed"])),
    "random-martingale": (False, lambda o: gen.gen_random_martingale(o["dim"], o["depth"],
                                                                     o["seed"])),
}
SPACES = {
    "line": lambda o: gen.gen_line(o["m"]),
    "grid2d": lambda o: gen.gen_grid2d(o["side"]),
    "tree-graph": lambda o: gen.gen_tree_graph(o["m"], o["seed"]),
    "random-cloud": lambda o: gen.gen_random_cloud(o["m"], o["seed"], dim=o["dim"] or 2),
}
VALUES = {
    "log-distance": lambda o, space: gen.f_log_distance(space, o["anchor"]),
    "distance": lambda o, space: gen.f_distance(space, o["anchor"]),
    "random-values": lambda o, space: gen.f_random(space, o["seed"]),
}

# ------------------------------------------------------------------- options

_TYPE_NAMES = {int: "an integer", float: "a number"}


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--name`` (``-`` for ``_``) and the config key
    ``name``, taken by `commands` (None: every subcommand).  ``low`` is the
    smallest allowed value; ``finite`` rejects nan and +-inf."""

    name: str
    type: type = str
    default: object = None
    commands: tuple[str, ...] | None = None
    choices: tuple[str, ...] = ()
    low: int | None = None
    finite: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str):
        """The typed value of a flag or config-file string."""
        try:
            return self.type(text)
        except ValueError:
            raise ValueError(f"{self.flag} must be {_TYPE_NAMES[self.type]}, "
                             f"got {text!r}") from None

    def check(self, value) -> None:
        """Reject a value no command can use, before any work."""
        if self.low is not None and value < self.low:
            raise ValueError(f"{self.flag} must be >= {self.low}, got {value}")
        if self.finite and not math.isfinite(value):
            raise ValueError(f"{self.flag} must be finite, got {value}")
        if self.choices and value not in self.choices:
            raise ValueError(f"{self.flag} must be one of {', '.join(self.choices)}, "
                             f"got {value!r}")


# in --help order; a command's own options come before the shared ones
OPTIONS = {opt.name: opt for opt in (
    Option("terms", int, 6, ("analyze",)),
    Option("budget", int, 4000, ("analyze",), low=1),
    Option("curve_out", commands=("analyze",),
           help="also write the distribution curve CSV here"),
    Option("lam", float, commands=("cz", "verify"), finite=True),
    Option("b", float, commands=("verify",), finite=True),
    Option("n_lambda", int, 60, ("verify",), low=1),
    Option("seed", int, 0, low=0),
    Option("out"),
    Option("format", default="json", choices=("json", "csv")),
    Option("config"),
    Option("depth", int, 8, low=0),
    Option("dim", int, low=1, help="dimension (default: 1 for a grid, 2 for random-cloud)"),
    Option("p", float, 2.0, finite=True),
    Option("m", int, 32, low=1),
    Option("side", int, 8, low=1),
    Option("value", float, 1.0),
    Option("anchor", int, 0),
    Option("space", help="space CSV path or space kind"),
    Option("values", help="values CSV path"),
    Option("values_kind", choices=tuple(VALUES)),
    Option("ball", default="0:auto",
           help="B0 as center:radius (radius 'auto' spans the space)"),
    Option("q0", default="0", help="dyadic base cube as depth:i0,i1,..."),
)}


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
            if key not in OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                out[key] = OPTIONS[key].parse(val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, then every value checked"""
    flags = {key: OPTIONS[key].parse(val) for key, val in vars(args).items()
             if key in OPTIONS and val is not None}
    cfg = {name: opt.default for name, opt in OPTIONS.items()}
    if flags.get("config"):
        cfg.update(load_config(flags["config"]))
    cfg.update(flags)
    for name, opt in OPTIONS.items():
        if cfg[name] is not None:
            opt.check(cfg[name])
    for key in ("command", "kind", "source", "claim"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _grid_dim(cfg: dict, source: str, one_d: bool) -> int:
    """--dim of a generated grid, 1 if not given; refuses a grid above the cell
    cap before it is allocated, and a --dim other than 1 for a 1-D source."""
    dim, depth = cfg["dim"] or 1, cfg["depth"]
    if one_d and dim != 1:
        raise ValueError(f"--dim must be 1 for {source}, got {dim}")
    if dim * depth > MAX_CELL_BITS:
        raise ValueError(f"--depth {depth} gives a {dim}-D grid of 2**{dim * depth} "
                         f"cells; the cap is 2**{MAX_CELL_BITS}")
    return dim


def _need_lam(cfg: dict, what: str) -> float:
    if cfg.get("lam") is None:
        raise ValueError(f"{what} needs --lam")
    return cfg["lam"]


# -------------------------------------------------------------------- inputs


def _read_csv(reader, path: str):
    """Run a CSV reader; its input errors name the file."""
    try:
        return reader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _generate_grid(cfg: dict, name: str) -> GridFunction:
    one_d, build = GRIDS[name]
    return build(dict(cfg, dim=_grid_dim(cfg, name, one_d)))


def _grid_from_source(cfg: dict, source: str) -> GridFunction:
    if os.path.exists(source):
        return _read_csv(GridFunction.from_csv, source)
    if source not in GRIDS:
        raise ValueError(f"unknown grid source {source!r} (not a file, not a generator)")
    return _generate_grid(cfg, source)


def _load_space(cfg: dict):
    src = cfg.get("space")
    if not src:
        raise ValueError("this command needs --space (a CSV path or a space kind)")
    if os.path.exists(src):
        return _read_csv(space_from_csv, src)
    if src not in SPACES:
        raise ValueError(f"unknown space kind {src!r}")
    return SPACES[src](cfg)


def _grid_input(cfg: dict) -> tuple[GridFunction, DyadicCube]:
    """The grid source and its base cube Q0 ("0" = root; "2:1,3" = depth
    2, index (1,3))."""
    f = _grid_from_source(cfg, cfg["source"])
    head, _, tail = cfg["q0"].partition(":")
    try:
        depth = int(head)
        index = tuple(int(t) for t in tail.split(",")) if tail else (0,) * f.dim
    except ValueError:
        raise ValueError(f"--q0 must be depth or depth:i0,i1,... in integers, "
                         f"got {cfg['q0']!r}") from None
    try:
        q0 = DyadicCube(f.root, depth, index)
        f._check_cube(q0)
    except ValueError as exc:
        raise ValueError(f"--q0 {cfg['q0']}: {exc}") from None
    return f, q0


def _space_input(cfg: dict) -> tuple:
    """The space, its values and the ball B0 ("c:r"; radius "auto", or
    none, takes in the whole space)."""
    space = _load_space(cfg)
    path, kind = cfg.get("values"), cfg.get("values_kind")
    if path and kind:
        raise ValueError("give --values or --values-kind, not both")
    if path:
        f = _read_csv(lambda p: space.check_values(values_from_csv(p)), path)
    else:
        f = VALUES[kind or "log-distance"](cfg, space)
    head, _, tail = cfg["ball"].partition(":")
    try:
        center = int(head)
        radius = None if tail in ("", "auto") else float(tail)
    except ValueError:
        raise ValueError(f"--ball must be center:radius with an integer center and a "
                         f"number or 'auto' for radius, got {cfg['ball']!r}") from None
    if center < 0 or center >= space.m:
        raise ValueError(f"--ball {cfg['ball']}: center {center} out of range for m={space.m}")
    if radius is None:
        radius = 1.5 * float(np.max(space.d[center])) + 1.0
    try:
        b0 = Ball(center, radius)
    except ValueError as exc:
        raise ValueError(f"--ball {cfg['ball']}: {exc}") from None
    return space, f, b0


# ------------------------------------------------------------------- output


def _write(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_reports(reports, cfg: dict) -> int:
    text = reports_to_csv(reports) if cfg["format"] == "csv" else reports_to_json(reports)
    _write(text, cfg.get("out"))
    if not reports:
        print("FAIL: no checks ran", file=sys.stderr)
        return 1
    n_fail = sum(0 if r.passed else 1 for r in reports)
    if n_fail:
        print(f"FAIL: {n_fail} of {len(reports)} checks failed", file=sys.stderr)
    return 0 if all_pass(reports) else 1


def _cube_dict(c: DyadicCube) -> dict:
    return {"depth": c.depth, "index": c.index}


def _ball_dict(b: Ball) -> dict:
    return {"center": b.center, "radius": b.radius}


# ----------------------------------------------------------------- commands


def cmd_gen(cfg: dict) -> int:
    kind = cfg["kind"]
    out = cfg.get("out")
    if not out:
        raise ValueError("gen needs --out")
    if kind in GRIDS:
        _generate_grid(cfg, kind).to_csv(out)
    elif kind in SPACES:
        space_to_csv(SPACES[kind](cfg), out)
    elif kind in VALUES:
        values_to_csv(VALUES[kind](cfg, _load_space(cfg)), out)
    else:
        raise ValueError(f"unknown generator {kind!r}")
    return 0


def _analyze_grid(cfg: dict) -> int:
    f, q0 = _grid_input(cfg)
    p = cfg["p"]
    jn = jnp_dyadic(f, q0, p)
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
        # no cube average exceeds the largest |f| on its cells, in floats
        # too, so the dyadic maximal sup is max |f| over Q0's cells
        "maximal_sup": float(np.abs(f.zslice(q0)).max()),
    }
    _write(_json_text(result), cfg.get("out"))
    if cfg.get("curve_out"):
        top = float(_deviation(f, q0).max())
        lams = np.geomspace(max(top, 1e-12) / 1e4, max(top, 1e-12), 60)
        rows = [(l, distribution(f, q0, float(l))) for l in lams]
        _write(_csv_text(("lambda", "measure"), rows), cfg["curve_out"])
    return 0


def _analyze_notlp(cfg: dict) -> int:
    _grid_dim(cfg, "notlp", one_d=True)
    terms = notlp_terms(cfg["p"], cfg["terms"], cfg["depth"])
    partial = np.cumsum(terms)
    rows = zip(range(terms.size), terms, partial)
    _write(_csv_text(("j", "term", "partial"), rows), cfg.get("out"))
    return 0


def _analyze_space(cfg: dict) -> int:
    space, f, b0 = _space_input(cfg)
    jn = jnp_metric_lower(space, f, b0, cfg["p"], budget=cfg["budget"])
    mf = hl_maximal_restricted(space, f, b0)
    (mu0,), (integral,) = _family_sums(space, f, [b0])
    result = {
        "space": cfg["space"],
        "m": space.m,
        "p": cfg["p"],
        "ball": _ball_dict(b0),
        "doubling": doubling_constant(space),
        "average": float(integral / mu0),
        "bmo": bmo_norm_metric(space, f),
        "jnp_lower": {
            "value": jn.value, "norm": jn.norm,
            "evaluations": jn.evaluations,
            "n_balls": len(jn.family.balls),
            "balls": [_ball_dict(b) for b in jn.family.balls],
        },
        "maximal_sup": float(np.nanmax(mf)),
    }
    _write(_json_text(result), cfg.get("out"))
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
    lam = _need_lam(cfg, "cz")
    if cfg.get("source"):
        f, q0 = _grid_input(cfg)
        cover = cz_decompose_dyadic(f, q0, lam)
        columns = ("depth", "index", "average", "measure")
        rows = [dict(_cube_dict(c), average=a, measure=c.measure)
                for c, a in zip(cover.cubes, cover.averages)]
        result = {"lambda": lam, "q0": _cube_dict(q0), "n_cubes": len(rows), "cubes": rows,
                  "union_measure": cover.union_measure,
                  "residual_measure": cover.residual.measure}
    elif cfg.get("space"):
        space, f, b0 = _space_input(cfg)
        cover = cz_balls(space, f, b0, lam)
        columns = ("center", "radius", "average", "average5", "measure")
        rows = [dict(_ball_dict(b), average=a, average5=a5, measure=mu, exponent=n)
                for b, a, a5, mu, n in zip(cover.balls, cover.averages, cover.averages5,
                                           cover.measures, cover.exponents)]
        result = {"lambda": lam, "ball": _ball_dict(b0), "n_balls": len(rows), "balls": rows,
                  "total_measure": cover.total_measure,
                  "level_measure": space.measure_mask(cover.level_mask),
                  "truncated": cover.truncated}
    else:
        raise ValueError("cz needs a grid source argument or --space")
    if cfg["format"] == "csv":  # the named columns of each row; the exponent is JSON-only
        text = _csv_text(columns, ([row[k] for k in columns] for row in rows))
    else:
        text = _json_text(result)
    _write(text, cfg.get("out"))
    return 0


# verify claims: name -> (input loader, reports from the options and inputs)
CLAIMS = {
    "jn-dyadic": (_grid_input, lambda o, f, q0: verify_jn_dyadic(
        f, q0, o["p"], n_lambda=o["n_lambda"])),
    "good-lambda": (_grid_input, lambda o, f, q0: [check_good_lambda_dyadic(
        f, q0, o["p"], o["b"], _need_lam(o, "verify good-lambda"))]),
    "mainresult": (_space_input, lambda o, space, f, b0: verify_mainresult(
        space, f, b0, o["p"], n_lambda=o["n_lambda"])),
    "bmo": (_space_input, lambda o, space, f, b0: verify_bmo_jn(
        space, f, b0, n_lambda=o["n_lambda"])),
    "toiterate": (_space_input, lambda o, space, f, b0: [check_toiterate(
        space, f, b0, _need_lam(o, "verify toiterate"), o["p"])]),
}


def cmd_verify(cfg: dict) -> int:
    claim = cfg["claim"]
    load, run = CLAIMS[claim]
    if load is _grid_input and not cfg.get("source"):
        raise ValueError(f"verify {claim} needs a grid source argument")
    return _emit_reports(run(cfg, *load(cfg)), cfg)


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jnlab",
        description="Calderon-Zygmund decompositions and John-Nirenberg checks")
    sub = ap.add_subparsers(dest="command", required=True)
    subs = {
        "gen": sub.add_parser("gen", help="generate inputs"),
        "analyze": sub.add_parser("analyze", help="compute functionals"),
        "cz": sub.add_parser("cz", help="run a decomposition at level --lam"),
        "verify": sub.add_parser("verify", help="run an inequality verifier"),
    }
    subs["gen"].add_argument("kind", help="one of: %s; %s; %s" % (
        ", ".join(GRIDS), ", ".join(SPACES), ", ".join(VALUES)))
    subs["analyze"].add_argument("source", nargs="?",
                                 help="grid CSV path, grid generator name, or 'notlp'")
    subs["cz"].add_argument("source", nargs="?", help="grid CSV path or generator name")
    subs["verify"].add_argument("claim", choices=tuple(CLAIMS))
    subs["verify"].add_argument("source", nargs="?", help="grid CSV path or generator name")
    # values stay strings here: Option.parse and Option.check read flags
    # and config values alike, so a bad value is one line by either route
    for opt in OPTIONS.values():
        metavar = "{%s}" % ",".join(opt.choices) if opt.choices else None
        for command in opt.commands or subs:
            subs[command].add_argument(opt.flag, dest=opt.name, metavar=metavar,
                                       help=opt.help)
    return ap


_COMMANDS = {"gen": cmd_gen, "analyze": cmd_analyze, "cz": cmd_cz,
             "verify": cmd_verify}
_FLAGS = {opt.flag for opt in OPTIONS.values()}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_signed_values(argv: list[str]) -> list[str]:
    """``--lam -1e3`` as ``--lam=-1e3``.  argparse takes a token that starts
    with '-' for a flag unless it is a plain decimal, so "-1e3" and "-inf"
    would stop at its usage block instead of reaching Option.parse and
    Option.check like every other value."""
    out = []
    for tok in argv:
        if out and out[-1] in _FLAGS and tok.startswith("-") and _is_number(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_signed_values(argv))
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
