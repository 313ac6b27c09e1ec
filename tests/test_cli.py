import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from jnlab.cli import _emit_reports, _resolve, build_parser, load_config, main
from jnlab.dyadic_cz import cz_decompose_dyadic
from jnlab.errors import InvariantViolation
from jnlab.generators import (f_random, gen_log_singularity, gen_power_singularity,
                              gen_random_cloud, gen_random_uniform)
from jnlab.grid import DyadicCube, average, mean_oscillation
from jnlab.metric import Ball, space_from_points, space_to_csv, values_to_csv
from jnlab.metric_cz import cz_balls
from jnlab.report import CheckReport


def run(*argv):
    return main(list(argv))


def test_gen_grid_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("gen", "random-uniform", "--dim", "2", "--depth", "4",
               "--seed", "5", "--out", str(a)) == 0
    assert run("gen", "random-uniform", "--dim", "2", "--depth", "4",
               "--seed", "5", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_space_and_values(tmp_path):
    sp = tmp_path / "s.csv"
    vals = tmp_path / "v.csv"
    assert run("gen", "tree-graph", "--m", "15", "--seed", "3",
               "--out", str(sp)) == 0
    assert run("gen", "log-distance", "--space", str(sp),
               "--out", str(vals)) == 0
    from jnlab.metric import space_from_csv, values_from_csv
    s = space_from_csv(sp)
    f = values_from_csv(vals)
    assert s.m == 15 and f.shape == (15,)


def test_gen_random_cloud_dim(tmp_path):
    # a cloud is 2-D unless --dim is given, and an explicit --dim 1 is honoured
    outs = {}
    for dim in (None, "1", "2"):
        outs[dim] = tmp_path / f"cloud-{dim}.csv"
        flags = () if dim is None else ("--dim", dim)
        assert run("gen", "random-cloud", "--m", "6", *flags, "--out", str(outs[dim])) == 0
    for dim in (1, 2):
        space_to_csv(gen_random_cloud(6, 0, dim=dim), tmp_path / f"want-{dim}.csv")
    want1, want2 = ((tmp_path / f"want-{d}.csv").read_bytes() for d in (1, 2))
    assert outs[None].read_bytes() == outs["2"].read_bytes() == want2
    assert outs["1"].read_bytes() == want1 != want2


def test_gen_requires_out():
    assert run("gen", "constant") == 2


def test_gen_unknown_kind(tmp_path):
    assert run("gen", "sawtooth", "--out", str(tmp_path / "x.csv")) == 2


def test_gen_ignores_a_same_named_file(tmp_path, monkeypatch):
    # gen builds a grid generator's output, whatever files the directory holds
    from jnlab.generators import gen_constant, gen_step

    monkeypatch.chdir(tmp_path)
    gen_constant(1, 2, 5.0).to_csv("step")
    gen_step(1, 3).to_csv("want.csv")
    assert run("gen", "step", "--depth", "3", "--out", "got.csv") == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_config_precedence(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("depth = 3\nseed = 9\n# comment\ndim = 1\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    run("gen", "random-uniform", "--config", str(conf), "--out", str(a))
    run("gen", "random-uniform", "--depth", "3", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # flag beats config
    run("gen", "random-uniform", "--config", str(conf), "--seed", "10",
        "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_config_rejects_unknown_key(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("depht = 3\n")
    with pytest.raises(ValueError):
        load_config(str(conf))
    assert run("gen", "constant", "--config", str(conf),
               "--out", str(tmp_path / "x.csv")) == 2


def test_config_reports_line_numbers(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("depth = 3\nnonsense\n")
    with pytest.raises(ValueError, match=":2:"):
        load_config(str(conf))


def test_analyze_step_hand_numbers(tmp_path):
    out = tmp_path / "a.json"
    assert run("analyze", "step", "--depth", "1", "--p", "2",
               "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["jnp"]["norm"] == 0.5
    assert data["bmo"] == 0.5
    assert data["average"] == 0.5


def test_analyze_constant_all_zero(tmp_path):
    out = tmp_path / "a.json"
    assert run("analyze", "constant", "--depth", "4", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["bmo"] == 0.0
    assert data["jnp"]["value"] == 0.0
    assert data["weak_lp"] == 0.0


def test_analyze_grid_file_round_trip(tmp_path):
    grid = tmp_path / "g.csv"
    out = tmp_path / "a.json"
    run("gen", "random-martingale", "--depth", "5", "--seed", "2",
        "--out", str(grid))
    assert run("analyze", str(grid), "--p", "2", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["jnp"]["value"] > 0


def test_analyze_notlp_csv(tmp_path):
    out = tmp_path / "terms.csv"
    assert run("analyze", "notlp", "--p", "2", "--terms", "6",
               "--depth", "12", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,term,partial"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert int(last[0]) == 5
    assert float(last[2]) > float(lines[1].split(",")[2])


def test_analyze_notlp_defaults(tmp_path):
    out = tmp_path / "terms.csv"
    assert run("analyze", "notlp", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,term,partial"
    assert len(lines) == 7


def test_analyze_space(tmp_path):
    out = tmp_path / "a.json"
    assert run("analyze", "--space", "line", "--m", "14",
               "--values-kind", "log-distance", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["doubling"] == 3.0
    assert data["jnp_lower"]["value"] > 0
    assert data["m"] == 14


def test_analyze_space_cloud_reports_a_family(tmp_path):
    # the default B0 spans the space, so its pool holds 90,000 balls; the
    # search used to spend its budget on the first singletons, one ball
    out = tmp_path / "a.json"
    assert run("analyze", "--space", "random-cloud", "--m", "300", "--seed", "1",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["jnp_lower"]["n_balls"] > 1


def test_analyze_needs_a_source():
    assert run("analyze") == 2


def test_analyze_curve(tmp_path):
    out = tmp_path / "a.json"
    curve = tmp_path / "curve.csv"
    assert run("analyze", "log-singularity", "--depth", "8", "--out", str(out),
               "--curve-out", str(curve)) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "lambda,measure"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_analyze_curve_sweeps_the_deviation_on_q0(tmp_path):
    # the curve's top level is max |f - f_Q0| over Q0's cells, not over
    # the whole grid, so its last row is the first at measure 0
    curve = tmp_path / "curve.csv"
    assert run("analyze", "log-singularity", "--depth", "10", "--q0", "1:1",
               "--out", str(tmp_path / "a.json"), "--curve-out", str(curve)) == 0
    rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
    f = gen_log_singularity(10)
    q0 = DyadicCube(f.root, 1, (1,))
    top = float(np.max(np.abs(f.zslice(q0) - average(f, q0))))
    assert float(rows[-1][0]) == top and float(rows[-1][1]) == 0.0
    assert float(rows[-2][1]) > 0.0


def test_cz_dyadic_json(tmp_path):
    out = tmp_path / "cz.json"
    assert run("cz", "random-uniform", "--depth", "6", "--seed", "1",
               "--lam", "0.7", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 0.7
    assert data["n_cubes"] == len(data["cubes"])
    for cube in data["cubes"]:
        assert 0.7 < cube["average"] <= 2 * 0.7


def test_cz_metric_csv(tmp_path):
    out = tmp_path / "cz.csv"
    code = run("cz", "--space", "grid2d", "--side", "4",
               "--values-kind", "distance", "--lam", "3.4",
               "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "center,radius,average,average5,measure"
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        int(fields[0])
        for x in fields[1:]:
            assert float(x) == float(x)  # plain decimal, no repr wrappers


def cz_rows(tmp_path, argv, columns):
    """One cz run in each format: the JSON result, after checking that the
    CSV has `columns` and lists the JSON's rows in those columns, an index
    joined by ';'."""
    out = {fmt: tmp_path / f"cz.{fmt}" for fmt in ("json", "csv")}
    for fmt, path in out.items():
        assert run("cz", *argv, "--format", fmt, "--out", str(path)) == 0
    data = json.loads(out["json"].read_text())
    header, *lines = out["csv"].read_text().splitlines()
    assert header == ",".join(columns)
    rows = data["cubes" if "cubes" in data else "balls"]
    assert len(rows) == len(lines) > 0
    for line, row in zip(lines, rows):
        assert line.split(",") == [";".join(map(str, row[k])) if isinstance(row[k], list)
                                   else str(row[k]) for k in columns]
    return data, rows


def test_cz_grid_formats_list_the_same_rows(tmp_path):
    data, rows = cz_rows(tmp_path, ("random-uniform", "--depth", "6", "--seed", "1",
                                    "--lam", "0.7"), ("depth", "index", "average", "measure"))
    f = gen_random_uniform(1, 6, 1)
    cover = cz_decompose_dyadic(f, DyadicCube(f.root, 0, (0,)), 0.7)
    assert data["n_cubes"] == len(rows) == len(cover.cubes)
    assert [r["index"] for r in rows] == [list(c.index) for c in cover.cubes]
    assert [r["average"] for r in rows] == cover.averages.tolist()


def test_cz_space_formats_list_the_same_rows(tmp_path):
    data, rows = cz_rows(tmp_path, ("--space", "random-cloud", "--m", "80", "--seed", "2",
                                    "--values-kind", "random-values", "--lam", "0.9"),
                         ("center", "radius", "average", "average5", "measure"))
    space = gen_random_cloud(80, 2)
    b0 = Ball(0, 1.5 * float(space.d[0].max()) + 1.0)  # --ball 0:auto
    cover = cz_balls(space, f_random(space, 2), b0, 0.9)
    assert data["n_balls"] == len(rows) == len(cover.balls) > 1
    assert len(set(cover.exponents)) > 1
    assert [r["exponent"] for r in rows] == list(cover.exponents)
    assert [r["average"] for r in rows] == cover.averages.tolist()
    assert [r["average5"] for r in rows] == cover.averages5.tolist()
    assert [(r["center"], r["radius"]) for r in rows] == [(b.center, b.radius)
                                                          for b in cover.balls]


def test_cz_dyadic_csv_rows_parse(tmp_path):
    out = tmp_path / "cz.csv"
    assert run("cz", "random-uniform", "--depth", "5", "--seed", "1",
               "--lam", "0.7", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "depth,index,average,measure"
    assert len(lines) > 1
    for line in lines[1:]:
        depth, index, avg, measure = line.split(",")
        int(depth)
        assert all(part.isdigit() for part in index.split(";"))
        assert 0.7 < float(avg) <= 1.4
        assert 0 < float(measure) < 1


def test_cz_requires_lam():
    assert run("cz", "step", "--depth", "3") == 2


def test_cz_lam_below_average():
    assert run("cz", "constant", "--depth", "3", "--lam", "0.5") == 2


def test_verify_jn_dyadic(tmp_path):
    out = tmp_path / "r.json"
    assert run("verify", "jn-dyadic", "step", "--depth", "4", "--p", "2",
               "--n-lambda", "25", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert len(data) == 25
    assert all(r["pass"] for r in data)


def test_verify_good_lambda(tmp_path):
    out = tmp_path / "r.json"
    assert run("verify", "good-lambda", "random-uniform", "--depth", "4",
               "--seed", "3", "--p", "2", "--lam", "2.0",
               "--out", str(out)) == 0


def test_verify_mainresult_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("verify", "mainresult", "--space", "random-cloud", "--m", "18",
            "--seed", "4", "--values-kind", "random-values", "--p", "2",
            "--n-lambda", "10")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert run("verify", "bmo", "--space", "line", "--m", "16",
               "--values-kind", "log-distance", "--format", "csv",
               "--n-lambda", "12", "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == "lambda,lhs,rhs"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("verify", "jn-dyadic", "step", "--depth", "3", "--n-lambda", "2"),
    ("verify", "bmo", "--space", "line", "--m", "8", "--n-lambda", "3"),
    ("cz", "step", "--depth", "3", "--lam", "0.6"),
    ("cz", "--space", "grid2d", "--side", "3", "--values-kind", "distance", "--lam", "3.0"),
])
def test_stdout_is_the_out_file(argv, fmt, tmp_path, capsys):
    # verify used to print JSON to stdout whatever --format said
    out = tmp_path / "o"
    assert run(*argv, "--format", fmt, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run(*argv, "--format", fmt) == 0
    assert capsys.readouterr().out == out.read_text()


def test_verify_toiterate_requires_lam():
    assert run("verify", "toiterate", "--space", "line", "--m", "10",
               "--values-kind", "log-distance") == 2


def test_emit_reports_exit_code_on_failure(tmp_path, capsys):
    bad = CheckReport(claim="x", lhs=2.0, rhs=1.0, constant=1.0)
    good = CheckReport(claim="x", lhs=0.0, rhs=1.0, constant=1.0)
    cfg = {"out": str(tmp_path / "r.json"), "format": "json"}
    assert _emit_reports([good, bad], cfg) == 1
    assert "FAIL: 1 of 2" in capsys.readouterr().err
    assert _emit_reports([good], cfg) == 0


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "jnlab.cli", "analyze", "step",
                          "--depth", "1", "--p", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["bmo"] == 0.5


# ------------------------------------------------------- input boundary


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize("argv", [
    ("analyze", "--space", "line", "--m", "0"),
    ("analyze", "--space", "grid2d", "--side", "0"),
    ("verify", "jn-dyadic", "random-martingale", "--depth", "6", "--n-lambda", "0"),
    ("verify", "toiterate", "--space", "grid2d", "--side", "4", "--lam", "nan"),
    ("verify", "toiterate", "--space", "grid2d", "--side", "4", "--lam", "inf"),
    ("verify", "mainresult", "--space", "line", "--m", "8", "--p", "nan"),
    ("verify", "good-lambda", "step", "--depth", "4", "--lam", "1", "--b", "nan"),
    # argparse would take these for flags, not values
    ("verify", "toiterate", "--space", "line", "--m", "9", "--lam", "-1e3"),
    ("verify", "toiterate", "--space", "line", "--m", "9", "--lam", "-inf"),
    ("verify", "toiterate", "--space", "line", "--m", "9", "--lam", "-1.5e-3"),
])
def test_bad_numbers_exit_2(argv, capsys):
    assert run(*argv) == 2
    assert "jnlab: error:" in one_line_error(capsys)


def test_good_lambda_zero_level_exit_2(capsys):
    # the constant function's threshold is 0, so lam = 0 passes that test
    assert run("verify", "good-lambda", "constant", "--lam", "0") == 2
    assert "lambda must be positive" in one_line_error(capsys)


def test_bad_numbers_in_config_exit_2(tmp_path, capsys):
    conf = tmp_path / "c.txt"
    conf.write_text("m = 0\n")
    assert run("analyze", "--space", "line", "--config", str(conf)) == 2
    one_line_error(capsys)


@pytest.mark.parametrize("rows", ["0,1.0\n5,2.0\n2,3.0\n", "0,1.0\n1,2.0\n-1,3.0\n",
                                  "0,1.0\n1,2.0\n1,3.0\n2,4.0\n"])
def test_values_csv_bad_index_exit_2(tmp_path, rows, capsys):
    vals = tmp_path / "v.csv"
    vals.write_text("m,3\n" + rows)
    assert run("analyze", "--space", "line", "--m", "3",
               "--values", str(vals)) == 2
    one_line_error(capsys)


def test_emit_reports_empty_is_not_a_pass(tmp_path, capsys):
    cfg = {"out": str(tmp_path / "r.json"), "format": "json"}
    assert _emit_reports([], cfg) == 1
    assert "no checks ran" in capsys.readouterr().err


def test_internal_error_exit_3(monkeypatch, capsys):
    # a lookup bug inside a command is an internal error, not bad input
    import jnlab.cli as cli

    for exc in (IndexError("index 0 is out of bounds"), KeyError(3)):
        def broken(cfg, exc=exc):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "analyze", broken)
        assert run("analyze", "step") == 3
        name = type(exc).__name__
        assert f"jnlab: internal error: {name}" in one_line_error(capsys)


def test_check_failure_exit_1(monkeypatch, capsys):
    # a verifier's InvariantViolation means a check failed, not bad input
    import jnlab.cli as cli

    def broken(*args, **kwargs):
        raise InvariantViolation("kept balls overlap", lam=1.0)

    monkeypatch.setattr(cli, "verify_mainresult", broken)
    assert run("verify", "mainresult", "--space", "line", "--m", "6") == 1
    assert one_line_error(capsys).startswith("jnlab: check failed: kept balls overlap")


@pytest.mark.parametrize("argv,message", [
    (("analyze", "no-such-grid"),
     "unknown grid source 'no-such-grid' (not a file, not a generator)"),
    (("verify", "mainresult"), "this command needs --space (a CSV path or a space kind)"),
    (("analyze", "--space", "no-such-space"), "unknown space kind 'no-such-space'"),
    (("verify", "bmo", "--space", "line", "--values", "v.csv", "--values-kind", "distance"),
     "give --values or --values-kind, not both"),
    (("cz", "--lam", "1"), "cz needs a grid source argument or --space"),
    (("verify", "jn-dyadic"), "verify jn-dyadic needs a grid source argument"),
])
def test_missing_or_unknown_input_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no file of a source's name
    assert run(*argv) == 2
    assert one_line_error(capsys) == f"jnlab: error: {message}\n"


@pytest.mark.parametrize("argv,option", [
    (("analyze", "step", "--depth", "-1"), "--depth"),
    (("verify", "bmo", "--space", "line", "--m", "5", "--anchor", "10"), "anchor"),
    (("analyze", "--space", "line", "--m", "5", "--anchor", "-1"), "anchor"),
    (("analyze", "--space", "line", "--m", "5", "--budget", "-3"), "--budget"),
    (("analyze", "--space", "line", "--m", "5", "--budget", "0"), "--budget"),
    # malformed specs
    (("analyze", "step", "--q0", "a"), "--q0"),
    (("cz", "step", "--lam", "1", "--q0", "1:0,"), "--q0"),
    (("analyze", "--space", "line", "--m", "5", "--ball", "0:abc"), "--ball"),
    (("analyze", "--space", "line", "--m", "5", "--ball", "x:1"), "--ball"),
    # well-formed specs with values out of range
    (("analyze", "--space", "line", "--m", "5", "--ball", "0:-1"), "--ball 0:-1:"),
    (("analyze", "--space", "line", "--m", "5", "--ball", "0:nan"), "--ball 0:nan:"),
    (("analyze", "--space", "line", "--m", "5", "--ball", "0:inf"), "--ball 0:inf:"),
    (("verify", "bmo", "--space", "line", "--m", "5", "--ball", "7:1"), "--ball 7:1:"),
    (("analyze", "step", "--depth", "3", "--q0", "1:5"), "--q0 1:5:"),
    (("cz", "step", "--depth", "3", "--lam", "1", "--q0", "9"), "--q0 9:"),
    (("analyze", "step", "--depth", "3", "--q0", "-1"), "--q0 -1:"),
    # numpy's own message for a negative seed names no option
    (("gen", "random-uniform", "--seed", "-1", "--depth", "3", "--out", "a.csv"), "--seed"),
    (("analyze", "--space", "random-cloud", "--m", "5", "--seed", "-3"), "--seed"),
    # a cloud was built in 2-D and a grid generator's message named no option
    (("analyze", "--space", "random-cloud", "--m", "5", "--dim", "0"), "--dim must be >= 1"),
    (("gen", "step", "--dim", "0", "--depth", "3", "--out", "x.csv"), "--dim must be >= 1"),
])
def test_out_of_range_option_exit_2(argv, option, capsys):
    assert run(*argv) == 2
    assert option in one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ("analyze", "log-singularity", "--dim", "4", "--depth", "8"),
    ("analyze", "power-singularity", "--dim", "2", "--depth", "6"),
    ("analyze", "notlp", "--dim", "3", "--depth", "12"),
    ("verify", "jn-dyadic", "log-singularity", "--dim", "2", "--depth", "6"),
])
def test_dim_of_one_d_source_exit_2(argv, tmp_path, capsys):
    assert run(*argv) == 2
    assert "--dim" in one_line_error(capsys)
    # the same value from a config file
    i = argv.index("--dim")
    conf = tmp_path / "c.txt"
    conf.write_text(f"dim = {argv[i + 1]}\n")
    assert run(*argv[:i], *argv[i + 2:], "--config", str(conf)) == 2
    assert "--dim" in one_line_error(capsys)
    # --dim 1 is what these sources are
    assert run(*argv[:i], *argv[i + 2:], "--dim", "1", "--out", str(tmp_path / "o")) == 0


@pytest.mark.parametrize("argv", [
    ("analyze", "step", "--depth", "40"),
    ("analyze", "random-uniform", "--dim", "30", "--depth", "1"),
    ("analyze", "notlp", "--depth", "40"),
])
def test_cell_cap_checked_before_generating(argv, monkeypatch, capsys):
    import jnlab.generators
    from jnlab.grid import GridFunction

    def must_not_run(*args, **kwargs):
        raise AssertionError("a generator ran past the cell cap")

    for name in ("gen_step", "gen_random_uniform"):
        monkeypatch.setattr(jnlab.generators, name, must_not_run)
    monkeypatch.setattr(GridFunction, "from_callable", must_not_run)
    assert run(*argv) == 2
    assert "cap is 2**24" in one_line_error(capsys)


def test_grid_csv_cell_cap(tmp_path, capsys):
    grid = tmp_path / "g.csv"
    grid.write_text("1,40,0.0,1.0\n0.5\n")
    assert run("analyze", str(grid)) == 2
    err = one_line_error(capsys)
    assert str(grid) in err and "dim * depth <= 24" in err


def test_cube_sum_overflow_exit_2(tmp_path, capsys):
    # two cells of 1.7e308 sum to inf; analyze used to print "Infinity"
    grid = tmp_path / "g.csv"
    grid.write_text("1,1,0.0,1.0\n1.7e308\n1.7e308\n")
    for argv in (("analyze", str(grid)), ("verify", "jn-dyadic", str(grid))):
        assert run(*argv) == 2
        assert "too large" in one_line_error(capsys)


def test_jnp_overflow_exit_2(tmp_path, capsys):
    # |Q| osc_Q^p overflows at p = 3 for values of size 1e154
    grid = tmp_path / "g.csv"
    grid.write_text("1,1,0.0,1.0\n1e154\n-1e154\n")
    vals = tmp_path / "v.csv"
    vals.write_text("m,4\n0,1e154\n1,-1e154\n2,1e154\n3,-1e154\n")
    space = ("--space", "line", "--m", "4", "--values", str(vals))
    for argv in (("analyze", str(grid)), ("verify", "jn-dyadic", str(grid)),
                 ("analyze",) + space, ("verify", "mainresult") + space):
        assert run(*argv, "--p", "3") == 2
        assert "JN_p value is not finite" in one_line_error(capsys)
    # at p = 2 each term is finite, and the search's sum of two overflows
    vals.write_text("m,4\n0,6e153\n1,-6e153\n2,6e153\n3,-6e153\n")
    assert run("analyze", *space, "--p", "2") == 2
    assert "JN_p value is not finite" in one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    # the large-branch constant 2^(p + 2(p^2 + (p/q)^3)) overflows from p = 9
    ("verify", "jn-dyadic", "random-uniform", "--depth", "6", "--p", "10"),
    # (C1 K / lam)^p overflows at the sweep's lowest levels
    ("verify", "mainresult", "--space", "line", "--m", "5", "--p", "200"),
    # the JN_p value underflows to 0 though the values are not constant
    ("verify", "jn-dyadic", "random-uniform", "--depth", "6", "--p", "1100"),
    ("verify", "mainresult", "--space", "line", "--m", "5", "--p", "2000"),
    ("analyze", "step", "--depth", "3", "--p", "2000"),
    ("analyze", "--space", "line", "--m", "6", "--p", "3000"),
])
def test_extreme_p_exit_2_naming_p(argv, capsys):
    assert run(*argv) == 2
    err = one_line_error(capsys)
    assert "jnlab: error:" in err and f"p={float(argv[-1])!r}" in err


def test_doubling_constant_overflow_exit_2(tmp_path, capsys):
    # weights 1 and 1e40 two apart make c_mu = 1e40 + 1, and c^8 overflows
    space, vals = tmp_path / "s.csv", tmp_path / "v.csv"
    space_to_csv(space_from_points([0.0, 1.0], weights=[1.0, 1e40]), space)
    values_to_csv(np.array([0.0, 1.0]), vals)
    for claim in ("mainresult", "bmo"):
        assert run("verify", claim, "--space", str(space), "--values", str(vals)) == 2
        assert "doubling constant too large" in one_line_error(capsys)


def test_good_lambda_jn_underflow_exit_2(tmp_path, capsys):
    # the power singularity times 1e-300 is not constant, but its JN_2 norm
    # underflows to 0, and a right side built on K = 0 reads 0 at every level
    f = gen_power_singularity(2.0, 10)
    f = f.with_values(f.values * 1e-300)
    grid = tmp_path / "g.csv"
    f.to_csv(grid)
    threshold = mean_oscillation(f, f.root.top()) / 0.25  # osc_Q0 / b, b = 2^-(n+1)
    for c in (1.0, 2.0, 4.0):
        assert run("verify", "good-lambda", str(grid), "--lam", repr(c * threshold)) == 2
        assert "JN_p value underflows to 0" in one_line_error(capsys)


def test_good_lambda_ignores_the_constant_it_does_not_use(tmp_path):
    # the weak-type constant overflows at p = 10, but good-lambda never reads it
    out = tmp_path / "r.json"
    assert run("verify", "good-lambda", "random-uniform", "--depth", "6", "--p", "10",
               "--lam", "10", "--out", str(out)) == 0
    assert json.loads(out.read_text())[0]["pass"]


def test_bmo_norm_overflow_exit_2(tmp_path, capsys):
    # verify bmo used to exit 0 and write "bmo_norm": Infinity (not JSON)
    space, vals, out = tmp_path / "s.csv", tmp_path / "v.csv", tmp_path / "r.json"
    space_to_csv(space_from_points([0.0, 1.0, 3.0, 4.0]), space)
    values_to_csv(np.array([1e308, -1e308, 1e308, 0.0]), vals)
    assert run("verify", "bmo", "--space", str(space), "--values", str(vals),
               "--out", str(out)) == 2
    assert "too large for the BMO norm" in one_line_error(capsys)
    assert not out.exists()


def test_empty_space_csv_exit_2(tmp_path, capsys):
    space, vals = tmp_path / "s.csv", tmp_path / "v.csv"
    space.write_text("m,0\n")
    vals.write_text("m,0\n")
    assert run("verify", "bmo", "--space", str(space), "--values", str(vals)) == 2
    assert "at least one point" in one_line_error(capsys)


def test_space_csv_weight_overflow_exit_2(tmp_path, capsys):
    # finite weights whose total is inf used to pass as a space
    space, vals = tmp_path / "s.csv", tmp_path / "v.csv"
    space.write_text("m,2\n0.0,1.0,1e308\n1.0,0.0,1e308\n")
    vals.write_text("m,2\n0,0.0\n1,1.0\n")
    for cmd in (("analyze",), ("verify", "bmo"), ("verify", "mainresult")):
        assert run(*cmd, "--space", str(space), "--values", str(vals)) == 2
        assert "total weight is not finite" in one_line_error(capsys)


def test_space_csv_distance_overflow_exit_2(tmp_path, capsys):
    # distances whose sums overflow used to pass with a RuntimeWarning
    space, vals = tmp_path / "s.csv", tmp_path / "v.csv"
    space.write_text("m,3\n0.0,8e307,1.6e308,1.0\n8e307,0.0,8e307,1.0\n"
                     "1.6e308,8e307,0.0,1.0\n")
    vals.write_text("m,3\n0,0.0\n1,1.0\n2,2.0\n")
    assert run("analyze", "--space", str(space), "--values", str(vals)) == 2
    assert "distance too large" in one_line_error(capsys)


@pytest.mark.parametrize("line,option", [("format = xml", "--format"),
                                         ("values_kind = nope", "--values-kind")])
def test_config_choices_exit_2(tmp_path, line, option, capsys):
    conf = tmp_path / "c.txt"
    conf.write_text(line + "\n")
    out = tmp_path / "r.json"
    assert run("verify", "jn-dyadic", "step", "--depth", "4", "--out", str(out),
               "--config", str(conf)) == 2
    assert option in one_line_error(capsys)
    assert not out.exists()


# ------------------------------------------------ flags and config files

# option -> (a good value, its typed form, bad values: wrong type, out of
# range, not finite or outside the choices)
SAMPLES = {
    "terms": ("3", 3, ["1.5"]),
    "budget": ("3", 3, ["x", "0"]),
    "curve_out": ("c.csv", "c.csv", []),
    "lam": ("0.75", 0.75, ["x", "nan"]),
    "b": ("0.75", 0.75, ["x", "inf"]),
    "n_lambda": ("3", 3, ["3.0", "0"]),
    "seed": ("3", 3, ["x", "-1"]),
    "out": ("o.json", "o.json", []),
    "format": ("csv", "csv", ["xml"]),
    "depth": ("3", 3, ["x", "-1"]),
    "dim": ("2", 2, ["1.0", "0", "-1"]),
    "p": ("1.5", 1.5, ["x", "nan"]),
    "m": ("5", 5, ["x", "0"]),
    "side": ("5", 5, ["x", "0"]),
    "value": ("0.75", 0.75, ["x"]),
    "anchor": ("3", 3, ["x"]),
    "space": ("line", "line", []),
    "values": ("v.csv", "v.csv", []),
    "values_kind": ("distance", "distance", ["nope"]),
    "ball": ("1:2.5", "1:2.5", []),
    "q0": ("1:1", "1:1", []),
}
POSITIONALS = {"gen": ["constant"], "analyze": [], "cz": [], "verify": ["bmo"]}


def subcommand_options():
    """(subcommand, option dest) for every option of every subcommand but
    --config, which names the config file itself."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(cmd, a.dest) for cmd, sp in sub.choices.items() for a in sp._actions
            if a.option_strings and a.dest not in ("help", "config")]


def test_samples_cover_every_option():
    assert {name for _, name in subcommand_options()} == set(SAMPLES)


def flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("cmd,name", subcommand_options())
def test_flag_and_config_key_resolve_alike(cmd, name, tmp_path):
    text, typed, _ = SAMPLES[name]
    conf = tmp_path / "c.txt"
    conf.write_text(f"{name} = {text}\n")
    parser = build_parser()
    by_flag = _resolve(parser.parse_args([cmd, *POSITIONALS[cmd], flag(name), text]))
    by_key = _resolve(parser.parse_args([cmd, *POSITIONALS[cmd], "--config", str(conf)]))
    assert by_flag[name] == by_key[name] == typed
    assert type(by_flag[name]) is type(by_key[name]) is type(typed)


@pytest.mark.parametrize("cmd,name,bad", [(cmd, name, bad) for cmd, name in subcommand_options()
                                          for bad in SAMPLES[name][2]])
def test_bad_value_exit_2_by_flag_and_by_config(cmd, name, bad, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(cmd, *POSITIONALS[cmd], flag(name), bad, "--out", str(out)) == 2
    assert flag(name) in one_line_error(capsys)
    conf = tmp_path / "c.txt"
    conf.write_text(f"{name} = {bad}\n")
    assert run(cmd, *POSITIONALS[cmd], "--config", str(conf), "--out", str(out)) == 2
    assert flag(name) in one_line_error(capsys)
    assert not out.exists()
