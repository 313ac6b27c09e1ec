import json

import numpy as np

from jnlab.report import (CheckReport, _csv_text, _json_text, all_pass, degenerate_report,
                          reports_to_csv, reports_to_json)


def test_margin_and_pass():
    r = CheckReport(claim="x", lhs=1.0, rhs=2.0, constant=1.0, lam=0.5)
    assert r.margin == 1.0
    assert r.passed
    bad = CheckReport(claim="x", lhs=2.0, rhs=1.0, constant=1.0)
    assert not bad.passed


def test_pass_slack_is_relative():
    rhs = 1e6
    r = CheckReport(claim="x", lhs=rhs + rhs * 5e-10, rhs=rhs, constant=1.0)
    assert r.passed  # within 1e-9 * rhs
    r2 = CheckReport(claim="x", lhs=rhs + rhs * 5e-9, rhs=rhs, constant=1.0)
    assert not r2.passed


def test_degenerate_report():
    r = degenerate_report("jn", "constant input", K=0.0)
    assert r.degenerate
    assert r.passed
    assert r.witness["reason"] == "constant input"


def test_all_pass():
    good = CheckReport(claim="a", lhs=0.0, rhs=1.0, constant=1.0)
    bad = CheckReport(claim="b", lhs=2.0, rhs=1.0, constant=1.0)
    assert all_pass([good])
    assert not all_pass([good, bad])
    assert all_pass([])


def test_json_shape_and_determinism():
    reports = [
        CheckReport(claim="a", lhs=np.float64(1.0), rhs=2.0, constant=3.0,
                    lam=0.25, witness={"arr": np.arange(3.0)}),
        degenerate_report("b", "why"),
    ]
    text = reports_to_json(reports)
    again = reports_to_json(reports)
    assert text == again
    data = json.loads(text)
    assert set(data[0]) == {"claim", "lambda", "lhs", "rhs", "constant",
                            "margin", "pass", "witness"}
    assert data[0]["witness"]["arr"] == [0.0, 1.0, 2.0]
    assert data[1]["lambda"] is None


def test_csv_output():
    reports = [CheckReport(claim="a", lhs=1.0, rhs=2.0, constant=1.0, lam=0.5),
               CheckReport(claim="a", lhs=0.5, rhs=2.0, constant=1.0)]
    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == "lambda,lhs,rhs"
    assert lines[1] == "0.5,1.0,2.0"
    assert lines[2] == ",0.5,2.0"


def test_csv_cells():
    # ints as str, floats as repr(float), None empty, index tuples by ';'
    text = _csv_text(("a", "b", "c", "d"), [(np.int64(3), np.float64(0.1), None, (1, 20)),
                                            (7, 2, 1e-300, ())])
    assert text == "a,b,c,d\n3,0.1,,1;20\n7,2,1e-300,\n"


def test_json_text_reads_numpy_values():
    obj = {"b": np.bool_(True), "i": np.int64(4), "x": np.float64(0.1),
           "a": np.array([[1, 2]]), "t": (1.5, None)}
    text = _json_text(obj)
    assert text.endswith("}\n")
    assert json.loads(text) == {"a": [[1, 2]], "b": True, "i": 4, "t": [1.5, None], "x": 0.1}
