"""Property tests for the three CSV readers, driven through the CLI.

Malformed text must come back as exit 2 with one stderr line naming the
file: never an internal error (exit 3), never a traceback.  Examples stay
small, and a size field is only ever compared, never allocated, so no
example asks for much memory.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jnlab.cli import main

# one small valid file per reader; mutations below break them
VALID = {
    "grid": ["1,2,0.0,1.0", "0.5", "1.5", "-2.0", "0.25"],
    "space": ["m,3", "0.0,1.0,2.0,1.0", "1.0,0.0,1.0,2.0", "2.0,1.0,0.0,0.5"],
    "values": ["m,3", "0,1.0", "1,-2.5", "2,0.125"],
}

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def run_cli(kind: str, text: str) -> tuple[int, str, str]:
    """(exit code, stderr, path) of one CLI run reading `text` as `kind`."""
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, f"{kind}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if kind == "grid":
            argv = ["analyze", path]
        elif kind == "space":
            argv = ["gen", "distance", "--space", path, "--out", os.path.join(td, "o.csv")]
        else:
            argv = ["analyze", "--space", "line", "--m", "3", "--budget", "10",
                    "--values", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue(), path


def assert_input_error(code: int, err: str, path: str) -> None:
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("jnlab: error: "), err
    assert path in lines[0]


@st.composite
def broken(draw, kind: str) -> str:
    """A valid file with one change that every reader must reject."""
    lines = list(VALID[kind])
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    how = draw(st.sampled_from(["garbage", "drop", "repeat", "extra", "resize"]))
    if how == "garbage":
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(st.sampled_from(["x", "", "1.0.0", "0x1", "--"]))
        lines[i] = ",".join(fields)
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "extra":
        lines[i] += "," + draw(st.sampled_from(["0", "1.0", "x"]))
    else:
        # header field 1 is the size: the grid depth, or m of a space or values
        head = lines[0].split(",")
        good = int(head[1])
        head[1] = str(draw(st.integers(-10**30, 10**30).filter(lambda n: n != good)))
        lines[0] = ",".join(head)
    return "\n".join(lines) + "\n"


TOKENS = ["m", "0", "1", "2", "3", "-1", "0.5", "1e308", "nan", "inf", "x", "",
          "99999999999999999999"]
token_soup = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=5).map(",".join), max_size=6
).map("\n".join)
any_text = st.one_of(token_soup, st.text(max_size=60))


@pytest.mark.parametrize("kind", sorted(VALID))
@SETTINGS
@given(data=st.data())
def test_broken_csv_exits_2(kind, data):
    assert_input_error(*run_cli(kind, data.draw(broken(kind))))


@SETTINGS
@given(st.sampled_from(sorted(VALID)), any_text)
def test_arbitrary_text_is_read_or_rejected(kind, text):
    # text can happen to be a valid file; then the command must succeed
    code, err, path = run_cli(kind, text)
    if code != 0:
        assert_input_error(code, err, path)


def test_valid_files_are_read():
    for kind, lines in VALID.items():
        code, err, _ = run_cli(kind, "\n".join(lines) + "\n")
        assert code == 0, err
