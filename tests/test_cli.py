import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stable_extrap
from stable_extrap import CheckResult, GridKind, make_grid, verify
from stable_extrap.basis import cheb_eval
from stable_extrap.cli import CliError, json_dumps, main, read_samples_csv

RHO_SILVER = 1.0 + math.sqrt(2.0)
# Five finite samples on the grid of N = 4 whose mirror fold overflows.
OVERFLOWING_CSV = "x,y\n-1.0,1e308\n-0.5,-1e308\n0.0,1e308\n0.5,-1e308\n1.0,1e308\n"
# 401 finite samples whose sums overflow, and 401 whose squares do; at 1e200
# the right-hand side of the fit is finite but its squared norm is not.
LARGE_SAMPLES = {"1.7e308*cos(40x)": lambda x: 1.7e308 * np.cos(40.0 * x),
                 "1e300*cos(x)": lambda x: 1e300 * np.cos(x),
                 "1e200*cos(x)": lambda x: 1e200 * np.cos(x)}


def write_samples(path, n, fn, header=True):
    grid = make_grid(GridKind.EQUISPACED, n)
    ys = fn(grid.points)
    with open(path, "w") as fh:
        if header:
            fh.write("x,y\n")
        for x, y in zip(grid.points, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")
    return grid, np.asarray(ys, dtype=float)


class TestJsonWriter:
    def test_seventeen_digit_roundtrip(self):
        values = [0.1, 1.0 / 3.0, 2.2e-16, 1e300, -math.pi, 0.0]
        text = json_dumps({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_non_finite_literals(self):
        assert json.loads(json_dumps([math.inf, -math.inf]))[0] == math.inf
        assert math.isnan(json.loads(json_dumps(float("nan"))))

    def test_nested_structure(self):
        doc = {"a": [1, {"b": True, "c": None}], "d": "text"}
        assert json.loads(json_dumps(doc)) == doc

    def test_integral_floats_stay_floats(self):
        back = json.loads(json_dumps({"rho": 2.0, "z": 0.0}))
        assert all(type(v) is float for v in back.values())


def python_scalars_only(obj) -> bool:
    if isinstance(obj, dict):
        return all(type(k) is str and python_scalars_only(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(python_scalars_only(v) for v in obj)
    return type(obj) in (int, float, str, bool, type(None))


def test_documents_hold_only_python_scalars(tmp_path, monkeypatch):
    # The stdlib encoder rejects numpy scalars such as np.int64, so every
    # command must build its document from Python ones.
    documents = []

    def capturing_json_dumps(obj):
        documents.append(obj)
        return json_dumps(obj)

    monkeypatch.setattr(stable_extrap.cli, "json_dumps", capturing_json_dumps)
    csv_path = tmp_path / "f.csv"
    write_samples(csv_path, 400, lambda x: 1.0 / (1.0 + x ** 2))
    commands = (
        ["fit", "--input", str(csv_path), "--M", "10"],
        ["fit", "--input", str(csv_path), "--auto", "--rho", "2", "--eps", "1e-10",
         "--Q", "1.5"],
        ["extrapolate", "--input", str(csv_path), "--rho", "2", "--eps", "1e-10",
         "--Q", "1.5", "--at", "1.0,1.1"],
        ["verify", "--suite", "all"],
    )
    for argv in commands:
        assert main(argv + ["--output", str(tmp_path / "out.json")]) in (0, 1)
    assert len(documents) == len(commands)
    for doc in documents:
        assert python_scalars_only(doc)


class TestReadSamples:
    def test_header_optional(self, tmp_path):
        p1 = tmp_path / "with.csv"
        p2 = tmp_path / "without.csv"
        write_samples(p1, 8, np.cos, header=True)
        write_samples(p2, 8, np.cos, header=False)
        a = read_samples_csv(str(p1))
        b = read_samples_csv(str(p2))
        assert np.array_equal(a.values, b.values)
        assert a.grid.kind == GridKind.EQUISPACED

    def test_grid_mismatch_reports_first_offender(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n-1.0,0.0\n-0.4,0.0\n1.0,0.0\n")
        with pytest.raises(CliError, match=r"x\[1\] = -0\.4 does not match .* = 0\.0 to"):
            read_samples_csv(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n-1.0,0.0,9\n1.0,0.0,9\n")
        with pytest.raises(CliError, match="two columns"):
            read_samples_csv(str(path))

    @pytest.mark.parametrize("bad_row, message", [
        ("0.0,abc", r":5: column 2: could not convert string 'abc' to float"),
        ("0.0,1.0,2.0", r":5: expected two columns x,y, got 3"),
        ("0.0", r":5: expected two columns x,y, got 1"),
    ])
    def test_error_cites_file_line_below_blank_lines(self, tmp_path, bad_row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"\nx,y\n-1.0,0.0\n\n{bad_row}\n1.0,0.0\n")
        with pytest.raises(CliError, match=message):
            read_samples_csv(str(path))

    def test_bad_first_data_row_cites_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n\n-1.0\n0.0,0.0\n1.0,0.0\n")
        with pytest.raises(CliError, match=r":3: expected two columns x,y, got 1"):
            read_samples_csv(str(path))


def _oracle_values(text: str) -> np.ndarray:
    """The y column as the stdlib csv module and float() read it."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    return np.array([float(y) for _, y in rows])


_Y_FORMATS = (repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v)
_ORACLE_INPUTS = dict(
    ys=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40),
    formats=st.lists(st.sampled_from(_Y_FORMATS), min_size=40, max_size=40),
    blanks=st.lists(st.booleans(), min_size=41, max_size=41),
    header=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n"]),
)


@settings(max_examples=60, deadline=None)
@given(**_ORACLE_INPUTS)
def test_reader_matches_csv_float_oracle(tmp_path_factory, ys, formats, blanks, header, eol):
    _check_reader_against_oracle(tmp_path_factory, ys, formats, blanks, header, eol)


@settings(max_examples=60, deadline=None)
@given(**_ORACLE_INPUTS)
def test_reader_matches_csv_float_oracle_in_two_processes(tmp_path_factory, ys, formats,
                                                          blanks, header, eol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stable_extrap.cli, "_SPLIT_BYTES", 0)
        mp.setattr(stable_extrap.cli, "_cpus", lambda: 2)
        _check_reader_against_oracle(tmp_path_factory, ys, formats, blanks, header, eol)


def _check_reader_against_oracle(tmp_path_factory, ys, formats, blanks, header, eol):
    grid = make_grid(GridKind.EQUISPACED, len(ys) - 1)
    lines = ["x,y"] if header else []
    for k, (x, y) in enumerate(zip(grid.points.tolist(), ys)):
        lines += [""] * blanks[k] + [f"{x!r},{formats[k](y)}"]
    text = eol.join(lines + [""] * blanks[-1]) + eol
    path = tmp_path_factory.mktemp("parity") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    got = read_samples_csv(str(path)).values
    want = _oracle_values(text)
    assert got.tobytes() == want.tobytes()


class TestBadInput:
    """Input faults go through main and exit 2 with a message naming them."""

    def run(self, tmp_path, capsys, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        code = main(["fit", "--input", str(path), "--M", "0",
                     "--output", str(tmp_path / "o.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_cell(self, tmp_path, capsys, cell, column):
        row = [cell, "1.0"] if column == 0 else ["0.0", cell]
        code, err = self.run(tmp_path, capsys, f"x,y\n-1.0,1.0\n{','.join(row)}\n1.0,1.0\n")
        assert code == 2
        assert ("x[1] = " in err) if column == 0 else ("must be finite" in err)

    def test_header_only(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "x,y\n\n")
        assert code == 2 and "need at least two samples" in err

    def test_empty_file(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "\n\n")
        assert code == 2 and "no data rows" in err

    def test_one_row(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "x,y\n-1.0,1.0\n")
        assert code == 2 and "need at least two samples" in err

    def test_comment_line_rejected(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "x,y\n-1.0,1.0\n# note\n1.0,1.0\n")
        assert code == 2 and ":3: expected two columns x,y, got 1" in err

    def test_quoted_cells_parse(self, tmp_path, capsys):
        path = tmp_path / "q.csv"
        path.write_text('"x","y"\n"-1.0","0.5"\n0.0,"0.25"\n"1.0",2.0\n')
        assert np.array_equal(read_samples_csv(str(path)).values, [0.5, 0.25, 2.0])
        code, err = self.run(tmp_path, capsys, path.read_text())
        assert code == 0 and err == ""

    def test_duplicated_row_names_first_x_off_grid(self, tmp_path, capsys):
        # A duplicated row makes N one larger, so x misses the grid 2k/N - 1
        # of the new N; the error names the first k where it does.
        path = tmp_path / "f.csv"
        write_samples(path, 8, np.cos)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + lines[4:]))
        x = np.array([float(line.split(",")[0]) for line in lines[1:5] + lines[4:]])
        n = x.size - 1
        k = int(np.argmax(np.abs(x - (2.0 * np.arange(n + 1) / n - 1.0)) > 1e-12))
        assert k > 0
        code, err = self.run(tmp_path, capsys, path.read_text())
        assert code == 2
        assert f"x[{k}] = {float(x[k])!r} does not match the equispaced grid point 2*{k}/{n} - 1" in err

    def test_n_equals_one_accepted(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "-1.0,1.0\n1.0,3.0\n")
        assert code == 0 and err == ""
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["N"] == 1
        np.testing.assert_allclose(doc["coeffs"], [2.0], rtol=1e-15)


@pytest.fixture
def spool_dir(tmp_path, monkeypatch):
    """A fresh directory as tempfile's, which the test leaves empty: no
    temporary copy of the input outlives a read."""
    path = tmp_path / "tempdir"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    yield path
    assert not any(path.iterdir())


@pytest.fixture
def two_processes(monkeypatch, spool_dir):
    """Parse every file with data in two processes, where a row follows the
    middle of the data."""
    monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(stable_extrap.cli, "_cpus", lambda: 2)


@pytest.mark.usefixtures("two_processes")
class TestReadSamplesInTwoProcesses(TestReadSamples):
    pass


@pytest.mark.usefixtures("two_processes")
class TestBadInputInTwoProcesses(TestBadInput):
    pass


def _data_lines(n, eol="\n", quoted=False):
    grid = make_grid(GridKind.EQUISPACED, n)
    cell = '"{!r}"' if quoted else "{!r}"
    return [f"{cell},{cell}".format(float(x), float(np.cos(x))) + eol for x in grid.points]


def _first_line_past_cut(lines):
    """Index into `lines` of the first line after the one holding the middle
    byte of the data: the row both processes parse, where it is not blank."""
    data = sum(len(line.encode()) for line in lines)
    mid, pos = data // 2, 0
    for i, line in enumerate(lines):
        pos += len(line.encode())
        if pos > mid:
            return i + 1
    raise AssertionError("no line holds the middle byte")


@pytest.mark.usefixtures("spool_dir")
class TestTwoProcessIngest:
    """read_samples_csv on a file parsed in two halves that share the first
    row past the middle of its data: the same bits and the same messages as
    one process, and no temporary copy left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(stable_extrap.cli, "_cpus", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    def read_both(self, monkeypatch, forks, path):
        """The result of two processes, then one, and the forks of the first;
        a result is the values' bytes or the CliError message."""
        out = []
        for threshold in (0, 1 << 62):
            monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", threshold)
            forks.clear()
            try:
                out.append(read_samples_csv(str(path)).values.tobytes())
            except CliError as exc:
                out.append(str(exc))
            out.append(len(forks))
        assert out[3] == 0
        return out[0], out[2], out[1]

    # One bad row per error class of _loadtxt_error, and its message.
    BAD_ROWS = {
        "cell": (lambda line: line.split(",")[0] + ",abc\n",
                 "column 2: could not convert string 'abc' to float"),
        "x cell": (lambda line: "zz," + line.split(",")[1],
                   "column 1: could not convert string 'zz' to float"),
        "three": (lambda line: line[:-1] + ",9\n", "expected two columns x,y, got 3"),
        "one": (lambda line: line.split(",")[0] + "\n", "expected two columns x,y, got 1"),
    }

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("kind", BAD_ROWS)
    @pytest.mark.parametrize("where", [-1, 0, 1])
    def test_bad_row_next_to_cut_cites_its_line(self, tmp_path, monkeypatch, forks, spool_dir,
                                                header, kind, where):
        bad, message = self.BAD_ROWS[kind]
        lines = _data_lines(400)
        k = _first_line_past_cut(lines) + where
        lines[k] = bad(lines[k])
        head = ["x,y\n"] if header else []
        path = tmp_path / "bad.csv"
        path.write_text("".join(head + lines))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1
        assert two == one == f"{path}:{k + 1 + len(head)}: {message}"
        assert not any(spool_dir.iterdir())  # where == 1: the child's ValueError

    @pytest.mark.parametrize("where", ["header", "first half", "past the cut"])
    def test_invalid_utf8_cites_its_line(self, tmp_path, monkeypatch, forks, where):
        # numpy's decode error names an offset in its own buffer, not the line.
        data = _data_lines(2000)
        cut = _first_line_past_cut(data) + 1  # index of that line in the file
        k = {"header": 0, "first half": cut - 10, "past the cut": cut + 10}[where]
        lines = [line.encode() for line in ["x,y\n"] + data]
        lines[k] = lines[k][:3] + b"\xff" + lines[k][3:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(lines))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == (where != "header")
        assert two == one == (f"{path}:{k + 1}: 'utf-8' codec can't decode byte 0xff "
                              "in position 3: invalid start byte")

    def test_column_count_of_every_row_changed_at_cut(self, tmp_path, monkeypatch, forks):
        # Three columns from the first row of the second half on: reported there.
        lines = _data_lines(400)
        k = _first_line_past_cut(lines)
        lines[k:] = [line[:-1] + ",9\n" for line in lines[k:]]
        path = tmp_path / "bad.csv"
        path.write_text("".join(["x,y\n"] + lines))
        two, one, _ = self.read_both(monkeypatch, forks, path)
        assert two == one == f"{path}:{k + 2}: expected two columns x,y, got 3"

    def test_three_columns_throughout(self, tmp_path, monkeypatch, forks):
        # numpy names the count of the first row; with a bad cell past the
        # cut, the cell is named, as in one parse.
        lines = [line[:-1] + ",9\n" for line in _data_lines(400)]
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        two, one, _ = self.read_both(monkeypatch, forks, path)
        assert two == one == f"{path}:1: expected two columns x,y, got 3"
        k = _first_line_past_cut(lines) + 5
        lines[k] = "0.5,abc,9\n"
        path.write_text("".join(lines))
        two, one, _ = self.read_both(monkeypatch, forks, path)
        assert two == one == f"{path}:{k + 1}: column 2: could not convert string 'abc' to float"

    def test_first_half_error_takes_precedence(self, tmp_path, monkeypatch, forks, spool_dir):
        lines = _data_lines(400)
        k = _first_line_past_cut(lines)
        lines[k - 10] = "0.0,abc\n"
        lines[k + 10] = "0.0\n"
        path = tmp_path / "bad.csv"
        path.write_text("".join(["x,y\n"] + lines))
        two, one, _ = self.read_both(monkeypatch, forks, path)
        assert two == one == f"{path}:{k - 8}: column 2: could not convert string 'abc' to float"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not any(spool_dir.iterdir())

    @pytest.mark.parametrize("at", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_blank_lines_at_cut(self, tmp_path, monkeypatch, forks, at, eol):
        lines = _data_lines(400, eol)
        k = _first_line_past_cut(lines) + at
        lines[k:k] = [eol] * 5
        lines[k + 20] = "0.0,zz" + eol
        path = tmp_path / "blank.csv"
        path.write_bytes("".join(["x,y" + eol] + lines).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1 and two == one
        lines[k + 20] = _data_lines(400, eol)[k + 15]
        path.write_bytes("".join(["x,y" + eol] + lines).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1 and two == one
        assert two == np.cos(make_grid(GridKind.EQUISPACED, 400).points).tobytes()

    def test_blank_second_half(self, tmp_path, monkeypatch, forks):
        # Only blank lines follow the middle: no row to share, no second process.
        path = tmp_path / "tail.csv"
        path.write_text("".join(["x,y\n"] + _data_lines(40) + ["\n"] * 4000))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 0 and two == one

    @pytest.mark.parametrize("header", ['"x","y"\n', "x,y\n", ""])
    def test_quoted_cells(self, tmp_path, monkeypatch, forks, header):
        path = tmp_path / "q.csv"
        path.write_text(header + "".join(_data_lines(400, quoted=True)))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1 and two == one

    def test_cell_quoted_across_the_cut_is_read_in_one_process(self, tmp_path, monkeypatch, forks):
        # A quoted cell may hold a newline, so lines are not rows: no cut.
        lines = _data_lines(400)
        k = _first_line_past_cut(lines)
        x, y = lines[k - 1].split(",")
        lines[k - 1] = f'{x},"{y}'
        lines.insert(k, '"\n')
        path = tmp_path / "q.csv"
        path.write_text("".join(["x,y\n"] + lines))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 0 and two == one

    def test_quote_left_open_across_a_read_block(self, tmp_path, monkeypatch, forks):
        # The parent copies its part in 1 MiB blocks from the newline that
        # ends the header; a quote opened in the last line of the first block
        # still holds the newlines of the next, which has none.
        lines = _data_lines(80_000)
        ends = np.cumsum([len(line) for line in lines]) + len("x,y\n")
        k = int(np.searchsorted(ends, len("x,y") + (1 << 20), side="right"))
        lines[k] = '"' + lines[k]
        path = tmp_path / "q.csv"
        path.write_text("".join(["x,y\n"] + lines))
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 0 and two == one

    def test_lone_cr_is_read_in_one_process(self, tmp_path, monkeypatch, forks):
        # loadtxt reads a lone CR as a newline; the header and the first 100
        # lines end in one, so the lines loadtxt skips are not readline's.
        lines = _data_lines(400)
        lines[:100] = [line[:-1] + "\r" for line in lines[:100]]
        path = tmp_path / "cr.csv"
        path.write_bytes("".join(["x,y\r"] + lines).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 0 and two == one
        assert two == np.cos(make_grid(GridKind.EQUISPACED, 400).points).tobytes()

    def test_lone_cr_in_data_rows_is_split(self, tmp_path, monkeypatch, forks):
        # Below a header that ends in a newline, lone CRs in the rows before
        # the middle are the parent's to parse.
        lines = _data_lines(400)
        lines[:100] = [line[:-1] + "\r" for line in lines[:100]]
        path = tmp_path / "cr.csv"
        path.write_bytes("".join(["x,y\n"] + lines).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1 and two == one
        assert two == np.cos(make_grid(GridKind.EQUISPACED, 400).points).tobytes()

    def test_lone_cr_in_the_shared_row_is_read_in_one_process(self, tmp_path, monkeypatch,
                                                              forks):
        # That line is two rows to loadtxt.
        lines = _data_lines(400)
        k = _first_line_past_cut(lines)
        lines[k] = lines[k][:-1] + "\r" + lines[k + 1]
        del lines[k + 1]
        path = tmp_path / "cr.csv"
        path.write_bytes("".join(["x,y\n"] + lines).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 0 and two == one
        assert two == np.cos(make_grid(GridKind.EQUISPACED, 400).points).tobytes()

    @pytest.mark.parametrize("header", ["x,y\n", ""])
    def test_utf8_byte_order_mark(self, tmp_path, monkeypatch, forks, header):
        # A BOM opens the text, not the first cell, with or without a header.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (header + "".join(_data_lines(400))).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1 and two == one
        assert two == np.cos(make_grid(GridKind.EQUISPACED, 400).points).tobytes()

    def test_byte_order_mark_below_the_header_is_data(self, tmp_path, monkeypatch, forks):
        # Only the file's first bytes may be a BOM, also to the parent's copy.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"x,y\n\xef\xbb\xbf" + "".join(_data_lines(400)).encode())
        two, one, n_forks = self.read_both(monkeypatch, forks, path)
        assert n_forks == 1
        assert two == one == (f"{path}:2: column 1: could not convert string "
                              r"'\ufeff-1.0' to float")

    def test_threshold(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "s.csv"
        path.write_text("".join(["x,y\n"] + _data_lines(400)))
        data_bytes = path.stat().st_size - len("x,y\n")
        monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", data_bytes)
        one = read_samples_csv(str(path)).values
        assert len(forks) == 0
        monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", data_bytes - 1)
        two = read_samples_csv(str(path)).values
        assert len(forks) == 1 and two.tobytes() == one.tobytes()

    def test_forks_once_for_a_large_file_only(self, tmp_path, forks, spool_dir):
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        write_samples(small, 400, np.cos)
        _, ys = write_samples(large, 60_000, np.cos)
        assert 1.5e6 < large.stat().st_size < 3e6
        read_samples_csv(str(small))
        assert len(forks) == 0
        assert read_samples_csv(str(large)).values.tobytes() == ys.tobytes()
        assert len(forks) == 1
        assert not any(spool_dir.iterdir())

    def test_same_bits_without_fork(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "s.csv"
        _, ys = write_samples(path, 60_000, np.sin)
        monkeypatch.delattr(os, "fork")
        assert read_samples_csv(str(path)).values.tobytes() == ys.tobytes()
        assert len(forks) == 0

    def test_one_cpu_parses_in_one_process(self, tmp_path, monkeypatch, forks):
        path = tmp_path / "s.csv"
        _, ys = write_samples(path, 60_000, np.sin)
        monkeypatch.setattr(stable_extrap.cli, "_cpus", lambda: 1)
        assert read_samples_csv(str(path)).values.tobytes() == ys.tobytes()
        assert len(forks) == 0

    def test_cpus_of_this_process(self):
        assert 1 <= stable_extrap.cli._cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("short_of", ["tempfile", "fork"])
    def test_no_resources_for_a_second_process(self, tmp_path, monkeypatch, forks,
                                               short_of):
        """Where a temporary copy or the child cannot be had, one process
        parses, and no descriptor is left open."""
        import errno

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, "refused")

        target = {"tempfile": (tempfile, "NamedTemporaryFile"), "fork": (os, "fork")}
        monkeypatch.setattr(*target[short_of], refuse)
        path = tmp_path / "s.csv"
        _, ys = write_samples(path, 60_000, np.sin)
        fd_dir = Path("/proc/self/fd")
        before = sorted(os.listdir(fd_dir)) if fd_dir.is_dir() else None
        assert read_samples_csv(str(path)).values.tobytes() == ys.tobytes()
        assert len(forks) == 0
        if before is not None:
            assert sorted(os.listdir(fd_dir)) == before
        path.write_text("x,y\n" + "".join(_data_lines(60_000)[:-1]) + "1.0,abc\n")
        with pytest.raises(CliError, match=r"s\.csv:60002: column 2"):
            read_samples_csv(str(path))

    def test_first_half_error_stops_the_child(self, tmp_path, monkeypatch, spool_dir):
        # Here the child would sleep for a minute.
        loadtxt, parent = stable_extrap.cli._loadtxt, os.getpid()

        def slow_child(source, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            return loadtxt(source, **kwargs)

        monkeypatch.setattr(stable_extrap.cli, "_loadtxt", slow_child)
        monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", 0)
        path = tmp_path / "s.csv"
        path.write_text("x,y\n-1.0,abc\n" + "".join(_data_lines(400)[1:]))
        start = time.monotonic()
        with pytest.raises(CliError, match=r"s\.csv:2: column 2"):
            read_samples_csv(str(path))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not any(spool_dir.iterdir())

    def test_fork_warning_is_silenced(self, tmp_path, monkeypatch):
        # From Python 3.12, os.fork in a process with threads (OpenBLAS's)
        # warns; under -m the CLI is __main__, where that would print.
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        path = tmp_path / "s.csv"
        _, ys = write_samples(path, 60_000, np.cos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_samples_csv(str(path)).values.tobytes() == ys.tobytes()

    def test_child_killed_by_a_signal(self, tmp_path, monkeypatch, spool_dir):
        # Here the child kills itself instead of parsing.
        loadtxt, parent = stable_extrap.cli._loadtxt, os.getpid()

        def child_dies(source, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return loadtxt(source, **kwargs)

        monkeypatch.setattr(stable_extrap.cli, "_loadtxt", child_dies)
        monkeypatch.setattr(stable_extrap.cli, "_SPLIT_BYTES", 0)
        path = tmp_path / "s.csv"
        write_samples(path, 400, np.cos)
        with pytest.raises(CliError, match=r"ended without a result \(exit status -9\)$"):
            read_samples_csv(str(path))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not any(spool_dir.iterdir())


def _run_cli(args, timeout=120, **kwargs):
    """`python -m stable_extrap.cli` with `args` in a fresh interpreter that
    imports this checkout's package."""
    src = str(Path(stable_extrap.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "stable_extrap.cli", *args],
                          capture_output=True, env=env, timeout=timeout, **kwargs)


needs_dev_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")


@needs_dev_stdin
def test_piped_input(tmp_path):
    """Piped input is copied to a temporary file and parsed as that file:
    above _SPLIT_BYTES in two processes, with the direct run's document."""
    path = tmp_path / "s.csv"
    write_samples(path, 60_000, np.cos)
    assert path.stat().st_size > stable_extrap.cli._SPLIT_BYTES
    args = ["extrapolate", "--rho", "2", "--eps", "1e-10", "--Q", "1.5", "--at", "1.0,1.1",
            "--input"]
    piped = _run_cli(args + ["/dev/stdin"], input=path.read_bytes())
    direct = _run_cli(args + [str(path)])
    assert piped.returncode == direct.returncode == 0, piped.stderr.decode()
    assert piped.stderr == direct.stderr == b""
    assert piped.stdout == direct.stdout


@needs_dev_stdin
def test_piped_input_without_header(tmp_path):
    # A pipe cannot seek back to its first line, which is data here.
    text = b"-1,0\n-0.5,1\n0,2\n0.5,1\n1,0\n"
    path = tmp_path / "s.csv"
    path.write_bytes(text)
    piped = _run_cli(["fit", "--M", "1", "--input", "/dev/stdin"], input=text)
    direct = _run_cli(["fit", "--M", "1", "--input", str(path)])
    assert piped.returncode == direct.returncode == 0, piped.stderr.decode()
    assert piped.stderr == direct.stderr == b""
    assert piped.stdout == direct.stdout


@needs_dev_stdin
@pytest.mark.parametrize("bad_row, message", [
    (b"0,abc", "column 2: could not convert string 'abc' to float"),
    (b"0,\xff", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
])
def test_piped_input_error_cites_its_line(bad_row, message):
    proc = _run_cli(["fit", "--M", "1", "--input", "/dev/stdin"],
                    input=b"x,y\n-1,0\n" + bad_row + b"\n1,0\n")
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"stable-extrap: error: /dev/stdin:3: {message}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_fifo_error_cites_its_line_without_blocking(tmp_path):
    # A FIFO opened again after its writer closed would wait for a new one.
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(b"x,y\n-1,0\n0,abc\n1,0\n")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    proc = _run_cli(["fit", "--M", "1", "--input", str(fifo)], timeout=30)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert proc.returncode == 2
    assert proc.stderr.decode() == (f"stable-extrap: error: {fifo}:3: column 2: "
                                    "could not convert string 'abc' to float\n")


# Bytes that the property below writes over one byte of a line: a letter,
# a byte that is not UTF-8, a separator, a space and parts of numbers.
_FLIP_BYTES = b"a\xff, 9-.e"
_MUTATION = st.tuples(st.sampled_from(["flip", "nan", "inf", "drop", "double", "blank"]),
                      st.integers(0, 1 << 16), st.sampled_from(list(_FLIP_BYTES)))


def _mutated_csv(n, header, quoted, eol, mutations) -> bytes:
    lines = [line.rstrip("\n").encode() for line in _data_lines(n, quoted=quoted)]
    if header:
        lines.insert(0, b'"x","y"' if quoted else b"x,y")
    for kind, at, byte in mutations:
        if not lines:
            break
        k = at % len(lines)
        if kind == "flip":
            line = bytearray(lines[k] or b" ")  # a blank line gets one byte
            line[at // len(lines) % len(line)] = byte
            lines[k] = bytes(line)
        elif kind in ("nan", "inf"):
            cells = lines[k].split(b",")
            cells[at // len(lines) % len(cells)] = kind.encode()
            lines[k] = b",".join(cells)
        else:
            lines[k:k + 1] = {"drop": [], "double": [lines[k]] * 2, "blank": [b"", lines[k]]}[kind]
    return b"".join(line + eol for line in lines)


def _is_row(line: str, last: bool) -> bool:
    """Whether loadtxt reads `line`, without its line end, as two numbers.
    A quote opens a quoted cell only as the cell's first character, and what
    follows the closing quote joins the cell. A quote left open runs the
    cell on to the next line, which holds no number, unless only line ends
    follow (`last`)."""
    cells, i = [], 0
    while True:
        quoted = ""
        if line.startswith('"', i):
            close = line.find('"', i + 1)
            if close < 0:
                if not last:
                    return False
                close = len(line)
            quoted, i = line[i + 1:close], min(close + 1, len(line))
        end = line.find(",", i)
        end = len(line) if end < 0 else end
        cells.append(quoted + line[i:end])
        if end == len(line):
            break
        i = end + 1
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return len(cells) == 2


def _first_bad_lines(data: bytes):
    """The 1-based numbers of the first line that is not UTF-8 and of the
    first data line before it that is not a row; None where there is none."""
    lines = [line.removesuffix(b"\r") for line in data.split(b"\n")[:-1]]
    text = []
    for line in lines:
        try:
            text.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            break
    not_utf8 = len(text) + 1 if len(text) < len(lines) else None
    starts = [k for k, line in enumerate(text) if line.strip()]
    if starts:
        k = starts[0]
        try:
            float(text[k].split(",", 1)[0].strip().strip('"'))
        except ValueError:
            k += 1  # the header
        last = max(starts)
        for k in range(k, len(text)):
            if text[k] and not _is_row(text[k], k == last and not_utf8 is None):
                return not_utf8, k + 1
    return not_utf8, None


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), header=st.booleans(), quoted=st.booleans(),
       eol=st.sampled_from([b"\n", b"\r\n"]), mutations=st.lists(_MUTATION, max_size=3))
def test_mutated_csv_exits_0_or_2_citing_its_line(tmp_path_factory, n, header, quoted, eol,
                                                  mutations):
    """`fit` on a mutated CSV, from its file and through a pipe, parsed in
    one process and in two: the same exit code (0 or 2) and output, and no
    exception out of main (a traceback from the CLI). An error is one line;
    it names the first line that is not UTF-8, or the first line before that
    which is not a row, where there is one. No child process or temporary
    file is left."""
    data = _mutated_csv(n, header, quoted, eol, mutations)
    path = tmp_path_factory.mktemp("mutated") / "s.csv"
    path.write_bytes(data)
    spool_dir = path.parent / "tempdir"
    spool_dir.mkdir()
    results = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", str(spool_dir))
        mp.setattr(stable_extrap.cli, "_cpus", lambda: 2)
        for threshold in (0, 1 << 62):
            mp.setattr(stable_extrap.cli, "_SPLIT_BYTES", threshold)
            code, out, err = _main_output(["fit", "--M", "0", "--input", str(path)])
            results.add((code, out, err.replace(str(path), "PATH")))
            read_fd, write_fd = os.pipe()
            with open(write_fd, "wb") as pipe:
                pipe.write(data)  # less than a pipe's buffer
            try:
                source = f"/dev/fd/{read_fd}"
                code, out, err = _main_output(["fit", "--M", "0", "--input", source])
            finally:
                os.close(read_fd)
            results.add((code, out, err.replace(source, "PATH")))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not any(spool_dir.iterdir())
    assert len(results) == 1, results
    code, out, err = results.pop()
    not_utf8, not_row = _first_bad_lines(data)
    assert code in (0, 2)
    if code == 0:
        assert err == "" and not_utf8 is None and not_row is None
        return
    assert out == "" and err.startswith("stable-extrap: error: PATH") and err.count("\n") == 1
    cited = re.match(r"stable-extrap: error: PATH:(\d+): ", err)
    if "'utf-8' codec can't decode" in err:
        assert cited and int(cited[1]) == not_utf8, (err, data)
    elif cited:
        assert int(cited[1]) == not_row, (err, data)
    else:
        assert not_utf8 is None and not_row is None, (err, data)


def test_two_process_ingest_in_a_fresh_interpreter(tmp_path, capsys, monkeypatch):
    """Above the threshold, `python -m stable_extrap.cli` exits 0, writes
    nothing to stderr and prints the document of a one-process parse."""
    path = tmp_path / "f.csv"
    write_samples(path, 60_000, lambda x: 1.0 / (1.0 + x ** 2))
    assert path.stat().st_size > stable_extrap.cli._SPLIT_BYTES
    args = ["extrapolate", "--input", str(path), "--rho", repr(RHO_SILVER),
            "--eps", "1e-12", "--Q", "1", "--at", "1.0,1.1,1.2"]
    monkeypatch.delattr(os, "fork")
    assert main(args) == 0
    one_process = capsys.readouterr().out
    proc = _run_cli(args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == one_process.encode("utf-8")


class TestFitCommand:
    def test_recovers_t3(self, tmp_path):
        csv_path = tmp_path / "t3.csv"
        out_path = tmp_path / "fit.json"
        write_samples(csv_path, 64, lambda x: cheb_eval(3, x))
        code = main(["fit", "--input", str(csv_path), "--M", "3",
                     "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        assert doc["M"] == 3 and doc["N"] == 64
        np.testing.assert_allclose(doc["coeffs"], [0, 0, 0, 1], atol=1e-12)
        assert doc["warnings"] == []

    def test_residual_roundtrip(self, tmp_path):
        csv_path = tmp_path / "runge.csv"
        out_path = tmp_path / "fit.json"
        grid, ys = write_samples(csv_path, 100, lambda x: 1.0 / (1.0 + 16.0 * x ** 2))
        assert main(["fit", "--input", str(csv_path), "--M", "5",
                     "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        coeffs = np.asarray(doc["coeffs"])
        from stable_extrap import ChebyshevSeries
        recomputed = float(np.linalg.norm(ys - ChebyshevSeries(coeffs)(grid.points)))
        assert recomputed == pytest.approx(doc["residual"], abs=1e-12)

    def test_auto_bad_parameter_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 64, np.cos)
        assert main(["fit", "--input", str(csv_path), "--auto",
                     "--rho", "inf", "--eps", "1e-10", "--Q", "1.5"]) == 2
        assert "rho must be finite, got inf" in capsys.readouterr().err

    def test_auto_degree_scenario(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        out_path = tmp_path / "fit.json"
        write_samples(csv_path, 10 ** 4, lambda x: 1.0 / (1.0 + x ** 2))
        code = main(["fit", "--input", str(csv_path), "--auto",
                     "--rho", repr(RHO_SILVER), "--eps", "2.2e-16", "--Q", "1",
                     "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["M_star"] == 40
        assert doc["regime"] == "oversampled"
        assert doc["M"] == 40

    def test_degree_exceeding_samples_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 100, np.cos)
        assert main(["fit", "--input", str(csv_path), "--M", "200"]) == 2
        assert "M=200 exceeds sqrt(N)/2=5.00 (N=100)" in capsys.readouterr().err

    def test_degree_past_half_sqrt_n_exits_2(self, tmp_path, capsys):
        # M = 11 at N = 400 is one past sqrt(N)/2 = 10, the last degree the
        # paper's conditioning bound covers.
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 400, np.cos)
        assert main(["fit", "--input", str(csv_path), "--M", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "M=11 exceeds sqrt(N)/2=10.00 (N=400)" in captured.err

    def test_missing_degree_exits_2(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 16, np.cos)
        assert main(["fit", "--input", str(csv_path)]) == 2

    def test_legendre_basis(self, tmp_path, capsys):
        # fit is the Chebyshev fit; the --basis flag went with the Legendre
        # fit, and the document still names its basis.
        csv_path = tmp_path / "s.csv"
        out_path = tmp_path / "fit.json"
        write_samples(csv_path, 64, lambda x: x ** 2)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(csv_path), "--M", "2", "--basis", "leg"])
        assert exc.value.code == 2
        assert "--basis" in capsys.readouterr().err
        assert main(["fit", "--input", str(csv_path), "--M", "2",
                     "--output", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["basis"] == "chebyshev"

    def test_idempotent(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 64, np.cos)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--input", str(csv_path), "--M", "4", "--output", str(out1)])
        main(["fit", "--input", str(csv_path), "--M", "4", "--output", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_gram_flag_is_gone(self, tmp_path, capsys):
        # Every fit on an equispaced grid takes the fast Gram; there is no
        # route to choose.
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 16, np.cos)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(csv_path), "--M", "2", "--gram", "naive"])
        assert exc.value.code == 2
        assert "--gram" in capsys.readouterr().err


class TestExtrapolateCommand:
    def test_point_records(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        out_path = tmp_path / "ext.json"
        write_samples(csv_path, 400, lambda x: 1.0 / (1.0 + x ** 2))
        code = main(["extrapolate", "--input", str(csv_path),
                     "--rho", "2.414", "--eps", "1e-10", "--Q", "1.5",
                     "--at", "1.0,1.1", "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        first = doc["points"][0]
        assert first["x"] == 1.0
        assert first["alpha"] == pytest.approx(1.0, abs=5e-15)
        assert {"value", "r", "bound_explicit", "bound_factor",
                "regime", "M_star"} <= set(first)

    def test_integral_floats_written_as_floats(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        out_path = tmp_path / "ext.json"
        write_samples(csv_path, 400, lambda x: 1.0 / (1.0 + x ** 2))
        assert main(["extrapolate", "--input", str(csv_path),
                     "--rho", "2", "--eps", "1e-10", "--Q", "1.5",
                     "--at", "1.0", "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert type(doc["rho"]) is float
        assert type(doc["points"][0]["x"]) is float

    def test_out_of_interval_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 64, np.cos)
        code = main(["extrapolate", "--input", str(csv_path),
                     "--rho", "2.414", "--eps", "1e-10", "--Q", "1.5",
                     "--at", "1.0,2.0"])
        assert code == 2
        assert "interval" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["3.0", "1.5"])
    def test_eps_at_or_above_q_is_degenerate(self, tmp_path, eps):
        csv_path = tmp_path / "f.csv"
        out_path = tmp_path / "ext.json"
        write_samples(csv_path, 64, np.cos)
        assert main(["extrapolate", "--input", str(csv_path),
                     "--rho", "2", "--eps", eps, "--Q", "1.5",
                     "--at", "1.0", "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["M_star"] == 0 and doc["degenerate"] is True

    @pytest.mark.parametrize("command", [["fit", "--M", "3"],
                                         ["extrapolate", "--rho", "2", "--eps", "1e-10",
                                          "--Q", "1.5", "--at", "1.1"]])
    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # Triangular solves perturbed by 1e-6 trip fit's residual guard;
        # the CLI reports SolverError's message and exits 3.
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 64, np.cos)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
        code = main([command[0], "--input", str(csv_path), *command[1:]])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"^stable-extrap: error: normal-equation residual \S+ exceeds "
                         r"tolerance \(M=\d+, N=64\)$", err, re.M), err

    def test_at_interval_edge_exits_2(self, tmp_path, capsys):
        # (rho + 1/rho)/2 = 1.25 exactly at rho = 2; the interval is open there.
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 64, np.cos)
        code = main(["extrapolate", "--input", str(csv_path),
                     "--rho", "2", "--eps", "1e-10", "--Q", "1.5", "--at", "1.25"])
        assert code == 2
        assert "x=1.25 is outside the reachable interval [1, 1.25)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rho", "--eps", "--Q"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flag, value):
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 64, np.cos)
        args = {"--rho": "2", "--eps": "1e-10", "--Q": "1.5"}
        args[flag] = value
        code = main(["extrapolate", "--input", str(csv_path),
                     *(tok for item in args.items() for tok in item), "--at", "1.1"])
        assert code == 2
        assert f"{flag[2:]} must be finite, got {value}" in capsys.readouterr().err

    def test_double_precision_scenario_m_star(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        out_path = tmp_path / "ext.json"
        write_samples(csv_path, 10 ** 4, lambda x: 1.0 / (1.0 + x ** 2))
        code = main(["extrapolate", "--input", str(csv_path),
                     "--rho", repr(RHO_SILVER), "--eps", "2.2e-16", "--Q", "1",
                     "--at", "1.2", "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["M_star"] == 40
        assert doc["points"][0]["M_star"] == 40

    def test_overflowing_bound_exits_2(self, tmp_path, capsys):
        # The bounds scale with Q, so Q = 1e308 overflows them; the document
        # would hold Infinity, which strict JSON readers refuse.
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 400, np.cos)
        code = main(["extrapolate", "--input", str(csv_path), "--rho", "2",
                     "--eps", "1e-10", "--Q", "1e308", "--at", "1.0,1.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "its bounds overflow at x=1.0: the samples or Q=1e+308" in captured.err

    @pytest.mark.parametrize("rho, at", [
        ("1e100", "1e60"), ("1e100", "4.99999999999e99"), ("1e308", "1e307"),
    ])
    def test_far_point_on_wide_ellipse_exits_2(self, tmp_path, rho, at):
        # (rho r)^M in the noise term overflows the float power far out on a
        # wide ellipse, and near its edge; in a fresh interpreter, so that a
        # traceback or a numpy warning would show on stderr.
        csv_path = tmp_path / "f.csv"
        write_samples(csv_path, 400, np.cos)
        proc = _run_cli(["extrapolate", "--input", str(csv_path), "--rho", rho,
                         "--eps", "1e-300", "--Q", "1e300", "--at", at])
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert proc.stdout == b""
        assert err.startswith("stable-extrap: error: ") and err.count("\n") == 1, err
        assert "overflow" in err and "Traceback" not in err
        assert f"too far out for rho={float(rho)!r}" in err and "Q=" not in err


class TestVerifyCommand:
    def test_conditioning_suite_passes(self, tmp_path):
        out_path = tmp_path / "v.json"
        assert main(["verify", "--suite", "conditioning",
                     "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert isinstance(doc, list) and doc
        assert all(entry["passed"] for entry in doc)
        assert {"name", "params", "lhs", "rhs", "passed", "slack"} <= set(doc[0])

    def test_gerschgorin_override(self, tmp_path):
        out_path = tmp_path / "v.json"
        assert main(["verify", "--suite", "gerschgorin", "--M", "30",
                     "--N", "3600", "--output", str(out_path)]) == 0

    @pytest.mark.parametrize("suite, expected", [
        ("gerschgorin", {"M": 0, "N": 3600}), ("s-norm", {"M": 0}),
    ])
    def test_zero_override_is_used(self, tmp_path, suite, expected):
        # 0 is a size like any other, not "no override".
        out_path = tmp_path / "v.json"
        assert main(["verify", "--suite", suite, "--M", "0",
                     "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc and all(entry["params"] == expected for entry in doc)

    @pytest.mark.parametrize("suite, overrides, message", [
        ("gerschgorin", ["--M", "-1"], "M override must be nonnegative, got -1"),
        ("gerschgorin", ["--N", "-1"], "N override must be nonnegative, got -1"),
        ("s-norm", ["--M", "-1"], "M override must be nonnegative, got -1"),
        ("singular-values", ["--N", "-1"], "N override must be nonnegative, got -1"),
        ("sandwich", ["--N", "-1"], "N override must be nonnegative, got -1"),
        ("singular-values", ["--N", "0"], "needs n >= 1"),
        ("gerschgorin", ["--M", "31", "--N", "30"], "requires M <= N"),
        ("gerschgorin", ["--M", "0", "--N", "0"], "requires N >= 1"),
    ])
    def test_override_a_suite_cannot_run_exits_2(self, capsys, suite, overrides, message):
        assert main(["verify", "--suite", suite, *overrides]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suite, flag", [
        ("conditioning", "--M"), ("conditioning", "--N"), ("s-norm", "--N"),
        ("sandwich", "--M"), ("singular-values", "--M"), ("all", "--M"), ("all", "--N"),
    ])
    def test_unhonoured_override_exits_2(self, capsys, suite, flag):
        assert main(["verify", "--suite", suite, flag, "3"]) == 2
        assert f"suite '{suite}' takes no {flag[2:]} override" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_known_false_statement_fails_but_exits_0(self, tmp_path):
        # The sandwich suite contains the as-stated lower inequality, which
        # fails in measurement for N >= 8. It is reported, but it is known
        # to be false, so it does not set the exit status.
        out_path = tmp_path / "v.json"
        assert main(["verify", "--suite", "sandwich", "--N", "16",
                     "--output", str(out_path)]) == 0
        by_name = {entry["name"]: entry for entry in json.loads(out_path.read_text())}
        assert by_name["sandwich-lower"]["passed"] is False
        assert by_name["sandwich-upper"]["passed"] is True

    def test_all_suite_exits_0(self, tmp_path):
        out_path = tmp_path / "v.json"
        assert main(["verify", "--suite", "all", "--output", str(out_path)]) == 0
        failed = {entry["name"] for entry in json.loads(out_path.read_text())
                  if not entry["passed"]}
        assert failed == set(verify.KNOWN_FALSE)

    def test_other_failing_check_exits_1(self, tmp_path, monkeypatch):
        def failing(m_degree):
            return (CheckResult("s-norm-le-5", {"M": m_degree}, 6.0, 5.0, False, -1.0),)

        monkeypatch.setattr(verify, "check_s_norm", failing)
        assert main(["verify", "--suite", "s-norm",
                     "--output", str(tmp_path / "v.json")]) == 1

    @pytest.mark.parametrize("n, code", [(20, 0), (21, 2), (40, 2)])
    def test_sandwich_limited_to_n20(self, tmp_path, capsys, n, code):
        assert main(["verify", "--suite", "sandwich", "--N", str(n),
                     "--output", str(tmp_path / "v.json")]) == code
        if code == 2:
            assert f"requires N <= 20 (got N={n})" in capsys.readouterr().err


class TestFigureCommand:
    def test_figure1_two_csvs_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["figure", "--figure", "1", "--output", str(d1)]) == 0
        assert main(["figure", "--figure", "1", "--output", str(d2)]) == 0
        alpha = (d1 / "figure1_alpha.csv").read_text()
        factor = (d1 / "figure1_factor.csv").read_text()
        assert alpha.splitlines()[0] == "x,alpha"
        assert factor.splitlines()[0] == "x,factor,capped"
        assert alpha == (d2 / "figure1_alpha.csv").read_text()
        assert factor == (d2 / "figure1_factor.csv").read_text()

    def test_figure4_requires_seed(self, tmp_path, capsys):
        assert main(["figure", "--figure", "4", "--output", str(tmp_path / "out")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_figure4_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["figure", "--figure", "4", "--seed", "-1", "--output", str(out)]) == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "0.5", "rho must exceed 1"),
        ("--rho", "1", "rho must exceed 1"),
        ("--rho", "inf", "rho must be finite, got inf"),
        ("--rho", "nan", "rho must be finite, got nan"),
        ("--eps", "0", "eps must be positive"),
        ("--eps", "inf", "eps must be finite, got inf"),
    ])
    def test_figure1_bad_parameter_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert main(["figure", "--figure", "1", flag, value, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_output_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["figure", "--figure", "1", "--output", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_figure4_with_seed(self, tmp_path):
        assert main(["figure", "--figure", "4", "--output", str(tmp_path),
                     "--seed", "1"]) == 0
        lines = (tmp_path / "figure4_coefficients.csv").read_text().splitlines()
        assert lines[0] == "N,k,abs_coeff"
        assert len(lines) == 1 + 2 * 101  # two grids, coefficients 0..100

    def test_unknown_figure_exits_2(self, tmp_path):
        assert main(["figure", "--figure", "9", "--output", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_figure2_csv(self, tmp_path):
        assert main(["figure", "--figure", "2", "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "figure2_singular_bounds.csv").read_text().splitlines()
        assert lines[0] == "N,M,sigma_max_sq,upper_bound,sigma_min_sq,lower_bound"
        assert len(lines) == 1 + 392

    def test_figure3_two_panels(self, tmp_path):
        assert main(["figure", "--figure", "3", "--output", str(tmp_path)]) == 0
        for name in ("figure3_left.csv", "figure3_right.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].startswith("M,N,abs_error_x=1,")
            assert len(lines) == 1 + 40


@pytest.mark.parametrize("args, flag", [
    (["fit", "--M", "3", "--auto", "--rho", "2.4", "--eps", "1e-10", "--Q", "1.5"], "--M"),
    (["fit", "--M", "3", "--rho", "-5"], "--rho"),
    (["fit", "--M", "3", "--eps", "1e-10"], "--eps"),
    (["fit", "--M", "3", "--Q", "1.5"], "--Q"),
    (["figure", "--figure", "2", "--rho", "3"], "--rho"),
    (["figure", "--figure", "3", "--eps", "1e-10"], "--eps"),
    (["figure", "--figure", "1", "--seed", "5"], "--seed"),
    (["figure", "--figure", "5", "--seed", "5"], "--seed"),
])
def test_flag_without_effect_exits_2(tmp_path, capsys, args, flag):
    """A flag the command would ignore is refused, and nothing is written."""
    if args[0] == "fit":
        write_samples(tmp_path / "s.csv", 64, np.cos)
        args = [*args, "--input", str(tmp_path / "s.csv")]
    out = tmp_path / "out"
    assert main([*args, "--output", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--M", "3"],
    ["extrapolate", "--rho", "2.414", "--eps", "1e-10", "--Q", "1.5", "--at", "1.1"],
    ["verify", "--suite", "s-norm", "--M", "3"],
], ids=lambda args: args[0])
def test_unwritable_output_exits_2(tmp_path, capsys, args):
    """An --output in a directory that does not exist is refused by name."""
    if args[0] != "verify":
        write_samples(tmp_path / "s.csv", 64, np.cos)
        args = [*args, "--input", str(tmp_path / "s.csv")]
    out = tmp_path / "missing" / "out.json"
    assert main([*args, "--output", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


class TestThreads:
    def test_threads_flag_is_gone(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_samples(csv_path, 16, np.cos)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(csv_path), "--M", "2", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_import_loads_no_scipy():
    """The package runs on numpy alone; importing scipy would cost most of
    the start-up time again."""
    src = str(Path(stable_extrap.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys, stable_extrap, stable_extrap.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_entry_point_matches_in_process_main(tmp_path, capsys):
    """`python -m stable_extrap.cli` in a fresh interpreter prints the same
    bytes as main() in this one."""
    csv_path = tmp_path / "f.csv"
    write_samples(csv_path, 10 ** 4, lambda x: 1.0 / (1.0 + x ** 2))
    args = ["extrapolate", "--input", str(csv_path), "--rho", repr(RHO_SILVER),
            "--eps", "1e-12", "--Q", "1", "--at", "1.0,1.1,1.2"]
    assert main(args) == 0
    in_process = capsys.readouterr().out
    proc = _run_cli(args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == in_process.encode("utf-8")


@pytest.mark.parametrize("command", ["fit", "extrapolate"])
@pytest.mark.parametrize("samples", ["+-1e308", *LARGE_SAMPLES])
def test_large_finite_samples(tmp_path, samples, command):
    """Finite samples near the top of the double range are fitted, or refused
    as bad input with exit 2 and one error line; never a solver failure
    (exit 3), a NaN or an Infinity in the document, or a numpy warning."""
    path = tmp_path / "big.csv"
    if samples in LARGE_SAMPLES:
        write_samples(path, 400, LARGE_SAMPLES[samples])
    else:
        path.write_text(OVERFLOWING_CSV)
    args = (["fit", "--M", "1"] if command == "fit" else
            ["extrapolate", "--rho", "2", "--eps", "1e-10", "--Q", "1.5",
             "--at", "1.0,1.1"])
    proc = _run_cli([*args, "--input", str(path)])
    err = proc.stderr.decode()
    if proc.returncode == 0:
        assert err == ""
        assert all(math.isfinite(v) for v in _floats(json.loads(proc.stdout)))
    else:
        assert proc.returncode == 2, err
        assert proc.stdout == b""
        assert err.startswith("stable-extrap: error: ") and err.count("\n") == 1, err


def _floats(obj):
    """Every float in a JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [v for item in obj for v in _floats(item)]
    return [obj] if isinstance(obj, float) else []
