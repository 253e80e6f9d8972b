"""CLI reports: the bulk encoder against the writer it replaced, and fuzzing
of the score-matrix parsers through `aggregate`.

The oracles below are the report writer and the CSV parser as they were
before numeric arrays were written and parsed in bulk: `_sig` rounding
followed by `json.dumps(indent=2)`, and a per-line CSV loop.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lbdiv import cli as cli_module
from lbdiv.cli import cli, main
from lbdiv.dataio import ParseError, parse_csv_matrix


# ---------------------------------------------------------------- oracles

def _sig(value):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig(v) for v in value]
    return value


def _as_lists(value):
    """Every ndarray replaced by its .tolist(), as callers once passed them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def oracle_text(report, fmt):
    """The report text as the CLI wrote it before the bulk encoder."""
    report = _sig(_as_lists(report))
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = []
    if isinstance(report, list):  # grid rows
        for row in report:
            lines.append(",".join(f"{v:.12g}" if isinstance(v, float)
                                  else str(v) for v in row))
    else:
        for key, val in report.items():
            if isinstance(val, (dict, list)):
                val = json.dumps(val)
            elif isinstance(val, float):
                val = f"{val:.12g}"
            lines.append(f"{key},{val}")
    return "\n".join(lines) + "\n"


def oracle_report_text(report, fmt):
    """oracle_text in place of `_report_text`, which takes a CSV table as
    (header, 2-D array) where the old writer took a list of rows."""
    if isinstance(report, tuple):
        header, rows = report
        report = [header] + rows.tolist()
    return oracle_text(report, fmt)


def _is_numeric_row(cells):
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def parse_by_line(text):
    """The CSV matrix parser before the bulk path: one line at a time."""
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    header = None
    start = 0
    first = [c.strip() for c in lines[0].split(",")]
    if not _is_numeric_row(first):
        header = first
        start = 1
        if len(lines) == 1:
            raise ParseError("no data rows after header")
    rows = []
    width = None
    for idx in range(start, len(lines)):
        cells = [c.strip() for c in lines[idx].split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"non-numeric value in row: {exc}",
                             line=idx + 1) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"expected {width} columns, found {len(row)}", line=idx + 1)
        rows.append(row)
    out = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ParseError("non-finite value in row",
                         line=start + int(bad[0]) + 1)
    return out, header


# ------------------------------------------------------------- strategies

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0,
                  2.0 ** 60, 1e16, 1 / 3, 0.1 + 0.2, 123456789012.5,
                  1.0000000000005, 9.9999999999995e-5, 1e-5,
                  float("inf"), float("-inf"), float("nan"),
                  # where the bulk float format hands over to _cell
                  999999999999.5, 1e12, 1.234567890123e15,
                  9999999999999998.0, 1e22, 1e-310, -1e-320,
                  2.2250738585072014e-308]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(),
                    st.text(max_size=6))


def _array_strategy(min_dims):
    """Float, int and bool arrays, with repeated values and empty sides."""
    shapes = array_shapes(min_dims=min_dims, max_dims=3, min_side=0,
                          max_side=4)
    return st.one_of(
        arrays(np.float64, shapes, elements=floats),
        arrays(np.float32, shapes, elements=st.floats(width=32)),
        arrays(np.int64, shapes, elements=st.integers(-2**62, 2**62)),
        arrays(np.bool_, shapes),
    )


values = st.recursive(
    st.one_of(scalars, _array_strategy(1)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=12)
reports = st.dictionaries(st.text(max_size=5), values, max_size=6)


class TestEncoderMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_json_any_value(self, value):
        assert cli_module._json(value, 2) + "\n" == oracle_text(value, "json")
        assert cli_module._json(value) == json.dumps(_sig(_as_lists(value)))

    @settings(max_examples=200, deadline=None)
    @given(reports)
    def test_reports_in_both_formats(self, report):
        for fmt in ("json", "csv"):
            assert (cli_module._report_text(report, fmt)
                    == oracle_text(report, fmt))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(max_size=4), max_size=4), _array_strategy(2)
           .filter(lambda a: a.ndim == 2))
    def test_csv_table(self, header, rows):
        assert (cli_module._report_text((header, rows), "csv")
                == oracle_report_text((header, rows), "csv"))

    def test_signed_zero_and_int_arrays_stay_apart(self):
        report = {"x": np.array([0.0, -0.0, 1.0]), "a": np.array([1, 0]),
                  "b": np.array([1.0, 0.0])}
        text = cli_module._report_text(report, "json")
        assert json.loads(text) == {"x": [0.0, -0.0, 1.0], "a": [1, 0],
                                    "b": [1.0, 0.0]}
        assert "-0.0" in text and '"a": [\n    1,\n    0\n  ]' in text
        assert cli_module._report_text(report, "csv") == (
            "x,[0.0, -0.0, 1.0]\na,[1, 0]\nb,[1.0, 0.0]\n")

    def test_rejects_what_json_rejects(self):
        for bad in (np.int64(3), np.array([1 + 2j]), object()):
            with pytest.raises(TypeError):
                cli_module._report_text({"v": bad}, "json")


# ------------------------------------------------------ CLI byte identity

@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A seeded matrix with ties, a duplicate row and a -0.0 cell."""
    root = tmp_path_factory.mktemp("reports")
    rng = np.random.default_rng(20130)
    M = np.round(rng.random((24, 5)) * 4) / 4
    M[5] = M[3]
    M[2, 1] = -0.0
    M[7] = np.arange(5) / 3
    matrix = root / "m.csv"
    matrix.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                for row in M) + "\n")
    (root / "m.json").write_text(json.dumps({"rows": M.tolist()}))
    W = np.triu(np.round(rng.random((5, 5)), 3), 1)
    (root / "w.csv").write_text("\n".join(",".join(map(repr, row))
                                          for row in (W + W.T).tolist()))
    (root / "th.txt").write_text(",".join(["0.5", "1.25"] * 12))
    x = "0.9,-0.0,0.5,0.3333333333333333,0.25"
    commands = [
        ["divergence", "--x", x, "--sigma", "1,2,3,4,5"],
        ["aggregate", str(matrix)],
        ["aggregate", str(root / "m.json"), "--weights", ",".join(["2"] * 24)],
        ["cluster", str(matrix), "--k", "3"],
        ["eval", "--metric", "kendall", "--sigma", "1,2,3", "--pi", "3,1,2"],
        ["eval", "--metric", "spearman", "--sigma", "1,2,3", "--pi", "3,1,2"],
        ["eval", "--metric", "ndcg", "--sigma", "2,1,3",
         "--relevance", "3,2,-0.0", "--cutoff", "2"],
        ["eval", "--metric", "auc", "--sigma", "1,3,2", "--good", "1,2",
         "--bad", "3"],
        ["mallows", "density", "--sigma", "1,2,3,4,5", "--x", x,
         "--theta", "2"],
        ["mallows", "logZ", "--sigma", "2,1,3,4,5", "--theta", "1.5",
         "--samples", "500"],
        ["mallows", "map", "--matrix", str(matrix), "--thetas",
         f"@{root / 'th.txt'}"],
        ["grid", "--sigma", "2,1", "--resolution", "7"],
        ["grid", "--sigma", "3,1,2", "--dims", "3", "--resolution", "4"],
    ]
    return f"cut:file={root / 'w.csv'}", commands


@pytest.mark.parametrize("spec", ["topm:3", "cardinality:sqrt", "cut:uniform",
                                  "cut:file"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_stdout_matches_oracle(cli_inputs, monkeypatch, spec, fmt):
    cut_file, commands = cli_inputs
    spec = cut_file if spec == "cut:file" else spec
    runner = CliRunner()
    ran = 0
    for command in commands:
        if command[0] == "grid" and spec != "cut:uniform":
            continue  # the other generators are sized for the matrix
        argv = ["--generator", spec, "--format", fmt, *command]
        new = runner.invoke(cli, argv, catch_exceptions=False)
        with monkeypatch.context() as m:
            m.setattr(cli_module, "_report_text", oracle_report_text)
            old = runner.invoke(cli, argv, catch_exceptions=False)
        assert new.exit_code == old.exit_code == 0, command
        assert new.stdout_bytes == old.stdout_bytes, command
        ran += 1
    assert ran >= 11


def test_large_report_avoids_the_pure_python_encoder(monkeypatch, tmp_path):
    """A 3000x10 `aggregate` report makes no call to the pure-Python
    iterencode, which json.dumps takes whenever indent is set."""
    calls = []
    real = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    rows = np.random.default_rng(5).integers(0, 6, (3000, 10))
    data = tmp_path / "ratings.csv"
    data.write_text("\n".join(",".join(map(str, r)) for r in rows.tolist()))
    result = CliRunner().invoke(cli, ["aggregate", str(data)],
                                catch_exceptions=False)
    assert result.exit_code == 0
    assert len(json.loads(result.output)["inputs"]["rows"]) == 3000
    assert calls == []
    json.dumps([1], indent=2)  # the counter does see the slow path
    assert calls == [1]


def test_distinct_floats_are_formatted_in_bulk(monkeypatch):
    """3000x10 distinct floats in [0, 1) go through one format call: no
    value takes the per-value _cell path, and the text is the oracle's."""
    X = np.random.default_rng(6).random((3000, 10))
    assert np.unique(X).size == X.size
    calls = []
    real = cli_module._cell

    def counting(value, csv):
        calls.append(value)
        return real(value, csv)

    monkeypatch.setattr(cli_module, "_cell", counting)
    text = cli_module._report_text({"rows": X}, "json")
    assert calls == []
    assert text == oracle_text({"rows": X}, "json")


# -------------------------------------------------------------- fuzzing

CELL_TEXT = st.text(alphabet="0123456789.-+eE_ \tnaifxN\xa0\u2003\x1c\x0b",
                    max_size=6)
numbers = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["-0.0", " 1.5 ", "1e999", "\t2", "1_0",
                                     "nan", "Infinity", ""]))
csv_lines = st.lists(st.lists(st.one_of(numbers, CELL_TEXT), min_size=1,
                              max_size=4).map(",".join),
                     min_size=0, max_size=6)
csv_texts = st.one_of(
    st.tuples(csv_lines, st.sampled_from(["\n", "\r\n"]))
    .map(lambda t: t[1].join(t[0])),
    st.text(alphabet="0123456789,.-e \n\r\tab", max_size=40))


def _outcome(fn, text):
    try:
        rows, header = fn(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", rows.shape, rows.view(np.uint64).tobytes(), header)


@settings(max_examples=400, deadline=None)
@given(csv_texts)
def test_bulk_csv_parse_matches_the_line_loop(text):
    assert _outcome(parse_csv_matrix, text) == _outcome(parse_by_line, text)


@pytest.mark.parametrize("text, line", [
    ("1,2\n3\n", 2), ("a,b\n1,2\n3,x\n", 3), ("1,2\n\n3,4,5\n", 2),
    ("1, 2\n3,nan\n", 2)])
def test_bulk_csv_parse_names_the_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_csv_matrix(text)
    assert exc.value.line == line


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(), st.text(max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["rows", "row_ids", "x"]), children,
                        max_size=3)),
    max_leaves=16)
json_texts = st.one_of(
    json_values.map(json.dumps),
    st.fixed_dictionaries({"rows": json_values},
                          optional={"row_ids": json_values}).map(json.dumps),
    st.lists(st.lists(json_leaves, max_size=3), max_size=3).map(json.dumps),
    st.text(alphabet="[]{},:\"0123456789.-erows_id ", max_size=30)
    .map(lambda t: "[" + t))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["lbdiv", *argv]), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            main()
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(csv_texts.map(lambda t: ("csv", t)),
                 json_texts.map(lambda t: ("json", t))))
def test_aggregate_on_fuzzed_files_exits_cleanly(tmp_path, case):
    suffix, text = case
    data = tmp_path / f"scores.{suffix}"
    data.write_text(text, encoding="utf-8")
    code, out, err = run_main(["aggregate", str(data)])
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert code == 2, err
        assert out == ""
        assert len(err.splitlines()) == 1, err
