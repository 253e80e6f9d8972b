import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from lbdiv import CardinalityConcave, GraphCut, lb_divergence, Permutation
from lbdiv.cli import cli, main, resolve_generator

SQRT3_DIV = 0.038550526870925236


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


class TestGeneratorSpecs:
    def test_families(self, tmp_path):
        assert isinstance(resolve_generator("cardinality:sqrt", 3),
                          CardinalityConcave)
        assert isinstance(resolve_generator("cardinality:log", 3),
                          CardinalityConcave)
        assert isinstance(resolve_generator("cut:uniform", 3), GraphCut)
        f = resolve_generator("topm:2", 4)
        assert isinstance(f, CardinalityConcave)
        np.testing.assert_array_equal(f.gains, [1.0, 1.0, 0.0, 0.0])

    def test_file_backed_csv_gains_and_json_weights(self, tmp_path):
        gains = tmp_path / "gains.csv"
        gains.write_text("1.0,0.5,0.25\n")
        f = resolve_generator(f"cardinality:file={gains}", 3)
        np.testing.assert_allclose(f.gains, [1.0, 0.5, 0.25])
        cut = tmp_path / "w.json"
        cut.write_text('{"rows": [[0, 2], [2, 0]]}')
        assert resolve_generator(f"cut:file={cut}", 2)({1}) == 2.0

    def test_file_backed(self, tmp_path):
        gains = tmp_path / "gains.json"
        gains.write_text("[1.0, 0.5, 0.25]")
        f = resolve_generator(f"cardinality:file={gains}", 3)
        np.testing.assert_allclose(f.gains, [1.0, 0.5, 0.25])
        cut = tmp_path / "w.csv"
        cut.write_text("0,2\n2,0\n")
        g = resolve_generator(f"cut:file={cut}", 2)
        assert g({1}) == 2.0

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_generator("nope:x", 3)
        with pytest.raises(ValueError):
            resolve_generator("topm:two", 3)


class TestDivergenceCommand:
    def test_cut_by_hand(self, runner):
        result = run(runner, "--generator", "cut:uniform", "divergence",
                     "--x", "0.3,0.7", "--sigma", "1,2")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["value"] == pytest.approx(0.8, abs=1e-12)
        assert report["sigma_x"] == [2, 1]
        assert report["confidence_bound"] == pytest.approx(1.6, abs=1e-12)

    def test_consistent_sigma_is_zero(self, runner):
        result = run(runner, "divergence", "--x", "0.9,0.1,0.5",
                     "--sigma", "1,3,2")
        assert json.loads(result.output)["value"] == 0.0

    def test_file_inputs(self, runner, tmp_path):
        xfile = tmp_path / "x.txt"
        xfile.write_text("0.9,0.1,0.5")
        result = run(runner, "divergence", "--x", f"@{xfile}",
                     "--sigma", "1,2,3")
        assert json.loads(result.output)["value"] == pytest.approx(
            SQRT3_DIV, abs=1e-12)

    def test_round_trip_bit_for_bit(self, runner):
        result = run(runner, "divergence", "--x", "0.9,0.1,0.5",
                     "--sigma", "1,2,3")
        report = json.loads(result.output)
        x = report["inputs"]["x"]
        f = CardinalityConcave.sqrt(3)
        recomputed = lb_divergence(f, x, Permutation(report["sigma"]))
        assert float(f"{recomputed:.12g}") == report["value"]

    def test_csv_format(self, runner):
        result = run(runner, "--format", "csv", "divergence",
                     "--x", "0.3,0.7", "--sigma", "2,1")
        assert "value,0" in result.output.splitlines()


class TestAggregateCommand:
    def test_low_confidence_rows_outvoted(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1.9,2\n1.8,2\n1.95,2\n2,1\n2.5,1.2\n")
        result = run(runner, "aggregate", str(data))
        report = json.loads(result.output)
        assert report["mean_vector"] == [2.03, 1.64]
        assert report["ordering"] == [1, 2]
        assert not report["low_confidence"]

    def test_one_row(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.2,0.9,0.5\n")
        report = json.loads(run(runner, "aggregate", str(data)).output)
        assert report["ordering"] == [2, 3, 1]

    def test_constant_rows_flagged(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.4,0.4\n0.4,0.4\n")
        report = json.loads(run(runner, "aggregate", str(data)).output)
        assert report["low_confidence"]
        assert report["objective"] == 0.0

    def test_weights(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,0\n0,1\n")
        report = json.loads(run(runner, "aggregate", str(data),
                                "--weights", "3,1").output)
        assert report["ordering"] == [1, 2]
        assert report["mean_vector"] == [0.75, 0.25]

    def test_malformed_csv_names_row(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,2\nfoo,bar\n")
        result = runner.invoke(cli, ["aggregate", str(data)])
        assert result.exit_code != 0

    def test_output_file(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,2\n")
        out = tmp_path / "report.json"
        run(runner, "--output", str(out), "aggregate", str(data))
        assert json.loads(out.read_text())["ordering"] == [2, 1]


class TestOutputWrite:
    """--output overwrites the file in place and trims it to the report,
    which is byte for byte the report on stdout."""

    @pytest.fixture
    def report(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.2,0.9,0.5\n0.4,0.1,0.3\n")
        args = ["aggregate", str(data)]

        def write(out):
            run(runner, "--output", str(out), *args)
            return run(runner, *args).stdout_bytes
        return write

    @pytest.mark.parametrize("old", [b"x" * 1_000_000, b"{}"],
                             ids=["longer", "shorter"])
    def test_existing_file_ends_as_the_report(self, report, tmp_path, old):
        out = tmp_path / "report.json"
        out.write_bytes(old)
        expected = report(out)
        assert out.read_bytes() == expected

    def test_new_file_is_created_like_write_text(self, report, tmp_path):
        out = tmp_path / "report.json"
        old_umask = os.umask(0o027)
        try:
            expected = report(out)
        finally:
            os.umask(old_umask)
        assert out.read_bytes() == expected
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_inode_and_mode_are_kept(self, report, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * 4096)
        out.chmod(0o600)
        before = out.stat()
        expected = report(out)
        after = out.stat()
        assert out.read_bytes() == expected
        assert (after.st_ino, after.st_mode) == (before.st_ino,
                                                 before.st_mode)

    def test_symlink_writes_its_target(self, report, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"x" * 4096)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        expected = report(link)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == expected

    @pytest.mark.skipif(not os.path.exists(os.devnull),
                        reason="no null device")
    def test_null_device_is_not_trimmed(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,2\n")
        result = run(runner, "--output", os.devnull, "aggregate", str(data))
        assert result.exit_code == 0
        assert result.output == ""


class TestClusterCommand:
    def test_k1_matches_aggregate(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("0.9,0.1\n0.8,0.3\n0.2,0.7\n")
        agg = json.loads(run(runner, "aggregate", str(data)).output)
        clu = json.loads(run(runner, "cluster", str(data), "--k", "1").output)
        assert clu["representatives"] == [agg["ordering"]]

    def test_two_clusters(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        rows = ["0.9,0.1"] * 3 + ["0.1,0.9"] * 3
        data.write_text("\n".join(rows) + "\n")
        report = json.loads(run(runner, "cluster", str(data),
                                "--k", "2").output)
        assert len(set(report["assignments"][:3])) == 1
        assert set(report["assignments"][:3]) != set(report["assignments"][3:])

    def test_bad_k(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,2\n")
        assert runner.invoke(cli, ["cluster", str(data),
                                   "--k", "5"]).exit_code != 0


class TestEvalCommand:
    def test_kendall(self, runner):
        report = json.loads(run(runner, "eval", "--metric", "kendall",
                                "--sigma", "1,2,3", "--pi", "3,2,1").output)
        assert report["value"] == 3.0

    def test_spearman(self, runner):
        report = json.loads(run(runner, "eval", "--metric", "spearman",
                                "--sigma", "1,2,3", "--pi", "3,2,1").output)
        assert report["value"] == 4.0

    def test_ndcg(self, runner):
        report = json.loads(run(runner, "eval", "--metric", "ndcg",
                                "--sigma", "2,1,3",
                                "--relevance", "3,2,0").output)
        assert report["value"] == pytest.approx(0.08659840752845, abs=1e-11)
        # the log2 discounts 1 / log2(i + 1), written to 12 digits
        assert report["inputs"]["discount"] == [1.0, 0.630929753571, 0.5]
        assert report["inputs"]["cutoff"] == 3

    def test_ndcg_custom_discount(self, runner, tmp_path):
        disc = tmp_path / "d.json"
        disc.write_text("[1.0, 0.5, 0.25]")
        report = json.loads(run(runner, "eval", "--metric", "ndcg",
                                "--sigma", "1,2,3", "--relevance", "1,2,3",
                                "--discount", f"@{disc}",
                                "--cutoff", "2").output)
        # ideal 3*1 + 2*0.5 = 4, actual 1*1 + 2*0.5 = 2
        assert report["value"] == pytest.approx(0.5, abs=1e-12)
        # the report echoes the whole table, not the truncated generator
        assert report["inputs"]["discount"] == [1.0, 0.5, 0.25]
        assert report["inputs"]["cutoff"] == 2

    def test_auc(self, runner):
        report = json.loads(run(runner, "eval", "--metric", "auc",
                                "--sigma", "1,3,2", "--good", "1,2",
                                "--bad", "3").output)
        assert report["value"] == 0.5

    def test_missing_option(self, runner):
        assert runner.invoke(cli, ["eval", "--metric", "ndcg",
                                   "--sigma", "1,2"]).exit_code != 0


class TestMallowsCommand:
    def test_density(self, runner):
        report = json.loads(run(runner, "mallows", "density",
                                "--sigma", "1,2,3", "--x", "0.9,0.1,0.5",
                                "--theta", "2").output)
        assert report["log_density_unnormalized"] == pytest.approx(
            -2 * SQRT3_DIV, abs=1e-12)

    def test_logz_theta_zero(self, runner):
        report = json.loads(run(runner, "mallows", "logZ", "--sigma", "1,2",
                                "--theta", "0", "--samples", "200").output)
        assert report["log_Z"] == 0.0

    def test_logz_reproducible(self, runner):
        args = ["--seed", "5", "mallows", "logZ", "--sigma", "2,1",
                "--theta", "1.5", "--samples", "5000"]
        a = json.loads(run(runner, *args).output)
        b = json.loads(run(runner, *args).output)
        assert a == b

    def test_map(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1.9,2\n1.8,2\n1.95,2\n2,1\n2.5,1.2\n")
        report = json.loads(run(runner, "mallows", "map",
                                "--matrix", str(data)).output)
        assert report["map"] == [1, 2]

    def test_density_outside_cube(self, runner):
        assert runner.invoke(cli, ["mallows", "density", "--sigma", "1,2",
                                   "--x", "1.5,0.2"]).exit_code != 0


class TestGridCommand:
    def test_2d_lattice(self, runner):
        result = run(runner, "--format", "csv", "--generator", "cut:uniform",
                     "grid", "--sigma", "1,2", "--resolution", "3")
        lines = result.output.strip().splitlines()
        assert lines[0] == "x1,x2,divergence"
        assert len(lines) == 10
        for line in lines[1:]:
            x1, x2, d = (float(v) for v in line.split(","))
            if x1 >= x2:
                assert d == 0.0
            else:
                assert d > 0.0

    def test_3d_row_count(self, runner):
        result = run(runner, "--format", "csv", "grid", "--sigma", "3,1,2",
                     "--resolution", "4", "--dims", "3")
        assert len(result.output.strip().splitlines()) == 65

    def test_json_format(self, runner):
        report = json.loads(run(runner, "grid", "--sigma", "1,2",
                                "--resolution", "2").output)
        assert report["columns"] == ["x1", "x2", "divergence"]
        assert len(report["rows"]) == 4

    @pytest.mark.parametrize("spec", ["cut:uniform", "cardinality:sqrt",
                                      "topm:2"])
    def test_values_match_single_point_divergence(self, runner, spec):
        report = json.loads(run(runner, "--generator", spec, "grid",
                                "--sigma", "3,1,2", "--dims", "3",
                                "--resolution", "5").output)
        f = resolve_generator(spec, 3)
        sigma = Permutation([3, 1, 2])
        for *point, value in report["rows"]:
            assert value == pytest.approx(lb_divergence(f, point, sigma),
                                          rel=1e-12, abs=1e-12)

    def test_reject_rule_exits_on_tied_lattice_point(self, runner):
        result = runner.invoke(cli, ["--tie-rule", "reject", "grid",
                                     "--sigma", "1,2"])
        assert result.exit_code != 0

    def test_sigma_length_mismatch(self, runner):
        assert runner.invoke(cli, ["grid", "--sigma", "1,2,3",
                                   "--dims", "2"]).exit_code != 0


class TestErrorStreams:
    def test_errors_go_to_stderr_with_exit_code_2(self, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("1,2\n3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "lbdiv.cli", "aggregate", str(data)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "line 2" in proc.stderr

    def test_help_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "lbdiv.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("Usage: ")
        assert proc.stderr == ""


class TestInputBoundary:
    """Malformed or non-finite input exits 2 with one line on stderr."""

    def run_main(self, monkeypatch, capsys, *args):
        monkeypatch.setattr(sys, "argv", ["lbdiv", *args])
        with pytest.raises(SystemExit) as exc:
            main()
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("args, message", [
        (("eval", "--metric", "kendall", "--sigma", "1,2"),
         "--pi is required for kendall"),
        (("eval", "--sigma", "1,2"), "'--metric'"),
        (("cluster",), "'MATRIX_SOURCE'"),
        (("--format", "xml", "divergence", "--x", "1", "--sigma", "1"),
         "'xml'"),
        ((), "Missing command"),
    ], ids=["missing-option", "missing-choice", "missing-argument",
            "bad-choice", "missing-command"])
    def test_usage_error(self, monkeypatch, capsys, args, message):
        # click's usage errors take the library errors' one-line path
        err = self.run_main(monkeypatch, capsys, *args)
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("args, message", [
        (("eval", "--metric", "kendall", "--sigma", "[[1,2]]", "--pi", "1,2"),
         "vector must be a JSON array of reals"),
        (("divergence", "--x", "[1,{}]", "--sigma", "1,2"),
         "vector must be a JSON array of reals"),
        (("eval", "--metric", "auc", "--sigma", "1,2", "--good", "1.5",
          "--bad", "2"), "items must be finite integers"),
        (("divergence", "--x", '["0.5", true]', "--sigma", '[true, "2"]'),
         "vector must be a JSON array of reals"),
        (("divergence", "--x", "[1, true]", "--sigma", "1,2"),
         "vector must be a JSON array of reals"),
    ], ids=["nested-items", "object-score", "non-integral-item",
            "string-and-boolean", "boolean-among-ints"])
    def test_bad_vector_option(self, monkeypatch, capsys, args, message):
        err = self.run_main(monkeypatch, capsys, *args)
        assert message in err

    def test_object_in_json_cut_weights(self, monkeypatch, capsys, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text("[[0, {}], [1, 0]]")
        err = self.run_main(monkeypatch, capsys, "--generator",
                            f"cut:file={weights}", "divergence", "--x",
                            "0.5,0.2", "--sigma", "1,2")
        assert "real numbers" in err

    def test_cut_weights_of_the_wrong_size(self, monkeypatch, capsys,
                                           tmp_path):
        weights = tmp_path / "W.csv"
        weights.write_text("0,1,1\n1,0,1\n1,1,0\n")
        err = self.run_main(monkeypatch, capsys, "--generator",
                            f"cut:file={weights}", "divergence", "--x",
                            "0.5,0.2", "--sigma", "1,2")
        assert "weight matrix has shape (3, 3), expected (2, 2)" in err

    def test_boolean_json_matrix(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "rows.json"
        data.write_text(json.dumps({"rows": True}))
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data))
        assert "real numbers" in err

    def test_json_matrix_without_rows(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "rows.json"
        data.write_text(json.dumps({"row_ids": ["a"]}))
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data))
        assert "'rows'" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell(self, monkeypatch, capsys, tmp_path, cell):
        data = tmp_path / "rows.csv"
        data.write_text(f"a,b\n1,2\n{cell},1\n")
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data))
        assert "line 3" in err and "non-finite" in err

    def test_three_dimensional_json_matrix(self, monkeypatch, capsys,
                                           tmp_path):
        data = tmp_path / "rows.json"
        data.write_text("[[[1, 2]]]")
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data))
        assert "score matrix must be 2-d" in err

    @pytest.mark.parametrize("rows", ["1e308,-1e308\n",
                                      "1e308,0\n1e308,0\n"],
                             ids=["divergence", "mean"])
    def test_finite_csv_that_overflows(self, tmp_path, rows):
        data = tmp_path / "rows.csv"
        data.write_text(rows)
        err = self.run_child("--generator", "cut:uniform", "aggregate",
                             str(data))
        assert "finite" in err

    @pytest.mark.parametrize("discount, message", [
        ("[1, 0.5, 0]", "discounts must be finite and strictly positive"),
        ("[]", "discounts must be finite and strictly positive"),
        ("[1, 0.5", "bad gain table JSON"),
        ('{"d": 1}', "gain table must be a JSON array of reals"),
        ("[[1, 0.5]]", "gain table must be a JSON array of reals"),
        ("[1, NaN]", "non-finite value in gain table"),
        ("[0.5, 1]", "gain table must be non-increasing"),
    ], ids=["zero", "empty", "malformed", "object", "nested", "nan",
            "increasing"])
    def test_bad_discount_file(self, monkeypatch, capsys, tmp_path, discount,
                               message):
        disc = tmp_path / "d.json"
        disc.write_text(discount)
        err = self.run_main(monkeypatch, capsys, "eval", "--metric", "ndcg",
                            "--sigma", "1,2", "--relevance", "1,2",
                            "--discount", f"@{disc}")
        assert message in err

    @pytest.mark.parametrize("cutoff", ["0", "4"])
    def test_ndcg_cutoff_out_of_range(self, monkeypatch, capsys, cutoff):
        err = self.run_main(monkeypatch, capsys, "eval", "--metric", "ndcg",
                            "--sigma", "1,2,3", "--relevance", "1,2,3",
                            "--cutoff", cutoff)
        assert f"cutoff m={cutoff} outside 1..3" in err

    def test_auc_items_outside_the_permutation(self, monkeypatch, capsys):
        err = self.run_main(monkeypatch, capsys, "eval", "--metric", "auc",
                            "--sigma", "1,2", "--good", "4", "--bad", "5")
        assert err == "error: items [4, 5] outside 1..2\n"

    def test_cluster_nan_tolerance(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "m.csv"
        data.write_text("1,2\n2,1\n3,1\n")
        err = self.run_main(monkeypatch, capsys, "cluster", str(data),
                            "--k", "2", "--tol", "nan")
        assert "tol >= 0" in err

    def test_finite_relevance_that_overflows(self):
        err = self.run_child("eval", "--metric", "ndcg", "--sigma", "3,1,2",
                             "--relevance", "1.5e308,1.5e308,0")
        assert "overflowed" in err

    def run_child(self, *args):
        # a child process, so that numpy's overflow warnings reach stderr
        proc = subprocess.run([sys.executable, "-m", "lbdiv.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        return proc.stderr

    def test_non_finite_json_matrix(self, monkeypatch, capsys, tmp_path):
        data = tmp_path / "rows.json"
        data.write_text("[[1, 2], [NaN, 1]]")
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data))
        assert "finite" in err

    def test_non_finite_vectors(self, monkeypatch, capsys, tmp_path):
        err = self.run_main(monkeypatch, capsys, "divergence",
                            "--x", "0.5,nan", "--sigma", "1,2")
        assert "non-finite" in err
        data = tmp_path / "rows.csv"
        data.write_text("1,2\n3,4\n")
        err = self.run_main(monkeypatch, capsys, "aggregate", str(data),
                            "--weights", "[1, Infinity]")
        assert "non-finite" in err
