"""Command-line interface: exit codes, determinism, outputs, and config."""

import json
import warnings

import numpy as np
import pytest

from funcband import FunctionalSample, cli, uniform_design_grid, write_curves_csv
from funcband.cli import EXIT_DEGENERATE, EXIT_ILL_POSED, EXIT_OK, EXIT_PARSE, main
from funcband.simlab import gen_model1

_HUGE = "1" + "0" * 23      # 1e23 paths or resamples: rejected before any draw


@pytest.fixture(scope="module")
def curves_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "curves.csv"
    write_curves_csv(path, gen_model1(20, 30, seed_or_rng=0))
    return str(path)


@pytest.fixture(scope="module")
def curves_csv_b(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "curves_b.csv"
    write_curves_csv(path, gen_model1(20, 30, seed_or_rng=1))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScb:
    def test_basic_run_and_outputs(self, curves_csv, tmp_path, capsys):
        out = str(tmp_path / "band")
        code, stdout, stderr = run(
            capsys, "scb", "--in", curves_csv, "--out", out, "--h", "0.15",
            "--grid-size", "40", "--paths", "2000", "--seed", "5")
        assert code == EXIT_OK
        assert stdout.startswith("scb[normal]") and stderr == ""
        payload = json.loads(open(out + ".json").read())
        assert payload["method"] == "normal" and payload["level"] == 0.95
        data = np.genfromtxt(out + ".csv", delimiter=",", names=True)
        assert len(data) == 40

    def test_byte_identical_reruns(self, curves_csv, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            code, _, _ = run(
                capsys, "scb", "--in", curves_csv, "--out", out, "--h", "0.15",
                "--grid-size", "30", "--paths", "2000", "--seed", "9")
            assert code == EXIT_OK
            outs.append(open(out + ".json", "rb").read())
        assert outs[0] == outs[1]

    def test_bootstrap_method(self, curves_csv, capsys):
        code, stdout, _ = run(
            capsys, "scb", "--in", curves_csv, "--method", "bootstrap",
            "--B", "200", "--h", "0.15", "--grid-size", "30", "--seed", "3")
        assert code == EXIT_OK
        assert stdout.startswith("scb[bootstrap]")

    def test_bootstrap_level_out_of_range(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--method", "bootstrap", "--level", "1.5",
            "--B", "50", "--h", "0.15", "--grid-size", "30", "--seed", "3")
        assert code == EXIT_PARSE
        assert "level" in stderr

    @pytest.mark.parametrize("h", ["0.15", "cv"])
    def test_overflowing_curves_exit_2(self, tmp_path, capsys, h):
        # curves near 1e160 overflow the variance: named, with nothing from numpy
        sample = gen_model1(20, 30, seed_or_rng=0)
        path = tmp_path / "big.csv"
        write_curves_csv(path, FunctionalSample(grid=sample.grid, values=1e160 * sample.values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(capsys, "scb", "--in", str(path), "--h", h,
                                       "--grid-size", "30", "--seed", "1")
        assert code == EXIT_PARSE and stdout == ""
        assert "non-finite" in stderr and "Traceback" not in stderr

    def test_bad_h_candidates(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "cv", "--h-candidates", "a,b",
            "--grid-size", "30", "--seed", "4")
        assert code == EXIT_PARSE
        assert "--h-candidates" in stderr and "Traceback" not in stderr

    def test_cv_bandwidth_default(self, curves_csv, capsys):
        code, stdout, _ = run(
            capsys, "scb", "--in", curves_csv, "--grid-size", "30",
            "--paths", "2000", "--seed", "4")
        assert code == EXIT_OK

    def test_missing_seed_is_parse_error(self, curves_csv, capsys):
        code, _, _ = run(capsys, "scb", "--in", curves_csv, "--h", "0.15")
        assert code == EXIT_PARSE

    def test_tiny_bandwidth_is_ill_posed(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.001",
            "--grid-size", "30", "--paths", "2000", "--seed", "5")
        assert code == EXIT_ILL_POSED
        assert "ill-posed" in stderr

    @pytest.mark.parametrize("h", ["1e-300", "1e-320"])
    def test_subnormal_bandwidth_warns_nothing(self, curves_csv, capsys, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run(capsys, "scb", "--in", curves_csv, "--h", h, "--seed", "5")
        assert code == EXIT_ILL_POSED
        assert stderr.startswith("ill-posed") and "Warning" not in stderr

    def test_infinite_bandwidth_is_parse_error(self, curves_csv, capsys):
        code, stdout, stderr = run(capsys, "scb", "--in", curves_csv, "--h", "inf", "--seed", "5")
        assert code == EXIT_PARSE
        assert "finite and positive" in stderr and "h=(inf,)" in stderr and stdout == ""

    @pytest.mark.parametrize("flags, named", [
        (["scb", "--h", "0.15", "--paths", _HUGE], f"paths={_HUGE}"),
        (["scb", "--h", "0.15", "--method", "bootstrap", "--B", _HUGE], f"bootstraps={_HUGE}"),
        (["predict", "--h", "split", "--paths", _HUGE], f"paths={_HUGE}")])
    def test_draw_count_limit(self, curves_csv, capsys, flags, named):
        code, stdout, stderr = run(capsys, *flags, "--in", curves_csv, "--seed", "5")
        assert code == EXIT_PARSE
        assert named in stderr and stdout == ""

    def test_non_finite_design_point(self, curves_csv, tmp_path, capsys):
        header, *rows = open(curves_csv).read().splitlines()
        points = header.split(",")
        points[3] = "nan"
        path = tmp_path / "nan_point.csv"
        path.write_text("\n".join([",".join(points), *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run(capsys, "scb", "--in", str(path), "--h", "0.2",
                                       "--seed", "5")
        assert code == EXIT_PARSE
        assert "design points must be finite" in stderr and stdout == ""

    def test_degenerate_sample(self, tmp_path, capsys):
        grid = uniform_design_grid(20)
        row = np.sin(2 * np.pi * grid.points)
        path = tmp_path / "clones.csv"
        write_curves_csv(path, FunctionalSample(grid=grid, values=np.tile(row, (4, 1))))
        code, _, stderr = run(
            capsys, "scb", "--in", str(path), "--h", "0.2", "--grid-size", "20",
            "--paths", "2000", "--seed", "6")
        assert code == EXIT_DEGENERATE
        assert "degenerate" in stderr

    def test_negative_seed(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "-1")
        assert code == EXIT_PARSE
        assert "seed=-1" in stderr

    def test_out_into_missing_directory(self, curves_csv, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x")
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--grid-size", "20",
            "--paths", "500", "--seed", "1", "--out", out)
        assert code == EXIT_PARSE
        assert f"cannot write {out}.csv" in stderr

    def test_missing_file(self, capsys):
        code, _, stderr = run(
            capsys, "scb", "--in", "/nonexistent/x.csv", "--h", "0.2", "--seed", "1")
        assert code == EXIT_PARSE
        assert "cannot read" in stderr


class TestGof:
    def test_alpha_monotone_thresholds(self, curves_csv, tmp_path, capsys):
        cs = {}
        for alpha in ("0.05", "0.01"):
            out = str(tmp_path / f"g{alpha}")
            code, _, _ = run(
                capsys, "gof", "--in", curves_csv, "--out", out, "--h", "0.15",
                "--alpha", alpha, "--grid-size", "30", "--paths", "4000",
                "--seed", "11", "--basis", "poly:1")
            assert code == EXIT_OK
            cs[alpha] = json.loads(open(out + ".json").read())["c_alpha"]
        assert cs["0.01"] >= cs["0.05"]

    def test_also_plrt(self, curves_csv, tmp_path, capsys):
        out = str(tmp_path / "gp")
        code, stdout, _ = run(
            capsys, "gof", "--in", curves_csv, "--out", out, "--h", "0.15",
            "--grid-size", "30", "--paths", "2000", "--seed", "12", "--also-plrt")
        assert code == EXIT_OK
        assert "plrt F=" in stdout
        plrt = json.loads(open(out + ".plrt.json").read())
        assert 0.0 <= plrt["p_value"] <= 1.0
        assert 0.0 <= plrt["diagnostics"]["imhof_abserr"] <= 1e-12

    def test_tabulated_basis(self, curves_csv, tmp_path, capsys):
        xs = (np.arange(1, 31) - 0.5) / 30
        tab = tmp_path / "basis.csv"
        write_curves_csv(tab, FunctionalSample(
            grid=uniform_design_grid(30), values=np.vstack([np.ones(30), xs])))
        code, stdout, _ = run(
            capsys, "gof", "--in", curves_csv, "--h", "0.15", "--grid-size", "30",
            "--paths", "2000", "--seed", "13", "--basis", f"tab:{tab}")
        assert code == EXIT_OK

    def test_bad_basis_spec(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "gof", "--in", curves_csv, "--h", "0.15", "--seed", "1",
            "--basis", "fourier:3")
        assert code == EXIT_PARSE
        assert "basis" in stderr

    def test_basis_as_wide_as_the_design(self, tmp_path, capsys):
        # 20 basis functions on 2 design points leave no residual to test
        path = tmp_path / "two_points.csv"
        write_curves_csv(path, gen_model1(3, 2, seed_or_rng=0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # the basis is orthogonalised
            code, stdout, stderr = run(capsys, "gof", "--in", str(path), "--h", "0.5",
                                       "--basis", "poly:19", "--grid-size", "5", "--seed", "0")
        assert code == EXIT_DEGENERATE and stdout == ""
        assert "L=20" in stderr and "p=2" in stderr and "Traceback" not in stderr


class TestCompare:
    def test_self_comparison_accepts(self, curves_csv, capsys):
        code, stdout, _ = run(
            capsys, "compare", "--in", curves_csv, "--in2", curves_csv,
            "--h", "0.15", "--grid-size", "30", "--paths", "2000", "--seed", "14")
        assert code == EXIT_OK
        assert "reject=False" in stdout

    def test_shifted_sample_rejects(self, curves_csv, tmp_path, capsys):
        sample = gen_model1(20, 30, seed_or_rng=2)
        shifted = FunctionalSample(grid=sample.grid, values=sample.values + 1.0)
        path = tmp_path / "shifted.csv"
        write_curves_csv(path, shifted)
        code, stdout, _ = run(
            capsys, "compare", "--in", curves_csv, "--in2", str(path),
            "--h", "0.15", "--grid-size", "30", "--paths", "2000", "--seed", "15")
        assert code == EXIT_OK
        assert "reject=True" in stdout

    def test_label_column_mode(self, tmp_path, capsys):
        grid = uniform_design_grid(20)
        a = gen_model1(8, 20, seed_or_rng=3)
        b = gen_model1(8, 20, seed_or_rng=4)
        path = tmp_path / "labeled.csv"
        with open(path, "w") as fh:
            fh.write(",".join(repr(float(x)) for x in grid.points) + "\n")
            for row in a.values:
                fh.write("ctrl," + ",".join(repr(float(v)) for v in row) + "\n")
            for row in b.values:
                fh.write("case," + ",".join(repr(float(v)) for v in row) + "\n")
        code, stdout, _ = run(
            capsys, "compare", "--in", str(path), "--label-column",
            "--labels", "ctrl,case", "--h", "0.2", "--grid-size", "20",
            "--paths", "2000", "--seed", "16")
        assert code == EXIT_OK

    def test_missing_second_sample(self, curves_csv, capsys):
        code, _, stderr = run(
            capsys, "compare", "--in", curves_csv, "--h", "0.15", "--seed", "17")
        assert code == EXIT_PARSE
        assert "in2" in stderr or "label" in stderr


class TestPredict:
    def test_with_heldout_coverage(self, curves_csv, curves_csv_b, tmp_path, capsys):
        out = str(tmp_path / "pred")
        code, stdout, _ = run(
            capsys, "predict", "--in", curves_csv, "--test", curves_csv_b,
            "--out", out, "--h", "0.15", "--grid-size", "30", "--paths", "2000",
            "--seed", "18")
        assert code == EXIT_OK
        assert "test_coverage=" in stdout
        payload = json.loads(open(out + ".json").read())
        assert 0.0 <= payload["test_coverage"] <= 1.0

    def test_split_bandwidth(self, curves_csv, capsys):
        code, stdout, _ = run(
            capsys, "predict", "--in", curves_csv, "--h", "split",
            "--h-candidates", "0.1,0.2", "--grid-size", "30", "--paths", "2000",
            "--seed", "19")
        assert code == EXIT_OK

    @pytest.mark.parametrize("flags, named", [(["--paths", "5"], "paths=5")])
    def test_split_bandwidth_names_bad_argument(self, curves_csv, curves_csv_b, capsys,
                                                flags, named):
        # the shared argument is named, not reported as an unusable bandwidth
        code, stdout, stderr = run(
            capsys, "predict", "--in", curves_csv, "--test", curves_csv_b, "--h", "split",
            "--seed", "0", *flags)
        assert code == EXIT_PARSE
        assert named in stderr and "candidate" not in stderr and stdout == ""


class TestSimulate:
    def test_row_csv(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--model", "1", "--n", "8", "--p", "20",
            "--h", "0.2", "--reps", "3", "--grid-size", "20", "--paths", "2000",
            "--seed", "20")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["model"] == "m1" and row["method"] == "normal-scb"
        assert 0.0 <= float(row["rate"]) <= 1.0

    def test_multiple_methods_json(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--model", "3", "--hypothesis", "h0", "--n", "10",
            "--p", "20", "--h", "0.2", "--reps", "2", "--grid-size", "20",
            "--paths", "2000", "--seed", "21", "--format", "json",
            "--method", "plrt-known,plrt-np")
        assert code == EXIT_OK
        rows = json.loads(stdout)
        assert [r["method"] for r in rows] == ["plrt-known", "plrt-np"]

    def test_unknown_method(self, capsys):
        code, _, stderr = run(
            capsys, "simulate", "--model", "1", "--n", "8", "--p", "20",
            "--h", "0.2", "--reps", "1", "--seed", "22", "--method", "magic")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("flag, value, named", [
        ("--reps", "-2", "reps=-2"), ("--paths", "5", "paths=5"), ("--h", "-0.1", "h=(-0.1,)"),
        ("--seed", "-1", "seed=-1"), ("--B", "0", "bootstraps=0"),
        ("--grid-size", "0", "grid_size=0"), ("--paths", _HUGE, f"paths={_HUGE}"),
        ("--B", _HUGE, f"bootstraps={_HUGE}")])
    def test_bad_spec_field(self, capsys, flag, value, named):
        argv = {"--model": "1", "--n": "8", "--p": "20", "--h": "0.2", "--reps": "1",
                "--seed": "22", flag: value}
        code, stdout, stderr = run(capsys, "simulate", *[t for kv in argv.items() for t in kv])
        assert code == EXIT_PARSE
        assert named in stderr and stdout == ""


def _refuse_search(*args, **kwargs):
    raise AssertionError("bandwidth search ran")


class TestLevelFlag:
    """--level and --alpha are checked when the flags are parsed, so a bad
    value exits 2 naming the flag and the value typed, before any search."""

    @pytest.mark.parametrize("command, flag, value", [
        ("scb", "--level", "1.5"), ("scb", "--level", "nan"), ("predict", "--level", "1.5"),
        ("predict", "--level", "abc"), ("gof", "--alpha", "1.5"), ("compare", "--alpha", "0"),
        ("simulate", "--level", "1.5"), ("simulate", "--level", "-0.1")])
    def test_out_of_range_names_flag(self, curves_csv, curves_csv_b, capsys, monkeypatch,
                                     command, flag, value):
        monkeypatch.setattr(cli, "cv_bandwidth", _refuse_search)
        monkeypatch.setattr(cli, "split_half_bandwidth", _refuse_search)
        args = {
            "scb": ["--in", curves_csv, "--h", "cv"],
            "predict": ["--in", curves_csv, "--test", curves_csv_b, "--h", "split"],
            "gof": ["--in", curves_csv, "--h", "cv"],
            "compare": ["--in", curves_csv, "--in2", curves_csv_b, "--h", "cv"],
            "simulate": ["--model", "1", "--n", "8", "--p", "20", "--h", "0.2", "--reps", "1"],
        }[command]
        code, stdout, stderr = run(capsys, command, *args, "--seed", "0", flag, value)
        assert code == EXIT_PARSE and stdout == ""
        assert f"argument {flag}: must lie in (0,1), got {value}" in stderr
        assert "gamma" not in stderr


class TestConfig:
    def test_config_overrides_flags(self, curves_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.2, "grid-size": 25, "paths": 2000}))
        out = str(tmp_path / "cband")
        code, _, _ = run(
            capsys, "scb", "--in", curves_csv, "--out", out, "--h", "0.05",
            "--seed", "23", "--config", str(cfg))
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert len(payload["center"]) == 25

    def test_config_values_convert_like_flags(self, curves_csv, tmp_path, capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"paths": "2000", "grid-size": "25",
                                   "h-candidates": "0.1,0.2"}))
        out = str(tmp_path / "typed")
        code, _, _ = run(
            capsys, "scb", "--in", curves_csv, "--out", out, "--seed", "23",
            "--config", str(cfg))
        assert code == EXIT_OK
        payload = json.loads(open(out + ".json").read())
        assert len(payload["center"]) == 25

    @pytest.mark.parametrize("key, value", [
        ("paths", "two"), ("grid-size", 2.5), ("h-candidates", "a,b"),
        ("method", "jackknife"), ("level", True), ("level", 1.5), ("level", "0")])
    def test_bad_config_value(self, curves_csv, tmp_path, capsys, key, value):
        cfg = tmp_path / "badvalue.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "24",
            "--config", str(cfg))
        assert code == EXIT_PARSE
        assert key in stderr

    def test_threads_flag_and_key_are_gone(self, curves_csv, tmp_path, capsys):
        cfg = tmp_path / "threads.json"
        cfg.write_text(json.dumps({"threads": 2}))
        for extra in (("--threads", "2"), ("--config", str(cfg))):
            code, _, stderr = run(
                capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "24", *extra)
            assert code == EXIT_PARSE
            assert "threads" in stderr

    @pytest.mark.parametrize("command", ["scb", "gof", "compare", "predict", "simulate"])
    def test_format_flag_and_key_only_on_simulate(self, curves_csv, tmp_path, capsys, command):
        cfg = tmp_path / "format.json"
        cfg.write_text(json.dumps({"format": "json"}))
        argv = ([command, "--in", curves_csv, "--h", "0.2"] if command != "simulate" else
                ["simulate", "--model", "1", "--n", "8", "--p", "20", "--h", "0.2",
                 "--reps", "1", "--grid-size", "20", "--paths", "2000"])
        for extra in (("--format", "json"), ("--config", str(cfg))):
            code, stdout, stderr = run(capsys, *argv, "--seed", "24", *extra)
            if command == "simulate":
                assert code == EXIT_OK
                assert json.loads(stdout)[0]["method"] == "normal-scb"
            else:
                assert code == EXIT_PARSE
                assert "format" in stderr

    @pytest.mark.parametrize("command, cfg, shown", [
        ("gof", {"alpha": 0.1}, "alpha=0.1"), ("compare", {"alpha": 0.1}, "alpha=0.1"),
        ("scb", {"level": 0.9}, "level=0.9"), ("scb", {"B": 60, "method": "bootstrap"},
                                               "scb[bootstrap]"),
        ("gof", {"also-plrt": True}, "plrt F=")])
    def test_keys_are_flag_names(self, curves_csv, curves_csv_b, tmp_path, capsys, command,
                                 cfg, shown):
        path = tmp_path / "flags.json"
        path.write_text(json.dumps(cfg))
        extra = ["--in2", curves_csv_b] if command == "compare" else []
        code, stdout, _ = run(capsys, command, "--in", curves_csv, *extra, "--h", "0.15",
                              "--grid-size", "20", "--paths", "200", "--seed", "3",
                              "--config", str(path))
        assert code == EXIT_OK and shown in stdout

    @pytest.mark.parametrize("command, key, value", [
        ("gof", "level", 0.1), ("scb", "bootstraps", 60), ("scb", "infile", "x.csv"),
        ("gof", "also-plrt", False), ("gof", "also_plrt", True)])
    def test_dest_names_and_false_switches_rejected(self, curves_csv, tmp_path, capsys,
                                                    command, key, value):
        path = tmp_path / "dests.json"
        path.write_text(json.dumps({key: value}))
        code, stdout, stderr = run(capsys, command, "--in", curves_csv, "--h", "0.15",
                                   "--seed", "3", "--config", str(path))
        assert code == EXIT_PARSE and stdout == ""
        assert key in stderr

    def test_unknown_config_key(self, curves_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bandwidth": 0.2}))
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "24",
            "--config", str(cfg))
        assert code == EXIT_PARSE
        assert "bandwidth" in stderr

    def test_malformed_config(self, curves_csv, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "25",
            "--config", str(cfg))
        assert code == EXIT_PARSE

    def test_abbreviated_key_rejected(self, curves_csv, tmp_path, capsys):
        # "grid" is a prefix of --grid-size; it must not be taken for it
        cfg = tmp_path / "prefix.json"
        cfg.write_text(json.dumps({"grid": 5}))
        code, stdout, stderr = run(
            capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "26",
            "--config", str(cfg))
        assert code == EXIT_PARSE and stdout == ""
        assert "--grid" in stderr


def test_abbreviated_flag_rejected(curves_csv, capsys):
    code, stdout, stderr = run(capsys, "scb", "--in", curves_csv, "--h", "0.2", "--seed", "26",
                               "--grid", "5")
    assert code == EXIT_PARSE and stdout == ""
    assert "--grid" in stderr


def test_parser_built_once(curves_csv, capsys):
    argv = ("scb", "--in", curves_csv, "--h", "0.2", "--grid-size", "10", "--paths", "200",
            "--seed", "27")
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first and first[0] == EXIT_OK
    assert cli._build_parser() is cli._build_parser()
