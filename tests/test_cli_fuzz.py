"""Random mixes of subcommands and flag values on tiny inputs (n, p, grid
<= 20, paths <= 500, B <= 50, reps <= 2; the one huge paths or B value is
rejected before anything is drawn): ``main`` returns an exit code in
{0, 2, 3, 4} and never raises, and a level or alpha outside (0,1) exits 2
naming its flag."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcband import write_curves_csv
from funcband.cli import main
from funcband.simlab import gen_model1


def _mostly(good, bad):
    """One of ``good``, or about one time in six one of ``bad``."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


def _ints(low, high, bad):
    return _mostly([str(v) for v in range(low, high + 1)], bad)


SEEDS = _ints(0, 40, ["-1", "-3"])
LEVELS = _mostly(["0.95", "0.9", "0.5"], ["1", "0", "1.5", "-0.1", "nan"])
ALPHAS = _mostly(["0.05", "0.1", "0.5"], ["1", "0", "1.5", "-0.1", "nan"])
H_VALUES = _mostly(["0.15", "0.3", "0.5", "cv", "split"],
                   ["0", "-0.1", "nan", "inf", "abc", "1e-6", "1e-300"])
H_CANDIDATES = _mostly(["0.1,0.2", "0.3", "0.2,0.4,0.6"], ["a,b", "-0.1,0.2", "0", "nan", ""])
HUGE = "1" + "0" * 23      # rejected before anything is drawn
PATHS = _ints(100, 500, ["5", "0", "-1", HUGE])
GRID_SIZES = _ints(1, 20, ["0", "-1"])
BOOTSTRAPS = _ints(1, 50, ["0", "-2", HUGE])
REPS = _ints(0, 2, ["-1", "-2"])
SIZES = _ints(2, 20, ["1", "0", "-1"])
BASES = _mostly(["poly:0", "poly:1", "poly:2"],
                ["poly:19", "poly:-1", "poly:x", "tab:{dir}/missing.csv", "spline:2"])
OUTS = _mostly(["{dir}/out"], ["{dir}/missing/out", "{dir}"])
CONFIGS = _mostly(['{"paths": 200}', '{"grid-size": 5}', "{}"],
                  ['{"threads": 2}', '{"grid-size": -3}', '{"h": "nan"}', '{"seed": -1}',
                   '{"level": "2"}', "[1, 2]", "{not json", "absent"])


@st.composite
def _cases(draw):
    """(argv, file contents) with '{dir}' standing for a scratch directory."""
    options = {}
    command = draw(st.sampled_from(["scb", "gof", "compare", "predict", "simulate"]))
    if command == "simulate":
        argv = ["simulate", "--model", draw(st.sampled_from(["1", "2", "3"])),
                "--hypothesis", draw(st.sampled_from(["h0", "hn"])),
                "--n", draw(SIZES), "--p", draw(SIZES),
                "--h", draw(_mostly(["0.1", "0.3"], ["0", "-0.1", "nan"])),
                "--reps", draw(REPS), "--level", draw(ALPHAS),
                "--method", draw(_mostly(
                    ["normal-scb", "bootstrap-scb", "gof-scb", "plrt-np,plrt-ar1",
                     "plrt-known"], ["normal-scb,bogus", ""]))]
        options = {"--B": BOOTSTRAPS}
    else:
        level_flag = "--alpha" if command in ("gof", "compare") else "--level"
        argv = [command, "--in", "{dir}/a.csv", "--h", draw(H_VALUES),
                level_flag, draw(ALPHAS if level_flag == "--alpha" else LEVELS)]
        options = {"--h-candidates": H_CANDIDATES,
                   "--kernel": st.sampled_from(["epanechnikov", "gauss"])}
        if command == "scb":
            argv += ["--method", draw(st.sampled_from(["normal", "bootstrap"]))]
            options["--B"] = BOOTSTRAPS
        elif command == "gof":
            argv += ["--basis", draw(BASES)]
            options["--also-plrt"] = st.just(None)
        elif command == "compare":
            argv += draw(_mostly([["--in2", "{dir}/b.csv"], ["--label-column"]],
                                 [["--in2", "{dir}/none.csv"], []]))
        else:
            options["--test"] = st.just("{dir}/b.csv")
    argv += ["--grid-size", draw(GRID_SIZES), "--seed", draw(SEEDS)]
    options.update({"--paths": PATHS, "--out": OUTS, "--config": CONFIGS})
    for flag, values in options.items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    files = {}
    if command != "simulate":
        p = draw(st.integers(2, 20))
        files = {name: gen_model1(draw(st.integers(1, 20)), p, seed_or_rng=seed)
                 for seed, name in enumerate(("a.csv", "b.csv"))}
    return argv, files


@settings(max_examples=300)
@given(case=_cases())
# a basis of 20 functions on 2 design points once crashed the gof test
@example(case=(["gof", "--in", "{dir}/a.csv", "--h", "0.5", "--alpha", "0.05",
                "--basis", "poly:19", "--grid-size", "5", "--seed", "0"],
               {"a.csv": gen_model1(3, 2, seed_or_rng=0)}))
def test_random_flag_mixes_exit_cleanly(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for name, sample in files.items():
            write_curves_csv(folder / name, sample)
        argv = [a.replace("{dir}", tmp) for a in argv]
        if "--config" in argv:
            i = argv.index("--config") + 1
            if argv[i] != "absent":
                (folder / "cfg.json").write_text(argv[i])
            argv[i] = str(folder / "cfg.json")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3, 4), argv
    # the level flag is the first one in argv whose value can fail to parse
    flag = "--alpha" if "--alpha" in argv else "--level"
    value = argv[argv.index(flag) + 1]
    if not 0.0 < float(value) < 1.0:
        assert code == 2, argv
        assert f"argument {flag}: must lie in (0,1), got {value}" in stderr.getvalue(), argv
