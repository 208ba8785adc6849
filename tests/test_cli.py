import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import proxlab
from proxlab.cli import _ENVELOPE, _PROX, MAX_GRID_CELLS, MAX_SNR_POINTS, _parse_snr, run_cli


def run(capsys, *argv):
    rc = run_cli(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_prox_erowl_point(capsys):
    rc, out, err = run(capsys, "prox", "--op", "erowl", "--x", "2,2", "--w", "0,2", "--delta", "1")
    assert rc == 0 and err == ""
    assert out.strip() == "1.5,1.5"
    # A delta this large still has a finite closed form; 1e308 overflows it and is refused.
    rc, out, err = run(capsys, "prox", "--op", "erowl", "--x", "1,1", "--w", "0,2", "--delta", "1e200")
    assert rc == 0 and out.strip() == "1.0,1.0"
    rc, out, err = run(capsys, "prox", "--op", "erowl", "--x", "1,1", "--w", "0,2", "--delta", "1e308")
    assert rc == 1 and out == "" and "delta 1e+308 overflows the closed form" in err


def test_prox_rowl_tie_prints_both_minimizers(capsys):
    rc, out, _ = run(capsys, "prox", "--op", "rowl", "--x", "2,2", "--w", "0,2")
    assert rc == 0
    assert out.splitlines() == ["2.0,0.0", "0.0,2.0"]


def test_prox_rowl_envelope_tie_prints_segment(capsys):
    rc, out, _ = run(capsys, "prox", "--op", "rowl-env", "--x", "2,2", "--w", "0,2")
    assert rc == 0
    assert out.strip() == "segment 2.0,0.0 0.0,2.0"


def test_prox_scalar_ops(capsys):
    rc, out, _ = run(capsys, "prox", "--op", "l0", "--x", "3", "--gamma", "1")
    assert rc == 0 and out.strip() == "3.0"
    rc, out, _ = run(capsys, "prox", "--op", "firm", "--x", "1.5",
                     "--lambda1", "1", "--lambda2", "2")
    assert rc == 0 and out.strip() == "1.0"
    rc, out, _ = run(capsys, "prox", "--op", "soft", "--x", "1.5", "--threshold", "1")
    assert rc == 0 and out.strip() == "0.5"


def test_prox_firm_refuses_thresholds_whose_ramp_overflows(capsys):
    # 3 lies on the ramp, whose true value there is 3; the overflowed product printed inf.
    rc, out, err = run(capsys, "prox", "--op", "firm", "--x", "3", "--lambda1", "5e-324", "--lambda2", "1e308")
    assert (rc, out) == (1, "") and "overflow the ramp" in err


def test_usage_errors_exit_one(capsys):
    rc, _, err = run(capsys, "prox", "--op", "nope", "--x", "1")
    assert rc == 1 and "error" in err
    rc, _, err = run(capsys, "prox", "--op", "erowl", "--x", "2,2", "--w", "0,2")
    assert rc == 1 and "--delta" in err
    rc, _, err = run(capsys, "prox", "--op", "rowl", "--x", "banana", "--w", "0,2")
    assert rc == 1
    rc, _, err = run(capsys, "prox", "--op", "rowl", "--x", "1,1", "--w", "2,1")
    assert rc == 1  # decreasing weights rejected as a value error
    rc, _, err = run(capsys, "experiment", "b", "--trials", "1", "--threads", "2")
    assert rc == 1 and "--threads" in err  # the option is gone


@pytest.mark.parametrize("argv, message", [
    (["prox", "--op", "rowl", "--x", "1,2,3", "--w", "0,2"], "--x needs 2 comma-separated numbers, got '1,2,3'"),
    (["experiment", "b", "--trials", "1", "--snr", "10:20"], "SNR sweep must be lo:step:hi, got '10:20'"),
    (["experiment", "b", "--trials", "1", "--snr", "a:5:20"], "could not parse SNR sweep 'a:5:20'"),
    (["experiment", "b", "--trials", "1", "--snr", "ten"], "could not parse SNR list 'ten'"),
], ids=["x-count", "sweep-parts", "sweep-number", "list-number"])
def test_malformed_numbers_are_usage_errors(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert message in err and "Traceback" not in err


# What each op and scenario takes, written out here rather than read from the CLI.
_TAKES = {
    "prox": {
        "l0": ["--gamma"], "l0-env": [], "hard": ["--threshold"], "soft": ["--threshold"],
        "firm": ["--lambda1", "--lambda2"], "rowl": ["--w"], "rowl-env": ["--w"], "erowl": ["--w", "--delta"],
    },
    "envelope": {"l0": ["--out"], "rowl": ["--w", "--out"], "rowl-raw": ["--w", "--out"]},
    "experiment": {
        "a": ["--w", "--delta", "--gamma-delta", "--out"],
        **dict.fromkeys("bc", ["--seed", "--trials", "--snr", "--w", "--delta", "--gamma-delta", "--gamma-mu",
                               "--out"]),
    },
}
_PROX_BASE = {
    "l0": ["--x", "1.5"], "l0-env": ["--x", "1.5"], "hard": ["--x", "1.5", "--threshold", "1"],
    "soft": ["--x", "1.5", "--threshold", "1"], "firm": ["--x", "1.5", "--lambda1", "1", "--lambda2", "2"],
    "rowl": ["--x", "2,2", "--w", "0,2"], "rowl-env": ["--x", "2,2", "--w", "0,2"],
    "erowl": ["--x", "2,2", "--w", "0,2", "--delta", "1"],
}
_PROX_VALUES = {"--w": "0,2", "--delta": "1", "--gamma": "4", "--threshold": "1", "--lambda1": "1", "--lambda2": "2"}
# Each of these printed what the op prints without the option.
_PROX_IGNORED = [(op, opt) for op, takes in _TAKES["prox"].items() for opt in _PROX_VALUES if opt not in takes]


def test_the_ignored_prox_options_are_thirty_nine():
    assert len(_PROX_IGNORED) == 39


@pytest.mark.parametrize("op, option", _PROX_IGNORED)
def test_prox_rejects_an_option_its_op_does_not_take(capsys, op, option):
    rc, _, _ = run(capsys, "prox", "--op", op, *_PROX_BASE[op])
    assert rc == 0
    rc, out, err = run(capsys, "prox", "--op", op, *_PROX_BASE[op], option, _PROX_VALUES[option])
    assert rc == 1 and out == ""
    assert f"prox --op {op} does not take {option}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(_TAKES))
def test_help_lists_what_each_op_takes(capsys, command):
    with pytest.raises(SystemExit):
        run_cli([command, "--help"])
    text = capsys.readouterr().out
    for key, takes in _TAKES[command].items():
        (line,) = [ln for ln in text.splitlines() if ln.split()[:1] == [key] and ln.startswith("  ")]
        assert set(re.findall(r"--[a-z0-9-]+", line)) - {"--x", "--grid"} == set(takes), line
    if command == "prox":
        assert "[--gamma=1.0]" in text  # the step l0 takes when --gamma is absent


def test_envelope_point_values(capsys):
    rc, out, _ = run(capsys, "envelope", "--op", "rowl", "--x", "0,0", "--w", "0,2")
    assert rc == 0 and out.strip() == "0.0"
    rc, out, _ = run(capsys, "envelope", "--op", "rowl-raw", "--x", "3,-1", "--w", "0,2")
    assert rc == 0 and out.strip() == "2.0"
    rc, out, _ = run(capsys, "envelope", "--op", "l0", "--x", "1")
    assert rc == 0 and float(out) == pytest.approx(0.9142135623730951)
    rc, _, err = run(capsys, "envelope", "--op", "l0")
    assert rc == 1 and "--x or --grid" in err


@pytest.mark.parametrize("argv, value", [
    # The bilinear regime is selected; the quadratic correction, also evaluated, overflows.
    (("rowl", "--x", "0,0", "--w", "0,1e308"), "0.0"),
    (("rowl", "--x", "1e308,-1e308", "--w", "0,1"), "1e+308"),
    # The true value is past the float range, so inf is the honest answer.
    (("rowl-raw", "--x", "1,1", "--w", "1e308,1e308"), "inf"),
    # The selected quadratic regime overflows to inf - inf; the envelope is rescaled.
    (("rowl", "--x", "1e308,1e308", "--w", "0,1e308"), "inf"),
    # The tail regime is selected; the quadratic one, also evaluated, is inf - inf.
    (("rowl", "--x", "1e308,0", "--w", "10,20"), "inf"),
    # The constant is selected; the quadratic, also evaluated, overflows.
    (("l0", "--x", "1e200"), "1.0"),
], ids=["rowl-bowl", "rowl-bowl-sum", "rowl-raw", "rowl-middle-nan", "rowl-tail-inf", "l0-quadratic"])
def test_envelope_point_value_leaks_no_overflow_warning(capsys, argv, value):
    # pytest's filterwarnings = error turns a leaked RuntimeWarning into a failure.
    rc, out, err = run(capsys, "envelope", "--op", *argv)
    assert (rc, out.strip(), err) == (0, value, "")


EDGES = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-300", "-1", "1", "3", "1e308"]


@st.composite
def declared_calls(draw):
    """A ``prox`` or ``envelope --x`` call: an op, every option it requires, some it
    may take, and each number drawn from ``EDGES``."""
    command, table = draw(st.sampled_from([("prox", _PROX), ("envelope", _ENVELOPE)]))
    op = draw(st.sampled_from(sorted(table)))
    spec = table[op]

    def numbers(n):
        return ",".join(draw(st.lists(st.sampled_from(EDGES), min_size=n, max_size=n)))

    argv = [command, "--op", op, "--x=" + numbers(spec.dims)]
    for name, default in spec.options.items():
        if name != "out" and (default is ... or draw(st.booleans())):
            argv.append(f"--{name}=" + numbers(2 if name == "w" else 1))
    return argv


def _exact_rowl(op: str, x: str, w: str) -> Fraction:
    """``rowl_penalty`` (``rowl-raw``) or ``rowl_envelope_2d`` in exact arithmetic."""
    s1, s2 = sorted((abs(Fraction(v)) for v in x.split(",")), reverse=True)
    w1, w2 = (Fraction(v) for v in w.split(","))
    base = w1 * s1 + w2 * s2
    if op == "rowl-raw" or s1 >= s2 + (w2 - w1):
        return base
    if s1 + s2 >= w2 - w1:
        return base - ((s1 + w1) - (s2 + w2)) ** 2 / 4
    return w1 * (s1 + s2) + s1 * s2


def _past_the_float_range(value: Fraction) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


@given(declared_calls())
@settings(max_examples=300, deadline=None)
@example(["prox", "--op", "l0", "--x=1e308", "--gamma=1e308"])  # printed 0.0: 2 * gamma overflowed
@example(["envelope", "--op", "l0", "--x=1e200"])  # leaked an overflow warning
@example(["envelope", "--op", "rowl", "--x=1e308,1e308", "--w=3,1e308"])  # honestly inf
@example(["prox", "--op", "firm", "--x=3", "--lambda1=5e-324", "--lambda2=1e308"])
@example(["envelope", "--op", "rowl", "--x=0,0", "--w=0,1e308"])
@example(["envelope", "--op", "rowl-raw", "--x=1,1", "--w=1e308,1e308"])
def test_every_declared_call_exits_cleanly_with_finite_numbers(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a leaked warning escapes run_cli as an exception
        rc = run_cli(argv)
    assert rc in (0, 1), (argv, rc)
    if rc == 1:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        return
    numbers = [float(t) for t in re.split(r"[\s,]+", out.getvalue()) if t not in ("", "segment", "interval")]
    assert numbers and err.getvalue() == "", (argv, out.getvalue(), err.getvalue())
    if all(map(math.isfinite, numbers)):
        return
    options = dict(a[2:].split("=", 1) for a in argv[3:])
    assert argv[0] == "envelope" and argv[2] in ("rowl", "rowl-raw"), (argv, out.getvalue())
    assert _past_the_float_range(_exact_rowl(argv[2], options["x"], options["w"])), (argv, out.getvalue())


def test_envelope_grid_exports(tmp_path, capsys):
    # leading-dash values go through the --opt=value form
    rc, out, _ = run(capsys, "envelope", "--op", "l0", "--grid=-1,0.5,1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 1 + 5

    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        rc, _, _ = run(capsys, "envelope", "--op", "rowl", "--w", "0,2",
                       "--grid=-1,1,1", "--out", str(f))
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "axis0,axis1,value"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("op, value", [("rowl", "1.0"), ("rowl-raw", "2.0")])
def test_envelope_grid_exports_the_function_its_op_names(op, value, capsys):
    # At (-1, -1) with w = (0, 2) the penalty reads 2 and its envelope 1.
    rc, out, _ = run(capsys, "envelope", "--op", op, "--w", "0,2", "--grid=-1,1,1")
    assert rc == 0
    assert out.splitlines()[1] == f"-1.0,-1.0,{value}"
    rc, point, _ = run(capsys, "envelope", "--op", op, "--w", "0,2", "--x=-1,-1")
    assert rc == 0 and point == value + "\n"


def test_envelope_point_value_goes_to_out(tmp_path, capsys):
    f = tmp_path / "o.csv"
    rc, out, _ = run(capsys, "envelope", "--op", "l0", "--x", "1", "--out", str(f))
    assert rc == 0 and out == ""
    assert f.read_bytes() == b"0.9142135623730951\n"


@pytest.mark.parametrize("argv", [
    ["--op", "l0", "--w", "0,2", "--x", "1"],  # l0 has no weights
    ["--op", "l0", "--x", "1", "--grid=-1,1,1"],
    ["--op", "rowl", "--w", "0,2", "--x", "1,1", "--grid=-1,1,1"],
])
def test_envelope_rejects_what_its_op_does_not_take(tmp_path, capsys, argv):
    out_file = tmp_path / "o.csv"
    rc, out, err = run(capsys, "envelope", *argv, "--out", str(out_file))
    assert rc == 1 and out == "" and "Traceback" not in err
    assert ("--w" if "--grid=-1,1,1" not in argv else "--x or --grid") in err
    assert not out_file.exists()


_PROX_OPTIONS = {"hard": ["--threshold", "1"], "soft": ["--threshold", "1"],
                 "firm": ["--lambda1", "1", "--lambda2", "2"], "l0": [],
                 "rowl": ["--w", "0,2"], "erowl": ["--w", "0,2", "--delta", "1"]}


@pytest.mark.parametrize("argv", [
    ["envelope", "--op", "l0", "--x", "nan"],
    ["envelope", "--op", "l0", "--x=-inf"],
    ["envelope", "--op", "rowl", "--w", "0,2", "--x", "nan,1"],
    ["envelope", "--op", "rowl-raw", "--w", "0,2", "--x", "inf,1"],
] + [
    pytest.param(["prox", "--op", op, *options, f"--x={x}" + (",1" if op in ("rowl", "erowl") else "")],
                 id=f"prox-{op}-{x}")
    for op, options in _PROX_OPTIONS.items() for x in ("nan", "-inf")
])
def test_envelope_rejects_a_non_finite_point(capsys, argv):
    # envelope's l0 read NaN as 1.0 and its rowl printed nan, each with exit 0, and so did
    # prox's hard, soft and firm; prox and envelope now check --x in one place.
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == "" and "--x must be finite" in err and "Traceback" not in err


def test_envelope_grid_too_fine_to_count_is_refused(tmp_path, capsys):
    # (hi - lo) / step overflows to inf, so the grid has no count to check.
    out_file = tmp_path / "grid.csv"
    rc, out, err = run(capsys, "envelope", "--op", "l0", "--grid=0,1e-300,1e10", "--out", str(out_file))
    assert rc == 1 and out == ""
    assert "must be finite and integral, got inf" in err and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["--op", "l0", f"--grid=0,1,{MAX_GRID_CELLS}"],  # one point over the cap on the line
    ["--op", "l0", "--grid=-1000,0.0001,1000"],
    ["--op", "rowl", "--w", "0,1", "--grid=0,1,1001"],  # 1002 x 1002; the cap is 1001 x 1001
    ["--op", "rowl-raw", "--w", "0,1", "--grid=-1000,0.001,1000"],  # 2,000,001 squared
], ids=["line-cap+1", "line", "square-cap+1", "square"])
def test_envelope_grid_over_the_cap_is_refused_before_it_is_built(tmp_path, capsys, argv):
    out_file = tmp_path / "grid.csv"
    rc, out, err = run(capsys, "envelope", *argv, "--out", str(out_file))
    assert rc == 1 and out == ""
    assert f"more than {MAX_GRID_CELLS}" in err and "Traceback" not in err
    assert not out_file.exists()


def test_verify_suites_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert rc == 0
    summary = out.strip().splitlines()[-1]
    total = summary.split()[0]  # "35/35 checks passed"
    passed, checks = total.split("/")
    assert passed == checks

    rc, out, _ = run(capsys, "verify", "--suite", "rowl")
    assert rc == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines()[:-1])


def test_experiment_a_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc, out, _ = run(capsys, "experiment", "a", "--out", str(out_dir))
    assert rc == 0
    assert "wrote outputs" in out
    for name in ("trajectory_rowl.csv", "trajectory_erowl.csv", "summary.csv", "meta.json"):
        assert (out_dir / name).exists()


def test_experiment_a_rejects_trials_and_snr(tmp_path, capsys):
    # Scenario A is one noiseless trial; the options must not be dropped silently.
    for extra in (["--trials", "7"], ["--snr", "10"], ["--trials", "7", "--snr", "10"]):
        rc, out, err = run(capsys, "experiment", "a", *extra, "--out", str(tmp_path / "run"))
        assert rc == 1 and out == ""
        assert "experiment a does not take " + ", ".join(extra[::2]) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra", [["--seed", "999"], ["--gamma-mu", "0.1"]])
def test_experiment_a_rejects_seed_and_gamma_mu(tmp_path, capsys, extra):
    # Scenario A runs noiseless on the fixed design at step 2: no seed or step mix changes a byte.
    rc, out, err = run(capsys, "experiment", "a", *extra, "--out", str(tmp_path / "run"))
    assert rc == 1 and out == ""
    assert f"experiment a does not take {extra[0]}" in err
    assert not (tmp_path / "run").exists()


def test_experiment_seed_defaults_to_12345(tmp_path, capsys):
    for name, extra in (("default", []), ("given", ["--seed", "12345"])):
        rc, _, _ = run(capsys, "experiment", "b", "--trials", "2", "--snr", "20", *extra,
                       "--out", str(tmp_path / name))
        assert rc == 0
    assert json.loads((tmp_path / "default" / "meta.json").read_text())["config"]["seed"] == 12345
    assert (tmp_path / "default" / "records.csv").read_bytes() == (tmp_path / "given" / "records.csv").read_bytes()


def test_experiment_b_reruns_are_byte_identical(tmp_path, capsys, request):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    rc, _, _ = run(capsys, "experiment", "b", "--trials", "3", "--snr", "20", "--out", str(d1))
    assert rc == 0
    # the rerun takes its trials last to first
    ran = request.getfixturevalue("reversed_trials")
    rc, _, _ = run(capsys, "experiment", "b", "--trials", "3", "--snr", "20", "--out", str(d2))
    assert rc == 0 and ran == [2, 1, 0]
    for name in ("records.csv", "means.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_experiment_snr_sweep_parsing(tmp_path, capsys):
    rc, out, _ = run(capsys, "experiment", "b", "--trials", "1", "--snr", "10:5:20")
    assert rc == 0
    flat = out.replace(" ", "")
    assert flat.count("snr=10.0") == 3  # one mean line per method
    assert flat.count("snr=15.0") == 3
    assert flat.count("snr=20.0") == 3
    rc, _, err = run(capsys, "experiment", "b", "--trials", "1", "--snr", "20:5:10")
    assert rc == 1


@pytest.mark.parametrize("snr, message", [
    ("-inf", "got -inf"),
    ("nan", "got nan"),
    ("0:1:inf", "must be finite, got '0:1:inf'"),
])
def test_experiment_rejects_an_snr_without_meaning(capsys, snr, message):
    # -inf is not "noiseless" (+inf is), NaN has no noise scale, and a sweep needs finite ends.
    rc, out, err = run(capsys, "experiment", "b", "--trials", "2", f"--snr={snr}")
    assert rc == 1 and out == ""
    assert message in err and "Traceback" not in err


def test_experiment_names_a_nan_gamma_delta(capsys):
    # The error names the option that was set, not the delta derived from it.
    rc, out, err = run(capsys, "experiment", "b", "--trials", "1", "--gamma-delta=nan")
    assert rc == 1 and out == ""
    assert "gamma_delta must be finite and exceed 1, got nan" in err and "Traceback" not in err


@pytest.mark.parametrize("snr", ["0:5e-324:1", "0:1e-9:40", "-1e308:1:1e308", f"0:1:{MAX_SNR_POINTS}"])
def test_experiment_rejects_an_snr_sweep_too_long_to_build(capsys, snr):
    # Each sweep is refused from its lo, step and hi alone, before a value is built.
    rc, out, err = run(capsys, "experiment", "b", "--trials", "2", f"--snr={snr}")
    assert rc == 1 and out == ""
    assert f"more than {MAX_SNR_POINTS} values" in err and "Traceback" not in err
    assert len(_parse_snr(f"0:1:{MAX_SNR_POINTS - 1}")) == MAX_SNR_POINTS


@pytest.mark.parametrize("snr", ["20,20", "20,10,20.0", "0,-0", "1e16:1:10000000000000002"])
def test_experiment_rejects_a_repeated_snr(capsys, snr):
    # 1e16 + 1 rounds to 1e16, so that sweep repeats its first value.
    rc, out, err = run(capsys, "experiment", "b", "--trials", "2", f"--snr={snr}")
    assert rc == 1 and out == ""
    assert "snr_list_db repeats" in err and "Traceback" not in err


def _console_script_target() -> str:
    """The ``module:func`` target of ``proxlab`` in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["proxlab"]


def test_console_entry_point_runs():
    # Run the declared target the way pip's generated wrapper does (import the
    # module, call the function with no arguments, exit with its result), so
    # the check does not depend on the wrapper being installed on PATH.
    module, func = _console_script_target().split(":")
    argv = ["proxlab", "prox", "--op", "erowl", "--x", "2,2", "--w", "0,2", "--delta", "1"]
    code = (
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.argv = {argv!r}\n"
        f"sys.exit({func}())\n"
    )
    src = str(Path(proxlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.5,1.5", proc.stderr



def test_python_dash_m_proxlab_runs_the_cli():
    src = str(Path(proxlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "proxlab", "prox", "--op", "l0", "--x", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3.0\n", proc.stderr


SQRT2_TEXT = repr(2.0 ** 0.5)
_SCALAR_XS = ["1", SQRT2_TEXT, "-" + SQRT2_TEXT, "2", "0", "-0.0"]
_PLANAR_XS = ["2,2", "0.5,0.5", "1.1,1.1", "2,-2", "-1.5,1.5", "-0.7,-0.7", "0,-0.0",
              "-0.0,-0.0", "-0.0,0", "0,0", "3,1", "-1,2.5", "0.2,-0.1"]
_WEIGHTS = ["0,2", "0.3,1.1", "1,1", "0,0"]


def _prox_sweep() -> list[list[str]]:
    """``proxlab prox`` argument lists: the scalar and planar set-valued ops
    at thresholds, ties, anti-ties and signed zeros, then the README examples."""
    cases = [["--op", op, f"--x={x}"] for op in ("l0", "l0-env") for x in _SCALAR_XS]
    cases += [["--op", "l0", f"--x={x}", "--gamma", "2"] for x in ("2", "-2", "1.9")]
    for w in _WEIGHTS:
        for x in _PLANAR_XS:
            cases += [["--op", op, f"--x={x}", "--w", w] for op in ("rowl", "rowl-env")]
            cases.append(["--op", "erowl", f"--x={x}", "--w", w, "--delta", "0.5"])
    cases += [
        ["--op", "erowl", "--w", "0,2", "--delta", "1", "--x", "2,2"],
        ["--op", "rowl", "--w", "0,2", "--x", "2,2"],
        ["--op", "rowl-env", "--w", "0,2", "--x", "2,2"],
        ["--op", "firm", "--lambda1", "1", "--lambda2", "2", "--x", "1.5"],
    ]
    return [["prox", *case] for case in cases] + [["envelope", "--op", "rowl", "--w", "0,2", "--x", "1,1"]]


def _envelope_sweep() -> list[list[str]]:
    """``proxlab envelope`` argument lists: each op at the prox sweep's points and
    weights, grid exports on the line (``l0``) and the square (``rowl``,
    ``rowl-raw``), and a grid and a point written with ``--out``."""
    cases = [["--op", "l0", f"--x={x}"] for x in _SCALAR_XS]
    for w in _WEIGHTS:
        cases += [["--op", op, f"--x={x}", "--w", w] for x in _PLANAR_XS for op in ("rowl", "rowl-raw")]
    cases += [["--op", "l0", f"--grid={g}"] for g in ("-2,0.5,2", "-1.5,0.25,1.5")]
    cases += [["--op", op, "--w", w, f"--grid={g}"]
              for op in ("rowl", "rowl-raw") for w in ("0,2", "0.3,1.1") for g in ("-1,1,1", "-2,0.5,2")]
    cases += [
        ["--op", "rowl", "--w", "0,2", "--grid=-1,0.5,1", "--out", "grid.csv"],
        ["--op", "l0", "--x", "1", "--out", "point.txt"],
    ]
    return [["envelope", *case] for case in cases]


SWEEP_TRANSCRIPT = Path(__file__).with_name("cli_prox_sweep.txt")
ENVELOPE_TRANSCRIPT = Path(__file__).with_name("cli_envelope_sweep.txt")


def _sweep_transcript(capsys, sweep) -> str:
    """Each command and what it prints; a file written through ``--out`` follows
    as ``== FILE`` and its text."""
    lines = []
    for argv in sweep:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "", (argv, err)
        lines.append("$ proxlab " + " ".join(argv) + "\n" + out)
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            lines.append(f"== {name}\n" + Path(name).read_text())
    return "".join(lines)


def test_prox_sweep_prints_the_pinned_bytes(capsys):
    # Pinned output: a changed line is a change to what the CLI prints.
    assert _sweep_transcript(capsys, _prox_sweep()) == SWEEP_TRANSCRIPT.read_text()


def test_envelope_sweep_prints_the_pinned_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the --out files land here
    assert _sweep_transcript(capsys, _envelope_sweep()) == ENVELOPE_TRANSCRIPT.read_text()
