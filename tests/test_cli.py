import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxlab
from proxlab.cli import MAX_SNR_POINTS, _parse_snr, run_cli


def run(capsys, *argv):
    rc = run_cli(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_prox_erowl_point(capsys):
    rc, out, err = run(capsys, "prox", "--op", "erowl", "--x", "2,2", "--w", "0,2", "--delta", "1")
    assert rc == 0 and err == ""
    assert out.strip() == "1.5,1.5"


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


def test_envelope_point_values(capsys):
    rc, out, _ = run(capsys, "envelope", "--op", "rowl", "--x", "0,0", "--w", "0,2")
    assert rc == 0 and out.strip() == "0.0"
    rc, out, _ = run(capsys, "envelope", "--op", "rowl-raw", "--x", "3,-1", "--w", "0,2")
    assert rc == 0 and out.strip() == "2.0"
    rc, out, _ = run(capsys, "envelope", "--op", "l0", "--x", "1")
    assert rc == 0 and float(out) == pytest.approx(0.9142135623730951)
    rc, _, err = run(capsys, "envelope", "--op", "l0")
    assert rc == 1 and "--x or --grid" in err


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


def test_verify_suites_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert rc == 0
    summary = out.strip().splitlines()[-1]
    total = summary.split()[0]  # "38/38 checks passed"
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
        assert "--trials and --snr do not apply" in err
    assert not (tmp_path / "run").exists()


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


SWEEP_TRANSCRIPT = Path(__file__).with_name("cli_prox_sweep.txt")


def _sweep_transcript(capsys) -> str:
    lines = []
    for argv in _prox_sweep():
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == "", (argv, err)
        lines.append("$ proxlab " + " ".join(argv) + "\n" + out)
    return "".join(lines)


def test_prox_sweep_prints_the_pinned_bytes(capsys):
    # Pinned output: a changed line is a change to what the CLI prints.
    assert _sweep_transcript(capsys) == SWEEP_TRANSCRIPT.read_text()
