"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Every workload runs at a tiny size and reports every metric that
``BENCHMARK.json`` declares, and each output check rejects a corrupted output.
"""
from __future__ import annotations

import collections
import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.use_checkout_source()
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from proxlab.core import Point2, ProxSet  # noqa: E402
from proxlab.experiments import ScenarioConfig  # noqa: E402
from proxlab.transform import InclusionReport  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Per-layer metrics each workload must drive above zero.
EXERCISED = {
    "mc_c": ("solver.", "rng.", "experiments."),
    "mc_b": ("solver.", "rng.", "experiments."),
    "oracle": ("transform.",),
}
#: Per-layer metrics that may read zero on a workload that exercises their layer.
MAY_BE_ZERO = ("solver.endings.cycled", "solver.endings.max_iter", "solver.endings.diverged",
               "solver.cycled_iteration_share", "transform.worst.")
EVERY_WORKLOAD = ("rowl.", "erowl.", "scalar_ops.", "cli.", "import.", "tracing.pass_s")


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace, tmp_path):
    result = run.run(workload, seed=3, seconds=0.2, trace=trace, size="tiny", out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        name = m["name"]
        got = result["metrics"][name]
        assert got["unit"] == m["unit"], name
        value = got["value"]
        assert isinstance(value, float) and math.isfinite(value), name
        if not trace:
            assert value > 0, name
        elif name == "tracing.overhead_s":
            continue
        elif name.startswith(EVERY_WORKLOAD + EXERCISED[workload]) and not name.startswith(MAY_BE_ZERO):
            firm_only = name.endswith(".firm") and workload == "mc_b"
            assert value == 0 if firm_only else value > 0, name
        elif name.startswith(EVERY_WORKLOAD + EXERCISED[workload]):
            assert value >= 0, name
        else:
            assert value == 0, f"{name} is not a layer of {workload}"
    assert (tmp_path / workload / "result.json").is_file()


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc_b", "--seed", "5",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_command_fails_without_the_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "mc_b", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture()
def mc_c_pass(tmp_path):
    wl = workloads.make("mc_c", 0, "tiny")
    pass_dir = tmp_path / "pass"
    wl.run_pass(pass_dir, [])
    assert wl.check(pass_dir) == set()
    return wl, pass_dir


def _fresh_checker(wl):
    return checks.McChecker(wl.cfg, wl.ops)


@pytest.mark.parametrize("method", ["LS", "ROWL", "eROWL", "firm"])
@pytest.mark.parametrize("shift", [1e-6, 1e-8])
def test_perturbed_xhat_is_rejected(mc_c_pass, method, shift):
    wl, pass_dir = mc_c_pass
    checker = _fresh_checker(wl)
    rows = [row for row, _ in checks.parse_records((pass_dir / "records.csv").read_text())
            if row.method == method and (row.converged or method == "LS")]
    assert rows
    for row in rows:
        assert checker.row_ok(row)
        x_hat = (row.x_hat[0] + shift, row.x_hat[1])
        moved = dataclasses.replace(row, x_hat=x_hat, mismatch_db=checks.mismatch_db(x_hat, row.x_true))
        assert not checker.row_ok(moved), row


def test_perturbed_records_file_fails_its_task(mc_c_pass, tmp_path):
    wl, pass_dir = mc_c_pass
    bad_dir = tmp_path / "bad"
    shutil.copytree(pass_dir, bad_dir)
    lines = (bad_dir / "records.csv").read_text().splitlines()
    row, _ = checks.parse_records("\n".join(lines[:1] + lines[5:6]))[0]
    fields = lines[5].split(",")
    fields[6] = format(float(fields[6]) + 1e-6, ".17g")
    lines[5] = ",".join(fields)
    (bad_dir / "records.csv").write_text("\n".join(lines) + "\n")
    assert row.op in wl.check(bad_dir)
    assert row.op in _fresh_checker(wl).check(bad_dir)


def test_wrong_means_row_fails_its_cell(mc_c_pass, tmp_path):
    wl, pass_dir = mc_c_pass
    bad_dir = tmp_path / "bad"
    shutil.copytree(pass_dir, bad_dir)
    lines = (bad_dir / "means.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = format(float(fields[4]) + 1e-3, ".17g")
    lines[3] = ",".join(fields)
    (bad_dir / "means.csv").write_text("\n".join(lines) + "\n")
    cell = (float(fields[2]), float(fields[3]))
    failed = _fresh_checker(wl).check(bad_dir)
    assert failed == {op for op in wl.ops if op[1:] == cell}


def test_cycling_rowl_solve_is_counted_not_failed(tmp_path):
    wl = workloads.make("mc_c", 0, "tiny")
    wl.cfg = ScenarioConfig.scenario_c_defaults(trials=21, snr_list_db=(20.0,), x1_sweep=(1.0,))
    wl.ops = [(t, 20.0, 1.0) for t in range(21)]
    wl.checker = _fresh_checker(wl)
    acc = collections.defaultdict(float)
    handler = signal.getsignal(signal.SIGALRM)
    stamps = [0.0]
    with layers.instrument(acc):
        wl.run_pass(tmp_path / "pass", stamps)
    assert wl.check(tmp_path / "pass") == set()
    assert wl.checker.non_converged_rowl == wl.checker.cycles == 1
    assert acc["solver.endings.cycled"] == 1
    assert acc["solver.iterations.ROWL"] == acc["solver.iterations_reported.ROWL"]
    # The cycling solve runs to max_iter, so it is timed by its sampled rate,
    # and the sampler leaves no timer or handler behind.
    [(segment, (iterations, rate))] = wl.long_solves.items()
    assert iterations == wl.cfg.max_iter
    assert 0 < iterations * rate <= stamps[segment + 1] - stamps[segment]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_fastest_rate_leaves_out_the_sampler_and_short_intervals():
    # (clock on entry, iterations done, clock on exit) of four samples.
    # Entry to entry, the first interval would read 1.5 s per 1000 iterations;
    # the 100-iteration interval is too short to count.
    samples = [(0.0, 0, 0.5), (1.5, 1000, 2.0), (2.05, 1100, 2.3), (4.3, 2100, 5.0)]
    assert workloads.fastest_rate(samples) == pytest.approx(1.0 / 1000)
    assert math.isnan(workloads.fastest_rate(samples[:1]))


def test_setup_time_sums_fastest_module_imports_and_rest():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       300 |        300 |   numpy.core\n"
              "import time:       200 |        500 | numpy\n")
    assert run.import_self_seconds(stderr) == pytest.approx({"numpy.core": 300e-6, "numpy": 200e-6})
    probes = [(1.0, {"a": 0.5, "b": 0.2, "once": 0.1}), (0.9, {"a": 0.3, "b": 0.4})]
    # rest: 1.0 - 0.7 = 0.3 and 0.9 - 0.7 = 0.2; "once" is rest in the first probe.
    assert run.fastest_setup(probes) == pytest.approx(0.2 + 0.3 + 0.2)


def test_pass_time_sums_fastest_segments_and_long_solve_rates():
    passes = [(np.array([1.0, 5.0, 2.0]), {1: (1000, 0.004)}),
              (np.array([2.0, 4.5, 1.0]), {1: (1000, 0.003)}),
              (np.array([3.0, 6.0, 3.0]), {1: (1000, float("nan"))})]
    assert run.fastest(passes) == pytest.approx(1.0 + 1000 * 0.003 + 1.0)
    assert run.fastest([(np.array([1.0, 2.0]), {}), (np.array([3.0, 0.5]), {})]) == 1.5


@pytest.fixture(scope="module")
def oracle_pass():
    wl = workloads.make("oracle", 0, "tiny")
    outputs = wl.run_pass(Path("unused"), [])
    assert wl.check(outputs) == set()
    return wl, outputs


def _first(wl, outputs, kind, accept=lambda out: True):
    return next((op, out) for op, out in zip(wl.ops, outputs) if op[0] == kind and accept(out))


@pytest.mark.parametrize("kind, step", [("planar", workloads.PLANAR_BOX.max_step),
                                        ("line", workloads.LINE_BOX.max_step)])
def test_inclusion_point_moved_three_steps_is_rejected(oracle_pass, kind, step):
    wl, outputs = oracle_pass
    op, report = _first(wl, outputs, kind, lambda r: r.prox_envelope.kind == "single")
    assert wl.query_ok(op, report)
    (p,) = checks.prox_points(report.prox_penalty)
    if kind == "planar":
        moved = ProxSet.single(Point2(p.x1 + 3 * step, p.x2))
    else:
        moved = type(report.prox_penalty).single(p + 3 * step)
    assert not wl.query_ok(op, InclusionReport(moved, report.prox_envelope, 0.0, True))


def test_rdelta_point_moved_three_steps_is_rejected(oracle_pass):
    wl, outputs = oracle_pass
    op, (oracle, y) = _first(wl, outputs, "rdelta")
    assert wl.query_ok(op, (oracle, y))
    assert not wl.query_ok(op, (oracle, y + np.array([3 * workloads.FINE_STEP, 0.0])))


def test_envelope_and_conversion_errors_are_rejected(oracle_pass):
    wl, outputs = oracle_pass
    op, env = _first(wl, outputs, "envelope_2d")
    shifted = dataclasses.replace(env, values=env.values + 2 * checks.ENVELOPE_TOL_2D)
    assert not wl.query_ok(op, shifted)
    op, value = _first(wl, outputs, "convert")
    assert not wl.query_ok(op, value + 10 * checks.CONVERT_TOL)


def test_import_seconds_counts_nested_entries_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.ndimage._x",
        "import time:        50 |        450 |   scipy.ndimage",
        "import time:        10 |        760 | proxlab.transform",
    ])
    assert layers._import_seconds(stderr, "scipy") == pytest.approx(750e-6)
    assert layers._import_seconds(stderr, "numpy") == 0.0
