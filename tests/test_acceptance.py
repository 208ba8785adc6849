"""End-to-end acceptance checks, one test per shipped criterion.

Each test pins the tolerance it enforces and (where stated) a wall-clock
budget.  The long Monte Carlo runs are shared through session fixtures so the
determinism check can reuse their outputs.
"""
import dataclasses
import hashlib
import time

import numpy as np
import pytest

from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, classify_region, erowl, erowl_limit
from proxlab.experiments import (
    ScenarioConfig,
    fixed_design_matrix,
    mean_mismatch,
    scenario_a,
    scenario_b,
    scenario_c,
)
from proxlab.rowl import prox_rowl_envelope_2d, rowl_envelope_2d, rowl_penalty
from proxlab.scalar_ops import SQRT2, FirmParams, firm, l0_envelope, l0_norm
from proxlab.solver import select_parameters, spectral_bounds
from proxlab.transform import (
    Axis,
    GridSpec,
    MonotoneGraph1D,
    SampledFunction,
    brute_force_prox,
    check_lipschitz,
    check_monotone,
    convert_1d,
    default_prox_box,
    jacobian_symmetry_defect,
    verify_inclusion,
    weakly_convex_envelope_grid,
)

W02 = WeightPair(0.0, 2.0)

# sha256 of each run's output files, pinned from the code as it stood before
# any performance work.  Box-Muller draws use libm log, sin and cos: a
# mismatch on another platform is a finding to report, not a digest to re-pin.
GOLDEN_SHA256 = {
    "A": {
        "trajectory_rowl.csv": "29198b715cee7e9142e174f48cb08c60d00eb25922b82cffc80c46c48e388e09",
        "trajectory_erowl.csv": "2eddcafa4a3c486da51d855bfe80075fde8381f6a43c746a7dd13d9420d7d225",
        "summary.csv": "3c224f506f75fa95d93ac5e4a82f5498e8556ba95716dbbdc8bbf15d83637ad7",
    },
    "B500": {
        "records.csv": "1ac5ca82af8a45015e8b7ac721c50b47feeb308502abb197eae982d14c77de31",
        "means.csv": "b05f5926541a9780b8a6f3100c3f065772be1a46c42f1512fa57897fb15f34b6",
    },
    "C500": {
        "records.csv": "cbb1ffea16efc17de9648c6b47e32b57fac7f62d9dfa66279633350729d08b69",
        "means.csv": "5056a06d73a5b8fd6f604ab41bbca829308fe10f1a6d255736cd19aebc20ae7d",
    },
    # scenario C defaults with 30 trials: nine ROWL solves cycle to max_iter
    "C30": {
        "records.csv": "fb94e110dec3740d0be4cf1a2dd4ca28ffd137019974d058bcbddcb45e29bdf1",
        "means.csv": "706a70c7ad429a1639815c8d5024923f96fa699cb4d7f01f81681f1a92c4caa0",
    },
    # the full default scenario C: 55 ROWL solves cycle to max_iter
    "C": {
        "records.csv": "d4c86e7ddc2110782caf26f2a5312efa216fa9fc76efee41348921b08d9f28f0",
        "means.csv": "9d96b22577560e048be302bb567a92de5b0089db56940cd9368db914168c0aa3",
    },
}


def _assert_golden(run: str, out_path: str) -> None:
    for name, digest in GOLDEN_SHA256[run].items():
        with open(f"{out_path}/{name}", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, f"{run} {name}"


@pytest.fixture(scope="session")
def scenario_a_run(tmp_path_factory):
    cfg = ScenarioConfig.scenario_a_defaults(out_path=str(tmp_path_factory.mktemp("scen_a")))
    t0 = time.perf_counter()
    result = scenario_a(cfg)
    return cfg, result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def scenario_b_run(tmp_path_factory):
    cfg = ScenarioConfig.scenario_b_defaults(
        seed=12345, trials=500, snr_list_db=(20.0,),
        out_path=str(tmp_path_factory.mktemp("scen_b")),
    )
    t0 = time.perf_counter()
    records = scenario_b(cfg)
    return cfg, records, time.perf_counter() - t0


@pytest.fixture(scope="session")
def scenario_c_run(tmp_path_factory):
    cfg = ScenarioConfig.scenario_c_defaults(
        seed=12345, trials=500, snr_list_db=(20.0,), x1_sweep=(1.5,),
        out_path=str(tmp_path_factory.mktemp("scen_c")),
    )
    t0 = time.perf_counter()
    records = scenario_c(cfg)
    return cfg, records, time.perf_counter() - t0


def test_criterion_01_parameter_pipeline():
    t0 = time.perf_counter()
    bounds = spectral_bounds(fixed_design_matrix())
    params = select_parameters(bounds, gamma_delta=1.01, gamma_mu=0.5)
    scaled_w2 = float(ErowlParams(W02, params.delta).w_scaled[1])
    elapsed = time.perf_counter() - t0

    assert 0.815 <= bounds.kappa <= 0.825
    assert 0.0081 <= bounds.rho <= 0.0083
    assert 49.5 <= params.delta <= 50.5
    assert 0.0388 <= scaled_w2 <= 0.0396
    lo, hi = params.mu_interval
    assert lo == pytest.approx(1.6e-4, rel=0.02)
    assert hi == pytest.approx(2.4, rel=0.02)
    assert elapsed < 1.0


def test_criterion_02_scenario_a_endpoints(scenario_a_run):
    cfg, result, elapsed = scenario_a_run
    assert cfg.mu_override == 2.0
    assert cfg.tol == 1e-10

    by_method = {r.method: r.x_hat for r in result.records}
    relaxed, plain = by_method["eROWL"], by_method["ROWL"]
    assert abs(relaxed.x1 - 0.0) <= 0.02
    assert abs(relaxed.x2 - 0.99) <= 0.02
    assert abs(plain.x1 - 0.88) <= 0.02
    assert abs(plain.x2 - 0.0) <= 0.02
    assert elapsed < 1.0


def test_criterion_03_conversion_identity():
    t0 = time.perf_counter()
    graph = MonotoneGraph1D.hard_graph(SQRT2)
    queries = np.linspace(-4.0, 4.0, 10_000)
    worst = 0.0
    for delta in (0.5, 1.0, 2.0):
        params = FirmParams(SQRT2 / (delta + 1.0), SQRT2)
        for q in queries:
            got = convert_1d(graph, delta, float(q))
            worst = max(worst, abs(got - float(firm(q, params))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_04_relaxed_operator_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    deltas = (0.5, 1.0, 5.0)
    step_coarse, step_fine, reach_fine = 0.05, 0.01, 0.08
    worst = 0.0
    for case in range(200):
        delta = deltas[case % 3]
        w2 = rng.uniform(0.2, 4.0)
        w = WeightPair(rng.uniform(0.0, w2), w2)
        x = rng.uniform(-6.0, 6.0, size=2)
        penalty = lambda z: rowl_envelope_2d(z, w) / (delta + 1.0)

        coarse = brute_force_prox(penalty, x, 1.0, default_prox_box(x, w2, step_coarse))
        c = coarse.points()[0]
        n = int(round(2.0 * reach_fine / step_fine))
        fine_box = GridSpec(
            tuple(
                Axis(ci - reach_fine, (ci - reach_fine) + n * step_fine, step_fine)
                for ci in (c.x1, c.x2)
            )
        )
        oracle = brute_force_prox(penalty, x, 1.0, fine_box)

        y = erowl(np.asarray(x), ErowlParams(w, delta))
        worst = max(worst, oracle.distance(Point2(y[0], y[1])))
    elapsed = time.perf_counter() - t0
    assert worst <= 2.0 * step_fine  # 0.02
    assert elapsed < 60.0


def test_criterion_05_envelope_equivalence():
    t0 = time.perf_counter()
    grid2 = GridSpec.square(-6.0, 6.0, 0.05)
    mesh = grid2.mesh()
    inner2 = np.max(np.abs(mesh), axis=-1) <= 4.0
    for w in (W02, WeightPair(0.5, 1.5), WeightPair(1.0, 3.0)):
        env = weakly_convex_envelope_grid(
            SampledFunction.sample(grid2, lambda z: rowl_penalty(z, w.as_array()))
        )
        err = np.max(np.abs(env.values[inner2] - rowl_envelope_2d(mesh, w)[inner2]))
        assert err <= 5e-2, f"w = {w}"

    grid1 = GridSpec.line(-6.0, 6.0, 0.01)
    env1 = weakly_convex_envelope_grid(SampledFunction.sample(grid1, l0_norm))
    xs = grid1.axes[0].points()
    inner1 = np.abs(xs) <= 4.0
    assert np.max(np.abs(env1.values[inner1] - l0_envelope(xs[inner1]))) <= 5e-3
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_operator_property_suite():
    t0 = time.perf_counter()
    for delta in (0.5, 1.0, 5.0):
        params = ErowlParams(W02, delta)
        op = lambda x: erowl(x, params)
        assert check_monotone(op, pairs=100_000, seed=11) >= -1e-10
        bound = 1.0 + 1.0 / delta
        assert check_lipschitz(op, pairs=100_000, seed=12) <= bound * (1.0 + 1e-6)

        rng = np.random.default_rng(13)
        kept = 0
        while kept < 1000:
            x = rng.uniform(-6.0, 6.0, size=2)
            a = np.abs(x)
            if a.min() < 1e-3 or abs(a[0] - a[1]) < 1e-3:
                continue
            s = np.sort(a)[::-1]
            region = classify_region(s, params)
            shifts = ((2e-5, 2e-5), (2e-5, -2e-5), (-2e-5, 2e-5), (-2e-5, -2e-5))
            if any(classify_region(s + d, params) != region for d in shifts):
                continue  # finite differences must stay inside one branch
            assert jacobian_symmetry_defect(op, x) <= 1e-4
            kept += 1
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_inclusion_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)

    box1 = GridSpec.line(-5.0, 5.0, 0.01)
    scalar_points = [float(v) for v in rng.uniform(-4.0, 4.0, size=998)]
    scalar_points += [SQRT2, -SQRT2]
    for x in scalar_points:
        report = verify_inclusion(l0_norm, l0_envelope, x, box1)
        assert report.included, f"x = {x}: distance {report.max_distance}"

    box2 = GridSpec.square(-6.0, 6.0, 0.05)
    planar_points = list(rng.uniform(-4.0, 4.0, size=(900, 2)))
    ties = np.linspace(-3.5, 3.5, 50)
    planar_points += [np.array([t, t]) for t in ties]
    planar_points += [np.array([-t, t]) for t in ties]
    penalty = lambda z: rowl_penalty(z, W02.as_array())
    envelope = lambda z: rowl_envelope_2d(z, W02)
    for x in planar_points:
        report = verify_inclusion(penalty, envelope, x, box2)
        assert report.included, f"x = {x}: distance {report.max_distance}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08a_limit_contained_in_envelope_prox():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    x = rng.uniform(-5.0, 5.0, size=(10_000, 2))
    ts = np.linspace(-4.5, 4.5, 1000)
    x[:1000] = np.stack([ts, ts], axis=-1)          # exact diagonal
    x[1000:2000] = np.stack([ts, -ts], axis=-1)     # exact antidiagonal
    y = erowl_limit(x, W02)
    worst = 0.0
    for xi, yi in zip(x, y):
        d = prox_rowl_envelope_2d(xi, W02).distance(Point2(yi[0], yi[1]))
        worst = max(worst, d)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "on diagonal points with w1 + w2 < x1 + x2 < 2*w2 the small-delta limit "
        "is the midpoint of the tie segment, not x - w_mid; the stated identity "
        "only holds from x1 + x2 >= 2*w2 upward"
    ),
)
def test_criterion_08b_diagonal_limit_closed_form():
    w_mid = 0.5 * (W02.w1 + W02.w2)
    ts = np.linspace(1.0 + 1e-6, 4.0, 2001)  # x1 + x2 > w1 + w2 = 2
    x = np.stack([ts, ts], axis=-1)
    y = erowl_limit(x, W02)
    target = x - w_mid
    assert np.max(np.abs(y - target)) <= 1e-6


def test_criterion_09_scenario_b_ordering(scenario_b_run):
    cfg, records, elapsed = scenario_b_run
    assert cfg.w_erowl.w2 == 1.0 and cfg.w_rowl.w2 == 0.01
    means = mean_mismatch(records)
    relaxed = means[("eROWL", 20.0, cfg.x_true.x1)]
    plain = means[("ROWL", 20.0, cfg.x_true.x1)]
    assert relaxed < plain, f"relaxed {relaxed:.2f} dB vs plain {plain:.2f} dB"
    assert elapsed < 60.0


def test_criterion_10_scenario_c_ordering(scenario_c_run):
    cfg, records, elapsed = scenario_c_run
    assert cfg.firm_lambda2 == 3.0 and cfg.w_erowl.w2 == 1.0
    means = mean_mismatch(records)
    firm_mean = means[("firm", 20.0, 1.5)]
    relaxed = means[("eROWL", 20.0, 1.5)]
    assert firm_mean > relaxed, f"firm {firm_mean:.2f} dB vs relaxed {relaxed:.2f} dB"
    assert elapsed < 60.0


def test_criterion_11_determinism(
    scenario_a_run, scenario_b_run, scenario_c_run, tmp_path_factory, reversed_trials
):
    cfg_a, _, _ = scenario_a_run
    again_a = tmp_path_factory.mktemp("scen_a_again")
    scenario_a(dataclasses.replace(cfg_a, out_path=str(again_a)))
    for name in ("trajectory_rowl.csv", "trajectory_erowl.csv", "summary.csv"):
        first = open(f"{cfg_a.out_path}/{name}", "rb").read()
        second = open(f"{again_a}/{name}", "rb").read()
        assert first == second, name

    cfg_b, _, _ = scenario_b_run
    again_b = tmp_path_factory.mktemp("scen_b_again")
    scenario_b(dataclasses.replace(cfg_b, out_path=str(again_b)))
    assert reversed_trials == list(range(cfg_b.trials))[::-1]
    for name in ("records.csv", "means.csv"):
        first = open(f"{cfg_b.out_path}/{name}", "rb").read()
        second = open(f"{again_b}/{name}", "rb").read()
        assert first == second, name

    cfg_c, _, _ = scenario_c_run
    again_c = tmp_path_factory.mktemp("scen_c_again")
    reversed_trials.clear()
    scenario_c(dataclasses.replace(cfg_c, out_path=str(again_c)))
    assert reversed_trials == list(range(cfg_c.trials))[::-1]
    for name in ("records.csv", "means.csv"):
        first = open(f"{cfg_c.out_path}/{name}", "rb").read()
        second = open(f"{again_c}/{name}", "rb").read()
        assert first == second, name


def test_golden_digests_of_acceptance_runs(scenario_a_run, scenario_b_run, scenario_c_run):
    for run, (cfg, _, _) in (("A", scenario_a_run), ("B500", scenario_b_run),
                             ("C500", scenario_c_run)):
        _assert_golden(run, cfg.out_path)


@pytest.mark.parametrize("run, trials", [("C30", 30), ("C", 500)])
def test_golden_digests_of_default_scenario_c(run, trials, tmp_path):
    scenario_c(ScenarioConfig.scenario_c_defaults(trials=trials, out_path=str(tmp_path)))
    _assert_golden(run, str(tmp_path))
