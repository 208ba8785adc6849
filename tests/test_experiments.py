import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab import experiments, solver
from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, erowl_shrinker
from proxlab.experiments import (
    MISMATCH_FLOOR_DB,
    RECORD_COLUMNS,
    ScenarioConfig,
    TrialRecord,
    firm_rule,
    fixed_design_matrix,
    generate_model,
    mean_mismatch,
    scenario_a,
    scenario_b,
    scenario_c,
    system_mismatch,
    write_records_csv,
)
from proxlab.rowl import rowl_shrinker
from proxlab.scalar_ops import FirmParams, firm_shrinker
from proxlab.solver import SpectralBounds, pfbs, select_parameters, spectral_bounds


def test_fixed_design_matrix_and_its_spectrum():
    a = fixed_design_matrix()
    assert np.allclose(a, [[0.5405, 0.405], [0.405, 0.455]], atol=1e-12)
    b = spectral_bounds(a)
    assert b.rho == pytest.approx(0.00819025, abs=1e-10)
    assert b.kappa == pytest.approx(0.819025, abs=1e-10)


def test_system_mismatch_values():
    assert system_mismatch((0.0, 1.0), (0.0, 1.0)) == MISMATCH_FLOOR_DB
    assert system_mismatch((0.0, 0.99), (0.0, 1.0)) == pytest.approx(-40.0, abs=1e-12)
    assert system_mismatch((0.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        system_mismatch((1.0, 1.0), (0.0, 0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig.scenario_b_defaults(trials=0)
    with pytest.raises(TypeError):  # no thread-count field: trials run in one loop
        ScenarioConfig.scenario_b_defaults(threads=2)
    with pytest.raises(TypeError):  # no design field: the scenario decides the design
        ScenarioConfig.scenario_b_defaults(matrix_kind="gaussian")
    with pytest.raises(ValueError):
        ScenarioConfig.scenario_b_defaults(snr_list_db=())
    with pytest.raises(ValueError, match="scenario must be one of \\['A', 'B', 'C'\\], got 'D'"):
        dataclasses.replace(ScenarioConfig.scenario_b_defaults(), scenario="D")
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            ScenarioConfig.scenario_b_defaults(snr_list_db=(20.0, bad))
    assert ScenarioConfig.scenario_b_defaults(snr_list_db=(math.inf,)).snr_list_db == (math.inf,)
    with pytest.raises(ValueError, match="snr_list_db repeats 20.0"):
        ScenarioConfig.scenario_b_defaults(snr_list_db=(20.0, 10.0, 20))
    with pytest.raises(ValueError, match="snr_list_db repeats inf"):
        ScenarioConfig.scenario_c_defaults(snr_list_db=(math.inf, math.inf))
    with pytest.raises(ValueError, match="x1_sweep repeats 1.5"):
        ScenarioConfig.scenario_c_defaults(x1_sweep=(1.0, 1.5, 2.0, 1.5))


@pytest.mark.parametrize("kwargs", [
    {"trials": 7}, {"snr_list_db": (math.inf, 10.0)}, {"x1_sweep": (1.0, 2.0)},
], ids=["trials", "snrs", "x1-sweep"])
def test_scenario_a_refuses_what_its_one_run_would_ignore(kwargs):
    # Each of these ran the default A's two solves, and meta.json recorded the setting.
    with pytest.raises(ValueError, match="scenario A runs one trial at one SNR with no x1 sweep"):
        ScenarioConfig.scenario_a_defaults(**kwargs)


@given(st.sampled_from("ABC"), st.sampled_from([0, 1, 2, 7]),
       st.lists(st.sampled_from([math.inf, 20.0, 10.0, -300.0, math.nan, -math.inf]), max_size=2),
       st.lists(st.sampled_from([1.0, 2.0]), max_size=2))
@settings(max_examples=40, deadline=None)
@example("A", 7, [math.inf], [])  # A ran its one trial and reported none of this
@example("A", 1, [math.inf, 10.0], [])
@example("A", 1, [math.inf], [1.0, 2.0])
def test_a_scenario_config_is_refused_or_runs_every_cell_it_declares(scenario, trials, snrs, sweep):
    try:
        cfg = ScenarioConfig.defaults(scenario, trials=trials, snr_list_db=snrs, x1_sweep=sweep)
    except ValueError:
        return
    records = scenario_a(cfg).records if scenario == "A" else scenario_b(cfg)
    methods = {"A": 2, "B": 3, "C": 4}[scenario]
    assert len(records) == methods * trials * len(snrs) * max(1, len(sweep))
    assert all(math.isfinite(r.x_hat.x1) and math.isfinite(r.x_hat.x2) for r in records)


def test_config_fields_are_the_settable_inputs_only():
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
        "scenario", "trials", "seed", "snr_list_db", "x_true", "w_rowl", "w_erowl",
        "gamma_delta", "gamma_mu", "mu_override", "delta_override", "x1_sweep",
        "rowl_w_by_snr", "out_path",
    ]
    cfg = ScenarioConfig.scenario_b_defaults()
    assert (cfg.tol, cfg.max_iter, cfg.firm_lambda2) == (1e-10, 100_000, 3.0)
    for name in ("tol", "max_iter", "firm_lambda2"):
        with pytest.raises(TypeError):  # a constant of every run, not a setting
            ScenarioConfig.scenario_b_defaults(**{name: getattr(cfg, name)})


def test_scenario_defaults_are_one_table():
    assert ScenarioConfig.defaults("A") == ScenarioConfig.scenario_a_defaults()
    assert ScenarioConfig.defaults("B") == ScenarioConfig.scenario_b_defaults()
    assert ScenarioConfig.defaults("C") == ScenarioConfig.scenario_c_defaults()
    assert ScenarioConfig.defaults("B", seed=3, trials=2) == ScenarioConfig.scenario_b_defaults(seed=3, trials=2)
    a = ScenarioConfig.defaults("A")
    assert (a.seed, a.trials, a.snr_list_db, a.mu_override) == (12345, 1, (math.inf,), 2.0)


def test_scenario_c_configs_do_not_share_their_rowl_weights():
    one, two = ScenarioConfig.scenario_c_defaults(), ScenarioConfig.defaults("C")
    assert one.rowl_w_by_snr is not two.rowl_w_by_snr
    one.rowl_w_by_snr[20.0] = WeightPair(0.0, 9.0)  # the field is frozen, the dict is not
    assert two.rowl_w_by_snr[20.0] == ScenarioConfig.defaults("C").rowl_w_by_snr[20.0] == WeightPair(0.0, 0.1)


def test_scenario_c_is_scenario_b():
    assert scenario_c is scenario_b


def test_generate_model_is_deterministic_per_key():
    cfg = ScenarioConfig.scenario_c_defaults(seed=99, trials=2)
    m1 = generate_model(cfg, 1, 20.0)
    m2 = generate_model(cfg, 1, 20.0)
    assert np.array_equal(m1.a_matrix, m2.a_matrix)
    assert np.array_equal(m1.y, m2.y)
    assert m1.a_matrix.shape == (4, 2)
    assert np.array_equal(generate_model(ScenarioConfig.scenario_b_defaults(), 1, 20.0).a_matrix,
                          fixed_design_matrix())

    other = generate_model(cfg, 2, 20.0)
    assert not np.array_equal(m1.a_matrix, other.a_matrix)


def test_generate_model_noiseless_and_noise_power():
    cfg = ScenarioConfig.scenario_b_defaults(seed=5, trials=1, snr_list_db=(math.inf,))
    model = generate_model(cfg, 0, math.inf)
    clean = model.a_matrix @ np.array([cfg.x_true.x1, cfg.x_true.x2])
    assert np.array_equal(model.y, clean)
    # A noiseless cell adds no noise term, so a truth whose ||A x||^2 overflows still has a model.
    huge = dataclasses.replace(cfg, x_true=Point2(1e200, 1e200))
    assert np.array_equal(generate_model(huge, 0, math.inf).y, model.a_matrix @ np.array([1e200, 1e200]))

    # empirical noise power tracks the SNR rule sigma^2 = ||Ax||^2 10^(-snr/10) / M
    snr_db = 20.0
    target = float(clean @ clean) * 10.0 ** (-snr_db / 10.0)
    powers = []
    for trial in range(300):
        m = generate_model(cfg, trial, snr_db)
        noise = m.y - clean
        powers.append(float(noise @ noise))
    assert np.mean(powers) == pytest.approx(target, rel=0.2)


def test_firm_rule_values():
    fp, mu_f = firm_rule(SpectralBounds(1.0, 4.0), 3.0, 0.5)
    assert fp == FirmParams(0.6, 3.0)
    assert mu_f == pytest.approx(0.325, abs=1e-15)


def test_scenario_a_endpoints_and_outputs(tmp_path):
    cfg = ScenarioConfig.scenario_a_defaults(out_path=str(tmp_path))
    result = scenario_a(cfg)

    by_method = {r.method: r for r in result.records}
    rowl, erowl = by_method["ROWL"], by_method["eROWL"]
    assert rowl.x_hat.x1 == pytest.approx(0.8838408887922491, abs=1e-10)
    assert rowl.x_hat.x2 == pytest.approx(0.0, abs=1e-10)
    assert rowl.iterations == 197
    assert erowl.x_hat.x1 == pytest.approx(0.0, abs=1e-10)
    assert erowl.x_hat.x2 == pytest.approx(1.0, abs=1e-6)
    assert erowl.iterations == 76
    assert all(r.converged for r in result.records)

    assert len(result.trajectories["ROWL"]) == 2 * rowl.iterations + 1
    assert len(result.trajectories["eROWL"]) == 2 * erowl.iterations + 1
    assert result.trajectories["ROWL"][0] == Point2(0.0, 0.0)

    for name in ("trajectory_rowl.csv", "trajectory_erowl.csv", "summary.csv", "meta.json"):
        assert os.path.exists(tmp_path / name)
    lines = (tmp_path / "trajectory_rowl.csv").read_text().splitlines()
    assert lines[0] == "step,x1,x2"
    assert lines[1] == "0,0,0"
    assert len(lines) == 1 + 2 * rowl.iterations + 1

    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["scenario"] == "A"
    assert meta["derived"]["mu"] == 2
    assert meta["config"]["snr_list_db"] == ["inf"]


def test_scenario_b_small_run_structure_and_replay(tmp_path):
    cfg = ScenarioConfig.scenario_b_defaults(seed=7, trials=6, out_path=str(tmp_path / "one"))
    records = scenario_b(cfg)
    assert len(records) == 6 * 3
    assert [r.method for r in records] == ["LS"] * 6 + ["ROWL"] * 6 + ["eROWL"] * 6
    assert [r.trial for r in records[:6]] == list(range(6))
    assert all(r.converged for r in records)
    assert all(r.iterations == 0 for r in records if r.method == "LS")

    again = scenario_b(
        dataclasses.replace(cfg, out_path=str(tmp_path / "two"))
    )
    assert records == again
    bytes_one = (tmp_path / "one" / "records.csv").read_bytes()
    bytes_two = (tmp_path / "two" / "records.csv").read_bytes()
    assert bytes_one == bytes_two

    means_lines = (tmp_path / "one" / "means.csv").read_text().splitlines()
    assert means_lines[0] == "scenario,method,snr_db,xtrue1,mean_mismatch_db,trials"
    assert len(means_lines) == 1 + 3


def _exact(records) -> list[str]:
    """Records as exact text: ``repr`` round-trips every float and keeps the sign of zero."""
    return [repr(r) for r in records]


def _in_order_and_reversed(scenario, cfg, tmp_path, request):
    """Exact records and CSV bytes of a run, then of a run with its trials last to first."""
    def run(name):
        records = scenario(dataclasses.replace(cfg, out_path=str(tmp_path / name)))
        return _exact(records), {f: (tmp_path / name / f).read_bytes()
                                 for f in ("records.csv", "means.csv")}

    in_order = run("in_order")
    ran = request.getfixturevalue("reversed_trials")
    reversed_ = run("reversed")
    assert ran == list(range(cfg.trials))[::-1]
    return in_order, reversed_


def test_scenario_b_trial_order_does_not_change_results(tmp_path, request):
    cfg = ScenarioConfig.scenario_b_defaults(seed=11, trials=4, snr_list_db=(20.0, 10.0))
    in_order, reversed_ = _in_order_and_reversed(scenario_b, cfg, tmp_path, request)
    assert in_order == reversed_


def test_scenario_b_noiseless_least_squares_is_exact():
    cfg = ScenarioConfig.scenario_b_defaults(seed=3, trials=2, snr_list_db=(math.inf,))
    records = scenario_b(cfg)
    for r in records:
        if r.method == "LS":
            assert r.mismatch_db <= -200.0


def test_scenario_c_includes_firm_and_sweeps_truth():
    cfg = ScenarioConfig.scenario_c_defaults(
        seed=2, trials=3, snr_list_db=(20.0,), x1_sweep=(1.5,)
    )
    records = scenario_c(cfg)
    assert len(records) == 3 * 4
    assert {r.method for r in records} == {"LS", "ROWL", "eROWL", "firm"}
    assert all(r.x_true.x1 == 1.5 for r in records)
    means = mean_mismatch(records)
    assert ("firm", 20.0, 1.5) in means
    assert all(math.isfinite(v) for v in means.values())


def _cell_model(cfg, trial, snr_db, x1):
    return generate_model(dataclasses.replace(cfg, x_true=Point2(x1, cfg.x_true.x2)), trial, snr_db)


def _cell_reference(cfg, trial, snr_db, x1):
    """One cell built on its own: its own model draw, bounds and shrinkers, with the config's
    step and relaxation overrides in place of the selected ones.  Scenario A has no LS row."""
    model = _cell_model(cfg, trial, snr_db, x1)
    x_true = Point2(x1, cfg.x_true.x2)
    bounds = spectral_bounds(model.a_matrix)
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    mu = params.mu if cfg.mu_override is None else cfg.mu_override
    delta = params.delta if cfg.delta_override is None else cfg.delta_override
    w_rowl = (cfg.rowl_w_by_snr or {}).get(snr_db, cfg.w_rowl)
    runs = [
        ("ROWL", rowl_shrinker(w_rowl), mu),
        ("eROWL", erowl_shrinker(ErowlParams(cfg.w_erowl, delta)), mu),
    ]
    if cfg.scenario == "C":
        fp, mu_f = firm_rule(bounds, cfg.firm_lambda2, cfg.gamma_mu)
        runs.append(("firm", firm_shrinker(fp), mu_f))
    x_hat = {} if cfg.scenario == "A" else {"LS": (experiments._least_squares(model), 0, "converged")}
    for method, shrink, mu in runs:
        res = pfbs(model, shrink, mu, tol=cfg.tol, max_iter=cfg.max_iter, record_trace=False)
        x_hat[method] = (res.x_hat, res.iterations, res.stop_reason)
    return [
        TrialRecord(cfg.scenario, method, trial, snr_db, x_true, xh,
                    system_mismatch(xh, x_true), iterations, reason)
        for method, (xh, iterations, reason) in x_hat.items()
    ]


def _cells(cfg):
    """The (SNR, x1) cells of a run: B has one per SNR, at its own truth."""
    return [(snr_db, x1) for snr_db in cfg.snr_list_db for x1 in cfg.x1_sweep or (cfg.x_true.x1,)]


def _trial_reference(cfg, trial):
    records = [r for snr_db, x1 in _cells(cfg) for r in _cell_reference(cfg, trial, snr_db, x1)]
    return sorted(records, key=lambda r: (r.method, r.snr_db, r.x_true.x1))


def _model_key(model):
    """A model's bytes, including its ``A^T A`` and ``A^T y`` sums; ``y``'s bytes depend on the truth."""
    return (model.a_matrix.tobytes(), model.y.tobytes(), np.array(model.gram_terms()).tobytes())


def _assert_cells_solve_generate_model_draws(scenario, cfg, monkeypatch):
    """Every cell's solves ran on the model generate_model draws for that cell
    on its own, and each trial's records equal the cell-by-cell reference.

    A B or C run starts each solve in ``pfbs_lockstep`` and goes on in
    ``pfbs`` (from an iterate ``x0``) with the solves it hands back; scenario A
    calls ``pfbs`` alone.  A solve counts where it starts.  Returns the expected
    count per model and how many solves went on in ``pfbs``.
    """
    solved = collections.Counter()
    went_on = collections.Counter()
    real_pfbs, real_lockstep = experiments.pfbs, experiments.pfbs_lockstep

    def recording_pfbs(model, *args, **kwargs):
        (went_on if "x0" in kwargs else solved)[_model_key(model)] += 1
        return real_pfbs(model, *args, **kwargs)

    def recording_lockstep(solves, *args):
        solved.update(_model_key(model) for model, _, _ in solves)
        return real_lockstep(solves, *args)

    monkeypatch.setattr(experiments, "pfbs", recording_pfbs)
    monkeypatch.setattr(experiments, "pfbs_lockstep", recording_lockstep)
    records = scenario(cfg)
    solves_per_cell = 3 if cfg.scenario == "C" else 2
    expected = collections.Counter()
    for trial in range(cfg.trials):
        for snr_db, x1 in _cells(cfg):
            model = _cell_model(cfg, trial, snr_db, x1)
            expected[_model_key(model)] += solves_per_cell
    assert solved == expected
    assert not went_on - solved  # only a solve the lanes started goes on in pfbs
    for trial in range(cfg.trials):
        got = [r for r in records if r.trial == trial]
        assert _exact(got) == _exact(_trial_reference(cfg, trial))
    return expected, sum(went_on.values())


def test_scenario_b_cells_solve_the_models_generate_model_draws(monkeypatch):
    # One cell per SNR on the fixed design: noiseless cells of all trials coincide.
    cfg = ScenarioConfig.scenario_b_defaults(seed=7, trials=3, snr_list_db=(20.0, 10.0, math.inf))
    expected, went_on = _assert_cells_solve_generate_model_draws(scenario_b, cfg, monkeypatch)
    assert len(expected) == cfg.trials * 2 + 1
    assert went_on == sum(expected.values())  # 18 solves: too few for the lanes to take a step


def test_scenario_a_cell_solves_the_model_generate_model_draws(monkeypatch):
    # A's one noiseless cell, at A's step override mu = 2 and without an LS row.
    cfg = ScenarioConfig.scenario_a_defaults()
    expected, went_on = _assert_cells_solve_generate_model_draws(lambda c: scenario_a(c).records, cfg, monkeypatch)
    assert len(expected) == 1 and went_on == 0


def test_scenario_b_delta_override_is_the_erowl_relaxation(monkeypatch):
    # Every eROWL record is a pfbs run with ErowlParams(w_erowl, delta_override).
    cfg = ScenarioConfig.scenario_b_defaults(seed=7, trials=3, snr_list_db=(20.0, 10.0), delta_override=5.0)
    _assert_cells_solve_generate_model_draws(scenario_b, cfg, monkeypatch)

    def erowl(records):
        return [r.x_hat for r in records if r.method == "eROWL"]

    selected = ScenarioConfig.scenario_b_defaults(seed=7, trials=3, snr_list_db=(20.0, 10.0))
    assert select_parameters(spectral_bounds(fixed_design_matrix())).delta != 5.0
    assert erowl(scenario_b(cfg)) != erowl(scenario_b(selected))


def test_scenario_c_cells_solve_the_models_generate_model_draws(monkeypatch):
    # Each trial draws its design and noise once; every cell's model must still
    # be the one generate_model draws for that (trial, SNR, x1) on its own.
    cfg = ScenarioConfig.scenario_c_defaults(seed=7, trials=3, snr_list_db=(20.0, 10.0, math.inf))
    expected, _ = _assert_cells_solve_generate_model_draws(scenario_c, cfg, monkeypatch)
    assert len(expected) == cfg.trials * 3 * len(cfg.x1_sweep)


@pytest.mark.parametrize("scenario, cfg", [
    ("B", ScenarioConfig.scenario_b_defaults(seed=7, trials=12, snr_list_db=(20.0, 10.0, math.inf))),
    # Trial 20 of the default seed holds a ROWL solve that cycles at 20 dB.
    ("C", ScenarioConfig.scenario_c_defaults(trials=21, snr_list_db=(20.0,), x1_sweep=(1.0, 4.0))),
], ids=["B", "C"])
def test_cells_whose_solves_step_as_lanes_match_the_cell_by_cell_reference(scenario, cfg, monkeypatch):
    # With LOCKSTEP_LANES at 4, these runs' 36 and 42 lanes per method take numpy steps: the lanes
    # end some solves and hand the rest back to pfbs.
    monkeypatch.setattr(solver, "LOCKSTEP_LANES", 4)
    expected, went_on = _assert_cells_solve_generate_model_draws(scenario_b, cfg, monkeypatch)
    assert 0 < went_on < sum(expected.values())
    if scenario == "C":
        assert any(r.stop_reason == "cycled" for r in _trial_reference(cfg, 20))


def test_scenario_c_counts_a_resampled_trial_once(monkeypatch, tmp_path):
    cfg = ScenarioConfig.scenario_c_defaults(
        seed=3, trials=3, x1_sweep=(1.5, 4.0), out_path=str(tmp_path))
    rejected = generate_model(cfg, 1, 20.0).a_matrix
    real_bounds = experiments.spectral_bounds

    def reject_first_design_of_trial_1(a):
        bounds = real_bounds(a)
        return SpectralBounds(0.0, bounds.kappa) if np.array_equal(a, rejected) else bounds

    monkeypatch.setattr(experiments, "spectral_bounds", reject_first_design_of_trial_1)
    redrawn = generate_model(cfg, 1, 20.0).a_matrix
    assert not np.array_equal(redrawn, rejected)

    records = scenario_c(cfg)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["schema"] == 4
    assert meta["derived"]["resampled_trials"] == 1  # not once per (SNR, x1) cell
    assert "threads" not in meta["config"]
    got = [r for r in records if r.trial == 1]
    assert _exact(got) == _exact(_trial_reference(cfg, 1))


def test_scenario_c_gives_up_after_a_hundred_singular_designs(monkeypatch):
    monkeypatch.setattr(experiments, "spectral_bounds", lambda a: SpectralBounds(0.0, 1.0))
    cfg = ScenarioConfig.scenario_c_defaults(trials=1, x1_sweep=(1.5,))
    for draw in (lambda: scenario_c(cfg), lambda: generate_model(cfg, 0, 20.0)):
        with pytest.raises(RuntimeError, match="could not draw a nonsingular design in 100 tries"):
            draw()


_CONFIG_KEYS = [
    "delta_override", "firm_lambda2", "gamma_delta", "gamma_mu", "max_iter", "mu_override",
    "out_path", "rowl_w_by_snr", "scenario", "seed", "snr_list_db", "tol", "trials",
    "w_erowl", "w_rowl", "x1_sweep", "x_true",
]
_FIXED_DESIGN_KEYS = ["beta", "delta", "kappa", "mu", "resampled_trials", "rho"]


@pytest.mark.parametrize("scenario, cfg, derived", [
    (scenario_a, ScenarioConfig.scenario_a_defaults(), _FIXED_DESIGN_KEYS),
    (scenario_b, ScenarioConfig.scenario_b_defaults(trials=1), _FIXED_DESIGN_KEYS),
    (scenario_c, ScenarioConfig.scenario_c_defaults(trials=1, snr_list_db=(20.0,), x1_sweep=(1.5,)),
     ["resampled_trials"]),
], ids=["A", "B", "C"])
def test_meta_json_layout_is_pinned_by_its_schema(scenario, cfg, derived, tmp_path):
    # A change to these key lists must come with a new schema number.
    scenario(dataclasses.replace(cfg, out_path=str(tmp_path)))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert sorted(meta) == ["config", "derived", "scenario", "schema"]
    assert meta["schema"] == 4
    assert sorted(meta["config"]) == _CONFIG_KEYS
    assert sorted(meta["derived"]) == derived


@pytest.mark.parametrize("scenario, cfg, mu, delta_used", [
    (scenario_a, ScenarioConfig.scenario_a_defaults(), 2.0, None),
    (scenario_b, ScenarioConfig.scenario_b_defaults(trials=3), None, None),
    (scenario_b, ScenarioConfig.scenario_b_defaults(trials=3, delta_override=5.0, mu_override=1.0), 1.0, 5.0),
], ids=["A", "B", "B-overrides"])
def test_meta_json_derives_from_the_fixed_design(scenario, cfg, mu, delta_used, tmp_path):
    # rho and kappa are the fixed design's; delta (with its beta) is the relaxation eROWL ran with
    # and mu the step ROWL and eROWL took: the selected ones, or the overrides where set.
    scenario(dataclasses.replace(cfg, out_path=str(tmp_path)))
    derived = json.loads((tmp_path / "meta.json").read_text())["derived"]
    bounds = spectral_bounds(fixed_design_matrix())
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    assert params.delta != delta_used and params.mu != mu
    delta = params.delta if delta_used is None else delta_used
    assert derived == {"rho": bounds.rho, "kappa": bounds.kappa, "delta": delta,
                       "beta": delta / (1.0 + delta),
                       "mu": params.mu if mu is None else mu, "resampled_trials": 0}


def test_meta_json_derives_only_the_resampled_count_in_scenario_c(tmp_path):
    # A C trial draws its own design, so the run has no one design to report.
    scenario_c(ScenarioConfig.scenario_c_defaults(trials=3, x1_sweep=(1.5,), out_path=str(tmp_path)))
    assert json.loads((tmp_path / "meta.json").read_text())["derived"] == {"resampled_trials": 0}


@pytest.mark.parametrize("scenario", ["A", "B", "C"])
def test_generate_model_raises_like_the_run_on_a_config_no_run_can_take(scenario):
    cfg = ScenarioConfig.defaults(scenario, trials=1, gamma_mu=1.5)
    run = scenario_a if scenario == "A" else scenario_b
    for draw in (lambda: run(cfg), lambda: generate_model(cfg, 0, 20.0)):
        with pytest.raises(ValueError, match=r"gamma_mu must lie in \[0, 1\], got 1.5"):
            draw()


@pytest.mark.parametrize("scenario, cfg", [
    (scenario_a, ScenarioConfig.scenario_a_defaults()),
    (scenario_b, ScenarioConfig.scenario_b_defaults(trials=1)),
    (scenario_c, ScenarioConfig.scenario_c_defaults(trials=1, snr_list_db=(20.0,), x1_sweep=(1.5,))),
], ids=["A", "B", "C"])
def test_meta_json_records_the_run_constants(scenario, cfg, tmp_path):
    scenario(dataclasses.replace(cfg, out_path=str(tmp_path)))
    config = json.loads((tmp_path / "meta.json").read_text())["config"]
    assert (config["tol"], config["max_iter"], config["firm_lambda2"]) == (1e-10, 100_000, 3.0)


def test_scenario_c_trial_order_does_not_change_results(tmp_path, request):
    cfg = ScenarioConfig.scenario_c_defaults(seed=5, trials=3, x1_sweep=(1.0, 3.5))
    in_order, reversed_ = _in_order_and_reversed(scenario_c, cfg, tmp_path, request)
    assert in_order == reversed_


def test_mean_mismatch_groups_and_averages():
    def rec(method, snr, x1, db):
        return TrialRecord(
            scenario="B", method=method, trial=0, snr_db=snr,
            x_true=Point2(x1, 1.0), x_hat=Point2(0.0, 0.0),
            mismatch_db=db, iterations=1, stop_reason="converged",
        )

    means = mean_mismatch(
        [rec("LS", 20.0, 0.01, -10.0), rec("LS", 20.0, 0.01, -20.0),
         rec("LS", 10.0, 0.01, -7.0)]
    )
    assert means[("LS", 20.0, 0.01)] == pytest.approx(-15.0)
    assert means[("LS", 10.0, 0.01)] == pytest.approx(-7.0)


def test_records_csv_round_trips_floats(tmp_path):
    r = TrialRecord(
        scenario="B", method="eROWL", trial=3, snr_db=20.0,
        x_true=Point2(0.01, 1.0), x_hat=Point2(1.0 / 3.0, -2.0 / 7.0),
        mismatch_db=-12.345678901234567, iterations=42, stop_reason="converged",
    )
    path = tmp_path / "records.csv"
    write_records_csv(str(path), [r])
    header, line = path.read_text().splitlines()
    assert header == ",".join(RECORD_COLUMNS)
    fields = line.split(",")
    assert fields[0] == "B" and fields[1] == "eROWL"
    assert int(fields[2]) == 3
    assert float(fields[6]) == 1.0 / 3.0  # 17 significant digits survive
    assert float(fields[7]) == -2.0 / 7.0
    assert fields[10] == "true"


def test_records_carry_the_solver_stop_reason_outside_the_csv(tmp_path):
    # A step of 1000 on the fixed design makes both shrinkage solves diverge.
    cfg = ScenarioConfig.scenario_b_defaults(
        trials=1, mu_override=1000.0, out_path=str(tmp_path))
    records = scenario_b(cfg)
    reasons = {r.method: r.stop_reason for r in records}
    assert reasons == {"LS": "converged", "ROWL": "diverged", "eROWL": "diverged"}
    assert "stop_reason" not in RECORD_COLUMNS
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert header == ",".join(RECORD_COLUMNS)


def _field_text(v) -> str:
    """Reference text of one ``records.csv`` field: 17 significant digits, ``true``/``false``."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def test_records_csv_rows_match_the_field_formatter_on_edge_values(tmp_path):
    tiny = 5e-324  # the smallest subnormal
    edges = [
        ("B", "LS", 0, 20.0, (0.01, 1.0), (0.0, -0.0), MISMATCH_FLOOR_DB, 0, "converged"),
        ("C", "ROWL", 499, math.inf, (-0.0, 0.01), (tiny, -tiny), -0.0, 10**15, "cycled"),
        ("C", "firm", 7, -3.5, (0.1 + 0.2, 1.0 / 3.0), (2.2250738585072014e-308 / 3.0, 1e308),
         math.inf, 100_000, "max_iter"),
        ("B", "eROWL", 12, 1e-17, (123456789.12345679, -9.999999999999999e22),
         (-1.7976931348623157e308, 4.9406564584124654e-320), -12.345678901234567, 1, "diverged"),
        ("C", "eROWL", 1, 0.0, (6.0, 0.01), (5.999999999999999, 0.010000000000000002),
         math.nan, 67_267, "converged"),
    ]
    records = [TrialRecord(sc, m, t, snr, Point2(*xt), Point2(*xh), db, it, why)
               for sc, m, t, snr, xt, xh, db, it, why in edges]
    path = tmp_path / "records.csv"
    write_records_csv(str(path), records)
    lines = path.read_text().splitlines()
    fields = [(sc, m, t, snr, *xt, *xh, db, it, why == "converged")
              for sc, m, t, snr, xt, xh, db, it, why in edges]
    assert lines[1:] == [",".join(map(_field_text, f)) for f in fields]
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "false", "false", "false", "true"]


def _counting_spectral_bounds(monkeypatch, reject=None):
    """Count calls of ``experiments.spectral_bounds``; a design equal to ``reject`` reads singular."""
    calls = []
    real_bounds = experiments.spectral_bounds

    def counted(a):
        calls.append(np.array(a))
        bounds = real_bounds(a)
        if reject is not None and np.array_equal(a, reject):
            return SpectralBounds(0.0, bounds.kappa)
        return bounds

    monkeypatch.setattr(experiments, "spectral_bounds", counted)
    return calls


def test_scenario_b_builds_its_design_and_bounds_once_per_run(monkeypatch, tmp_path):
    calls = _counting_spectral_bounds(monkeypatch)
    cfg = ScenarioConfig.scenario_b_defaults(seed=4, trials=5, snr_list_db=(20.0, 10.0),
                                             out_path=str(tmp_path))
    records = scenario_b(cfg)
    assert len(calls) == 1 and np.array_equal(calls[0], fixed_design_matrix())
    assert len(records) == 5 * 2 * 3
    meta = json.loads((tmp_path / "meta.json").read_text())
    bounds = spectral_bounds(fixed_design_matrix())
    assert (meta["derived"]["rho"], meta["derived"]["kappa"]) == (bounds.rho, bounds.kappa)


def test_scenario_c_takes_bounds_once_per_drawn_design(monkeypatch):
    cfg = ScenarioConfig.scenario_c_defaults(seed=3, trials=3, x1_sweep=(1.5, 4.0))
    calls = _counting_spectral_bounds(monkeypatch)
    scenario_c(cfg)
    assert len(calls) == cfg.trials
    rejected = generate_model(cfg, 1, 20.0).a_matrix
    calls = _counting_spectral_bounds(monkeypatch, reject=rejected)
    scenario_c(cfg)
    assert len(calls) == cfg.trials + 1  # trial 1 draws a second design
    assert np.array_equal(calls[1], rejected)
