"""Desk-scale recovery experiments comparing shrinkage operators.

Three scenarios on the model ``y = A x + noise`` with a 2-D ground truth:

* A: one noiseless run on a fixed ill-conditioned design, trajectories kept;
* B: repeated noisy trials at given SNRs, mean mismatch per method;
* C: like B with a random design and a swept first ground-truth component,
  adding componentwise firm shrinkage to the method set.

Every trial draws from its own counter-based stream keyed by
``(seed, scenario, trial)``, so record sets are bitwise reproducible under any
trial order.  A trial draws its design and its unit noise once and reuses
them in each of its (SNR, x1) cells.  Output files are plain CSV with
17-significant-digit decimals plus a ``meta.json`` of the resolved setup.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Point2, WeightPair
from .erowl import ErowlParams, erowl_shrinker
from .rng import stream
from .rowl import rowl_shrinker
from .scalar_ops import FirmParams, firm_shrinker
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LinearModel,
    SpectralBounds,
    _interpolated_step,
    pfbs,
    select_parameters,
    spectral_bounds,
)

__all__ = [
    "SCENARIO_IDS",
    "MISMATCH_FLOOR_DB",
    "ScenarioConfig",
    "TrialRecord",
    "ScenarioAResult",
    "fixed_design_matrix",
    "generate_model",
    "system_mismatch",
    "firm_rule",
    "mean_mismatch",
    "scenario_a",
    "scenario_b",
    "scenario_c",
    "write_records_csv",
    "write_means_csv",
    "RECORD_COLUMNS",
]

logger = logging.getLogger(__name__)

SCENARIO_IDS = {"A": 1, "B": 2, "C": 3}
MISMATCH_FLOOR_DB = -400.0

_SINGULAR_RTOL = 1e-12
_MAX_RESAMPLES = 100

RECORD_COLUMNS = (
    "scenario",
    "method",
    "trial",
    "snr_db",
    "xtrue1",
    "xtrue2",
    "xhat1",
    "xhat2",
    "mismatch_db",
    "iterations",
    "converged",
)


def fixed_design_matrix() -> np.ndarray:
    """The bundled ill-conditioned 2x2 design ``Q diag(1, 0.1) Q^T / 2``.

    With ``Q = [[1, -0.9], [0.9, 1]]`` this puts the Gram spectrum at
    ``(0.00819, 0.819)``, i.e. a condition number of 100.
    """
    q = np.array([[1.0, -0.9], [0.9, 1.0]])
    d = np.diag([1.0, 0.1])
    return q @ d @ q.T / 2.0


def _default_rowl_w_by_snr() -> dict[float, WeightPair]:
    return {20.0: WeightPair(0.0, 0.1), 10.0: WeightPair(0.0, 0.3)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved inputs of one experiment run."""

    scenario: str
    trials: int
    seed: int
    snr_list_db: tuple[float, ...]
    x_true: Point2
    matrix_kind: str
    m_rows: int
    w_rowl: WeightPair
    w_erowl: WeightPair
    firm_lambda2: float = 3.0
    gamma_delta: float = 1.01
    gamma_mu: float = 0.5
    mu_override: float | None = None
    delta_override: float | None = None
    x1_sweep: tuple[float, ...] = ()
    rowl_w_by_snr: dict[float, WeightPair] | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_IDS:
            raise ValueError(f"scenario must be one of {sorted(SCENARIO_IDS)}, got {self.scenario!r}")
        if self.matrix_kind not in ("fixed", "gaussian"):
            raise ValueError(f"matrix_kind must be 'fixed' or 'gaussian', got {self.matrix_kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_list_db:
            raise ValueError("snr_list_db must be nonempty")
        if self.matrix_kind == "fixed" and self.m_rows != 2:
            raise ValueError("the fixed design matrix has 2 rows")
        object.__setattr__(self, "snr_list_db", tuple(float(s) for s in self.snr_list_db))
        object.__setattr__(self, "x1_sweep", tuple(float(v) for v in self.x1_sweep))

    @classmethod
    def scenario_a_defaults(cls, seed: int = 12345, out_path: str | None = None, **kw) -> "ScenarioConfig":
        """Noiseless fixed-design run: relaxed weights (0, 2) against plain (0, 0.03), step 2."""
        return cls(
            scenario="A",
            trials=1,
            seed=seed,
            snr_list_db=(math.inf,),
            x_true=Point2(0.0, 1.0),
            matrix_kind="fixed",
            m_rows=2,
            w_rowl=WeightPair(0.0, 0.03),
            w_erowl=WeightPair(0.0, 2.0),
            mu_override=2.0,
            out_path=out_path,
            **kw,
        )

    @classmethod
    def scenario_b_defaults(
        cls,
        seed: int = 12345,
        trials: int = 500,
        snr_list_db: tuple[float, ...] = (20.0,),
        matrix_kind: str = "fixed",
        m_rows: int = 2,
        out_path: str | None = None,
        **kw,
    ) -> "ScenarioConfig":
        """Noisy trials with a nearly sparse truth ``(0.01, 1)``."""
        return cls(
            scenario="B",
            trials=trials,
            seed=seed,
            snr_list_db=snr_list_db,
            x_true=Point2(0.01, 1.0),
            matrix_kind=matrix_kind,
            m_rows=m_rows,
            w_rowl=WeightPair(0.0, 0.01),
            w_erowl=WeightPair(0.0, 1.0),
            out_path=out_path,
            **kw,
        )

    @classmethod
    def scenario_c_defaults(
        cls,
        seed: int = 12345,
        trials: int = 500,
        snr_list_db: tuple[float, ...] = (20.0, 10.0),
        x1_sweep: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0),
        out_path: str | None = None,
        **kw,
    ) -> "ScenarioConfig":
        """Random-design sweep of the large truth component, firm shrinkage added."""
        return cls(
            scenario="C",
            trials=trials,
            seed=seed,
            snr_list_db=snr_list_db,
            x_true=Point2(1.0, 0.01),
            matrix_kind="gaussian",
            m_rows=4,
            w_rowl=WeightPair(0.0, 0.1),
            w_erowl=WeightPair(0.0, 1.0),
            x1_sweep=x1_sweep,
            rowl_w_by_snr=_default_rowl_w_by_snr(),
            out_path=out_path,
            **kw,
        )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one method on one trial.

    ``stop_reason`` is the solver's :attr:`~proxlab.solver.PfbsResult.stop_reason`
    (``"converged"`` for the closed-form LS rows).  It is not a CSV column.
    """

    scenario: str
    method: str
    trial: int
    snr_db: float
    x_true: Point2
    x_hat: Point2
    mismatch_db: float
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def row(self) -> tuple:
        return (
            self.scenario,
            self.method,
            self.trial,
            self.snr_db,
            self.x_true.x1,
            self.x_true.x2,
            self.x_hat.x1,
            self.x_hat.x2,
            self.mismatch_db,
            self.iterations,
            self.converged,
        )


def system_mismatch(x_hat, x_true) -> float:
    """Relative squared error in dB, floored at -400 dB (exact recovery included)."""
    xh, xt = Point2.of(x_hat), Point2.of(x_true)
    ref = xt.x1 * xt.x1 + xt.x2 * xt.x2
    if ref == 0.0:
        raise ValueError("x_true must be nonzero to normalize the mismatch")
    e1, e2 = xh.x1 - xt.x1, xh.x2 - xt.x2
    err = e1 * e1 + e2 * e2
    if err == 0.0:
        return MISMATCH_FLOOR_DB
    return max(10.0 * math.log10(err / ref), MISMATCH_FLOOR_DB)


def _draw_trial(
    cfg: ScenarioConfig, trial_index: int
) -> tuple[np.ndarray, SpectralBounds, int, list[float]]:
    """The trial's design, its spectral bounds, the number of redraws, and its unit noise.

    All come from the trial's own stream: a random design first (row major),
    redrawn while singular, then one unit normal per row.
    """
    gen = stream(cfg.seed, SCENARIO_IDS[cfg.scenario], trial_index)
    resamples = 0
    if cfg.matrix_kind == "fixed":
        a = fixed_design_matrix()
        bounds = spectral_bounds(a)
    else:
        for _ in range(_MAX_RESAMPLES):
            a = np.array([[gen.normal(), gen.normal()] for _ in range(cfg.m_rows)])
            bounds = spectral_bounds(a)
            if bounds.rho > _SINGULAR_RTOL * max(bounds.kappa, 1.0):
                break
            resamples += 1
            logger.info(
                "resampling singular design (seed=%d trial=%d attempt=%d)",
                cfg.seed, trial_index, resamples,
            )
        else:
            raise RuntimeError(f"could not draw a nonsingular design in {_MAX_RESAMPLES} tries")
    noise = [gen.normal() for _ in range(cfg.m_rows)]
    return a, bounds, resamples, noise


def _observe(a: np.ndarray, noise: list[float], snr_db: float, x_true: Point2) -> LinearModel:
    """The model ``y = A x_true + sigma * noise``, noiseless at infinite SNR."""
    clean = [r[0] * x_true.x1 + r[1] * x_true.x2 for r in a.tolist()]
    if math.isinf(snr_db):
        y = clean
    else:
        power = 0.0
        for v in clean:
            power += v * v
        sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0) / len(clean))
        y = [v + sigma * z for v, z in zip(clean, noise)]
    return LinearModel(a, np.array(y), x_true=x_true)


def generate_model(cfg: ScenarioConfig, trial_index: int, snr_db: float) -> LinearModel:
    """Design matrix and observation for one trial, drawn from the trial's own stream.

    The stream is keyed by ``(seed, scenario, trial)``; a random design is
    drawn first (row major), then unit noise, scaled to the requested SNR via
    ``sigma^2 = ||A x_true||^2 10^(-snr/10) / M``.  An (almost surely
    impossible) singular design is redrawn from the same stream.  The noise
    does not depend on the SNR or on ``x_true``.
    """
    a, _, _, noise = _draw_trial(cfg, trial_index)
    return _observe(a, noise, snr_db, cfg.x_true)


def _least_squares(model: LinearModel) -> Point2:
    g11, g12, g22, c1, c2 = model.gram_terms()
    det = g11 * g22 - g12 * g12
    if det == 0.0:
        raise ValueError("Gram matrix is singular")
    return Point2((g22 * c1 - g12 * c2) / det, (g11 * c2 - g12 * c1) / det)


def _record(
    cfg: ScenarioConfig, method: str, trial: int, snr_db: float, x_true: Point2,
    x_hat: Point2, iterations: int, stop_reason: str,
) -> TrialRecord:
    return TrialRecord(
        scenario=cfg.scenario,
        method=method,
        trial=trial,
        snr_db=snr_db,
        x_true=x_true,
        x_hat=x_hat,
        mismatch_db=system_mismatch(x_hat, x_true),
        iterations=iterations,
        stop_reason=stop_reason,
    )


def _solver_mu(cfg: ScenarioConfig, params) -> float:
    return cfg.mu_override if cfg.mu_override is not None else params.mu


def _solver_delta(cfg: ScenarioConfig, params) -> float:
    return cfg.delta_override if cfg.delta_override is not None else params.delta


@dataclass(frozen=True)
class ScenarioAResult:
    """Records plus full iterate trajectories of the single noiseless run."""

    records: tuple[TrialRecord, ...]
    trajectories: dict[str, tuple[Point2, ...]]


def scenario_a(cfg: ScenarioConfig) -> ScenarioAResult:
    """One noiseless fixed-design run of plain and relaxed ordered weighted shrinkage.

    Writes ``trajectory_rowl.csv``, ``trajectory_erowl.csv``, ``summary.csv``
    and ``meta.json`` when an output directory is configured.
    """
    snr_db = cfg.snr_list_db[0]
    a, bounds, _, noise = _draw_trial(cfg, 0)
    model = _observe(a, noise, snr_db, cfg.x_true)
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    mu = _solver_mu(cfg, params)

    records: list[TrialRecord] = []
    trajectories: dict[str, tuple[Point2, ...]] = {}
    runs = (
        ("ROWL", rowl_shrinker(cfg.w_rowl)),
        ("eROWL", erowl_shrinker(ErowlParams(cfg.w_erowl, _solver_delta(cfg, params)))),
    )
    for method, shrink in runs:
        res = pfbs(model, shrink, mu, tol=cfg.tol, max_iter=cfg.max_iter, record_trace=True)
        records.append(
            _record(cfg, method, 0, snr_db, cfg.x_true, res.x_hat, res.iterations, res.stop_reason)
        )
        trajectories[method] = tuple(res.trajectory())
    records.sort(key=_sort_key)

    if cfg.out_path is not None:
        os.makedirs(cfg.out_path, exist_ok=True)
        for method, name in (("ROWL", "trajectory_rowl.csv"), ("eROWL", "trajectory_erowl.csv")):
            _write_trajectory(os.path.join(cfg.out_path, name), trajectories[method])
        write_records_csv(os.path.join(cfg.out_path, "summary.csv"), records)
        _write_meta(cfg, {"rho": bounds.rho, "kappa": bounds.kappa, "delta": params.delta,
                          "beta": params.beta, "mu": mu, "resampled_trials": 0})
    return ScenarioAResult(tuple(records), trajectories)


def _cell_records(
    cfg: ScenarioConfig, trial: int, snr_db: float, model: LinearModel, runs
) -> list[TrialRecord]:
    """LS plus one solve per ``(method, shrink, step)`` run on one cell's model."""
    x_true = model.x_true
    out = [_record(cfg, "LS", trial, snr_db, x_true, _least_squares(model), 0, "converged")]
    for method, shrink, step in runs:
        res = pfbs(model, shrink, step, tol=cfg.tol, max_iter=cfg.max_iter, record_trace=False)
        out.append(_record(cfg, method, trial, snr_db, x_true, res.x_hat, res.iterations, res.stop_reason))
    return out


def _trial_records_b(cfg: ScenarioConfig, trial: int) -> tuple[list[TrialRecord], int]:
    a, bounds, resamples, noise = _draw_trial(cfg, trial)
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    mu = _solver_mu(cfg, params)
    runs = (
        ("ROWL", rowl_shrinker(cfg.w_rowl), mu),
        ("eROWL", erowl_shrinker(ErowlParams(cfg.w_erowl, _solver_delta(cfg, params))), mu),
    )
    out: list[TrialRecord] = []
    for snr_db in cfg.snr_list_db:
        out += _cell_records(cfg, trial, snr_db, _observe(a, noise, snr_db, cfg.x_true), runs)
    return out, resamples


def _rowl_weights_for(cfg: ScenarioConfig, snr_db: float) -> WeightPair:
    if cfg.rowl_w_by_snr and snr_db in cfg.rowl_w_by_snr:
        return cfg.rowl_w_by_snr[snr_db]
    return cfg.w_rowl


def _trial_records_c(cfg: ScenarioConfig, trial: int) -> tuple[list[TrialRecord], int]:
    a, bounds, resamples, noise = _draw_trial(cfg, trial)
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    mu = _solver_mu(cfg, params)
    erowl = erowl_shrinker(ErowlParams(cfg.w_erowl, _solver_delta(cfg, params)))
    fp, mu_f = firm_rule(bounds, cfg.firm_lambda2, cfg.gamma_mu)
    firm = firm_shrinker(fp)
    sweep = cfg.x1_sweep if cfg.x1_sweep else (cfg.x_true.x1,)
    out: list[TrialRecord] = []
    for snr_db in cfg.snr_list_db:
        runs = (
            ("ROWL", rowl_shrinker(_rowl_weights_for(cfg, snr_db)), mu),
            ("eROWL", erowl, mu),
            ("firm", firm, mu_f),
        )
        for x1 in sweep:
            model = _observe(a, noise, snr_db, Point2(x1, cfg.x_true.x2))
            out += _cell_records(cfg, trial, snr_db, model, runs)
    return out, resamples


def firm_rule(bounds, lambda2: float, gamma_mu: float) -> tuple[FirmParams, float]:
    """Firm thresholds and step tied to the Gram spectrum.

    The dead zone ends where the data term can no longer move a component:
    ``lambda1 = rho * lambda2 / (kappa + rho)``, with slope index
    ``beta = 1 - lambda1/lambda2 = kappa / (kappa + rho)`` and the step
    interpolated the same way as for the relaxed shrinkers.
    """
    rho, kappa = bounds.rho, bounds.kappa
    lam1 = rho * lambda2 / (kappa + rho)
    beta_f = kappa / (kappa + rho)
    return FirmParams(lam1, lambda2), _interpolated_step(bounds, beta_f, gamma_mu)


def _sort_key(r: TrialRecord):
    return (r.method, r.snr_db, r.x_true.x1, r.trial)


def _run_tasks(cfg: ScenarioConfig, trials, worker) -> tuple[list[TrialRecord], int]:
    """Run ``worker`` on each trial; sorted records and the number of resampled trials."""
    records: list[TrialRecord] = []
    resampled = 0
    for trial in trials:
        recs, resamples = worker(cfg, trial)
        records.extend(recs)
        resampled += resamples > 0
    records.sort(key=_sort_key)
    return records, resampled


def scenario_b(cfg: ScenarioConfig) -> list[TrialRecord]:
    """Repeated noisy trials of LS, plain, and relaxed shrinkage at each SNR.

    Writes ``records.csv``, ``means.csv`` and ``meta.json`` when an output
    directory is configured.  Returns records sorted by method, SNR, trial.
    """
    records, resampled = _run_tasks(cfg, range(cfg.trials), _trial_records_b)
    if cfg.out_path is not None:
        extra: dict = {"resampled_trials": resampled}
        if cfg.matrix_kind == "fixed":
            bounds = spectral_bounds(fixed_design_matrix())
            params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
            extra.update(rho=bounds.rho, kappa=bounds.kappa, delta=params.delta,
                         beta=params.beta, mu=_solver_mu(cfg, params))
        _write_run(cfg, records, extra)
    return records


def scenario_c(cfg: ScenarioConfig) -> list[TrialRecord]:
    """Random-design trials sweeping the large truth component, firm shrinkage included.

    Each trial draws its design and unit noise once and solves every
    (SNR, x1) cell on them.
    """
    records, resampled = _run_tasks(cfg, range(cfg.trials), _trial_records_c)
    if cfg.out_path is not None:
        _write_run(cfg, records, {"resampled_trials": resampled})
    return records


def _mismatch_groups(records) -> dict[tuple[str, float, float], list[float]]:
    """Mismatches keyed by ``(method, snr_db, xtrue1)``, both in record order."""
    groups: dict[tuple[str, float, float], list[float]] = {}
    for r in records:
        groups.setdefault((r.method, r.snr_db, r.x_true.x1), []).append(r.mismatch_db)
    return groups


def mean_mismatch(records) -> dict[tuple[str, float, float], float]:
    """Mean mismatch keyed by ``(method, snr_db, xtrue1)``, in record order."""
    return {k: sum(v) / len(v) for k, v in _mismatch_groups(records).items()}


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_records_csv(path: str, records) -> None:
    """Write trial records with 17-significant-digit decimals."""
    lines = [",".join(RECORD_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in r.row()))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_means_csv(path: str, records) -> None:
    """Write per-(method, SNR, truth) mean mismatches."""
    lines = ["scenario,method,snr_db,xtrue1,mean_mismatch_db,trials"]
    scenario = records[0].scenario if records else ""
    for (method, snr_db, x1), vals in sorted(_mismatch_groups(records).items()):
        lines.append(
            ",".join(
                (scenario, method, _fmt(snr_db), _fmt(x1),
                 _fmt(sum(vals) / len(vals)), str(len(vals)))
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trajectory(path: str, traj) -> None:
    lines = ["step,x1,x2"]
    for k, p in enumerate(traj):
        lines.append(",".join((_fmt(0.5 * k), _fmt(p.x1), _fmt(p.x2))))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    return v


def _write_meta(cfg: ScenarioConfig, extra: dict) -> None:
    meta = {
        "schema": 2,
        "scenario": cfg.scenario,
        "config": _jsonable(dataclasses.asdict(cfg)),
        "derived": _jsonable(extra),
    }
    with open(os.path.join(cfg.out_path, "meta.json"), "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run(cfg: ScenarioConfig, records, extra: dict) -> None:
    os.makedirs(cfg.out_path, exist_ok=True)
    write_records_csv(os.path.join(cfg.out_path, "records.csv"), records)
    write_means_csv(os.path.join(cfg.out_path, "means.csv"), records)
    _write_meta(cfg, extra)
