"""Desk-scale recovery experiments comparing shrinkage operators.

Three scenarios on the model ``y = A x + noise`` with a 2-D ground truth:

* A: one noiseless run on the fixed ill-conditioned 2x2 design, trajectories kept;
* B: repeated noisy trials on the fixed design at given SNRs, mean mismatch
  per method;
* C: like B on a 4x2 Gaussian design drawn per trial, with a swept first
  ground-truth component and componentwise firm shrinkage added to the
  method set.

The scenario decides the design.  B and C run through one function
(``scenario_c`` is ``scenario_b``) and one trial worker.  Every trial draws
from its own counter-based stream keyed by ``(seed, scenario, trial)``, so
record sets are bitwise reproducible under any trial order.  An A or B run
builds its one fixed design record (bounds, step, relaxation, shrinkers) once;
a C trial builds its own.  A trial draws its unit noise once and reuses it in
each of its (SNR, x1) cells.  Each cell's model is built by the one
``LinearModel`` constructor on the path :func:`generate_model` takes, so it is
the model that function draws for the cell.  A B or C run draws every trial's
cells first; then each method's solves of all the cells start together in
:func:`~proxlab.solver.pfbs_lockstep`, and each solve it hands back runs on in
this module's ``pfbs`` from its iterate, with the steps already done added to
its iterations.  The records are those of one scalar solve per cell.  Output
files are plain CSV with 17-significant-digit decimals plus a ``meta.json`` of
the resolved setup.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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
    PfbsResult,
    SpectralBounds,
    _interpolated_step,
    pfbs,
    pfbs_lockstep,
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
#: Rows of the Gaussian design that each scenario C trial draws.
_GAUSSIAN_ROWS = 4

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


#: What each scenario fixes unless a setting replaces it.  A: one noiseless fixed-design run at
#: step 2, relaxed weights (0, 2) against plain (0, 0.03).  B: noisy trials, nearly sparse truth
#: (0.01, 1).  C: random designs, large truth component swept, firm added, ROWL weights per SNR.
_SCENARIOS = {
    "A": dict(trials=1, snr_list_db=(math.inf,), x_true=Point2(0.0, 1.0),
              w_rowl=WeightPair(0.0, 0.03), w_erowl=WeightPair(0.0, 2.0), mu_override=2.0),
    "B": dict(trials=500, snr_list_db=(20.0,), x_true=Point2(0.01, 1.0),
              w_rowl=WeightPair(0.0, 0.01), w_erowl=WeightPair(0.0, 1.0)),
    "C": dict(trials=500, snr_list_db=(20.0, 10.0), x_true=Point2(1.0, 0.01),
              w_rowl=WeightPair(0.0, 0.1), w_erowl=WeightPair(0.0, 1.0),
              x1_sweep=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0),
              rowl_w_by_snr={20.0: WeightPair(0.0, 0.1), 10.0: WeightPair(0.0, 0.3)}),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved inputs of one experiment run.

    ``tol``, ``max_iter`` and ``firm_lambda2`` are constants of every run:
    readable as fields, written to ``meta.json`` with them, but not settable.
    """

    tol: ClassVar[float] = DEFAULT_TOL
    max_iter: ClassVar[int] = DEFAULT_MAX_ITER
    firm_lambda2: ClassVar[float] = 3.0

    scenario: str
    trials: int
    seed: int
    snr_list_db: tuple[float, ...]
    x_true: Point2
    w_rowl: WeightPair
    w_erowl: WeightPair
    gamma_delta: float = 1.01
    gamma_mu: float = 0.5
    mu_override: float | None = None
    delta_override: float | None = None
    x1_sweep: tuple[float, ...] = ()
    rowl_w_by_snr: dict[float, WeightPair] | None = None
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_IDS:
            raise ValueError(f"scenario must be one of {sorted(SCENARIO_IDS)}, got {self.scenario!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_list_db:
            raise ValueError("snr_list_db must be nonempty")
        object.__setattr__(self, "snr_list_db", tuple(float(s) for s in self.snr_list_db))
        for snr_db in self.snr_list_db:
            if math.isnan(snr_db) or snr_db == -math.inf:
                raise ValueError(f"SNR must be a finite number of dB or +inf (noiseless), got {snr_db!r}")
        object.__setattr__(self, "x1_sweep", tuple(float(v) for v in self.x1_sweep))
        for name in ("snr_list_db", "x1_sweep"):
            seen: set[float] = set()
            for v in getattr(self, name):
                if v in seen:
                    raise ValueError(f"{name} repeats {v!r}: its cells would be solved and counted twice")
                seen.add(v)
        if self.scenario == "A" and (self.trials != 1 or len(self.snr_list_db) != 1 or self.x1_sweep):
            raise ValueError("scenario A runs one trial at one SNR with no x1 sweep")

    @classmethod
    def defaults(cls, scenario: str, seed: int = 12345, **settings) -> "ScenarioConfig":
        """The run ``_SCENARIOS`` declares for ``scenario``, with ``settings`` in place of its values."""
        # Each config gets its own ``rowl_w_by_snr`` dict: changing one changes no other run.
        fixed = {k: dict(v) if isinstance(v, dict) else v for k, v in _SCENARIOS[scenario].items()}
        return cls(scenario=scenario, seed=seed, **{**fixed, **settings})

    scenario_a_defaults = functools.partialmethod(defaults, "A")
    scenario_b_defaults = functools.partialmethod(defaults, "B")
    scenario_c_defaults = functools.partialmethod(defaults, "C")


class TrialRecord(NamedTuple):
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


class _Design(NamedTuple):
    """A design and all a run derives from it: ``A`` and its rows, the spectral bounds, the step ``mu``
    of ROWL and eROWL, the :class:`~proxlab.erowl.ErowlParams` of eROWL's shrinker (``mu`` and its
    ``delta`` each the override when one is set), and each SNR's ``(method, shrinker, step)`` runs."""

    a: np.ndarray
    rows: list
    bounds: SpectralBounds
    mu: float
    erowl: ErowlParams
    runs: dict


def _design(cfg: ScenarioConfig, a: np.ndarray, bounds: SpectralBounds) -> _Design:
    """The cells' shared setup on design ``a``; the ROWL weights may differ per SNR, and scenario C adds firm."""
    params = select_parameters(bounds, cfg.gamma_delta, cfg.gamma_mu)
    mu = params.mu if cfg.mu_override is None else cfg.mu_override
    erowl = ErowlParams(cfg.w_erowl, params.delta if cfg.delta_override is None else cfg.delta_override)
    erowl_run = ("eROWL", erowl_shrinker(erowl), mu)
    firm = ()
    if cfg.scenario == "C":
        fp, mu_f = firm_rule(bounds, cfg.firm_lambda2, cfg.gamma_mu)
        firm = (("firm", firm_shrinker(fp), mu_f),)
    runs = {snr_db: (("ROWL", rowl_shrinker((cfg.rowl_w_by_snr or {}).get(snr_db, cfg.w_rowl)), mu), erowl_run, *firm)
            for snr_db in cfg.snr_list_db}
    return _Design(a, a.tolist(), bounds, mu, erowl, runs)


def _fixed_design(cfg: ScenarioConfig) -> _Design | None:
    """The :func:`fixed_design_matrix` record an A or B run shares; ``None`` in scenario C."""
    if cfg.scenario == "C":
        return None
    a = fixed_design_matrix()
    return _design(cfg, a, spectral_bounds(a))


def _draw_trial(cfg: ScenarioConfig, trial_index: int, design: _Design | None) -> tuple[_Design, int, list[float]]:
    """The trial's design record, the number of redraws, and its unit noise.

    An A or B run passes its one ``design``, so its trials share it.  Without
    one (scenario C) the trial's own stream yields a 4x2 Gaussian design first
    (row major), redrawn while singular.  Then it yields one unit normal per row.
    """
    gen = stream(cfg.seed, SCENARIO_IDS[cfg.scenario], trial_index)
    resamples = 0
    if design is None:
        for _ in range(_MAX_RESAMPLES):
            a = np.array([[gen.normal(), gen.normal()] for _ in range(_GAUSSIAN_ROWS)])
            bounds = spectral_bounds(a)
            if bounds.rho > _SINGULAR_RTOL * max(bounds.kappa, 1.0):
                break
            resamples += 1
            logger.info("resampling singular design (seed=%d trial=%d attempt=%d)",
                        cfg.seed, trial_index, resamples)
        else:
            raise RuntimeError(f"could not draw a nonsingular design in {_MAX_RESAMPLES} tries")
        design = _design(cfg, a, bounds)
    noise = [gen.normal() for _ in range(len(design.rows))]
    return design, resamples, noise


def _cell_model(design: _Design, noise: list[float], snr_db: float, x_true: Point2) -> LinearModel:
    """One (SNR, ``x_true``) cell's model on ``design``: ``A`` and ``y = A x_true + sigma * noise``,
    row by row with the trial's unit ``noise`` (none at infinite SNR).  The model keeps no truth."""
    y = [r1 * x_true.x1 + r2 * x_true.x2 for r1, r2 in design.rows]
    if not math.isinf(snr_db):
        power = 0.0
        for v in y:
            power += v * v
        sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0) / len(y))
        y = [v + sigma * z for v, z in zip(y, noise)]
    return LinearModel(design.a, y)


def generate_model(cfg: ScenarioConfig, trial_index: int, snr_db: float) -> LinearModel:
    """The model ``A``, ``y`` of one trial at ``cfg.x_true``, drawn from the trial's own stream.

    The stream is keyed by ``(seed, scenario, trial)``; scenario C draws its
    Gaussian design first (row major), then unit noise, scaled to the requested SNR via
    ``sigma^2 = ||A x_true||^2 10^(-snr/10) / M``.  An (almost surely
    impossible) singular design is redrawn from the same stream.  The noise
    does not depend on the SNR or on ``x_true``.  The design's parameters are
    selected as in a run, so a config no run can take raises the run's ``ValueError``.
    """
    design, _, noise = _draw_trial(cfg, trial_index, _fixed_design(cfg))
    return _cell_model(design, noise, snr_db, cfg.x_true)


def _least_squares(model: LinearModel) -> Point2:
    """Solution of the normal equations.

    ``det`` is never zero here: a zero ``det`` makes :func:`spectral_bounds`
    give ``rho == 0``, and a run solves only on designs with ``rho > 1e-12 * max(kappa, 1)``.
    """
    g11, g12, g22, c1, c2 = model.gram_terms()
    det = g11 * g22 - g12 * g12
    return Point2((g22 * c1 - g12 * c2) / det, (g11 * c2 - g12 * c1) / det)


def _record(cfg: ScenarioConfig, method: str, trial: int, snr_db: float, x_true: Point2,
            res: PfbsResult) -> TrialRecord:
    return TrialRecord(cfg.scenario, method, trial, snr_db, x_true, res.x_hat,
                       system_mismatch(res.x_hat, x_true), res.iterations, res.stop_reason)


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
    design, _, noise = _draw_trial(cfg, 0, _fixed_design(cfg))
    model = _cell_model(design, noise, snr_db, cfg.x_true)
    records: list[TrialRecord] = []
    trajectories: dict[str, tuple[Point2, ...]] = {}
    for method, shrink, mu in design.runs[snr_db]:
        res = pfbs(model, shrink, mu, tol=cfg.tol, max_iter=cfg.max_iter, record_trace=True)
        records.append(_record(cfg, method, 0, snr_db, cfg.x_true, res))
        trajectories[method] = tuple(res.trajectory())
    records.sort(key=_sort_key)

    if cfg.out_path is not None:
        os.makedirs(cfg.out_path, exist_ok=True)
        for method, name in (("ROWL", "trajectory_rowl.csv"), ("eROWL", "trajectory_erowl.csv")):
            _write_trajectory(os.path.join(cfg.out_path, name), trajectories[method])
        write_records_csv(os.path.join(cfg.out_path, "summary.csv"), records)
        _write_meta(cfg, design, 0)
    return ScenarioAResult(tuple(records), trajectories)


class _Cell(NamedTuple):
    """One (SNR, ``x_true``) cell of a trial: its model and its ``(method, shrinker, step)`` runs."""

    trial: int
    snr_db: float
    x_true: Point2
    model: LinearModel
    runs: tuple


def _trial_cells(cfg: ScenarioConfig, trial: int, design: _Design | None) -> tuple[list[_Cell], int]:
    """Each (SNR, x1) cell of one trial, and the number of redraws.

    The cells share the trial's unit noise and its :class:`_Design`: a B
    run's one ``design``, or the one a C trial draws.
    """
    design, resamples, noise = _draw_trial(cfg, trial, design)
    cells = [_Cell(trial, snr_db, x_true, _cell_model(design, noise, snr_db, x_true), design.runs[snr_db])
             for snr_db in cfg.snr_list_db
             for x_true in (Point2(x1, cfg.x_true.x2) for x1 in cfg.x1_sweep or (cfg.x_true.x1,))]
    return cells, resamples


def _solve_cells(cfg: ScenarioConfig, cells: list[_Cell]) -> list[TrialRecord]:
    """LS, ROWL and eROWL (and firm in scenario C) records of every cell.

    Each method's solves start together in :func:`~proxlab.solver.pfbs_lockstep`;
    each solve it hands back runs on in this module's ``pfbs`` from where it stopped.
    """
    out = [_record(cfg, "LS", cell.trial, cell.snr_db, cell.x_true,
                   PfbsResult(_least_squares(cell.model), 0, "converged", None)) for cell in cells]
    for m in range(len(cells[0].runs) if cells else 0):
        solves = [(cell.model, *cell.runs[m][1:]) for cell in cells]
        for cell, solve, res in zip(cells, solves, pfbs_lockstep(solves, cfg.tol, cfg.max_iter)):
            if not isinstance(res, PfbsResult):
                x, k = res
                res = pfbs(*solve, x0=x, tol=cfg.tol, max_iter=cfg.max_iter - k, record_trace=False)
                res = res._replace(iterations=res.iterations + k)
            out.append(_record(cfg, cell.runs[m][0], cell.trial, cell.snr_db, cell.x_true, res))
    return out


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


def _run_tasks(cfg: ScenarioConfig, trials, worker) -> tuple[list[_Cell], int]:
    """Run ``worker`` on each trial; the cells in trial order and the number of resampled trials."""
    cells: list[_Cell] = []
    resampled = 0
    for trial in trials:
        trial_cells, resamples = worker(cfg, trial)
        cells.extend(trial_cells)
        resampled += resamples > 0
    return cells, resampled


def scenario_b(cfg: ScenarioConfig) -> list[TrialRecord]:
    """Every trial of a B or C run (``cfg.scenario`` decides), sorted by method, SNR, x1, trial.

    Every trial's cells are drawn first, then each method's solves of all
    the cells run together (see :func:`_solve_cells`).  Writes
    ``records.csv``, ``means.csv`` and ``meta.json`` when an output
    directory is configured.
    """
    design = _fixed_design(cfg)
    cells, resampled = _run_tasks(cfg, range(cfg.trials), functools.partial(_trial_cells, design=design))
    records = _solve_cells(cfg, cells)
    records.sort(key=_sort_key)
    if cfg.out_path is not None:
        os.makedirs(cfg.out_path, exist_ok=True)
        write_records_csv(os.path.join(cfg.out_path, "records.csv"), records)
        write_means_csv(os.path.join(cfg.out_path, "means.csv"), records)
        _write_meta(cfg, design, resampled)
    return records


#: Scenario C runs through the same function; the name stays for its callers.
scenario_c = scenario_b


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
    return format(float(v), ".17g")


def _write_lines(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_records_csv(path: str, records) -> None:
    """Write trial records with 17-significant-digit decimals, one template per row."""
    rows = ["%s,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s" % (
        r.scenario, r.method, r.trial, r.snr_db, r.x_true.x1, r.x_true.x2, r.x_hat.x1, r.x_hat.x2,
        r.mismatch_db, r.iterations, "true" if r.converged else "false") for r in records]
    _write_lines(path, [",".join(RECORD_COLUMNS)] + rows)


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
    _write_lines(path, lines)


def _write_trajectory(path: str, traj) -> None:
    lines = ["step,x1,x2"]
    for k, p in enumerate(traj):
        lines.append(",".join((_fmt(0.5 * k), _fmt(p.x1), _fmt(p.x2))))
    _write_lines(path, lines)


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    return v


def _write_meta(cfg: ScenarioConfig, design: _Design | None, resampled: int) -> None:
    """``meta.json``: the config and, for a run on one design, its bounds, the step ``mu`` and the
    ``delta`` and ``beta`` of the :class:`~proxlab.erowl.ErowlParams` the solves ran with."""
    derived: dict = {"resampled_trials": resampled}
    if design is not None:
        derived.update(rho=design.bounds.rho, kappa=design.bounds.kappa, delta=design.erowl.delta,
                       beta=design.erowl.beta, mu=design.mu)
    meta = {
        "schema": 4,
        "scenario": cfg.scenario,
        "config": _jsonable({**dataclasses.asdict(cfg), "tol": cfg.tol,
                             "max_iter": cfg.max_iter, "firm_lambda2": cfg.firm_lambda2}),
        "derived": _jsonable(derived),
    }
    _write_lines(os.path.join(cfg.out_path, "meta.json"), [json.dumps(meta, indent=2, sort_keys=True)])
