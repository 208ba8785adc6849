"""Output checks of the benchmark passes.

Every check compares a program output with a separate computation or with a
property the method must have; none compares with stored output, except that
each pass of a run must repeat the bytes of the run's first pass.

Monte Carlo passes are checked from the CSV files the program wrote.  An
operation is one ``(trial, snr_db, xtrue1)`` task with all of its method
rows; :meth:`McChecker.check` returns the tasks that a check rejects.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np

from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, erowl
from proxlab.experiments import MISMATCH_FLOOR_DB, generate_model
from proxlab.rowl import prox_rowl_2d, rowl_shrinker
from proxlab.scalar_ops import FirmParams, firm
from proxlab.solver import pfbs, select_parameters, spectral_bounds

EPS = float(np.finfo(float).eps)
#: Longest orbit a non-converged ROWL solve may trace and still count as an exact cycle.
MAX_CYCLE_PERIOD = 8
#: Acceptance tolerances of the grid oracles, in grid steps or absolute units.
INCLUSION_STEPS = 2.0
ENVELOPE_TOL_2D = 5e-2
ENVELOPE_TOL_1D = 5e-3
CONVERT_TOL = 1e-9
MISMATCH_TOL_DB = 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo passes


@dataclasses.dataclass(frozen=True)
class Row:
    """One parsed line of ``records.csv``."""

    method: str
    trial: int
    snr_db: float
    x_true: tuple[float, float]
    x_hat: tuple[float, float]
    mismatch_db: float
    iterations: int
    converged: bool

    @property
    def op(self) -> tuple[int, float, float]:
        return (self.trial, self.snr_db, self.x_true[0])


def parse_records(text: str) -> list[tuple[Row, str]]:
    """Rows of ``records.csv`` with the raw line of each."""
    lines = text.splitlines()
    out = []
    for line, f in zip(lines[1:], csv.DictReader(io.StringIO(text))):
        out.append((
            Row(
                method=f["method"],
                trial=int(f["trial"]),
                snr_db=float(f["snr_db"]),
                x_true=(float(f["xtrue1"]), float(f["xtrue2"])),
                x_hat=(float(f["xhat1"]), float(f["xhat2"])),
                mismatch_db=float(f["mismatch_db"]),
                iterations=int(f["iterations"]),
                converged={"true": True, "false": False}[f["converged"]],
            ),
            line,
        ))
    return out


def mismatch_db(x_hat, x_true) -> float:
    """Relative squared error in dB, floored like the program's metric."""
    xh, xt = np.asarray(x_hat), np.asarray(x_true)
    err = float(np.sum((xh - xt) ** 2))
    if err == 0.0:
        return MISMATCH_FLOOR_DB
    return max(10.0 * math.log10(err / float(np.sum(xt * xt))), MISMATCH_FLOOR_DB)


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Step sizes and shrinkage parameters recomputed from ``eigvalsh(A^T A)``."""

    gram: np.ndarray
    rhs: np.ndarray
    rho: float
    kappa: float

    @classmethod
    def of(cls, model) -> "Spectrum":
        a, y = model.a_matrix, model.y
        gram = a.T @ a
        rho, kappa = np.linalg.eigvalsh(gram)
        return cls(gram, a.T @ y, float(rho), float(kappa))

    def step(self, beta: float, gamma_mu: float) -> float:
        return gamma_mu * (1.0 - beta) / self.rho + (1.0 - gamma_mu) * (1.0 + beta) / self.kappa

    def forward(self, x: np.ndarray, mu: float) -> np.ndarray:
        return x - mu * (self.gram @ x - self.rhs)

    def forward_norm(self, mu: float) -> float:
        """Lipschitz constant of the gradient step ``x - mu * grad``."""
        return max(abs(1.0 - mu * self.rho), abs(1.0 - mu * self.kappa))


def fixed_point_residual(row: Row, spec: Spectrum, cfg, w_rowl: WeightPair) -> tuple[float, float]:
    """Distance from ``x_hat`` to its image under the method's PFBS operator, and its tolerance.

    The operator is evaluated through a separate path from the solver's
    closure: ``prox_rowl_2d`` membership for ROWL, the vectorised ``erowl``
    for eROWL and ``firm`` for firm shrinkage, after a numpy gradient step
    whose step size comes from ``eigvalsh``.  A solve stops once two iterates
    are ``tol`` apart, so its image lies within ``L * tol`` of it, where ``L``
    bounds the operator's Lipschitz constant; the rest of the tolerance covers
    rounding, which grows with the condition number.
    """
    x = np.asarray(row.x_hat)
    if row.method == "firm":
        lam2 = cfg.firm_lambda2
        beta = spec.kappa / (spec.kappa + spec.rho)
        mu = spec.step(beta, cfg.gamma_mu)
        h = spec.forward(x, mu)
        params = FirmParams(spec.rho * lam2 / (spec.kappa + spec.rho), lam2)
        dist = float(np.linalg.norm(np.asarray(firm(h, params)) - x))
        lip = lam2 / (lam2 - params.lambda1)
    else:
        delta = cfg.gamma_delta * (spec.kappa - spec.rho) / (2.0 * spec.rho)
        mu = spec.step(delta / (1.0 + delta), cfg.gamma_mu)
        h = spec.forward(x, mu)
        if row.method == "ROWL":
            dist = prox_rowl_2d(h, w_rowl).distance(Point2.of(x))
            lip = 1.0
        else:
            y = erowl(h, ErowlParams(cfg.w_erowl, delta))
            dist = float(np.linalg.norm(y - x))
            lip = 1.0 + 1.0 / delta
    cond = spec.kappa / spec.rho
    rounding = 64.0 * EPS * cond * lip * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(h)))
    return dist, lip * spec.forward_norm(mu) * cfg.tol + rounding


def normal_equations_residual(row: Row, spec: Spectrum) -> tuple[float, float]:
    """``|A^T A x - A^T y|`` at the LS row, and its rounding tolerance."""
    x = np.asarray(row.x_hat)
    resid = float(np.linalg.norm(spec.gram @ x - spec.rhs))
    scale = float(np.linalg.norm(spec.gram, 2)) * float(np.linalg.norm(x)) + float(np.linalg.norm(spec.rhs))
    return resid, 64.0 * EPS * (spec.kappa / spec.rho) * scale


def is_exact_cycle(row: Row, model, cfg, w_rowl: WeightPair) -> bool:
    """Whether the solver's own iteration map returns exactly to ``x_hat`` within a few steps."""
    params = select_parameters(spectral_bounds(model.a_matrix), cfg.gamma_delta, cfg.gamma_mu)
    res = pfbs(model, rowl_shrinker(w_rowl), params.mu, x0=Point2.of(row.x_hat),
               tol=cfg.tol, max_iter=MAX_CYCLE_PERIOD, record_trace=True)
    start = Point2.of(row.x_hat)
    return any(p == start for p in res.trajectory()[2::2])


def _lines(records_text: str, means_text: str) -> tuple[dict, dict]:
    """Raw lines of the two files keyed by task and by ``(method, snr_db, xtrue1)`` cell."""
    by_op: dict[tuple, list[str]] = {}
    for row, line in parse_records(records_text):
        by_op.setdefault(row.op, []).append(line)
    by_cell = {}
    for line in means_text.splitlines()[1:]:
        f = line.split(",")
        by_cell[(f[1], float(f[2]), float(f[3]))] = line
    return by_op, by_cell


def aggregate_means(rows) -> dict[tuple[str, float, float], tuple[float, int]]:
    """Mean mismatch and count per ``(method, snr_db, xtrue1)``, summed in file order."""
    groups: dict[tuple[str, float, float], list[float]] = {}
    for r in rows:
        groups.setdefault((r.method, r.snr_db, r.x_true[0]), []).append(r.mismatch_db)
    return {k: (sum(v) / len(v), len(v)) for k, v in groups.items()}


def bad_means_cells(text: str, scenario: str, expected) -> set[tuple[str, float, float]]:
    """Cells whose ``means.csv`` row is missing, extra, out of order or not the aggregation ``expected``."""
    bad = set()
    seen = []
    for f in csv.DictReader(io.StringIO(text)):
        cell = (f["method"], float(f["snr_db"]), float(f["xtrue1"]))
        seen.append(cell)
        want = expected.get(cell)
        if (
            want is None
            or f["scenario"] != scenario
            or float(f["mean_mismatch_db"]) != want[0]
            or int(f["trials"]) != want[1]
        ):
            bad.add(cell)
    if seen != sorted(seen):
        bad.update(seen)
    bad.update(set(expected) - set(seen))
    return bad


class McChecker:
    """Checks one Monte Carlo pass directory against its configuration.

    Models are regenerated through the public ``generate_model`` once per
    task and kept for later passes.  Later passes must repeat the first
    checked pass byte for byte.
    """

    def __init__(self, cfg, ops) -> None:
        self.cfg = cfg
        self.ops = list(ops)
        self.methods = {"LS", "ROWL", "eROWL"} | ({"firm"} if cfg.scenario == "C" else set())
        self._cfg_by_x1: dict[float, object] = {}
        self._models: dict[tuple, tuple] = {}
        self._first: tuple[tuple[str, str], frozenset] | None = None
        self.cycles = 0
        self.non_converged_rowl = 0

    def w_rowl(self, snr_db: float) -> WeightPair:
        by_snr = self.cfg.rowl_w_by_snr or {}
        return by_snr.get(snr_db, self.cfg.w_rowl)

    def model(self, op):
        if op not in self._models:
            trial, snr_db, x1 = op
            if x1 not in self._cfg_by_x1:
                x_true = Point2(x1, self.cfg.x_true.x2)
                self._cfg_by_x1[x1] = dataclasses.replace(self.cfg, x_true=x_true)
            model = generate_model(self._cfg_by_x1[x1], trial, snr_db)
            self._models[op] = (model, Spectrum.of(model))
        return self._models[op]

    def row_ok(self, row: Row) -> bool:
        if row.x_true != (row.op[2], self.cfg.x_true.x2):
            return False
        if abs(mismatch_db(row.x_hat, row.x_true) - row.mismatch_db) > MISMATCH_TOL_DB:
            return False
        model, spec = self.model(row.op)
        if row.method == "LS":
            resid, tol = normal_equations_residual(row, spec)
            return resid <= tol
        if row.converged:
            dist, tol = fixed_point_residual(row, spec, self.cfg, self.w_rowl(row.snr_db))
            return dist <= tol
        if row.method == "ROWL":
            self.non_converged_rowl += 1
            self.cycles += is_exact_cycle(row, model, self.cfg, self.w_rowl(row.snr_db))
        return True

    def check(self, pass_dir: Path) -> set:
        """Tasks of the pass that some check rejects.

        Every check is a function of the two files' bytes, so a pass that
        repeats the first checked pass byte for byte gets that pass's verdict;
        any other pass also fails the tasks and cells whose lines differ.
        """
        texts = ((pass_dir / "records.csv").read_text(), (pass_dir / "means.csv").read_text())
        if self._first is None:
            bad = self._check_texts(*texts)
            self._first = (texts, frozenset(bad))
            return bad
        if texts == self._first[0]:
            return set(self._first[1])
        bad = self._check_texts(*texts)
        (ref_ops, ref_cells), (ops, cells) = _lines(*self._first[0]), _lines(*texts)
        bad.update(op for op in set(ref_ops) | set(ops) if ref_ops.get(op) != ops.get(op))
        cell_keys = {c[1:] for c in set(ref_cells) | set(cells) if ref_cells.get(c) != cells.get(c)}
        bad.update(op for op in self.ops if op[1:] in cell_keys)
        return bad & set(self.ops)

    def _check_texts(self, records_text: str, means_text: str) -> set:
        self.cycles = self.non_converged_rowl = 0
        records = [row for row, _ in parse_records(records_text)]
        if {row.op for row in records} - set(self.ops):
            return set(self.ops)
        bad = set()
        methods_by_op: dict[tuple, list[str]] = {}
        for row in records:
            methods_by_op.setdefault(row.op, []).append(row.method)
            if row.op not in bad and not self.row_ok(row):
                bad.add(row.op)
        for op in self.ops:
            methods = methods_by_op.get(op, [])
            if len(methods) != len(self.methods) or set(methods) != self.methods:
                bad.add(op)
        means = aggregate_means(records)
        bad_cells = bad_means_cells(means_text, self.cfg.scenario, means) | self.ordering_failures(means)
        cell_keys = {cell[1:] for cell in bad_cells}
        bad.update(op for op in self.ops if op[1:] in cell_keys)
        return bad

    def ordering_failures(self, means) -> set:
        """Cells breaking the acceptance orderings, where the pass holds them at 500 trials.

        Scenario B: the relaxed operator's mean mismatch is below the plain
        one's at 20 dB.  Scenario C: firm shrinkage's is above the relaxed
        operator's at 20 dB and x1 = 1.5.
        """
        cfg = self.cfg
        if cfg.trials != 500 or 20.0 not in cfg.snr_list_db:
            return set()
        if cfg.scenario == "B":
            lower, higher, x1 = "eROWL", "ROWL", cfg.x_true.x1
        elif 1.5 in cfg.x1_sweep:
            lower, higher, x1 = "eROWL", "firm", 1.5
        else:
            return set()
        lo, hi = (lower, 20.0, x1), (higher, 20.0, x1)
        if lo in means and hi in means and means[lo][0] < means[hi][0]:
            return set()
        return {lo, hi}


# ---------------------------------------------------------------------------
# Grid oracles


def set_distance(kind: str, points, q) -> float:
    """Euclidean distance from ``q`` to a prox set given by its kind and defining points.

    ``segment`` and ``interval`` sets are the closed segment between their two
    points; every other kind is the finite set of its points.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    pts = [np.atleast_1d(np.asarray(tuple(p) if isinstance(p, Point2) else p, dtype=float))
           for p in points]
    if kind in ("segment", "interval"):
        a, b = pts
        ab = b - a
        t = min(1.0, max(0.0, float((q - a) @ ab) / float(ab @ ab)))
        return float(np.linalg.norm(q - (a + t * ab)))
    return min(float(np.linalg.norm(q - p)) for p in pts)


def prox_points(prox) -> tuple:
    """The defining points of a planar or scalar prox set."""
    return prox.points() if hasattr(prox, "points") else prox.values()


def inclusion_distance(prox_penalty, prox_envelope) -> float:
    """Largest distance from a point of the penalty's prox to the envelope's prox set."""
    env_points = prox_points(prox_envelope)
    return max(set_distance(prox_envelope.kind, env_points, p) for p in prox_points(prox_penalty))
