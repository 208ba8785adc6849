"""Proximal forward-backward splitting for small linear inverse problems.

The model is ``y = A x + noise`` with a 2-D unknown.  Parameter selection
follows the cocoercivity recipe for relaxed shrinkage operators: the
relaxation ``delta`` is chosen from the Gram spectrum so the operator is the
gradient of a convex potential under the data term, and the step ``mu`` is an
interpolation across its admissible interval.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import Point2

__all__ = [
    "LinearModel",
    "SpectralBounds",
    "SolverParams",
    "PfbsResult",
    "spectral_bounds",
    "select_parameters",
    "pfbs",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DIVERGENCE_NORM = 1e12
#: Iterations between two exact-cycle checks of an untraced :func:`pfbs` run.
CYCLE_BLOCK = 64
# With both coordinates below this in magnitude the iterate norm stays under
# DIVERGENCE_NORM (7e11 * sqrt(2) < 9.9e11).
_NORM_GUARD = 7e11
# hypot(d1, d2) >= max(|d1|, |d2|) up to hypot's <= 1 ulp error, so a step
# component past tol times this factor puts the step past tol (normal tol).
_TOL_GUARD = 1.0 + 2.0 ** -50


@dataclass(frozen=True)
class LinearModel:
    """Observation model ``y = A x + noise`` with an ``(M, 2)`` design matrix."""

    a_matrix: np.ndarray
    y: np.ndarray
    x_true: Point2 | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.a_matrix, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1:
            raise ValueError(f"a_matrix must be (M, 2) with M >= 1, got {a.shape}")
        if y.shape != (a.shape[0],):
            raise ValueError(f"y must have shape ({a.shape[0]},), got {y.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
            raise ValueError("model entries must be finite")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "y", y)

    @property
    def m_rows(self) -> int:
        return self.a_matrix.shape[0]

    def gram_terms(self) -> tuple[float, float, float, float, float]:
        """Entries of ``A^T A`` and ``A^T y`` accumulated in fixed row order."""
        g11 = g12 = g22 = c1 = c2 = 0.0
        for (a1, a2), yi in zip(self.a_matrix.tolist(), self.y.tolist()):
            g11 += a1 * a1
            g12 += a1 * a2
            g22 += a2 * a2
            c1 += a1 * yi
            c2 += a2 * yi
        return g11, g12, g22, c1, c2


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues ``0 <= rho <= kappa`` of the Gram matrix ``A^T A``."""

    rho: float
    kappa: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and math.isfinite(self.kappa)):
            raise ValueError("spectral bounds must be finite")
        if not 0.0 <= self.rho <= self.kappa:
            raise ValueError(f"need 0 <= rho <= kappa, got ({self.rho}, {self.kappa})")


@dataclass(frozen=True)
class SolverParams:
    """Relaxation, cocoercivity index, and step size for the splitting iteration."""

    delta: float
    beta: float
    mu: float
    gamma_delta: float
    gamma_mu: float
    mu_interval: tuple[float, float]

    def __post_init__(self) -> None:
        if abs(self.beta - self.delta / (1.0 + self.delta)) > 1e-15:
            raise ValueError("beta must equal delta / (1 + delta)")


def spectral_bounds(a_matrix) -> SpectralBounds:
    """Closed-form extreme eigenvalues of ``A^T A`` for an ``(M, 2)`` matrix."""
    model = LinearModel(a_matrix, np.zeros(np.asarray(a_matrix).shape[0]))
    g11, g12, g22, _, _ = model.gram_terms()
    half_tr = 0.5 * (g11 + g22)
    det = g11 * g22 - g12 * g12
    disc = half_tr * half_tr - det
    root = math.sqrt(disc) if disc > 0.0 else 0.0
    rho = half_tr - root
    kappa = half_tr + root
    if rho < 0.0:  # clip tiny negative rounding of a PSD spectrum
        rho = 0.0
    return SpectralBounds(rho, kappa)


def _interpolated_step(bounds: SpectralBounds, beta: float, gamma_mu: float) -> float:
    """``gamma_mu * (1 - beta) / rho + (1 - gamma_mu) * (1 + beta) / kappa``."""
    return gamma_mu * (1.0 - beta) / bounds.rho + (1.0 - gamma_mu) * (1.0 + beta) / bounds.kappa


def select_parameters(
    bounds: SpectralBounds, gamma_delta: float = 1.01, gamma_mu: float = 0.5
) -> SolverParams:
    """Pick the relaxation and step size from the Gram spectrum.

    ``delta = gamma_delta * (kappa - rho) / (2 * rho)`` exceeds the convexity
    threshold for any ``gamma_delta > 1``; the step interpolates between the
    endpoints of the admissible interval ``[(1 - beta) * rho, (1 + beta) / kappa)``
    with weight ``gamma_mu`` on the lower-end formula ``(1 - beta) / rho``.
    """
    rho, kappa = bounds.rho, bounds.kappa
    if rho <= 0.0:
        raise ValueError("rho must be positive to choose delta (Gram matrix is singular)")
    if gamma_delta <= 1.0:
        raise ValueError(f"gamma_delta must exceed 1, got {gamma_delta}")
    if not 0.0 <= gamma_mu <= 1.0:
        raise ValueError(f"gamma_mu must lie in [0, 1], got {gamma_mu}")
    delta = gamma_delta * (kappa - rho) / (2.0 * rho)
    if delta <= 0.0:
        raise ValueError("kappa equals rho: no relaxation needed, delta undefined")
    beta = delta / (1.0 + delta)
    mu = _interpolated_step(bounds, beta, gamma_mu)
    interval = ((1.0 - beta) * rho, (1.0 + beta) / kappa)
    return SolverParams(
        delta=delta,
        beta=beta,
        mu=mu,
        gamma_delta=gamma_delta,
        gamma_mu=gamma_mu,
        mu_interval=interval,
    )


@dataclass(frozen=True)
class PfbsResult:
    """Terminal iterate of the splitting iteration plus its recorded path.

    ``stop_reason`` says how the run ended: ``"converged"``, ``"diverged"``,
    ``"cycled"`` (an exact cycle was cut short; see :func:`pfbs`) or
    ``"max_iter"``.
    """

    x_hat: Point2
    iterations: int
    stop_reason: str
    trace: tuple[tuple[Point2, Point2], ...] | None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"

    def trajectory(self) -> list[Point2]:
        """Flattened path ``x_0, x_{1/2}, x_1, ...`` ending at the terminal iterate."""
        if self.trace is None:
            raise ValueError("trace was not recorded")
        path: list[Point2] = []
        for xk, xh in self.trace:
            path.extend((xk, xh))
        path.append(self.x_hat)
        return path


def pfbs(
    model: LinearModel,
    shrink,
    mu: float,
    x0=Point2(0.0, 0.0),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_trace: bool = True,
) -> PfbsResult:
    """Proximal forward-backward splitting ``x <- shrink(x - mu * A^T (A x - y))``.

    Stops when the iterate displacement drops to ``tol`` (``tol = 0`` stops
    only at an exact fixed point).  Flags divergence when the next iterate's
    norm passes 1e12 or is NaN; ``x_hat`` is then that iterate if it is
    finite, else the last finite one.  ``shrink`` maps a coordinate pair to a
    coordinate pair.  The trace stores ``(x_k, x_{k+1/2})`` per iteration.

    Without a trace, the iterate's bit pattern is compared every
    ``CYCLE_BLOCK`` iterations with the one a block earlier.  A match means
    the iteration is periodic with a period dividing ``CYCLE_BLOCK``, so the
    remaining whole blocks are skipped and only the last
    ``(max_iter - iterations) % CYCLE_BLOCK`` iterations are run.  The result
    is the one the full run gives (``iterations == max_iter``, not converged,
    the same ``x_hat`` bits) with ``stop_reason == "cycled"``.  This assumes
    ``shrink`` is a deterministic function of its input.  Cycles whose period
    does not divide ``CYCLE_BLOCK`` still run to ``max_iter``.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    max_iter = int(max_iter)
    if not tol >= 0.0 or max_iter < 1:
        raise ValueError(f"need tol >= 0 and max_iter >= 1, got {tol!r} and {max_iter!r}")
    g11, g12, g22, c1, c2 = model.gram_terms()
    x1, x2 = Point2.of(x0)
    trace: list[tuple[Point2, Point2]] | None = [] if record_trace else None
    # Exact pre-filters: hypot is only taken where it can decide the test.
    # A NaN coordinate fails the norm filter and makes the norm NaN (or inf),
    # so a NaN iterate diverges too; the norm test runs on the new iterate
    # before it replaces the last one, which a non-finite iterate never does.
    norm_hi, norm_lo = _NORM_GUARD, -_NORM_GUARD
    tol_hi = tol * _TOL_GUARD
    tol_lo = -tol_hi
    block = max_iter if record_trace else CYCLE_BLOCK
    mark = None
    iterations = 0
    stop_reason = "max_iter"
    while iterations < max_iter:
        for _ in range(min(block, max_iter - iterations)):
            h1 = x1 - mu * (g11 * x1 + g12 * x2 - c1)
            h2 = x2 - mu * (g12 * x1 + g22 * x2 - c2)
            n1, n2 = shrink((h1, h2))
            if trace is not None:
                trace.append((Point2(x1, x2), Point2(h1, h2)))
            iterations += 1
            if not (n1 < norm_hi and n1 > norm_lo and n2 < norm_hi and n2 > norm_lo) and not (
                    math.hypot(n1, n2) <= DIVERGENCE_NORM):
                if math.isfinite(n1) and math.isfinite(n2):
                    x1, x2 = float(n1), float(n2)
                stop_reason = "diverged"
                break
            d1 = n1 - x1
            d2 = n2 - x2
            x1, x2 = float(n1), float(n2)
            if not (d1 > tol_hi or d1 < tol_lo or d2 > tol_hi or d2 < tol_lo) and (
                    math.hypot(d1, d2) <= tol):
                stop_reason = "converged"
                break
        else:
            bits = struct.pack("<dd", x1, x2)
            if bits == mark and iterations < max_iter:
                # Every later block repeats the last one: run only the tail.
                iterations = max_iter - (max_iter - iterations) % block
                stop_reason = "cycled"
            mark = bits
            continue
        break  # converged or diverged
    return PfbsResult(
        x_hat=Point2(x1, x2),
        iterations=iterations,
        stop_reason=stop_reason,
        trace=tuple(trace) if trace is not None else None,
    )
