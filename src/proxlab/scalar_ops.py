"""Scalar sparsity penalties and the shrinkage operators attached to them.

All value functions and single-valued shrinkers broadcast over numpy arrays;
scalar input yields a plain float.  Set-valued proxes are pointwise and return
a :class:`~proxlab.core.ProxSet` of floats, of kind ``single``, ``pair`` or
``interval``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProxSet

__all__ = [
    "SQRT2",
    "FirmParams",
    "l0_norm",
    "mc_penalty",
    "l0_envelope",
    "prox_l0",
    "prox_l0_envelope",
    "hard",
    "firm",
    "soft",
    "firm_shrinker",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FirmParams:
    """Firm-shrinkage thresholds ``0 < lambda1 < lambda2``, refused where the ramp can overflow."""

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise ValueError("firm thresholds must be finite")
        if not 0.0 < self.lambda1 < self.lambda2:
            raise ValueError(
                f"firm thresholds must satisfy 0 < lambda1 < lambda2, got "
                f"({self.lambda1}, {self.lambda2})"
            )
        # The ramp's product lambda2 * (|x| - lambda1) is largest at |x| = lambda2.
        if not math.isfinite(self.lambda2 * (self.lambda2 - self.lambda1)):
            raise ValueError(f"firm thresholds ({self.lambda1}, {self.lambda2}) overflow the ramp")


def _maybe_scalar(x, out):
    if np.ndim(x) == 0:
        return float(out)
    return out


def l0_norm(x):
    """Number of nonzeros, evaluated elementwise (0 at 0, else 1)."""
    x = np.asarray(x, dtype=float)
    return _maybe_scalar(x, np.where(x == 0.0, 0.0, 1.0))


def mc_penalty(x, lambda2: float):
    """Minimax-concave penalty: ``|x| - x^2/(2*lambda2)`` below ``lambda2``, constant above.

    ``lambda2``, the magnitude where the penalty flattens, must be positive
    and finite.
    """
    lam2 = float(lambda2)
    if not (math.isfinite(lam2) and lam2 > 0):
        raise ValueError(f"lambda2 must be positive and finite, got {lam2!r}")
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    # Both branches are evaluated everywhere; the quadratic one overflows
    # where it is not selected, and, past |x| = 1.3e154, where it is.  A NaN
    # fails `a > lam2` and stays NaN through the quadratic.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(a > lam2, lam2 / 2.0, a - a * a / (2.0 * lam2))
    # The penalty is homogeneous of degree 1 in (x, lambda2) jointly, so an
    # overflowed selected value is evaluated at (x, lambda2) / 2**513, where
    # nothing overflows, and scaled back.  A NaN stays out of it.
    redo = (a <= lam2) & ~np.isfinite(out)
    if redo.any():
        out[redo] = mc_penalty(a[redo] * 2.0 ** -513, lam2 * 2.0 ** -513) * 2.0 ** 513
    return _maybe_scalar(x, out)


def l0_envelope(x):
    """Tightest 1-weakly-convex minorant of the zero-counting penalty.

    Equals ``sqrt(2)|x| - x^2/2`` for ``|x| <= sqrt(2)`` and 1 beyond, i.e.
    ``sqrt(2)`` times the minimax-concave penalty at ``lambda2 = sqrt(2)``.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    # The quadratic overflows only past |x| = 1.3e154, where it is not
    # selected.  A NaN fails `a > SQRT2` and stays NaN through the quadratic.
    with np.errstate(over="ignore", invalid="ignore"):
        return _maybe_scalar(x, np.where(a > SQRT2, 1.0, SQRT2 * a - a * a / 2.0))


def _prox_l0(x: float, thr: float, tie) -> ProxSet:
    """0 below ``thr``, ``x`` above it; ``tie`` joins the two at ``|x| = thr``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    a = abs(x)
    if a < thr:
        return ProxSet.single(0.0)
    if a == thr:
        return tie(0.0, x)
    return ProxSet.single(x)


def prox_l0(x: float, gamma: float = 1.0) -> ProxSet:
    """Set-valued prox of the zero-counting penalty at step ``gamma``.

    Keeps 0 below the threshold ``sqrt(2*gamma)``, keeps ``x`` above it, and
    returns both candidates exactly at the threshold.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    two_gamma = 2.0 * gamma
    # Past gamma = 8.99e307, 2 * gamma overflows; 2 * sqrt(gamma / 2) is the
    # same correctly rounded root there.
    thr = math.sqrt(two_gamma) if two_gamma < math.inf else 2.0 * math.sqrt(0.5 * gamma)
    return _prox_l0(x, thr, ProxSet.pair)


def prox_l0_envelope(x: float) -> ProxSet:
    """Set-valued prox of :func:`l0_envelope` at unit step.

    The two-point jump of :func:`prox_l0` at ``|x| = sqrt(2)`` fills in to the
    whole interval between 0 and ``x``.
    """
    return _prox_l0(x, SQRT2, ProxSet.segment)


def hard(x, threshold: float):
    """Hard shrinkage: zero out everything with magnitude up to ``threshold``.

    The boundary point maps to 0 (the set-valued prox offers both candidates
    there; this single-valued selection keeps the small branch).
    """
    threshold = float(threshold)
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    x = np.asarray(x, dtype=float)
    return _maybe_scalar(x, np.where(np.abs(x) <= threshold, 0.0, x))


def _firm(x: float, lam1: float, lam2: float, gap: float) -> float:
    """Firm shrinkage of one coordinate; ``gap`` is ``lam2 - lam1``.  A NaN passes through."""
    a = abs(x)
    if a <= lam1:
        return 0.0
    if a <= lam2:
        return (-1.0 if x < 0.0 else 1.0) * lam2 * (a - lam1) / gap
    return x


def firm(x, params: FirmParams):
    """Firm shrinkage: dead zone below ``lambda1``, linear ramp, identity past ``lambda2``.

    Each element goes through the one-coordinate kernel that :func:`firm_shrinker` calls.
    """
    lam1, lam2 = params.lambda1, params.lambda2
    x = np.asarray(x, dtype=float)
    out = [_firm(v, lam1, lam2, lam2 - lam1) for v in x.ravel().tolist()]
    return _maybe_scalar(x, np.array(out, dtype=float).reshape(x.shape))


def soft(x, threshold: float):
    """Soft shrinkage ``sign(x) * max(|x| - threshold, 0)``."""
    threshold = float(threshold)
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be nonnegative and finite, got {threshold!r}")
    x = np.asarray(x, dtype=float)
    sgn = np.where(x < 0, -1.0, 1.0)
    return _maybe_scalar(x, sgn * np.maximum(np.abs(x) - threshold, 0.0))


def firm_shrinker(params: FirmParams):
    """Componentwise firm shrinkage as a plain ``(x1, x2) -> (y1, y2)`` callable."""
    lam1, lam2 = params.lambda1, params.lambda2
    gap = lam2 - lam1

    def shrink(p):
        x1, x2 = p
        return _firm(x1, lam1, lam2, gap), _firm(x2, lam1, lam2, gap)

    # Lets pfbs run this arithmetic in its own loop (see solver.pfbs).
    shrink._pfbs_inline = ("firm", shrink.__code__, lam1, lam2, gap)
    return shrink
