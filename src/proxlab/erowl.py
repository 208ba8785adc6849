"""Continuous relaxation of the planar ordered weighted shrinkage operator.

The relaxed operator is the scaled prox of the penalty's weakly convex
envelope.  It is single valued and Lipschitz for every positive relaxation
parameter ``delta``, and it collapses onto the set-valued envelope prox as
``delta`` shrinks to zero.  Closed forms split the nonnegative quadrant into
four pieces: two off-diagonal subtract-and-clip branches, a triangle near the
origin where mass is rebalanced across the diagonal, and a diagonal slab where
the two weights are blended linearly.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Point2, WeightPair

__all__ = [
    "ErowlParams",
    "Region",
    "classify_region",
    "erowl",
    "erowl_limit",
    "reparameterize",
    "erowl_shrinker",
    "LIMIT_DELTA",
]

#: Relaxation parameter used to evaluate the vanishing-delta limit numerically.
LIMIT_DELTA = 1e-8

_CLAMP = -1e-12


@dataclass(frozen=True)
class ErowlParams:
    """Weight pair plus relaxation parameter ``delta > 0``."""

    w: WeightPair
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", float(self.delta))
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")

    @property
    def beta(self) -> float:
        """Cocoercivity index ``delta / (delta + 1)`` of the operator."""
        return self.delta / (self.delta + 1.0)

    @property
    def eta(self) -> float:
        """Half-width of the diagonal blending slab."""
        return self.delta * self.w.spread / (self.delta + 1.0)

    @property
    def w_scaled(self) -> np.ndarray:
        """Effective weights ``w / (delta + 1)`` subtracted off the diagonal."""
        return self.w.as_array() / (self.delta + 1.0)

    # Region constants shared by the scalar and batched evaluation paths.
    @property
    def _diag_gate(self) -> float:
        w1, w2 = self.w.w1, self.w.w2
        return (w1 + w2) / (self.delta + 1.0) + (w2 - w1)

    @property
    def _axis_gate(self) -> float:
        return self.delta * self.w.w1 / (self.delta + 1.0)


class Region(enum.Enum):
    """Branch of the relaxed operator's closed form at a nonnegative input."""

    UPPER_BRANCH = "upper"
    LOWER_BRANCH = "lower"
    TRIANGLE_C1 = "triangle"
    SLAB_C2 = "slab"


def _in_triangle_or_slab(a1, a2, params: ErowlParams):
    """Disjoint triangle and slab masks at magnitudes ``(a1, a2)``.

    Pass numpy values, not Python floats: ``~`` on a Python bool is not a
    logical not.
    """
    dp1 = params.delta + 1.0
    gate = params._axis_gate
    below_diag_gate = (a1 + a2) <= params._diag_gate
    in_c1 = below_diag_gate & ((-a1 + dp1 * a2) > gate) & ((dp1 * a1 - a2) > gate)
    in_c2 = (~below_diag_gate) & (np.abs(a1 - a2) < params.eta)
    return in_c1, in_c2


def classify_region(x, params: ErowlParams) -> Region:
    """Classify a nonnegative-quadrant point into the operator's four branches.

    The triangle near the origin takes precedence, then the diagonal slab,
    then the two subtract-and-clip branches split by component order.
    """
    p = Point2.of(x)
    if p.x1 < 0 or p.x2 < 0:
        raise ValueError(f"classify_region expects nonnegative components, got ({p.x1}, {p.x2})")
    in_c1, in_c2 = _in_triangle_or_slab(np.float64(p.x1), np.float64(p.x2), params)
    if in_c1:
        return Region.TRIANGLE_C1
    if in_c2:
        return Region.SLAB_C2
    return Region.UPPER_BRANCH if p.x1 >= p.x2 else Region.LOWER_BRANCH


def erowl(x, params: ErowlParams):
    """Relaxed ordered weighted shrinkage, broadcasting over ``(..., 2)`` inputs."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("x must have 2 trailing components")
    delta = params.delta
    w1, w2 = params.w.w1, params.w.w2
    dp1 = delta + 1.0

    a = np.abs(x)
    sgn = np.where(x < 0, -1.0, 1.0)
    a1, a2 = a[..., 0], a[..., 1]

    in_c1, in_c2 = _in_triangle_or_slab(a1, a2, params)
    upper = ~(in_c1 | in_c2) & (a1 >= a2)

    m = (dp1 * (a1 + a2) + delta * w1) / (delta + 2.0)
    d = (dp1 * a2 - m) / delta
    c1_y1 = m - w1 - d
    c1_y2 = d
    c1_y1 = np.where((c1_y1 < 0.0) & (c1_y1 >= _CLAMP), 0.0, c1_y1)
    c1_y2 = np.where((c1_y2 < 0.0) & (c1_y2 >= _CLAMP), 0.0, c1_y2)

    spread = w2 - w1
    denom = 2.0 * delta * spread if spread > 0 else 1.0
    alpha = 0.5 + dp1 * (a1 - a2) / denom
    c2_y1 = a1 - (alpha * w1 + (1.0 - alpha) * w2) / dp1
    c2_y2 = a2 - (alpha * w2 + (1.0 - alpha) * w1) / dp1

    up_y1 = np.maximum(a1 - w1 / dp1, 0.0)
    up_y2 = np.maximum(a2 - w2 / dp1, 0.0)
    lo_y1 = np.maximum(a1 - w2 / dp1, 0.0)
    lo_y2 = np.maximum(a2 - w1 / dp1, 0.0)

    y1 = np.where(in_c1, c1_y1, np.where(in_c2, c2_y1, np.where(upper, up_y1, lo_y1)))
    y2 = np.where(in_c1, c1_y2, np.where(in_c2, c2_y2, np.where(upper, up_y2, lo_y2)))
    return sgn * np.stack([y1, y2], axis=-1)


def erowl_limit(x, w: WeightPair):
    """Vanishing-relaxation limit of the operator, evaluated at ``delta = 1e-8``.

    The limit always lands inside the set-valued envelope prox.  On diagonal
    points it selects the projection of ``x`` onto the tie segment: the
    midpoint blend of the two weight matchings where the segment is clipped at
    zero, and exactly ``x - (w1+w2)/2 * (1, 1)`` once both matchings stay
    nonnegative (components at least ``w2``).
    """
    return erowl(x, ErowlParams(w, LIMIT_DELTA))


def reparameterize(eta: float, w_tilde: WeightPair) -> ErowlParams:
    """Recover ``(w, delta)`` from slab half-width ``eta`` and effective weights ``w_tilde``.

    Inverts ``eta = delta * (w2 - w1) / (delta + 1)`` and
    ``w_tilde = w / (delta + 1)``; requires ``eta > 0`` and a strict weight
    spread, and the implied ``delta`` must come out positive.
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    spread = w_tilde.spread
    if spread <= 0:
        raise ValueError("w_tilde must have a strict spread (w1 < w2)")
    delta = eta / spread
    return ErowlParams(WeightPair(w_tilde.w1 * (delta + 1.0), w_tilde.w2 * (delta + 1.0)), delta)


def erowl_shrinker(params: ErowlParams):
    """The relaxed operator as a plain ``(x1, x2) -> (y1, y2)`` callable for solvers."""
    delta = params.delta
    w1, w2 = params.w.w1, params.w.w2
    dp1 = delta + 1.0
    dp2 = delta + 2.0
    diag_gate = params._diag_gate
    gate = params._axis_gate
    eta = params.eta
    spread = w2 - w1
    denom = 2.0 * delta * spread if spread > 0 else 1.0
    w1s = w1 / dp1
    w2s = w2 / dp1

    def shrink(p):
        x1, x2 = p
        a1 = -x1 if x1 < 0 else x1
        a2 = -x2 if x2 < 0 else x2
        s1 = -1.0 if x1 < 0 else 1.0
        s2 = -1.0 if x2 < 0 else 1.0
        below = (a1 + a2) <= diag_gate
        if below and (-a1 + dp1 * a2) > gate and (dp1 * a1 - a2) > gate:
            m = (dp1 * (a1 + a2) + delta * w1) / dp2
            d = (dp1 * a2 - m) / delta
            y1 = m - w1 - d
            y2 = d
            if _CLAMP <= y1 < 0.0:
                y1 = 0.0
            if _CLAMP <= y2 < 0.0:
                y2 = 0.0
        elif not below and (a1 - a2 if a1 >= a2 else a2 - a1) < eta:
            alpha = 0.5 + dp1 * (a1 - a2) / denom
            y1 = a1 - (alpha * w1 + (1.0 - alpha) * w2) / dp1
            y2 = a2 - (alpha * w2 + (1.0 - alpha) * w1) / dp1
        elif a1 >= a2:
            y1 = a1 - w1s
            y2 = a2 - w2s
            y1 = 0.0 if y1 <= 0.0 else y1
            y2 = 0.0 if y2 <= 0.0 else y2
        else:
            y1 = a1 - w2s
            y2 = a2 - w1s
            y1 = 0.0 if y1 <= 0.0 else y1
            y2 = 0.0 if y2 <= 0.0 else y2
        return s1 * y1, s2 * y2

    # Lets pfbs run this arithmetic in its own loop (see solver.pfbs).
    shrink._pfbs_inline = ("erowl", shrink.__code__, delta, w1, w2, dp1, dp2, diag_gate, gate, eta,
                           denom, w1s, w2s, _CLAMP)
    return shrink
