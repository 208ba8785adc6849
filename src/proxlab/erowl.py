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
import itertools
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
    """Weight pair plus relaxation parameter ``delta > 0``, refused where the closed form can overflow."""

    w: WeightPair
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", float(self.delta))
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        # The slab's denominator and the triangle's numerator at its widest must not overflow.
        if not (math.isfinite(2.0 * self.delta * self.w.spread)
                and math.isfinite((self.delta + 1.0) * self._diag_gate + self.delta * self.w.w1)):
            raise ValueError(f"delta {self.delta!r} overflows the closed form at weights ({self.w.w1}, {self.w.w2})")

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

    # Gate constants of the closed form, read by erowl_shrinker and by tests.
    @property
    def _diag_gate(self) -> float:
        return (self.w.w1 + self.w.w2) / (self.delta + 1.0) + self.w.spread

    @property
    def _axis_gate(self) -> float:
        return self.delta * self.w.w1 / (self.delta + 1.0)


class Region(enum.Enum):
    """Branch of the relaxed operator's closed form at a nonnegative input."""

    UPPER_BRANCH = "upper"
    LOWER_BRANCH = "lower"
    TRIANGLE_C1 = "triangle"
    SLAB_C2 = "slab"


_UPPER, _LOWER = Region.UPPER_BRANCH, Region.LOWER_BRANCH
_TRIANGLE, _SLAB = Region.TRIANGLE_C1, Region.SLAB_C2


def _region_test(params: ErowlParams):
    """The closed form's gate tests, as a map from magnitudes ``(a1, a2)`` to a :class:`Region`.

    The triangle near the origin takes precedence, then the diagonal slab, then
    the two subtract-and-clip branches split by component order.  A NaN lands
    in the lower branch.
    """
    dp1 = params.delta + 1.0
    diag_gate, gate, eta = params._diag_gate, params._axis_gate, params.eta

    def region(a1, a2):
        below = (a1 + a2) <= diag_gate
        if below and (-a1 + dp1 * a2) > gate and (dp1 * a1 - a2) > gate:
            return _TRIANGLE
        if not below and (a1 - a2 if a1 >= a2 else a2 - a1) < eta:
            return _SLAB
        return _UPPER if a1 >= a2 else _LOWER

    return region


def classify_region(x, params: ErowlParams) -> Region:
    """Classify a nonnegative-quadrant point into the operator's four branches (see :func:`_region_test`)."""
    p = Point2.of(x)
    if p.x1 < 0 or p.x2 < 0:
        raise ValueError(f"classify_region expects nonnegative components, got ({p.x1}, {p.x2})")
    return _region_test(params)(p.x1, p.x2)


def erowl(x, params: ErowlParams):
    """Relaxed ordered weighted shrinkage: :func:`erowl_shrinker` at each point of a ``(..., 2)`` input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError("x must have 2 trailing components")
    ys = itertools.chain.from_iterable(map(erowl_shrinker(params), x.reshape(-1, 2).tolist()))
    return np.fromiter(ys, dtype=float, count=x.size).reshape(x.shape)


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
    dp1, dp2 = delta + 1.0, delta + 2.0
    denom = 2.0 * delta * (w2 - w1) if w2 > w1 else 1.0
    w1s, w2s = w1 / dp1, w2 / dp1
    region = _region_test(params)

    def shrink(p):
        x1, x2 = p
        a1 = -x1 if x1 < 0.0 else x1
        a2 = -x2 if x2 < 0.0 else x2
        s1 = -1.0 if x1 < 0.0 else 1.0
        s2 = -1.0 if x2 < 0.0 else 1.0
        r = region(a1, a2)
        if r is _TRIANGLE:
            m = (dp1 * (a1 + a2) + delta * w1) / dp2
            d = (dp1 * a2 - m) / delta
            y1 = m - w1 - d
            y2 = d
            if _CLAMP <= y1 < 0.0:
                y1 = 0.0
            if _CLAMP <= y2 < 0.0:
                y2 = 0.0
        elif r is _SLAB:
            alpha = 0.5 + dp1 * (a1 - a2) / denom
            y1 = a1 - (alpha * w1 + (1.0 - alpha) * w2) / dp1
            y2 = a2 - (alpha * w2 + (1.0 - alpha) * w1) / dp1
        else:
            lo, hi = (w1s, w2s) if r is _UPPER else (w2s, w1s)
            y1 = a1 - lo
            y2 = a2 - hi
            y1 = 0.0 if y1 <= 0.0 else y1
            y2 = 0.0 if y2 <= 0.0 else y2
        return s1 * y1, s2 * y2

    # Lets pfbs run this arithmetic in its own loop (see solver.pfbs).
    shrink._pfbs_inline = ("erowl", shrink.__code__, delta, w1, w2, dp1, dp2, params._diag_gate,
                           params._axis_gate, params.eta, denom, w1s, w2s, _CLAMP)
    return shrink
