"""Exact planar prox of the scaled ROWL envelope, by enumerating its optimality candidates.

The relaxed operator ``R_delta`` is the prox of ``c * Omega~`` with
``c = 1/(delta+1)`` and ``Omega~ = rowl_envelope_2d``.  This module computes
that prox from the envelope alone, without any of the operator's gates, so
tests can hold ``erowl`` and its solver closure to it.

Both ``Omega~`` and the prox commute with sign flips and swaps, so the work is
done at the sorted magnitudes ``q1 >= q2 >= 0``, whose prox lies in the sector
``p1 >= p2 >= 0``.  With spread ``s = w2 - w1``, ``Omega~`` has three quadratic
pieces there: A (``p1 - p2 >= s``), the band B, and C (``p1 + p2 < s``).
``F(p) = c * Omega~(p) + |p - q|^2 / 2`` is strongly convex for ``c < 1`` and
differentiable across both inner seams and across the diagonal, so its
minimizer is one of four candidates:

- the stationary point of A, of B or of C, if it lies in its piece: F's
  gradient vanishes there;
- the axis point ``(max(q1 - c*w1, 0), 0)``, if F does not fall as ``p2``
  leaves the axis: ``c * (w1 + min(p1, s)) >= q2``.  At ``p1 = 0`` this is
  the origin.

Rounding can put a stationary point on a seam a few ulps outside its piece,
and can put two near-equal candidates within rounding of each other in F.  So
each candidate gets a violation (how far it lies outside its piece or below
the axis; infinite for an axis point whose test fails), the least violation
wins, and F, evaluated with ``rowl_envelope_2d``, breaks ties.  A winner
whose violation is ``v`` lies within about ``v / (1 - c)`` of the minimizer.

Left for later: the inclusion of ``prox Omega`` in the prox of ``Omega~`` at
``c = 1``, where B's and C's Hessians are singular, and ``erowl_limit``.
"""
from __future__ import annotations

import numpy as np

from proxlab.core import WeightPair
from proxlab.rowl import rowl_envelope_2d


def prox_scaled_envelope(x, w: WeightPair, delta: float) -> np.ndarray:
    """The prox of ``rowl_envelope_2d(., w) / (delta + 1)`` at each point of a ``(..., 2)`` input."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    swap = a[..., 1] > a[..., 0]
    q1 = np.where(swap, a[..., 1], a[..., 0])
    q2 = np.where(swap, a[..., 0], a[..., 1])
    c = 1.0 / (delta + 1.0)
    w1, w2 = w.w1, w.w2
    s = w2 - w1

    total = q1 + q2 - c * (w1 + w2)               # B: p1 + p2, from the sum of both equations
    diff = (q1 - q2) * (delta + 1.0) / delta      # B: p1 - p2, from (1 - c)(p1 - p2) = q1 - q2
    u1, u2 = q1 - c * w1, q2 - c * w1             # C: p + c * swap(p) = u
    det = c * delta * (1.0 + c)                   # 1 - c**2, without the cancellation
    axis = np.maximum(u1, 0.0)
    cand = np.stack([                             # stationary points of A, B and C, then the axis point
        np.stack([u1, q2 - c * w2], -1),
        np.stack([(total + diff) / 2.0, (total - diff) / 2.0], -1),
        np.stack([(u1 - c * u2) / det, (u2 - c * u1) / det], -1),
        np.stack([axis, np.zeros_like(axis)], -1),
    ], -2)
    gap = cand[..., 0] - cand[..., 1] - s         # >= 0 in A
    inner = cand[..., 0] + cand[..., 1] - s       # < 0 in C
    violation = np.stack([
        np.maximum(-gap[..., 0], 0.0),
        np.maximum(gap[..., 1], -inner[..., 1]),
        np.maximum(inner[..., 2], 0.0),
        np.where(c * (w1 + np.minimum(axis, s)) >= q2, 0.0, np.inf),
    ], -1)
    violation = np.maximum(violation, -cand[..., 1])
    q = np.stack([q1, q2], -1)[..., None, :]
    f = c * rowl_envelope_2d(cand, w) + 0.5 * np.sum((cand - q) ** 2, axis=-1)
    f = np.where(violation == violation.min(axis=-1, keepdims=True), f, np.inf)
    best = np.take_along_axis(cand, np.argmin(f, axis=-1)[..., None, None], -2)[..., 0, :]
    y = np.where(swap[..., None], best[..., ::-1], best)
    return np.where(x < 0, -y, y)
