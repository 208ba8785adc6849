"""Reverse-ordered weighted l1 penalty in the plane: prox, envelope, relaxed prox.

The penalty pairs the *smaller* weight with the *larger* magnitude, which makes
it nonconvex; its prox is set-valued on diagonal ties.  The envelope variant is
the tightest 1-weakly-convex minorant, whose prox fills each two-point tie with
the connecting segment.
"""
from __future__ import annotations

import numpy as np

from .core import Point2, ProxSet, WeightPair

__all__ = [
    "rowl_penalty",
    "prox_rowl_2d",
    "rowl_envelope_2d",
    "prox_rowl_envelope_2d",
    "rowl_shrinker",
]


def rowl_penalty(x, w):
    """Weighted sum of sorted magnitudes, smallest weight on the largest entry.

    ``x`` is finite and may carry leading batch axes; ``w`` is a finite,
    nondecreasing, nonnegative weight vector matching the trailing axis.
    Compare-exchanges of whole columns sort the magnitudes, and the sum reads
    them reversed in the layout of ``np.sort(...)[..., ::-1]``, as matmul
    rounds by layout.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty 1-D weight vector")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite, got {w}")
    if np.any(w < 0) or np.any(np.diff(w) < 0):
        raise ValueError("weights must be nonnegative and nondecreasing")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != w.size:
        raise ValueError(f"x has shape {x.shape} but w has {w.size} components")
    cols = list(np.moveaxis(np.abs(x), -1, 0))
    for r in range(w.size):  # odd-even transposition: one exchange in the plane
        for k in range(r % 2, w.size - 1, 2):
            cols[k], cols[k + 1] = np.minimum(cols[k], cols[k + 1]), np.maximum(cols[k], cols[k + 1])
    # A sum past the float range is an honest inf.  An infinite magnitude on a
    # zero weight makes a NaN, and any non-finite x a non-finite sum of sums;
    # only then are the entries of x scanned.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack(cols, axis=-1)[..., ::-1] @ w
        if not np.isfinite(out.sum()) and not np.isfinite(x).all():
            raise ValueError("x must be finite")
    if out.ndim == 0:
        return float(out)
    return out


def _prox_2d(x, w: WeightPair, tie) -> ProxSet:
    """Prox of the penalty and of its envelope; ``tie`` joins the two matchings on a tie."""
    x1, x2 = Point2.of(x)
    a1, a2 = abs(x1), abs(x2)
    s1 = -1.0 if x1 < 0.0 else 1.0
    s2 = -1.0 if x2 < 0.0 else 1.0
    # A clipped coordinate keeps the input's sign: -1.0 * 0.0 is -0.0.
    keep = Point2(s1 * max(a1 - w.w1, 0.0), s2 * max(a2 - w.w2, 0.0))
    swap = Point2(s1 * max(a1 - w.w2, 0.0), s2 * max(a2 - w.w1, 0.0))
    if a1 > a2:
        return ProxSet.single(keep)
    if a1 < a2:
        return ProxSet.single(swap)
    return tie(keep, swap)


def prox_rowl_2d(x, w: WeightPair) -> ProxSet:
    """Set-valued prox of the planar ordered weighted penalty at unit step.

    Off ties the answer is unique: subtract the weights matched to the
    magnitude order and clip at zero.  On a magnitude tie both matchings are
    optimal, giving a two-point set (collapsed when the candidates coincide).
    """
    return _prox_2d(x, w, ProxSet.pair)


def rowl_envelope_2d(x, w: WeightPair):
    """Tightest 1-weakly-convex minorant of the planar ordered weighted penalty.

    Three regimes on the sorted magnitudes ``s1 >= s2 >= 0``: the minorant
    equals the penalty once the gap ``s1 - s2`` reaches the weight spread;
    nearer the diagonal a quadratic correction in the antidiagonal direction
    is subtracted; and when ``s1 + s2`` drops below the spread the minorant
    turns into the bilinear bowl ``w1*(s1+s2) + s1*s2``, which vanishes at the
    origin.  (Dropping the third regime and extending the quadratic correction
    all the way in would dip below the convex biconjugate bound — e.g. to
    ``-spread**2/4`` at 0 — so it would no longer be the tightest minorant.)
    Broadcasts over ``(..., 2)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError("x must have 2 trailing components")
    if x.ndim == 1:
        return float(rowl_envelope_2d(x[None], w)[0])
    a = np.abs(x)
    s1 = np.maximum(a[..., 0], a[..., 1])
    s2 = np.minimum(a[..., 0], a[..., 1])
    del a
    # Each regime is evaluated everywhere, so one may overflow where another
    # is selected.  The bowl's 0 * inf (w1 = 0) comes only from an overflowed
    # s1 + s2, where it is not selected.  Buffers are reused once read, so a
    # mesh needs few fresh pages; every operation is that of the formulas.
    with np.errstate(over="ignore", invalid="ignore"):
        total = s1 + s2
        tail = s1 >= s2 + w.spread
        middle = total >= w.spread
        out = np.multiply(w.w1, total, out=total)
        out += s1 * s2                                # the bowl
        base = w.w1 * s1 + w.w2 * s2
        d = np.add(s1, w.w1, out=s1)
        d -= np.add(s2, w.w2, out=s2)
        quad = 0.25 * d
        quad *= d
        np.subtract(base, quad, out=quad)             # the middle regime
        np.copyto(out, quad, where=middle)
        np.copyto(out, base, where=tail)
        # A non-finite entry makes the sum non-finite; a sum that overflows
        # on finite entries costs only the empty mask below.
        overflowed = not np.isfinite(out.sum())
    # The selected middle regime can overflow, in base or in quad, to inf or
    # to inf - inf = NaN, where its value is finite or inf.  The envelope is
    # homogeneous of degree 2 in (x, w) jointly, so there it is evaluated at
    # (x, w) / 2**513, where nothing overflows, and scaled back.
    if overflowed:
        redo = middle & ~tail & ~np.isfinite(out)
        if redo.any():
            scaled = WeightPair(w.w1 * 2.0 ** -513, w.w2 * 2.0 ** -513)
            with np.errstate(over="ignore"):
                part = rowl_envelope_2d(x[redo] * 2.0 ** -513, scaled)
                out[redo] = part * 2.0 ** 513 * 2.0 ** 513
    return out


def prox_rowl_envelope_2d(x, w: WeightPair) -> ProxSet:
    """Set-valued prox of :func:`rowl_envelope_2d` at unit step.

    Identical to :func:`prox_rowl_2d` off ties; on a tie the two candidate
    points fill in to their connecting segment.
    """
    return _prox_2d(x, w, ProxSet.segment)


def rowl_shrinker(w: WeightPair):
    """Deterministic selection of :func:`prox_rowl_2d` for iterative solvers.

    On exact magnitude ties it keeps the identity matching (weights in given
    order), everywhere else it returns the unique prox point.
    """
    w1, w2 = w.w1, w.w2

    def shrink(p):
        x1, x2 = p
        a1, a2 = abs(x1), abs(x2)
        s1 = -1.0 if x1 < 0.0 else 1.0
        s2 = -1.0 if x2 < 0.0 else 1.0
        if a1 >= a2:
            lo, hi = w1, w2
        else:
            lo, hi = w2, w1
        y1 = a1 - lo
        y2 = a2 - hi
        # A NaN fails `<= 0.0` and passes through, as in erowl_shrinker.
        return (0.0 if y1 <= 0.0 else s1 * y1, 0.0 if y2 <= 0.0 else s2 * y2)

    # Lets pfbs run this arithmetic in its own loop (see solver.pfbs).
    shrink._pfbs_inline = ("rowl", shrink.__code__, w1, w2)
    return shrink
