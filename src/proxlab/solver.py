"""Proximal forward-backward splitting for small linear inverse problems.

The model is ``y = A x + noise`` with a 2-D unknown.  Parameter selection
follows the cocoercivity recipe for relaxed shrinkage operators: the
relaxation ``delta`` is chosen from the Gram spectrum so the operator is the
gradient of a convex potential under the data term, and the step ``mu`` is an
interpolation across its admissible interval.

:func:`pfbs` runs one solve as a scalar loop.  :func:`pfbs_lockstep` starts
many untraced solves of one library shrinker kind together, as numpy float64
lanes that make the loop's float operations in its order, in place, into a
path buffer, and finds each lane's ending once per block.  A lane ends a
solve only when it converges or diverges.  One rule, at every cycle check
from step 0, hands the others back with their iterates and steps done: a
lane whose bits repeat, and every live lane once at most ``LOCKSTEP_LANES``
are live or at most ``3 * CYCLE_BLOCK`` steps are left.  :func:`pfbs`
finishes them and owns every ``"cycled"`` and ``"max_iter"`` ending.  Every
result is bit for bit the scalar loop's.  A B or C experiment run solves
this way; scenario A and every traced solve run :func:`pfbs` alone.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "pfbs_lockstep",
    "LOCKSTEP_LANES",
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
#: :func:`pfbs_lockstep` hands every live lane back to :func:`pfbs` at the first
#: cycle check, step 0 included, with this many or fewer live.
LOCKSTEP_LANES = 128


@dataclass(frozen=True)
class LinearModel:
    """Observation model ``y = A x + noise``: an ``(M, 2)`` design matrix ``A``, the observation
    ``y`` and their Gram sums, and nothing else.

    The entries of ``A^T A`` and ``A^T y`` are summed once, in one loop over
    the rows of ``A`` in order, when the model is built.
    """

    a_matrix: np.ndarray
    y: np.ndarray
    _gram: tuple[float, float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a_matrix, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1:
            raise ValueError(f"a_matrix must be (M, 2) with M >= 1, got {a.shape}")
        if y.shape != (a.shape[0],):
            raise ValueError(f"y must have shape ({a.shape[0]},), got {y.shape}")
        g11 = g12 = g22 = c1 = c2 = 0.0
        for (a1, a2), yi in zip(a.tolist(), y.tolist()):
            g11 += a1 * a1
            g12 += a1 * a2
            g22 += a2 * a2
            c1 += a1 * yi
            c2 += a2 * yi
        # A NaN or infinite entry makes g11, g22 or c1 non-finite, so finite
        # sums clear every entry; only an overflowed sum needs the entry check.
        if not math.isfinite(g11 + g22 + c1 + c2) and not (np.isfinite(a).all() and np.isfinite(y).all()):
            raise ValueError("model entries must be finite")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_gram", (g11, g12, g22, c1, c2))

    def gram_terms(self) -> tuple[float, float, float, float, float]:
        """Entries of ``A^T A`` and ``A^T y`` accumulated in fixed row order."""
        return self._gram


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
    """Relaxation and step size for the splitting iteration."""

    delta: float
    mu: float
    mu_interval: tuple[float, float]

    @property
    def beta(self) -> float:
        """Cocoercivity index ``delta / (1 + delta)``."""
        return self.delta / (1.0 + self.delta)


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
    threshold for any ``gamma_delta > 1``, and ``beta = delta / (1 + delta)``.
    The step is ``mu = gamma_mu * (1 - beta) / rho + (1 - gamma_mu) * (1 + beta) / kappa``.
    ``mu_interval`` holds ``((1 - beta) * rho, (1 + beta) / kappa)``; its lower
    end is not the ``(1 - beta) / rho`` the step uses, but ``rho**2`` times it.
    """
    rho, kappa = bounds.rho, bounds.kappa
    if rho <= 0.0:
        raise ValueError("rho must be positive to choose delta (Gram matrix is singular)")
    if not (math.isfinite(gamma_delta) and gamma_delta > 1.0):
        raise ValueError(f"gamma_delta must be finite and exceed 1, got {gamma_delta}")
    if not 0.0 <= gamma_mu <= 1.0:
        raise ValueError(f"gamma_mu must lie in [0, 1], got {gamma_mu}")
    delta = gamma_delta * (kappa - rho) / (2.0 * rho)
    if delta <= 0.0:
        raise ValueError("kappa equals rho: no relaxation needed, delta undefined")
    if not math.isfinite(delta):
        raise ValueError(f"gamma_delta {gamma_delta} makes delta overflow")
    beta = delta / (1.0 + delta)
    mu = _interpolated_step(bounds, beta, gamma_mu)
    interval = ((1.0 - beta) * rho, (1.0 + beta) / kappa)
    return SolverParams(delta=delta, mu=mu, mu_interval=interval)


class PfbsResult(NamedTuple):
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


def _iteration_budget(tol: float, max_iter) -> int:
    """``max_iter`` as an ``int``, after the checks :func:`pfbs` makes of it and of ``tol``."""
    if not abs(max_iter) < math.inf or int(max_iter) != max_iter:  # NaN fails the first test
        raise ValueError(f"max_iter must be a finite whole number, got {max_iter!r}")
    max_iter = int(max_iter)
    if not tol >= 0.0 or max_iter < 1:
        raise ValueError(f"need tol >= 0 and max_iter >= 1, got {tol!r} and {max_iter!r}")
    return max_iter


def _inline_spec(shrink):
    """The ``_pfbs_inline`` marker of an unwrapped library shrinker; ``None`` for any other callable."""
    spec = getattr(shrink, "_pfbs_inline", None)
    # functools.wraps copies the marker onto a wrapper but not the code object.
    return spec if spec is not None and spec[1] is getattr(shrink, "__code__", None) else None


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
    coordinate pair.  The trace stores ``(x_k, x_{k+1/2})`` per iteration
    whose half-step ``x_{k+1/2}`` is finite.

    Without a trace, the iterate's bit pattern is compared every
    ``CYCLE_BLOCK`` iterations with the one a block earlier.  A match means
    the iteration is periodic with a period dividing ``CYCLE_BLOCK``, so the
    remaining whole blocks are skipped and only the last
    ``(max_iter - iterations) % CYCLE_BLOCK`` iterations are run.  The result
    is the one the full run gives (``iterations == max_iter``, not converged,
    the same ``x_hat`` bits) with ``stop_reason == "cycled"``.  This assumes
    ``shrink`` is a deterministic function of its input.  Cycles whose period
    does not divide ``CYCLE_BLOCK`` still run to ``max_iter``.

    A shrinker built by :func:`~proxlab.rowl.rowl_shrinker`,
    :func:`~proxlab.erowl.erowl_shrinker` or
    :func:`~proxlab.scalar_ops.firm_shrinker` carries its constants in a
    ``_pfbs_inline`` marker, and its arithmetic runs inline in this loop: the
    same float operations in the same order, without a call per iteration.
    The loop splits each half-step into magnitudes and signs once, and all
    three inline kernels read that split.  Any other callable, a wrapper
    around a library shrinker included, is called, with bit-for-bit the
    same results.  ``mu`` is taken as a ``float`` once, so every iterate is
    a Python float; ``float()`` runs only on what a called shrinker returns.
    The loop stays in this function's own frame, and ``iterations`` is its
    loop variable, advanced every iteration: a sampler may find the running
    solve through ``pfbs.__code__`` and read that counter.  Every zero the loop compares an iterate with is ``0.0``:
    CPython 3.11 specializes a comparison only when both operands have one
    type, and the float-with-int ``h1 < 0`` would take the generic path on
    every iteration.

    :func:`pfbs_lockstep`'s lanes make this loop's float operations in its
    order; a solve they hand back goes on here from ``x0``.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    mu = float(mu)
    max_iter = _iteration_budget(tol, max_iter)
    g11, g12, g22, c1, c2 = model.gram_terms()
    x0 = Point2.of(x0)
    x1, x2 = x0.x1, x0.x2
    trace: list[tuple[Point2, Point2]] | None = [] if record_trace else None
    # Exact pre-filters: hypot is only taken where it can decide the test.
    # A NaN coordinate fails the norm filter and makes the norm NaN (or inf),
    # so a NaN iterate diverges too; the norm test runs on the new iterate
    # before it replaces the last one, which a non-finite iterate never does.
    norm_hi, norm_lo = _NORM_GUARD, -_NORM_GUARD
    tol_hi = tol * _TOL_GUARD
    tol_lo = -tol_hi
    block = max_iter if record_trace else CYCLE_BLOCK
    spec = _inline_spec(shrink)
    kind = "call" if spec is None else spec[0]
    if kind == "rowl":
        w1, w2 = spec[2:]
    elif kind == "erowl":
        delta, w1, w2, dp1, dp2, diag_gate, gate, eta, denom, w1s, w2s, clamp = spec[2:]
        dw1 = delta * w1
    elif kind == "firm":
        lam1, lam2, gap = spec[2:]
    mark = None
    iterations = 0
    stop_reason = "max_iter"
    while iterations < max_iter:
        # The loop variable is the count of iterations done once this one ends.
        for iterations in range(iterations + 1, min(iterations + block, max_iter) + 1):
            h1 = x1 - mu * (g11 * x1 + g12 * x2 - c1)
            h2 = x2 - mu * (g12 * x1 + g22 * x2 - c2)
            # -0.0 keeps its sign as a magnitude; it and abs's 0.0 clip alike.
            if h1 < 0.0:
                a1 = -h1
                s1 = -1.0
            else:
                a1 = h1
                s1 = 1.0
            if h2 < 0.0:
                a2 = -h2
                s2 = -1.0
            else:
                a2 = h2
                s2 = 1.0
            # Each inline branch makes its factory closure's float operations, in its order.
            if kind == "erowl":
                a12 = a1 + a2
                below = a12 <= diag_gate
                if below and (-a1 + dp1 * a2) > gate and (dp1 * a1 - a2) > gate:
                    m = (dp1 * a12 + dw1) / dp2
                    d = (dp1 * a2 - m) / delta
                    y1 = m - w1 - d
                    y2 = d
                    if y1 < 0.0 and y1 >= clamp:
                        y1 = 0.0
                    if y2 < 0.0 and y2 >= clamp:
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
                n1, n2 = s1 * y1, s2 * y2
            elif kind == "rowl":
                if a1 >= a2:
                    y1 = a1 - w1
                    y2 = a2 - w2
                else:
                    y1 = a1 - w2
                    y2 = a2 - w1
                n1 = 0.0 if y1 <= 0.0 else s1 * y1
                n2 = 0.0 if y2 <= 0.0 else s2 * y2
            elif kind == "firm":
                if a1 <= lam1:
                    n1 = 0.0
                elif a1 <= lam2:
                    n1 = s1 * lam2 * (a1 - lam1) / gap
                else:
                    n1 = h1
                if a2 <= lam1:
                    n2 = 0.0
                elif a2 <= lam2:
                    n2 = s2 * lam2 * (a2 - lam1) / gap
                else:
                    n2 = h2
            else:
                n1, n2 = shrink((h1, h2))
                n1, n2 = float(n1), float(n2)
            if trace is not None and math.isfinite(h1) and math.isfinite(h2):
                trace.append((Point2(x1, x2), Point2(h1, h2)))
            if not (n1 < norm_hi and n1 > norm_lo and n2 < norm_hi and n2 > norm_lo) and not (
                    math.hypot(n1, n2) <= DIVERGENCE_NORM):
                if math.isfinite(n1) and math.isfinite(n2):
                    x1, x2 = n1, n2
                stop_reason = "diverged"
                break
            d1 = n1 - x1
            d2 = n2 - x2
            x1, x2 = n1, n2
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
    return PfbsResult(Point2(x1, x2), iterations, stop_reason, None if trace is None else tuple(trace))


# Lane kernels: pfbs's inline branches on arrays, in place.  ``n`` gets the shrunk (2, lanes) half-steps
# ``h`` (``a = |h|``), one ufunc per float operation in pfbs's order.  ``|h|`` is pfbs's magnitude but at
# -0.0, which clips to 0.0.  ``copysign(v, h)`` is ``s * v`` where ``a`` passed a threshold ``>= 0``.


def _rowl_lanes(h, a, n, c, f, b):
    """ROWL; ``c`` rows ``(w2, w1, w1, w2)``.  ``+ 0.0`` makes a clipped ``y``'s signed zero 0.0."""
    np.subtract(a, c[0:2], out=n)
    np.putmask(n, np.greater_equal(a[0], a[1], out=b), np.subtract(a, c[2:4], out=f))
    np.copysign(np.maximum(n, 0.0, out=n), h, out=n)
    n += 0.0


def _erowl_lanes(h, a, n, c, f, b):
    """eROWL.  A slab or triangle ``y`` may be negative, so ``s * y`` stays a product."""
    delta, dp1, dp2, diag_gate, gate, eta, denom, clamp, dw1 = c[8:]
    a1, a2 = a
    np.subtract(a, c[0:2], out=n)
    np.putmask(n, np.greater_equal(a1, a2, out=b), np.subtract(a, c[2:4], out=f))
    np.maximum(n, 0.0, out=n)
    a12 = a1 + a2
    below = a12 <= diag_gate
    # |a1 - a2| is the inline branch's a1 - a2 or a2 - a1: round to nearest is symmetric.
    diff = a1 - a2
    slab = np.abs(diff) < eta
    slab &= ~below
    if slab.any():
        alpha = 0.5 + dp1 * diff / denom
        np.copyto(n, a - (alpha * c[4:6] + (1.0 - alpha) * c[6:8]) / dp1, where=slab)
    da2 = dp1 * a2
    triangle = below & (-a1 + da2 > gate) & (dp1 * a1 - a2 > gate)
    if triangle.any():
        m = (dp1 * a12 + dw1) / dp2
        d = (da2 - m) / delta
        y = np.array((m - c[4] - d, d))
        np.copyto(n, np.where((y < 0.0) & (y >= clamp), 0.0, y), where=triangle)
    n *= np.copysign(1.0, h + 0.0)


def _firm_lanes(h, a, n, c, f, b):
    """Firm shrinkage; ``c`` rows ``lam1, lam2, gap``."""
    lam1, lam2, gap = c
    np.copysign(np.divide(np.multiply(np.subtract(a, lam1, out=n), lam2, out=n), gap, out=n), h, out=n)
    np.putmask(n, np.greater(a, lam2, out=b), h)
    np.putmask(n, np.less_equal(a, lam1, out=b), 0.0)


#: Each inline kind's lane kernel, and its constant rows from the marker's constants.
_LANE_KERNELS = {
    "rowl": (_rowl_lanes, lambda w1, w2: (w2, w1, w1, w2)),
    "erowl": (_erowl_lanes, lambda delta, w1, w2, dp1, dp2, diag_gate, gate, eta, denom, w1s, w2s, clamp: (
        w2s, w1s, w1s, w2s, w1, w2, w2, w1, delta, dp1, dp2, diag_gate, gate, eta, denom, clamp, delta * w1)),
    "firm": (_firm_lanes, lambda lam1, lam2, gap: (lam1, lam2, gap)),
}


def pfbs_lockstep(solves, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Start untraced :func:`pfbs` solves from the origin together, as numpy lanes.

    ``solves`` is a sequence of ``(model, shrink, mu)``.  The batch is stepped
    only when every shrinker is an unwrapped library shrinker that
    :func:`pfbs` runs inline, all of one kind, and every ``mu`` is one
    :func:`pfbs` accepts; otherwise every entry is ``(origin, 0)``.  A
    stepped batch takes one ufunc per float operation of :func:`pfbs`'s loop
    (see :func:`_run_lanes`).  A lane that converges or diverges is done: its
    entry is the :class:`PfbsResult` that :func:`pfbs` returns.  Every other
    entry is a pair ``(x, k)``: the lane's iterate after ``k`` steps.  Then
    ``pfbs(model, shrink, mu, x0=x, tol=tol, max_iter=max_iter - k,
    record_trace=False)``, with ``k`` added to its ``iterations``, is bit for
    bit ``pfbs(model, shrink, mu, tol=tol, max_iter=max_iter,
    record_trace=False)``, so :func:`pfbs` owns every ``"cycled"`` and
    ``"max_iter"`` ending.

    One rule hands lanes back, at every ``CYCLE_BLOCK`` check from step 0:
    a lane whose bits repeat the last check's goes back, and every live lane
    goes back once at most ``LOCKSTEP_LANES`` are live or at most
    ``3 * CYCLE_BLOCK`` steps are left, so a batch of at most
    ``LOCKSTEP_LANES`` takes no step.  ``k`` is 0 or leaves more than two
    blocks, and :func:`pfbs` compares the bits at ``k + 2 * CYCLE_BLOCK``
    and every block after: it finds each cycle the full run finds, and by
    periodicity ends on the same bits.
    """
    max_iter = _iteration_budget(tol, max_iter)
    specs = [_inline_spec(shrink) for _, shrink, _ in solves]
    if not specs or not all(spec is not None and spec[0] == specs[0][0] and math.isfinite(mu) and mu > 0.0
                            for spec, (_, _, mu) in zip(specs, solves)):
        return [(Point2(0.0, 0.0), 0)] * len(solves)
    # A diverging lane overflows, and eROWL's unselected branches may too.
    with np.errstate(all="ignore"):
        return _run_lanes(specs, solves, tol, max_iter)


def _same_bits(x, mark):
    """The lanes whose iterate has the bits of ``mark``'s: as in pfbs's cycle check, -0.0 is not 0.0."""
    same = x.view(np.int64) == mark.view(np.int64)
    return same[0] & same[1]


#: Lane table rows before the kernel's: g11, g12, g22 (x1 takes rows 0-1, x2 1-2), A^T y, mu twice, the last mark.
_GA, _GB, _C, _MU, _MARK = slice(0, 2), slice(1, 3), slice(3, 5), slice(5, 7), slice(7, 9)
#: Steps in a lane block (64 raised a B run's peak RSS by 3 MB).
_LANE_BLOCK = CYCLE_BLOCK // 8


def _view(buf, live: int, *shape):
    """A flat buffer's head as a contiguous ``(*shape, live)`` array."""
    return buf[:math.prod(shape) * live].reshape(*shape, live)


def _run_lanes(specs, solves, tol: float, max_iter: int) -> list:
    """Step one kind's lanes for :func:`pfbs_lockstep`; one entry per solve, as it returns them.

    Every ``CYCLE_BLOCK`` steps, from step 0, the hand-back rule runs on the live lanes.  A block only does
    arithmetic, step ``i`` into ``p[i + 1]`` of a path buffer.  At its end, each lane's steps that fail
    pfbs's exact pre-filters go to ``math.hypot`` in order, divergence first, as in pfbs.
    """
    kernel, constants = _LANE_KERNELS[specs[0][0]]
    # A row per term, a column per lane, filled by column for a lower peak RSS.
    table = np.empty((_MARK.stop + len(constants(*specs[0][2:])), len(solves)))
    for j, ((model, _, mu), spec) in enumerate(zip(solves, specs)):
        table[:, j] = (*model.gram_terms(), mu, mu, math.nan, math.nan, *constants(*spec[2:]))
    lane = np.arange(len(solves))  # each column's solve; -1 once it has ended
    # The path, and float and bool rows for a step or for the block's tests.
    path, work = np.zeros((_LANE_BLOCK + 1) * 2 * lane.size), np.empty(max(6, 2 * _LANE_BLOCK) * lane.size)
    flags = np.empty(3 * _LANE_BLOCK * lane.size, bool)
    out: list = [None] * len(solves)
    x, done = _view(path, lane.size, 2), 0
    while True:
        if done % CYCLE_BLOCK == 0:
            on = lane >= 0
            back = _same_bits(x, table[_MARK]) & on
            if np.count_nonzero(on & ~back) <= LOCKSTEP_LANES or max_iter - done <= 3 * CYCLE_BLOCK:
                back = on
            for j, (x1, x2) in zip(lane[back].tolist(), x[:, back].T.tolist()):
                out[j] = (Point2(x1, x2), done)
            lane[back] = -1
            table[_MARK] = x
        keep = (lane >= 0).nonzero()[0]
        if keep.size < lane.size:
            table, lane, x = table[:, keep], lane[keep], x[:, keep]
        if not lane.size:
            return out
        live = lane.size
        p, (h, a, f), b = _view(path, live, _LANE_BLOCK + 1, 2), _view(work, live, 3, 2), _view(flags, live, 2)
        p[0] = x  # the last block's end
        ga, gb, c, mu, consts = table[_GA], table[_GB], table[_C], table[_MU], table[_MARK.stop:]
        for i in range(_LANE_BLOCK):
            x = p[i]
            # pfbs's h = x - mu * (G x - c), with G x's rows g11 * x1 + g12 * x2 and g12 * x1 + g22 * x2.
            np.multiply(ga, x[0], out=h)
            h += np.multiply(gb, x[1], out=a)
            h -= c
            h *= mu
            np.subtract(x, h, out=h)
            kernel(h, np.abs(h, out=a), p[i + 1], consts, f, b)
        d, q = _view(work, live, _LANE_BLOCK, 2), _view(flags, live, _LANE_BLOCK, 2)
        marked = _view(flags, live, 3, _LANE_BLOCK)[2]
        inside = np.less(np.abs(p[1:], out=d), _NORM_GUARD, out=q)
        np.logical_not(np.logical_and(inside[:, 0], inside[:, 1], out=marked), out=marked)
        near = np.less_equal(np.abs(np.subtract(p[1:], p[:-1], out=d), out=d), tol * _TOL_GUARD, out=q)
        marked |= np.logical_and(near[:, 0], near[:, 1], out=near[:, 0])
        at, js = np.divmod(np.flatnonzero(marked), live)  # lane js[k]'s step at[k] + 1, in step order
        for i, j, (x1, x2), (n1, n2) in zip(at.tolist(), js.tolist(), *p[[at, at + 1], :, js].tolist()):
            if lane[j] < 0:
                continue
            if not math.hypot(n1, n2) <= DIVERGENCE_NORM:
                if not (math.isfinite(n1) and math.isfinite(n2)):
                    n1, n2 = x1, x2
                reason = "diverged"
            elif math.hypot(n1 - x1, n2 - x2) <= tol:
                reason = "converged"
            else:
                continue
            out[lane[j]] = PfbsResult(Point2(n1, n2), done + i + 1, reason, None)
            lane[j] = -1
        done += _LANE_BLOCK
        x = p[_LANE_BLOCK]
