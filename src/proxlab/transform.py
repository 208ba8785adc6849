"""Grid-based convex-analysis machinery: conjugates, envelopes, prox oracles.

Everything here is deliberately independent of the closed forms elsewhere in
the package, so it can serve as an oracle against them: a naive grid Legendre
transform, the weakly convex envelope built from a double conjugation, an
exhaustive grid prox search with cluster detection, and the linear map of a
filled graph that converts a scalar shrinkage operator into its relaxed
counterpart.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Point2, ProxSet

__all__ = [
    "Axis",
    "GridSpec",
    "SampledFunction",
    "legendre_conjugate_grid",
    "weakly_convex_envelope_grid",
    "brute_force_prox",
    "default_prox_box",
    "BoxTooSmallError",
    "GraphSegment",
    "MonotoneGraph1D",
    "convert_1d",
    "InclusionReport",
    "verify_inclusion",
    "check_monotone",
    "check_lipschitz",
    "jacobian_symmetry_defect",
]


class BoxTooSmallError(ValueError):
    """A brute-force prox search hit the search-box boundary."""


@dataclass(frozen=True)
class Axis:
    """A uniform 1-D grid from ``lo`` to ``hi`` with spacing ``step``."""

    lo: float
    hi: float
    step: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "step", float(self.step))
        if not all(map(math.isfinite, (self.lo, self.hi, self.step))):
            raise ValueError("axis bounds and step must be finite")
        if self.step <= 0 or self.hi <= self.lo:
            raise ValueError(f"need lo < hi and step > 0, got [{self.lo}, {self.hi}] @ {self.step}")
        ratio = (self.hi - self.lo) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"(hi - lo)/step must be integral, got {ratio}")

    @property
    def count(self) -> int:
        return int(round((self.hi - self.lo) / self.step)) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.count)


@dataclass(frozen=True)
class GridSpec:
    """One or two :class:`Axis` objects forming a line or box grid."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if len(self.axes) not in (1, 2):
            raise ValueError("GridSpec supports 1 or 2 axes")
        object.__setattr__(self, "axes", tuple(self.axes))

    @classmethod
    def line(cls, lo: float, hi: float, step: float) -> "GridSpec":
        return cls((Axis(lo, hi, step),))

    @classmethod
    def square(cls, lo: float, hi: float, step: float) -> "GridSpec":
        ax = Axis(lo, hi, step)
        return cls((ax, ax))

    @property
    def dims(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def max_step(self) -> float:
        return max(ax.step for ax in self.axes)

    def mesh(self) -> np.ndarray:
        """Grid coordinates: shape ``(n,)`` for a line, ``(n0, n1, 2)`` for a box."""
        if self.dims == 1:
            return self.axes[0].points()
        g0, g1 = np.meshgrid(self.axes[0].points(), self.axes[1].points(), indexing="ij")
        return np.stack([g0, g1], axis=-1)


@dataclass(frozen=True)
class SampledFunction:
    """Dense samples of a function on a :class:`GridSpec` (+inf marks empty domain)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if np.any(np.isnan(v)) or np.any(np.isneginf(v)):
            raise ValueError("sampled values must be > -inf and not NaN")

    @classmethod
    def sample(cls, grid: GridSpec, fn) -> "SampledFunction":
        """Evaluate a vectorized function on the grid (1-D gets points, 2-D gets ``(..., 2)``)."""
        return cls(grid, np.asarray(fn(grid.mesh()), dtype=float))


def _conjugate_lines(xs: np.ndarray, vals: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Row-wise discrete Legendre transform: ``out[b, j] = max_i xs[i]*us[j] - vals[b, i]``."""
    b, n = vals.shape
    out = np.empty((b, us.size))
    # A score block of at most 65,536 doubles (512 KB) stays in a 2 MiB
    # per-core L2 cache; the maximum is exact, so the chunking never changes
    # a bit of the result.
    chunk = max(1, 65_536 // max(b * n, 1))
    for j0 in range(0, us.size, chunk):
        uj = us[j0:j0 + chunk]
        scores = xs[None, None, :] * uj[None, :, None] - vals[:, None, :]
        out[:, j0:j0 + chunk] = np.max(scores, axis=2)
    return out


def legendre_conjugate_grid(f: SampledFunction, dual: GridSpec) -> SampledFunction:
    """Discrete convex conjugate: exact maximum of ``<x, u> - f(x)`` over the sample grid.

    The 2-D transform factorizes into two 1-D passes, which reproduces the
    joint maximum exactly.  Values near the dual boundary reflect the
    truncated primal domain; trust the inner portion of the dual grid.
    """
    if f.grid.dims != dual.dims:
        raise ValueError("primal and dual grids must have the same dimension")
    if not np.any(np.isfinite(f.values)):
        raise ValueError("empty effective domain: all sampled values are +inf")
    if f.grid.dims == 1:
        out = _conjugate_lines(f.grid.axes[0].points(), f.values[None, :], dual.axes[0].points())
        return SampledFunction(dual, out[0])
    x0, x1 = (ax.points() for ax in f.grid.axes)
    u0, u1 = (ax.points() for ax in dual.axes)
    inner = _conjugate_lines(x1, f.values, u1)          # (n0, m1): conjugate along axis 1
    outer = _conjugate_lines(x0, (-inner).T, u0)        # (m1, m0): then along axis 0
    return SampledFunction(dual, outer.T)


def _half_sq(grid: GridSpec) -> np.ndarray:
    mesh = grid.mesh()
    if grid.dims == 1:
        return 0.5 * mesh * mesh
    return 0.5 * np.sum(mesh * mesh, axis=-1)


def weakly_convex_envelope_grid(f: SampledFunction, dual: GridSpec | None = None) -> SampledFunction:
    """Tightest 1-weakly-convex minorant via double conjugation of ``f + ||.||^2/2``.

    The dual grid defaults to the primal one; widen it when the shifted
    function's slopes exceed the primal range, and trust the result only on
    the interior of the primal grid.
    """
    dual = dual if dual is not None else f.grid
    half_sq = _half_sq(f.grid)
    shifted = SampledFunction(f.grid, f.values + half_sq)
    conj = legendre_conjugate_grid(shifted, dual)
    biconj = legendre_conjugate_grid(conj, f.grid)
    return SampledFunction(f.grid, biconj.values - half_sq)


def default_prox_box(x, reach: float, step: float) -> GridSpec:
    """Square search box of half-width ``reach + 1`` around ``x``, snapped to ``step``."""
    if reach < 0:
        raise ValueError("reach must be nonnegative")
    half = reach + 1.0
    n = max(2, int(math.ceil(2.0 * half / step)))
    p = np.atleast_1d(np.asarray(x, dtype=float))
    axes = tuple(Axis(c - half, (c - half) + n * step, step) for c in p)
    return GridSpec(axes)


def _cluster_tol(step: float, gamma: float) -> float:
    # Grid offset from a true minimizer costs O(step^2 / gamma) in objective.
    return 1e-9 + step * step / gamma


def _best_index(obj: np.ndarray, flat_idx: np.ndarray) -> int:
    # Deterministic representative: lowest objective, first in row-major order.
    sub = obj.reshape(-1)[flat_idx]
    return int(flat_idx[int(np.argmin(sub))])


def _objective_min(obj: np.ndarray) -> float:
    """``np.min(obj)``, raising on a NaN cell or an all-+inf box.

    Both checks run only when the minimum is not finite.
    """
    lowest = np.min(obj)
    if not np.isfinite(lowest):
        if np.isnan(lowest):
            raise ValueError("objective has a NaN cell on the box")
        if not np.any(np.isfinite(obj)):
            raise ValueError("objective is +inf everywhere on the box")
    return lowest


@functools.lru_cache(maxsize=2)
def _sampled(penalty, box: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The box mesh and ``penalty`` on it, both read-only, memoised per (penalty, box).

    Two entries hold what :func:`verify_inclusion` alternates between: a
    penalty and its envelope on one box.  Reuse assumes ``penalty`` is a pure
    function of its argument.
    """
    mesh = box.mesh()
    mesh.setflags(write=False)
    # A view, so freezing it never freezes an array the penalty itself owns.
    values = np.asarray(penalty(mesh), dtype=float).view()
    values.setflags(write=False)
    return mesh, values


def _penalty_samples(penalty, box: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_sampled`, evaluated directly for a callable that cannot be hashed."""
    try:
        hash(penalty)
    except TypeError:
        return _sampled.__wrapped__(penalty, box)
    return _sampled(penalty, box)


def _brute_force_prox_1d(penalty, x: float, gamma: float, box: GridSpec) -> ProxSet:
    ax = box.axes[0]
    ys, pen = _penalty_samples(penalty, box)
    obj = pen + (x - ys) ** 2 / (2.0 * gamma)
    tol = _cluster_tol(ax.step, gamma)
    sel = np.flatnonzero(obj <= _objective_min(obj) + tol)
    if sel[0] == 0 or sel[-1] == ys.size - 1:
        raise BoxTooSmallError("minimizer cluster touches the search-box boundary")
    runs = np.split(sel, np.flatnonzero(np.diff(sel) > 1) + 1)
    if len(runs) == 1:
        run = runs[0]
        if run.size > 3:
            return ProxSet.segment(ys[run[0]], ys[run[-1]])
        return ProxSet.single(ys[_best_index(obj, run)])
    if len(runs) == 2:
        return ProxSet.pair(ys[_best_index(obj, runs[0])], ys[_best_index(obj, runs[1])])
    raise ValueError(f"found {len(runs)} optimizer clusters; expected at most 2")


def _clusters(mask: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a 2-D boolean mask, as sorted flat cell indices.

    Components are numbered in row-major order of their first cell, as
    ``scipy.ndimage.label`` numbers them with a 3x3 structure.
    """
    width = mask.shape[1]
    cells = [divmod(c, width) for c in np.flatnonzero(mask).tolist()]
    unseen = set(cells)
    out = []
    for start in cells:
        if start not in unseen:
            continue
        unseen.remove(start)
        stack, members = [start], []
        while stack:
            i, j = stack.pop()
            members.append(i * width + j)
            for nb in ((i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                if nb in unseen:
                    unseen.remove(nb)
                    stack.append(nb)
        out.append(np.array(sorted(members)))
    return out


def _brute_force_prox_2d(penalty, x, gamma: float, box: GridSpec) -> ProxSet:
    mesh, pen = _penalty_samples(penalty, box)
    p = Point2.of(x)
    # Squared distances per axis, summed by broadcasting: each cell adds the
    # same two squares a full-mesh evaluation would, so every bit is the same.
    d0 = (p.x1 - mesh[:, 0, 0]) ** 2
    d1 = (p.x2 - mesh[0, :, 1]) ** 2
    obj = pen + (d0[:, None] + d1[None, :]) / (2.0 * gamma)
    step = box.max_step
    tol = _cluster_tol(step, gamma)
    mask = obj <= _objective_min(obj) + tol
    if mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any():
        raise BoxTooSmallError("minimizer cluster touches the search-box boundary")
    clusters = _clusters(mask)
    flat_mesh = mesh.reshape(-1, 2)

    def cluster_best(flat: np.ndarray) -> np.ndarray:
        return flat_mesh[_best_index(obj, flat)]

    if len(clusters) == 1:
        [flat] = clusters
        cells = np.column_stack(np.unravel_index(flat, mask.shape))
        extent = cells.max(axis=0) - cells.min(axis=0)
        if max(extent) <= 3:
            return ProxSet.single(cluster_best(flat))
        pts = flat_mesh[flat]
        center = pts.mean(axis=0)
        dev = pts - center
        cov = dev.T @ dev
        evecs = np.linalg.eigh(cov)[1]
        axis_dir, perp_dir = evecs[:, 1], evecs[:, 0]
        if np.max(np.abs(dev @ perp_dir)) > 1.5 * step:
            raise ValueError("optimizer cluster spans a 2-D blob, not a segment")
        proj = dev @ axis_dir
        return ProxSet.segment(pts[int(np.argmin(proj))], pts[int(np.argmax(proj))])
    if len(clusters) == 2:
        return ProxSet.pair(*(cluster_best(flat) for flat in clusters))
    raise ValueError(f"found {len(clusters)} optimizer clusters; expected at most 2")


def brute_force_prox(penalty, x, gamma: float, box: GridSpec) -> ProxSet:
    """Exhaustive grid prox: minimize ``penalty(y) + ||x - y||^2 / (2*gamma)`` over ``box``.

    ``penalty`` must evaluate vectorized on the box mesh, which it receives
    read-only, and must be a pure function of its argument: its samples on a
    box are reused by later calls with the same (penalty, box).  On a box the
    squared distance to ``x`` is summed by broadcasting from its per-axis
    terms, which gives the bits of a full-mesh evaluation.  Near-optimal
    grid cells (within a curvature-scaled tolerance) are merged into clusters
    by adjacency; one compact cluster reports a single point, one elongated
    collinear cluster reports a segment/interval, two clusters report a pair.
    A cluster touching the box boundary raises :class:`BoxTooSmallError`.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if box.dims == 1:
        return _brute_force_prox_1d(penalty, float(x), gamma, box)
    return _brute_force_prox_2d(penalty, x, gamma, box)


@dataclass(frozen=True)
class GraphSegment:
    """A straight monotone piece of a prox graph; vertical segments fill jumps."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for v in (self.x0, self.y0, self.x1, self.y1):
            if not math.isfinite(v):
                raise ValueError("graph segment coordinates must be finite")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("graph segments must be nondecreasing in both coordinates")
        if self.x1 == self.x0 and self.y1 == self.y0:
            raise ValueError("degenerate graph segment")

    @property
    def vertical(self) -> bool:
        return self.x1 == self.x0


class MonotoneGraph1D:
    """A maximal monotone curve in the plane, stored as connected straight pieces.

    This is the filled graph of a (possibly discontinuous) scalar shrinkage
    operator: affine pieces between breakpoints plus vertical segments closing
    each jump.
    """

    def __init__(self, segments) -> None:
        segs = tuple(segments)
        if not segs:
            raise ValueError("need at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if (prev.x1, prev.y1) != (nxt.x0, nxt.y0):
                raise ValueError(
                    f"segments must chain exactly: {prev.x1, prev.y1} != {nxt.x0, nxt.y0}"
                )
        self.segments = segs

    @classmethod
    def hard_graph(cls, threshold: float, limit: float = 1e6) -> "MonotoneGraph1D":
        """Filled graph of hard shrinkage at ``threshold``, truncated to ``[-limit, limit]``."""
        t = float(threshold)
        if not (math.isfinite(t) and t > 0 and limit > t):
            raise ValueError("need 0 < threshold < limit")
        return cls(
            [
                GraphSegment(-limit, -limit, -t, -t),
                GraphSegment(-t, -t, -t, 0.0),
                GraphSegment(-t, 0.0, t, 0.0),
                GraphSegment(t, 0.0, t, t),
                GraphSegment(t, t, limit, limit),
            ]
        )

    @property
    def x_range(self) -> tuple[float, float]:
        return self.segments[0].x0, self.segments[-1].x1

    def breakpoints(self) -> list[tuple[float, ProxSet]]:
        """Jump locations with the interval of values filling each jump."""
        return [(s.x0, ProxSet.segment(s.y0, s.y1)) for s in self.segments if s.vertical]

    def image_at(self, x: float) -> ProxSet:
        """All graph values above ``x`` (an interval at breakpoints)."""
        x = float(x)
        lo_x, hi_x = self.x_range
        if not lo_x <= x <= hi_x:
            raise ValueError(f"{x} outside graph range [{lo_x}, {hi_x}]")
        ys: list[float] = []
        for s in self.segments:
            if s.x0 <= x <= s.x1:
                if s.vertical:
                    ys.extend((s.y0, s.y1))
                else:
                    # From the nearer end: from a far one (1e6 away on a
                    # truncated tail) the slope's rounding error grows with
                    # the distance and the sum cancels.
                    ex, ey = (s.x0, s.y0) if x - s.x0 <= s.x1 - x else (s.x1, s.y1)
                    ys.append(ey + (s.y1 - s.y0) * (x - ex) / (s.x1 - s.x0))
        # Equal ends collapse to min(ys), which is ys[0] when all values are equal.
        return ProxSet.segment(min(ys), max(ys))


def convert_1d(graph: MonotoneGraph1D, delta: float, q: float) -> float:
    """Relax a scalar shrinkage operator by mapping its filled graph.

    The relaxed operator, obtained by scaling the underlying penalty down by
    ``delta + 1``, has as graph the image of the filled graph under the linear
    map ``(x, p) -> ((x + delta * p) / (delta + 1), p)``.  Each mapped piece
    slopes, so the relaxed graph has one value at ``q``; it is read off
    exactly, with no iteration.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    scale = delta + 1.0
    relaxed = MonotoneGraph1D(
        GraphSegment((s.x0 + delta * s.y0) / scale, s.y0, (s.x1 + delta * s.y1) / scale, s.y1)
        for s in graph.segments
    )
    (p,) = relaxed.image_at(q).points()
    return p


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of an oracle check that one prox set sits inside another."""

    prox_penalty: ProxSet
    prox_envelope: ProxSet
    max_distance: float
    included: bool


def verify_inclusion(penalty, envelope, x, box: GridSpec, gamma: float = 1.0) -> InclusionReport:
    """Check by exhaustive search that the penalty's prox lies inside the envelope's.

    Both proxes are computed with :func:`brute_force_prox` on the same box, so
    repeated queries with one penalty, envelope and box sample each only once;
    every defining point of the first must come within twice the grid step of
    the second set.
    """
    prox_pen = brute_force_prox(penalty, x, gamma, box)
    prox_env = brute_force_prox(envelope, x, gamma, box)
    dist = max(prox_env.distance(p) for p in prox_pen.points())
    return InclusionReport(prox_pen, prox_env, float(dist), bool(dist <= 2.0 * box.max_step))


def _sample_pairs(pairs: int, seed: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(pairs, 2))
    ys = rng.uniform(lo, hi, size=(pairs, 2))
    return xs, ys


def check_monotone(op, pairs: int = 1000, seed: int = 0, lo: float = -8.0, hi: float = 8.0) -> float:
    """Smallest ``<op(x) - op(y), x - y>`` over random point pairs (>= 0 for monotone ops)."""
    xs, ys = _sample_pairs(pairs, seed, lo, hi)
    dif_in = xs - ys
    dif_out = np.asarray(op(xs)) - np.asarray(op(ys))
    return float(np.min(np.sum(dif_in * dif_out, axis=-1)))


def check_lipschitz(op, pairs: int = 1000, seed: int = 0, lo: float = -8.0, hi: float = 8.0) -> float:
    """Largest displacement ratio ``|op(x) - op(y)| / |x - y|`` over random pairs."""
    xs, ys = _sample_pairs(pairs, seed, lo, hi)
    num = np.linalg.norm(np.asarray(op(xs)) - np.asarray(op(ys)), axis=-1)
    den = np.linalg.norm(xs - ys, axis=-1)
    keep = den > 0
    return float(np.max(num[keep] / den[keep]))


def jacobian_symmetry_defect(op, x, h: float = 1e-5) -> float:
    """Asymmetry ``|J01 - J10|`` of the central-difference Jacobian of a planar operator."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    p = Point2.of(x).as_array()
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    j01 = (np.asarray(op(p + e1)) - np.asarray(op(p - e1)))[0] / (2.0 * h)
    j10 = (np.asarray(op(p + e0)) - np.asarray(op(p - e0)))[1] / (2.0 * h)
    return float(abs(j01 - j10))
