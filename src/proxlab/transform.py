"""Grid-based convex-analysis machinery: conjugates, envelopes, prox oracles.

Everything here is deliberately independent of the closed forms elsewhere in
the package, so it can serve as an oracle against them: a grid Legendre
transform that gives the bits of the brute-force maximum over every grid
point while scoring only a window of the points that can hold it, the weakly
convex envelope built from a double conjugation, a grid prox search with
cluster detection that gives the bits of the exhaustive search while
scoring, on a planar box, only the rows and columns that can reach its
minimum, and the linear map of a filled graph that converts a scalar
shrinkage operator into its relaxed counterpart.
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
    "MonotoneGraph1D",
    "convert_1d",
    "InclusionReport",
    "verify_inclusion",
    "check_monotone",
    "check_lipschitz",
    "jacobian_symmetry_defect",
]

# The most float64s an array can hold: numpy sizes no array past intp's byte range.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


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
        if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            raise ValueError(f"(hi - lo)/step must be finite and integral, got {ratio}")
        if round(ratio) == 0:
            raise ValueError(f"[{self.lo}, {self.hi}] is shorter than one step of {self.step}")
        if round(ratio) + 1 > _MAX_FLOATS:  # points() holds count float64s
            raise ValueError(f"[{self.lo}, {self.hi}] @ {self.step} has more points than numpy can index")
        # lo + step * (count - 1) rounds past hi and can overflow when ratio is huge.
        if not math.isfinite(self.lo + self.step * round(ratio)):
            raise ValueError(f"the last point of [{self.lo}, {self.hi}] @ {self.step} overflows")

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
        if math.prod(self.shape) * self.dims > _MAX_FLOATS:  # mesh() holds dims float64s a point
            raise ValueError(f"a grid of shape {self.shape} has more points than numpy can index")

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
        out = np.empty((*self.shape, 2))
        out[..., 0] = self.axes[0].points()[:, None]
        out[..., 1] = self.axes[1].points()
        return out


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


# A score block of at most 65,536 doubles (512 KB) stays in a 2 MiB per-core
# L2 cache; a block of whole rows may reach ``vals.size`` doubles.
_BLOCK = 65_536
# Every 16th dual is an anchor, scored in full; each dual between two anchors
# scores a window of 20 * 2**k primal points, the narrowest that can hold its maximum.
_ANCHOR_STRIDE = 16
_WINDOW = 20


def _scores(xs: np.ndarray, vals: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The score block ``fl(fl(xs[i]*us[j]) - vals[r, i])``, indexed ``[r, j, i]``."""
    return xs[None, None, :] * us[None, :, None] - vals[:, None, :]


def _brute_force_max(xs: np.ndarray, vals: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``np.max`` of every score, in blocks of whole rows chunked over ``us``.

    With all of ``vals`` the rows keep the layout of one unchunked block, so
    even a zero maximum reached with both signs gets its sign bit.
    """
    b, n = vals.shape
    out = np.empty((b, us.size))
    chunk = max(1, _BLOCK // max(b * n, 1))
    for j0 in range(0, us.size, chunk):
        out[:, j0:j0 + chunk] = np.max(_scores(xs, vals, us[j0:j0 + chunk]), axis=2)
    return out


def _window_margin(xs: np.ndarray, vals: np.ndarray, us: np.ndarray) -> float | None:
    """The near-max margin ``M = 64 * 2**-53 * S``, or None where the window proof fails.

    ``S = max|x| * max|u| + max finite |v|`` bounds every product and every
    finite score.  The proof needs sorted grids (a NaN fails the test),
    ``vals`` free of NaN and -inf, and ``2**-960 <= S < 2**1020``: then no
    score overflows, and an underflow's absolute error (at most ``2**-1075``)
    vanishes against ``S``.
    """
    if not (np.all(xs[1:] >= xs[:-1]) and np.all(us[1:] >= us[:-1])):
        return None
    lowest = np.min(vals, initial=np.inf)
    highest = np.max(vals, initial=-np.inf, where=vals < np.inf)
    if not lowest > -np.inf:
        return None
    with np.errstate(over="ignore"):  # an S past the float range fails the test below
        size = max(-xs[0], xs[-1]) * max(-us[0], us[-1]) + max(abs(lowest), abs(highest))
    if not 2.0 ** -960 <= size < 2.0 ** 1020:
        return None
    return 64.0 * 2.0 ** -53 * size


def _maxima(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of ``scores`` over its last axis, and where one is a zero both +0.0 and -0.0 reach.

    ``np.max`` picks between equal signed zeros by their position in its
    reduction, so only a block in the reference's layout gives such a bit.
    """
    top = np.max(scores, axis=-1)
    mixed = top == 0.0
    if mixed.any():
        tied = scores[mixed]
        neg = np.signbit(tied)
        tied = tied == 0.0
        mixed[mixed] = np.any(tied & neg, axis=1) & np.any(tied & ~neg, axis=1)
    return top, mixed


def _anchor_spans(xs: np.ndarray, vals: np.ndarray, ua: np.ndarray, margin: float):
    """Maxima at the anchor duals ``ua``, and the first and last index of each near-max set."""
    b, n = vals.shape
    top = np.empty((b, ua.size))
    first = np.empty((b, ua.size), dtype=np.intp)
    last = np.empty_like(first)
    chunk = max(1, _BLOCK // (b * n))
    for k0 in range(0, ua.size, chunk):
        scores = _scores(xs, vals, ua[k0:k0 + chunk])
        block = np.max(scores, axis=2)
        top[:, k0:k0 + chunk] = block
        # Each (row, anchor) reaches its own maximum, so it owns at least one
        # index of ``near``; its first and last index bound the set.
        near = np.flatnonzero(scores >= (block - margin)[:, :, None])
        owner = near // n
        cut = np.flatnonzero(owner[1:] != owner[:-1])
        first[:, k0:k0 + chunk] = (near[np.r_[0, cut + 1]] % n).reshape(b, -1)
        last[:, k0:k0 + chunk] = (near[np.r_[cut, near.size - 1]] % n).reshape(b, -1)
    return top, first, last


def _window_maxima(xs: np.ndarray, vals: np.ndarray, us: np.ndarray, rows, cols, js):
    """:func:`_maxima` over windows: ``rows`` is (pair,), ``cols`` (lag, pair), ``js`` (dual, pair).

    The block is laid out (dual, lag, pair), so the pairs axis is the long
    inner loop of each operation.
    """
    scores = xs[cols][None] * us[js][:, None]
    scores -= vals[rows, cols][None]
    return _maxima(scores.transpose(0, 2, 1))


def _conjugate_lines(xs: np.ndarray, vals: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Row-wise discrete Legendre transform: ``out[r, j] = max_i xs[i]*us[j] - vals[r, i]``.

    The result is bit for bit ``np.max`` over one unchunked block of all the
    scores ``s_i(u) = fl(fl(xs[i]*u) - vals[r, i])``, but most scores are
    never computed.  Anchor duals (every 16th, and the last) are scored in
    full.  At an anchor ``a`` the near-max set holds the indices with
    ``s_i(u_a) >= fl(max_k s_k(u_a) - M)``, ``M = 64 * 2**-53 * S`` (see
    :func:`_window_margin`); ``L_a`` and ``R_a`` are its first and last index.
    A dual strictly between anchors ``a < c`` scores only ``[L_a, R_c]``.

    Why that window holds the maximum and every score equal to it.  Let
    ``t_i(u) = xs[i]*u - vals[r, i]`` exactly.  Each finite computed score
    is within ``e = 2.01 * 2**-53 * S`` of it: two roundings, of a product
    and of a difference, each at most ``(1 + 2**-52) * S`` in size.  Take
    ``i < L_a`` and the computed argmax ``k >= L_a`` at ``u_a``.  Rounding
    ``max - M`` moves it by at most ``2**-52 * S``, so ``s_i(u_a) < s_k(u_a)
    - M + 2**-52 * S``, and ``t_k(u_a) - t_i(u_a) > M - 2**-52 * S - 2e``.
    In exact arithmetic ``t_k(u) - t_i(u)`` is linear in ``u`` with slope
    ``xs[k] - xs[i] >= 0``, as ``xs`` is nondecreasing; ``us`` is
    nondecreasing, so ``u >= u_a`` and the bound holds at ``u`` too.  Then
    ``s_k(u) - s_i(u) > M - 2**-52 * S - 4e > 53 * 2**-53 * S > 0``: ``i``
    scores strictly below the maximum.  ``i > R_c`` is the mirror case at
    ``u_c``.  An index with ``vals = +inf`` scores -inf and never reaches a
    finite maximum; a row whose maximum is -inf is all near-max.

    Each (row, gap) pair is scored in the narrowest window of ``20 * 2**k``
    points, or the whole row, that holds its ``[L_a, R_c]``.  A window of
    ``size`` points starts at ``min(L_a, n - size)``; its extra indices
    score strictly below the maximum too.  One brute-force block serves two
    cases: duals where a window's maximum is a zero reached by both +0.0
    and -0.0, which :func:`_maxima` finds and the whole column is rescored
    for; and whole calls that the proof does not cover or with ``n <= 20``.
    Every temporary stays within ``max(vals.size, 15 * n, 65,536)`` doubles.
    """
    b, n = vals.shape
    m = us.size
    anchors = np.minimum(np.arange(0, m + _ANCHOR_STRIDE - 1, _ANCHOR_STRIDE), m - 1)
    margin = _window_margin(xs, vals, us) if n > _WINDOW and anchors.size < m else None
    if margin is None:
        return _brute_force_max(xs, vals, us)
    out = np.empty((b, m))
    out[:, anchors], first, last = _anchor_spans(xs, vals, us[anchors], margin)

    # Gap g runs strictly between anchors g and g + 1; a short last gap
    # repeats its last dual, which writes the same bits twice.
    span = np.arange(1, _ANCHOR_STRIDE)
    gaps = np.flatnonzero(np.diff(anchors) > 1)
    duals = np.minimum(anchors[gaps, None] + span, anchors[gaps + 1, None] - 1)
    left = first[:, gaps]
    width = last[:, gaps + 1] - left + 1
    flat_out = out.reshape(-1)
    rescore = np.zeros(m, dtype=bool)

    size, done = _WINDOW, np.zeros(width.shape, dtype=bool)
    while True:
        size = min(size, n)
        fits = width <= size
        rows, gap = np.nonzero(fits & ~done)
        lag = np.arange(size)[:, None]
        per_block = max(1, _BLOCK // (2 * span.size * size))
        for p0 in range(0, rows.size, per_block):
            r, g = rows[p0:p0 + per_block], gap[p0:p0 + per_block]
            js = duals[g].T
            top, mixed = _window_maxima(xs, vals, us, r, np.minimum(left[r, g], n - size) + lag, js)
            flat_out[r * m + js] = top
            rescore[js[mixed]] = True
        if size == n:
            break
        size, done = 2 * size, fits

    cols = np.flatnonzero(rescore)
    if cols.size:
        out[:, cols] = _brute_force_max(xs, vals, us[cols])
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


def weakly_convex_envelope_grid(f: SampledFunction) -> SampledFunction:
    """Tightest 1-weakly-convex minorant via double conjugation of ``f + ||.||^2/2``.

    Both conjugations use the primal grid as the dual grid, so the shifted
    function's slopes must stay inside the grid's range; trust the result
    only on the interior of the grid.
    """
    half_sq = _half_sq(f.grid)
    shifted = SampledFunction(f.grid, f.values + half_sq)
    conj = legendre_conjugate_grid(shifted, f.grid)
    biconj = legendre_conjugate_grid(conj, f.grid)
    return SampledFunction(f.grid, biconj.values - half_sq)


def default_prox_box(x, reach: float, step: float) -> GridSpec:
    """Square search box of half-width ``reach + 1`` around ``x``, snapped to ``step``."""
    if not (math.isfinite(reach) and reach >= 0):
        raise ValueError(f"reach must be finite and nonnegative, got {reach!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    half = reach + 1.0
    span = 2.0 * half / step
    if not math.isfinite(span):
        raise ValueError(f"a box of half-width {half!r} has too many steps of {step!r} to count")
    n = max(2, int(math.ceil(span)))
    # Python floats: an upper end past the float range is inf, which Axis refuses, not a warning.
    p = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
    axes = tuple(Axis(c - half, (c - half) + n * step, step) for c in p)
    return GridSpec(axes)


def _cluster_tol(step: float, gamma: float) -> float:
    # Grid offset from a true minimizer costs O(step^2 / gamma) in objective.
    return 1e-9 + step * step / gamma


def _best_index(obj: np.ndarray, flat_idx: np.ndarray | list[int]) -> int:
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
def _sampled(penalty, box: GridSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """The box mesh, ``penalty`` on it and the least sample, memoised per (penalty, box).

    The mesh and the samples are read-only.  Two entries hold what
    :func:`verify_inclusion` alternates between: a penalty and its envelope
    on one box.  Reuse assumes ``penalty`` is a pure function of its
    argument.  The least sample is NaN when any sample is.
    """
    mesh = box.mesh()
    mesh.setflags(write=False)
    # A read-only view, so it never freezes an array the penalty itself owns;
    # a penalty that returns one number is that number on every cell.
    values = np.broadcast_to(np.asarray(penalty(mesh), dtype=float), box.shape)
    return mesh, values, float(np.min(values))


def _penalty_samples(penalty, box: GridSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_sampled`, evaluated directly for a callable that cannot be hashed."""
    try:
        hash(penalty)
    except TypeError:
        return _sampled.__wrapped__(penalty, box)
    return _sampled(penalty, box)


def _brute_force_prox_1d(penalty, x: float, gamma: float, box: GridSpec) -> ProxSet:
    ax = box.axes[0]
    ys, pen, _ = _penalty_samples(penalty, box)
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


def _clusters(mask: np.ndarray) -> list[list[int]]:
    """8-connected components of a 2-D boolean mask, as sorted flat cell indices.

    Components are numbered in row-major order of their first cell, as
    ``scipy.ndimage.label`` numbers them with a 3x3 structure.
    """
    width = mask.shape[1]
    cells = np.flatnonzero(mask).tolist()
    unseen = set(cells)
    out = []
    for start in cells:
        if start not in unseen:
            continue
        unseen.remove(start)
        stack, members = [start], []
        while stack:
            c = stack.pop()
            members.append(c)
            j = c % width  # an index off either row end is never in ``unseen``
            lo, hi = (-1 if j > 0 else 0), (2 if j < width - 1 else 1)
            for row in (c - width, c, c + width):
                for nb in range(row + lo, row + hi):
                    if nb in unseen:
                        unseen.remove(nb)
                        stack.append(nb)
        out.append(sorted(members))
    return out


def _reach(lowest: float, dist: np.ndarray, two_gamma: float, top: float) -> tuple[int, int]:
    """The first and one past the last index whose bound ``lowest + dist/two_gamma`` is not above ``top``.

    A NaN bound, or a NaN ``top``, is not above it, so it keeps its index.
    """
    keep = np.flatnonzero(~(lowest + dist / two_gamma > top))
    return int(keep[0]), int(keep[-1]) + 1


def _brute_force_prox_2d(penalty, x, gamma: float, box: GridSpec) -> ProxSet:
    mesh, pen, lowest = _penalty_samples(penalty, box)
    n0, n1 = pen.shape
    p = Point2.of(x)
    # Squared distances per axis, summed by broadcasting: each cell adds the
    # same two squares a full-mesh evaluation would, so every bit is the same.
    d0 = (p.x1 - mesh[:, 0, 0]) ** 2
    d1 = (p.x2 - mesh[0, :, 1]) ** 2
    two_gamma = 2.0 * gamma
    step = box.max_step
    tol = _cluster_tol(step, gamma)
    # Score only the rows and columns whose bound can reach top = fl(U + tol),
    # U the objective at the cell nearest x (see brute_force_prox).
    i, j = int(np.argmin(d0)), int(np.argmin(d1))
    with np.errstate(over="ignore", invalid="ignore"):
        top = pen[i, j] + (d0[i] + d1[j]) / two_gamma + tol
        r0, r1 = _reach(lowest, d0, two_gamma, top)
        c0, c1 = _reach(lowest, d1, two_gamma, top)
    obj = pen[r0:r1, c0:c1] + (d0[r0:r1, None] + d1[None, c0:c1]) / two_gamma
    mask = obj <= _objective_min(obj) + tol
    if ((r0 == 0 and mask[0].any()) or (r1 == n0 and mask[-1].any())
            or (c0 == 0 and mask[:, 0].any()) or (c1 == n1 and mask[:, -1].any())):
        raise BoxTooSmallError("minimizer cluster touches the search-box boundary")
    clusters = _clusters(mask)
    width = c1 - c0

    def cluster_best(flat: list[int]) -> np.ndarray:
        i, j = divmod(_best_index(obj, flat), width)
        return mesh[r0 + i, c0 + j]

    if len(clusters) == 1:
        [flat] = clusters
        cols = [c % width for c in flat]
        # flat is sorted, so its ends hold the first and last row.
        if max(flat[-1] // width - flat[0] // width, max(cols) - min(cols)) <= 3:
            return ProxSet.single(cluster_best(flat))
        pts = mesh[r0 + np.array(flat) // width, c0 + np.array(cols)]
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

    A line is scored whole; a box is scored only on the rows and columns
    that can reach ``fl(min + tol)``, the near-optimal threshold.  With
    ``L`` the least sample, ``U`` the objective at the cell nearest ``x``
    and ``T = fl(U + tol)``: rounding is monotone, so each cell of row ``i``
    scores at least ``fl(L + fl(d0[i] / (2*gamma)))``, as its sample is at
    least ``L`` and its column's square ``d1[j]`` at least 0, and ``T`` is
    at least ``fl(min + tol)``, as ``min <= U``.  A row whose bound exceeds
    ``T`` holds neither the minimum nor a near-optimal cell, and likewise a
    column.  So the result, and which error is raised, are those of the
    whole box.  A NaN or -inf sample, or a ``U`` that is not finite, keeps
    the whole box: a NaN anywhere raises, as does an all-+inf box.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if box.dims == 1:
        return _brute_force_prox_1d(penalty, float(x), gamma, box)
    return _brute_force_prox_2d(penalty, x, gamma, box)


class MonotoneGraph1D:
    """A maximal monotone curve in the plane, stored as its vertices in order.

    This is the filled graph of a (possibly discontinuous) scalar shrinkage
    operator: straight pieces join consecutive vertices, affine between
    breakpoints and vertical where they close a jump.
    """

    def __init__(self, vertices) -> None:
        v = tuple((float(x), float(y)) for x, y in vertices)
        if len(v) < 2:
            raise ValueError("need at least two vertices")
        if not all(math.isfinite(c) for vertex in v for c in vertex):
            raise ValueError("graph vertices must be finite")
        for (x0, y0), (x1, y1) in zip(v, v[1:]):
            if x1 < x0 or y1 < y0:
                raise ValueError("graph vertices must be nondecreasing in both coordinates")
            if x1 == x0 and y1 == y0:
                raise ValueError(f"repeated graph vertex {(x0, y0)}")
        self.vertices = v

    @classmethod
    def hard_graph(cls, threshold: float) -> "MonotoneGraph1D":
        """Filled graph of hard shrinkage at ``threshold``, truncated to ``[-1e6, 1e6]``."""
        t = float(threshold)
        limit = 1e6
        if not (math.isfinite(t) and t > 0 and limit > t):
            raise ValueError("need 0 < threshold < 1e6")
        return cls([(-limit, -limit), (-t, -t), (-t, 0.0), (t, 0.0), (t, t), (limit, limit)])

    @property
    def x_range(self) -> tuple[float, float]:
        return self.vertices[0][0], self.vertices[-1][0]

    def breakpoints(self) -> list[tuple[float, ProxSet]]:
        """Jump locations with the interval of values filling each jump."""
        v = self.vertices
        return [(x0, ProxSet.segment(y0, y1)) for (x0, y0), (x1, y1) in zip(v, v[1:]) if x0 == x1]

    def image_at(self, x: float) -> ProxSet:
        """All graph values above ``x`` (an interval at breakpoints)."""
        x = float(x)
        lo_x, hi_x = self.x_range
        if not lo_x <= x <= hi_x:
            raise ValueError(f"{x} outside graph range [{lo_x}, {hi_x}]")
        ys: list[float] = []
        v = self.vertices
        for (x0, y0), (x1, y1) in zip(v, v[1:]):
            if x0 <= x <= x1:
                if x0 == x1:
                    ys.extend((y0, y1))
                else:
                    # From the nearer end: from a far one (1e6 away on a
                    # truncated tail) the slope's rounding error grows with
                    # the distance and the sum cancels.
                    ex, ey = (x0, y0) if x - x0 <= x1 - x else (x1, y1)
                    ys.append(ey + (y1 - y0) * (x - ex) / (x1 - x0))
        # Equal ends collapse to min(ys), which is ys[0] when all values are equal.
        return ProxSet.segment(min(ys), max(ys))


def convert_1d(graph: MonotoneGraph1D, delta: float, q: float) -> float:
    """Relax a scalar shrinkage operator by mapping its filled graph.

    The relaxed operator, obtained by scaling the underlying penalty down by
    ``delta + 1``, has as graph the image of the filled graph under the linear
    map ``(x, p) -> ((x + delta * p) / (delta + 1), p)``, applied to each
    vertex.  Each mapped piece slopes, so the relaxed graph has one value at
    ``q``; it is read off exactly, with no iteration.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    scale = delta + 1.0
    relaxed = MonotoneGraph1D(((x + delta * p) / scale, p) for x, p in graph.vertices)
    (p,) = relaxed.image_at(q).points()
    return p


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of an oracle check that one prox set sits inside another."""

    prox_penalty: ProxSet
    prox_envelope: ProxSet
    max_distance: float
    included: bool


def verify_inclusion(penalty, envelope, x, box: GridSpec) -> InclusionReport:
    """Check by exhaustive search that the penalty's prox lies inside the envelope's.

    Both proxes are taken at unit step, the step at which the paper pairs a
    penalty with its 1-weakly-convex envelope.  They come from
    :func:`brute_force_prox` on the same box, so repeated queries with one
    penalty, envelope and box sample each only once; every defining point of
    the first must come within twice the grid step of the second set.
    """
    prox_pen = brute_force_prox(penalty, x, 1.0, box)
    prox_env = brute_force_prox(envelope, x, 1.0, box)
    dist = max(prox_env.distance(p) for p in prox_pen.points())
    return InclusionReport(prox_pen, prox_env, float(dist), bool(dist <= 2.0 * box.max_step))


def _sample_pairs(pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-8.0, 8.0, size=(pairs, 2))
    ys = rng.uniform(-8.0, 8.0, size=(pairs, 2))
    return xs, ys


def check_monotone(op, pairs: int = 1000, seed: int = 0) -> float:
    """Smallest ``<op(x) - op(y), x - y>`` over random pairs in ``[-8, 8]^2`` (>= 0 if monotone)."""
    xs, ys = _sample_pairs(pairs, seed)
    dif_in = xs - ys
    dif_out = np.asarray(op(xs)) - np.asarray(op(ys))
    return float(np.min(np.sum(dif_in * dif_out, axis=-1)))


def check_lipschitz(op, pairs: int = 1000, seed: int = 0) -> float:
    """Largest displacement ratio ``|op(x) - op(y)| / |x - y|`` over random pairs in ``[-8, 8]^2``."""
    xs, ys = _sample_pairs(pairs, seed)
    num = np.linalg.norm(np.asarray(op(xs)) - np.asarray(op(ys)), axis=-1)
    den = np.linalg.norm(xs - ys, axis=-1)
    keep = den > 0
    return float(np.max(num[keep] / den[keep]))


def jacobian_symmetry_defect(op, x) -> float:
    """Asymmetry ``|J01 - J10|`` of the central-difference Jacobian of a planar operator."""
    h = 1e-5
    p = Point2.of(x).as_array()
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    j01 = (np.asarray(op(p + e1)) - np.asarray(op(p - e1)))[0] / (2.0 * h)
    j10 = (np.asarray(op(p + e0)) - np.asarray(op(p - e0)))[1] / (2.0 * h)
    return float(abs(j01 - j10))
