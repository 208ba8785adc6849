"""Planar value types and set-valued prox results.

Every prox returns a :class:`ProxSet`: of kind ``single``, ``pair`` or
``segment`` in ℝ², and ``single``, ``pair`` or ``interval`` on ℝ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point2",
    "WeightPair",
    "ProxSet",
]


def _require_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} components must be finite, got {v!r}")


@dataclass(frozen=True)
class Point2:
    """A point in the plane with finite coordinates."""

    x1: float
    x2: float

    def __init__(self, x1: float, x2: float) -> None:
        x1, x2 = float(x1), float(x2)
        if not (math.isfinite(x1) and math.isfinite(x2)):
            _require_finite("Point2", x1, x2)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @classmethod
    def of(cls, p) -> "Point2":
        """Coerce a Point2, pair, or length-2 array into a Point2."""
        if isinstance(p, Point2):
            return p
        a = np.asarray(p, dtype=float).reshape(-1)
        if a.size != 2:
            raise ValueError(f"expected 2 components, got {a.size}")
        return cls(float(a[0]), float(a[1]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.x1, self.x2], dtype=dtype)

    def __iter__(self):
        yield self.x1
        yield self.x2


@dataclass(frozen=True)
class WeightPair:
    """Nondecreasing, nonnegative weight pair ``w1 <= w2``.

    The smaller weight is applied to the larger magnitude, which is what makes
    the ordered weighted penalty nonconvex.
    """

    w1: float
    w2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w1", float(self.w1))
        object.__setattr__(self, "w2", float(self.w2))
        _require_finite("WeightPair", self.w1, self.w2)
        if not 0.0 <= self.w1 <= self.w2:
            raise ValueError(f"weights must satisfy 0 <= w1 <= w2, got ({self.w1}, {self.w2})")

    @property
    def spread(self) -> float:
        return self.w2 - self.w1

    def as_array(self) -> np.ndarray:
        return np.array([self.w1, self.w2])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.w1, self.w2], dtype=dtype)

    def __iter__(self):
        yield self.w1
        yield self.w2


def _seg_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = min(1.0, max(0.0, float((p - a) @ ab) / denom))
    proj = a + t * ab
    return float(np.hypot(*(p - proj)))


_KIND_SIZES = {"single": 1, "pair": 2, "segment": 2, "interval": 2}


def _prox_point(p) -> float | Point2:
    """A float on the line, a :class:`Point2` in the plane."""
    if isinstance(p, float) or np.ndim(p) == 0:
        v = float(p)
        _require_finite("ProxSet", v)
        return v
    return Point2.of(p)


@dataclass(frozen=True)
class ProxSet:
    """Result of a set-valued prox on ℝ or ℝ²: one point, an unordered pair, or a segment.

    Its points are floats on ℝ and :class:`Point2` in ℝ².  A segment on ℝ has
    kind ``interval`` and holds its low end first.
    """

    kind: str
    _points: tuple

    def __post_init__(self) -> None:
        pts = self._points
        if _KIND_SIZES.get(self.kind) != len(pts) or (len(pts) == 2 and pts[0] == pts[1]):
            raise ValueError(f"malformed {self.kind!r} ProxSet {pts!r}")

    @classmethod
    def single(cls, p) -> "ProxSet":
        return cls("single", (_prox_point(p),))

    @classmethod
    def pair(cls, p, q) -> "ProxSet":
        """Two distinct candidate points; collapses to a single point when they coincide."""
        a, b = _prox_point(p), _prox_point(q)
        return cls("single", (a,)) if a == b else cls("pair", (a, b))

    @classmethod
    def segment(cls, p, q) -> "ProxSet":
        """The closed segment between two endpoints; collapses when they coincide."""
        a, b = _prox_point(p), _prox_point(q)
        if a == b:
            return cls("single", (a,))
        if isinstance(a, Point2):
            return cls("segment", (a, b))
        return cls("interval", (min(a, b), max(a, b)))

    def points(self) -> tuple:
        """The defining points (the ends of a segment or interval)."""
        return self._points

    def distance(self, p) -> float:
        """Euclidean distance from ``p`` to the set."""
        pts = self._points
        if not isinstance(pts[0], Point2):
            v = float(p)
            if math.isnan(v):
                raise ValueError("distance query must not be NaN")
            if self.kind == "interval":
                lo, hi = pts
                return lo - v if v < lo else v - hi if v > hi else 0.0
            return min(abs(v - u) for u in pts)
        q = Point2.of(p).as_array()
        if self.kind == "segment":
            return _seg_distance(q, pts[0].as_array(), pts[1].as_array())
        return min(float(np.hypot(*(q - r.as_array()))) for r in pts)
