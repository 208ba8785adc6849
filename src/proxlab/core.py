"""Planar value types and set-valued prox results.

A planar prox returns a :class:`ProxSet` of kind ``single``, ``pair`` or
``segment``; a scalar prox returns a :class:`ScalarProxSet` of kind
``single``, ``pair`` or ``interval``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point2",
    "WeightPair",
    "ProxSet",
    "ScalarProxSet",
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

    def reversed_array(self) -> np.ndarray:
        """The weights in reversed order (larger weight first)."""
        return np.array([self.w2, self.w1])

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


@dataclass(frozen=True)
class ProxSet:
    """Result of a set-valued planar prox: a point, an unordered pair, or a segment."""

    kind: str
    a: Point2
    b: Point2 | None = None

    _KINDS = ("single", "pair", "segment")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown ProxSet kind {self.kind!r}")
        if self.kind == "single":
            if self.b is not None:
                raise ValueError("single ProxSet carries exactly one point")
        else:
            if self.b is None:
                raise ValueError(f"{self.kind} ProxSet needs two points")
            if (self.a.x1, self.a.x2) == (self.b.x1, self.b.x2):
                raise ValueError(f"{self.kind} ProxSet points must be distinct")

    @classmethod
    def single(cls, p) -> "ProxSet":
        return cls("single", Point2.of(p))

    @classmethod
    def point_pair(cls, p, q) -> "ProxSet":
        """Two distinct candidate points; collapses to a single point when they coincide."""
        a, b = Point2.of(p), Point2.of(q)
        if (a.x1, a.x2) == (b.x1, b.x2):
            return cls("single", a)
        return cls("pair", a, b)

    @classmethod
    def segment(cls, p, q) -> "ProxSet":
        """The closed segment between two endpoints; collapses when they coincide."""
        a, b = Point2.of(p), Point2.of(q)
        if (a.x1, a.x2) == (b.x1, b.x2):
            return cls("single", a)
        return cls("segment", a, b)

    def points(self) -> tuple[Point2, ...]:
        """The defining points (segment endpoints for the segment variant)."""
        if self.kind == "single":
            return (self.a,)
        return (self.a, self.b)

    def distance(self, p) -> float:
        """Euclidean distance from ``p`` to the set."""
        q = Point2.of(p).as_array()
        if self.kind == "segment":
            return _seg_distance(q, self.a.as_array(), self.b.as_array())
        return min(float(np.hypot(*(q - r.as_array()))) for r in self.points())

    def contains(self, p, tol: float = 0.0) -> bool:
        return self.distance(p) <= tol


@dataclass(frozen=True)
class ScalarProxSet:
    """Result of a set-valued scalar prox: a value, an unordered pair, or a closed interval."""

    kind: str
    a: float
    b: float | None = None

    _KINDS = ("single", "pair", "interval")

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if self.b is not None:
            object.__setattr__(self, "b", float(self.b))
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown ScalarProxSet kind {self.kind!r}")
        if self.kind == "single":
            if self.b is not None:
                raise ValueError("single ScalarProxSet carries exactly one value")
            _require_finite("ScalarProxSet", self.a)
        else:
            if self.b is None:
                raise ValueError(f"{self.kind} ScalarProxSet needs two values")
            _require_finite("ScalarProxSet", self.a, self.b)
            if self.kind == "pair" and self.a == self.b:
                raise ValueError("pair values must be distinct")
            if self.kind == "interval" and not self.a < self.b:
                raise ValueError("interval needs lo < hi")

    @classmethod
    def single(cls, v: float) -> "ScalarProxSet":
        return cls("single", v)

    @classmethod
    def pair(cls, u: float, v: float) -> "ScalarProxSet":
        if float(u) == float(v):
            return cls("single", u)
        return cls("pair", u, v)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "ScalarProxSet":
        lo, hi = float(lo), float(hi)
        if lo == hi:
            return cls("single", lo)
        if lo > hi:
            lo, hi = hi, lo
        return cls("interval", lo, hi)

    def values(self) -> tuple[float, ...]:
        if self.kind == "single":
            return (self.a,)
        return (self.a, self.b)

    def distance(self, v: float) -> float:
        v = float(v)
        if self.kind == "interval":
            if v < self.a:
                return self.a - v
            if v > self.b:
                return v - self.b
            return 0.0
        return min(abs(v - u) for u in self.values())

    def contains(self, v: float, tol: float = 0.0) -> bool:
        return self.distance(v) <= tol
