"""Counter-based deterministic random streams for the experiment harness.

The generator is pinned down to the bit level so that reruns (and independent
reimplementations) produce identical draws:

* stream keying: the 64-bit seed, a scenario id, and a trial index are folded
  together with the splitmix64 finalizer; the resulting key seeds a
  splitmix64 sequence whose first four outputs become the xoshiro256++ state;
* uniforms: the top 53 bits of each xoshiro256++ output, mapped to ``(0, 1]``;
* normals: Box-Muller pairs on consecutive uniforms, second value cached.

Streams depend only on ``(seed, scenario_id, trial_index)``, never on
execution order, so trials can run in any order or concurrently.
"""
from __future__ import annotations

import math

__all__ = ["Xoshiro256pp", "stream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _mix64(z: int) -> int:
    """splitmix64 output finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    return state, _mix64(state)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256pp:
    """xoshiro256++ with Box-Muller normals; state is four nonzero 64-bit words."""

    def __init__(self, s0: int, s1: int, s2: int, s3: int) -> None:
        if (s0 | s1 | s2 | s3) == 0:
            # the all-zero state is invalid for xoshiro; refill it from splitmix
            state = _GOLDEN
            state, s0 = _splitmix64_next(state)
            state, s1 = _splitmix64_next(state)
            state, s2 = _splitmix64_next(state)
            state, s3 = _splitmix64_next(state)
        self._s = [s0 & _MASK64, s1 & _MASK64, s2 & _MASK64, s3 & _MASK64]
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform draw in ``(0, 1]`` from the top 53 bits."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; pairs are drawn together and cached."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = _TWO_PI * u2
        self._cached_normal = r * math.sin(theta)
        return r * math.cos(theta)


def stream(seed: int, scenario_id: int, trial_index: int) -> Xoshiro256pp:
    """Independent generator keyed by ``(seed, scenario_id, trial_index)``."""
    for name, v in (("seed", seed), ("scenario_id", scenario_id), ("trial_index", trial_index)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
    key = seed & _MASK64
    key = _mix64(key ^ _mix64(((scenario_id + 1) * _GOLDEN) & _MASK64))
    key = _mix64(key ^ _mix64(((trial_index + 1) * _GOLDEN) & _MASK64))
    state = key
    words = []
    for _ in range(4):
        state, z = _splitmix64_next(state)
        words.append(z)
    return Xoshiro256pp(*words)
