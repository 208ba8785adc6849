"""Per-layer measurements of the traced run, taken from outside the program.

:func:`instrument` swaps wrappers in for the public functions that
``proxlab.experiments`` and ``proxlab.transform`` call through their module
namespaces, so a pass runs the unchanged library while the wrappers add up
counts and seconds per layer.  Kernels and imports are timed apart from any
pass.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import os
import subprocess
import sys
from math import prod
from pathlib import Path
from time import perf_counter

import numpy as np

from proxlab import experiments, transform
from proxlab.core import WeightPair
from proxlab.erowl import ErowlParams, erowl, erowl_shrinker
from proxlab.rowl import rowl_shrinker
from proxlab.scalar_ops import FirmParams, firm_shrinker

from checks import MAX_CYCLE_PERIOD

METHODS = ("ROWL", "eROWL", "firm")
ENDINGS = ("converged", "cycled", "max_iter", "diverged")

UNITS: dict[str, str] = {}
for _m in METHODS:
    UNITS[f"solver.pfbs.s.{_m}"] = "s"
for _m in METHODS:
    UNITS[f"solver.iterations.{_m}"] = "count"
for _m in METHODS:
    UNITS[f"solver.iterations_reported.{_m}"] = "count"
for _m in METHODS:
    UNITS[f"solver.ns_per_iteration.{_m}"] = "ns"
for _e in ENDINGS:
    UNITS[f"solver.endings.{_e}"] = "count"
UNITS.update({
    "solver.cycled_iteration_share": "%",
    "solver.max_iterations.eROWL": "count",
    "solver.spectral_bounds.calls": "count",
    "solver.spectral_bounds.s": "s",
    "solver.select_parameters.s": "s",
    "rng.normals": "count",
    "rng.normal.s": "s",
    "experiments.generate_model.s": "s",
    "experiments.write.s": "s",
    "experiments.write.bytes": "bytes",
    "experiments.other.s": "s",
    "rowl.shrink.ns": "ns",
    "erowl.shrink.ns": "ns",
    "scalar_ops.firm_shrink.ns": "ns",
    "erowl.erowl.ns_per_point": "ns",
    "transform.brute_force_prox.calls": "count",
    "transform.brute_force_prox.s": "s",
    "transform.brute_force_prox.self_s": "s",
    "transform.brute_force_prox.cells": "count",
    "transform.penalty_eval.s": "s",
    "transform.penalty_eval.cells": "count",
    "transform.verify_inclusion.s": "s",
    "transform.weakly_convex_envelope_grid.s": "s",
    "transform.legendre_conjugate_grid.calls": "count",
    "transform.legendre_conjugate_grid.s": "s",
    "transform.convert_1d.calls": "count",
    "transform.convert_1d.s": "s",
    "transform.worst.inclusion_distance": "1",
    "transform.worst.erowl_oracle_distance": "1",
    "transform.worst.envelope_error": "1",
    "transform.worst.convert_error": "1",
    "cli.import.s": "s",
    "import.scipy.s": "s",
    "import.numpy.s": "s",
    "tracing.pass_s": "s",
    "tracing.overhead_s": "s",
})


def _timed(fn, acc, seconds_key, calls_key=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[seconds_key] += perf_counter() - t0
            if calls_key is not None:
                acc[calls_key] += 1
    return wrapper


def _cycled(tail) -> bool:
    """Whether the last ``p`` outputs repeat the ``p`` before them, for some ``2 <= p <= MAX_CYCLE_PERIOD``."""
    out = list(tail)
    return any(len(out) >= 2 * p and out[-p:] == out[-2 * p:-p] for p in range(2, MAX_CYCLE_PERIOD + 1))


class _TimedStream:
    """Proxy around a generator from ``proxlab.experiments.stream`` that times each normal draw."""

    def __init__(self, gen, acc) -> None:
        self._gen = gen
        self._acc = acc

    def normal(self) -> float:
        t0 = perf_counter()
        z = self._gen.normal()
        self._acc["rng.normal.s"] += perf_counter() - t0
        self._acc["rng.normals"] += 1
        return z

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _patch_experiments(acc, patch) -> None:
    tags: dict = {}

    def tagging(factory, method):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            shrink = factory(*args, **kwargs)
            tags[shrink] = method
            return shrink
        return make

    real_pfbs = experiments.pfbs

    @functools.wraps(real_pfbs)
    def pfbs(model, shrink, *args, **kwargs):
        method = tags[shrink]
        executed = 0
        tail = collections.deque(maxlen=2 * MAX_CYCLE_PERIOD)

        def counted(p):
            nonlocal executed
            executed += 1
            out = shrink(p)
            tail.append(out)
            return out

        t0 = perf_counter()
        res = real_pfbs(model, counted, *args, **kwargs)
        acc[f"solver.pfbs.s.{method}"] += perf_counter() - t0
        acc[f"solver.iterations.{method}"] += executed
        acc[f"solver.iterations_reported.{method}"] += res.iterations
        if res.converged:
            ending = "converged"
        elif res.diverged:
            ending = "diverged"
        elif _cycled(tail):
            ending = "cycled"
            acc["cycled_iterations"] += executed
        else:
            ending = "max_iter"
        acc[f"solver.endings.{ending}"] += 1
        if method == "eROWL":
            acc["solver.max_iterations.eROWL"] = max(acc["solver.max_iterations.eROWL"], res.iterations)
        return res

    def stream(*args, **kwargs):
        return _TimedStream(real_stream(*args, **kwargs), acc)

    def writer(fn):
        @functools.wraps(fn)
        def write(path, records):
            t0 = perf_counter()
            fn(path, records)
            acc["experiments.write.s"] += perf_counter() - t0
            acc["experiments.write.bytes"] += os.path.getsize(path)
        return write

    real_stream = experiments.stream
    patch(experiments, "pfbs", pfbs)
    patch(experiments, "stream", stream)
    patch(experiments, "rowl_shrinker", tagging(experiments.rowl_shrinker, "ROWL"))
    patch(experiments, "erowl_shrinker", tagging(experiments.erowl_shrinker, "eROWL"))
    patch(experiments, "firm_shrinker", tagging(experiments.firm_shrinker, "firm"))
    patch(experiments, "spectral_bounds", _timed(
        experiments.spectral_bounds, acc, "solver.spectral_bounds.s", "solver.spectral_bounds.calls"))
    patch(experiments, "select_parameters", _timed(
        experiments.select_parameters, acc, "solver.select_parameters.s"))
    patch(experiments, "write_records_csv", writer(experiments.write_records_csv))
    patch(experiments, "write_means_csv", writer(experiments.write_means_csv))


def _patch_transform(acc, patch) -> None:
    real_bfp = transform.brute_force_prox

    @functools.wraps(real_bfp)
    def brute_force_prox(penalty, x, gamma, box):
        def timed_penalty(z):
            t0 = perf_counter()
            try:
                return penalty(z)
            finally:
                acc["transform.penalty_eval.s"] += perf_counter() - t0
                acc["transform.penalty_eval.cells"] += np.size(z) // box.dims

        t0 = perf_counter()
        try:
            return real_bfp(timed_penalty, x, gamma, box)
        finally:
            acc["transform.brute_force_prox.s"] += perf_counter() - t0
            acc["transform.brute_force_prox.calls"] += 1
            acc["transform.brute_force_prox.cells"] += prod(box.shape)

    patch(transform, "brute_force_prox", brute_force_prox)
    patch(transform, "verify_inclusion", _timed(
        transform.verify_inclusion, acc, "transform.verify_inclusion.s"))
    patch(transform, "weakly_convex_envelope_grid", _timed(
        transform.weakly_convex_envelope_grid, acc, "transform.weakly_convex_envelope_grid.s"))
    patch(transform, "legendre_conjugate_grid", _timed(
        transform.legendre_conjugate_grid, acc,
        "transform.legendre_conjugate_grid.s", "transform.legendre_conjugate_grid.calls"))
    patch(transform, "convert_1d", _timed(
        transform.convert_1d, acc, "transform.convert_1d.s", "transform.convert_1d.calls"))


@contextlib.contextmanager
def instrument(acc):
    """Route the library's layer calls through counting wrappers that add into ``acc``."""
    saved = []

    def patch(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    try:
        _patch_experiments(acc, patch)
        _patch_transform(acc, patch)
        yield acc
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def pass_metrics(acc, pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass that took ``pass_s`` seconds."""
    out = {name: float(acc.get(name, 0.0)) for name in UNITS}
    executed = sum(out[f"solver.iterations.{m}"] for m in METHODS)
    for m in METHODS:
        if out[f"solver.iterations.{m}"]:
            out[f"solver.ns_per_iteration.{m}"] = 1e9 * out[f"solver.pfbs.s.{m}"] / out[f"solver.iterations.{m}"]
    if executed:
        out["solver.cycled_iteration_share"] = 100.0 * acc.get("cycled_iterations", 0) / executed
    out["transform.brute_force_prox.self_s"] = (
        out["transform.brute_force_prox.s"] - out["transform.penalty_eval.s"])
    if any(out[f"solver.pfbs.s.{m}"] for m in METHODS):
        children = ("solver.spectral_bounds.s", "solver.select_parameters.s", "rng.normal.s",
                    "experiments.write.s", *(f"solver.pfbs.s.{m}" for m in METHODS))
        out["experiments.other.s"] = pass_s - sum(out[c] for c in children)
    return out


def _fastest_per_call(fn, calls: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return 1e9 * best / calls


def kernel_metrics(seed: int, points: int = 20_000) -> dict[str, float]:
    """Nanoseconds per call of the solver closures and per point of vectorised ``erowl``.

    One seeded batch over ``[-3, 3]^2`` reaches every branch of each shrinker.
    """
    batch = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(points, 2))
    pairs = [tuple(p) for p in batch.tolist()]
    e_params = ErowlParams(WeightPair(0.0, 1.0), 1.0)
    closures = {
        "rowl.shrink.ns": rowl_shrinker(WeightPair(0.0, 0.1)),
        "erowl.shrink.ns": erowl_shrinker(e_params),
        "scalar_ops.firm_shrink.ns": firm_shrinker(FirmParams(0.5, 3.0)),
    }
    out = {}
    for name, shrink in closures.items():
        out[name] = _fastest_per_call(lambda: [shrink(p) for p in pairs], points)
    out["erowl.erowl.ns_per_point"] = _fastest_per_call(lambda: erowl(batch, e_params), points)
    return out


_CLI_IMPORT = "import time; t = time.perf_counter(); import proxlab.cli; print(time.perf_counter() - t)"


def _import_seconds(stderr: str, package: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``package`` and its submodules, outermost entries only."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    ancestors: list[tuple[int, bool]] = []  # children print before their parent
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        ours = name == package or name.startswith(package + ".")
        if ours and not any(theirs for _, theirs in ancestors):
            total += cumulative
        ancestors.append((depth, ours))
    return total * 1e-6


def import_metrics(src: Path, repeats: int = 3) -> dict[str, float]:
    """Fresh-interpreter import times of ``proxlab.cli``, numpy and scipy (fastest of ``repeats``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    out = {"cli.import.s": float("inf"), "import.numpy.s": float("inf"), "import.scipy.s": float("inf")}
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _CLI_IMPORT], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        out["cli.import.s"] = min(out["cli.import.s"], float(done.stdout))
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import proxlab.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        for package in ("numpy", "scipy"):
            key = f"import.{package}.s"
            out[key] = min(out[key], _import_seconds(done.stderr, package))
    return out
