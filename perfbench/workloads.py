"""The benchmark's workloads: inputs built once, one timed pass, and the pass's checks.

``mc_c`` and ``mc_b`` run the Monte Carlo scenarios at their default
configuration (seed 12345) over trials ``0..N-1``; their inputs do not depend
on the benchmark seed.  A pass's cost is dominated by which trials hold ROWL
solves that cycle to ``max_iter`` (or, for ``mc_b``, the eROWL tail), and that
changes several-fold from one scenario seed to the next, so a pass over seeded
trials would measure the draw rather than the program.  ``oracle`` draws its
query points from the benchmark seed; its per-query cost does not depend on
the point.
"""
from __future__ import annotations

import contextlib
import dataclasses
import signal
from pathlib import Path
from time import perf_counter

import numpy as np

from proxlab import experiments, transform
from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, erowl
from proxlab.experiments import ScenarioConfig, generate_model
from proxlab.rowl import rowl_envelope_2d, rowl_penalty
from proxlab.scalar_ops import SQRT2, FirmParams, firm, l0_envelope, l0_norm

import checks

NAMES = ("mc_c", "mc_b", "oracle")
SIZES = ("full", "tiny")

#: Trials per Monte Carlo pass.  Trials 0..29 of scenario C hold three trials
#: (20, 23, 25) whose ROWL solves cycle in 9 cells; trials 0..499 of scenario
#: B hold the 67,267-iteration eROWL solve.
MC_TRIALS = {("mc_c", "full"): 30, ("mc_c", "tiny"): 1, ("mc_b", "full"): 500, ("mc_b", "tiny"): 4}

#: Oracle queries per pass.
ORACLE_SIZES = {
    "full": dict(planar=40, ties=4, line=62, rdelta=48, convert=200),
    "tiny": dict(planar=2, ties=1, line=2, rdelta=3, convert=3),
}
PLANAR_BOX = transform.GridSpec.square(-6.0, 6.0, 0.05)
LINE_BOX = transform.GridSpec.line(-5.0, 5.0, 0.01)
ENVELOPE_GRID_2D = transform.GridSpec.square(-6.0, 6.0, 0.05)
ENVELOPE_GRID_1D = transform.GridSpec.line(-6.0, 6.0, 0.01)
ENVELOPE_INNER = 4.0
INCLUSION_W = WeightPair(0.0, 2.0)
ENVELOPE_WEIGHTS = (WeightPair(0.0, 2.0), WeightPair(0.5, 1.5), WeightPair(1.0, 3.0))
TIES = np.linspace(-3.5, 3.5, 50)
RDELTA_DELTAS = (0.5, 1.0, 5.0)
RDELTA_W2 = (0.2, 4.0)
COARSE_STEP, FINE_STEP, FINE_REACH = 0.05, 0.01, 0.08
CONVERT_DELTAS = (0.5, 1.0, 2.0)

#: A solve of at least this many PFBS iterations (about 7 ms) is timed by its
#: per-iteration rate, not as one segment.
LONG_SOLVE_ITERATIONS = 8192
#: Wall-clock period of the iteration-counter samples taken during a solve.
SAMPLE_PERIOD_S = 1e-3
#: Fewest iterations between two samples for their interval to give a rate.
MIN_RATE_ITERATIONS = 256
#: The solver's own loop, found on the stack by the sampler.
_PFBS_CODE = experiments.pfbs.__code__


@contextlib.contextmanager
def iteration_sampler(samples: list[tuple[float, int, float]]):
    """Sample the iteration counter of the running ``pfbs`` call on a wall-clock timer.

    A SIGALRM handler reads the ``iterations`` counter of the solver's frame,
    so the solver runs unchanged, and appends ``(clock on entry, iterations,
    clock on exit)``; no sample is taken outside a solve.
    """
    def on_alarm(signum, frame):
        entered = perf_counter()
        while frame is not None and frame.f_code is not _PFBS_CODE:
            frame = frame.f_back
        if frame is not None:
            done = frame.f_locals.get("iterations")
            if isinstance(done, int):
                samples.append((entered, done, perf_counter()))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def fastest_rate(samples) -> float:
    """Fewest seconds per iteration between two consecutive samples; NaN without such a pair.

    The interval runs from the end of one sample to the start of the next,
    so the sampler's own time is left out.
    """
    rates = [(t1 - t0) / (i1 - i0) for (_, i0, t0), (t1, i1, _) in zip(samples, samples[1:])
             if i1 - i0 >= MIN_RATE_ITERATIONS]
    return min(rates, default=float("nan"))


class McWorkload:
    """One scenario run per pass, written to the pass directory and checked from its CSVs."""

    def __init__(self, name: str, size: str) -> None:
        trials = MC_TRIALS[(name, size)]
        if name == "mc_c":
            self.cfg = ScenarioConfig.scenario_c_defaults(trials=trials)
            self.scenario = experiments.scenario_c
            sweep = self.cfg.x1_sweep
        else:
            self.cfg = ScenarioConfig.scenario_b_defaults(trials=trials)
            self.scenario = experiments.scenario_b
            sweep = (self.cfg.x_true.x1,)
        self.ops = [(t, snr, x1) for snr in self.cfg.snr_list_db for x1 in sweep for t in range(trials)]
        self.checker = checks.McChecker(self.cfg, self.ops)
        self.worst: dict[str, float] = {}
        self.long_solves: dict[int, tuple[int, float]] = {}

    def run_pass(self, pass_dir: Path, stamps: list[float]) -> Path:
        """Run the scenario into ``pass_dir``, stamping the clock as each solve starts and ends.

        Each solve of at least ``LONG_SOLVE_ITERATIONS`` iterations is also
        noted in ``self.long_solves`` as ``segment index -> (iterations,
        fastest sampled seconds per iteration)``.
        """
        real_pfbs = experiments.pfbs
        samples: list[tuple[float, int, float]] = []
        self.long_solves = {}

        def pfbs(*args, **kwargs):
            samples.clear()
            segment = len(stamps)
            stamps.append(perf_counter())
            try:
                res = real_pfbs(*args, **kwargs)
            finally:
                stamps.append(perf_counter())
            if res.iterations >= LONG_SOLVE_ITERATIONS:
                self.long_solves[segment] = (res.iterations, fastest_rate(samples))
            return res

        experiments.pfbs = pfbs
        try:
            with iteration_sampler(samples):
                self.scenario(dataclasses.replace(self.cfg, out_path=str(pass_dir)))
        finally:
            experiments.pfbs = real_pfbs
        return pass_dir

    def check(self, pass_dir: Path) -> set:
        return self.checker.check(pass_dir)

    def replay_models(self) -> float:
        """Seconds to regenerate every model of the pass through the public ``generate_model``."""
        cfgs = {x1: dataclasses.replace(self.cfg, x_true=Point2(x1, self.cfg.x_true.x2))
                for _, _, x1 in self.ops}
        t0 = perf_counter()
        for trial, snr_db, x1 in self.ops:
            generate_model(cfgs[x1], trial, snr_db)
        return perf_counter() - t0


class OracleWorkload:
    """Grid-oracle queries: prox inclusion, R_delta against brute force, grid envelopes, conversion.

    Each query is one operation.  The penalty, the envelope and every query
    point are built here, so a pass only calls into ``proxlab.transform``
    (looked up at call time, so tracing sees the calls).
    """

    def __init__(self, seed: int, size: str) -> None:
        n = ORACLE_SIZES[size]
        rng = np.random.default_rng(seed)
        self.inclusion_penalty = lambda z: rowl_penalty(z, INCLUSION_W.as_array())
        self.inclusion_envelope = lambda z: rowl_envelope_2d(z, INCLUSION_W)
        self.hard_graph = transform.MonotoneGraph1D.hard_graph(SQRT2)
        ops: list[tuple] = [("planar", x) for x in rng.uniform(-4.0, 4.0, size=(n["planar"], 2))]
        for t in rng.choice(TIES, size=n["ties"], replace=False):
            ops += [("planar", np.array([t, t])), ("planar", np.array([-t, t]))]
        ops += [("line", float(x)) for x in rng.uniform(-4.0, 4.0, size=n["line"])]
        ops += [("line", SQRT2), ("line", -SQRT2)]
        # w2 is stratified over its range: the coarse search box grows with w2.
        lo, hi = RDELTA_W2
        strata = (np.arange(n["rdelta"]) + rng.uniform(size=n["rdelta"])) / n["rdelta"]
        for k, w2 in enumerate(lo + (hi - lo) * rng.permutation(strata)):
            w = WeightPair(rng.uniform(0.0, w2), w2)
            delta = RDELTA_DELTAS[k % len(RDELTA_DELTAS)]
            x = rng.uniform(-6.0, 6.0, size=2)
            ops.append(("rdelta", w, delta, x, lambda z, w=w, d=delta: rowl_envelope_2d(z, w) / (d + 1.0)))
        ops.append(("envelope_2d", ENVELOPE_WEIGHTS[int(rng.integers(len(ENVELOPE_WEIGHTS)))]))
        ops.append(("envelope_1d",))
        for delta in CONVERT_DELTAS:
            ops += [("convert", delta, float(q)) for q in rng.uniform(-4.0, 4.0, size=n["convert"])]
        self.ops = ops
        self.worst: dict[str, float] = {}
        self._closed_form: dict = {}

    def run_pass(self, pass_dir: Path, stamps: list[float]) -> list:
        """Answer every query, stamping the clock after each."""
        outputs = []
        for op in self.ops:
            try:
                outputs.append(self._query(op))
            except Exception as exc:  # a raising query is a failed operation
                outputs.append(exc)
            stamps.append(perf_counter())
        return outputs

    def _query(self, op):
        kind = op[0]
        if kind == "planar":
            return transform.verify_inclusion(
                self.inclusion_penalty, self.inclusion_envelope, op[1], PLANAR_BOX)
        if kind == "line":
            return transform.verify_inclusion(l0_norm, l0_envelope, op[1], LINE_BOX)
        if kind == "rdelta":
            _, w, delta, x, penalty = op
            coarse = transform.brute_force_prox(
                penalty, x, 1.0, transform.default_prox_box(x, w.w2, COARSE_STEP))
            n = int(round(2.0 * FINE_REACH / FINE_STEP))
            fine_box = transform.GridSpec(tuple(
                transform.Axis(c - FINE_REACH, c - FINE_REACH + n * FINE_STEP, FINE_STEP)
                for c in coarse.points()[0]))
            oracle = transform.brute_force_prox(penalty, x, 1.0, fine_box)
            return oracle, erowl(x, ErowlParams(w, delta))
        if kind == "envelope_2d":
            w = op[1]
            sampled = transform.SampledFunction.sample(
                ENVELOPE_GRID_2D, lambda z: rowl_penalty(z, w.as_array()))
            return transform.weakly_convex_envelope_grid(sampled)
        if kind == "envelope_1d":
            return transform.weakly_convex_envelope_grid(
                transform.SampledFunction.sample(ENVELOPE_GRID_1D, l0_norm))
        if kind == "convert":
            return transform.convert_1d(self.hard_graph, op[1], op[2])
        raise ValueError(f"unknown oracle query {kind!r}")

    def check(self, outputs) -> set:
        """Indices of the queries whose output misses its acceptance tolerance."""
        self.worst = {}
        return {k for k, (op, out) in enumerate(zip(self.ops, outputs)) if not self.query_ok(op, out)}

    def _note(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), value)

    def query_ok(self, op, out) -> bool:
        if isinstance(out, Exception):
            return False
        kind = op[0]
        if kind in ("planar", "line"):
            box = PLANAR_BOX if kind == "planar" else LINE_BOX
            dist = checks.inclusion_distance(out.prox_penalty, out.prox_envelope)
            self._note("inclusion_distance", dist)
            return dist <= checks.INCLUSION_STEPS * box.max_step
        if kind == "rdelta":
            oracle, y = out
            dist = checks.set_distance(oracle.kind, checks.prox_points(oracle), y)
            self._note("erowl_oracle_distance", dist)
            return dist <= checks.INCLUSION_STEPS * FINE_STEP
        if kind == "envelope_2d":
            mesh = ENVELOPE_GRID_2D.mesh()
            inner = np.max(np.abs(mesh), axis=-1) <= ENVELOPE_INNER
            key = ("2d", op[1])
            if key not in self._closed_form:
                self._closed_form[key] = rowl_envelope_2d(mesh, op[1])[inner]
            err = float(np.max(np.abs(out.values[inner] - self._closed_form[key])))
            self._note("envelope_error", err)
            return err <= checks.ENVELOPE_TOL_2D
        if kind == "envelope_1d":
            xs = ENVELOPE_GRID_1D.axes[0].points()
            inner = np.abs(xs) <= ENVELOPE_INNER
            return float(np.max(np.abs(out.values[inner] - l0_envelope(xs[inner])))) <= checks.ENVELOPE_TOL_1D
        if kind == "convert":
            _, delta, q = op
            err = abs(out - float(firm(q, FirmParams(SQRT2 / (delta + 1.0), SQRT2))))
            self._note("convert_error", err)
            return err <= checks.CONVERT_TOL
        return False


def make(name: str, seed: int, size: str = "full"):
    """Build a workload's inputs; ``seed`` draws the oracle queries."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if name == "oracle":
        return OracleWorkload(seed, size)
    return McWorkload(name, size)
