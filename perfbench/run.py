"""Run one benchmark workload and print its result as the last line of standard output.

    python3 perfbench/run.py --workload mc_c --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  A run builds
the workload's inputs, makes one untimed warm-up pass, then repeats timed
passes over the same inputs for ``--seconds`` seconds, checking every pass's
outputs.  With ``--trace 0`` it reports ``pass_s`` (the pass time, summed
from the fastest time of each of its segments, where a long PFBS solve counts
as its iterations times its fastest sampled time per iteration), ``setup_s``
(from fresh interpreters started one at a time between the passes, summed
from the fastest import time of each module and the fastest rest of a probe)
and ``peak_rss_mb``; with ``--trace 1`` it spends half the time on plain passes
and half on traced ones and reports the per-layer figures.  Pass outputs,
``result.json`` and ``passes.json`` (or ``trace.json`` when traced) go to
``perfbench/out/<workload>/``.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("mc_c", "mc_b", "oracle")
#: Fresh interpreters started one at a time to time set-up, spread evenly over
#: the timed passes.
SETUP_PROBES = 10
MIN_TIMED_PASSES = 3
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def use_checkout_source() -> None:
    """Import ``proxlab`` from this checkout's ``src/``; stop if it is not there."""
    if not (SRC / "proxlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no proxlab package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup_seconds(workload: str, seed: int, size: str) -> tuple[float, dict[str, float]]:
    """Seconds from launching a fresh interpreter until it has built the workload's inputs.

    Also returns each module's ``-X importtime`` self seconds in that interpreter.
    """
    cmd = [sys.executable, "-X", "importtime", str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--size", size]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start, import_self_seconds(done.stderr)


def import_self_seconds(stderr: str) -> dict[str, float]:
    """Module name -> self seconds, from the ``-X importtime`` lines of ``stderr``."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                out[name.strip()] = int(own) * 1e-6
    return out


def fastest_setup(probes: list[tuple[float, dict[str, float]]]) -> float:
    """Set-up time summed, like a pass, from the fastest time of each of its segments.

    The segments are each module that every probe imports, timed by its
    import self time, and the rest of the probe: start-up and building the
    inputs.  A whole probe is 0.35 to 0.75 s long, and its fastest repeat
    drifts with the host's load as a long solve does.
    """
    common = set.intersection(*(set(modules) for _, modules in probes))
    rest = min(total - sum(modules[m] for m in common) for total, modules in probes)
    return rest + sum(min(modules[m] for _, modules in probes) for m in common)


def fastest(passes: list[tuple[np.ndarray, dict]]) -> float:
    """Sum over a pass's segments of each segment's fastest time across ``passes``.

    A pass is split where a solve starts or ends (Monte Carlo) or a query
    ends (oracle); passes are deterministic, so segment k is the same work
    in every pass.  A long solve's segment counts as its iteration count
    times the fastest seconds per iteration sampled in it across ``passes``.
    """
    best = np.min(np.stack([segments for segments, _ in passes]), axis=0)
    for k, (iterations, _) in passes[0][1].items():
        rates = [long_solves[k][1] for _, long_solves in passes if np.isfinite(long_solves[k][1])]
        if rates:
            best[k] = iterations * min(rates)
    return float(best.sum())


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        out_root: Path = OUT) -> dict:
    """Measure one workload and return the result object."""
    import layers
    import workloads

    out_dir = out_root / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = workloads.make(workload, seed, size)
    setup_times: list[tuple[float, dict[str, float]]] = []
    tally = collections.Counter()

    def one_pass(acc=None):
        pass_dir = out_dir / f"pass_{tally['passes']:03d}"
        tally["passes"] += 1
        tally["attempted"] += len(wl.ops)
        try:
            with layers.instrument(acc) if acc is not None else contextlib.nullcontext():
                stamps = [time.perf_counter()]
                output = wl.run_pass(pass_dir, stamps)
                stamps.append(time.perf_counter())
            tally["failed"] += len(wl.check(output))
            return np.diff(stamps), dict(getattr(wl, "long_solves", {}))
        except Exception:
            traceback.print_exc()
            tally["failed"] += len(wl.ops)
            return None

    def setup_probes_due(start: float, budget: float, probes: int) -> None:
        """Time the set-up probes whose share of ``budget`` from ``start`` has come."""
        while len(setup_times) < probes and time.perf_counter() >= start + budget * len(setup_times) / probes:
            setup_times.append(setup_seconds(workload, seed, size))

    def timed_passes(budget: float, traced: bool = False,
                     probes: int = 0) -> list[tuple[tuple[np.ndarray, dict], dict]]:
        timed = []
        start = time.perf_counter()
        for k in range(sys.maxsize):
            setup_probes_due(start, budget, probes)
            if k >= MIN_TIMED_PASSES and time.perf_counter() >= start + budget:
                break
            acc = collections.defaultdict(float) if traced else None
            timing = one_pass(acc)
            if timing is not None:
                timed.append((timing, acc))
        if not timed:
            raise SystemExit(f"perfbench: every pass of {workload} raised")
        return timed

    one_pass()  # warm-up
    if trace:
        plain = timed_passes(seconds / 2.0)
        traced = timed_passes(seconds / 2.0, traced=True)
        pass_s = fastest([s for s, _ in plain])
        traced_s = fastest([s for s, _ in traced])
        (quickest, _), acc = min(traced, key=lambda item: item[0][0].sum())
        metrics = layers.pass_metrics(acc, float(quickest.sum()))
        metrics["tracing.pass_s"] = traced_s
        metrics["tracing.overhead_s"] = traced_s - pass_s
        metrics.update({f"transform.worst.{k}": v for k, v in wl.worst.items()})
        if isinstance(wl, workloads.McWorkload):
            metrics["experiments.generate_model.s"] = min(wl.replay_models() for _ in range(3))
        metrics.update(layers.kernel_metrics(seed))
        metrics.update(layers.import_metrics(SRC))
        units = layers.UNITS
        detail = {"plain_pass_s": [float(s.sum()) for (s, _), _ in plain],
                  "traced_pass_s": [float(s.sum()) for (s, _), _ in traced]}
    else:
        timed = timed_passes(seconds, probes=SETUP_PROBES)
        while len(setup_times) < SETUP_PROBES:  # left over when passes outlast the budget
            setup_times.append(setup_seconds(workload, seed, size))
        metrics = {
            "pass_s": fastest([s for s, _ in timed]),
            "setup_s": fastest_setup(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail = {"pass_s": [float(s.sum()) for (s, _), _ in timed],
                  "setup_probe_s": [total for total, _ in setup_times],
                  "long_solves": {k: {"iterations": n, "fastest_ns_per_iteration": 1e9 * min(
                      ls[k][1] for (_, ls), _ in timed)} for k, (n, _) in timed[0][0][1].items()}}
    if isinstance(wl, workloads.McWorkload):
        detail["rowl_not_converged"] = wl.checker.non_converged_rowl
        detail["rowl_exact_cycles"] = wl.checker.cycles
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    (out_dir / ("trace.json" if trace else "passes.json")).write_text(json.dumps(detail, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every pass, for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the workload's inputs, print the monotonic clock and exit")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.probe_setup:
        import workloads

        workloads.make(args.workload, args.seed, args.size)
        print(time.monotonic())
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for name, m in result["metrics"].items():
        print(f"{args.workload:7s} {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:7s} attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
