"""Command-line front end.

Subcommands:

* ``prox``       evaluate a (possibly set-valued) shrinkage at one point
* ``envelope``   evaluate a relaxed penalty at a point or export it on a grid
* ``verify``     run the invariant suites and print a pass/fail table
* ``experiment`` run scenario a, b, or c and write its CSV bundle

Exit codes: 0 on success, 1 on bad usage or invalid values, 2 when ``verify``
finds a failing check.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .core import Point2, WeightPair
from .erowl import ErowlParams, erowl_shrinker
from .experiments import (
    ScenarioConfig,
    mean_mismatch,
    scenario_a,
    scenario_b,
)
from .rowl import prox_rowl_2d, prox_rowl_envelope_2d, rowl_envelope_2d, rowl_penalty
from .scalar_ops import FirmParams, firm, hard, l0_envelope, prox_l0, prox_l0_envelope, soft
from .transform import GridSpec
from .verify import SUITE_NAMES, run_all, run_suite

__all__ = ["run_cli", "main"]


#: Most values an SNR sweep ``lo:step:hi`` may expand to.
MAX_SNR_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message):  # noqa: D401 - argparse hook
        raise _UsageError(f"{self.prog}: error: {message}")


def _parse_floats(text: str, n: int, what: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"could not parse {what} {text!r} as comma-separated numbers") from None
    if len(vals) != n:
        raise _UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return vals


def _parse_snr(text: str) -> tuple[float, ...]:
    """Accept ``lo:step:hi`` sweeps, comma lists, and ``inf``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"SNR sweep must be lo:step:hi, got {text!r}")
        try:
            lo, step, hi = (float(p) for p in parts)
        except ValueError:
            raise _UsageError(f"could not parse SNR sweep {text!r}") from None
        if not all(map(math.isfinite, (lo, step, hi))):
            raise _UsageError(f"SNR sweep bounds and step must be finite, got {text!r}")
        if step <= 0 or hi < lo:
            raise _UsageError(f"SNR sweep must have step > 0 and hi >= lo, got {text!r}")
        span = (hi - lo) / step + 1e-9
        if not span < MAX_SNR_POINTS:  # also an infinite span, before any value is built
            raise _UsageError(f"SNR sweep {text!r} has more than {MAX_SNR_POINTS} values")
        return tuple(lo + i * step for i in range(int(math.floor(span)) + 1))
    try:
        return tuple(math.inf if p.strip() in ("inf", "+inf") else float(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"could not parse SNR list {text!r}") from None


def _fmt(v: float) -> str:
    return repr(float(v))


def _print_set(s) -> None:
    """One line per point, or one line naming a segment or interval and its ends."""
    texts = [",".join(map(_fmt, p)) if isinstance(p, Point2) else _fmt(p) for p in s.points()]
    if s.kind in ("segment", "interval"):
        print(s.kind, *texts)
    else:
        print(*texts, sep="\n")


def _need(args, name: str):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        raise _UsageError(f"--{name} is required for --op {args.op}")
    return val


def _cmd_prox(args) -> int:
    op = args.op
    if op in ("l0", "l0-env", "hard", "soft", "firm"):
        (x,) = _parse_floats(args.x, 1, "--x")
        if op == "l0":
            _print_set(prox_l0(x, args.gamma))
        elif op == "l0-env":
            _print_set(prox_l0_envelope(x))
        elif op == "hard":
            print(_fmt(float(hard(x, float(_need(args, "threshold"))))))
        elif op == "soft":
            print(_fmt(float(soft(x, float(_need(args, "threshold"))))))
        else:
            params = FirmParams(float(_need(args, "lambda1")), float(_need(args, "lambda2")))
            print(_fmt(float(firm(x, params))))
        return 0

    x = Point2(*_parse_floats(args.x, 2, "--x"))
    w = WeightPair(*_parse_floats(_need(args, "w"), 2, "--w"))
    if op == "rowl":
        _print_set(prox_rowl_2d(x, w))
    elif op == "rowl-env":
        _print_set(prox_rowl_envelope_2d(x, w))
    else:  # erowl
        delta = float(_need(args, "delta"))
        y = erowl_shrinker(ErowlParams(w, delta))((x.x1, x.x2))
        print(f"{_fmt(y[0])},{_fmt(y[1])}")
    return 0


def _cmd_envelope(args) -> int:
    if args.grid is None and args.x is None:
        raise _UsageError("envelope needs --x or --grid")
    if args.op == "l0":
        if args.grid is not None:
            lo, step, hi = _parse_floats(args.grid, 3, "--grid")
            xs = GridSpec.line(lo, hi, step).axes[0].points()
            lines = ["x,value"] + [f"{_fmt(x)},{_fmt(float(l0_envelope(x)))}" for x in xs]
        else:
            (x,) = _parse_floats(args.x, 1, "--x")
            lines = [_fmt(float(l0_envelope(x)))]
        _emit(args.out, lines)
        return 0

    w = WeightPair(*_parse_floats(_need(args, "w"), 2, "--w"))
    func = rowl_envelope_2d if args.op == "rowl" else rowl_penalty
    if args.grid is not None:
        lo, step, hi = _parse_floats(args.grid, 3, "--grid")
        pts = GridSpec.square(lo, hi, step).mesh().reshape(-1, 2)
        vals = func(pts, w)
        lines = ["axis0,axis1,value"]
        for (p, q), v in zip(pts, vals):
            lines.append(f"{_fmt(p)},{_fmt(q)},{_fmt(float(v))}")
    else:
        x = _parse_floats(args.x, 2, "--x")
        lines = [_fmt(float(func(np.array(x), w)))]
    _emit(args.out, lines)
    return 0


def _emit(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    results = run_all(args.seed) if args.suite == "all" else run_suite(args.suite, args.seed)
    width = max(len(f"{r.suite}/{r.name}") for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        tail = f"  ({r.detail})" if r.detail else ""
        print(f"{mark}  {f'{r.suite}/{r.name}':<{width}}{tail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 2 if failures else 0


def _experiment_config(args) -> ScenarioConfig:
    overrides: dict = {"seed": args.seed, "out_path": args.out}
    if args.gamma_delta is not None:
        overrides["gamma_delta"] = args.gamma_delta
    if args.gamma_mu is not None:
        overrides["gamma_mu"] = args.gamma_mu
    if args.delta is not None:
        overrides["delta_override"] = args.delta
    if args.scenario == "a":
        if args.trials is not None or args.snr is not None:
            raise _UsageError("experiment a is one noiseless trial: --trials and --snr do not apply")
        cfg = ScenarioConfig.scenario_a_defaults(**overrides)
    else:
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.snr is not None:
            overrides["snr_list_db"] = _parse_snr(args.snr)
        maker = ScenarioConfig.scenario_b_defaults if args.scenario == "b" else ScenarioConfig.scenario_c_defaults
        cfg = maker(**overrides)
    if args.w is not None:
        cfg = dataclasses.replace(cfg, w_erowl=WeightPair(*_parse_floats(args.w, 2, "--w")))
    return cfg


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    # B and C run through one function; the scenario in ``cfg`` decides which.
    records = scenario_a(cfg).records if args.scenario == "a" else scenario_b(cfg)
    for (method, snr_db, x1), mean in sorted(mean_mismatch(records).items()):
        print(f"{method:>6}  snr={_fmt(snr_db):>6}  xtrue1={_fmt(x1):>5}  mean mismatch {mean:.3f} dB")
    if cfg.out_path:
        print(f"wrote outputs to {cfg.out_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="proxlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="evaluate a shrinkage operator at a point")
    p.add_argument("--op", required=True,
                   choices=["l0", "l0-env", "hard", "soft", "firm", "rowl", "rowl-env", "erowl"])
    p.add_argument("--x", required=True, help="point, e.g. 1.5 or 2,2")
    p.add_argument("--w", help="weight pair w1,w2")
    p.add_argument("--delta", type=float, help="relaxation parameter (erowl)")
    p.add_argument("--gamma", type=float, default=1.0, help="prox step (l0)")
    p.add_argument("--threshold", type=float, help="threshold (hard/soft)")
    p.add_argument("--lambda1", type=float, help="inner threshold (firm)")
    p.add_argument("--lambda2", type=float, help="outer threshold (firm)")
    p.set_defaults(fn=_cmd_prox)

    p = sub.add_parser("envelope", help="evaluate a relaxed penalty")
    p.add_argument("--op", required=True, choices=["l0", "rowl", "rowl-raw"])
    p.add_argument("--x", help="evaluation point")
    p.add_argument("--w", help="weight pair w1,w2")
    p.add_argument("--grid", help="lo,step,hi for a CSV export")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="run a recovery experiment")
    p.add_argument("scenario", choices=["a", "b", "c"])
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--trials", type=int)
    p.add_argument("--snr", help="SNR list 10,20 or sweep lo:step:hi, in dB")
    p.add_argument("--w", help="relaxed-method weight pair w1,w2")
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma-delta", type=float, dest="gamma_delta")
    p.add_argument("--gamma-mu", type=float, dest="gamma_mu")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def run_cli(argv=None) -> int:
    """Parse ``argv`` and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
