"""Command-line front end.

Subcommands:

* ``prox``       evaluate a (possibly set-valued) shrinkage at one point
* ``envelope``   evaluate a relaxed penalty at a point or export it on a grid
* ``verify``     run the invariant suites and print a pass/fail table
* ``experiment`` run scenario a, b, or c and write its CSV bundle

Each op of ``prox`` and ``envelope`` and each scenario of ``experiment`` takes
the options its ``--help`` lists, and any other option is a usage error.
``envelope --grid`` builds at most 1,000,000 cells.

Exit codes: 0 on success, 1 on bad usage or invalid values, 2 when ``verify``
finds a failing check.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .core import Point2, ProxSet, WeightPair
from .erowl import ErowlParams, erowl_shrinker
from .experiments import ScenarioConfig, mean_mismatch, scenario_a, scenario_b
from .rowl import prox_rowl_2d, prox_rowl_envelope_2d, rowl_envelope_2d, rowl_penalty
from .scalar_ops import FirmParams, firm, hard, l0_envelope, prox_l0, prox_l0_envelope, soft
from .transform import Axis, GridSpec
from .verify import SUITE_NAMES, run_all, run_suite

__all__ = ["run_cli", "main"]


#: Most values an SNR sweep ``lo:step:hi`` may expand to.
MAX_SNR_POINTS = 10_000
#: Most cells ``envelope --grid`` may build: a 1001 x 1001 square.
MAX_GRID_CELLS = 1_000_000


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
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"could not parse SNR list {text!r}") from None


def _fmt(v: float) -> str:
    return repr(float(v))


def _print_result(v) -> None:
    """A value, or ``y1,y2``, on one line; a prox set one line per point, or
    one line naming a segment or interval and its ends."""
    if not isinstance(v, ProxSet):
        print(",".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v))
        return
    texts = [",".join(map(_fmt, p)) if isinstance(p, Point2) else _fmt(p) for p in v.points()]
    if v.kind in ("segment", "interval"):
        print(v.kind, *texts)
    else:
        print(*texts, sep="\n")


class _Spec(NamedTuple):
    """What an op or scenario takes: ``dims`` numbers in ``--x`` (0: no ``--x``) and its
    ``options``, each with a default (``None``: left to ``fn``) or ``...`` if required."""

    dims: int
    options: dict
    fn: Callable


_PROX = {
    "l0": _Spec(1, {"gamma": 1.0}, prox_l0),
    "l0-env": _Spec(1, {}, prox_l0_envelope),
    "hard": _Spec(1, {"threshold": ...}, hard),
    "soft": _Spec(1, {"threshold": ...}, soft),
    "firm": _Spec(1, {"lambda1": ..., "lambda2": ...},
                  lambda x, lambda1, lambda2: firm(x, FirmParams(lambda1, lambda2))),
    "rowl": _Spec(2, {"w": ...}, prox_rowl_2d),
    "rowl-env": _Spec(2, {"w": ...}, prox_rowl_envelope_2d),
    "erowl": _Spec(2, {"w": ..., "delta": ...},
                   lambda x, w, delta: erowl_shrinker(ErowlParams(w, delta))(tuple(x))),
}

#: Each function takes points stacked on the last axis.
_ENVELOPE = {
    "l0": _Spec(1, {"out": None}, lambda p: l0_envelope(p[..., 0])),
    "rowl": _Spec(2, {"w": ..., "out": None}, rowl_envelope_2d),
    "rowl-raw": _Spec(2, {"w": ..., "out": None}, rowl_penalty),
}

# Scenario A is one noiseless run on the fixed design at step 2: a seed, trial count,
# SNR or gamma_mu would change no byte of it.
_NOISY = dict.fromkeys(("seed", "trials", "snr", "w", "delta", "gamma_delta", "gamma_mu", "out"))
_EXPERIMENT = {
    "a": _Spec(0, dict.fromkeys(("w", "delta", "gamma_delta", "out")), lambda cfg: scenario_a(cfg).records),
    # B and C run through one function; the scenario in ``cfg`` decides which.
    "b": _Spec(0, _NOISY, scenario_b),
    "c": _Spec(0, _NOISY, scenario_b),
}

#: The ``ScenarioConfig`` setting of each ``experiment`` option named otherwise.
_SETTINGS = {"snr": "snr_list_db", "w": "w_erowl", "delta": "delta_override", "out": "out_path"}

#: Options given as text that a table entry needs as a value.
_PARSE = {"w": lambda text: WeightPair(*_parse_floats(text, 2, "--w")), "snr": _parse_snr}

#: Parsed arguments that are not options an op may or may not take.
_NOT_OPTIONS = {"command", "fn", "op", "scenario", "x", "grid"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _checked(args, table: dict, key: str, label: str) -> tuple[_Spec, dict]:
    """``table[key]`` and the values of its options; one it does not take, or lacks, is a usage error."""
    spec = table[key]
    given = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS and v is not None}
    extra = [_flag(k) for k in given if k not in spec.options]
    if extra:
        raise _UsageError(f"{label} does not take {', '.join(extra)}")
    for name, default in spec.options.items():
        if default is ... and name not in given:
            raise _UsageError(f"{_flag(name)} is required for {label}")
    return spec, {k: _PARSE.get(k, lambda v: v)(given[k]) if k in given else default
                  for k, default in spec.options.items()}


def _help(table: dict, point: str) -> str:
    """What each entry of ``table`` takes, for a subcommand's ``--help``."""
    lines = ["what each takes ([optional], [optional=default]); any other option is an error:"]
    for key, spec in table.items():
        words = [point.format("X" if spec.dims == 1 else "X1,X2")] if spec.dims else []
        for name, default in spec.options.items():
            flag = _flag(name) if default is ... or default is None else f"{_flag(name)}={default}"
            words.append(flag if default is ... else f"[{flag}]")
        lines.append(f"  {key:<9} {' '.join(words)}")
    return "\n".join(lines)


def _point(args, dims: int) -> tuple[float, ...]:
    """``--x`` as ``dims`` finite numbers."""
    x = _parse_floats(args.x, dims, "--x")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"--x must be finite, got {args.x!r}")
    return x


def _cmd_prox(args) -> int:
    spec, values = _checked(args, _PROX, args.op, f"prox --op {args.op}")
    x = _point(args, spec.dims)
    _print_result(spec.fn(x[0] if spec.dims == 1 else Point2(*x), **values))
    return 0


def _cmd_envelope(args) -> int:
    if (args.x is None) == (args.grid is None):
        raise _UsageError("envelope needs exactly one of --x or --grid")
    spec, values = _checked(args, _ENVELOPE, args.op, f"envelope --op {args.op}")
    out = values.pop("out")
    if args.x is not None:
        lines = [_fmt(spec.fn(np.array(_point(args, spec.dims)), **values))]
    else:
        lo, step, hi = _parse_floats(args.grid, 3, "--grid")
        axis = Axis(lo, hi, step)
        cells = axis.count ** spec.dims
        if cells > MAX_GRID_CELLS:  # before a point is built
            raise _UsageError(f"--grid {args.grid} has {cells} cells, more than {MAX_GRID_CELLS}")
        pts = GridSpec((axis,) * spec.dims).mesh().reshape(-1, spec.dims)
        lines = ["x,value" if spec.dims == 1 else "axis0,axis1,value"]
        lines += [",".join(map(_fmt, (*p, v))) for p, v in zip(pts, spec.fn(pts, **values))]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    return 0


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


def _cmd_experiment(args) -> int:
    spec, values = _checked(args, _EXPERIMENT, args.scenario, f"experiment {args.scenario}")
    settings = {_SETTINGS.get(k, k): v for k, v in values.items() if v is not None}
    cfg = ScenarioConfig.defaults(args.scenario.upper(), **settings)
    for (method, snr_db, x1), mean in sorted(mean_mismatch(spec.fn(cfg)).items()):
        print(f"{method:>6}  snr={_fmt(snr_db):>6}  xtrue1={_fmt(x1):>5}  mean mismatch {mean:.3f} dB")
    if cfg.out_path:
        print(f"wrote outputs to {cfg.out_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="proxlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    raw = argparse.RawDescriptionHelpFormatter
    p = sub.add_parser("prox", help="evaluate a shrinkage operator at a point",
                       epilog=_help(_PROX, "--x {}"), formatter_class=raw)
    p.add_argument("--op", required=True, choices=list(_PROX))
    p.add_argument("--x", required=True, help="point, e.g. 1.5 or 2,2")
    p.add_argument("--w", help="weight pair w1,w2")
    for name, text in (("delta", "relaxation parameter"), ("gamma", "prox step"), ("threshold", "threshold"),
                       ("lambda1", "inner threshold"), ("lambda2", "outer threshold")):
        p.add_argument(_flag(name), type=float, help=text)
    p.set_defaults(fn=_cmd_prox)

    p = sub.add_parser("envelope", help="evaluate a relaxed penalty",
                       epilog=_help(_ENVELOPE, "(--x {} | --grid LO,STEP,HI)"), formatter_class=raw)
    p.add_argument("--op", required=True, choices=list(_ENVELOPE))
    p.add_argument("--x", help="evaluation point")
    p.add_argument("--w", help="weight pair w1,w2")
    p.add_argument("--grid", help=f"lo,step,hi for a CSV export of at most {MAX_GRID_CELLS} cells")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="run a recovery experiment",
                       epilog=_help(_EXPERIMENT, ""), formatter_class=raw)
    p.add_argument("scenario", choices=list(_EXPERIMENT))
    for name, kind in (("seed", int), ("trials", int), ("delta", float),
                       ("gamma_delta", float), ("gamma_mu", float)):
        p.add_argument(_flag(name), type=kind)
    p.add_argument("--snr", help="SNR list 10,20 or sweep lo:step:hi, in dB")
    p.add_argument("--w", help="relaxed-method weight pair w1,w2")
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
