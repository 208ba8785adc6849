"""Apply each mutant in ``MUTANTS`` to a copy of the tree and report whether the tests catch it.

Usage, from anywhere::

    python tools/mutants.py [SUBSTRING ...]

With SUBSTRINGs, only the rows whose file, old or new text contains one of
them run.  For each row the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory (the copy's ``pyproject.toml``
puts the copied ``src`` on the tests' path), replaces the row's old text,
which must occur exactly once in its file, and runs ``pytest -x -q`` there.
It prints ``caught`` with the first failing test id, or ``survived``.  A
row's ``first`` test files run on their own before all of ``tests/``, so a
mutant they catch stops early; a survivor costs a full Tier-1 run (about 35 s on a
2-core x86 machine).  The script exits non-zero when a row's old text is
not found exactly once or its result is not the one the table expects.
This script is not part of Tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    """Replace ``old`` by ``new`` in ``src/proxlab/<file>``; ``expect`` is
    ``"caught"`` or ``"equivalent"`` (no test can tell, so it survives)."""

    file: str
    old: str
    new: str
    expect: str
    first: tuple[str, ...] = ()


SOLVER, SCALAR = "tests/test_solver.py", "tests/test_scalar_ops.py"
TRANSFORM, EXPERIMENTS = "tests/test_transform.py", "tests/test_experiments.py"
ROWL, EROWL, CLI = "tests/test_rowl.py", "tests/test_erowl.py", "tests/test_cli.py"

MUTANTS = [
    # One sign/magnitude split in pfbs's loop.  A zero half-step taken with
    # sign -1.0 turns an eROWL output of 0.0 into -0.0.
    Mutant("solver.py", "            if h1 < 0.0:\n                a1 = -h1",
           "            if h1 <= 0.0:\n                a1 = -h1", "caught", (SOLVER,)),
    Mutant("solver.py", "            if h1 < 0.0:\n                a1 = -h1",
           "            if h1 < 0:\n                a1 = -h1", "caught", (SOLVER,)),
    Mutant("solver.py", "                s2 = -1.0", "                s2 = 1.0", "caught", (SOLVER,)),
    Mutant("solver.py", "n1 = s1 * lam2 * (a1 - lam1) / gap", "n1 = s2 * lam2 * (a1 - lam1) / gap",
           "caught", (SOLVER,)),
    Mutant("solver.py", "n2 = 0.0 if y2 <= 0.0 else s2 * y2", "n2 = 0.0 if y2 <= 0 else s2 * y2",
           "caught", (SOLVER,)),
    Mutant("solver.py", "                    if y1 < 0.0 and y1 >= clamp:", "                    if y1 < 0.0:",
           "caught", (SOLVER,)),
    # The kernels the loop copies.  ROWL clips a zero magnitude to 0.0
    # whatever its sign, so its closure may take 0.0 as negative.
    Mutant("rowl.py", "abs(x2)\n        s1 = -1.0 if x1 < 0.0 else 1.0", "abs(x2)\n        s1 = -1.0 if x1 <= 0.0 else 1.0",
           "equivalent"),
    Mutant("scalar_ops.py", "(-1.0 if x < 0.0 else 1.0)", "(-1.0 if x < 0 else 1.0)", "caught", (SOLVER,)),
    Mutant("erowl.py", "        a2 = -x2 if x2 < 0.0 else x2", "        a2 = -x2 if 0 > x2 else x2",
           "caught", (SOLVER,)),
    # prox_l0's threshold past gamma = 8.99e307.
    Mutant("scalar_ops.py",
           "thr = math.sqrt(two_gamma) if two_gamma < math.inf else 2.0 * math.sqrt(0.5 * gamma)",
           "thr = math.sqrt(two_gamma)", "caught", (SCALAR,)),
    # mc_penalty's rescale and the two errstate contexts of scalar_ops.
    Mutant("scalar_ops.py", "    if redo.any():\n        out[redo] = mc_penalty(",
           "    if False:\n        out[redo] = mc_penalty(", "caught", (SCALAR,)),
    Mutant("scalar_ops.py", 'with np.errstate(over="ignore", invalid="ignore"):\n        out = np.where(a > lam2',
           "with np.errstate():\n        out = np.where(a > lam2", "caught", (SCALAR,)),
    Mutant("scalar_ops.py", 'with np.errstate(over="ignore", invalid="ignore"):\n        return _maybe_scalar',
           "with np.errstate():\n        return _maybe_scalar", "caught", (SCALAR,)),
    # A NaN stays NaN in mc_penalty and l0_envelope.
    Mutant("scalar_ops.py", "out = np.where(a > lam2, lam2 / 2.0, a - a * a / (2.0 * lam2))",
           "out = np.where(a <= lam2, a - a * a / (2.0 * lam2), lam2 / 2.0)", "caught", (SCALAR,)),
    Mutant("scalar_ops.py", "redo = (a <= lam2) & ~np.isfinite(out)", "redo = ~np.isfinite(out)", "caught", (SCALAR,)),
    Mutant("scalar_ops.py", "np.where(a > SQRT2, 1.0, SQRT2 * a - a * a / 2.0)",
           "np.where(a <= SQRT2, SQRT2 * a - a * a / 2.0, 1.0)", "caught", (SCALAR,)),
    # The refusals: firm thresholds, prox boxes, scenario A.
    Mutant("scalar_ops.py", "if not math.isfinite(self.lambda2 * (self.lambda2 - self.lambda1)):",
           "if False:", "caught", (SCALAR,)),
    Mutant("transform.py", "    if not math.isfinite(span):", "    if False:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "        if round(ratio) == 0:", "        if False:", "caught",
           (TRANSFORM,)),
    Mutant("transform.py", "if not math.isfinite(self.lo + self.step * round(ratio)):", "if False:", "caught",
           (TRANSFORM,)),
    Mutant("transform.py", "np.asarray(x, dtype=float)).tolist()", "np.asarray(x, dtype=float))", "caught",
           (TRANSFORM,)),
    Mutant("experiments.py", 'if self.scenario == "A" and (', "if False and (", "caught",
           (EXPERIMENTS,)),
    # rowl: the honest inf of the penalty, the envelope's regimes and its rescale.
    Mutant("rowl.py", '    with np.errstate(over="ignore", invalid="ignore"):\n        out = np.stack(',
           "    with np.errstate():\n        out = np.stack(", "caught", (ROWL,)),
    Mutant("rowl.py", '    with np.errstate(over="ignore", invalid="ignore"):\n        total =',
           "    with np.errstate():\n        total =", "caught", (ROWL,)),
    Mutant("rowl.py", "        overflowed = not np.isfinite(out.sum())",
           "        overflowed = w.spread * w.spread == np.inf", "caught", (ROWL,)),
    Mutant("rowl.py", "    if overflowed:", "    if False:", "caught", (ROWL,)),
    Mutant("core.py", "        if _KIND_SIZES.get(self.kind) != len(pts)", "        if False and _KIND_SIZES.get(self.kind) != len(pts)",
           "caught", ("tests/test_core.py",)),
    # The envelope's regimes: the tail must be copied last.
    Mutant("rowl.py", "        np.copyto(out, quad, where=middle)\n        np.copyto(out, base, where=tail)",
           "        np.copyto(out, base, where=tail)\n        np.copyto(out, quad, where=middle)", "caught",
           (ROWL,)),
    # The planar grid prox's slice: its bound T = fl(U + tol), the column
    # bound, the NaN-keeping comparison (a NaN or -inf lowest sample or a
    # non-finite U keeps the whole box) and the box-edge test.
    Mutant("transform.py", "        top = pen[i, j] + (d0[i] + d1[j]) / two_gamma + tol",
           "        top = pen[i, j] + (d0[i] + d1[j]) / two_gamma", "caught", (TRANSFORM,)),
    Mutant("transform.py", "        c0, c1 = _reach(lowest, d1, two_gamma, top)",
           "        c0, c1 = _reach(lowest, d0, two_gamma, top)", "caught", (TRANSFORM,)),
    Mutant("transform.py", "    keep = np.flatnonzero(~(lowest + dist / two_gamma > top))",
           "    keep = np.flatnonzero(lowest + dist / two_gamma <= top)", "caught", (TRANSFORM,)),
    Mutant("transform.py", "    if ((r0 == 0 and mask[0].any())", "    if ((mask[0].any())", "caught",
           (TRANSFORM,)),
    # The grid Legendre kernel's windows: each pair in the narrowest window
    # that holds its span, started inside the row, and the mixed-zero rescore.
    Mutant("transform.py", "        fits = width <= size", "        fits = width < size", "caught", (TRANSFORM,)),
    Mutant("transform.py", "np.minimum(left[r, g], n - size) + lag", "np.minimum(left[r, g], n - size + 1) + lag",
           "caught", (TRANSFORM,)),
    Mutant("transform.py", "    width = last[:, gaps + 1] - left + 1", "    width = last[:, gaps + 1] - left",
           "caught", (TRANSFORM,)),
    Mutant("transform.py", "    return 64.0 * 2.0 ** -53 * size", "    return 0.0 * size", "caught",
           (TRANSFORM,)),
    Mutant("transform.py", "            rescore[js[mixed]] = True", "            pass", "caught", (TRANSFORM,)),
    # LinearModel's Gram sums, in row order.
    Mutant("solver.py", "zip(a.tolist(), y.tolist())", "zip(a.tolist()[::-1], y.tolist()[::-1])", "caught", (SOLVER,)),
    Mutant("solver.py", "            c1 += a1 * yi", "            c1 += a2 * yi", "caught", (SOLVER,)),
    # The planar set-valued prox on the point's two floats: the strict order
    # test (a tie gives both matchings), the clip at zero and the sign of a
    # zero coordinate.
    Mutant("rowl.py", "    if a1 > a2:\n        return ProxSet.single(keep)",
           "    if a1 >= a2:\n        return ProxSet.single(keep)", "caught", (ROWL,)),
    Mutant("rowl.py", "s1 * max(a1 - w.w1, 0.0)", "s1 * (a1 - w.w1)", "caught", (ROWL,)),
    Mutant("rowl.py", "abs(x2)\n    s1 = -1.0 if x1 < 0.0 else 1.0", "abs(x2)\n    s1 = -1.0 if x1 <= 0.0 else 1.0",
           "caught", (ROWL,)),
    # Each solve input stored once: eROWL's params carry the override, meta.json
    # reads them, and a cell's model computes its own y.
    Mutant("experiments.py", "ErowlParams(cfg.w_erowl, params.delta if cfg.delta_override is None else cfg.delta_override)",
           "ErowlParams(cfg.w_erowl, params.delta)", "caught", (EXPERIMENTS,)),
    Mutant("experiments.py", "beta=design.erowl.beta", "beta=select_parameters(design.bounds, cfg.gamma_delta).beta",
           "caught", (EXPERIMENTS,)),
    Mutant("experiments.py", "zip(y, noise)]", "zip(y, noise[::-1])]", "caught", (EXPERIMENTS,)),
    Mutant("experiments.py", "    if not math.isinf(snr_db):\n        power", "    if True:\n        power", "caught",
           (EXPERIMENTS,)),
    # pfbs refuses a max_iter that is not a finite whole number; an Axis refuses
    # more points than numpy can index.
    Mutant("solver.py", "if not abs(max_iter) < math.inf or int(max_iter) != max_iter:",
           "if not abs(max_iter) < math.inf:", "caught", (SOLVER,)),
    Mutant("solver.py", "if not abs(max_iter) < math.inf or int(max_iter) != max_iter:",
           "if int(max_iter) != max_iter:", "caught", (SOLVER,)),
    Mutant("transform.py", "        if round(ratio) + 1 > _MAX_FLOATS:", "        if False:", "caught",
           (TRANSFORM,)),
    # A box refuses a mesh of more float64s than numpy can index (two per
    # point); rowl_penalty refuses non-finite weights.
    Mutant("transform.py", "        if math.prod(self.shape) * self.dims > _MAX_FLOATS:", "        if False:", "caught",
           (TRANSFORM,)),
    Mutant("transform.py", "        if math.prod(self.shape) * self.dims > _MAX_FLOATS:",
           "        if math.prod(self.shape) > _MAX_FLOATS:", "caught", (TRANSFORM,)),
    Mutant("rowl.py", "    if not np.all(np.isfinite(w)):", "    if False:", "caught", (ROWL,)),
    # rowl_penalty's compare-exchanges and the layout of its sum; the planar
    # grid prox's flat-index neighbours and its compact-cluster extent.
    Mutant("rowl.py", "np.minimum(cols[k], cols[k + 1]), np.maximum(cols[k], cols[k + 1])",
           "np.maximum(cols[k], cols[k + 1]), np.minimum(cols[k], cols[k + 1])", "caught", (ROWL,)),
    Mutant("rowl.py", "        for k in range(r % 2, w.size - 1, 2):", "        for k in range(0, w.size - 1, 2):",
           "caught", (ROWL,)),
    Mutant("rowl.py", "out = np.stack(cols, axis=-1)[..., ::-1] @ w", "out = np.stack(cols[::-1], axis=-1) @ w",
           "caught", (ROWL,)),
    Mutant("transform.py", "lo, hi = (-1 if j > 0 else 0), (2", "lo, hi = -1, (2", "caught", (TRANSFORM,)),
    Mutant("transform.py", "(2 if j < width - 1 else 1)", "2", "caught", (TRANSFORM,)),
    Mutant("transform.py", "max(cols) - min(cols)) <= 3:", "max(cols) - min(cols)) < 3:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "max(flat[-1] // width - flat[0] // width,", "max(flat[-1] // width - flat[-1] // width,",
           "caught", (TRANSFORM,)),
    # run_all is run_suite over the suite table; float() reads every SNR list
    # item the old inf test did.
    Mutant("verify.py", "for result in run_suite(name, seed)]", "for result in run_suite(name, 0)]", "caught",
           ("tests/test_verify.py",)),
    Mutant("cli.py", 'return tuple(float(p) for p in text.split(","))',
           'return tuple(math.inf if p.strip() in ("inf", "+inf") else float(p) for p in text.split(","))',
           "equivalent"),
    # The benchmark's own checks: eROWL's w2 term scaled, and every mean moved.
    Mutant("erowl.py", "w1s, w2s = w1 / dp1, w2 / dp1", "w1s, w2s = w1 / dp1, 1.001 * w2 / dp1", "caught"),
    Mutant("experiments.py", "_fmt(sum(vals) / len(vals))", "_fmt(sum(vals) / len(vals) + 1e-9)", "caught"),
    # The inline kernels' gates: firm's thresholds in either coordinate, eROWL's
    # second clamp clause and ROWL's identity matching on a tie.
    Mutant("solver.py", "                if a1 <= lam1:", "                if a1 < lam1:", "caught", (SOLVER,)),
    Mutant("solver.py", "                elif a1 <= lam2:", "                elif a1 < lam2:", "caught", (SOLVER,)),
    Mutant("solver.py", "                if a2 <= lam1:", "                if a2 < lam1:", "caught", (SOLVER,)),
    Mutant("solver.py", "                elif a2 <= lam2:", "                elif a2 < lam2:", "caught", (SOLVER,)),
    Mutant("solver.py", "                    if y2 < 0.0 and y2 >= clamp:", "                    if y2 < 0.0:",
           "caught", (SOLVER,)),
    Mutant("solver.py", "                if a1 >= a2:\n                    y1 = a1 - w1\n",
           "                if a1 > a2:\n                    y1 = a1 - w1\n", "caught", (SOLVER,)),
    # One ProxSet on the line: an interval holds its low end first.
    Mutant("core.py", 'return cls("interval", (min(a, b), max(a, b)))', 'return cls("interval", (a, b))', "caught",
           ("tests/test_core.py", SCALAR)),
    # What each CLI op and scenario takes, the grid cap, per-config weight
    # dicts and the l0 envelope's tie segment.
    Mutant("cli.py", '"l0": _Spec(1, {"gamma": 1.0}, prox_l0)', '"l0": _Spec(1, {"gamma": 1.0, "w": None}, prox_l0)',
           "caught", (CLI,)),
    Mutant("cli.py", 'dict.fromkeys(("w", "delta", "gamma_delta", "out"))',
           'dict.fromkeys(("w", "delta", "gamma_delta", "seed", "out"))', "caught", (CLI,)),
    Mutant("cli.py", "MAX_GRID_CELLS = 1_000_000", "MAX_GRID_CELLS = 2_000_000", "caught", (CLI,)),
    Mutant("experiments.py", "fixed = {k: dict(v) if isinstance(v, dict) else v for k, v in _SCENARIOS[scenario].items()}",
           "fixed = dict(_SCENARIOS[scenario])", "caught", (EXPERIMENTS,)),
    Mutant("scalar_ops.py", "return _prox_l0(x, SQRT2, ProxSet.segment)", "return _prox_l0(x, SQRT2, ProxSet.pair)",
           "caught", (SCALAR,)),
    # One scalar kernel per shrinker, held to the exact proxes: each eROWL
    # piece's constant moved by 0.2 %, and firm's ramp and thresholds.  Firm is
    # continuous at both thresholds, so `<` there moves a value by one ulp or
    # the sign of a zero, which the inline bit-for-bit test sees.
    Mutant("erowl.py", "alpha = 0.5 + dp1 * (a1 - a2) / denom", "alpha = 1.002 * (0.5 + dp1 * (a1 - a2) / denom)",
           "caught", (EROWL,)),
    Mutant("erowl.py", "m = (dp1 * (a1 + a2) + delta * w1) / dp2", "m = (dp1 * (a1 + a2) + 1.002 * delta * w1) / dp2",
           "caught", (EROWL,)),
    Mutant("erowl.py", "return self.delta * self.w.w1 / (self.delta + 1.0)",
           "return 1.002 * self.delta * self.w.w1 / (self.delta + 1.0)", "caught", (EROWL,)),
    Mutant("erowl.py", "(a1 - a2 if a1 >= a2 else a2 - a1) < eta:", "(a1 - a2 if a1 >= a2 else a2 - a1) < 1.002 * eta:",
           "caught", (EROWL,)),
    Mutant("erowl.py", "below = (a1 + a2) <= diag_gate", "below = (a1 + a2) <= 1.002 * diag_gate", "caught", (EROWL,)),
    Mutant("erowl.py", "y2 = a2 - hi", "y2 = a2 - 1.002 * hi", "caught", (EROWL,)),
    Mutant("scalar_ops.py", "lam2 * (a - lam1) / gap", "lam2 * (a - 1.002 * lam1) / gap", "caught", (SCALAR,)),
    Mutant("scalar_ops.py", "    if a <= lam2:", "    if a < lam2:", "caught", (SOLVER,)),
    Mutant("scalar_ops.py", "    if a <= lam1:", "    if a < lam1:", "caught", (SOLVER,)),
    # The filled graph as one vertex list, and its conversion.  The last row
    # reads x0 where x0 == x1, so it is equivalent.
    Mutant("transform.py", "ex, ey = (x0, y0) if x - x0 <= x1 - x else (x1, y1)",
           "ex, ey = (x1, y1) if x - x0 <= x1 - x else (x0, y0)", "caught", (TRANSFORM,)),
    Mutant("transform.py", "((x + delta * p) / scale, p)", "((x + p) / scale, p)", "caught", (TRANSFORM,)),
    Mutant("transform.py", "((x + delta * p) / scale, p)", "(x / scale + delta * p / scale, p)", "caught",
           (TRANSFORM, "tests/test_acceptance.py")),
    Mutant("transform.py", "if x1 < x0 or y1 < y0:", "if x1 <= x0 or y1 <= y0:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "if x1 < x0 or y1 < y0:", "if x1 < x0:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "if x1 == x0 and y1 == y0:", "if False:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "if not all(math.isfinite(c) for vertex in v for c in vertex):", "if False:", "caught",
           (TRANSFORM,)),
    Mutant("transform.py", "if len(v) < 2:", "if len(v) < 1:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "ys.append(ey + (y1 - y0) * (x - ex) / (x1 - x0))",
           "ys.append(ey + (x - ex) * ((y1 - y0) / (x1 - x0)))", "caught", (TRANSFORM, "tests/test_acceptance.py")),
    Mutant("transform.py", "ys.extend((y0, y1))", "ys.append(y0)", "caught", (TRANSFORM,)),
    Mutant("transform.py", "if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):",
           "if abs(ratio - round(ratio)) > 1e-9:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "if not (math.isfinite(step) and step > 0):", "if False:", "caught", (TRANSFORM,)),
    Mutant("transform.py", "return [(x0, ProxSet.segment(y0, y1)) for", "return [(x1, ProxSet.segment(y0, y1)) for",
           "equivalent"),
    Mutant("solver.py", "if not (math.isfinite(gamma_delta) and gamma_delta > 1.0):", "if gamma_delta <= 1.0:",
           "caught", (SOLVER,)),
    Mutant("solver.py", "    if not math.isfinite(delta):", "    if False:", "caught", (SOLVER,)),
    Mutant("core.py", "if math.isnan(v):", "if False:", "caught", ("tests/test_core.py",)),
    Mutant("__init__.py", "for module in (core, scalar_ops, rowl, erowl, transform, solver, experiments)",
           "for module in (core, scalar_ops, rowl, transform, solver, experiments)", "caught",
           ("tests/test_exports.py",)),
    # The PFBS loop's counter, its step and shrinker types, eROWL's triangle and
    # ROWL's clip; the model's finite-entry check, ErowlParams's overflow
    # clauses and the CLI's finite --x.
    Mutant("solver.py", "                a12 = a1 + a2", "                a12 = a1 - a2", "caught", (SOLVER,)),
    Mutant("solver.py", "range(iterations + 1, min(iterations + block, max_iter) + 1)",
           "range(iterations + 2, min(iterations + block, max_iter) + 2)", "caught", (SOLVER,)),
    Mutant("solver.py", "                n1, n2 = float(n1), float(n2)\n", "", "caught", (SOLVER,)),
    Mutant("solver.py", "    mu = float(mu)\n", "", "caught", (SOLVER,)),
    Mutant("solver.py", "        dw1 = delta * w1", "        dw1 = delta * w2", "caught", (SOLVER,)),
    Mutant("solver.py", "n1 = 0.0 if y1 <= 0.0 else s1 * y1", "n1 = 0.0 if y1 < 0.0 else s1 * y1", "caught", (SOLVER,)),
    Mutant("solver.py", "        if not math.isfinite(g11 + g22 + c1 + c2) and not (", "        if False and not (",
           "caught", (SOLVER,)),
    Mutant("erowl.py", "if not (math.isfinite(2.0 * self.delta * self.w.spread)", "if not (True", "caught", (EROWL,)),
    Mutant("erowl.py", "and math.isfinite((self.delta + 1.0) * self._diag_gate + self.delta * self.w.w1)):",
           "and True):", "caught", (EROWL,)),
    Mutant("cli.py", "    if not all(map(math.isfinite, x)):\n        raise ValueError(f\"--x must be finite",
           "    if False:\n        raise ValueError(f\"--x must be finite", "caught", (CLI,)),
    # One setup path: meta.json's step is the one the solves ran with, the LS
    # row reports 0 iterations, and A's noiseless cell ignores its noise.
    Mutant("experiments.py", "mu=design.mu)", "mu=select_parameters(design.bounds, cfg.gamma_delta, cfg.gamma_mu).mu)",
           "caught", (EXPERIMENTS,)),
    Mutant("experiments.py", 'PfbsResult(_least_squares(cell.model), 0, "converged", None)',
           'PfbsResult(_least_squares(cell.model), 1, "converged", None)', "caught", (EXPERIMENTS,)),
    Mutant("experiments.py", "model = _cell_model(design, noise, snr_db, cfg.x_true)",
           "model = _cell_model(design, [0.0] * len(noise), snr_db, cfg.x_true)", "equivalent"),
    # The lockstep lanes: kernel gates, ROWL's order gate, clip and + 0.0 (a clipped negative
    # half-step gives -0.0 without it), eROWL's sign (-0.0 takes s = 1.0), slab and clamp, a cycled
    # lane handed back a block late, lanes handed back with only two blocks left, the cycle check on
    # floats, a batch of LOCKSTEP_LANES stepped, and a lane's k left off.
    Mutant("solver.py", "np.greater_equal(a[0], a[1], out=b)", "np.greater(a[0], a[1], out=b)", "caught", (SOLVER,)),
    Mutant("solver.py", "np.copysign(np.maximum(n, 0.0, out=n), h, out=n)", "np.copysign(n, h, out=n)", "caught",
           (SOLVER,)),
    Mutant("solver.py", "    n += 0.0\n", "", "caught", (SOLVER,)),
    Mutant("solver.py", "np.less_equal(a, lam1, out=b)", "np.less(a, lam1, out=b)", "caught", (SOLVER,)),
    Mutant("solver.py", "n *= np.copysign(1.0, h + 0.0)", "n *= np.copysign(1.0, h)", "caught", (SOLVER,)),
    # pfbs keeps a -0.0 half-step's magnitude as -0.0, np.abs makes it 0.0: a zero magnitude
    # clips to 0.0 and is in neither eROWL's slab nor its triangle, so no value depends on it.
    Mutant("solver.py", "kernel(h, np.abs(h, out=a),", "kernel(h, np.where(h < 0.0, -h, h),", "equivalent"),
    Mutant("solver.py", "    slab &= ~below\n", "", "caught", (SOLVER,)),
    Mutant("solver.py", "np.where((y < 0.0) & (y >= clamp), 0.0, y)", "np.where(y < 0.0, 0.0, y)", "caught", (SOLVER,)),
    # The block-end search: each lane's last confirmed step in place of its first, a lane's later
    # steps not skipped once it ended, convergence tested before divergence (a step past 1e12 with
    # tol = inf), no hypot confirmation, a block's last step left out, and a lane's iterates read a
    # step early in the path.  Marking a superset of steps changes nothing: hypot decides.
    Mutant("solver.py", "zip(at.tolist(), js.tolist(), *p[[at, at + 1], :, js].tolist()):",
           "reversed(list(zip(at.tolist(), js.tolist(), *p[[at, at + 1], :, js].tolist()))):", "caught", (SOLVER,)),
    Mutant("solver.py", "            if lane[j] < 0:\n                continue\n", "", "caught", (SOLVER,)),
    Mutant("solver.py", "            if not math.hypot(n1, n2) <= DIVERGENCE_NORM:",
           "            if not math.hypot(n1, n2) <= DIVERGENCE_NORM and not math.hypot(n1 - x1, n2 - x2) <= tol:",
           "caught", (SOLVER,)),
    Mutant("solver.py", "            elif math.hypot(n1 - x1, n2 - x2) <= tol:", "            elif True:", "caught",
           (SOLVER,)),
    Mutant("solver.py", "        for i in range(steps):", "        for i in range(steps - 1):", "caught", (SOLVER,)),
    Mutant("solver.py", "*p[[at, at + 1], :, js]", "*p[[at - 1, at], :, js]", "caught", (SOLVER,)),
    Mutant("solver.py", "marked |= np.logical_and(near[:, 0], near[:, 1], out=near[:, 0])", "marked |= near[:, 0]",
           "equivalent"),
    Mutant("solver.py", "(Point2(*x[:, j].tolist()), done - CYCLE_BLOCK)", "(Point2(*x[:, j].tolist()), done)", "caught",
           (SOLVER,)),
    Mutant("solver.py", "max_iter - done > 2 * CYCLE_BLOCK", "max_iter - done > CYCLE_BLOCK", "caught", (SOLVER,)),
    Mutant("solver.py", "same = x.view(np.int64) == mark.view(np.int64)", "same = x == mark", "caught", (SOLVER,)),
    Mutant("solver.py", "        if len(lanes) > LOCKSTEP_LANES:", "        if len(lanes) >= LOCKSTEP_LANES:", "caught",
           (SOLVER,)),
    Mutant("experiments.py", "res = res._replace(iterations=res.iterations + k)",
           "res = res._replace(iterations=res.iterations)", "caught", (EXPERIMENTS,)),
    # rowl_penalty refuses a non-finite x, and an inf * 0 in its sum does not warn.
    Mutant("rowl.py", "        if not np.isfinite(out.sum()) and not np.isfinite(x).all():", "        if False:",
           "caught", (ROWL,)),
    Mutant("rowl.py", '    with np.errstate(over="ignore", invalid="ignore"):\n        out = np.stack(',
           '    with np.errstate(over="ignore"):\n        out = np.stack(', "caught", (ROWL,)),
]


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "?"


def run(mutant: Mutant) -> tuple[str, str]:
    """``(result, detail)``: ``caught`` and the first failing test, ``survived``, or ``error``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / "src" / "proxlab" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"old text found {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        for paths in ([*mutant.first], ["tests"]) if mutant.first else (["tests"],):
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths],
                                  cwd=work, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                break
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode == 1:
        return "caught", first_failure(proc.stdout)
    return "error", f"pytest exited {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}"


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or any(s in m.file + m.old + m.new for s in argv)]
    bad = 0
    for m in rows:
        result, detail = run(m)
        ok = result == ("caught" if m.expect == "caught" else "survived")
        bad += not ok
        change = f"{m.old.strip()!r} -> {m.new.strip()!r}"
        print(f"{'ok ' if ok else 'BAD'} {result:<8} {m.file}: {change}  {detail}".rstrip(), flush=True)
    print(f"{len(rows) - bad}/{len(rows)} rows as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
