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
    Mutant("rowl.py", "s1 = -1.0 if x1 < 0.0 else 1.0", "s1 = -1.0 if x1 <= 0.0 else 1.0", "equivalent"),
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
    Mutant("transform.py", "    if not math.isfinite(span):", "    if False:", "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "        if round(ratio) == 0:", "        if False:", "caught",
           ("tests/test_transform.py",)),
    Mutant("transform.py", "if not math.isfinite(self.lo + self.step * round(ratio)):", "if False:", "caught",
           ("tests/test_transform.py",)),
    Mutant("transform.py", "np.asarray(x, dtype=float)).tolist()", "np.asarray(x, dtype=float))", "caught",
           ("tests/test_transform.py",)),
    Mutant("experiments.py", 'if self.scenario == "A" and (', "if False and (", "caught",
           ("tests/test_experiments.py",)),
    # rowl: the honest inf of the penalty, the envelope's regimes and its rescale.
    Mutant("rowl.py", 'with np.errstate(over="ignore"):  # a sum past', "with np.errstate():  # a sum past",
           "caught", ("tests/test_cli.py",)),
    Mutant("rowl.py", '    with np.errstate(over="ignore", invalid="ignore"):\n        total =',
           "    with np.errstate():\n        total =", "caught", ("tests/test_rowl.py",)),
    Mutant("rowl.py", "        overflowed = not np.isfinite(out.sum())",
           "        overflowed = w.spread * w.spread == np.inf", "caught", ("tests/test_rowl.py",)),
    Mutant("rowl.py", "    if overflowed:", "    if False:", "caught", ("tests/test_rowl.py",)),
    Mutant("core.py", "        if _KIND_SIZES.get(self.kind) != len(pts)", "        if False and _KIND_SIZES.get(self.kind) != len(pts)",
           "caught", ("tests/test_core.py",)),
    # The envelope's regimes: the tail must be copied last.
    Mutant("rowl.py", "        np.copyto(out, quad, where=middle)\n        np.copyto(out, base, where=tail)",
           "        np.copyto(out, base, where=tail)\n        np.copyto(out, quad, where=middle)", "caught",
           ("tests/test_rowl.py",)),
    # The planar grid prox's slice: its bound T = fl(U + tol), the column
    # bound, the NaN-keeping comparison (a NaN or -inf lowest sample or a
    # non-finite U keeps the whole box) and the box-edge test.
    Mutant("transform.py", "        top = pen[i, j] + (d0[i] + d1[j]) / two_gamma + tol",
           "        top = pen[i, j] + (d0[i] + d1[j]) / two_gamma", "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "        c0, c1 = _reach(lowest, d1, two_gamma, top)",
           "        c0, c1 = _reach(lowest, d0, two_gamma, top)", "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "    keep = np.flatnonzero(~(lowest + dist / two_gamma > top))",
           "    keep = np.flatnonzero(lowest + dist / two_gamma <= top)", "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "    if ((r0 == 0 and mask[0].any())", "    if ((mask[0].any())", "caught",
           ("tests/test_transform.py",)),
    # The grid Legendre kernel's windows.
    Mutant("transform.py", "fits = last[:, gaps + 1] - start < _WINDOW", "fits = last[:, gaps + 1] - start <= _WINDOW",
           "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "    return 64.0 * 2.0 ** -53 * size", "    return 0.0 * size", "caught",
           ("tests/test_transform.py",)),
    Mutant("transform.py", "        rescore[js[mixed]] = True", "        pass", "caught", ("tests/test_transform.py",)),
    Mutant("transform.py", "            rescore[js[mixed.any(axis=0)]] = True", "            pass", "caught",
           ("tests/test_transform.py",)),
    # LinearModel's Gram sums, in row order.
    Mutant("solver.py", "zip(a.tolist(), y.tolist())", "zip(a.tolist()[::-1], y.tolist()[::-1])", "caught", (SOLVER,)),
    Mutant("solver.py", "            c1 += a1 * yi", "            c1 += a2 * yi", "caught", (SOLVER,)),
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
