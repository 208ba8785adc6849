"""Print the executable lines of ``src/proxlab`` that the Tier-1 tests never run.

Usage, from anywhere::

    python tools/linecov.py [MODULE ...]

Each MODULE is a file name in ``src/proxlab`` without ``.py`` (``transform``
traces ``src/proxlab/transform.py`` alone); with none, every module is
traced.  The tests run once, in this process, as ``pytest -q tests`` under a
``sys.settrace`` line tracer (no coverage package is needed), and the
tracer follows frames of the traced files only.  Lines come from each
module's code objects (``co_lines``), so a line counts if the compiler
emitted code for it.  The tracer slows the suite down: tracing ``transform``
and ``rowl`` took about 60 s against 25 s untraced on a 2-core x86 machine.
The script exits with pytest's status, so a failing suite fails the report.
This script is not part of Tier-1.
"""
from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "proxlab"


def executable_lines(code: types.CodeType) -> set[int]:
    """Every line of ``code`` and its nested code objects that holds an instruction."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    files = [SRC / f"{name}.py" for name in argv] or sorted(SRC.glob("*.py"))
    for f in files:
        if not f.is_file():
            print(f"no such module: {f}", file=sys.stderr)
            return 2
    ran: dict[str, set[int]] = {str(f): set() for f in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # A function's first line holds only its RESUME, which fires no line event.
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
            return trace_lines
        return None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed_total = 0
    for name, hits in ran.items():
        path = Path(name)
        code = compile(path.read_text(), name, "exec")
        lines = executable_lines(code)
        missed = sorted(lines - hits)
        total += len(lines)
        missed_total += len(missed)
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - missed_total} of {total} executable lines ran; pytest exited {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
