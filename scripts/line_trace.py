#!/usr/bin/env python3
"""Print the lines of ``src/ekrlab/constructions.py`` that a pytest run never executes.

Runs pytest in this process under ``sys.settrace``, records every line of
``constructions.py`` that a frame executes, and prints the executable
lines (those the compiled module maps bytecode to) that never ran, one
per line as ``constructions.py:<line>: <source>``, then a summary line.
Tests that start their own interpreter (the ``python -O`` digest runs, CLI
subprocess tests) are not traced, so a line only they run reads as unrun.

Usage, from the repository root, with any pytest arguments:

    python scripts/line_trace.py tests/test_constructions_adversarial.py -q

The exit status is pytest's.  Tracing slows the traced code several-fold.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "ekrlab" / "constructions.py"
sys.path.insert(0, str(ROOT / "src"))


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers that ``code`` and its nested code objects run."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    target = str(TARGET)
    ran: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != target:
            return None
        ran.add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    source = TARGET.read_text()
    text = source.splitlines()
    lines = executable_lines(compile(source, target, "exec"))
    unrun = sorted(lines - ran)
    for line in unrun:
        print(f"{TARGET.name}:{line}: {text[line - 1].strip()}")
    print(f"{len(unrun)} of {len(lines)} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
