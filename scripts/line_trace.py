#!/usr/bin/env python3
"""Print the lines of one ``src/ekrlab`` module that a pytest run never executes.

Runs pytest in this process under ``sys.settrace``, records every line of
the module (``constructions.py`` unless ``--file`` names another) that a
frame executes, and prints the executable lines (those the compiled
module maps bytecode to) that never ran, one per line as
``<file>:<line>: <source>``, then a summary line.
Tests that start their own interpreter (the ``python -O`` digest runs, CLI
subprocess tests) are not traced, so a line only they run reads as unrun.

Usage, from the repository root, with any pytest arguments:

    python scripts/line_trace.py tests/test_constructions_adversarial.py -q
    python scripts/line_trace.py --file io.py tests/test_io.py -q

The exit status is pytest's.  Tracing slows the traced code several-fold,
and ``tests/test_acceptance.py::test_criterion_01_star_closed_form``
times itself against a 5 s cap that a traced run can overrun, so a
whole-suite trace that should exit 0 on working code deselects it:

    python scripts/line_trace.py tests -q --deselect tests/test_acceptance.py::test_criterion_01_star_closed_form
"""

from __future__ import annotations

import argparse
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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

    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--file", default="constructions.py")
    args, argv = parser.parse_known_args(argv)
    path = ROOT / "src" / "ekrlab" / args.file
    target = str(path)
    source = path.read_text()  # read first: a wrong name fails before the run
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

    text = source.splitlines()
    lines = executable_lines(compile(source, target, "exec"))
    unrun = sorted(lines - ran)
    for line in unrun:
        print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{len(unrun)} of {len(lines)} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
