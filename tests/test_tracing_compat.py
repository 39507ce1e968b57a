"""The benchmark's tracer still installs on, and cleanly leaves, the library.

``perfbench/tracing.py`` wraps module attributes by name, so each name it
patches must stay importable from the module it patches.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import ekrlab.canonical as canonical
import ekrlab.generators as generators
import ekrlab.oracles as oracles
import ekrlab.verify as verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PATCHED = [
    (verify, "check_theorem"),
    (verify, "search_counterexample"),
    (verify, "enumerate_maximal_intersecting"),
    (verify, "min_degree"),
    (verify, "covers_size1"),
    (oracles, "min_degree"),
    (generators, "canonical_form"),
    (canonical, "_refine"),
]


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_check_matches_untraced_and_uninstalls():
    untraced = verify.check_theorem(6, 3, 2)
    before = [getattr(owner, name) for owner, name in PATCHED]
    instrumentation = _tracing_module().Instrumentation()
    instrumentation.install()
    try:
        assert verify.check_theorem is not before[0]
        traced = verify.check_theorem(6, 3, 2)
        counts = dict(instrumentation.tracer.counts)
    finally:
        instrumentation.uninstall()
    assert [getattr(owner, name) for owner, name in PATCHED] == before
    assert (traced.verdict, traced.max_delta, traced.families_checked, traced.achievers) == (
        untraced.verdict,
        untraced.max_delta,
        untraced.families_checked,
        untraced.achievers,
    )
    # min_degree runs once per family entering the achievers, as a cross-check
    assert counts.get("oracles.min_degree_calls", 0) >= len(traced.achievers) > 0
