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


def test_traced_canonical_check_counts_the_walks_forms():
    # the walk calls generators.canonical_form by name, once per maximal
    # family through [3] that no swap maps from an earlier one: 45 of the
    # 512 at (6,3)
    untraced = verify.check_theorem(6, 3, 2, "canonical")
    instrumentation = _tracing_module().Instrumentation()
    instrumentation.install()
    try:
        traced = verify.check_theorem(6, 3, 2, "canonical")
        counts = dict(instrumentation.tracer.counts)
    finally:
        instrumentation.uninstall()
    assert (traced.verdict, traced.max_delta, traced.families_checked) == (
        untraced.verdict,
        untraced.max_delta,
        untraced.families_checked,
    )
    assert counts["canonical.forms"] == 45
    # canonical_form reaches _refine through the module attribute
    assert counts["canonical.refine_calls"] > 0


def test_traced_star_certificates_count_every_query_by_kind():
    # the tracer wraps StarOracle's queries on the class, so the sampled
    # checks ask them one by one and every query is counted by its kind
    from ekrlab.constructions import certify_star_k1, certify_star_k2
    from ekrlab.io import to_json

    runs = [(certify_star_k1, oracles.StarOracle(11, 3, 4)), (certify_star_k2, oracles.StarOracle(232, 3, 9))]
    untraced = [to_json(certify(oracle, samples=600, seed=3)) for certify, oracle in runs]
    instrumentation = _tracing_module().Instrumentation()
    instrumentation.install()
    try:
        for (certify, oracle), want in zip(runs, untraced):
            before = sum(n for name, n in instrumentation.tracer.counts.items() if name.startswith("oracles.queries."))
            cert = certify(oracle, samples=600, seed=3)
            after = sum(n for name, n in instrumentation.tracer.counts.items() if name.startswith("oracles.queries."))
            assert to_json(cert) == want
            assert after - before == cert.trace.queries_used > 600
    finally:
        instrumentation.uninstall()
    assert oracles.StarOracle.contains is oracles._STAR_CONTAINS
