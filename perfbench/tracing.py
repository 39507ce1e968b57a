"""Spans and counters recorded around calls into ekrlab, for the traced run.

Wrappers are installed on the module attributes that callers look up at
call time (``ekrlab.verify.min_degree``, ``ekrlab.constructions.is_complete_star_on``,
the oracle class methods, ...), so nothing under ``src/`` changes.  Each span
records name, start, end, parent and request; spans stay in compact arrays
in memory and are written out once, when the run ends.  A layer's self time
is its spans' duration minus the time their child spans cover.

``ekrlab.masks`` and ``ekrlab.bounds`` are leaf helpers called millions of
times per request, so they are not wrapped: a wrapper would cost more than
the call.  Their time counts in their callers' self time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Span name per layer.  "request" is the benchmark's own root span.
SPAN_NAMES = (
    "request",
    "verify",
    "generators.enum",
    "oracles.min_degree",
    "oracles.explicit",
    "oracles.star",
    "canonical.form",
    "family.star_window",
    "family.covers",
    "graphs",
    "constructions.shrink",
    "constructions.certify",
    "io.read",
    "io.write",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    """Span and counter store for one pass (or for the traced set-up)."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.current_request = -1
        self.counts: Counter[str] = Counter()

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        # Pop through spans left open by an interrupted request (wall cap).
        while len(self.stack) > 1 and self.stack.pop() != sid:
            pass

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(a["name"], weights=dur - covered, minlength=len(SPAN_NAMES))
        return {n: float(own[i]) for i, n in enumerate(SPAN_NAMES)}


class Instrumentation:
    """Installs span/counter wrappers into ekrlab and restores the originals.

    ``tracer`` is swapped per pass; the wrappers read it at call time.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapper factories -------------------------------------------------

    def _call(self, fn, span: str, count: str | None = None):
        nid = NAME_ID[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer = self.tracer
            if count is not None:
                tracer.counts[count] += 1
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _generator(self, fn, span: str, count: str | None = None, item_count: str | None = None):
        """Wrap a generator function: one span per ``next()`` on the stream."""
        nid = NAME_ID[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.tracer.counts[count] += 1
            return self._stream(fn(*args, **kwargs), nid, item_count)

        return traced

    def _stream(self, inner, nid: int, item_count: str | None):
        try:
            while True:
                tracer = self.tracer
                sid = tracer.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                if item_count is not None:
                    tracer.counts[item_count] += 1
                yield item
        finally:
            inner.close()

    def _counter(self, fn, count: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.tracer.counts[count] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import ekrlab.canonical as canonical
        import ekrlab.constructions as constructions
        import ekrlab.generators as generators
        import ekrlab.graphs as graphs
        import ekrlab.io as io
        import ekrlab.oracles as oracles
        import ekrlab.verify as verify

        if self._saved:
            raise RuntimeError("instrumentation already installed")
        c, g = self._call, self._generator
        self._patch(verify, "check_theorem", c(verify.check_theorem, "verify"))
        self._patch(verify, "search_counterexample", c(verify.search_counterexample, "verify"))
        self._patch(
            verify,
            "enumerate_maximal_intersecting",
            g(verify.enumerate_maximal_intersecting, "generators.enum", item_count="generators.families"),
        )
        for module in (verify, oracles):
            self._patch(module, "min_degree", c(oracles.min_degree, "oracles.min_degree", "oracles.min_degree_calls"))
        self._patch(verify, "covers_size1", c(verify.covers_size1, "family.covers"))
        self._patch(generators, "canonical_form", c(generators.canonical_form, "canonical.form", "canonical.forms"))
        self._patch(canonical, "_refine", self._counter(canonical._refine, "canonical.refine_calls"))
        for cls, span in ((oracles.ExplicitOracle, "oracles.explicit"), (oracles.StarOracle, "oracles.star")):
            for method, kind in (("contains", "contains"), ("degree", "degree"), ("extension", "extension")):
                self._patch(cls, method, c(cls.__dict__[method], span, f"oracles.queries.{kind}"))
            self._patch(
                cls,
                "enumerate_extensions",
                g(cls.__dict__["enumerate_extensions"], span, "oracles.queries.enumerate"),
            )
        self._patch(
            constructions,
            "is_complete_star_on",
            c(constructions.is_complete_star_on, "family.star_window", "family.star_window_calls"),
        )
        self._patch(constructions, "covers_size2", c(constructions.covers_size2, "family.covers"))
        for name in ("find_pattern", "is_star_graph", "max_matching_upto"):
            self._patch(constructions, name, c(getattr(constructions, name), "graphs"))
        self._patch(graphs, "structure_sweep", c(graphs.structure_sweep, "graphs"))
        for name in ("shrink_core_k1", "shrink_core_k2"):
            self._patch(constructions, name, c(getattr(constructions, name), "constructions.shrink"))
        for name in ("certify_star_k1", "certify_star_k2"):
            self._patch(constructions, name, c(getattr(constructions, name), "constructions.certify"))
        self._patch(io, "read_family", c(io.read_family, "io.read"))
        self._patch(io, "to_json", c(io.to_json, "io.write"))
        self._patch(io, "write_family", c(io.write_family, "io.write"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
