"""Request lists, expected answers and the benchmark's own answer checks.

Every request is generated from the workload seed.  Expected verdicts and
counts are constants here, and every witness is re-checked by scanning the
input edge list in this file, never through ``ekrlab.oracles``, so a wrong
library answer cannot vouch for itself.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

WORKLOADS = ("check-labeled", "check-canonical", "certify-explicit", "certify-implicit")

# Enumeration requests run under a Budget node cap of this multiple of the
# node count measured at the commit that defined the benchmark.
NODE_CAP_FACTOR = 2
# Per-request wall caps, enforced by an interval timer.
ENUM_WALL_CAP_S = 90.0
CERTIFY_WALL_CAP_S = 15.0

# Requests stay at or below about a second, so each is repeated several
# times in a run and its mean over the repeats is steady (see README).
# Longer cells are listed as left out there.

# (n, k, d) -> (verdict, max_delta, maximal families), labeled dedup.
LABELED_CELLS = {
    (8, 3, 1): ("holds", 6, 23_936),
    (8, 3, 2): ("holds", 1, 23_936),
}
# (n, k, d) -> (verdict, max_delta, canonical classes).  (6,3,d) lies below
# the threshold n >= 7, where the observed maximum exceeds the bound as data.
# (7,2,1) is the automorphism-pruning probe: 2 classes, stars with S6 symmetry.
CANONICAL_CELLS = {
    (6, 3, 1): ("below-threshold", 5, 13),
    (6, 3, 2): ("below-threshold", 2, 13),
    (7, 2, 1): ("holds", 1, 2),
}
# (n, k, d, target) -> (outcome, families checked when exhausted)
SEARCH_CELLS = {
    (6, 3, 2, 2): ("found", None),
    (7, 3, 2, 2): ("exhausted", 6_127),
}
# BK nodes per enumeration at the defining commit; used only for the caps.
KNOWN_NODES = {
    ("labeled", 8, 3): 62_888,
    ("labeled", 7, 3): 14_544,
    ("labeled", 6, 3): 478,
    ("canonical", 6, 3): 2_047,
    ("canonical", 7, 2): 110,
}
SWEEP_VERTICES = 7
# Explicit families: (n, k, certification level).
EXPLICIT_CELLS = ((232, 3, "k2"), (260, 3, "k2"), (34, 4, "k1"), (36, 5, "k1"))
# Every third k of the k = 2..64 sweep keeps its cost profile at a third of the pass time.
IMPLICIT_K1 = tuple(range(2, 65, 3))
IMPLICIT_K2 = (3, 8, 16, 27, 40)


class WrongAnswer(Exception):
    pass


@dataclass
class Outcome:
    """What a request returned: a comparable verdict, exact counters, and the JSON text."""

    verdict: tuple
    counters: dict
    text: str
    report: object = None
    family: object = None  # the Family a request parsed from its input file


@dataclass
class Request:
    label: str
    kind: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    wall_cap_s: float


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _labels(m: int) -> list[int]:
    out, v = [], 1
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# independent scans over an input edge list


@dataclass(frozen=True)
class InputFamily:
    """An input family as the benchmark built it: sorted edge masks."""

    name: str
    n: int
    k: int
    edges: tuple[int, ...]

    def degree(self, q: int) -> int:
        return sum(1 for e in self.edges if e & q == q)

    def has(self, e: int) -> bool:
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e


def check_witness(fam: InputFamily, witness, level: str) -> None:
    """Re-check a violation witness against the input edge list only."""
    n, k = fam.n, fam.k
    full = (1 << n) - 1
    kind = type(witness).__name__
    if kind == "ZeroCodegree":
        q = witness.query_set
        _require(not q & ~full and 1 <= q.bit_count() <= k - 1, f"zero-codegree set {_labels(q)} malformed")
        _require(fam.degree(q) == 0, f"zero-codegree set {_labels(q)} lies in an edge")
    elif kind == "LowCodegree":
        q, d = witness.query_set, k - 1 if level == "k1" else k - 2
        required = 1 if level == "k1" else n - k + 1
        _require(q.bit_count() == d and not q & ~full, f"low-codegree set {_labels(q)} is not a {d}-set")
        _require(witness.required == required, f"low-codegree requirement {witness.required} != {required}")
        observed = fam.degree(q)
        _require(witness.observed == observed < required, f"low-codegree claim {witness.observed}, scan {observed}")
    elif kind == "DisjointEdges":
        a, b = witness.first, witness.second
        _require(not a & b, "disjoint-edges pair meets")
        _require(fam.has(a) and fam.has(b), "disjoint-edges pair not in the family")
    elif kind == "NotStar":
        _require(witness.missing is not None or witness.offending is not None, "empty not-star witness")
        if witness.missing is not None:
            m = witness.missing
            _require(m.bit_count() == k and not m & ~full and not fam.has(m), "not-star missing edge is present")
        if witness.offending is not None:
            _require(fam.has(witness.offending), "not-star offending edge is absent")
    else:
        raise WrongAnswer(f"unknown witness kind {kind}")


def _check_certificate(outcome: Outcome, expect_center: int | None, fam: InputFamily | None, level: str) -> None:
    cert = outcome.report
    parsed = json.loads(outcome.text)
    if expect_center is not None:
        _require(cert.violation is None, f"star refuted: {cert.violation}")
        _require(cert.center == expect_center, f"certified center {cert.center}, expected {expect_center}")
        _require(parsed.get("outcome") == "star-center" and parsed.get("center") == expect_center, "JSON outcome")
        return
    _require(cert.center is None and cert.violation is not None, f"non-star certified at {cert.center}")
    _require(parsed.get("outcome") == "violation", "JSON outcome")
    check_witness(fam, cert.violation, level)


def _check_min_degree(edges: tuple[int, ...], n: int, d: int, at_least: int) -> int:
    """Minimum d-degree by scanning every d-subset of [n] against the edges."""
    best = None
    for s in combinations(range(1, n + 1), d):
        q = _mask(s)
        deg = sum(1 for e in edges if e & q == q)
        best = deg if best is None else min(best, deg)
    _require(best is not None and best >= at_least, f"min {d}-degree {best} below {at_least}")
    return best


# ---------------------------------------------------------------------------
# request builders


def _budget(mode: str, n: int, k: int):
    from ekrlab.generators import Budget

    return Budget(max_nodes=NODE_CAP_FACTOR * KNOWN_NODES[(mode, n, k)])


def _check_request(n: int, k: int, d: int, mode: str, expect: tuple) -> Request:
    import ekrlab.io as io
    import ekrlab.verify as verify

    def run() -> Outcome:
        budget = _budget(mode, n, k)
        report = verify.check_theorem(n, k, d, dedup_mode=mode, budget=budget)
        text = io.to_json(report)
        return Outcome(
            (report.verdict, report.max_delta, report.families_checked),
            {"bk_nodes": budget.nodes, "families": report.families_checked},
            text,
            report,
        )

    def check(out: Outcome) -> None:
        verdict, max_delta, families = expect
        bound = comb(n - d - 1, k - d - 1)
        _require(out.verdict == expect, f"got {out.verdict}, expected {expect}")
        _require(out.report.bound == bound, f"bound {out.report.bound} != C({n - d - 1},{k - d - 1})")
        if verdict == "holds":
            _require(max_delta == bound, "the star attains the bound, so max_delta must equal it")
        parsed = json.loads(out.text)
        _require(parsed["verdict"] == verdict and parsed["families_checked"] == families, "JSON report")

    return Request(f"check {mode} ({n},{k},{d})", "check", run, check, ENUM_WALL_CAP_S)


def _search_request(n: int, k: int, d: int, target: int) -> Request:
    import ekrlab.io as io
    import ekrlab.verify as verify

    outcome_expected, families_expected = SEARCH_CELLS[(n, k, d, target)]

    def run() -> Outcome:
        budget = _budget("labeled", n, k)
        report = verify.search_counterexample(n, k, d, target, budget=budget)
        text = io.to_json(report)
        return Outcome(
            (report.outcome, report.delta_found, report.family),
            {"bk_nodes": report.nodes, "families": report.families_checked},
            text,
            report,
        )

    def check(out: Outcome) -> None:
        report = out.report
        _require(report.outcome == outcome_expected, f"outcome {report.outcome}, expected {outcome_expected}")
        _require(json.loads(out.text)["outcome"] == outcome_expected, "JSON outcome")
        if outcome_expected == "exhausted":
            _require(report.families_checked == families_expected, f"{report.families_checked} families checked")
            return
        edges = tuple(report.family)
        full = (1 << n) - 1
        _require(all(e.bit_count() == k and not e & ~full for e in edges), "found family has a bad edge")
        _require(all(a & b for a, b in combinations(edges, 2)), "found family is not intersecting")
        found = _check_min_degree(edges, n, d, target)
        _require(report.delta_found == found, f"delta_found {report.delta_found}, scan {found}")

    return Request(f"search ({n},{k},{d}) target {target}", "search", run, check, ENUM_WALL_CAP_S)


def _sweep_request(nv: int) -> Request:
    import ekrlab.graphs as graphs
    import ekrlab.io as io

    pairs = comb(nv, 2)
    # Graphs with >= 6 edges that are not stars: a star on nv vertices has at
    # most nv - 1 = 6 edges, and only the nv full stars reach 6.
    checked = sum(comb(pairs, j) for j in range(6, pairs + 1)) - nv

    def run() -> Outcome:
        result = graphs.structure_sweep(nv)
        text = io.to_json(result)
        return Outcome((result.graphs_total, result.graphs_checked, result.violations), {}, text, result)

    def check(out: Outcome) -> None:
        _require(out.verdict == (1 << pairs, checked, ()), f"sweep gave {out.verdict[:2]}, {len(out.verdict[2])} violations")

    return Request(f"structure_sweep({nv})", "sweep", run, check, ENUM_WALL_CAP_S)


def _star_edges(n: int, k: int, center: int) -> tuple[int, ...]:
    cbit = 1 << (center - 1)
    others = [v for v in range(1, n + 1) if v != center]
    return tuple(sorted(cbit | _mask(rest) for rest in combinations(others, k - 1)))


def _hilton_milner_edges(n: int, k: int, center: int, base: list[int]) -> tuple[int, ...]:
    """Edges through ``center`` meeting the k-set ``base``, plus ``base``."""
    bmask = _mask(base)
    return tuple(sorted([bmask] + [e for e in _star_edges(n, k, center) if e & bmask]))


def explicit_inputs(seed: int) -> list[tuple[InputFamily, int | None, str]]:
    """(family, expected center or None, level) per explicit request.

    Each cell gets its complete star at a seeded center; that star minus the
    edge at a seeded position i, minus the edge at the mirrored position
    len-1-i and minus the middle edge; and Hilton-Milner on a seeded base.
    The cost of the exhaustive check grows with the removed edge's position,
    so the mirrored pair keeps the pass cost steady across seeds and the
    middle edge keeps the median request steady, while both ends of the
    range stay covered.
    """
    rng = random.Random(seed)
    out = []
    for n, k, level in EXPLICIT_CELLS:
        center = rng.randint(1, n)
        star = _star_edges(n, k, center)
        i = rng.randrange(len(star))
        removed = sorted({i, len(star) - 1 - i, len(star) // 2})
        base = sorted(rng.sample([v for v in range(1, n + 1) if v != center], k))
        tag = f"({n},{k})"
        out.append((InputFamily(f"star {tag} c={center}", n, k, star), center, level))
        for pos in removed:
            out.append((InputFamily(f"star {tag} minus #{pos}", n, k, star[:pos] + star[pos + 1 :]), None, level))
        out.append((InputFamily(f"HM {tag} c={center}", n, k, _hilton_milner_edges(n, k, center, base)), None, level))
    return out


def write_explicit_inputs(seed: int, directory: Path) -> list[tuple[InputFamily, int | None, str, Path]]:
    """Build the explicit families and write them with ``ekrlab.io.write_family``."""
    import ekrlab.io as io
    from ekrlab.family import Family, FamilyParams

    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, (fam, center, level) in enumerate(explicit_inputs(seed)):
        path = directory / f"family{idx:02d}.fam"
        io.write_family(path, Family(FamilyParams(fam.n, fam.k), fam.edges))
        written.append((fam, center, level, path))
    return written


def _explicit_request(fam: InputFamily, center: int | None, level: str, path: Path, seed: int) -> Request:
    import ekrlab.constructions as constructions
    import ekrlab.io as io
    import ekrlab.oracles as oracles

    size = path.stat().st_size

    def run() -> Outcome:
        family = io.read_family(path)
        certify = constructions.certify_star_k1 if level == "k1" else constructions.certify_star_k2
        cert = certify(oracles.ExplicitOracle(family), seed=seed)
        text = io.to_json(cert)
        return Outcome(
            (cert.center, text),
            {"queries_used": cert.trace.queries_used, "read_bytes": size, "edges_read": len(family.edges)},
            text,
            cert,
            family,
        )

    def check(out: Outcome) -> None:
        _require(out.family.edges == fam.edges, "read_family returned other edges than were written")
        _check_certificate(out, center, fam, level)

    return Request(f"certify_{level} explicit {fam.name}", "certify", run, check, CERTIFY_WALL_CAP_S)


def _implicit_request(level: str, k: int, rng: random.Random) -> Request:
    import ekrlab.bounds as bounds
    import ekrlab.constructions as constructions
    import ekrlab.io as io
    import ekrlab.oracles as oracles

    n = bounds.certify_threshold_k1(k) if level == "k1" else bounds.certify_threshold_k2(k)
    center = rng.randint(1, n)
    cert_seed = rng.randrange(1 << 32)

    def run() -> Outcome:
        certify = constructions.certify_star_k1 if level == "k1" else constructions.certify_star_k2
        cert = certify(oracles.StarOracle(n, k, center), seed=cert_seed)
        text = io.to_json(cert)
        return Outcome((cert.center, text), {"queries_used": cert.trace.queries_used}, text, cert)

    def check(out: Outcome) -> None:
        _check_certificate(out, center, None, level)

    return Request(f"certify_{level} StarOracle({n},{k},{center})", "certify", run, check, CERTIFY_WALL_CAP_S)


def build_requests(workload: str, seed: int, workdir: Path) -> list[Request]:
    """The request list of one pass, in seeded order; writes explicit inputs to ``workdir``."""
    rng = random.Random(seed)
    if workload == "check-labeled":
        requests = [_check_request(n, k, d, "labeled", exp) for (n, k, d), exp in LABELED_CELLS.items()]
        requests += [_search_request(*cell) for cell in SEARCH_CELLS]
        requests.append(_sweep_request(SWEEP_VERTICES))
    elif workload == "check-canonical":
        requests = [_check_request(n, k, d, "canonical", exp) for (n, k, d), exp in CANONICAL_CELLS.items()]
    elif workload == "certify-explicit":
        requests = [
            _explicit_request(fam, center, level, path, rng.randrange(1 << 32))
            for fam, center, level, path in write_explicit_inputs(seed, workdir)
        ]
    elif workload == "certify-implicit":
        requests = [_implicit_request("k1", k, rng) for k in IMPLICIT_K1]
        requests += [_implicit_request("k2", k, rng) for k in IMPLICIT_K2]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(requests)
    return requests
