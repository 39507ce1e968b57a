"""Acceptance criteria, one test per criterion, each with its runtime cap.

Run with ``pytest -v tests/test_acceptance.py``; every criterion prints
one PASS line (visible with -s or in verbose test status).
"""

import json
import time
from math import comb

from conftest import brute_force_maximal_families, ref_degree
from ekrlab.bounds import (
    certify_threshold_k1,
    certify_threshold_k2,
    shrink_vertex_bound_k1,
    shrink_vertex_bound_k2,
)
from ekrlab.constructions import (
    ZeroCodegree,
    certify_star_k1,
    certify_star_k2,
    shrink_core_k1,
    shrink_core_k2,
)
from ekrlab.family import Family, FamilyParams, covers_size1, covers_size2
from ekrlab.generators import (
    Budget,
    complete_star,
    enumerate_maximal_intersecting,
    hilton_milner,
)
from ekrlab.graphs import structure_sweep
from ekrlab.io import to_json
from ekrlab.masks import bit, mask_of, popcount
from ekrlab.oracles import ExplicitOracle, StarOracle, link, min_degree, min_degree_scan
from ekrlab.verify import check_theorem, search_counterexample


class Clock:
    def __init__(self, cap_s: float, name: str):
        self.cap = cap_s
        self.name = name

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.cap, f"{self.name}: {self.elapsed:.2f}s over cap {self.cap}s"
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s / cap {self.cap:.0f}s)")
        return False


def test_criterion_01_star_closed_form():
    with Clock(5, "1 star closed form"):
        for k in range(2, 9):
            for n in range(2 * k + 1, 2 * k + 7):
                explicit = complete_star(n, k, 1) if k <= 5 else None
                for d in range(1, k):
                    want = comb(n - d - 1, k - d - 1)
                    got, arg = min_degree(StarOracle(n, k, 1), d)
                    assert got == want, (n, k, d)
                    assert not arg & bit(1)
                    if explicit is not None:
                        # independent route: subset counting over the explicit family
                        assert min_degree(explicit, d)[0] == want
                    if k >= 6 and d in (k - 1, k - 2):
                        # independent route: exhaustive minimization over oracle degrees
                        assert min_degree_scan(StarOracle(n, k, 1), d)[0] == want


def test_criterion_02_k1_equality_at_k2():
    with Clock(1, "2 codegree k-1 equality at k=2"):
        for n in (9, 10):
            rep = check_theorem(n, 2, 1)
            assert rep.verdict == "holds"
            assert rep.max_delta == 1
            assert rep.achievers_all_stars is True
            # achievers are the n stars and nothing else
            assert len(rep.achievers) == n
            for edges in rep.achievers:
                common, _ = covers_size1(Family(FamilyParams(n, 2), edges))
                assert popcount(common) == 1


def test_criterion_03_codegree_boundary_7_3_2():
    with Clock(60, "3 codegree bound at (7,3,2)"):
        rep = check_theorem(7, 3, 2)
        assert rep.threshold == 7 and rep.bound == 1
        assert rep.max_delta <= 1, "release blocker: codegree bound violated at (7,3,2)"
        assert rep.verdict == "holds"


def test_criterion_04_structure_lemma_sweep():
    with Clock(60, "4 structure lemma over 2^21 graphs"):
        sw = structure_sweep(7)
        assert sw.graphs_total == 1 << 21
        assert sw.violations == ()
        # the per-graph witness search finds nothing on every walked graph,
        # and a verified witness on a seeded sample of the others
        from ekrlab.graphs import _pairs, _pattern_free, find_pattern, graph_from_mask, verify_witness
        import random

        pairs = _pairs(7)
        free = set(_pattern_free(7))
        assert len(free) == 1716
        for gmask in free:
            assert find_pattern(graph_from_mask(gmask, 7, pairs)) is None
        rng = random.Random(4)
        for gmask in rng.sample(range(1 << 21), 2000):
            if gmask in free:
                continue
            g = graph_from_mask(gmask, 7, pairs)
            w = find_pattern(g)
            assert w is not None and verify_witness(g, w)


def test_criterion_05_core_shrink_k1_contract():
    with Clock(5, "5 k-1 core shrink contract, k=2..64"):
        for k in range(2, 65):
            n = certify_threshold_k1(k)
            o = StarOracle(n, k, 1)
            r = shrink_core_k1(o, o.first_edge())
            assert r.ok
            assert popcount(r.subfamily.core) <= 1
            assert popcount(r.subfamily.vertex_set) <= shrink_vertex_bound_k1(k)
            d = r.trace.excesses
            assert d[0] == 1 and all(b - a in (0, 1) for a, b in zip(d, d[1:]))
            big_d = r.trace.parameters["D"]
            assert big_d * (big_d + 1) <= 2 * k


def test_criterion_06_certify_k1():
    with Clock(10, "6 k-1 certification"):
        for k in (2, 3, 4, 5):
            n = certify_threshold_k1(k)
            cert = certify_star_k1(ExplicitOracle(complete_star(n, k, 2)))
            assert cert.center == 2
        for k in range(2, 65):
            n = certify_threshold_k1(k)
            cert = certify_star_k1(StarOracle(n, k, 1))
            assert cert.center == 1
        # star minus one edge
        star = complete_star(11, 3, 1)
        broken = ExplicitOracle(Family(star.params, star.edges[1:]))
        cert = certify_star_k1(broken)
        assert isinstance(cert.violation, ZeroCodegree)
        assert ref_degree(broken.family, cert.violation.query_set) == 0
        # Hilton-Milner at qualifying n
        hm = hilton_milner(11, 3)
        cert = certify_star_k1(ExplicitOracle(hm))
        assert isinstance(cert.violation, ZeroCodegree)
        assert ref_degree(hm, cert.violation.query_set) == 0


def test_criterion_07_core_shrink_k2_contract():
    with Clock(30, "7 k-2 core shrink contract, k in {3,8,27}"):
        expected_n = {3: 232, 8: 274, 27: 381}
        for k, n in expected_n.items():
            assert certify_threshold_k2(k) == n
            o = StarOracle(n, k, 1)
            r = shrink_core_k2(o, o.first_edge())
            assert r.ok and r.cover_vertex == 1
            assert popcount(r.subfamily.vertex_set) <= shrink_vertex_bound_k2(k)
            # exhaustive pair scan: every size-two cover contains the center
            cov = covers_size2(r.subfamily, r.subfamily.vertex_set)
            assert all(pr & bit(1) for pr in cov.edges)
            assert cov.edges  # the center pairs with every other vertex of two edges


def test_criterion_08_certify_k2_explicit_232():
    with Clock(60, "8 k-2 certification of the explicit (232,3) star"):
        star = complete_star(232, 3, 1)
        assert len(star) == 26565
        cert = certify_star_k2(ExplicitOracle(star))
        assert cert.center == 1 and cert.violation is None


def test_criterion_09_property_suites(rng):
    with Clock(120, "9 property suites"):
        # (a) degree monotonicity on 500 nested pairs
        from conftest import random_family

        for _ in range(500):
            n = rng.randrange(4, 10)
            k = rng.randrange(2, min(4, n) + 1)
            big = random_family(rng, n, k, rng.randrange(2, 10))
            keep = rng.randrange(1, len(big.edges) + 1)
            small = Family(big.params, tuple(sorted(rng.sample(big.edges, keep))))
            d = rng.randrange(1, k)
            assert min_degree(small, d)[0] <= min_degree(big, d)[0]
        # (b) link/cover cross-intersection on 200 random intersecting families
        from conftest import random_intersecting_family

        done = 0
        while done < 200:
            n = rng.randrange(6, 10)
            k = rng.randrange(3, min(4, n - 2) + 1)
            fam = random_intersecting_family(rng, n, k)
            if len(fam) < 2:
                continue
            verts = list(range(1, n + 1))
            s = mask_of(rng.sample(verts, k - 2))
            rest = [v for v in verts if not s & bit(v)]
            a = mask_of(rng.sample(rest, rng.randrange(2, len(rest) + 1)))
            lg = link(fam, s)
            cov = covers_size2(fam, a)
            for t in lg.edges:
                for pr in cov.edges:
                    assert t & pr, "link pair disjoint from a cover pair"
            done += 1
        # (c) oracle-vs-brute equivalence at n <= 10
        for _ in range(40):
            n = rng.randrange(4, 11)
            k = rng.randrange(2, min(5, n) + 1)
            fam = random_family(rng, n, k, rng.randrange(1, 12))
            o = ExplicitOracle(fam)
            for _ in range(20):
                d = rng.randrange(0, k + 1)
                s = mask_of(rng.sample(range(1, n + 1), d))
                assert o.degree(s) == ref_degree(fam, s)
                base = mask_of(rng.sample(range(1, n + 1), rng.randrange(0, k + 1)))
                assert o.extension(base) == next((e for e in fam.edges if e & base == base), None)
        # (d) enumeration exhaustiveness against the all-subsets brute force
        for n, k in [(4, 2), (5, 2), (6, 2), (5, 3)]:
            got = {f.edges for f in enumerate_maximal_intersecting(n, k)}
            assert got == brute_force_maximal_families(n, k)


def test_criterion_10_conjecture_probe(tmp_path):
    with Clock(600, "10 conjecture probe at (6,3) and (7,3)"):
        budget = Budget(max_ms=600_000)
        outcomes = {}
        for n in (6, 7):
            rep = search_counterexample(n, 3, 2, 2, budget=Budget(max_ms=300_000))
            assert rep.outcome in ("found", "exhausted"), "probe must run to completion"
            path = tmp_path / f"probe_{n}_3_2.json"
            path.write_text(to_json(rep, indent=2))
            payload = json.loads(path.read_text())
            assert payload["outcome"] == rep.outcome
            outcomes[n] = rep.outcome
            if rep.outcome == "found":
                fam = Family(FamilyParams(n, 3), rep.family)
                assert min_degree(fam, 2)[0] >= 2
        # the (7,3) outcome bears on whether n >= 2k+1 suffices at d=2
        print(f"  probe outcomes: (6,3,2)->{outcomes[6]}, (7,3,2)->{outcomes[7]}")
