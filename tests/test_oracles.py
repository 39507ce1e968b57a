import ast
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import ekrlab
import ekrlab.oracles as oracles
from conftest import random_family, ref_degree, ref_min_degree
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star, enumerate_maximal_intersecting, hilton_milner
from ekrlab.masks import iter_ksubsets, labels, mask_of
from ekrlab.oracles import (
    ExplicitOracle,
    FamilyOracle,
    StarOracle,
    _min_degree_counting,
    _min_degree_walk,
    min_degree,
    min_degree_scan,
)
from test_constructions_adversarial import TwoStarOracle


class TestStarOracleClosedForms:
    def test_degree_examples(self):
        o = StarOracle(7, 3, 1)
        assert o.degree(mask_of([2])) == 5
        assert o.degree(mask_of([2, 3])) == 1
        assert o.degree(mask_of([1, 2])) == 5

    def test_degree_size_guard(self):
        with pytest.raises(ValueError):
            StarOracle(7, 3, 1).degree(mask_of([1, 2, 3, 4]))

    def test_agrees_with_explicit_everywhere(self):
        for n, k, v in [(6, 2, 3), (7, 3, 1), (8, 3, 5), (8, 4, 2)]:
            star = StarOracle(n, k, v)
            exp = ExplicitOracle(complete_star(n, k, v))
            for d in range(0, k + 1):
                for s in iter_ksubsets(n, d):
                    assert star.degree(s) == exp.degree(s), (n, k, v, labels(s))
            for e in iter_ksubsets(n, k):
                assert star.contains(e) == exp.contains(e)

    def test_extension_agrees_with_explicit(self, rng):
        star = StarOracle(8, 3, 2)
        exp = ExplicitOracle(complete_star(8, 3, 2))
        for _ in range(300):
            base = rng.randrange(1 << 8)
            assert star.extension(base) == exp.extension(base)

    def test_enumerate_agrees(self):
        star = StarOracle(7, 3, 4)
        exp = ExplicitOracle(complete_star(7, 3, 4))
        for d in range(0, 3):
            for base in iter_ksubsets(7, d):
                assert sorted(star.enumerate_extensions(base)) == sorted(
                    exp.enumerate_extensions(base)
                )


class OpaqueOracle(FamilyOracle):
    """Answers every query through ``inner`` and exposes no explicit family."""

    def __init__(self, inner: FamilyOracle):
        self.inner = inner

    @property
    def params(self):
        return self.inner.params

    def contains(self, e):
        return self.inner.contains(e)

    def degree(self, s):
        return self.inner.degree(s)

    def extension(self, base):
        return self.inner.extension(base)

    def enumerate_extensions(self, base):
        return self.inner.enumerate_extensions(base)


class TestMinDegreeGeneralOracle:
    """An oracle that is neither explicit nor a StarOracle takes ``min_degree_scan``."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["two-star", "hidden-explicit"])
    def test_scan_route_matches_reference(self, kind, d, monkeypatch):
        union = Family.from_masks(FamilyParams(7, 3), complete_star(7, 3, 1).edges + complete_star(7, 3, 2).edges)
        if kind == "two-star":
            oracle = TwoStarOracle(7, 3, 1, 2)
        else:
            oracle = OpaqueOracle(ExplicitOracle(union))
        assert oracle.family is None
        scans = []

        def spy(o, dd):
            scans.append(dd)
            return min_degree_scan(o, dd)

        monkeypatch.setattr(oracles, "min_degree_scan", spy)
        assert min_degree(oracle, d) == ref_min_degree(union, d)
        assert scans == [d]


class TestMinDegree:
    def test_star_closed_form(self):
        for n, k, v in [(7, 3, 1), (9, 4, 3), (10, 2, 10)]:
            for d in range(1, k):
                val, arg = min_degree(StarOracle(n, k, v), d)
                assert val == comb(n - d - 1, k - d - 1)
                assert not arg & (1 << (v - 1))

    def test_triangle_isolated_vertex(self):
        f = Family.from_labels(FamilyParams(4, 2), [[1, 2], [1, 3], [2, 3]])
        assert min_degree(f, 1) == (0, mask_of([4]))

    def test_full_family_pairs(self):
        f = Family(FamilyParams(5, 3), tuple(iter_ksubsets(5, 3)))
        val, _ = min_degree(f, 2)
        assert val == 3

    def test_empty_family(self):
        f = Family(FamilyParams(5, 3), ())
        assert min_degree(f, 2) == (0, mask_of([1, 2]))

    def test_d_range(self):
        with pytest.raises(ValueError):
            min_degree(complete_star(6, 3, 1), 4)

    def test_counting_matches_scan_and_reference(self, rng):
        cases = []
        for _ in range(40):
            n = rng.randrange(4, 9)
            k = rng.randrange(2, min(4, n) + 1)
            f = random_family(rng, n, k, rng.randrange(1, 10))
            cases += [(f, d) for d in range(1, k + 1)]
        # min_degree counts on the 7-edge (8,3) maximal family at d = 2 and
        # walks on the 10-edge one; it walks on the (26,4) star at d = 1
        # and counts at d = 3
        maximal = {}
        for f in enumerate_maximal_intersecting(8, 3):
            maximal.setdefault(len(f), f)
            if 7 in maximal and 10 in maximal:
                break
        star = complete_star(26, 4, 2)
        cases += [(maximal[7], 2), (maximal[10], 2), (star, 1), (star, 3)]
        # ties: pairs {2,3} and {1,4} share the minimum 2-degree and the
        # triples {2,3,5} and {1,4,5} are missing; canonical order puts
        # {2,3} and {2,3,5} first (lexicographic order would not)
        full = Family(FamilyParams(5, 3), tuple(iter_ksubsets(5, 3)))
        missing = (mask_of([1, 4, 5]), mask_of([2, 3, 5]))
        ties = Family(full.params, tuple(e for e in full.edges if e not in missing))
        assert ref_min_degree(ties, 2) == (2, mask_of([2, 3]))
        assert ref_min_degree(ties, 3) == (0, mask_of([2, 3, 5]))
        cases += [(ties, d) for d in (1, 2, 3)] + [(full, d) for d in (1, 2, 3)]
        for f, d in cases:
            want = ref_min_degree(f, d)
            assert min_degree(f, d) == want
            assert min_degree_scan(ExplicitOracle(f), d) == want
            # each route on its own, whichever min_degree picks
            assert _min_degree_walk(f, d) == want
            assert _min_degree_counting(f, d) == want

    def test_hilton_milner_top_codegree_vanishes(self):
        # brute-force derivation: pairs avoiding the anchor inside the
        # tail {5..9} extend to no edge of the (9,3) family
        hm = hilton_milner(9, 3)
        val, arg = min_degree(hm, 2)
        assert val == 0
        assert ref_degree(hm, arg) == 0


FANO_LINES = [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [1, 5, 6], [2, 6, 7], [1, 3, 7]]


def test_min_degree_under_optimize_flag():
    """``python -O`` strips asserts; both explicit routes, the scan and the
    Hilton-Milner size check still give the reference answers."""
    script = f"""
import sys
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.oracles import ExplicitOracle, min_degree, min_degree_scan
assert False, "asserts are live"
fano = Family.from_labels(FamilyParams(8, 3), {FANO_LINES})
star, hm = complete_star(26, 4, 2), hilton_milner(9, 3)
print(repr((sys.flags.optimize, min_degree(fano, 2), min_degree(star, 1), min_degree(star, 3),
            min_degree_scan(ExplicitOracle(hm), 2), len(hm))))
"""
    src = str(Path(ekrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    fano = Family.from_labels(FamilyParams(8, 3), FANO_LINES)
    star, hm = complete_star(26, 4, 2), hilton_milner(9, 3)
    refs = [ref_min_degree(fano, 2), ref_min_degree(star, 1), ref_min_degree(star, 3), ref_min_degree(hm, 2)]
    assert ast.literal_eval(done.stdout) == (1, *refs, comb(8, 2) - comb(5, 2) + 1)


class TestOracleEquivalence:
    """Explicit oracle answers == inline brute-force scans, n <= 12."""

    def test_queries_match_brute_force(self, rng):
        for _ in range(50):
            n = rng.randrange(4, 13)
            k = rng.randrange(2, min(5, n) + 1)
            f = random_family(rng, n, k, rng.randrange(1, 12))
            o = ExplicitOracle(f)
            for _ in range(30):
                d = rng.randrange(0, k + 1)
                s = mask_of(rng.sample(range(1, n + 1), d))
                assert o.degree(s) == ref_degree(f, s)
                base = mask_of(rng.sample(range(1, n + 1), rng.randrange(0, k + 1)))
                assert o.extension(base) == next((e for e in f.edges if e & base == base), None)
                assert list(o.enumerate_extensions(base)) == [
                    e for e in f.edges if e & base == base
                ]
            for e in f.edges:
                assert o.contains(e)
            assert not o.contains(mask_of(range(1, k + 1))) or mask_of(range(1, k + 1)) in f.edges


def test_empty_base_reads_the_edge_tuple():
    # an empty base is every edge: answered without the label rows or the vertex index
    f = complete_star(30, 3, 7)
    o = ExplicitOracle(f)
    assert o.first_edge() == f.edges[0]
    assert tuple(o.enumerate_extensions(0)) == f.edges
    assert "rows" not in f.__dict__ and "index" not in f.__dict__
    assert ExplicitOracle(Family(f.params, ())).first_edge() is None


def test_degree_monotone_under_edge_subsets(rng):
    for _ in range(60):
        n = rng.randrange(4, 9)
        k = rng.randrange(2, min(4, n) + 1)
        big = random_family(rng, n, k, rng.randrange(2, 12))
        keep = rng.randrange(1, len(big.edges) + 1)
        small = Family(big.params, tuple(sorted(rng.sample(big.edges, keep))))
        for d in range(1, k):
            assert min_degree(small, d)[0] <= min_degree(big, d)[0]


def test_link_on_star_oracle():
    from ekrlab.oracles import link

    lg = link(StarOracle(6, 3, 1), mask_of([2]))
    assert set(lg.edges) == {mask_of((1, x)) for x in (3, 4, 5, 6)}
