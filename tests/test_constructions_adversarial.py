"""Paths that only non-star or inconsistent inputs can reach.

Complete stars drive every procedure down the happy path; these
families and synthetic oracles steer into the second window, the
cross-window edge derivation, and the phase-2 case analysis.
"""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import ekrlab
from ekrlab.constructions import (
    DisjointEdges,
    InternalContradictionError,
    LowCodegree,
    ZeroCodegree,
    certify_star_k1,
    certify_star_k2,
    shrink_core_k2,
)
from ekrlab.bounds import certify_threshold_k1
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star
from ekrlab.masks import bit, iter_bits, iter_subsets_within, labels, mask_of, popcount, smallest_subset
from ekrlab.oracles import ExplicitOracle, FamilyOracle, StarOracle


def without_edge(star: Family, edge_labels) -> Family:
    gone = mask_of(edge_labels)
    assert gone in star.edges
    return Family(star.params, tuple(e for e in star.edges if e != gone))


class TestSecondWindowK1:
    def test_missing_edge_beyond_first_window(self):
        # removing an edge that lives outside the canonical first window
        # passes the first star check and fails in the second
        fam = without_edge(complete_star(11, 3, 1), [1, 10, 11])
        o = ExplicitOracle(fam)
        cert = certify_star_k1(o)
        assert cert.center is None
        assert isinstance(cert.violation, ZeroCodegree)
        assert cert.violation.query_set == mask_of([10, 11])
        assert cert.violation.verify(o)

    def test_cross_window_edge_absent(self):
        # a star confined to the first window plus a disjoint blob: the
        # cross-window star edge is missing and the probe turns up the
        # disjoint pair
        params = FamilyParams(11, 3)
        edges = [bit(1) | rest for rest in iter_subsets_within(mask_of(range(2, 9)), 2)]
        edges.append(mask_of([9, 10, 11]))
        fam = Family.from_masks(params, edges)
        o = ExplicitOracle(fam)
        cert = certify_star_k1(o)
        assert isinstance(cert.violation, DisjointEdges)
        assert cert.violation.verify(o)


class TestSecondWindowK2:
    def test_missing_edge_beyond_first_window(self):
        fam = without_edge(complete_star(232, 3, 1), [1, 231, 232])
        o = ExplicitOracle(fam)
        cert = certify_star_k2(o)
        assert cert.center is None
        assert isinstance(cert.violation, LowCodegree)
        assert cert.violation.verify(o)


class TwoStarOracle(FamilyOracle):
    """Union of the complete stars at two centers; intersecting it is not."""

    def __init__(self, n: int, k: int, a: int, b: int):
        self._params = FamilyParams(n, k)
        self.ab = bit(a) | bit(b)

    @property
    def params(self):
        return self._params

    def contains(self, e):
        p = self._params
        return popcount(e) == p.k and not e & ~p.full and bool(e & self.ab)

    def degree(self, s):
        self._check_degree_arg(s)
        p, d = self._params, popcount(s)
        if s & self.ab:
            return comb(p.n - d, p.k - d)
        hits_both = comb(p.n - d - 2, p.k - d - 2) if p.k - d - 2 >= 0 else 0
        return 2 * comb(p.n - d - 1, p.k - d - 1) - hits_both

    def extension(self, base, forbidden=0):
        p = self._params
        best = None
        for cbit in iter_bits(self.ab):
            core = base | cbit
            if popcount(core) > p.k or (core & ~base) & forbidden:
                continue
            free = p.full & ~core & ~forbidden
            need = p.k - popcount(core)
            if popcount(free) < need:
                continue
            cand = core | smallest_subset(free, need)
            best = cand if best is None else min(best, cand)
        return best

    def enumerate_extensions(self, base):
        p = self._params
        seen = set()
        for cbit in iter_bits(self.ab):
            core = base | cbit
            need = p.k - popcount(core)
            if need < 0:
                continue
            for rest in iter_subsets_within(p.full & ~core, need):
                e = core | rest
                if e not in seen:
                    seen.add(e)
                    yield e


class SplitStarOracle(FamilyOracle):
    """The complete star at ``low``, except that the query kinds named in
    ``split`` answer as the star at ``high`` when the queried set meets
    every mask in ``zones``.  No single family answers this way."""

    def __init__(self, n: int, k: int, low: int, high: int, zones: tuple[int, ...], split: frozenset[str]):
        self.lo, self.hi = StarOracle(n, k, low), StarOracle(n, k, high)
        self.zones, self.split = zones, split

    @property
    def params(self):
        return self.lo.params

    def _star(self, kind: str, s: int) -> StarOracle:
        return self.hi if kind in self.split and all(s & z for z in self.zones) else self.lo

    def contains(self, e):
        return self._star("contains", e).contains(e)

    def degree(self, s):
        return self._star("degree", s).degree(s)

    def extension(self, base, forbidden=0):
        return self._star("extension", base).extension(base, forbidden)

    def enumerate_extensions(self, base):
        return self._star("enumerate", base).enumerate_extensions(base)


class PuncturedStarOracle(FamilyOracle):
    """The complete star at ``center`` minus every edge through ``hole``."""

    def __init__(self, n: int, k: int, center: int, hole: int):
        self.star, self.hole = StarOracle(n, k, center), bit(hole)

    @property
    def params(self):
        return self.star.params

    def contains(self, e):
        return not e & self.hole and self.star.contains(e)

    def degree(self, s):
        through = s | self.hole
        return self.star.degree(s) - (self.star.degree(through) if popcount(through) <= self.params.k else 0)

    def extension(self, base, forbidden=0):
        return None if base & self.hole else self.star.extension(base, forbidden | self.hole)

    def enumerate_extensions(self, base):
        return (e for e in self.star.enumerate_extensions(base) if not e & self.hole)


class SwitchingStarOracle(FamilyOracle):
    """The complete star at ``first`` until a query on the set ``trigger``
    has been answered, then the star at ``second``.  Stateful: build one
    per run."""

    def __init__(self, n: int, k: int, first: int, second: int, trigger: int):
        self.stars = (StarOracle(n, k, first), StarOracle(n, k, second))
        self.trigger, self.switched = trigger, False

    @property
    def params(self):
        return self.stars[0].params

    def _star(self, s: int) -> StarOracle:
        star = self.stars[self.switched]
        self.switched |= s == self.trigger
        return star

    def contains(self, e):
        return self._star(e).contains(e)

    def degree(self, s):
        return self._star(s).degree(s)

    def extension(self, base, forbidden=0):
        return self._star(base).extension(base, forbidden)

    def enumerate_extensions(self, base):
        return self._star(base).enumerate_extensions(base)


class TestCrossingAnswers:
    # contains answers as the star at 7 for edges with a vertex >= 8 and
    # as the star at 3 otherwise; extension answers as the star at 3, so
    # the crossing step gets back the very edge it was told is absent
    SCRIPT = """
from ekrlab.constructions import certify_star_k1
from ekrlab.masks import mask_of
from test_constructions_adversarial import SplitStarOracle
oracle = SplitStarOracle(9, 2, 3, 7, (mask_of([8, 9]),), frozenset({"contains"}))
try:
    print(certify_star_k1(oracle, samples=300, spot=64, seed=18))
except Exception as exc:
    print(type(exc).__name__, exc)
"""

    def test_returned_absent_edge_is_a_contradiction(self):
        oracle = SplitStarOracle(9, 2, 3, 7, (mask_of([8, 9]),), frozenset({"contains"}))
        with pytest.raises(InternalContradictionError, match=r"edge \(3, 8\) it reported absent"):
            certify_star_k1(oracle, samples=300, spot=64, seed=18)

    def test_returned_absent_edge_under_optimize_flag(self):
        src = str(Path(ekrlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert done.stdout.startswith("InternalContradictionError oracle returned the edge (3, 8)")


class WindowedStarOracle(StarOracle):
    """The complete star at ``center``, except that ``contains`` denies every
    edge inside none of ``windows``; the other queries answer for the whole
    star.  No single family answers this way."""

    def __init__(self, n: int, k: int, center: int, windows: tuple[int, ...]):
        super().__init__(n, k, center)
        self.windows = windows

    def contains(self, e):
        return super().contains(e) and any(not e & ~w for w in self.windows)


class TestAbsentStarEdgeReturned:
    # contains denies the star edges outside both windows of the clean run,
    # so the final check samples one of them as absent, and extension hands
    # that very star edge back; it must not become a witness
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_final_check_refuses_the_star_edge(self, k):
        n = certify_threshold_k1(k)
        par = certify_star_k1(StarOracle(n, k, 1)).trace.parameters
        window_x = par["X0"] | par["Z2"] | bit(1)
        window_y = par["Y0"] | par["Z1"] | bit(1)
        assert popcount(window_x) == popcount(window_y) == n - k
        oracle = WindowedStarOracle(n, k, 1, (window_x, window_y))
        with pytest.raises(InternalContradictionError, match=r"returned the star edge .* previously reported missing"):
            certify_star_k1(oracle)


class LowBandStarOracle(StarOracle):
    """The complete star at ``center``, except that ``degree`` answers one
    less for the (k-2)-sets inside ``band`` that avoid the center; the
    other queries answer for the whole star."""

    def __init__(self, n: int, k: int, center: int, band: range):
        super().__init__(n, k, center)
        self.band = mask_of(band)

    def degree(self, s):
        if popcount(s) == self.params.k - 2 and not s & (self._cbit | ~self.band):
            return super().degree(s) - 1
        return super().degree(s)


class TestSampledLowCodegree:
    # both windows only take links, never degrees, so the star passes them;
    # the oracle's global check samples (k-2)-sets and asks their degrees,
    # and a sampled one in the band falls one short of n-k+1
    @pytest.mark.parametrize(
        "n,k,band,witness", [(232, 3, range(229, 233), [230]), (242, 4, range(239, 243), [239, 242])]
    )
    def test_final_check_returns_the_sampled_set(self, n, k, band, witness):
        oracle = LowBandStarOracle(n, k, 1, band)
        cert = certify_star_k2(oracle)
        assert "X0" in cert.trace.parameters  # set just before the final check
        assert isinstance(cert.violation, LowCodegree)
        assert cert.violation.query_set == mask_of(witness)
        assert cert.violation.verify(oracle)


class TestTwoStarUnion:
    def test_shrink_k2_refutes_with_disjoint_pair(self):
        # high codegree everywhere, yet not intersecting: phase 2 runs
        # through non-star links (pattern reduction) and the final
        # consolidation surfaces a concrete disjoint pair
        o = TwoStarOracle(230, 3, 1, 2)
        r = shrink_core_k2(o, o.first_edge())
        assert not r.ok
        assert isinstance(r.violation, DisjointEdges)
        assert r.violation.verify(o)

    def test_oracle_answers_match_explicit_union(self):
        n = 12
        o = TwoStarOracle(n, 3, 1, 2)
        edges = sorted(set(complete_star(n, 3, 1).edges) | set(complete_star(n, 3, 2).edges))
        exp = ExplicitOracle(Family(FamilyParams(n, 3), tuple(edges)))
        from ekrlab.masks import iter_ksubsets

        for d in range(0, 3):
            for s in iter_ksubsets(n, d):
                assert o.degree(s) == exp.degree(s), labels(s)
        import random

        rng = random.Random(5)
        for _ in range(300):
            base = rng.randrange(1 << n)
            forb = rng.randrange(1 << n)
            assert o.extension(base, forb) == exp.extension(base, forb)


class PatchworkOracle(FamilyOracle):
    """Link answers are complete stars whose center depends on the query.

    Globally inconsistent on purpose: no single family has these links.
    Drives the distinct-center and common-center cases of the phase-2
    cover elimination.
    """

    def __init__(self, n: int, k: int):
        assert k == 3
        self._params = FamilyParams(n, k)

    @property
    def params(self):
        return self._params

    def _center(self, x: int) -> int:
        if x == 1:
            return 2
        if x == 2:
            return 1
        return 1 if x % 2 else 2

    def contains(self, e):
        return popcount(e) == 3 and not e & ~self._params.full

    def degree(self, s):
        return len(list(self.enumerate_extensions(s))) if popcount(s) <= 3 else 0

    def extension(self, base, forbidden=0):
        for e in self.enumerate_extensions(base):
            if not (e & ~base) & forbidden:
                return e
        return None

    def enumerate_extensions(self, base):
        p = self._params
        if popcount(base) == 0:
            yield mask_of([1, 2, 3])
            return
        if popcount(base) == 1:
            x = labels(base)[0]
            w = self._center(x)
            core = base | bit(w)
            for rest in iter_subsets_within(p.full & ~core, 1):
                yield core | rest
            return
        for rest in iter_subsets_within(p.full & ~base, 3 - popcount(base)):
            yield base | rest


class TestPatchworkCases:
    def test_distinct_center_case_terminates(self):
        # parity-striped link centers force the two-center branch before
        # a common-center block ends phase 2; postconditions are checked
        # exhaustively inside
        o = PatchworkOracle(230, 3)
        r = shrink_core_k2(o, mask_of([1, 2, 3]))
        assert r.ok
        assert r.cover_vertex in (1, 2)
        from ekrlab.family import covers_size2

        cov = covers_size2(r.subfamily, r.subfamily.vertex_set)
        assert all(pr & bit(r.cover_vertex) for pr in cov.edges)
