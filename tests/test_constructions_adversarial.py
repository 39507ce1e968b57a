"""Paths that only non-star or inconsistent inputs can reach.

Complete stars drive every procedure down the happy path; these
families and synthetic oracles steer into the second window, the
cross-window edge derivation, and the phase-2 case analysis.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import ekrlab
import ekrlab.constructions as constructions
from ekrlab.constructions import (
    CountingOracle,
    DisjointEdges,
    InternalContradictionError,
    LowCodegree,
    TracedFamily,
    ZeroCodegree,
    certify_star_k1,
    certify_star_k2,
    cherry_reduce,
    shrink_core_k1,
    shrink_core_k2,
    _K2,
    _edge_rows,
    _gap_probe_k1,
    _refute_by_outside_query,
    _sample_subsets,
)
from ekrlab.bounds import certify_threshold_k1
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.masks import (
    bit,
    full_mask,
    iter_bits,
    iter_subsets_within,
    labels,
    mask_of,
    popcount,
    row_masks,
    smallest_subset,
)
from ekrlab.oracles import ExplicitOracle, FamilyOracle, StarOracle, link, min_degree, min_degree_scan


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

    def extension(self, base):
        p = self._params
        best = None
        for cbit in iter_bits(self.ab):
            core = base | cbit
            if popcount(core) > p.k:
                continue
            cand = core | smallest_subset(p.full & ~core, p.k - popcount(core))
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

    def extension(self, base):
        return self._star("extension", base).extension(base)

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

    def extension(self, base):
        return next(self.enumerate_extensions(base), None)

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

    def extension(self, base):
        return self._star(base).extension(base)

    def enumerate_extensions(self, base):
        return self._star(base).enumerate_extensions(base)


class TestCrossingAnswers:
    # contains answers as the star at 7 for edges with a vertex >= 8 and
    # as the star at 3 otherwise; extension answers as the star at 3, so
    # the crossing step gets back the very edge it was told is absent.
    # The script's second case reaches a check that was a bare assert
    # (see TestRuledOutStates.test_reduced_covers_beyond_a_cherry).
    SCRIPT = """
import ekrlab.constructions as constructions
from ekrlab.constructions import TracedFamily, certify_star_k1, cherry_reduce
from ekrlab.generators import hilton_milner
from ekrlab.masks import bit, mask_of
from test_constructions_adversarial import SplitStarOracle
oracle = SplitStarOracle(9, 2, 3, 7, (mask_of([8, 9]),), frozenset({"contains"}))
try:
    print(certify_star_k1(oracle, samples=300, spot=64, seed=18))
except Exception as exc:
    print(type(exc).__name__, exc)
constructions.is_subgraph_of_cherry = lambda edges: False
fam = hilton_milner(8, 3)
try:
    print(cherry_reduce(fam, TracedFamily(fam.params, (), bit(1)), bit(1), mask_of(range(2, 9))))
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
        cherry = "InternalContradictionError the covers left inside the area form no subgraph of a cherry"
        assert done.stdout.splitlines()[1] == cherry


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
    """The complete star at ``center``, except that ``degree`` answers
    ``drop`` less (one by default) for the (k-2)-sets inside ``band`` that
    avoid the center; the other queries answer for the whole star."""

    def __init__(self, n: int, k: int, center: int, band: range, drop: int = 1):
        super().__init__(n, k, center)
        self.band, self.drop = mask_of(band), drop

    def degree(self, s):
        if popcount(s) == self.params.k - 2 and not s & (self._cbit | ~self.band):
            return super().degree(s) - self.drop
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

    def test_negative_degree_raises_on_the_batch_path(self, monkeypatch):
        # the band's degrees come back as -1; the final check asks them
        # through CountingOracle.first_failure, never CountingOracle.degree
        asked = []
        degree = CountingOracle.degree
        monkeypatch.setattr(CountingOracle, "degree", lambda co, s: asked.append(s) or degree(co, s))
        oracle = LowBandStarOracle(232, 3, 1, range(229, 233), drop=231)
        assert oracle.degree(mask_of([230])) == -1
        with pytest.raises(InternalContradictionError, match="oracle returned a negative degree"):
            certify_star_k2(oracle)
        assert asked == []


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
        rng = random.Random(5)
        for _ in range(300):
            base = rng.randrange(1 << n)
            assert o.extension(base) == exp.extension(base)


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

    def extension(self, base):
        return next(self.enumerate_extensions(base), None)

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


# ---------------------------------------------------------------------------
# batch answers of the sampled checks


def index_rows(rows, dtype="uint8"):
    """Label rows: row i holds the vertex indices (label - 1) of ``rows[i]``;
    every row of a batch has one width."""
    import numpy as np

    return np.array([[v - 1 for v in row] for row in rows], dtype).reshape(len(rows), len(rows[0]) if rows else 0)


def loop_failure(oracle, edges, sets=None, required=0):
    """The per-sample loop the batch call replaces, through a CountingOracle:
    ((index, kind, degree) of the first failure or None, queries asked)."""
    co = CountingOracle(oracle)
    queried = row_masks(sets) if sets is not None else None
    for i, e in enumerate(row_masks(edges)):
        deg = None
        if queried is not None:
            deg = co.degree(queried[i])
            if deg < required:
                return (i, "degree", deg), co.queries
        if not co.contains(e):
            return (i, "contains", deg), co.queries
    return None, co.queries


def batch_failure(oracle, edges, sets=None, required=0):
    """The batch call through a CountingOracle, in ``loop_failure``'s shape."""
    co = CountingOracle(oracle)
    failure = co.first_failure(edges, sets, required)
    return (tuple(failure) if failure is not None else None), co.queries


def swap(rows, i, row):
    return rows[:i] + [row] + rows[i + 1 :]


# the star at 2 on [12]; labels 13-16 lie past n
STAR = StarOracle(12, 3, 2)
EDGES = [[2, 1, 3], [2, 4, 5], [2, 6, 7], [2, 8, 9], [2, 10, 11], [2, 12, 1]]
SETS = [[1], [4], [6], [2], [10], [12]]  # degree 10 = n-k+1 each, 55 through the center
PAIRS = [[2, 1], [2, 4], [2, 6], [2, 8], [2, 10], [2, 12]]  # through the center: degree 10 each
K1_CASES = {
    "nowhere": (EDGES, None),
    "row0-no-center": (swap(EDGES, 0, [1, 3, 4]), 0),
    "last-past-n": (swap(EDGES, 5, [2, 13, 1]), 5),
    "first-of-two": (swap(swap(EDGES, 1, [2, 14, 3]), 4, [5, 6, 7]), 1),
    # every row of a batch has the batch's width, so a wrong width fails row 0
    "batch-too-small": ([row[:2] for row in EDGES], 0),
    "batch-too-big": ([row + [min(set(range(1, 13)) - set(row))] for row in EDGES], 0),  # all in [12]
}


K2_CASES = {
    "nowhere": (EDGES, SETS, None),
    "degree-row0": (EDGES, swap(PAIRS, 0, [4, 5]), (0, "degree", 1)),
    "degree-before-contains": (swap(EDGES, 4, [3, 4, 5]), swap(PAIRS, 1, [4, 5]), (1, "degree", 1)),
    "degree-at-contains": (swap(EDGES, 2, [3, 4, 5]), swap(PAIRS, 2, [4, 5]), (2, "degree", 1)),
    "degree-after-contains": (swap(EDGES, 1, [1, 3, 4]), swap(PAIRS, 3, [4, 5]), (1, "contains", 10)),
    "contains-last-through-center": (swap(EDGES, 5, [1, 12, 3]), SETS, (5, "contains", 10)),
    "pair-through-center-passes": (EDGES, PAIRS, None),  # degree 10 = required
    "empty-sets": (swap(EDGES, 3, [2, 15, 4]), [[]] * 6, (3, "contains", 55)),  # degree of {} = |F|
}


class TestBatchAnswers:
    """StarOracle's closed-form batch answer against the per-sample loop."""

    @pytest.mark.parametrize("case", K1_CASES)
    def test_contains_only(self, case):
        rows, index = K1_CASES[case]
        edges = index_rows(rows)
        want = loop_failure(STAR, edges)
        assert batch_failure(STAR, edges) == want
        assert STAR.first_failure(edges) == FamilyOracle.first_failure(STAR, edges)
        assert want[0] == (None if index is None else (index, "contains", None))
        assert want[1] == (len(rows) if index is None else index + 1)

    @pytest.mark.parametrize("case", K2_CASES)
    def test_degree_then_contains(self, case):
        rows, sets, expected = K2_CASES[case]
        edges, queried = index_rows(rows), index_rows(sets)
        want = loop_failure(STAR, edges, queried, 10)
        assert batch_failure(STAR, edges, queried, 10) == want
        assert STAR.first_failure(edges, queried, 10) == FamilyOracle.first_failure(STAR, edges, queried, 10)
        assert want[0] == expected
        per_row = 2 * len(rows) if expected is None else 2 * expected[0] + (1 if expected[1] == "degree" else 2)
        assert want[1] == per_row

    @pytest.mark.parametrize(
        "sets", [[[1, 3, 4, 5 + i] for i in range(6)], swap(SETS, 3, [13])], ids=["larger-than-k", "past-n"]
    )
    def test_invalid_degree_set_raises_as_degree_does(self, sets):
        edges, queried = index_rows(EDGES), index_rows(sets)
        with pytest.raises(ValueError) as loop_error:
            loop_failure(STAR, edges, queried, 10)
        with pytest.raises(ValueError) as batch_error:
            batch_failure(STAR, edges, queried, 10)
        assert str(batch_error.value) == str(loop_error.value)

    def test_earlier_failure_stops_before_an_invalid_set(self):
        # the set past n is row 3's; row 1's absent edge ends the batch first
        early, queried = index_rows(swap(EDGES, 1, [3, 4, 5])), index_rows(swap(SETS, 3, [13]))
        assert batch_failure(STAR, early, queried, 10) == loop_failure(STAR, early, queried, 10) == ((1, "contains", 10), 4)

    def test_random_batches(self):
        # distinct labels per row, some past n; edge batches k-1, k and k+1
        # wide, set batches 0 to k+1 wide; a batch that raises must raise
        # the same error both ways
        rng = random.Random(26)

        def outcome(call, *args):
            try:
                return call(*args)
            except ValueError as exc:
                return str(exc)

        n, k = 12, 3
        for center in (1, 5, 12):
            star = StarOracle(n, k, center)
            others = [v for v in range(1, n + 1) if v != center]
            for _ in range(80):
                width, dtype = rng.choice((k - 1, k, k + 1)), rng.choice(("uint8", "uint16"))
                edges = []
                for _ in range(9):
                    if rng.random() < 0.7:  # mostly star edges when k wide
                        row = [center] + rng.sample(others, width - 1)
                    else:
                        row = rng.sample(range(1, 17), width)
                    edges.append(rng.sample(row, width))  # in any order
                d = rng.choice(range(k + 2))
                sets = [rng.sample(range(1, 14 if rng.random() < 0.2 else n + 1), d) for _ in range(9)]
                edges, sets = index_rows(edges, dtype), index_rows(sets, dtype)
                for args in ((edges,), (edges, sets, 10)):
                    assert outcome(batch_failure, star, *args) == outcome(loop_failure, star, *args)

    def test_a_sampled_batch_passes_whole(self):
        n, k, v = 232, 3, 7
        rows = next(_sample_subsets(random.Random(5), full_mask(n) & ~bit(v), k - 1, 256))
        edges = _edge_rows(rows, v)
        assert batch_failure(StarOracle(n, k, v), edges) == (None, 256) == loop_failure(StarOracle(n, k, v), edges)
        assert batch_failure(StarOracle(n, k, v + 1), edges) == loop_failure(StarOracle(n, k, v + 1), edges)


class TestBatchDeferral:
    """A StarOracle subclass that overrides contains or degree answers its
    batches with its own queries, one per sample."""

    def test_contains_override_is_asked(self):
        n, k = 11, 3
        oracle = WindowedStarOracle(n, k, 1, (mask_of(range(1, 9)),))
        asked = []
        # spy on the instance; the class keeps its contains override
        oracle.contains = lambda e: asked.append(e) or WindowedStarOracle.contains(oracle, e)
        rows = next(_sample_subsets(random.Random(3), full_mask(n) & ~bit(1), k - 1, 64))
        edges = _edge_rows(rows, 1)
        got = batch_failure(oracle, edges)
        assert got == loop_failure(WindowedStarOracle(n, k, 1, (mask_of(range(1, 9)),)), edges)
        index = got[0][0]
        assert asked == row_masks(edges)[: index + 1]
        assert not WindowedStarOracle.contains(oracle, asked[-1])

    def test_degree_override_is_asked(self):
        n, k = 12, 3
        oracle = LowBandStarOracle(n, k, 1, range(9, 13))
        asked = []
        oracle.degree = lambda s: asked.append(s) or LowBandStarOracle.degree(oracle, s)
        sets = index_rows([[a] for a in range(2, 13)])
        edges = index_rows([[1, a, 2 if a > 2 else 3] for a in range(2, 13)])
        got = batch_failure(oracle, edges, sets, n - k + 1)
        assert got == ((7, "degree", 9), 15)
        assert got == loop_failure(LowBandStarOracle(n, k, 1, range(9, 13)), edges, sets, n - k + 1)
        assert asked == row_masks(sets)[:8]


class TestMinDegreeOnStarSubclasses:
    # the StarOracle closed form holds only for StarOracle's own degree
    def test_low_band_example(self):
        oracle = LowBandStarOracle(12, 3, 1, range(9, 13))
        assert min_degree(oracle, 1) == min_degree_scan(oracle, 1) == (9, mask_of([9]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "oracle",
        [LowBandStarOracle(12, 3, 1, range(9, 13)), LowBandStarOracle(12, 4, 3, range(5, 13)), WindowedStarOracle(12, 3, 1, (mask_of(range(1, 9)),))],
        ids=["low-band-k3", "low-band-k4", "windowed"],
    )
    def test_matches_scan(self, oracle, d):
        assert min_degree(oracle, d) == min_degree_scan(oracle, d)


class BreachStarOracle(StarOracle):
    """The complete star at ``center``, except that one query kind breaks
    its contract: ``extension`` answers a (k+1)-set ("wide") or a star edge
    that misses part of its base ("off-base"), or ``enumerate_extensions``
    yields every star edge widened to a (k+1)-set ("enumerate") or yields
    every star edge twice ("repeat")."""

    def __init__(self, n: int, k: int, center: int, breach: str):
        super().__init__(n, k, center)
        self.breach = breach

    def extension(self, base):
        e = super().extension(base)
        if e is None or self.breach in ("enumerate", "repeat"):
            return e
        if self.breach == "wide":
            return e | smallest_subset(self.params.full & ~e, 1)
        return self._cbit | smallest_subset(self.params.full & ~(base | self._cbit), self.params.k - 1)

    def enumerate_extensions(self, base):
        for e in super().enumerate_extensions(base):
            if self.breach == "enumerate":
                e |= smallest_subset(self.params.full & ~e, 1)
            if self.breach == "repeat":
                yield e
            yield e


class StrayLinkStarOracle(StarOracle):
    """The complete star, except that an enumeration through {1, 2} also
    yields the sets ``strays``, by default {1, 2} | {7, 8, 9} and {20}:
    neither is a k-set holding the base."""

    def __init__(self, n: int, k: int, center: int, strays=([1, 2, 7, 8, 9], [20])):
        super().__init__(n, k, center)
        self.strays = [mask_of(stray) for stray in strays]

    def enumerate_extensions(self, base):
        yield from super().enumerate_extensions(base)
        if base == mask_of([1, 2]):
            yield from self.strays


class TestQueryContractBreaches:
    # the counting wrapper refuses an answer outside the query contract
    # before any shrink step reads it; the k-1 shrink asks extensions at
    # k >= 3 and enumerates at k = 2, the k-2 shrink enumerates links
    @pytest.mark.parametrize(
        "shrink, n, k, breach, message",
        [
            (shrink_core_k1, 7, 3, "wide", r"extension answer \(1, 2, 3, 4\)"),
            (shrink_core_k1, 7, 3, "off-base", r"extension answer \(1, 2, 3\)"),
            (shrink_core_k1, 6, 2, "enumerate", r"enumeration answer \(1, 2, 3\)"),
            (shrink_core_k2, 230, 3, "enumerate", r"enumeration answer \(1, 2, 3, 14\)"),
        ],
        ids=["k1-extension-wide", "k1-extension-off-base", "k1-enumerate-k2", "k2-enumerate"],
    )
    def test_shrink_raises(self, shrink, n, k, breach, message):
        oracle = BreachStarOracle(n, k, 1, breach)
        with pytest.raises(InternalContradictionError, match=rf"oracle {message} violates the query contract"):
            shrink(oracle, mask_of(range(1, k + 1)))

    # the link refuses an enumeration that repeats an edge: its doubled
    # pairs would pass the n-k+1 floor on half as many distinct ones
    def test_k2_shrink_refuses_a_repeated_link_edge(self):
        with pytest.raises(ValueError, match=r"^the enumeration through \(14,\) repeats an edge$"):
            shrink_core_k2(BreachStarOracle(230, 3, 1, "repeat"), mask_of([1, 2, 3]))

    def test_link_refuses_a_repeated_edge(self):
        with pytest.raises(ValueError, match=r"^the enumeration through \(5,\) repeats an edge$"):
            link(CountingOracle(BreachStarOracle(155, 3, 1, "repeat")), bit(5))

    def test_link_refuses_a_liar_unwrapped(self):
        # an unwrapped oracle's link checks the pairs itself: an answer of
        # five vertices and one missing the base are not link pairs
        liar = StrayLinkStarOracle(12, 4, 1)
        with pytest.raises(InternalContradictionError, match=r"^oracle link pair \(7, 8, 9\) of \(1, 2\) violates"):
            link(liar, mask_of([1, 2]))
        with pytest.raises(InternalContradictionError, match=r"^oracle link pair \(1, 2, 20\) of \(1, 2\) violates"):
            link(StrayLinkStarOracle(12, 4, 1, strays=[[20]]), mask_of([1, 2]))
        # counted, the same answers fail the counter's own check, with its message
        with pytest.raises(InternalContradictionError, match=r"^oracle enumeration answer \(1, 2, 7, 8, 9\) violates"):
            link(CountingOracle(liar), mask_of([1, 2]))
        assert link(liar, mask_of([3, 4])).edges == link(StarOracle(12, 4, 1), mask_of([3, 4])).edges



class TestRuledOutStates:
    # states that the counting arguments rule out for every oracle, reached
    # by a direct call or with one helper patched; each must raise
    def test_negative_degree_on_a_direct_query(self):
        co = CountingOracle(LowBandStarOracle(232, 3, 1, range(229, 233), drop=231))
        with pytest.raises(InternalContradictionError, match="oracle returned a negative degree"):
            co.degree(mask_of([230]))

    def test_non_star_link_without_a_pattern(self, monkeypatch):
        # a non-star link of >= 6 pairs holds a 3-matching, Q or K4
        monkeypatch.setattr(constructions, "find_pattern", lambda lk: None)
        fam = hilton_milner(8, 3)
        with pytest.raises(InternalContradictionError, match="no star center admits no 3-matching, Q, or K4"):
            cherry_reduce(fam, TracedFamily(fam.params, (), bit(1)), bit(1), mask_of(range(2, 9)))

    def test_reduced_covers_beyond_a_cherry(self, monkeypatch):
        monkeypatch.setattr(constructions, "is_subgraph_of_cherry", lambda edges: False)
        fam = hilton_milner(8, 3)
        with pytest.raises(InternalContradictionError, match="^the covers left inside the area form no subgraph"):
            cherry_reduce(fam, TracedFamily(fam.params, (), bit(1)), bit(1), mask_of(range(2, 9)))

    def test_outside_query_covered_by_its_context(self):
        # every extension of {4} in the star at 1 meets the context edge {1, 2, 3}
        co = CountingOracle(StarOracle(9, 3, 1))
        with pytest.raises(InternalContradictionError, match="every extension of an outside .* covers the context"):
            _refute_by_outside_query(co, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))

    def test_gap_probe_on_a_cored_context(self):
        # vertex 1 is in every context edge and is the hub of every outside extension
        co = CountingOracle(StarOracle(11, 3, 1))
        ctx = (mask_of([1, 2, 3]), mask_of([1, 4, 5]))
        with pytest.raises(InternalContradictionError, match="one-vertex cover of a coreless family"):
            _gap_probe_k1(co, ctx, mask_of(range(1, 6)), mask_of(range(1, 9)))

    def test_k2_cross_extension_covering_the_context(self):
        # v = 2 is off the star's center; the extension {1, 3, 9} of the
        # outside set {9} avoids v yet meets the only context edge
        co = CountingOracle(StarOracle(11, 3, 1))
        ctx = TracedFamily(co.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        with pytest.raises(InternalContradictionError, match="off-center extension of the outside set covers"):
            _K2().cross(co, ctx, mask_of(range(1, 9)), 2)

    def test_k2_shrink_cover_avoiding_the_cover_vertex(self, monkeypatch):
        # the part-pair phase hands back vertex 2 on the star at 1, whose
        # core vertex 1 makes every pair through it a cover
        monkeypatch.setattr(constructions, "_part_pairs_k2", lambda co, current, parts, v, trace: (current, 2))
        with pytest.raises(InternalContradictionError, match=r"cover \(1, 3\) avoids the designated vertex 2$"):
            shrink_core_k2(StarOracle(230, 3, 1), mask_of([1, 2, 3]))


class RecordingOracle(FamilyOracle):
    """Delegates every query to ``inner`` and tallies each edge it answers
    with: extensions, enumerated edges and the edges T | base of a
    closed-form link (``closed=False`` hides the closed form, so links
    enumerate); batches pass straight to ``inner``."""

    def __init__(self, inner: FamilyOracle, closed: bool = True):
        self.inner, self.closed = inner, closed
        self.answers = Counter()

    @property
    def params(self):
        return self.inner.params

    def contains(self, e):
        return self.inner.contains(e)

    def degree(self, s):
        return self.inner.degree(s)

    def extension(self, base):
        e = self.inner.extension(base)
        if e is not None:
            self.answers[e] += 1
        return e

    def enumerate_extensions(self, base):
        for e in self.inner.enumerate_extensions(base):
            self.answers[e] += 1
            yield e

    def link_pairs(self, base):
        pairs = self.inner.link_pairs(base) if self.closed else None
        if pairs is not None:
            self.answers.update(t | base for t in pairs)
        return pairs

    def first_failure(self, edges, sets=None, required=0):
        return self.inner.first_failure(edges, sets, required)


class TestSharedCounter:
    # a shrink or cherry reduction given a CountingOracle asks through it,
    # so the answers of one certification are validated by one counter
    @pytest.mark.parametrize(
        "shrink, oracle",
        [(shrink_core_k1, StarOracle(14, 4, 2)), (shrink_core_k1, StarOracle(9, 2, 5)), (shrink_core_k2, StarOracle(232, 3, 4))],
        ids=["k1", "k1-k2", "k2"],
    )
    def test_queries_used_is_the_counters_increase(self, shrink, oracle):
        e = oracle.first_edge()
        fresh = shrink(oracle, e)
        co = CountingOracle(oracle)
        co.degree(0)
        co.contains(e)
        shared = shrink(co, e)
        assert shared.trace.queries_used == fresh.trace.queries_used > 0
        assert co.queries == 2 + fresh.trace.queries_used
        again = shrink(co, e)
        assert again.trace.queries_used == fresh.trace.queries_used
        assert again.trace.steps == shared.trace.steps == fresh.trace.steps

    @pytest.mark.parametrize("closed", [True, False], ids=["closed-form-links", "enumerated-links"])
    def test_each_answer_is_validated_once(self, monkeypatch, closed):
        validated = Counter()
        checked, link_pairs = CountingOracle._checked, CountingOracle.link_pairs

        def spy_checked(co, answers, base, query):
            for e in checked(co, answers, base, query):
                validated[e] += 1
                yield e

        def spy_link_pairs(co, base):
            pairs = link_pairs(co, base)
            if pairs is not None:
                validated.update(t | base for t in pairs)
            return pairs

        monkeypatch.setattr(CountingOracle, "_checked", spy_checked)
        monkeypatch.setattr(CountingOracle, "link_pairs", spy_link_pairs)
        oracle = RecordingOracle(StarOracle(232, 3, 9), closed)
        cert = certify_star_k2(oracle, samples=300, spot=32, seed=1)
        assert cert.is_star
        assert sum(oracle.answers.values()) > 232
        assert validated == oracle.answers

    def test_cherry_reduce_raises_on_a_raw_liar(self):
        oracle = BreachStarOracle(155, 3, 1, "enumerate")
        sub = TracedFamily(oracle.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        with pytest.raises(InternalContradictionError, match=r"oracle enumeration answer \(1, 2, 3, 4\) violates"):
            cherry_reduce(oracle, sub, bit(4), mask_of(range(5, 20)))

    @pytest.mark.parametrize("breach", ["wide", "off-base"])
    def test_shrink_raises_on_a_counted_liar(self, breach):
        co = CountingOracle(BreachStarOracle(7, 3, 1, breach))
        with pytest.raises(InternalContradictionError, match="oracle extension answer .* violates the query contract"):
            shrink_core_k1(co, mask_of([1, 2, 3]))


class EnumeratingStarOracle(StarOracle):
    """The complete star, with ``enumerate_extensions`` overridden by a copy
    of its own, which turns the closed-form link off."""

    def enumerate_extensions(self, base):
        yield from super().enumerate_extensions(base)


def enumerated_link(oracle, base):
    """The link's pairs read off the enumeration, as ``link`` reads them without a closed form."""
    return tuple(sorted(e & ~base for e in oracle.enumerate_extensions(base)))


LINK_CASES = [(9, 3, 1), (9, 3, 5), (12, 4, 12), (14, 5, 3), (232, 3, 117)]


def link_bases(n, k, center):
    """(k-2)-sets through the center, avoiding it, and reaching past [n]."""
    cbit, full = bit(center), full_mask(n)
    through = cbit | smallest_subset(full & ~cbit, k - 3)
    avoiding = [smallest_subset(full & ~cbit, k - 2), mask_of([v for v in range(n, 0, -1) if v != center][: k - 2])]
    past = bit(n + 1) | smallest_subset(full & ~cbit, k - 3)
    return [through, *avoiding, past]


class TestClosedFormLinks:
    @pytest.mark.parametrize("n,k,center", LINK_CASES)
    def test_equal_to_the_enumeration(self, n, k, center):
        star = StarOracle(n, k, center)
        enumerating = EnumeratingStarOracle(n, k, center)
        for base in link_bases(n, k, center):
            assert popcount(base) == k - 2
            assert star.link_pairs(base) is not None
            assert enumerating.link_pairs(base) is None
            want = enumerated_link(star, base)
            assert tuple(star.link_pairs(base)) == want
            assert link(star, base).edges == link(enumerating, base).edges == want
            co = CountingOracle(star)
            assert link(co, base).edges == want
            assert co.queries == 1
            if n <= 14:
                assert link(ExplicitOracle(complete_star(n, k, center)), base).edges == want

    @pytest.mark.parametrize("shrink", [shrink_core_k2, certify_star_k2])
    def test_an_enumerate_override_defers_with_the_same_counts(self, monkeypatch, shrink):
        n, k, center = 232, 3, 5
        args = (mask_of([5, 6, 7]),) if shrink is shrink_core_k2 else ()
        kwargs = {} if shrink is shrink_core_k2 else {"samples": 64, "spot": 16}
        closed = shrink(StarOracle(n, k, center), *args, **kwargs)
        asked = []
        enumerate_extensions = StarOracle.enumerate_extensions

        def spy(oracle, base):
            asked.append(base)
            return enumerate_extensions(oracle, base)

        monkeypatch.setattr(EnumeratingStarOracle, "enumerate_extensions", spy)
        subclass = shrink(EnumeratingStarOracle(n, k, center), *args, **kwargs)
        assert asked and subclass.trace == closed.trace
        monkeypatch.undo()
        asked.clear()
        monkeypatch.setattr(StarOracle, "enumerate_extensions", spy)
        assert StarOracle(n, k, center).link_pairs(bit(9)) is None
        patched = shrink(StarOracle(n, k, center), *args, **kwargs)
        assert asked and patched.trace == closed.trace

    @pytest.mark.parametrize(
        "extra, shown",
        [
            (mask_of([2, 4, 6]), r"\(2, 4, 6\) of \(3,\)"),  # a 3-set
            (mask_of([3, 4]), r"\(3, 4\) of \(3,\)"),  # holds a base vertex
            (mask_of([1, 10]), r"\(1, 10\) of \(3,\)"),  # reaches past [n]
        ],
        ids=["wide", "overlaps-base", "outside"],
    )
    def test_a_bad_batch_fails_the_contract_check(self, monkeypatch, extra, shown):
        link_pairs = StarOracle.link_pairs
        monkeypatch.setattr(StarOracle, "link_pairs", lambda oracle, base: [*link_pairs(oracle, base), extra])
        oracle = StarOracle(9, 3, 1)
        for source in (oracle, CountingOracle(oracle)):  # counted or not, the link checks the batch
            with pytest.raises(InternalContradictionError, match=rf"^oracle link pair {shown} violates the query contract$"):
                link(source, bit(3))
