import random
from itertools import combinations

import pytest

from conftest import ref_sample_subset
from ekrlab.bounds import (
    certify_threshold_k1,
    certify_threshold_k2,
    shrink_threshold_k2,
    shrink_vertex_bound_k1,
    shrink_vertex_bound_k2,
)
from ekrlab.constructions import (
    SAMPLE_BATCH,
    DisjointEdges,
    InternalContradictionError,
    LowCodegree,
    NotStar,
    TracedFamily,
    Violation,
    ZeroCodegree,
    certify_star_k1,
    certify_star_k2,
    cherry_reduce,
    shrink_core_k1,
    shrink_core_k2,
    _random_floats,
    _sample_subsets,
    _select_outside,
)
from ekrlab.family import Family, FamilyParams, covers_size2, is_complete_star_on
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.graphs import MATCHING3, PATTERN_Q
from ekrlab.masks import bit, full_mask, labels, mask_of, popcount, row_masks
from ekrlab.oracles import ExplicitOracle, StarOracle


def star_minus_first_edge(n, k, v):
    star = complete_star(n, k, v)
    return Family(star.params, star.edges[1:])


GAPPY_POOL = mask_of([2, 3, 7, 11, 12, 30, 31, 64, 65, 100, 101, 150])


def sampled_masks(rng, pool, r, count):
    """The sampler's rows as masks, batch after batch."""
    return [w for rows in _sample_subsets(rng, pool, r, count) for w in row_masks(rows)]


class TestSampleSubsets:
    @pytest.mark.parametrize(
        "pool,r,count",
        [
            (full_mask(20), 5, 0),
            (full_mask(20), 5, SAMPLE_BATCH + 37),
            (full_mask(20), 5, 2 * SAMPLE_BATCH),
            (full_mask(20), 1, 300),
            (full_mask(20), 20, 300),
            (full_mask(20), 0, 10),
            (GAPPY_POOL, 7, 300),
            (GAPPY_POOL, 12, 40),
            (full_mask(441) & ~bit(17), 38, 300),  # k-2 final check at k = 40
        ],
        ids=["count0", "count-ragged", "count-2batches", "r1", "r-all", "r0", "gaps", "gaps-r-all", "440-bit"],
    )
    def test_matches_scalar_reference(self, pool, r, count):
        ref_rng, rng = random.Random(2024), random.Random(2024)
        expected = [ref_sample_subset(ref_rng, pool, r) for _ in range(count)]
        assert sampled_masks(rng, pool, r, count) == expected
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("count", [1, SAMPLE_BATCH - 1, SAMPLE_BATCH, SAMPLE_BATCH + 1, 2 * SAMPLE_BATCH + 1])
    def test_interleaved_draws_split_at_batches(self, count):
        # the k-2 final check draws rng.choice after every yield; those
        # draws follow each batch's floats, so per batch the reference
        # draws its subsets first, then the choices
        pool, r = GAPPY_POOL, 7
        zchoices = [bit(v) for v in range(1, 200)]

        def choose(rng, w):
            z = rng.choice(zchoices)
            while z & w:
                z = rng.choice(zchoices)
            return z

        ref_rng, rng = random.Random(77), random.Random(77)
        expected = []
        for start in range(0, count, SAMPLE_BATCH):
            batch = [ref_sample_subset(ref_rng, pool, r) for _ in range(min(SAMPLE_BATCH, count - start))]
            expected += [(w, choose(ref_rng, w)) for w in batch]
        got = [(w, choose(rng, w)) for rows in _sample_subsets(rng, pool, r, count) for w in row_masks(rows)]
        assert got == expected
        assert rng.getstate() == ref_rng.getstate()

    def test_early_close_consumes_one_batch(self):
        pool, r = full_mask(20), 5
        ref_rng, rng = random.Random(9), random.Random(9)
        expected = [ref_sample_subset(ref_rng, pool, r) for _ in range(SAMPLE_BATCH)]
        gen = _sample_subsets(rng, pool, r, 1000)
        assert row_masks(next(gen)) == expected
        gen.close()
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**40 + 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 255, 256, 257, 10**4])
    def test_random_floats_equal_random(self, seed, m):
        ref_rng, rng = random.Random(seed), random.Random(seed)
        assert _random_floats(rng, m).tolist() == [ref_rng.random() for _ in range(m)]
        assert rng.getstate() == ref_rng.getstate()

    def test_rejects_oversized_sample(self):
        with pytest.raises(ValueError, match="cannot sample 3 of 2"):
            next(_sample_subsets(random.Random(0), mask_of([4, 9]), 3, 1))


class TestShrinkK1:
    def test_k2_star(self):
        r = shrink_core_k1(StarOracle(9, 2, 1), mask_of([1, 2]))
        assert r.ok
        assert [labels(e) for e in r.subfamily.edges] == [(1, 2), (1, 3)]
        assert labels(r.subfamily.core) == (1,)

    def test_star_k3_bounds(self):
        r = shrink_core_k1(StarOracle(11, 3, 1), mask_of([1, 2, 3]))
        assert r.ok
        assert popcount(r.subfamily.core) <= 1
        assert popcount(r.subfamily.vertex_set) <= 7  # k + sqrt-term + 2

    def test_contains_starting_edge(self):
        r = shrink_core_k1(StarOracle(12, 4, 2), mask_of([1, 2, 3, 4]))
        assert mask_of([1, 2, 3, 4]) in r.subfamily.edges

    def test_hilton_milner_canonical_run_succeeds(self):
        # the degree hypothesis fails globally (delta_2 = 0), but the
        # canonical query sequence from {2,3,4} never touches a
        # zero-degree pair; the core still shrinks below two vertices
        hm = hilton_milner(9, 3)
        r = shrink_core_k1(ExplicitOracle(hm), mask_of([2, 3, 4]))
        assert r.ok
        assert popcount(r.subfamily.core) <= 1

    def test_zero_codegree_witness_on_broken_star(self):
        fam = star_minus_first_edge(11, 3, 1)
        o = ExplicitOracle(fam)
        r = shrink_core_k1(o, o.first_edge())
        assert not r.ok
        assert isinstance(r.violation, ZeroCodegree)
        assert r.violation.query_set == mask_of([2, 3])
        assert r.violation.verify(o)

    def test_k2_stray_edge_is_disjoint(self):
        # {1,2} has no partner through 1 or 2, and {3,4} misses it
        fam = Family.from_labels(FamilyParams(6, 2), [(1, 2), (3, 4)])
        r = shrink_core_k1(fam, mask_of([1, 2]))
        assert not r.ok
        assert r.violation == DisjointEdges(mask_of([1, 2]), mask_of([3, 4]))
        assert r.violation.verify(ExplicitOracle(fam))

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="n >= 7"):
            shrink_core_k1(StarOracle(6, 3, 1), mask_of([1, 2, 3]))
        with pytest.raises(ValueError, match="not in the family"):
            shrink_core_k1(StarOracle(11, 3, 1), mask_of([2, 3, 4]))

    def test_trace_contract_on_star_oracles(self):
        for k in range(2, 65):
            n = certify_threshold_k1(k)
            o = StarOracle(n, k, 1)
            r = shrink_core_k1(o, o.first_edge())
            assert r.ok
            d = r.trace.excesses
            assert d[0] == 1
            assert all(b - a in (0, 1) for a, b in zip(d, d[1:]))
            big_d = r.trace.parameters["D"]
            assert big_d * (big_d + 1) <= 2 * k
            assert popcount(r.subfamily.vertex_set) <= shrink_vertex_bound_k1(k)
            # one extension query per recorded step, plus the containment probe
            steps_with_query = sum(1 for s in r.trace.steps if s.query_set)
            assert steps_with_query <= k + 1


class TestTracedFamily:
    def test_is_a_validated_family_with_a_vertex_set(self):
        p = FamilyParams(8, 3)
        sub = TracedFamily(p, (mask_of([1, 2, 3]), mask_of([1, 2, 4])), mask_of([1, 2, 3, 4, 8]))
        assert isinstance(sub, Family) and mask_of([1, 2, 4]) in sub
        assert sub.core == mask_of([1, 2])
        assert covers_size2(sub, sub.vertex_set).edges == covers_size2(Family(p, sub.edges), sub.vertex_set).edges
        grown = sub.add([mask_of([1, 5, 6]), mask_of([1, 2, 3])])
        assert grown.edges == (mask_of([1, 2, 3]), mask_of([1, 2, 4]), mask_of([1, 5, 6]))
        assert grown.vertex_set == mask_of([1, 2, 3, 4, 5, 6, 8]) and grown.core == mask_of([1])
        assert TracedFamily(p, (), 0).core == p.full

    def test_rejects_what_family_rejects(self):
        p = FamilyParams(8, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            TracedFamily(p, (mask_of([1, 2, 4]), mask_of([1, 2, 3])), mask_of([1, 2, 3, 4]))
        with pytest.raises(ValueError, match="has size 2"):
            TracedFamily(p, (mask_of([1, 2]),), mask_of([1, 2]))
        with pytest.raises(ValueError, match="vertex set must contain every edge"):
            TracedFamily(p, (mask_of([1, 2, 3]),), mask_of([1, 2]))


class TestCherryReduce:
    def test_star_link_detected(self):
        o = StarOracle(8, 3, 2)
        sub = TracedFamily(o.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        res = cherry_reduce(o, sub, mask_of([1]), mask_of([4, 5]))
        assert res.is_star_link and res.star_center == 2

    def test_matching_link_empties_covers(self):
        edges = [[1, 2, 3], [1, 4, 5], [1, 6, 7], [1, 2, 8], [1, 3, 8], [1, 4, 8]]
        fam = Family.from_labels(FamilyParams(8, 3), edges)
        sub = TracedFamily(fam.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        res = cherry_reduce(ExplicitOracle(fam), sub, mask_of([1]), mask_of([4, 5, 6]))
        assert not res.is_star_link
        assert res.pattern.kind == MATCHING3
        assert covers_size2(res.reduced, mask_of([4, 5, 6])).edges == ()

    def test_q_link_leaves_cherry(self):
        edges = [[1, 2, 3], [1, 5, 6], [1, 5, 7], [1, 2, 5], [1, 3, 5], [1, 3, 6]]
        fam = Family.from_labels(FamilyParams(8, 3), edges)
        sub = TracedFamily(fam.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        res = cherry_reduce(ExplicitOracle(fam), sub, mask_of([1]), mask_of([2, 3]))
        assert not res.is_star_link
        assert res.pattern.kind == PATTERN_Q
        cov = covers_size2(res.reduced, mask_of([2, 3])).edges
        assert len(cov) <= 2

    def test_degree_precondition(self):
        fam = Family.from_labels(FamilyParams(8, 3), [[1, 2, 3]])
        sub = TracedFamily(fam.params, fam.edges, mask_of([1, 2, 3]))
        with pytest.raises(ValueError, match="below the required"):
            cherry_reduce(ExplicitOracle(fam), sub, mask_of([1]), mask_of([4, 5]))

    @pytest.mark.parametrize(
        "n, base, area, message",
        [
            (8, [1, 2], [4, 5], r"^base must be a \(k-2\)-set, got \(1, 2\)$"),
            (8, [1], [1, 4], "^base and area must be disjoint$"),
            (7, [1], [4, 5], r"^n >= k\+5 = 8 required$"),
        ],
        ids=["base-size", "base-meets-area", "n-below-k-plus-5"],
    )
    def test_argument_checks(self, n, base, area, message):
        o = StarOracle(n, 3, 1)
        sub = TracedFamily(o.params, (mask_of([1, 2, 3]),), mask_of([1, 2, 3]))
        with pytest.raises(ValueError, match=message):
            cherry_reduce(o, sub, mask_of(base), mask_of(area))


class TestShrinkK2:
    @pytest.mark.parametrize("k,center", [(3, 1), (8, 5), (27, 1)])
    def test_star_oracle_contract(self, k, center):
        n = certify_threshold_k2(k)
        o = StarOracle(n, k, center)
        e = o.first_edge()
        r = shrink_core_k2(o, e)
        assert r.ok
        assert r.cover_vertex == center
        assert e & mask_of([r.cover_vertex])
        assert popcount(r.subfamily.vertex_set) <= shrink_vertex_bound_k2(k)
        # every size-two cover within the vertex set goes through the center
        cov = covers_size2(r.subfamily, r.subfamily.vertex_set)
        assert all(pr & mask_of([center]) for pr in cov.edges)
        assert r.trace.parameters["ell"] <= (k + r.trace.parameters["x"] - 1) // r.trace.parameters["x"] + 1

    def test_low_codegree_on_star_minus_edge(self):
        n = shrink_threshold_k2(3)
        fam = star_minus_first_edge(n, 3, 1)
        o = ExplicitOracle(fam)
        r = shrink_core_k2(o, o.first_edge())
        assert not r.ok
        assert isinstance(r.violation, LowCodegree)
        assert r.violation.observed < n - 3 + 1
        assert r.violation.verify(o)

    def test_hilton_milner_low_codegree(self):
        fam = hilton_milner(shrink_threshold_k2(3), 3)
        o = ExplicitOracle(fam)
        r = shrink_core_k2(o, o.first_edge())
        assert not r.ok
        assert isinstance(r.violation, LowCodegree)
        assert r.violation.verify(o)

    def test_select_outside_pads_short_vertex_set(self):
        # V(current) = {1..5} minus avoid = {1..4} leaves one vertex; k - 2 = 3
        # needs two more, so the isolated vertices 6 and 7 are added first.
        p = FamilyParams(10, 5)
        current = TracedFamily(p, (mask_of([1, 2, 3, 4, 5]),), mask_of([1, 2, 3, 4, 5]))
        padded, sel = _select_outside(current, mask_of([1, 2, 3, 4]))
        assert padded.edges == current.edges
        assert padded.vertex_set == mask_of(range(1, 8))
        assert sel == mask_of([5, 6, 7])

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n >= 230"):
            shrink_core_k2(StarOracle(100, 3, 1), mask_of([1, 2, 3]))
        with pytest.raises(ValueError, match="k >= 3"):
            shrink_core_k2(StarOracle(232, 2, 1), mask_of([1, 2]))


class TestCertifyK1:
    def test_star_oracle_k2(self):
        cert = certify_star_k1(StarOracle(9, 2, 1))
        assert cert.center == 1 and cert.violation is None

    def test_explicit_star_offcenter(self):
        cert = certify_star_k1(ExplicitOracle(complete_star(11, 3, 4)))
        assert cert.center == 4

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_explicit_threshold_stars(self, k):
        n = certify_threshold_k1(k)
        cert = certify_star_k1(ExplicitOracle(complete_star(n, k, min(k + 1, n))))
        assert cert.center == min(k + 1, n)

    def test_oracle_sweep(self):
        for k in (2, 3, 5, 8, 16, 33, 64):
            n = certify_threshold_k1(k)
            cert = certify_star_k1(StarOracle(n, k, 2), samples=2000)
            assert cert.center == 2

    def test_violation_star_minus_edge(self):
        fam = star_minus_first_edge(11, 3, 1)
        o = ExplicitOracle(fam)
        cert = certify_star_k1(o)
        assert cert.center is None
        assert isinstance(cert.violation, ZeroCodegree)
        assert cert.violation.verify(o)

    def test_violation_hilton_milner(self):
        fam = hilton_milner(11, 3)
        o = ExplicitOracle(fam)
        cert = certify_star_k1(o)
        assert cert.center is None
        assert isinstance(cert.violation, (ZeroCodegree, DisjointEdges))
        assert cert.violation.verify(o)

    def test_threshold_error_names_required_n(self):
        with pytest.raises(ValueError, match="n >= 11"):
            certify_star_k1(StarOracle(10, 3, 1))

    def test_k_below_level_minimum(self):
        with pytest.raises(ValueError, match="k >= 2 required"):
            certify_star_k1(StarOracle(9, 1, 1))

    def test_empty_family(self):
        fam = Family(FamilyParams(11, 3), ())
        with pytest.raises(ValueError, match="empty"):
            certify_star_k1(ExplicitOracle(fam))


class TestCertifyK2:
    def test_star_oracle(self):
        cert = certify_star_k2(StarOracle(274, 8, 2), samples=2000)
        assert cert.center == 2 and cert.violation is None

    def test_explicit_star_232(self):
        cert = certify_star_k2(ExplicitOracle(complete_star(232, 3, 1)))
        assert cert.center == 1
        assert cert.violation is None

    def test_hilton_milner_violation(self):
        fam = hilton_milner(232, 3)
        o = ExplicitOracle(fam)
        cert = certify_star_k2(o)
        assert cert.center is None
        assert isinstance(cert.violation, LowCodegree)
        assert cert.violation.verify(o)

    def test_star_minus_edge_violation(self):
        fam = star_minus_first_edge(232, 3, 1)
        o = ExplicitOracle(fam)
        cert = certify_star_k2(o)
        assert cert.center is None
        assert cert.violation is not None and cert.violation.verify(o)

    def test_threshold_error(self):
        with pytest.raises(ValueError, match="n >= 232"):
            certify_star_k2(StarOracle(231, 3, 1))

    def test_k_below_level_minimum(self):
        with pytest.raises(ValueError, match="k >= 3 required"):
            certify_star_k2(ExplicitOracle(complete_star(232, 2, 1)))


class TestSampledChecks:
    # query counts on StarOracle runs, pinned so that a sampler that
    # yields fewer samples than asked for shows up
    @pytest.mark.parametrize(
        "certify,threshold,k,center,seed,queries",
        [
            (certify_star_k1, certify_threshold_k1, 2, 2, 11, 10520),
            (certify_star_k1, certify_threshold_k1, 17, 9, 5, 10537),
            (certify_star_k1, certify_threshold_k1, 62, 100, 3, 10588),
            (certify_star_k2, certify_threshold_k2, 3, 7, 2, 20526),
            (certify_star_k2, certify_threshold_k2, 40, 400, 9, 20540),
        ],
    )
    def test_query_counts(self, certify, threshold, k, center, seed, queries):
        cert = certify(StarOracle(threshold(k), k, center), seed=seed)
        assert cert.center == center
        assert cert.trace.queries_used == queries

    @pytest.mark.parametrize("certify,n,k", [(certify_star_k1, 11, 3), (certify_star_k2, 232, 3)])
    @pytest.mark.parametrize("budget", [{"samples": -1}, {"spot": -1}])
    def test_negative_budgets_rejected(self, certify, n, k, budget):
        with pytest.raises(ValueError, match="samples and spot must be >= 0"):
            certify(StarOracle(n, k, 1), **budget)


class TestCertifiedStarsCrossCheck:
    def test_certificate_matches_direct_star_check(self):
        fam = complete_star(11, 3, 2)
        cert = certify_star_k1(ExplicitOracle(fam))
        assert cert.is_star
        assert is_complete_star_on(fam, full_mask(11), cert.center) is None

    def test_non_star_never_certified(self, rng):
        # random maximal intersecting families at qualifying n are never
        # stars unless they literally are the star
        from ekrlab.generators import random_maximal_intersecting

        n, k = 11, 3
        for seed in range(8):
            fam = random_maximal_intersecting(n, k, seed)
            o = ExplicitOracle(fam)
            cert = certify_star_k1(o)
            star_like = is_complete_star_on(fam, full_mask(n), cert.center) is None if cert.is_star else False
            if cert.is_star:
                assert star_like
            else:
                assert cert.violation is not None and cert.violation.verify(o)


class TestGapProbe:
    # coreless subfamilies: the window probe must yield a checkable witness

    def test_zero_codegree_branch(self):
        from ekrlab.constructions import _gap_probe_k1, CountingOracle
        from ekrlab.masks import fill_to_size

        fam = Family.from_labels(
            FamilyParams(11, 3), [[1, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5]]
        )
        o = CountingOracle(ExplicitOracle(fam))
        window = fill_to_size(mask_of([1, 2, 3, 4, 5]), 8, full_mask(11))
        viol = _gap_probe_k1(o, fam.edges, mask_of([1, 2, 3, 4, 5]), window)
        assert isinstance(viol, ZeroCodegree) and viol.verify(o)

    def test_disjoint_edges_branch(self):
        from ekrlab.constructions import _gap_probe_k1, CountingOracle
        from ekrlab.masks import fill_to_size

        fam = Family.from_labels(
            FamilyParams(11, 3),
            [[1, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5], [9, 10, 11]],
        )
        ctx = Family.from_labels(FamilyParams(11, 3), [[1, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5]])
        o = CountingOracle(ExplicitOracle(fam))
        window = fill_to_size(mask_of([1, 2, 3, 4, 5]), 8, full_mask(11))
        viol = _gap_probe_k1(o, ctx.edges, mask_of([1, 2, 3, 4, 5]), window)
        assert isinstance(viol, DisjointEdges) and viol.verify(o)


def _witness(call):
    """The violation a probe returns or raises inside its procedure."""
    from ekrlab.constructions import _Refuted

    try:
        return call()
    except _Refuted as refuted:
        return refuted.violation


class TestOffendingProbeK2:
    # an off-center edge against a context that spans all of [8]: no
    # outside (k-2)-set is left, so only an explicit family can refute

    P = FamilyParams(8, 3)
    FULL = TracedFamily(P, (), full_mask(8))

    def probe(self, fam, ctx=FULL, f=mask_of([2, 3, 4]), v=1):
        from ekrlab.constructions import CountingOracle, _offending_probe_k2

        o = CountingOracle(ExplicitOracle(fam))
        viol = _witness(lambda: _offending_probe_k2(o, ctx, f, v))
        assert viol.verify(o)
        return viol

    def test_complete_star_is_a_contradiction(self):
        with pytest.raises(InternalContradictionError, match="no room for an outside probe"):
            self.probe(complete_star(8, 3, 1))

    def test_low_codegree_on_hilton_milner(self):
        assert self.probe(hilton_milner(8, 3)) == LowCodegree(mask_of([5]), 3, 6)

    def test_disjoint_pair_first(self):
        fam = Family.from_labels(self.P, [[1, 2, 3], [4, 5, 6], [1, 4, 7]])
        assert self.probe(fam) == DisjointEdges(mask_of([1, 2, 3]), mask_of([4, 5, 6]))

    def test_not_star_when_every_outside_extension_meets_everything(self):
        # every edge through 5 meets f = {1,2,3}, the only context edge
        f = mask_of([1, 2, 3])
        through5 = [mask_of([5, a, b]) for a, b in combinations([1, 2, 3, 4, 6, 7, 8], 2) if {a, b} & {1, 2, 3}]
        fam = Family.from_masks(self.P, [f, *through5])
        assert self.probe(fam, TracedFamily(self.P, (f,), f), f, 4) == NotStar(missing=None, offending=f)

    @pytest.mark.parametrize(
        "missing, offending",
        [([1, 2, 4], None), (None, [2, 3, 4]), ([1, 2, 3], [2, 3, 4]), (None, None)],
        ids=["missing-present", "offending-absent", "offending-absent-after-missing", "empty"],
    )
    def test_not_star_refused_when_its_edges_answer_otherwise(self, missing, offending):
        # the star at 1 on [8] without {1,2,3}: {1,2,4} is present and no
        # off-center edge is, so only {1,2,3} may be named missing
        star = complete_star(8, 3, 1)
        fam = Family(star.params, tuple(e for e in star.edges if e != mask_of([1, 2, 3])))
        witness = NotStar(*(None if edge is None else mask_of(edge) for edge in (missing, offending)))
        assert not witness.verify(ExplicitOracle(fam))
        assert NotStar(mask_of([1, 2, 3]), None).verify(ExplicitOracle(fam))


def test_a_witness_class_without_verify_cannot_be_built():
    class Unverifiable(Violation):
        kind = "unverifiable"

    with pytest.raises(TypeError, match="abstract method 'verify'|abstract method verify"):
        Unverifiable()


class TestFinalCheckK1Explicit:
    # both windows are {1,2,3,4}: no star edge through 1 avoids {2,3,4}
    # inside them, so the off-center edge {2,3,4} goes to the explicit fallback

    P = FamilyParams(9, 3)
    X = mask_of([1, 2, 3, 4])

    def check(self, fam):
        from ekrlab.constructions import CountingOracle, _K1

        o = CountingOracle(ExplicitOracle(fam))
        ctx = TracedFamily(self.P, (), 0)
        viol = _witness(lambda: _K1().final_check(o, ctx, self.X, self.X, 1, random.Random(0), 10))
        assert viol.verify(o)
        return viol

    def test_disjoint_pair(self):
        fam = Family.from_masks(self.P, complete_star(9, 3, 1).edges + (mask_of([2, 3, 4]),))
        assert self.check(fam) == DisjointEdges(mask_of([2, 3, 4]), mask_of([1, 5, 6]))

    def test_zero_codegree_on_hilton_milner(self):
        assert self.check(hilton_milner(9, 3)) == ZeroCodegree(mask_of([5, 6]))
