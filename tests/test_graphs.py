import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from conftest import (
    probe_numpy,
    ref_find_pattern,
    ref_is_star_graph,
    ref_max_matching_upto,
    ref_pattern_table,
    ref_sweep_checked,
    ref_sweep_pairs,
)
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import ResourceLimitError
from ekrlab.graphs import (
    MATCHING3,
    PATTERN_K4,
    PATTERN_Q,
    PatternWitness,
    _pairs,
    _pattern_free,
    find_pattern,
    graph_from_mask,
    is_star_graph,
    is_subgraph_of_cherry,
    max_matching_upto,
    structure_sweep,
    verify_witness,
)
from ekrlab.masks import mask_of


def pg(n, pairs):
    return Family.from_masks(FamilyParams(n, 2), [mask_of(p) for p in pairs])


class TestMatching:
    def test_triangle(self):
        assert len(max_matching_upto(pg(3, [(1, 2), (1, 3), (2, 3)]), 3)) == 1

    def test_perfect_matching(self):
        assert len(max_matching_upto(pg(6, [(1, 2), (3, 4), (5, 6)]), 3)) == 3

    def test_star(self):
        assert len(max_matching_upto(pg(6, [(1, x) for x in range(2, 7)]), 3)) == 1

    def test_cap_respected(self):
        m = max_matching_upto(pg(6, [(1, 2), (3, 4), (5, 6)]), 2)
        assert len(m) == 2

    def test_against_triple_loop(self):
        rng = random.Random(0x3A7C)
        for _ in range(3000):
            nv = rng.randrange(2, 10)
            pairs = [mask_of(p) for p in combinations(range(1, nv + 1), 2)]
            g = Family.from_masks(FamilyParams(nv, 2), rng.sample(pairs, rng.randrange(0, len(pairs) + 1)))
            for cap in (1, 2, 3):
                assert max_matching_upto(g, cap) == ref_max_matching_upto(g.edges, cap)

    def test_double_star_has_no_three_matching(self):
        # two stars at 1 and 2 over 3..40: every edge meets {1, 2}
        edges = [mask_of((c, x)) for c in (1, 2) for x in range(3, 41)] + [mask_of((1, 2))]
        g = Family.from_masks(FamilyParams(40, 2), edges)
        assert max_matching_upto(g, 3) == ref_max_matching_upto(g.edges, 3)
        assert len(max_matching_upto(g, 3)) == 2

    def test_gallai_sanity_exhaustive_6_vertices(self):
        # max matching 1 <=> star or triangle, over all graphs on <= 6 vertices
        pairs = [mask_of(p) for p in combinations(range(1, 7), 2)]
        for gmask in range(1, 1 << 15):
            edges = [pairs[i] for i in range(15) if gmask >> i & 1]
            g = Family.from_masks(FamilyParams(6, 2), edges)
            m = len(max_matching_upto(g, 2))
            support = reduce(or_, edges)
            is_triangle = len(edges) == 3 and support.bit_count() == 3
            assert (m == 1) == (is_star_graph(g) is not None or is_triangle)


def test_import_leaves_numpy_unloaded():
    assert probe_numpy("import ekrlab") == "False"


def test_structure_sweep_leaves_numpy_unloaded():
    assert probe_numpy("from ekrlab.graphs import structure_sweep\nassert not structure_sweep(7).violations") == "False"


def test_canonical_check_leaves_numpy_unloaded():
    check = "from ekrlab.verify import check_theorem\nassert check_theorem(6, 3, 2, 'canonical').families_checked"
    assert probe_numpy(check) == "False"


class TestStarGraph:
    def test_center(self):
        assert is_star_graph(pg(4, [(1, 2), (1, 3), (1, 4)])) == 1

    def test_refutation(self):
        assert is_star_graph(pg(4, [(1, 2), (3, 4)])) is None

    def test_triangle_refutation_without_disjoint_pair(self):
        assert is_star_graph(pg(3, [(1, 2), (1, 3), (2, 3)])) is None

    def test_single_edge_smallest_center(self):
        assert is_star_graph(pg(2, [(1, 2)])) == 1

    def test_empty_flagged(self):
        assert is_star_graph(Family(FamilyParams(3, 2), ())) is None


class TestFindPattern:
    def test_k4(self):
        w = find_pattern(pg(4, list(combinations(range(1, 5), 2))))
        assert w.kind == PATTERN_K4

    def test_q(self):
        w = find_pattern(pg(5, [(1, 2), (3, 4), (3, 5)]))
        assert w.kind == PATTERN_Q

    def test_bowtie_gives_q(self):
        g = pg(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        w = find_pattern(g)
        assert w is not None and verify_witness(g, w)
        assert w.kind == PATTERN_Q

    def test_matching_preferred(self):
        g = pg(6, [(1, 2), (3, 4), (5, 6), (1, 3)])
        assert find_pattern(g).kind == MATCHING3

    def test_absent_on_small(self):
        assert find_pattern(pg(4, [(1, 2), (1, 3)])) is None

    def test_witnesses_verify_on_random_graphs(self, rng):
        all_pairs = [mask_of(p) for p in combinations(range(1, 8), 2)]
        for _ in range(300):
            chosen = rng.sample(all_pairs, rng.randrange(0, 12))
            g = Family.from_masks(FamilyParams(7, 2), chosen)
            w = find_pattern(g)
            if w is not None:
                assert verify_witness(g, w)

    def test_verify_witness_k4_shapes(self):
        quad = [mask_of(p) for p in combinations(range(1, 5), 2)]
        k5 = pg(5, list(combinations(range(1, 6), 2)))
        assert verify_witness(k5, PatternWitness(PATTERN_K4, tuple(quad)))
        repeated = quad[:5] + [quad[0]]
        five_vertices = quad[:5] + [mask_of([4, 5])]
        for edges in (repeated, five_vertices):
            assert all(e in k5 for e in edges)
            assert not verify_witness(k5, PatternWitness(PATTERN_K4, tuple(edges)))
        without_34 = pg(4, [p for p in combinations(range(1, 5), 2) if p != (3, 4)])
        assert not verify_witness(without_34, PatternWitness(PATTERN_K4, tuple(quad)))


class TestCherry:
    def test_empty_single_cherry(self):
        assert is_subgraph_of_cherry([])
        assert is_subgraph_of_cherry([mask_of([1, 2])])
        assert is_subgraph_of_cherry([mask_of([1, 2]), mask_of([1, 3])])

    def test_disjoint_and_triple(self):
        assert not is_subgraph_of_cherry([mask_of([1, 2]), mask_of([3, 4])])
        assert not is_subgraph_of_cherry(
            [mask_of([1, 2]), mask_of([1, 3]), mask_of([1, 4])]
        )


class TestStructureSweep:
    def test_small_sweeps_clean(self):
        for nv in (5, 6):
            sw = structure_sweep(nv)
            assert sw.violations == ()

    @pytest.mark.parametrize("nv", [5, 6, 7, 8])
    def test_checked_count_closed_form(self, nv):
        assert structure_sweep(nv).graphs_checked == ref_sweep_checked(nv)

    @pytest.mark.parametrize("nv", [5, 6])
    def test_sweep_against_every_graph(self, nv):
        # graphs_checked is a formula and the walk skips the graphs with a
        # pattern, so count the dense non-stars and their violations here
        pairs = ref_sweep_pairs(nv)
        has_pattern = ref_pattern_table(nv)
        dense = [
            g
            for g in range(1 << len(pairs))
            if g.bit_count() >= 6 and ref_is_star_graph(tuple(p for i, p in enumerate(pairs) if g >> i & 1)) is None
        ]
        sw = structure_sweep(nv)
        assert sw.graphs_checked == len(dense)
        assert sw.violations == tuple(g for g in dense if not has_pattern[g]) == ()

    @pytest.mark.parametrize("nv", [5, 6])
    def test_walk_against_brute_force(self, nv):
        assert _pairs(nv) == ref_sweep_pairs(nv)
        walked = list(_pattern_free(nv))
        assert len(walked) == len(set(walked))
        assert sorted(walked) == [g for g, has in enumerate(ref_pattern_table(nv)) if not has]

    def test_nine_vertices_refused_before_allocating(self):
        with pytest.raises(ResourceLimitError, match="at most 8 vertices"):
            structure_sweep(9)

    @pytest.mark.parametrize("nv", [-1, -2])
    def test_negative_vertex_count_refused(self, nv):
        with pytest.raises(ValueError, match="at least 0"):
            structure_sweep(nv)

    def test_walk_matches_find_pattern_on_6_vertices(self):
        # find_pattern returns None exactly on the walked graphs
        pairs = _pairs(6)
        free = set(_pattern_free(6))
        for gmask in range(1 << 15):
            assert (find_pattern(graph_from_mask(gmask, 6, pairs)) is None) == (gmask in free)

    def test_random_large_graphs_have_patterns(self, rng):
        # dense non-star graphs beyond 7 vertices (the statement is not
        # vertex-bounded; spot-checked here)
        for nv in (8, 9, 10):
            all_pairs = [mask_of(p) for p in combinations(range(1, nv + 1), 2)]
            found = 0
            while found < 40:
                chosen = rng.sample(all_pairs, rng.randrange(6, 16))
                g = Family.from_masks(FamilyParams(nv, 2), chosen)
                if is_star_graph(g) is not None:
                    continue
                found += 1
                w = find_pattern(g)
                assert w is not None and verify_witness(g, w)


class TestPairFamilyValidation:
    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            Family(FamilyParams(4, 2), (mask_of([1, 2, 3]),))

    def test_rejects_outside_universe(self):
        with pytest.raises(ValueError):
            Family(FamilyParams(2, 2), (mask_of([2, 3]),))

    def test_detectors_reject_three_sets(self):
        g = Family.from_labels(FamilyParams(6, 3), [(1, 2, 3), (4, 5, 6), (1, 4, 5)])
        for detect in (is_star_graph, find_pattern, lambda h: max_matching_upto(h, 3)):
            with pytest.raises(ValueError, match="2-uniform"):
                detect(g)
        with pytest.raises(ValueError, match="2-uniform"):
            verify_witness(g, PatternWitness(MATCHING3, g.edges[:3]))


class TestAgainstPlainLoops:
    """Witnesses and star checks equal the plain-loop references edge for edge."""

    @staticmethod
    def check(g):
        w = find_pattern(g)
        assert (None if w is None else (w.kind, w.edges)) == ref_find_pattern(g.edges)
        assert is_star_graph(g) == ref_is_star_graph(g.edges)

    def test_all_graphs_on_6_vertices(self):
        pairs = [mask_of(p) for p in combinations(range(1, 7), 2)]
        for gmask in range(1 << 15):
            self.check(Family.from_masks(FamilyParams(6, 2), [pairs[i] for i in range(15) if gmask >> i & 1]))

    def test_random_graphs_up_to_11_vertices(self):
        rng = random.Random(0x61A7)
        kinds = set()
        for _ in range(2000):
            nv = rng.randrange(2, 12)
            pairs = [mask_of(p) for p in combinations(range(1, nv + 1), 2)]
            g = Family.from_masks(FamilyParams(nv, 2), rng.sample(pairs, rng.randrange(0, min(len(pairs), 14) + 1)))
            self.check(g)
            w = find_pattern(g)
            kinds.add(None if w is None else w.kind)
        assert kinds == {None, MATCHING3, PATTERN_Q, PATTERN_K4}
