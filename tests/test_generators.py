from math import comb

import pytest

import ekrlab.generators as generators
from conftest import brute_force_maximal_families, ref_canonical_form, ref_is_maximal_intersecting, ref_min_degree
from ekrlab.canonical import canonical_form
from ekrlab.family import covers_size1, is_intersecting
from ekrlab.generators import (
    Budget,
    Containment,
    ResourceLimitError,
    compatibility_graph,
    complete_star,
    enumerate_maximal_intersecting,
    enumeration_report,
    hilton_milner,
    is_maximal_intersecting,
    maximal_cliques,
    random_maximal_intersecting,
)
from ekrlab.masks import iter_ksubsets, labels, mask_of
from ekrlab.oracles import min_degree
from ekrlab.verify import check_theorem


class TestCompleteStar:
    def test_small_sizes(self):
        assert len(complete_star(5, 2, 1)) == 4
        assert len(complete_star(7, 3, 1)) == 15

    def test_min_vertex_degree_is_one(self):
        assert min_degree(complete_star(5, 2, 1), 1)[0] == 1

    def test_all_edges_contain_center(self):
        star = complete_star(8, 3, 5)
        assert all(e & mask_of([5]) for e in star.edges)
        assert len(star) == comb(7, 2)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            complete_star(5, 2, 6)


class TestHiltonMilner:
    def test_size_formula(self):
        assert len(hilton_milner(7, 3)) == comb(6, 2) - comb(3, 2) + 1 == 13

    def test_intersecting_not_star(self):
        hm = hilton_milner(7, 3)
        assert is_intersecting(hm)
        common, _ = covers_size1(hm)
        assert common == 0

    def test_threshold_guard(self):
        with pytest.raises(ValueError):
            hilton_milner(6, 3)


class TestRandomMaximal:
    def test_deterministic(self):
        assert random_maximal_intersecting(6, 3, 7) == random_maximal_intersecting(6, 3, 7)

    def test_saturated(self, rng):
        for seed in range(10):
            f = random_maximal_intersecting(6, 3, seed)
            assert ref_is_maximal_intersecting(f)

    def test_below_2k_full_family(self):
        f = random_maximal_intersecting(5, 3, 123)
        assert len(f) == 10


class TestEnumeration:
    def test_single_class_below_2k(self):
        fams = list(enumerate_maximal_intersecting(5, 3))
        assert len(fams) == 1 and len(fams[0]) == 10

    def test_6_2_census(self):
        # 6 stars + C(6,3) = 20 triangle families
        fams = list(enumerate_maximal_intersecting(6, 2))
        assert len(fams) == 26
        sizes = sorted(len(f) for f in fams)
        assert sizes.count(3) == 20 and sizes.count(5) == 6

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (5, 3)])
    def test_exhaustive_vs_subset_bruteforce(self, n, k):
        got = {f.edges for f in enumerate_maximal_intersecting(n, k)}
        assert got == brute_force_maximal_families(n, k)

    def test_emitted_families_are_maximal(self):
        for f in enumerate_maximal_intersecting(6, 3):
            assert is_maximal_intersecting(f)

    def test_7_3_against_networkx(self):
        import networkx as nx

        edges = list(iter_ksubsets(7, 3))
        g = nx.Graph()
        g.add_nodes_from(range(len(edges)))
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if edges[i] & edges[j]:
                    g.add_edge(i, j)
        nx_count = sum(1 for _ in nx.find_cliques(g))
        own = sum(1 for _ in enumerate_maximal_intersecting(7, 3))
        assert own == nx_count

    def test_guard(self):
        with pytest.raises(ResourceLimitError, match=r"C\(30,7\)"):
            next(enumerate_maximal_intersecting(30, 7))

    def test_report(self):
        rep = enumeration_report(6, 2)
        assert rep.families_found == 26
        assert rep.max_delta[1][0] == 1


class TestCanonicalDedup:
    def test_6_2_classes(self):
        fams = list(enumerate_maximal_intersecting(6, 2, "canonical"))
        assert len(fams) == 2  # star and triangle

    def test_4_2_and_5_3(self):
        assert len(list(enumerate_maximal_intersecting(4, 2, "canonical"))) == 2
        assert len(list(enumerate_maximal_intersecting(5, 3, "canonical"))) == 1

    def test_representatives_pairwise_nonisomorphic(self):
        from itertools import permutations

        for n, k in [(4, 2), (5, 2), (6, 2)]:
            reps = [f.edges for f in enumerate_maximal_intersecting(n, k, "canonical")]
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    for perm in permutations(range(1, n + 1)):
                        mapped = tuple(
                            sorted(
                                sum(1 << (perm[v - 1] - 1) for v in labels(e)) for e in reps[i]
                            )
                        )
                        assert mapped != reps[j]

    def test_canonical_form_invariant_under_relabeling(self, rng):
        from conftest import random_family

        for _ in range(40):
            n = rng.randrange(3, 8)
            k = rng.randrange(2, min(4, n) + 1)
            f = random_family(rng, n, k, rng.randrange(1, 8))
            base = canonical_form(n, f.edges)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapped = tuple(
                sorted(sum(1 << (perm[v - 1] - 1) for v in labels(e)) for e in f.edges)
            )
            assert canonical_form(n, mapped) == base

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            next(enumerate_maximal_intersecting(5, 2, "weird"))


class TestAnchoredCanonical:
    """Canonical mode walks only the maximal families through [k] = {1..k}."""

    @staticmethod
    def _formed(monkeypatch, n, k, budget=None):
        formed = []

        def spy(n_, edges):
            formed.append(edges)
            return canonical_form(n_, edges)

        monkeypatch.setattr(generators, "canonical_form", spy)
        reps = [f.edges for f in enumerate_maximal_intersecting(n, k, "canonical", budget)]
        return formed, reps

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3), (7, 2), (7, 3)])
    def test_forms_exactly_the_labeled_families_through_k(self, monkeypatch, n, k):
        first = (1 << k) - 1
        through = [f.edges for f in enumerate_maximal_intersecting(n, k) if first in f.edges]
        formed, reps = self._formed(monkeypatch, n, k)
        assert len(set(formed)) == len(formed)
        # the same families in the same order: the full walk pivots on
        # [k] at its root, so its first branch is the anchored walk
        assert formed == through
        assert all(first in edges for edges in reps)

    def test_pinned_counts(self, monkeypatch):
        budget = Budget()
        formed, reps = self._formed(monkeypatch, 6, 3, budget)
        assert (len(formed), budget.nodes, len(reps)) == (512, 1023, 13)
        formed, reps = self._formed(monkeypatch, 7, 3)
        assert (len(formed), len(reps)) == (1860, 15)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
    def test_classes_against_brute_force(self, n, k):
        reps = [f.edges for f in enumerate_maximal_intersecting(n, k, "canonical")]
        want = {ref_canonical_form(edges) for edges in brute_force_maximal_families(n, k)}
        got = [ref_canonical_form(edges) for edges in reps]
        assert len(set(got)) == len(got)
        assert set(got) == want
        assert all((1 << k) - 1 in edges for edges in reps)

    @pytest.mark.parametrize(
        "n,k,reps",
        [
            (3, 3, [(0b111,)]),
            (4, 1, [(0b1,)]),
            (5, 3, [tuple(iter_ksubsets(5, 3))]),
        ],
    )
    def test_edge_cells_same_in_both_modes(self, n, k, reps):
        seen, labeled = set(), []
        for f in enumerate_maximal_intersecting(n, k):
            form = canonical_form(n, f.edges)
            if form not in seen:
                seen.add(form)
                labeled.append(f.edges)
        canonical = [f.edges for f in enumerate_maximal_intersecting(n, k, "canonical")]
        assert canonical == labeled == reps

    def test_check_theorem_7_3_2(self):
        rep = check_theorem(7, 3, 2, "canonical")
        assert (rep.verdict, rep.max_delta, rep.families_checked, rep.achievers_all_stars) == (
            "holds",
            1,
            15,
            False,
        )


class TestContainmentScore:
    """The per-clique (delta_d, argmin) from the d-set containment table
    equals the brute-force ``ref_min_degree`` of the clique's family."""

    # Families on which a table missing its last d-set scores wrong; at
    # d = 2 for (7,3) and (8,3) that d-set never decides, so d = 1 cells
    # carry the check there.
    DROPPED_LAST = {(6, 3, 1): 86, (6, 3, 2): 22, (7, 3, 1): 692, (8, 3, 1): 240}

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (8, 3), (7, 2), (9, 2)])
    def test_every_maximal_family_against_reference(self, n, k):
        graph = compatibility_graph(n, k)
        cliques = list(maximal_cliques(graph))
        families = [graph.family(c) for c in cliques]
        for d in range(1, k):
            table = graph.containment(d)
            assert table.dsets == tuple(iter_ksubsets(n, d))
            want = [ref_min_degree(f, d) for f in families]
            assert [table.min_degree(c) for c in cliques] == want
            if (n, k, d) in self.DROPPED_LAST:
                mutant = Containment(table.dsets[:-1], table.holders[:-1])
                wrong = sum(mutant.min_degree(c) != w for c, w in zip(cliques, want))
                assert wrong == self.DROPPED_LAST[n, k, d]

    def test_d_outside_1_to_k_refused(self):
        for d in (0, 3):
            with pytest.raises(ValueError, match="1 <= d <= k"):
                enumeration_report(5, 2, ds=[d])

    def test_holders_are_the_vertices_containing_each_dset(self):
        graph = compatibility_graph(6, 3)
        for d in (1, 2, 3):
            table = graph.containment(d)
            for s, holders in zip(table.dsets, table.holders):
                assert holders == sum(1 << i for i, e in enumerate(graph.verts) if e & s == s)


def test_reduction_soundness_tiny_scale():
    # max of delta_d over every intersecting family equals the max over
    # maximal ones (degree monotonicity makes the enumerator sufficient)
    from itertools import combinations

    from ekrlab.family import Family, FamilyParams

    for n, k, d in [(5, 2, 1), (4, 2, 1), (5, 3, 1), (5, 3, 2)]:
        edges = list(iter_ksubsets(n, k))
        best_all = -1
        for r in range(1, len(edges) + 1):
            for combo in combinations(edges, r):
                if all(a & b for a, b in combinations(combo, 2)):
                    fam = Family(FamilyParams(n, k), combo)
                    best_all = max(best_all, min_degree(fam, d)[0])
        best_maximal = max(
            min_degree(f, d)[0] for f in enumerate_maximal_intersecting(n, k)
        )
        assert best_all == best_maximal
