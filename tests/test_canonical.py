"""Canonical forms against independent isomorphism routes.

networkx isomorphism of vertex/edge incidence graphs checks the class
partition that canonical dedup produces; the brute-force minimum over
all relabelings in ``conftest`` checks the form on symmetric families,
where automorphism pruning cuts the search hardest, on families on both
sides of ``ORDERING_CAP``, and the partition of all anchored maximal
(6,3) families.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

import ekrlab.canonical as canonical
from conftest import ref_canonical_form
from ekrlab.canonical import canonical_form, member_table
from ekrlab.generators import (
    compatibility_graph,
    complete_star,
    enumerate_maximal_intersecting,
    hilton_milner,
    maximal_cliques,
)
from ekrlab.masks import iter_ksubsets, labels, mask_of


def incidence_graph(n: int, edges: tuple[int, ...]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in range(1, n + 1)), kind="vertex")
    for j, e in enumerate(edges):
        g.add_node(("e", j), kind="edge")
        g.add_edges_from((("v", v), ("e", j)) for v in labels(e))
    return g


def same_kind(a: dict, b: dict) -> bool:
    return a["kind"] == b["kind"]


def nx_class_count(graphs: list[nx.Graph]) -> int:
    """Isomorphism classes: bucket by WL hash, then VF2 inside a bucket."""
    buckets: dict[str, list[nx.Graph]] = {}
    for g in graphs:
        reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, node_attr="kind"), [])
        if not any(nx.is_isomorphic(g, r, node_match=same_kind) for r in reps):
            reps.append(g)
    return sum(len(reps) for reps in buckets.values())


@pytest.mark.parametrize("n,k", [(6, 2), (7, 2), (5, 3), (6, 3)])
def test_dedup_classes_match_networkx(n, k):
    reps = [incidence_graph(n, f.edges) for f in enumerate_maximal_intersecting(n, k, "canonical")]
    for a, b in combinations(reps, 2):
        assert not nx.is_isomorphic(a, b, node_match=same_kind)
    labeled = [incidence_graph(n, f.edges) for f in enumerate_maximal_intersecting(n, k)]
    assert nx_class_count(labeled) == len(reps)


def relabel(edges, perm: list[int]) -> tuple[int, ...]:
    return tuple(sorted(mask_of(perm[v - 1] for v in labels(e)) for e in edges))


def cyclic(n: int, offsets: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted({mask_of((i + o) % n + 1 for o in offsets) for i in range(n)}))


SYMMETRIC = {
    "star(7,2)": complete_star(7, 2, 1).edges,
    "star(6,3)": complete_star(6, 3, 4).edges,
    "K4^3": tuple(iter_ksubsets(4, 3)),
    "K5^3": tuple(iter_ksubsets(5, 3)),
    "K4^2": tuple(iter_ksubsets(4, 2)),
    "fano": cyclic(7, (0, 1, 3)),
    # 3-regular on 7 points like the Fano plane, but not a linear space
    "cyclic-triples": cyclic(7, (0, 1, 2)),
    "hilton-milner(7,3)": hilton_milner(7, 3).edges,
    "triangle+pendant": tuple(sorted(mask_of(e) for e in ((1, 2), (1, 3), (2, 3), (3, 4)))),
    # both 2-regular on 6 points, so refinement alone cannot tell them apart
    "hexagon": cyclic(6, (0, 1)),
    "two-triangles": tuple(sorted(mask_of(e) for e in ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)))),
    # 2-regular on 7 points: one refined cell whose vertices lie in
    # different orbits, so the first leaf alone is not canonical
    "triangle+square": tuple(sorted(mask_of(e) for e in ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)))),
    "heptagon": cyclic(7, (0, 1)),
    # the degree cells leave 2!^3 and 4!*2! orderings for the first two;
    # for the rest they leave more than ORDERING_CAP, so they search,
    # though refinement leaves 3!*3!*2!, 4!*3! = ORDERING_CAP and 5!*2!; H has 8
    # automorphisms, so its 48 orderings give unequal forms, and so do
    # the 240 of pentagon+path (20 automorphisms)
    "triangle+tails": tuple(sorted(mask_of(e) for e in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 5)))),
    "H": tuple(sorted(mask_of(e) for e in ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6)))),
    "K2,3+pendants": tuple(
        sorted(mask_of(e) for e in [(a, b) for a in (1, 2) for b in (3, 4, 5)] + [(3, 6), (4, 7), (5, 8)])
    ),
    "K4+claw": tuple(sorted(mask_of(e) for e in [*combinations((1, 2, 3, 4), 2), (5, 6), (5, 7), (5, 8)])),
    "pentagon+path": tuple(sorted(mask_of(e) for e in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7), (7, 8)))),
    # 8 edges on 7 points, both refined to singleton cells: only those
    # cells' shares tell them apart
    "rigid-a": tuple(
        sorted(mask_of(e) for e in ((1, 4), (2, 4), (3, 5), (4, 5), (2, 6), (3, 6), (5, 6), (6, 7)))
    ),
    "rigid-b": tuple(
        sorted(mask_of(e) for e in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6), (4, 7), (5, 7)))
    ),
}


@pytest.fixture
def refine_calls(monkeypatch):
    """The list of ``_refine`` calls made so far, one entry per call."""
    calls = []
    refine = canonical._refine

    def counted(*args, **kwargs):
        calls.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(canonical, "_refine", counted)
    return calls


def test_forms_agree_with_brute_force_on_symmetric_families(rng):
    n = 8
    shuffled = list(range(1, n + 1))
    rng.shuffle(shuffled)
    instances = []
    for name, edges in SYMMETRIC.items():
        # the reversal moves the lowest support label to another cell member
        for perm in (list(range(1, n + 1)), list(range(n, 0, -1)), shuffled):
            mapped = relabel(edges, perm)
            instances.append((name, canonical_form(n, mapped), ref_canonical_form(mapped)))
    for (name_a, form_a, ref_a), (name_b, form_b, ref_b) in combinations(instances, 2):
        assert (form_a == form_b) == (ref_a == ref_b), (name_a, name_b)
    assert len({ref for _, _, ref in instances}) == len(SYMMETRIC)


def test_star_search_is_pruned(refine_calls):
    # the complete star at (7,2) has S6 symmetry: 720 leaves without pruning
    canonical_form(7, complete_star(7, 2, 1).edges)
    assert 0 < len(refine_calls) <= 30


def test_each_route_takes_its_refinement_count(refine_calls):
    # degree cells within ORDERING_CAP: no refinement; otherwise the root
    # refinement and the search below it, even where the refined cells
    # alone would leave few orderings (K2,3+pendants, K4+claw)
    expected = {"triangle+tails": 0, "H": 0, "K2,3+pendants": 10, "K4+claw": 21, "pentagon+path": 10}
    for name, count in expected.items():
        refine_calls.clear()
        canonical_form(8, SYMMETRIC[name])
        assert len(refine_calls) == count, name


def test_distinct_degrees_take_no_refinement(refine_calls):
    # the degree ranks seed the root colouring; when they are already
    # discrete there is nothing to refine
    triples = ((1, 2, 3), (1, 3, 4), (1, 3, 6), (1, 4, 6), (2, 3, 6), (3, 4, 6), (3, 5, 6))
    edges = tuple(sorted(map(mask_of, triples)))
    by_degree = (5, 2, 4, 1, 6, 3)  # degrees 1 to 6
    assert canonical_form(6, edges) == relabel(edges, [by_degree.index(v) + 1 for v in range(1, 7)])
    assert refine_calls == []


def test_empty_family_form_is_empty(refine_calls):
    assert canonical_form(6, ()) == () == ref_canonical_form(())
    assert refine_calls == []


def test_anchored_6_3_partition_matches_brute_force(refine_calls):
    # 4 to 720 degree-cell orderings: both sides of ORDERING_CAP
    families = [f.edges for f in enumerate_maximal_intersecting(6, 3) if 0b111 in f.edges]
    forms, calls = [], []
    for edges in families:
        before = len(refine_calls)
        forms.append(canonical_form(6, edges))
        calls.append(len(refine_calls) - before)
    refs = [ref_canonical_form(edges) for edges in families]
    assert len(families) == 512
    assert Counter(calls) == {0: 506, 10: 6}
    assert len(set(forms)) == len(set(refs)) == len(set(zip(forms, refs))) == 13


def partition(forms: list) -> list[int]:
    """Each item's class, numbered by first appearance."""
    first: dict = {}
    return [first.setdefault(form, len(first)) for form in forms]


@pytest.mark.parametrize("n,count,classes", [(6, 512, 13), (7, 1860, 15)])
def test_routes_agree_on_anchored_families(monkeypatch, n, count, classes):
    # search only, default, direct minimum only: the form values may differ
    # between routes, the partition of the anchored (n,3) families may not
    graph = compatibility_graph(n, 3)
    families = [graph.edges(c) for c in maximal_cliques(graph) if c & 1]
    assert len(families) == count
    members = member_table(graph.verts)
    partitions = []
    for cap in (0, canonical.ORDERING_CAP, 10**6):
        monkeypatch.setattr(canonical, "ORDERING_CAP", cap)
        partitions.append(partition([canonical_form(n, edges, members) for edges in families]))
    assert partitions[0] == partitions[1] == partitions[2]
    assert max(partitions[0]) + 1 == classes


def test_member_table_and_renumbered_supports_give_the_same_forms(rng):
    # with or without the walk's table and with the support moved off
    # {1..s} (renumbered to 0..s-1); then cycles on 12 and 70 vertices,
    # whose slots are wider than a byte
    graph = compatibility_graph(6, 3)
    members = member_table(graph.verts)
    for clique in [c for c in maximal_cliques(graph) if c & 1][::16]:
        edges = graph.edges(clique)
        form = canonical_form(6, edges)
        assert canonical_form(6, edges, members) == form
        for n in (9, 12, 70):
            perm = rng.sample(range(1, n + 1), 6)
            assert canonical_form(n, relabel(edges, perm)) == form
    for n in (12, 70):
        cycle, halves = cyclic(n, (0, 1)), cyclic(n // 2, (0, 1))
        two_cycles = halves + tuple(e << (n // 2) for e in halves)
        perm = rng.sample(range(1, n + 1), n)
        assert canonical_form(n, relabel(cycle, perm)) == canonical_form(n, cycle)
        assert canonical_form(n, relabel(two_cycles, perm)) == canonical_form(n, two_cycles)
        assert canonical_form(n, cycle) != canonical_form(n, two_cycles)
