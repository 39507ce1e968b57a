"""Canonical forms against independent isomorphism routes.

networkx isomorphism of vertex/edge incidence graphs checks the class
partition that canonical dedup produces; the brute-force minimum over
all relabelings in ``conftest`` checks the form on symmetric families,
where automorphism pruning cuts the search hardest.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import pytest

import ekrlab.canonical as canonical
from conftest import ref_canonical_form
from ekrlab.canonical import canonical_form
from ekrlab.generators import complete_star, enumerate_maximal_intersecting, hilton_milner
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
}


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


def test_star_search_is_pruned(monkeypatch):
    # the complete star at (7,2) has S6 symmetry: 720 leaves without pruning
    calls = []
    refine = canonical._refine

    def counted(*args, **kwargs):
        calls.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(canonical, "_refine", counted)
    canonical_form(7, complete_star(7, 2, 1).edges)
    assert 0 < len(calls) <= 30
