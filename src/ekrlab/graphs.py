"""Detection of the graph configurations the case analyses hinge on.

The graphs here are links of (k-2)-sets and families of size-two covers,
both 2-uniform :class:`Family` values on [n].  The detectors read the
pair family's incidence bitsets (a disjointness bitset per edge) and
answer deterministically in canonical order.  The one bulk operation
(checking that every dense non-star graph on seven vertices contains a
3-matching, a Q, or a K4) runs vectorized over all 2^21 graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .family import Family, FamilyParams, covers_size1, disjoint_pair
from .masks import Mask, bit, lowest_vertex

if TYPE_CHECKING:
    import numpy as np

MATCHING3 = "matching3"
PATTERN_Q = "Q"
PATTERN_K4 = "K4"


@dataclass(frozen=True)
class PatternWitness:
    kind: str  # MATCHING3 | PATTERN_Q | PATTERN_K4
    edges: tuple[Mask, ...]


@dataclass(frozen=True)
class StarCheck:
    """Star test outcome: a canonical center, or a refuting edge pair."""

    center: Optional[int]
    refutation: Optional[tuple[Mask, Mask]]
    empty: bool = False


def _require_pairs(g: Family) -> None:
    if g.params.k != 2:
        raise ValueError(f"graph detectors need a 2-uniform family, got k={g.params.k}")


def _avoid(g: Family) -> list[int]:
    """Bit j of entry i marks edge j as disjoint from edge i."""
    inc, all_edges = g.incidence, (1 << len(g.edges)) - 1
    return [all_edges ^ (inc[(e & -e).bit_length() - 1] | inc[e.bit_length() - 1]) for e in g.edges]


def _matching3(edges: tuple[Mask, ...], avoid: list[int]) -> Optional[tuple[Mask, Mask, Mask]]:
    """First 3-matching (i, j, l) in canonical order, or None.

    For each i and each j in avoid[i] above i, l is the lowest bit above
    j of avoid[i] & avoid[j].
    """
    for i, av_i in enumerate(avoid):
        later = av_i >> (i + 1) << (i + 1)
        while later:
            low = later & -later
            j = low.bit_length() - 1
            third = (av_i & avoid[j]) >> (j + 1)
            if third:
                return edges[i], edges[j], edges[j + (third & -third).bit_length()]
            later ^= low
    return None


def max_matching_upto(g: Family, cap: int) -> list[Mask]:
    """A maximum matching truncated at ``cap`` in {1,2,3}, canonical-first."""
    _require_pairs(g)
    if cap not in (1, 2, 3):
        raise ValueError("cap must be 1, 2, or 3")
    if not g.edges:
        return []
    if cap >= 3:
        triple = _matching3(g.edges, _avoid(g))
        if triple is not None:
            return list(triple)
    if cap >= 2:
        pair = disjoint_pair(g)
        if pair is not None:
            return list(pair)
    return [g.edges[0]]


def is_star_graph(g: Family) -> StarCheck:
    """Center shared by every edge (smallest on ties), else a refuting pair.

    The refutation is the first disjoint edge pair in canonical order
    when one exists; a common-vertex-free triangle refutes with its two
    first edges.
    """
    _require_pairs(g)
    if not g.edges:
        return StarCheck(center=None, refutation=None, empty=True)
    common, _ = covers_size1(g)
    if common:
        return StarCheck(center=lowest_vertex(common), refutation=None)
    pair = disjoint_pair(g)
    return StarCheck(center=None, refutation=pair if pair is not None else (g.edges[0], g.edges[1]))


def find_pattern(g: Family) -> Optional[PatternWitness]:
    """First 3-matching, else Q (edge + disjoint cherry), else K4.

    The preference order matches the strength of the conclusions the
    cover-reduction step draws from each configuration.  The Q is the
    first meeting pair i < j with the lowest edge of avoid[i] & avoid[j].
    """
    _require_pairs(g)
    edges = g.edges
    if len(edges) < 3:
        return None
    avoid = _avoid(g)
    matching = _matching3(edges, avoid)
    if matching is not None:
        return PatternWitness(MATCHING3, matching)
    all_edges = (1 << len(edges)) - 1
    for i, av_i in enumerate(avoid):
        meets = (all_edges ^ av_i) >> (i + 1) << (i + 1)
        while meets:
            low = meets & -meets
            j = low.bit_length() - 1
            lone = av_i & avoid[j]
            if lone:
                return PatternWitness(PATTERN_Q, (edges[(lone & -lone).bit_length() - 1], edges[i], edges[j]))
            meets ^= low
    support = [v for v, touching in enumerate(g.incidence, start=1) if touching]
    for quad in combinations(support, 4):
        needed = [bit(a) | bit(b) for a, b in combinations(quad, 2)]
        if all(e in g for e in needed):
            return PatternWitness(PATTERN_K4, tuple(sorted(needed)))
    return None


def verify_witness(g: Family, w: PatternWitness) -> bool:
    """Witness edges exist in the graph and satisfy the claimed shape."""
    _require_pairs(g)
    if any(e not in g for e in w.edges):
        return False
    if w.kind == MATCHING3:
        a, b, c = w.edges
        return not (a & b or a & c or b & c)
    if w.kind == PATTERN_Q:
        lone, c1, c2 = w.edges
        return bool(c1 & c2) and not lone & (c1 | c2) and c1 != c2
    if w.kind == PATTERN_K4:
        if len(set(w.edges)) != 6:
            return False
        s = 0
        for e in w.edges:
            s |= e
        return s.bit_count() == 4
    return False


def is_subgraph_of_cherry(pairs: Sequence[Mask]) -> bool:
    """True iff empty, one edge, or exactly two edges sharing a vertex."""
    distinct = sorted(set(pairs))
    if len(distinct) <= 1:
        return True
    if len(distinct) == 2:
        return bool(distinct[0] & distinct[1])
    return False


@dataclass(frozen=True)
class SweepResult:
    num_vertices: int
    graphs_total: int
    graphs_checked: int  # >= 6 edges and not a star
    violations: tuple[int, ...]  # graph masks with no pattern; empty on success
    elapsed_ms: float


def _pattern_seed_masks(nv: int, pair_index: dict[Mask, int]) -> list[int]:
    """Edge-subset masks of every 3-matching, Q, and K4 on nv labeled vertices."""
    pairs = sorted(pair_index)
    seeds = []
    for a, b, c in combinations(pairs, 3):
        if not (a & b or a & c or b & c):
            seeds.append((1 << pair_index[a]) | (1 << pair_index[b]) | (1 << pair_index[c]))
    verts = list(range(1, nv + 1))
    for center in verts:
        others = [v for v in verts if v != center]
        for x, y in combinations(others, 2):
            cherry = bit(center) | bit(x) | bit(y)
            c1 = bit(center) | bit(x)
            c2 = bit(center) | bit(y)
            for u, w in combinations(others, 2):
                lone = bit(u) | bit(w)
                if lone & cherry:
                    continue
                seeds.append(
                    (1 << pair_index[lone]) | (1 << pair_index[c1]) | (1 << pair_index[c2])
                )
    for quad in combinations(verts, 4):
        m = 0
        for a, b in combinations(quad, 2):
            m |= 1 << pair_index[bit(a) | bit(b)]
        seeds.append(m)
    return sorted(set(seeds))


def pattern_table(nv: int) -> tuple[np.ndarray, list[Mask]]:
    """Boolean table over all graphs on nv vertices: contains a pattern?

    Graphs are indexed by edge-subset masks over the canonical pair
    order (returned alongside).  Built by seeding every embedded
    3-matching/Q/K4 and closing upward under the subset-sum transform.
    """
    import numpy as np

    pairs = sorted(bit(a) | bit(b) for a, b in combinations(range(1, nv + 1), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    ne = len(pairs)
    table = np.zeros(1 << ne, dtype=bool)
    table[_pattern_seed_masks(nv, pair_index)] = True
    for i in range(ne):
        view = table.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return table, pairs


def graph_from_mask(gmask: int, nv: int, pairs: list[Mask]) -> Family:
    edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
    return Family.from_masks(FamilyParams(nv, 2), edges)


def structure_sweep(nv: int = 7) -> SweepResult:
    """Exhaustively verify: >= 6 edges and not a star implies a pattern.

    Runs over all 2^C(nv,2) labeled graphs with vectorized tables; the
    violation list (empty in every verified case) carries graph masks
    for replay through :func:`find_pattern`.
    """
    import numpy as np

    start = time.monotonic()
    has_pattern, pairs = pattern_table(nv)
    ne = len(pairs)
    total = 1 << ne
    gm = np.arange(total, dtype=np.uint32)
    edge_count = np.bitwise_count(gm)
    is_star = np.zeros(total, dtype=bool)
    for v in range(1, nv + 1):
        star_mask = 0
        for i, p in enumerate(pairs):
            if p & bit(v):
                star_mask |= 1 << i
        is_star |= (gm & np.uint32(~star_mask & (total - 1))) == 0
    checked = (edge_count >= 6) & ~is_star
    bad = checked & ~has_pattern
    violations = tuple(int(x) for x in np.nonzero(bad)[0])
    elapsed = (time.monotonic() - start) * 1000.0
    return SweepResult(
        num_vertices=nv,
        graphs_total=total,
        graphs_checked=int(checked.sum()),
        violations=violations,
        elapsed_ms=elapsed,
    )
