"""Detection of the graph configurations the case analyses hinge on.

The graphs here are links of (k-2)-sets and families of size-two covers:
a few hundred edges at most, so every detector is exhaustive over edge
pairs/triples/quadruples and deterministic in canonical order.  The one
bulk operation (checking that every dense non-star graph on seven
vertices contains a 3-matching, a Q, or a K4) runs vectorized over all
2^21 graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .masks import Mask, bit, iter_bits, labels, lowest_vertex

if TYPE_CHECKING:
    import numpy as np

MATCHING3 = "matching3"
PATTERN_Q = "Q"
PATTERN_K4 = "K4"


@dataclass(frozen=True)
class PairGraph:
    """A graph given by 2-element vertex masks over a vertex universe."""

    universe: Mask
    edges: tuple[Mask, ...]

    def __post_init__(self) -> None:
        prev = -1
        for e in self.edges:
            if e.bit_count() != 2:
                raise ValueError(f"edge {labels(e)} is not a 2-set")
            if e & ~self.universe:
                raise ValueError(f"edge {labels(e)} leaves the universe")
            if e <= prev:
                raise ValueError("edges not strictly increasing")
            prev = e

    @classmethod
    def from_edges(cls, universe: Mask, edges: Sequence[Mask]) -> "PairGraph":
        return cls(universe, tuple(sorted(set(edges))))

    @property
    def support(self) -> Mask:
        s = 0
        for e in self.edges:
            s |= e
        return s


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


def max_matching_upto(g: PairGraph, cap: int) -> list[Mask]:
    """A maximum matching truncated at ``cap`` in {1,2,3}, canonical-first.

    Bit j of ``avoid[i]`` marks edge j as disjoint from edge i, so the
    first triple (i, j, l) takes, for each i and each j in avoid[i]
    above i, the lowest bit above j of avoid[i] & avoid[j].
    """
    if cap not in (1, 2, 3):
        raise ValueError("cap must be 1, 2, or 3")
    edges = g.edges
    if not edges:
        return []
    inc: dict[Mask, int] = {}
    for j, e in enumerate(edges):
        for v in iter_bits(e):
            inc[v] = inc.get(v, 0) | 1 << j
    all_edges = (1 << len(edges)) - 1
    avoid = [all_edges ^ (inc[e & -e] | inc[e & (e - 1)]) for e in edges]
    if cap >= 3:
        for i, av_i in enumerate(avoid):
            later = av_i >> (i + 1) << (i + 1)
            while later:
                low = later & -later
                j = low.bit_length() - 1
                third = (av_i & avoid[j]) >> (j + 1)
                if third:
                    return [edges[i], edges[j], edges[j + (third & -third).bit_length()]]
                later ^= low
    if cap >= 2:
        for i, av_i in enumerate(avoid):
            later = av_i >> (i + 1)
            if later:
                return [edges[i], edges[i + (later & -later).bit_length()]]
    return [edges[0]]


def is_star_graph(g: PairGraph) -> StarCheck:
    """Center shared by every edge (smallest on ties), else a refuting pair.

    The refutation is the first disjoint edge pair in canonical order
    when one exists; a common-vertex-free triangle refutes with its two
    first edges.
    """
    if not g.edges:
        return StarCheck(center=None, refutation=None, empty=True)
    common = g.edges[0]
    for e in g.edges[1:]:
        common &= e
        if not common:
            break
    if common:
        return StarCheck(center=lowest_vertex(common), refutation=None)
    for i, e in enumerate(g.edges):
        for f in g.edges[i + 1 :]:
            if not e & f:
                return StarCheck(center=None, refutation=(e, f))
    return StarCheck(center=None, refutation=(g.edges[0], g.edges[1]))


def find_pattern(g: PairGraph) -> Optional[PatternWitness]:
    """First 3-matching, else Q (edge + disjoint cherry), else K4.

    The preference order matches the strength of the conclusions the
    cover-reduction step draws from each configuration.
    """
    edges = g.edges
    m = len(edges)
    if m < 3:
        return None
    matching = max_matching_upto(g, 3)
    if len(matching) == 3:
        return PatternWitness(MATCHING3, tuple(matching))
    for i in range(m):
        ei = edges[i]
        for j in range(i + 1, m):
            ej = edges[j]
            shared = ei & ej
            if shared:
                cherry = ei | ej
                for l in range(m):
                    if l != i and l != j and not edges[l] & cherry:
                        return PatternWitness(PATTERN_Q, (edges[l], ei, ej))
    present = set(edges)
    support = [b.bit_length() for b in iter_bits(g.support)]
    for quad in combinations(support, 4):
        needed = [bit(a) | bit(b) for a, b in combinations(quad, 2)]
        if all(e in present for e in needed):
            return PatternWitness(PATTERN_K4, tuple(sorted(needed)))
    return None


def verify_witness(g: PairGraph, w: PatternWitness) -> bool:
    """Witness edges exist in the graph and satisfy the claimed shape."""
    present = set(g.edges)
    if any(e not in present for e in w.edges):
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


def graph_from_mask(gmask: int, nv: int, pairs: list[Mask]) -> PairGraph:
    edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
    return PairGraph.from_edges((1 << nv) - 1, edges)


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
