"""Detection of the graph configurations the case analyses hinge on.

The graphs here are links of (k-2)-sets and families of size-two covers,
both 2-uniform :class:`Family` values on [n].  The detectors read the
pair family's incidence bitsets (a disjointness bitset per edge) and
answer deterministically in canonical order.  The one bulk operation
(checking that every dense non-star graph on up to eight vertices
contains a 3-matching, a Q, or a K4) walks only the graphs that hold
none of them, a few thousand, rather than all 2^C(nv,2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional, Sequence

from .family import Family, FamilyParams, covers_size1, disjoint_pair
from .generators import ResourceLimitError
from .masks import Mask, bit, lowest_vertex

MATCHING3 = "matching3"
PATTERN_Q = "Q"
PATTERN_K4 = "K4"


@dataclass(frozen=True)
class PatternWitness:
    kind: str  # MATCHING3 | PATTERN_Q | PATTERN_K4
    edges: tuple[Mask, ...]


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


def is_star_graph(g: Family) -> Optional[int]:
    """The vertex every edge contains (the smallest on ties), or None when
    no vertex does or the graph has no edge."""
    _require_pairs(g)
    common, vacuous = covers_size1(g)
    return lowest_vertex(common) if common and not vacuous else None


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


DENSE_EDGES = 6  # the structure step concerns non-star graphs with at least this many edges
SWEEP_MAX_VERTICES = 8  # the sweep reports are pinned up to here


@dataclass(frozen=True)
class SweepResult:
    num_vertices: int
    graphs_total: int
    graphs_checked: int  # >= 6 edges and not a star
    violations: tuple[int, ...]  # graph masks with no pattern; empty on success
    elapsed_ms: float


def _check_sweep_size(nv: int) -> None:
    if nv < 0:
        raise ValueError(f"a sweep needs a vertex count of at least 0, got {nv}")
    if nv > SWEEP_MAX_VERTICES:
        raise ResourceLimitError(
            f"a sweep over {nv} vertices is refused; at most {SWEEP_MAX_VERTICES} vertices are allowed"
        )


def _pairs(nv: int) -> list[Mask]:
    return sorted(bit(a) | bit(b) for a, b in combinations(range(1, nv + 1), 2))


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


def _pattern_free(nv: int) -> Iterator[int]:
    """Each graph on nv vertices with no 3-matching, Q or K4, as an
    edge-subset mask over :func:`_pairs`, depth first from the empty graph.

    Holding a pattern is closed upward, so these graphs are closed
    downward, and a walk that adds pairs in increasing index order meets
    each of them exactly once.  Pair i joins g unless a seed has i as its
    highest pair and all its other pairs in g.  Over seed indices, with
    ``top[i]`` the seeds whose highest pair is i and ``outside`` the seeds
    holding a pair below i that g lacks, that is ``top[i] & ~outside``.
    """
    pairs = _pairs(nv)
    top, column = [0] * len(pairs), [0] * len(pairs)
    for j, seed in enumerate(_pattern_seed_masks(nv, {p: i for i, p in enumerate(pairs)})):
        top[seed.bit_length() - 1] |= 1 << j
        for i in range(seed.bit_length()):
            if seed >> i & 1:
                column[i] |= 1 << j
    stack = [(0, 0, 0)]  # (g, the pair after g's highest, the seeds with a pair below it that g lacks)
    while stack:
        g, first, outside = stack.pop()
        yield g
        for i in range(first, len(pairs)):
            if not top[i] & ~outside:
                stack.append((g | 1 << i, i + 1, outside))
            outside |= column[i]


def graph_from_mask(gmask: int, nv: int, pairs: list[Mask]) -> Family:
    edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
    return Family.from_masks(FamilyParams(nv, 2), edges)


def structure_sweep(nv: int = 7) -> SweepResult:
    """Exhaustively verify: >= 6 edges and not a star implies a pattern.

    Walks only the pattern-free graphs (:func:`_pattern_free`): a
    violation is one with at least six edges inside no star, and the list
    (empty in every verified case) carries graph masks, ascending, for
    replay through :func:`find_pattern`.  ``graphs_checked`` is the number
    of dense non-stars in closed form, the sum over j >= 6 of
    C(C(nv,2), j) less nv times the sum over 6 <= j < nv of C(nv-1, j):
    two stars share at most one pair, so a star subgraph with at least
    two edges has one center.  Refused below 0 and above
    :data:`SWEEP_MAX_VERTICES` vertices, before any work.
    """
    _check_sweep_size(nv)
    start = time.monotonic()
    pairs = _pairs(nv)
    stars = [sum(1 << i for i, p in enumerate(pairs) if p & bit(v)) for v in range(1, nv + 1)]
    violations = sorted(
        g for g in _pattern_free(nv) if g.bit_count() >= DENSE_EDGES and all(g & ~star for star in stars)
    )
    dense = sum(comb(len(pairs), j) for j in range(DENSE_EDGES, len(pairs) + 1))
    dense_stars = nv * sum(comb(nv - 1, j) for j in range(DENSE_EDGES, nv))
    elapsed = (time.monotonic() - start) * 1000.0
    return SweepResult(
        num_vertices=nv,
        graphs_total=1 << len(pairs),
        graphs_checked=dense - dense_stars,
        violations=tuple(violations),
        elapsed_ms=elapsed,
    )
