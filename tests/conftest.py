"""Shared brute-force references and random-instance helpers.

Everything here recomputes answers from definitions (double loops over
explicit edge lists), independent of the library's internal paths, so
the two routes can check each other.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from typing import Optional

import pytest

import ekrlab
from ekrlab.family import Family, FamilyParams
from ekrlab.masks import Mask, iter_ksubsets, mask_of


def ref_degree(fam: Family, s: Mask) -> int:
    return sum(1 for e in fam.edges if e & s == s)


def ref_min_degree(fam: Family, d: int) -> tuple[int, Mask]:
    best_val, best_arg = None, None
    for verts in combinations(range(1, fam.params.n + 1), d):
        s = mask_of(verts)
        v = ref_degree(fam, s)
        if best_val is None or v < best_val or (v == best_val and s < best_arg):
            best_val, best_arg = v, s
    return best_val, best_arg


def ref_incidence(fam: Family) -> tuple[int, ...]:
    """Per-vertex scan: bit j of entry v-1 is set when edge j contains v."""
    return tuple(
        sum(1 << j for j, e in enumerate(fam.edges) if e >> (v - 1) & 1)
        for v in range(1, fam.params.n + 1)
    )


def ref_covers_size2(fam: Family, area: Mask) -> set[Mask]:
    """Independent double loop: try every pair, scan every edge."""
    verts = [v for v in range(1, fam.params.n + 1) if area >> (v - 1) & 1]
    out = set()
    for a, b in combinations(verts, 2):
        pair = mask_of((a, b))
        if all(e & pair for e in fam.edges):
            out.add(pair)
    return out


def ref_disjoint_pair(fam: Family) -> Optional[tuple[Mask, Mask]]:
    """First disjoint pair (e, f), e before f, over all pairs in edge order."""
    return next(((e, f) for e, f in combinations(fam.edges, 2) if not e & f), None)


def ref_is_intersecting(fam: Family) -> bool:
    return all(e & f for e, f in combinations(fam.edges, 2))


def ref_is_maximal_intersecting(fam: Family) -> bool:
    if not ref_is_intersecting(fam):
        return False
    for c in iter_ksubsets(fam.params.n, fam.params.k):
        if c not in fam.edges and all(c & e for e in fam.edges):
            return False
    return True


def ref_extension(fam: Family, base: Mask) -> Optional[Mask]:
    """First edge holding ``base``, by a plain scan."""
    return next((e for e in fam.edges if e & base == base), None)


def ref_enumerate_extensions(fam: Family, base: Mask) -> list[Mask]:
    """The edges holding ``base``, in edge order, by a plain scan."""
    return [e for e in fam.edges if e & base == base]


def ref_rows(fam: Family) -> list[list[int]]:
    """Each edge's vertex indices (label - 1), ascending, by testing every bit."""
    return [[v for v in range(fam.params.n) if e >> v & 1] for e in fam.edges]


def ref_run(fam: Family, v: int) -> list[int]:
    """Positions of the edges through the vertex with index v, ascending."""
    return [i for i, e in enumerate(fam.edges) if e >> v & 1]


def ref_star_violation(fam: Family, window: Mask, center: int) -> Optional[tuple[str, Mask]]:
    """First offending edge by a plain edge scan, else the smallest absent star edge.

    The star edges are formed from ``itertools.combinations`` of the
    window's other vertices and looked up in a Python set of the edges.
    """
    cbit = 1 << (center - 1)
    for e in fam.edges:
        if not e & ~window and not e & cbit:
            return "offending", e
    have = set(fam.edges)
    others = [v for v in range(1, fam.params.n + 1) if window >> (v - 1) & 1 and v != center]
    star = (cbit | sum(1 << (v - 1) for v in rest) for rest in combinations(others, fam.params.k - 1))
    missing = [e for e in star if e not in have]
    return ("missing", min(missing)) if missing else None


def ref_max_matching_upto(edges: tuple[Mask, ...], cap: int) -> list[Mask]:
    """First pairwise-disjoint triple, else pair, of edge positions (i < j < l), by plain loops."""
    if not edges:
        return []
    if cap >= 3:
        for a, b, c in combinations(edges, 3):
            if not (a & b or a & c or b & c):
                return [a, b, c]
    if cap >= 2:
        for a, b in combinations(edges, 2):
            if not a & b:
                return [a, b]
    return [edges[0]]


def ref_is_star_graph(edges: tuple[Mask, ...]) -> Optional[int]:
    """The smallest vertex on every edge of a pair graph, or None, by a plain loop."""
    if not edges:
        return None
    common = edges[0]
    for e in edges[1:]:
        common &= e
    return (common & -common).bit_length() if common else None


def ref_find_pattern(edges: tuple[Mask, ...]) -> Optional[tuple[str, tuple[Mask, ...]]]:
    """First 3-matching, else Q (lone edge, cherry), else K4 of a pair graph, by plain loops."""
    if len(edges) < 3:
        return None
    for a, b, c in combinations(edges, 3):
        if not (a & b or a & c or b & c):
            return "matching3", (a, b, c)
    for ei, ej in combinations(edges, 2):
        if ei & ej:
            for el in edges:
                if not el & (ei | ej):
                    return "Q", (el, ei, ej)
    present = set(edges)
    support = sorted({v for e in edges for v in range(1, e.bit_length() + 1) if e >> (v - 1) & 1})
    for quad in combinations(support, 4):
        needed = [(1 << (a - 1)) | (1 << (b - 1)) for a, b in combinations(quad, 2)]
        if all(e in present for e in needed):
            return "K4", tuple(sorted(needed))
    return None


def ref_sweep_pairs(nv: int) -> list[Mask]:
    """The pairs of [nv] as masks, increasing: graph g holds pair i when bit i of g is set."""
    return sorted((1 << (a - 1)) | (1 << (b - 1)) for a, b in combinations(range(1, nv + 1), 2))


def ref_pattern_table(nv: int) -> list[bool]:
    """Per graph g on nv vertices, whether it holds a 3-matching, a Q or a K4, by plain loops."""
    pairs = ref_sweep_pairs(nv)
    return [
        ref_find_pattern(tuple(p for i, p in enumerate(pairs) if g >> i & 1)) is not None
        for g in range(1 << len(pairs))
    ]


def ref_sweep_checked(nv: int) -> int:
    """The graphs on nv vertices with at least 6 edges that are not stars,
    in closed form: two stars share one pair, so a star subgraph with at
    least 6 edges has one center."""
    ne = comb(nv, 2)
    return sum(comb(ne, j) for j in range(6, ne + 1)) - nv * sum(comb(nv - 1, j) for j in range(6, nv))


def ref_compatibility_adj(n: int, k: int) -> tuple[tuple[Mask, ...], tuple[int, ...]]:
    """The k-sets of [n] in increasing mask order and, per k-set, the
    index bitset of the other k-sets it meets, by testing every pair."""
    verts = sorted(sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), k))
    adj = [0] * len(verts)
    for i, e in enumerate(verts):
        for j, f in enumerate(verts):
            if i != j and e & f:
                adj[i] |= 1 << j
    return tuple(verts), tuple(adj)


def brute_force_maximal_families(n: int, k: int) -> set[tuple[Mask, ...]]:
    """All maximal intersecting families by filtering every edge subset.

    Feasible up to C(n, k) = 15 (2^15 subsets); uses edge-conflict
    bitsets so each subset costs O(C(n, k)) word operations.
    """
    edges = list(iter_ksubsets(n, k))
    m = len(edges)
    assert m <= 15, "brute force limited to 2^15 subsets"
    compat = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and edges[i] & edges[j]:
                compat[i] |= 1 << j
    out = set()
    for subset in range(1, 1 << m):
        ok = True
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if subset & ~(compat[i] | (1 << i)):
                ok = False
                break
        if not ok:
            continue
        maximal = True
        for j in range(m):
            if not subset >> j & 1 and subset & ~compat[j] == 0:
                maximal = False
                break
        if maximal:
            out.add(tuple(edges[i] for i in range(m) if subset >> i & 1))
    return out


def ref_canonical_form(edges: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """Minimum sorted relabeled edge tuple over every bijection support -> [s].

    Plain brute force over all s! orderings of the support, so only for
    supports of at most about 8 vertices.
    """
    edge_labels = [[i + 1 for i in range(m.bit_length()) if m >> i & 1] for m in edges]
    support = sorted({v for e in edge_labels for v in e})
    best = None
    for image in permutations(range(len(support))):
        relabel = dict(zip(support, image))
        form = tuple(sorted(sum(1 << relabel[v] for v in e) for e in edge_labels))
        if best is None or form < best:
            best = form
    return best


def ref_sample_subset(rng: random.Random, pool: Mask, r: int) -> Mask:
    """Uniform r-subset of the pool by one partial Fisher-Yates shuffle.

    Step i swaps positions i and i + int(rng.random() * (size - i)) of
    the pool's bits in ascending order; the first r positions form the
    sample.
    """
    arr = [1 << i for i in range(pool.bit_length()) if pool >> i & 1]
    m = 0
    for i in range(r):
        j = i + int(rng.random() * (len(arr) - i))
        arr[i], arr[j] = arr[j], arr[i]
        m |= arr[i]
    return m


class RefParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def ref_read_family_text(text: str) -> tuple[int, int, tuple[int, ...]]:
    """Family-file reference: one pass in file order with a set, stdlib only.

    Returns ``(n, k, sorted edge masks)`` or raises ``RefParseError`` at
    the first offending line; a duplicate edge is reported at its second
    occurrence.  The header must hold exactly the keys ``n`` and ``k``.
    """
    header = None
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            pairs = [p.split("=", 1) for p in line.split()]
            try:
                if sorted(p[0] for p in pairs) != ["k", "n"]:
                    raise ValueError(line)
                kv = dict(pairs)
                header = n, k = int(kv["n"]), int(kv["k"])
                if not 1 <= k <= n:
                    raise ValueError(line)
            except ValueError:
                raise RefParseError(f"expected header 'n=<int> k=<int>', got {line!r}", lineno) from None
            continue
        try:
            verts = [int(tok) for tok in line.split()]
        except ValueError:
            raise RefParseError(f"non-integer label in {line!r}", lineno) from None
        if len(verts) != k:
            raise RefParseError(f"edge has {len(verts)} labels, expected k={k}", lineno)
        if any(not 1 <= v <= n for v in verts):
            raise RefParseError(f"label outside 1..{n}", lineno)
        if sorted(verts) != verts or len(set(verts)) != len(verts):
            raise RefParseError("labels must be strictly ascending", lineno)
        m = sum(1 << (v - 1) for v in verts)
        if m in seen:
            raise RefParseError(f"duplicate edge {verts}", lineno)
        seen.add(m)
    if header is None:
        raise RefParseError("missing header line", 1)
    return n, k, tuple(sorted(seen))


def probe_numpy(script: str) -> str:
    """The stdout of ``script``, run in a fresh interpreter, followed by
    whether numpy is then in ``sys.modules``: exactly "False" when the
    script prints nothing and leaves numpy out."""
    src = str(Path(ekrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys\n{script}\nprint('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.strip()


def random_family(rng: random.Random, n: int, k: int, m: int) -> Family:
    pool = list(iter_ksubsets(n, k))
    chosen = rng.sample(pool, min(m, len(pool)))
    return Family.from_masks(FamilyParams(n, k), chosen)


def random_intersecting_family(rng: random.Random, n: int, k: int, tries: int = 40) -> Family:
    """Greedy prefix of a shuffled edge order; nonempty and intersecting."""
    pool = list(iter_ksubsets(n, k))
    rng.shuffle(pool)
    chosen: list[Mask] = []
    budget = rng.randrange(1, tries)
    for c in pool:
        if all(c & e for e in chosen):
            chosen.append(c)
            if len(chosen) >= budget:
                break
    return Family.from_masks(FamilyParams(n, k), chosen)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xEC12)
