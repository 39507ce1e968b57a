"""Named extremal families and enumeration of maximal intersecting families."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator, Optional

from .canonical import canonical_form
from .family import Family, FamilyParams, is_intersecting
from .masks import Mask, bit, iter_ksubsets, iter_subsets_within

ENUMERATION_GUARD = 10_000


class ResourceLimitError(RuntimeError):
    pass


def complete_star(n: int, k: int, center: int) -> Family:
    """All k-subsets of [n] containing ``center``; size C(n-1, k-1)."""
    params = FamilyParams(n, k)
    if not (1 <= center <= n):
        raise ValueError(f"center {center} outside [1..{n}]")
    cbit = bit(center)
    edges = [cbit | rest for rest in iter_subsets_within(params.full & ~cbit, k - 1)]
    return Family(params, tuple(sorted(edges)))


def hilton_milner(n: int, k: int) -> Family:
    """The largest non-star intersecting family, anchored at vertex 1.

    Edges through 1 meeting {2..k+1}, plus the edge {2..k+1} itself.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    if n < 2 * k + 1:
        raise ValueError(f"n >= 2k+1 = {2 * k + 1} required, got n={n}")
    params = FamilyParams(n, k)
    base = 0
    for v in range(2, k + 2):
        base |= bit(v)
    one = bit(1)
    edges = [base]
    for rest in iter_subsets_within(params.full & ~one, k - 1):
        if rest & base:
            edges.append(one | rest)
    fam = Family.from_masks(params, edges)
    expected = comb(n - 1, k - 1) - comb(n - k - 1, k - 1) + 1
    if len(fam) != expected:
        raise RuntimeError(f"Hilton-Milner ({n},{k}) has {len(fam)} edges, expected {expected}")
    return fam


def random_maximal_intersecting(n: int, k: int, seed: int) -> Family:
    """Greedy saturation over a seed-shuffled visiting order of all k-subsets.

    Deterministic per (n, k, seed).  Below n = 2k every pair of k-sets
    meets, so the full family comes back.
    """
    params = FamilyParams(n, k)
    candidates = list(iter_ksubsets(n, k))
    rng = random.Random(seed)
    rng.shuffle(candidates)
    chosen: list[Mask] = []
    for c in candidates:
        if all(c & e for e in chosen):
            chosen.append(c)
    return Family.from_masks(params, chosen)


class BudgetExceeded(Exception):
    pass


@dataclass
class Budget:
    """Wall-clock plus node-count caps for long-running searches."""

    max_ms: Optional[int] = None
    max_nodes: Optional[int] = None
    nodes: int = 0
    started: float = field(default_factory=time.monotonic)

    def charge_node(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded("node budget exhausted")
        if self.max_ms is not None and (self.nodes & 0xFF) == 0:
            if (time.monotonic() - self.started) * 1000.0 > self.max_ms:
                raise BudgetExceeded("time budget exhausted")

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0


def _compatibility(n: int, k: int) -> tuple[list[Mask], list[int]]:
    """Vertices (k-subset masks, canonical order) and adjacency bitsets."""
    verts = list(iter_ksubsets(n, k))
    m = len(verts)
    adj = [0] * m
    for i in range(m):
        vi = verts[i]
        for j in range(i + 1, m):
            if vi & verts[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return verts, adj


def _bron_kerbosch_pivot(
    adj: list[int], r: int, p: int, x: int, budget: Optional[Budget]
) -> Iterator[int]:
    """Maximal cliques containing ``r``, as vertex-index masks, via pivoting.

    ``r`` is a clique, ``p`` its common neighbours still to try and ``x``
    those already covered; (0, all, 0) gives every maximal clique.
    """

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if budget is not None:
            budget.charge_node()
        if not p and not x:
            yield r
            return
        px = p | x
        pivot, best = -1, -1
        q = px
        while q:
            u = (q & -q).bit_length() - 1
            q &= q - 1
            score = (p & adj[u]).bit_count()
            if score > best:
                pivot, best = u, score
        cand = p & ~adj[pivot]
        while cand:
            vb = cand & -cand
            v = vb.bit_length() - 1
            cand ^= vb
            yield from expand(r | vb, p & adj[v], x & adj[v])
            p ^= vb
            x |= vb

    yield from expand(r, p, x)


def enumerate_maximal_intersecting(
    n: int,
    k: int,
    dedup_mode: str = "labeled",
    budget: Optional[Budget] = None,
) -> Iterator[Family]:
    """Stream the maximal intersecting k-uniform families on [n].

    These are exactly the maximal cliques of the compatibility graph on
    all k-subsets (adjacency = nonempty intersection).  With
    ``dedup_mode="canonical"`` one representative per relabeling class
    is emitted: the walk is started from the clique {[k]} (vertex 0 in
    colex order) and so visits only the maximal families that contain
    [k] = {1..k}.  Every class has such a member, since any nonempty
    family relabels to one holding [k].  The labeled walk pivots on
    vertex 0 at its root (all degrees are equal), so this is its first
    branch and the representatives are the ones it meets first.
    Guarded at C(n, k) <= 10^4 so the graph stays buildable.
    """
    if dedup_mode not in ("labeled", "canonical"):
        raise ValueError(f"unknown dedup mode {dedup_mode!r}")
    params = FamilyParams(n, k)
    total = comb(n, k)
    if total > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"C({n},{k}) = {total} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    verts, adj = _compatibility(n, k)
    if dedup_mode == "canonical":  # [k] is vertex 0 in colex order
        cliques = _bron_kerbosch_pivot(adj, 1, adj[0], 0, budget)
    else:
        cliques = _bron_kerbosch_pivot(adj, 0, (1 << len(adj)) - 1, 0, budget)
    seen: set[tuple[Mask, ...]] = set()
    for clique in cliques:
        edges = []
        q = clique
        while q:
            i = (q & -q).bit_length() - 1
            q &= q - 1
            edges.append(verts[i])
        fam = Family(params, tuple(edges))
        if dedup_mode == "canonical":
            form = canonical_form(n, fam.edges)
            if form in seen:
                continue
            seen.add(form)
        yield fam


def is_maximal_intersecting(fam: Family) -> bool:
    """Saturation re-check: intersecting, and no outside k-set fits."""
    if not is_intersecting(fam):
        return False
    for c in iter_ksubsets(fam.params.n, fam.params.k):
        if c not in fam and all(c & e for e in fam.edges):
            return False
    return True


@dataclass(frozen=True)
class EnumerationReport:
    params: FamilyParams
    families_found: int
    max_delta: dict[int, tuple[int, int]]  # d -> (value, index of first achiever)
    dedup_mode: str
    elapsed_ms: float


def enumeration_report(
    n: int,
    k: int,
    dedup_mode: str = "labeled",
    ds: Optional[list[int]] = None,
    recheck: bool = True,
    on_family: Optional[Callable[[int, Family], None]] = None,
) -> EnumerationReport:
    """Consume the enumeration stream and record, per d, the maximum delta_d.

    The value is independent of stream order; the index stored beside it
    is that of the first family reaching it, so it depends on the order
    (and, in canonical mode, on which member of each class is emitted).
    """
    from .oracles import min_degree

    if ds is None:
        ds = list(range(1, k))
    start = time.monotonic()
    count = 0
    best: dict[int, tuple[int, int]] = {}
    for idx, fam in enumerate(enumerate_maximal_intersecting(n, k, dedup_mode)):
        count += 1
        if recheck and not is_maximal_intersecting(fam):
            raise AssertionError("enumerator emitted a non-maximal or non-intersecting family")
        for d in ds:
            val, _ = min_degree(fam, d)
            if d not in best or val > best[d][0]:
                best[d] = (val, idx)
        if on_family is not None:
            on_family(idx, fam)
    elapsed = (time.monotonic() - start) * 1000.0
    return EnumerationReport(
        params=FamilyParams(n, k),
        families_found=count,
        max_delta=best,
        dedup_mode=dedup_mode,
        elapsed_ms=elapsed,
    )
