"""Bound checks over enumerated families and conjecture counterexample search."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from math import comb, lcm
from typing import Optional

from .bounds import applicable_threshold, codegree_bound
from .family import Family, covers_size1, is_intersecting
from .generators import (
    Budget,
    BudgetExceeded,
    CompatibilityGraph,
    Containment,
    compatibility_graph,
    enumerate_maximal_intersecting,  # noqa: F401  (kept for perfbench/tracing.py, which wraps it here)
    maximal_cliques,
)
from .io import fields_json
from .masks import Mask
from .oracles import ExplicitOracle, min_degree, min_degree_scan

ACHIEVER_CAP = 64


@dataclass(frozen=True)
class BoundReport:
    rule: str  # "vertex-degree" for d=1, else "codegree"
    n: int
    k: int
    d: int
    threshold: int
    bound: int
    max_delta: Optional[int]  # None when a budget stop came before the first family
    achievers_truncated: bool
    achievers_all_stars: Optional[bool]  # set when max_delta == bound and the walk finished
    verdict: str  # "holds" | "violated" | "below-threshold" | "inconclusive"
    families_checked: int
    elapsed_ms: float
    dedup_mode: str
    nodes: Optional[int]  # Bron-Kerbosch nodes walked, set only on a budget stop
    achievers: tuple[tuple[Mask, ...], ...]  # edge tuples, up to ACHIEVER_CAP

    def to_dict(self) -> dict:
        out = fields_json(self)
        if self.nodes is None:  # only a budget stop reports where it stopped
            del out["nodes"]
        return out

    def csv_row(self) -> list:
        return [
            self.rule,
            self.n,
            self.k,
            self.d,
            self.threshold,
            self.bound,
            self.max_delta,
            self.verdict,
            self.families_checked,
            round(self.elapsed_ms, 3),
        ]


CSV_HEADER = ["theorem", "n", "k", "d", "threshold", "bound", "max_delta", "verdict", "families", "ms"]


def _reverify_excess(fam: Family, d: int, bound: int) -> bool:
    """Independent re-check of a claimed violator: direct scans only."""
    if not is_intersecting(fam):
        return False
    val, _ = min_degree_scan(ExplicitOracle(fam), d)
    return val > bound


def _cross_checked(graph: CompatibilityGraph, degrees: Containment, clique: int, d: int) -> int:
    """The clique, once ``min_degree`` on its Family agrees with the bitset score."""
    fam = graph.family(clique)
    if min_degree(fam, d) != degrees.min_degree(clique):
        raise AssertionError(f"bitset score and min_degree disagree on a family of {len(fam)} edges")
    return clique


def _labeled_count(total: int, sizes: Counter[int]) -> int:
    """The labeled families that ``sizes`` (the families through [k], by
    edge count) stand for: C(n, k) times the sum of 1/|F| over them.

    Weigh each labeled family 1/|F| on each of its edges, so that it
    weighs 1 in all.  A relabeling that takes [k] to the edge e maps the
    families through [k] onto those through e, sizes kept, so each of the
    ``total`` = C(n, k) edges carries the weight that [k] carries.
    """
    common = lcm(*sizes)
    count, rest = divmod(sum(total * m * (common // s) for s, m in sizes.items()), common)
    if rest:
        raise AssertionError(f"the families through [k] stand for {count} + {rest}/{common} labeled families")
    return count


def check_theorem(
    n: int,
    k: int,
    d: int,
    dedup_mode: str = "labeled",
    budget: Optional[Budget] = None,
) -> BoundReport:
    """Compare the maximum of delta_d over all maximal intersecting
    families on (n, k) against the codegree bound C(n-d-1, k-d-1).

    Degree monotonicity makes the maximal families sufficient.  Each
    maximal clique is scored on its index bitset through the graph's
    d-set containment table; once the best score is positive, a clique
    below it is dropped at the first d-set that shows so.  A family is
    built only when it enters the achievers, and then its ``min_degree``
    must agree with the score.  Below the applicable threshold the
    observed maximum is recorded as data with the verdict
    "below-threshold", never as a violation.  A budget stop gives
    "inconclusive" over the families checked so far, unless one of them
    is a violator.  An excess at or above the
    threshold is "violated" only once an achiever re-verifies by direct
    scans; if none does, the call raises.

    A labeled check leaves the walk at its first clique without [k]
    (vertex 0), once the families through [k] settle the rest: every
    labeled family relabels onto one of them, with its size and delta_d.
    So their maximum is the maximum, and counting (family, edge) pairs
    gives the families checked, C(n, k) times the sum of 1/|F| over
    them; the achievers are counted the same way.  If at most
    ``ACHIEVER_CAP`` achieve, they are the orbits of those through [k],
    each cross-checked; otherwise the report keeps the first
    ``ACHIEVER_CAP`` in walk order, and the walk goes on past [k]'s
    families until it has them.  A budget stop before the cut gives the
    report the whole walk would have given there.
    """
    if not (1 <= d < k):
        raise ValueError("require 1 <= d < k")
    start = time.monotonic()
    bound = codegree_bound(n, k, d)
    threshold = applicable_threshold(k, d)
    rule = "vertex-degree" if d == 1 else "codegree"
    graph = compatibility_graph(n, k)
    degrees = graph.containment(d)

    best = -1
    achievers: list[int] = []  # cliques
    truncated = False
    count = 0
    stopped = False
    sizes: Counter[int] = Counter()  # the families through [k] by size, and their achievers
    best_sizes: Counter[int] = Counter()
    whole: Optional[tuple[int, int]] = None  # labeled families and achievers, from those through [k]
    try:
        for clique in maximal_cliques(graph, dedup_mode, budget):
            if dedup_mode == "labeled" and not clique & 1:  # past every family through [k]
                if whole is None:
                    whole = _labeled_count(len(graph.verts), sizes), _labeled_count(len(graph.verts), best_sizes)
                if whole[1] <= ACHIEVER_CAP:  # every achiever relabels one through [k]
                    found = set(achievers)
                    orbits = set().union(*map(graph.orbit, found)) - found
                    achievers += [_cross_checked(graph, degrees, image, d) for image in orbits]
                    count, truncated = whole[0], False
                    break
                if len(achievers) == ACHIEVER_CAP:  # the first ACHIEVER_CAP in walk order are in
                    count, truncated = whole[0], True
                    break
            count += 1
            size = clique.bit_count()
            sizes[size] += 1
            if best > 0 and degrees.below(clique, best):
                continue
            val, _ = degrees.min_degree(clique)
            if val > best:
                best = val
                achievers = [_cross_checked(graph, degrees, clique, d)]
                best_sizes = Counter((size,))
                truncated = False
            elif val == best:
                best_sizes[size] += 1
                if len(achievers) < ACHIEVER_CAP:
                    achievers.append(_cross_checked(graph, degrees, clique, d))
                else:
                    truncated = True
    except BudgetExceeded:
        stopped = True

    params = graph.params
    achiever_edges = sorted(map(graph.edges, achievers))
    all_stars: Optional[bool] = None
    if best == bound and not stopped:
        all_stars = not truncated
        for edges in achiever_edges if all_stars else ():
            # every edge holds a common vertex: a star, complete at C(n-1, k-1) edges
            common, _ = covers_size1(Family(params, edges))
            if not common or len(edges) != comb(n - 1, k - 1):
                all_stars = False
                break
    if n >= threshold and best > bound:
        if not any(_reverify_excess(Family(params, edges), d, bound) for edges in achiever_edges):
            raise AssertionError("claimed excess failed independent re-verification")
        verdict = "violated"
    elif stopped:
        verdict = "inconclusive"
    elif n < threshold:
        verdict = "below-threshold"
    else:
        verdict = "holds"
    elapsed = (time.monotonic() - start) * 1000.0
    return BoundReport(
        rule=rule,
        n=n,
        k=k,
        d=d,
        threshold=threshold,
        bound=bound,
        max_delta=best if count else None,
        achievers=tuple(achiever_edges),
        achievers_truncated=truncated,
        achievers_all_stars=all_stars,
        verdict=verdict,
        families_checked=count,
        elapsed_ms=elapsed,
        dedup_mode=dedup_mode,
        nodes=budget.nodes if stopped else None,
    )


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    d: int
    target: int
    outcome: str  # "found" | "exhausted" | "inconclusive"
    delta_found: Optional[int]
    families_checked: int
    nodes: int
    elapsed_ms: float
    budget_ms: Optional[int]
    budget_nodes: Optional[int]
    family: Optional[tuple[Mask, ...]]


def search_counterexample(
    n: int,
    k: int,
    d: int,
    target: int,
    budget: Optional[Budget] = None,
) -> SearchReport:
    """Search for an intersecting family with delta_d >= target.

    Monotonicity reduces the search to maximal families, so the clique
    stream is scanned, each clique dropped at the first d-set with fewer
    than ``target`` holders, with re-verification on a hit.  Exhausting the
    stream certifies nonexistence at (n, k, d); a budget stop reports
    inconclusive instead.
    """
    if not (1 <= d < k):
        raise ValueError("require 1 <= d < k")
    if target <= codegree_bound(n, k, d):
        raise ValueError(
            f"target {target} not above the bound {codegree_bound(n, k, d)}; nothing to search"
        )
    if budget is None:
        budget = Budget()
    graph = compatibility_graph(n, k)
    degrees = graph.containment(d)
    count = 0
    hit: Optional[Family] = None
    hit_val: Optional[int] = None
    outcome = "exhausted"
    try:
        for clique in maximal_cliques(graph, "labeled", budget):
            count += 1
            if degrees.below(clique, target):
                continue
            fam = graph.family(clique)
            sval, _ = min_degree_scan(ExplicitOracle(fam), d)
            if is_intersecting(fam) and sval >= target:
                hit, hit_val = fam, sval
                outcome = "found"
                break
            raise AssertionError("candidate failed independent re-verification")
    except BudgetExceeded:
        outcome = "inconclusive"
    return SearchReport(
        n=n,
        k=k,
        d=d,
        target=target,
        outcome=outcome,
        family=hit.edges if hit is not None else None,
        delta_found=hit_val,
        families_checked=count,
        nodes=budget.nodes,
        elapsed_ms=budget.elapsed_ms,
        budget_ms=budget.max_ms,
        budget_nodes=budget.max_nodes,
    )
