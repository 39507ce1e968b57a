"""Bound checks over enumerated families and conjecture counterexample search."""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
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


def _cross_checked(graph: CompatibilityGraph, degrees: Containment, clique: int, d: int) -> tuple[Mask, ...]:
    """The clique's edges, once ``min_degree`` on its Family agrees with the bitset score."""
    fam = graph.family(clique)
    if min_degree(fam, d) != degrees.min_degree(clique):
        raise AssertionError(f"bitset score and min_degree disagree on a family of {len(fam)} edges")
    return fam.edges


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
    achievers: list[tuple[Mask, ...]] = []
    truncated = False
    count = 0
    stopped = False
    try:
        for clique in maximal_cliques(graph, dedup_mode, budget):
            count += 1
            if best > 0 and degrees.below(clique, best):
                continue
            val, _ = degrees.min_degree(clique)
            if val > best:
                best = val
                achievers = [_cross_checked(graph, degrees, clique, d)]
                truncated = False
            elif val == best:
                if len(achievers) < ACHIEVER_CAP:
                    achievers.append(_cross_checked(graph, degrees, clique, d))
                else:
                    truncated = True
    except BudgetExceeded:
        stopped = True

    achievers.sort()
    params = graph.params
    all_stars: Optional[bool] = None
    if best == bound and not stopped:
        all_stars = not truncated
        for edges in achievers if all_stars else ():
            # every edge holds a common vertex: a star, complete at C(n-1, k-1) edges
            common, _ = covers_size1(Family(params, edges))
            if not common or len(edges) != comb(n - 1, k - 1):
                all_stars = False
                break
    if n >= threshold and best > bound:
        if not any(_reverify_excess(Family(params, edges), d, bound) for edges in achievers):
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
        achievers=tuple(achievers),
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
