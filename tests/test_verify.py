import importlib.util
import json
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import ekrlab.verify as verify
from ekrlab.bounds import applicable_threshold, codegree_bound
from ekrlab.family import Family, FamilyParams, covers_size1, is_intersecting
from ekrlab.generators import Budget, BudgetExceeded, compatibility_graph, maximal_cliques
from ekrlab.io import to_json
from ekrlab.oracles import ExplicitOracle, min_degree_scan
from ekrlab.verify import CSV_HEADER, BoundReport, SearchReport, check_theorem, search_counterexample


class TestCheckTheorem:
    def test_9_2_vertex_degree(self):
        rep = check_theorem(9, 2, 1)
        assert rep.verdict == "holds"
        assert rep.max_delta == 1 and rep.bound == 1
        assert rep.achievers_all_stars is True
        # achievers are exactly the 9 stars
        assert len(rep.achievers) == 9
        for edges in rep.achievers:
            common, _ = covers_size1(Family(FamilyParams(9, 2), edges))
            assert common.bit_count() == 1

    def test_5_3_below_threshold(self):
        rep = check_theorem(5, 3, 2)
        assert rep.verdict == "below-threshold"
        assert rep.max_delta == 3 and rep.bound == 1

    def test_7_3_codegree_boundary(self):
        rep = check_theorem(7, 3, 2)
        assert rep.verdict == "holds"
        assert rep.threshold == 7 and rep.bound == 1
        assert rep.max_delta <= 1

    def test_determinism(self):
        a = check_theorem(7, 3, 2)
        b = check_theorem(7, 3, 2)
        assert a.max_delta == b.max_delta and a.achievers == b.achievers

    def test_d_range_guard(self):
        with pytest.raises(ValueError):
            check_theorem(7, 3, 3)

    def test_budget_stop_is_inconclusive(self):
        rep = check_theorem(7, 3, 2, budget=Budget(max_nodes=3))
        assert (rep.verdict, rep.families_checked, rep.max_delta, rep.achievers) == ("inconclusive", 0, None, ())
        assert rep.achievers_all_stars is None
        assert rep.nodes == 4  # the fourth node is the one the budget refused
        assert json.loads(to_json(rep))["nodes"] == 4

    def test_budget_stop_keeps_the_families_checked(self):
        rep = check_theorem(7, 3, 2, budget=Budget(max_nodes=300))
        assert (rep.verdict, rep.families_checked, rep.nodes) == ("inconclusive", 123, 301)
        assert rep.max_delta == 0 and rep.achievers_all_stars is None
        full = check_theorem(7, 3, 2)
        assert full.nodes is None and "nodes" not in json.loads(to_json(full))

    def test_time_budget_stops_at_the_first_clock_check(self):
        # the clock is read every 256 nodes; a 0 ms budget is spent by then
        rep = check_theorem(8, 3, 2, budget=Budget(max_ms=0))
        assert (rep.verdict, rep.families_checked, rep.nodes) == ("inconclusive", 90, 256)

    def test_achiever_cross_check_raises_on_disagreement(self, monkeypatch):
        monkeypatch.setattr(verify, "min_degree", lambda fam, d: (-1, 0))
        with pytest.raises(AssertionError, match="disagree"):
            check_theorem(6, 3, 2)

    # (6,3,2) has max delta_2 = 2 over the bound 1; its threshold is 7,
    # so the "violated" path runs only with the threshold patched to 0.
    def test_excess_at_threshold_is_violated(self, monkeypatch):
        monkeypatch.setattr(verify, "applicable_threshold", lambda k, d: 0)
        rep = check_theorem(6, 3, 2)
        assert (rep.verdict, rep.max_delta, rep.bound, rep.threshold) == ("violated", 2, 1, 0)
        assert all(covers_size1(Family(FamilyParams(6, 3), edges))[0] == 0 for edges in rep.achievers)

    def test_excess_failing_reverification_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "applicable_threshold", lambda k, d: 0)
        monkeypatch.setattr(verify, "min_degree_scan", lambda oracle, d: (1, 0))
        with pytest.raises(AssertionError, match="failed independent re-verification"):
            check_theorem(6, 3, 2)

    def test_csv_row_shape(self):
        rep = check_theorem(6, 2, 1)
        row = rep.csv_row()
        assert len(row) == len(CSV_HEADER)
        assert row[0] in ("vertex-degree", "codegree")


def full_walk_check(n, k, d, budget=None):
    """``check_theorem``'s labeled loop over the whole walk, with no cut:
    every maximal clique is scored, and the achievers are the first
    ``verify.ACHIEVER_CAP`` at the maximum in walk order."""
    graph = compatibility_graph(n, k)
    degrees = graph.containment(d)
    best, achievers, truncated, count, stopped = -1, [], False, 0, False
    try:
        for clique in maximal_cliques(graph, "labeled", budget):
            count += 1
            val, _ = degrees.min_degree(clique)
            if val > best:
                best, achievers, truncated = val, [clique], False
            elif val == best:
                if len(achievers) < verify.ACHIEVER_CAP:
                    achievers.append(clique)
                else:
                    truncated = True
    except BudgetExceeded:
        stopped = True
    edges = sorted(map(graph.edges, achievers))
    bound, threshold = codegree_bound(n, k, d), applicable_threshold(k, d)
    all_stars = None
    if best == bound and not stopped:
        all_stars = not truncated and all(
            covers_size1(Family(graph.params, e))[0] and len(e) == comb(n - 1, k - 1) for e in edges
        )
    if n >= threshold and best > bound:
        verdict = "violated"
    else:
        verdict = "inconclusive" if stopped else "below-threshold" if n < threshold else "holds"
    return BoundReport(
        rule="vertex-degree" if d == 1 else "codegree",
        n=n,
        k=k,
        d=d,
        threshold=threshold,
        bound=bound,
        max_delta=best if count else None,
        achievers=tuple(edges),
        achievers_truncated=truncated,
        achievers_all_stars=all_stars,
        verdict=verdict,
        families_checked=count,
        elapsed_ms=0.0,
        dedup_mode="labeled",
        nodes=budget.nodes if stopped else None,
    )


def untimed(report):
    payload = json.loads(to_json(report))
    del payload["elapsed_ms"]
    return payload


LABELED_CELLS = (
    [(n, 2, 1) for n in range(2, 11)]
    + [(n, 3, d) for n in range(3, 9) for d in (1, 2)]
    + [(n, 4, d) for n in range(4, 8) for d in (1, 2, 3)]
)


class TestLabeledCut:
    """A labeled check stops at the first clique without [k] and derives
    the rest of its report from the families through [k]."""

    @pytest.mark.parametrize("n,k,d", LABELED_CELLS)
    def test_same_report_as_the_full_walk(self, n, k, d):
        assert untimed(check_theorem(n, k, d)) == untimed(full_walk_check(n, k, d))

    # (6,3,1) has 12 achievers, 6 through [k]; (6,3,2) 12 and 6; (7,3,2)
    # 37 and 9; (8,3,1) 8 and 3.  Caps below the count through [k] fill
    # the list inside the first branch, caps between the two walk on past
    # it, and caps at or above the total take the orbits.
    @pytest.mark.parametrize("cap", [1, 2, 8, 12, 36, 37])
    @pytest.mark.parametrize("n,k,d", [(6, 3, 1), (6, 3, 2), (7, 3, 2), (8, 3, 1)])
    def test_same_report_at_any_achiever_cap(self, monkeypatch, n, k, d, cap):
        monkeypatch.setattr(verify, "ACHIEVER_CAP", cap)
        assert untimed(check_theorem(n, k, d)) == untimed(full_walk_check(n, k, d))

    # at (7,3) the walk meets its first clique without [k] at node 4,407
    @pytest.mark.parametrize("max_nodes", [3, 300, 4_406])
    def test_same_budget_stop_inside_the_first_branch(self, max_nodes):
        ours, reference = Budget(max_nodes=max_nodes), Budget(max_nodes=max_nodes)
        got = check_theorem(7, 3, 2, budget=ours)
        assert got.verdict == "inconclusive"
        assert untimed(got) == untimed(full_walk_check(7, 3, 2, reference))
        assert ours.nodes == reference.nodes

    @pytest.mark.parametrize("max_nodes", [4_407, 5_000])
    def test_a_budget_past_the_cut_gives_the_whole_report(self, max_nodes):
        budget = Budget(max_nodes=max_nodes)
        assert untimed(check_theorem(7, 3, 2, budget=budget)) == untimed(full_walk_check(7, 3, 2))
        assert budget.nodes == 4_407

    def test_walks_only_the_first_branch(self):
        budget = Budget()
        rep = check_theorem(8, 3, 2, budget=budget)
        assert (rep.families_checked, budget.nodes) == (23_936, 12_302)  # of the whole walk's 62,888

    def test_a_budget_past_the_cut_now_holds(self):
        # the whole walk takes 62,888 nodes, so this budget stopped it "inconclusive"
        rep = check_theorem(8, 3, 2, budget=Budget(max_nodes=20_000))
        assert (rep.verdict, rep.families_checked, rep.nodes) == ("holds", 23_936, None)
        assert "nodes" not in json.loads(to_json(rep))

    def test_a_fractional_count_raises(self):
        assert verify._labeled_count(10, Counter({2: 3, 5: 1})) == 17
        with pytest.raises(AssertionError, match="stand for 7 \\+ 1/2 labeled families"):
            verify._labeled_count(5, Counter({2: 3}))


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3), (8, 3)])
def test_labeled_walk_meets_every_family_through_k_first(n, k):
    through = [bool(clique & 1) for clique in maximal_cliques(compatibility_graph(n, k))]
    first_without = through.index(False)
    assert any(through) and not any(through[first_without:])


def full_walk_search(n, k, d, target, budget=None):
    """``search_counterexample``'s loop over the whole walk, with no cut:
    every maximal clique is met until the first that reaches ``target``."""
    budget = budget or Budget()
    graph = compatibility_graph(n, k)
    degrees = graph.containment(d)
    count, hit, hit_val, outcome = 0, None, None, "exhausted"
    try:
        for clique in maximal_cliques(graph, "labeled", budget):
            count += 1
            if degrees.below(clique, target):
                continue
            fam = graph.family(clique)
            sval, _ = min_degree_scan(ExplicitOracle(fam), d)
            assert is_intersecting(fam) and sval >= target
            hit, hit_val, outcome = fam, sval, "found"
            break
    except BudgetExceeded:
        outcome = "inconclusive"
    return SearchReport(
        n=n,
        k=k,
        d=d,
        target=target,
        outcome=outcome,
        delta_found=hit_val,
        families_checked=count,
        nodes=budget.nodes,
        elapsed_ms=0.0,
        budget_ms=budget.max_ms,
        budget_nodes=budget.max_nodes,
        family=hit.edges if hit is not None else None,
    )


def answer(report):
    return report.outcome, report.delta_found, report.family, report.families_checked


SEARCH_CELLS = [(n, 2, 1) for n in range(2, 11)] + [(n, 3, d) for n in range(3, 10) for d in (1, 2)]


class TestSearchCut:
    """A search stops at the first clique without [k] and counts the
    families checked from the families through [k]."""

    @pytest.mark.parametrize("excess", [1, 2])
    @pytest.mark.parametrize("n,k,d", SEARCH_CELLS)
    def test_same_answer_as_the_full_walk(self, n, k, d, excess):
        target = codegree_bound(n, k, d) + excess
        assert answer(search_counterexample(n, k, d, target)) == answer(full_walk_search(n, k, d, target))

    # at (7,3) the walk meets its first clique without [k] at node 4,407
    @pytest.mark.parametrize("max_nodes", [3, 300, 4_406])
    def test_same_budget_stop_inside_the_first_branch(self, max_nodes):
        got = search_counterexample(7, 3, 2, 2, budget=Budget(max_nodes=max_nodes))
        assert got.outcome == "inconclusive"
        assert untimed(got) == untimed(full_walk_search(7, 3, 2, 2, Budget(max_nodes=max_nodes)))

    @pytest.mark.parametrize("max_nodes", [4_407, 5_000])
    def test_a_budget_past_the_cut_now_exhausts(self, max_nodes):
        # the whole walk takes 14,544 nodes, so this budget stopped it "inconclusive"
        assert full_walk_search(7, 3, 2, 2, Budget(max_nodes=max_nodes)).outcome == "inconclusive"
        rep = search_counterexample(7, 3, 2, 2, budget=Budget(max_nodes=max_nodes))
        assert (rep.outcome, rep.families_checked, rep.nodes) == ("exhausted", 6_127, 4_407)


class TestSearch:
    def test_full_family_found_below_2k(self):
        rep = search_counterexample(5, 3, 2, 2)
        assert rep.outcome == "found"
        assert rep.delta_found == 3
        assert len(rep.family) == 10

    def test_9_2_exhausted(self):
        rep = search_counterexample(9, 2, 1, 2)
        assert rep.outcome == "exhausted"
        assert rep.families_checked == 93

    def test_6_3_probe_at_2k(self):
        # the codegree bound can fail at n = 2k; the probe records whichever way
        rep = search_counterexample(6, 3, 2, 2)
        assert rep.outcome in ("found", "exhausted")

    def test_budget_inconclusive(self):
        rep = search_counterexample(7, 3, 2, 2, budget=Budget(max_nodes=3))
        assert rep.outcome == "inconclusive"
        assert rep.nodes >= 3

    def test_time_budget_stops_at_the_first_clock_check(self):
        rep = search_counterexample(8, 4, 3, 2, budget=Budget(max_ms=0))
        assert (rep.outcome, rep.families_checked, rep.nodes) == ("inconclusive", 112, 256)

    def test_target_guard(self):
        with pytest.raises(ValueError, match="not above the bound"):
            search_counterexample(9, 2, 1, 1)


@pytest.fixture
def probe(monkeypatch):
    """scripts/conjecture_probe.py as a module, registered for its dataclass."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "conjecture_probe.py"
    spec = importlib.util.spec_from_file_location("conjecture_probe", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src folder
    spec.loader.exec_module(module)
    return module


class TestConjectureProbe:
    def test_failed_reverification_propagates(self, probe, monkeypatch, tmp_path):
        def refuted(*args, **kwargs):
            raise AssertionError("candidate failed independent re-verification")

        monkeypatch.setattr(probe, "search_counterexample", refuted)
        with pytest.raises(AssertionError, match="re-verification"):
            probe.run(probe.ProbeConfig([3], 2, [0], 1000, tmp_path))

    def test_guarded_cell_is_skipped(self, probe, tmp_path, capsys):
        assert probe.run(probe.ProbeConfig([8], 2, [0], 1000, tmp_path)) == []  # C(16,8) > 10^4
        assert capsys.readouterr().out.startswith("(n=16, k=8, d=2): skipped (C(16,8) = 12870 exceeds")


class TestSerialization:
    def test_report_json_roundtrips(self):
        rep = check_theorem(6, 2, 1)
        payload = json.loads(to_json(rep))
        assert payload["verdict"] == "holds"
        assert isinstance(payload["achievers"], list)
        assert all(isinstance(e, list) for fam in payload["achievers"] for e in fam)

    def test_search_json(self):
        rep = search_counterexample(5, 3, 2, 2)
        payload = json.loads(to_json(rep))
        assert payload["outcome"] == "found"
        assert payload["family"][0] == [1, 2, 3]
