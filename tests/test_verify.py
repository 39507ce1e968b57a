import json

import pytest

import ekrlab.verify as verify
from ekrlab.family import Family, FamilyParams, covers_size1
from ekrlab.generators import Budget
from ekrlab.io import to_json
from ekrlab.verify import CSV_HEADER, check_theorem, search_counterexample


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

    def test_achiever_cross_check_raises_on_disagreement(self, monkeypatch):
        monkeypatch.setattr(verify, "min_degree", lambda fam, d: (-1, 0))
        with pytest.raises(AssertionError, match="disagree"):
            check_theorem(6, 3, 2)

    def test_csv_row_shape(self):
        rep = check_theorem(6, 2, 1)
        row = rep.csv_row()
        assert len(row) == len(CSV_HEADER)
        assert row[0] in ("vertex-degree", "codegree")


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

    def test_target_guard(self):
        with pytest.raises(ValueError, match="not above the bound"):
            search_counterexample(9, 2, 1, 1)


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
