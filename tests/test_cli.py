import json
from math import comb

from ekrlab.cli import main
from ekrlab.io import read_family
from ekrlab.masks import labels
from ekrlab.oracles import StarOracle, min_degree


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestGen:
    def test_star_writes_15_edges(self, tmp_path):
        out = tmp_path / "s.fam"
        assert main(["gen", "star", "--n", "7", "--k", "3", "--center", "1", "--out", str(out)]) == 0
        assert len(read_family(out)) == 15

    def test_hm_to_stdout(self, capsys):
        code, out = run(capsys, "gen", "hm", "--n", "7", "--k", "3")
        assert code == 0
        assert out.startswith("n=7 k=3\n")
        assert len(out.strip().splitlines()) == 14  # header + 13 edges

    def test_random_deterministic(self, capsys):
        _, a = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--seed", "5")
        _, b = run(capsys, "gen", "random", "--n", "6", "--k", "3", "--seed", "5")
        assert a == b

    def test_all_maximal_writes_archive(self, tmp_path, capsys):
        out_dir = tmp_path / "fams"
        code, out = run(
            capsys, "gen", "all-maximal", "--n", "5", "--k", "2", "--out-dir", str(out_dir)
        )
        assert code == 0
        report = json.loads(out)
        assert report["families_found"] == 15
        assert len(list(out_dir.glob("*.fam"))) == 15


class TestStatsAndCertify:
    def test_stats(self, tmp_path, capsys):
        fam_path = tmp_path / "s.fam"
        main(["gen", "star", "--n", "11", "--k", "3", "--center", "2", "--out", str(fam_path)])
        code, out = run(capsys, "stats", "--in", str(fam_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["intersecting"] is True
        assert payload["min_degree"]["2"]["value"] == 1

    def test_stats_min_degree_of_star(self, tmp_path, capsys):
        # 2,300 edges: a two-block incidence build, the walk at d = 1, 2
        # and the counting route at d = 3
        fam_path = tmp_path / "s.fam"
        main(["gen", "star", "--n", "26", "--k", "4", "--center", "2", "--out", str(fam_path)])
        code, out = run(capsys, "stats", "--in", str(fam_path))
        assert code == 0
        deltas = json.loads(out)["min_degree"]
        for d in (1, 2, 3):
            _, arg = min_degree(StarOracle(26, 4, 2), d)
            assert deltas[str(d)] == {"value": comb(26 - d - 1, 4 - d - 1), "argmin": list(labels(arg))}

    def test_certify_star_file(self, tmp_path, capsys):
        fam_path = tmp_path / "s.fam"
        main(["gen", "star", "--n", "11", "--k", "3", "--center", "2", "--out", str(fam_path)])
        code, out = run(capsys, "certify", "k1", "--in", str(fam_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "star-center" and payload["center"] == 2

    def test_certify_violation_exit_code(self, tmp_path, capsys):
        fam_path = tmp_path / "hm.fam"
        main(["gen", "hm", "--n", "11", "--k", "3", "--out", str(fam_path)])
        code, out = run(capsys, "certify", "k1", "--in", str(fam_path))
        assert code == 2
        payload = json.loads(out)
        assert payload["outcome"] == "violation"
        assert payload["witness"]["kind"] in ("zero-codegree", "disjoint-edges")

    def test_construct_star_oracle(self, capsys):
        code, out = run(capsys, "construct", "k1", "--star", "11,3,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "ok"
        assert payload["vertex_actual"] <= payload["vertex_bound"]


class TestCheckSearchBounds:
    def test_check_json_exit(self, capsys):
        code, out = run(capsys, "check", "--n", "7", "--k", "3", "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "holds"

    def test_check_csv_header(self, capsys):
        code, out = run(capsys, "--format", "csv", "check", "--n", "6", "--k", "2", "--d", "1")
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,n,k,d,threshold,bound,max_delta,verdict,families,ms"

    def test_search_found_exit_2(self, capsys):
        code, out = run(capsys, "search", "--n", "5", "--k", "3", "--d", "2", "--target", "2")
        assert code == 2
        assert json.loads(out)["outcome"] == "found"

    def test_bounds_text(self, capsys):
        code, out = run(capsys, "--format", "text", "bounds", "--k-min", "2", "--k-max", "4", "--d-rule", "k-1")
        assert code == 0
        assert "threshold" in out

    def test_usage_error_exit_1(self, capsys):
        assert main(["check", "--n", "7", "--k", "3"]) == 1  # missing --d

    def test_invalid_value_exit_1(self, capsys):
        assert main(["check", "--n", "7", "--k", "3", "--d", "9"]) == 1

    def test_enumeration_guard_exit_1(self, capsys):
        assert main(["check", "--n", "30", "--k", "7", "--d", "2"]) == 1
