import hashlib
import json
import re
from math import comb

import pytest

import ekrlab.verify as verify
from conftest import ref_is_maximal_intersecting
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

    def test_all_maximal_canonical_representatives_hold_1_2_3(self, tmp_path, capsys):
        out_dir = tmp_path / "fams"
        code, out = run(
            capsys, "gen", "all-maximal", "--n", "6", "--k", "3", "--dedup", "canonical",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert json.loads(out)["families_found"] == 13
        files = sorted(out_dir.glob("*.fam"))
        assert len(files) == 13
        for path in files:
            assert "1 2 3" in path.read_text().splitlines()
            assert ref_is_maximal_intersecting(read_family(path))


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

    def test_check_budget_stop_exit_0(self, capsys):
        code = main(["check", "--n", "7", "--k", "3", "--d", "2", "--budget-nodes", "3"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["verdict"], payload["families_checked"], payload["nodes"]) == ("inconclusive", 0, 4)

    def test_check_time_budget_stop_exit_0(self, capsys):
        code = main(["check", "--n", "8", "--k", "3", "--d", "2", "--budget-ms", "0"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["verdict"], payload["families_checked"], payload["nodes"]) == ("inconclusive", 90, 256)

    def test_search_budget_past_the_cut_exhausts(self, capsys):
        # the whole walk takes 14,544 nodes, so this budget stopped it "inconclusive"
        code, out = run(capsys, "search", "--n", "7", "--k", "3", "--d", "2", "--target", "2", "--budget-nodes", "5000")
        payload = json.loads(out)
        assert (code, payload["outcome"], payload["families_checked"], payload["nodes"]) == (0, "exhausted", 6127, 4407)

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

    def test_check_violated_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "applicable_threshold", lambda k, d: 0)
        code, out = run(capsys, "check", "--n", "6", "--k", "3", "--d", "2")
        assert code == 2
        assert json.loads(out)["verdict"] == "violated"

    def test_check_text(self, capsys):
        code, out = run(capsys, "check", "--n", "7", "--k", "3", "--d", "2", "--format", "text")
        assert code == 0
        assert re.sub(r"\(6127 families, \d+ ms\)", "(6127 families, _ ms)", out) == (
            "codegree n=7 k=3 d=2: max delta_2 = 1, bound = 1 -> holds (6127 families, _ ms)\n"
        )

    def test_bounds_csv(self, capsys):
        code, out = run(capsys, "bounds", "--k-min", "2", "--k-max", "6", "--format", "csv")
        assert code == 0
        assert out == "k,d,threshold,bound_at_threshold\r\n2,1,5,1\r\n3,2,7,1\r\n4,3,11,1\r\n5,4,15,1\r\n6,5,18,1\r\n"

    def test_bounds_json(self, capsys):
        code, out = run(capsys, "bounds", "--k-min", "2", "--k-max", "6", "--format", "json")
        assert code == 0 and len(out) == 411
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f6a0f2ab139047f89f8613822739a21d73b1042f8e971908826674e480fd0052"
        )

    def test_bounds_written_with_out(self, tmp_path, capsys):
        path = tmp_path / "bounds.json"
        code, out = run(capsys, "bounds", "--k-min", "3", "--k-max", "6", "--d-rule", "k-2", "--out", str(path))
        assert (code, out) == (0, "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bd3e33d6dea305929958adf91c9e45376510e898329927958a299fb9fd2bdfe6"
        )

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "6", "--k", "3", "--d", "2", "--target", "2"],
            ["gen", "star", "--n", "5", "--k", "2", "--center", "1"],
            ["stats", "--in", "star.fam"],
            ["construct", "k1", "--star", "11,3,1"],
            ["certify", "k1", "--star", "11,3,1"],
        ],
        ids=["search", "gen", "stats", "construct", "certify"],
    )
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_format_a_subcommand_ignores_is_a_usage_error(self, where, argv, fmt, capsys):
        flag = ["--format", fmt]
        assert main(flag + argv if where == "before" else argv + flag) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --format {fmt} applies only to check and bounds, not {argv[0]}\n"

    def test_usage_error_exit_1(self, capsys):
        assert main(["check", "--n", "7", "--k", "3"]) == 1  # missing --d

    def test_invalid_value_exit_1(self, capsys):
        assert main(["check", "--n", "7", "--k", "3", "--d", "9"]) == 1

    def test_enumeration_guard_exit_1(self, capsys):
        assert main(["check", "--n", "30", "--k", "7", "--d", "2"]) == 1

    @pytest.mark.parametrize("command", ["construct", "certify"])
    def test_source_flag_required(self, command, capsys):
        assert main([command, "k1"]) == 1
        assert "one of the arguments --in --star is required" in capsys.readouterr().err

    def test_source_flags_exclusive(self, capsys):
        assert main(["certify", "k1", "--in", "star.fam", "--star", "11,3,1"]) == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["construct", "certify"])
    def test_empty_family_exit_1(self, command, tmp_path, capsys):
        path = tmp_path / "empty.fam"
        path.write_text("n=11 k=3\n")
        assert main([command, "k1", "--in", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: the family is empty\n")

    def test_edge_flag_names_the_first_edge(self, capsys):
        default = run(capsys, "construct", "k1", "--star", "11,3,1")
        assert run(capsys, "construct", "k1", "--star", "11,3,1", "--edge", "3,1,2") == default

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["certify", "k1", "--star", "20,3"], "--star expects n,k,center, got '20,3'"),
            (["certify", "k1", "--star", "20,x,1"], "--star expects n,k,center, got '20,x,1'"),
            (["certify", "k1", "--star", "20,3,1,4"], "--star expects n,k,center, got '20,3,1,4'"),
            (
                ["construct", "k1", "--star", "20,3,1", "--edge", "0,1,2"],
                "--edge expects comma-separated labels in 1..20, got '0,1,2'",
            ),
            (
                ["construct", "k1", "--star", "20,3,1", "--edge", "1,2,21"],
                "--edge expects comma-separated labels in 1..20, got '1,2,21'",
            ),
            (
                ["construct", "k1", "--star", "20,3,1", "--edge", "1,1,2"],
                "--edge expects comma-separated labels without repeats, got '1,1,2'",
            ),
            (
                ["construct", "k1", "--star", "20,3,1", "--edge", "1,,2"],
                "--edge expects comma-separated labels, got '1,,2'",
            ),
            (["check", "--n", "7", "--k", "3", "--d", "2", "--budget-nodes", "-1"], "max_nodes must be >= 0, got -1"),
            (["search", "--n", "7", "--k", "3", "--d", "2", "--target", "2", "--budget-ms", "-5"], "max_ms must be >= 0, got -5"),
            (["bounds", "--k-min", "3", "--k-max", "5", "--d-rule", "d=x"], "--d-rule expects k-1, k-2 or d=<int>, got 'd=x'"),
            (["bounds", "--k-min", "3", "--k-max", "5", "--d-rule", "k-3"], "--d-rule expects k-1, k-2 or d=<int>, got 'k-3'"),
            (["certify", "k1", "--star", "20,3,25"], "center 25 outside [1..20]"),
            (["gen", "hm", "--n", "5", "--k", "1"], "k >= 2 required"),
            (["construct", "k1", "--star", "10,1,1"], "k >= 2 required"),
        ],
        ids=[
            "star-short",
            "star-not-int",
            "star-long",
            "edge-zero",
            "edge-above-n",
            "edge-repeat",
            "edge-empty-label",
            "budget-nodes-negative",
            "budget-ms-negative",
            "d-rule-not-int",
            "d-rule-unknown",
            "star-center-outside",
            "hm-k-1",
            "construct-k-1",
        ],
    )
    def test_malformed_flag_exit_1(self, argv, message, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")


# Whole stdout of certify and construct, pinned by sha256 with the exit
# code.  construct k2 needs n >= 230 and certify k2 n >= 232 at k = 3.
PINNED_FILES = {
    "star-11-3": ["star", "--n", "11", "--k", "3", "--center", "2"],
    "hm-11-3": ["hm", "--n", "11", "--k", "3"],
    "star-232-3": ["star", "--n", "232", "--k", "3", "--center", "1"],
    "hm-232-3": ["hm", "--n", "232", "--k", "3"],
}
PINNED_RUNS = {
    "certify k1 star-11-3": (0, "55c169a0db8ac5d621064437e46353d52b4d3eb3bd63891391261ac8c717e5e0"),
    "certify k1 hm-11-3": (2, "23765e1a65635e1090182f3e0541400348ebbde4f6a73bda28f1fbc4adb82744"),
    "construct k1 star-11-3": (0, "6ff57f064f2a29141392784e2ba9a0edecdacd8f341f64fce1c207dfe0139023"),
    "construct k1 hm-11-3": (0, "85939de93de4c2fbd6a721e8e7a5db33ae544c986f9bb29555591d5c01b7e2ee"),
    "certify k2 star-232-3": (0, "69e5c14403c4ce797abffef701c24def87076470c078d09cb915bb6e8406c32b"),
    "certify k2 hm-232-3": (2, "3e684f33a8aeb461785b65bee7d715cf6d98c0811e452091204a107f946f430e"),
    "construct k2 star-232-3": (0, "73f532224e079ba46ac934fb66cf14492523f3f9c5d1f0f2e219ca773a37a99a"),
    "construct k2 hm-232-3": (2, "2b095a1575da5442a2bea30c1674e15c838e0ced9fdccdae62dc56c9cfa0e97d"),
    "certify k2 --star 232,3,7": (0, "4571b066b1bf1e7d1561870623414b3fa9f999c93ee9e3b636eda37b00511a3c"),
}


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, argv in PINNED_FILES.items():
        paths[name] = str(folder / f"{name}.fam")
        assert main(["gen", *argv, "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("run_name", sorted(PINNED_RUNS))
def test_pinned_stdout(run_name, pinned_files, capsys):
    command, level, *rest = run_name.split()
    argv = [command, level, *(["--in", pinned_files[rest[0]]] if rest[0] in pinned_files else rest)]
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_RUNS[run_name]
