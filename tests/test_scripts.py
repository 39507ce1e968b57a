"""Smoke tests for the experiment scripts, each run in a subprocess."""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

from ekrlab.verify import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=120
    )


def test_structure_lemma_sweep_prints_totals():
    done = run_script("structure_lemma_sweep.py", "--vertices", "5", "6")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("5 vertices: 1024 graphs, 386 dense non-stars, OK (")
    assert lines[1].startswith("6 vertices: 32768 graphs, 27824 dense non-stars, OK (")


def test_structure_lemma_sweep_refuses_negative_vertex_count():
    done = run_script("structure_lemma_sweep.py", "--vertices", "-3")
    assert done.returncode != 0
    assert "at least 0" in done.stderr
    assert "OK" not in done.stdout


def test_threshold_sweep_writes_one_row_per_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    done = run_script("threshold_sweep.py", "--n-max", "6", "--k-max", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == CSV_HEADER
    cells = [(n, k, d) for k in (2, 3) for n in range(k + 1, 7) for d in range(1, k)]
    col = {name: header.index(name) for name in ("n", "k", "d")}
    assert [(int(r[col["n"]]), int(r[col["k"]]), int(r[col["d"]])) for r in rows] == cells
    assert f"wrote {len(cells)} rows to {out}" in done.stdout


def test_line_trace_lists_unrun_lines_of_one_test():
    # the sampled LowCodegree refutation of the k-2 final check runs; the
    # k-1 level, which this test never enters, is listed as unrun
    test = "tests/test_constructions_adversarial.py::TestSampledLowCodegree"
    done = run_script("line_trace.py", test, "-q")
    assert done.returncode == 0, done.stdout + done.stderr
    unrun = [line.split(": ", 1)[1] for line in done.stdout.splitlines() if line.startswith("constructions.py:")]
    source = {line.strip() for line in (SCRIPTS.parent / "src" / "ekrlab" / "constructions.py").read_text().splitlines()}
    ran = [
        "failure = co.first_failure(edges, rows, required)",  # the batch's degree queries
        "raise _Refuted(LowCodegree(row_masks(rows[i : i + 1])[0], failure.degree, required))",
    ]
    for line in ran:
        assert line in source  # a line that moved would pass the next check vacuously
        assert line not in unrun
    assert "return sqrt_term(k) - 1" in unrun  # _K1.ell
    assert done.stdout.splitlines()[-1].endswith("executable lines never ran")


def test_line_trace_reads_another_file():
    # two small written texts take the bulk route, one on each branch of row_masks
    tests = [
        "tests/test_io.py::TestBulkRoute::test_lines_longer_than_a_block",  # n = 26: uint64
        "tests/test_io.py::TestRead::test_memory_does_not_grow_with_n",  # n = 10^6: folds
    ]
    done = run_script("line_trace.py", "--file", "masks.py", *tests, "-q")
    assert done.returncode == 0, done.stdout + done.stderr
    unrun = [line.split(": ", 1)[1] for line in done.stdout.splitlines() if line.startswith("masks.py:")]
    source = {line.strip() for line in (SCRIPTS.parent / "src" / "ekrlab" / "masks.py").read_text().splitlines()}
    ran = [
        "return np.bitwise_or.reduce(bits, axis=1).tolist()",
        "acc = map(or_, acc, map(lshift, repeat(1), col))",
    ]
    for line in ran:
        assert line in source  # a line that moved would pass the next check vacuously
        assert line not in unrun
    assert "raise ValueError(\"base already larger than requested size\")" in unrun
    assert not any(line.startswith(("constructions.py:", "io.py:")) for line in done.stdout.splitlines())


def test_mutants_reports_a_killed_mutant():
    # the consolidation test catches a second query set that ignores the reduced covers
    done = run_script("mutants.py", "aux-union-never-grown")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["aux-union-never-grown: killed"]
