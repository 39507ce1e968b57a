#!/usr/bin/env python3
"""Check that the tests catch a list of named faults (mutants) in ``src/ekrlab``.

Each mutant is one text edit of one module: an exact text, which must
occur there exactly once, and its replacement, plus the test ids that
must fail once the edit is made.  The script copies ``src``, ``tests``
and ``pyproject.toml`` to a temporary directory; for each mutant it
applies the edit there, runs pytest on the mutant's tests in the copy,
restores the module and prints ``killed`` (some test failed) or
``survived`` (all passed).  The working tree is never edited.

Usage, from the repository root:

    python scripts/mutants.py                      # every mutant
    python scripts/mutants.py part-pairs-keep-own  # the named ones

The mutants' tests are first run once on the unedited copy, where they
must pass.  The exit status is 0 when every mutant run is killed, 1 when
one survives, and 2 when the tests fail unedited, an edit no longer
applies, or pytest stops without running the tests (collection or
usage errors).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/ekrlab
    old: str
    new: str
    tests: tuple[str, ...]


GOLDEN = "tests/test_certify_golden.py"
ADVERSARIAL = "tests/test_constructions_adversarial.py"
FAMILY = "tests/test_family.py"
ANCHORED = "tests/test_generators.py::TestAnchoredCanonical"
VERIFY = "tests/test_verify.py"

MUTANTS = (
    Mutant(
        "part-pairs-keep-own",  # the entry sets of a part pair may use the pair's own parts
        "constructions.py",
        "rest = [r for r in range(len(parts)) if r not in (i, j)]",
        "rest = list(range(len(parts)))",
        (f"{GOLDEN}::test_digests", f"{GOLDEN}::test_shrink_digests"),
    ),
    Mutant(
        "all-stars-whole-vertex-set",  # the common-center finish adds star edges beyond the pair
        "constructions.py",
        "for f in _star_edges(sel, lk, center, area)]",
        "for f in _star_edges(sel, lk, center, vset)]",
        (f"{GOLDEN}::test_digests", f"{GOLDEN}::test_shrink_digests"),
    ),
    Mutant(
        "cherry-reduction-ends-loop",  # the part-pair loop stops after its first cherry reduction
        "constructions.py",
        "current = trace.record(2, nonstar, None, res.reduced)\n            continue",
        "current = trace.record(2, nonstar, None, res.reduced)\n            return current, None",
        (f"{GOLDEN}::test_final_consolidation_digests",),
    ),
    Mutant(
        "aux-union-never-grown",  # the consolidation's second query set ignores the reduced covers
        "constructions.py",
        "        aux_union |= pr\n",
        "        pass\n",
        (f"{GOLDEN}::test_direct_consolidation_outcomes",),
    ),
    Mutant(
        "consolidation-skips-own-center",  # a star link at v is treated as a star elsewhere
        "constructions.py",
        "    if center == v:\n",
        "    if False:\n",
        (f"{GOLDEN}::test_direct_consolidation_outcomes",),
    ),
    Mutant(
        "closed-form-for-subclasses",  # StarOracle subclasses that override answers get the closed form
        "oracles.py",
        "return isinstance(oracle, StarOracle) and cls.contains is _STAR_CONTAINS and cls.degree is _STAR_DEGREE",
        "return isinstance(oracle, StarOracle)",
        (f"{ADVERSARIAL}::TestBatchDeferral", f"{ADVERSARIAL}::TestAbsentStarEdgeReturned"),
    ),
    Mutant(
        "k2-contains-failure-one-query",  # a failing k-2 row's contains query goes uncounted
        "constructions.py",
        'self.queries += per_row * failure.index + (1 if failure.kind == "degree" else per_row)',
        "self.queries += per_row * failure.index + 1",
        (f"{ADVERSARIAL}::TestBatchAnswers",),
    ),
    Mutant(
        "closed-form-any-width",  # the closed form passes a batch of star edges one vertex short or long
        "oracles.py",
        "stop = (edges >= n).any(axis=1) | ~(edges == c).any(axis=1) | (edges.shape[1] != k)",
        "stop = (edges >= n).any(axis=1) | ~(edges == c).any(axis=1)",
        (f"{ADVERSARIAL}::TestBatchAnswers",),
    ),
    Mutant(
        "closed-form-n-in-range",  # the closed form takes index n (label n + 1) for a vertex of [n]
        "oracles.py",
        "stop = (edges >= n).any(axis=1)",
        "stop = (edges > n).any(axis=1)",
        (f"{ADVERSARIAL}::TestBatchAnswers",),
    ),
    Mutant(
        "star-search-off-by-one",  # the missing-edge binary search skips past a mismatch
        "family.py",
        "            hi = mid\n",
        "            hi = mid - 1\n",
        (f"{FAMILY}::TestCompleteStarOn::test_star_minus_one_edge", f"{FAMILY}::TestVertexIndex"),
    ),
    Mutant(
        "traced-add-unmerged",  # a shrink's added edges are appended, not merged into order
        "constructions.py",
        "tuple(sorted(self.edges + fresh))",
        "self.edges + fresh",
        (f"{GOLDEN}::test_trusted_families_pass_validation",),
    ),
    Mutant(
        "index-run-short",  # a vertex's run of edge ids stops one short
        "family.py",
        "return ids[starts[v] : starts[v + 1]]",
        "return ids[starts[v] : starts[v + 1] - 1]",
        (f"{FAMILY}::TestVertexIndex",),
    ),
    Mutant(
        "k2-stray-unfiltered",  # the k = 2 stray-edge search returns the first edge, met or not
        "constructions.py",
        "next((f for f in co.enumerate_extensions(0) if not f & e), None)",
        "next((f for f in co.enumerate_extensions(0)), None)",
        ("tests/test_constructions.py::TestShrinkK1::test_k2_stray_edge_is_disjoint",),
    ),
    Mutant(
        "link-repeat-allowed",  # a link keeps the pairs of an enumeration that repeats an edge
        "oracles.py",
        "    if any(map(eq, pairs, islice(pairs, 1, None))):\n",
        "    if False:\n",
        (f"{ADVERSARIAL}::TestQueryContractBreaches",),
    ),
    Mutant(
        "swap-visit-before-test",  # a clique joins the visited set before its images are tested
        "generators.py",
        "        known = not visited.isdisjoint(graph.images(clique))\n        visited.add(clique)\n",
        "        visited.add(clique)\n        known = not visited.isdisjoint(graph.images(clique))\n",
        (f"{ANCHORED}::test_same_representatives_as_forming_every_family",),
    ),
    Mutant(
        "swap-image-off-by-one",  # each swap moves a k-set one index short of its image
        "generators.py",
        "d = index[e ^ pair] - j\n",
        "d = index[e ^ pair] - j - 1\n",
        (f"{ANCHORED}::test_same_representatives_as_forming_every_family",),
    ),
    Mutant(
        "orbit-fixes-anchor",  # the orbit closure uses only the transpositions that fix [k]
        "generators.py",
        "for image in self.images(todo.pop(), self.transpositions):",
        "for image in self.images(todo.pop(), self.swaps):",
        (f"{VERIFY}::TestLabeledCut::test_same_report_as_the_full_walk",),
    ),
    Mutant(
        "cut-ignores-achievers",  # the labeled cut stops before the achiever list is full
        "verify.py",
        "if len(achievers) == ACHIEVER_CAP:",
        "if True:",
        (f"{VERIFY}::TestLabeledCut::test_same_report_at_any_achiever_cap",),
    ),
    Mutant(
        "require-debug-only",  # the checks of ruled-out states vanish under python -O, like bare asserts
        "constructions.py",
        "    if not holds:\n",
        "    if __debug__ and not holds:\n",
        (f"{ADVERSARIAL}::TestCrossingAnswers::test_returned_absent_edge_under_optimize_flag",),
    ),
    Mutant(
        "require-never-raises",  # the checks of ruled-out states pass whatever they are given
        "constructions.py",
        "    if not holds:\n",
        "    return\n    if not holds:\n",
        (f"{ADVERSARIAL}::TestRuledOutStates",),
    ),
)


def pytest_in(copy: Path, tests: Sequence[str]) -> subprocess.CompletedProcess:
    # no bytecode caches: a restored module must not be read from a mutant's
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def run(mutant: Mutant, copy: Path) -> str:
    """Apply ``mutant`` in ``copy``, run its tests there and restore the module."""
    path = copy / "src" / "ekrlab" / mutant.module
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return f"error: the text to edit occurs {original.count(mutant.old)} times in {mutant.module}"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        done = pytest_in(copy, mutant.tests)
    finally:
        path.write_text(original)
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error: pytest exited {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)

    status = 0
    with tempfile.TemporaryDirectory(prefix="ekrlab-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)  # pytest's settings
        # a kill only counts if the same tests pass on the unedited copy
        clean = pytest_in(copy, sorted({test for mutant in chosen for test in mutant.tests}))
        if clean.returncode != 0:
            print(f"error: the tests fail without a mutant (pytest exited {clean.returncode})\n{clean.stdout[-2000:]}")
            return 2
        for mutant in chosen:
            verdict = run(mutant, copy)
            print(f"{mutant.name}: {verdict}", flush=True)
            if verdict == "survived":
                status = max(status, 1)
            elif verdict != "killed":
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
