"""Pinned reports: the sha256 of ``io.to_json`` per request.

``elapsed_ms`` is removed before hashing; everything else in the report
(maximum, achievers, star flag, verdict, counts, nodes) is pinned.  The
cells cover labeled and canonical ``check_theorem`` (one canonical cell
stopped by a node budget), both search outcomes, enumeration reports in
both dedup modes, a bound table and structure sweeps at 5, 7 and 8
vertices.  A report whose fields moved is also pinned without them, by
the digest it had before the move.  The same digests must come out under
``python -O``, which strips bare asserts.  Run this file as a script to
print the map as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import ekrlab
from ekrlab.bounds import bound_table
from ekrlab.generators import Budget, enumeration_report
from ekrlab.graphs import structure_sweep
from ekrlab.io import to_json
from ekrlab.verify import check_theorem, search_counterexample
from test_certify_golden import sha256, without


def report_cases() -> dict:
    """Report name -> thunk returning the report."""
    cases = {}
    for n, k, d in [(7, 3, 1), (7, 3, 2), (8, 3, 1), (8, 3, 2)]:
        cases[f"check/labeled-{n}-{k}-{d}"] = lambda n=n, k=k, d=d: check_theorem(n, k, d)
    for n, k, d in [(6, 3, 1), (6, 3, 2), (7, 2, 1), (7, 3, 2), (8, 3, 2), (9, 3, 2)]:
        cases[f"check/canonical-{n}-{k}-{d}"] = lambda n=n, k=k, d=d: check_theorem(n, k, d, "canonical")
    cases["check/canonical-8-4-3-nodes-20000"] = lambda: check_theorem(8, 4, 3, "canonical", Budget(max_nodes=20_000))
    for cell in [(6, 3, 2, 2), (7, 3, 2, 2)]:
        cases["search/" + "-".join(map(str, cell))] = lambda cell=cell: search_counterexample(*cell)
    for mode in ("labeled", "canonical"):
        cases[f"enumeration/{mode}-6-3"] = lambda mode=mode: enumeration_report(6, 3, mode)
    cases["bounds/k-2-2-8"] = lambda: bound_table(range(2, 9), "k-2")
    for nv in (5, 7, 8):
        cases[f"sweep/{nv}"] = lambda nv=nv: structure_sweep(nv)
    return cases


def digest(report) -> str:
    payload = json.loads(to_json(report))
    if isinstance(payload, dict):  # a bound table is a list of rows, untimed
        del payload["elapsed_ms"]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def all_digests() -> dict[str, str]:
    return {name: digest(run()) for name, run in report_cases().items()}


REPORT_GOLDEN: dict[str, str] = {
    "check/labeled-7-3-1": "5c1a1c5df29a80c1caae1d1d6464544a2cc323de32a994a15c1479da71853ded",
    "check/labeled-7-3-2": "643a796f425d5f8232fb2a0226e1527c01b702b43b1ce6b632e14eb59d90a559",
    "check/labeled-8-3-1": "3805634c886d77b4e62ba07b1e9e099bb01d474e2437a26d1ba22108a278c4d7",
    "check/labeled-8-3-2": "82f8d7f1bb49323cb0a98892c302cd56c1c4f491a0ca00972022fd8a0d3a43ba",
    "check/canonical-6-3-1": "c650011cc1403d38b43c74f8fca77f754db25e6582e91291e6def1b52c8a099c",
    "check/canonical-6-3-2": "7524033eda28f3ac03ac11dfcd7af7e6a6bd1cf1899fcf40d6e99083a1b578ad",
    "check/canonical-7-2-1": "f2f940da0f2296e25a8c14fd3a64a787c715f70b547637202be9432b712d71db",
    "check/canonical-7-3-2": "42f29a07979ca0378a21236136e986169b50b5566197ec94088cd9a8a65eb762",
    "check/canonical-8-3-2": "bbcd22514b2fddb52872f8ed25b254a4a961e41e11254a263be9060e405dc92c",
    "check/canonical-9-3-2": "f1e837663401847a0b9761ead77ab6c5d73b13afea079c5fefa556ae2e87e1a9",
    "check/canonical-8-4-3-nodes-20000": "c8c99d05e54128c8991663b936a2c1de68744811feedbda4c823dfd942dfd712",
    "search/6-3-2-2": "dbcde593b6b1b7c57098251339e6899d708709cf95d15e9f76996c49e83ffca8",
    "search/7-3-2-2": "abb76a46553353ae78dbb9df9a2bb8ac0126e44e8cf35da56173c8eb8464cd9c",
    "enumeration/labeled-6-3": "3bad756ba1c142217ca5303f44aeecf5a5e7fc98edb86e38a7731be40167d819",
    "enumeration/canonical-6-3": "7bed4dfc0e0e0ae2d0373c09187f46087fe153f0af2d19fd44b2af3f4a66732e",
    "bounds/k-2-2-8": "5e4e4db856d21672076144d703502e88a6ba315f7b3057279db3d1093e936f53",
    "sweep/5": "7ccd03b31a280d8496575cc5c5b0c2e833bd8717f8600057e201772d7e5ec45a",
    "sweep/7": "4e4091964198bf887739d2e2398c5b37f67809215b56838b6fdb2295ddf2fb05",
    "sweep/8": "3b1fcfe78d80d7e2c2e865ea15f55222bf18abee6d195c5b2bdd85e46684a12e",
}


# As in test_certify_golden.py, a moved report is pinned twice: in full
# above, and here without its moved fields by the digest it had before.
# A search leaves the walk at its first clique without [k], so the
# exhausted (7,3,2) search walks 4,407 nodes instead of 14,544 and every
# other field stays.
NODES_MOVED = frozenset({"elapsed_ms", "nodes"})
REPORT_BEFORE: dict[str, str] = {
    "search/7-3-2-2": "a1cd364621f62b53094a76bcaf5f9358abbab21c62571c1e8b1b460e6d2706c3",
}


def test_report_digests():
    assert all_digests() == REPORT_GOLDEN


def test_moved_reports_keep_their_digest_before():
    cases = report_cases()
    assert {name: sha256(without(to_json(cases[name]()), NODES_MOVED)) for name in REPORT_BEFORE} == REPORT_BEFORE


def test_report_digests_under_optimize_flag():
    src = str(Path(ekrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", __file__], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert json.loads(done.stdout) == REPORT_GOLDEN


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1))
