#!/usr/bin/env python3
"""Probe whether the codegree bound C(n-d-1, k-d-1) can fail near n = 2k.

Sweeps (n, k, d) cells around the 2k boundary, searching each for an
intersecting family whose minimum d-degree exceeds the bound.  A "found"
at n = 2k and an "exhausted" at n = 2k+1 are the interesting outcomes:
the first shows 2k is not enough, the second is evidence that 2k+1 is.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ekrlab.bounds import codegree_bound
from ekrlab.generators import Budget, ResourceLimitError
from ekrlab.io import to_json
from ekrlab.masks import labels
from ekrlab.verify import search_counterexample


@dataclass
class ProbeConfig:
    k_values: list[int]
    d: int
    offsets: list[int]  # n = 2k + offset
    budget_ms: int
    out_dir: Path


def run(cfg: ProbeConfig) -> list[dict]:
    rows = []
    for k in cfg.k_values:
        for off in cfg.offsets:
            n = 2 * k + off
            if not (1 <= cfg.d < k):
                continue
            bound = codegree_bound(n, k, cfg.d)
            try:
                rep = search_counterexample(n, k, cfg.d, bound + 1, budget=Budget(max_ms=cfg.budget_ms))
            except ResourceLimitError as exc:  # the enumeration guard; a failed re-verification propagates
                print(f"(n={n}, k={k}, d={cfg.d}): skipped ({exc})")
                continue
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "d": cfg.d,
                    "bound": bound,
                    "outcome": rep.outcome,
                    "delta_found": rep.delta_found,
                    "families_checked": rep.families_checked,
                    "ms": round(rep.elapsed_ms, 1),
                }
            )
            tag = f"n{n}_k{k}_d{cfg.d}"
            (cfg.out_dir / f"probe_{tag}.json").write_text(to_json(rep, indent=2))
            marker = {"found": "COUNTEREXAMPLE", "exhausted": "none exists", "inconclusive": "budget hit"}
            print(f"(n={n}, k={k}, d={cfg.d}): {marker[rep.outcome]}  "
                  f"[{rep.families_checked} maximal families, {rep.elapsed_ms:.0f} ms]")
            if rep.outcome == "found":
                print("   witness:", [list(labels(e)) for e in rep.family])
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, nargs="+", default=[3])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--offsets", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--budget-ms", type=int, default=600_000)
    ap.add_argument("--out-dir", default="probe_reports")
    args = ap.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ProbeConfig(args.k, args.d, args.offsets, args.budget_ms, out_dir)
    rows = run(cfg)
    (out_dir / "summary.json").write_text(json.dumps(rows, indent=2))
    print(f"wrote {len(rows)} probe reports to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
