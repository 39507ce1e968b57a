"""Command-line surface.

Subcommands: gen {star|hm|random|all-maximal}, stats, check, search,
construct {k1|k2}, certify {k1|k2}, bounds.  Exit codes: 0 for
holds/exhausted/star, 2 for violated/found, 1 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import re
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Optional

from . import bounds as bnd
from .constructions import (
    Certificate,
    certify_star_k1,
    certify_star_k2,
    shrink_core_k1,
    shrink_core_k2,
)
from .family import Family, covers_size1, disjoint_pair
from .generators import (
    Budget,
    ResourceLimitError,
    complete_star,
    enumeration_report,
    hilton_milner,
    random_maximal_intersecting,
)
from .io import family_text, read_family, to_json, write_family
from .masks import labels, mask_of
from .oracles import ExplicitOracle, FamilyOracle, StarOracle, min_degree
from .verify import CSV_HEADER, check_theorem, search_counterexample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FOUND = 2


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _flag_ints(flag: str, text: str, form: str, count: Optional[int] = None, n: Optional[int] = None) -> list[int]:
    """The comma-separated integers of a flag value, exactly ``count`` of them
    if given.  With ``n`` they are vertex labels: each in 1..n, none repeated.
    Errors are ValueErrors that name the flag and the form it expects."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or count is not None and len(values) != count:
        raise ValueError(f"{flag} expects {form}, got {text!r}")
    if n is not None:
        if not all(1 <= x <= n for x in values):
            raise ValueError(f"{flag} expects {form} in 1..{n}, got {text!r}")
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} expects {form} without repeats, got {text!r}")
    return values


def _emit_report(args: argparse.Namespace, report, header: list[str], rows: list, lines: list[str]) -> None:
    """``report`` as JSON, ``rows`` under ``header`` as csv, or ``lines`` as text, by ``--format``."""
    if args.format == "csv":
        buf = _io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        _emit(args, buf.getvalue())
    elif args.format == "text":
        _emit(args, "\n".join(lines))
    else:
        _emit(args, to_json(report, indent=2))


def _load_oracle(args: argparse.Namespace) -> FamilyOracle:
    if args.infile is not None:
        return ExplicitOracle(read_family(args.infile))
    n, k, v = _flag_ints("--star", args.star, "n,k,center", count=3)
    return StarOracle(n, k, v)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_ms=getattr(args, "budget_ms", None), max_nodes=getattr(args, "budget_nodes", None))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "star":
        fam = complete_star(args.n, args.k, args.center)
    elif args.kind == "hm":
        fam = hilton_milner(args.n, args.k)
    elif args.kind == "random":
        fam = random_maximal_intersecting(args.n, args.k, args.seed)
    else:  # all-maximal
        out_dir = Path(args.out_dir) if args.out_dir else None
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)

        def sink(idx: int, fam: Family) -> None:
            if out_dir:
                write_family(out_dir / f"family_{idx:05d}.fam", fam)

        report = enumeration_report(args.n, args.k, args.dedup, on_family=sink)
        _emit(args, to_json(report, indent=2))
        return EXIT_OK
    if args.out:
        write_family(args.out, fam)
    else:
        sys.stdout.write(family_text(fam))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    fam = read_family(args.infile)
    pair = disjoint_pair(fam)
    common, vacuous = covers_size1(fam)
    deltas = {}
    for d in range(1, fam.params.k):
        val, arg = min_degree(fam, d)
        deltas[d] = {"value": val, "argmin": list(labels(arg))}
    report = {
        "n": fam.params.n,
        "k": fam.params.k,
        "edges": len(fam),
        "intersecting": pair is None,
        "disjoint_pair": [list(labels(pair[0])), list(labels(pair[1]))] if pair else None,
        "covers_size1": list(labels(common)) if not vacuous else "all (empty family)",
        "min_degree": deltas,
    }
    _emit(args, to_json(report, indent=2))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    report = check_theorem(args.n, args.k, args.d, dedup_mode=args.dedup, budget=_budget(args))
    text = (
        f"{report.rule} n={report.n} k={report.k} d={report.d}: "
        f"max delta_{report.d} = {report.max_delta}, bound = {report.bound} -> {report.verdict} "
        f"({report.families_checked} families, {report.elapsed_ms:.0f} ms)"
    )
    _emit_report(args, report, CSV_HEADER, [report.csv_row()], [text])
    return EXIT_FOUND if report.verdict == "violated" else EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    report = search_counterexample(args.n, args.k, args.d, args.target, budget=_budget(args))
    _emit(args, to_json(report, indent=2))
    return EXIT_FOUND if report.outcome == "found" else EXIT_OK


def _construct_payload(procedure: str, oracle: FamilyOracle, result, vertex_bound: int) -> dict:
    payload = {
        "procedure": procedure,
        "params": {"n": oracle.params.n, "k": oracle.params.k},
        "outcome": "ok" if result.ok else "violation",
        "vertex_bound": vertex_bound,
    }
    if result.ok:
        payload["subfamily"] = result.subfamily
        payload["vertex_actual"] = result.subfamily.vertex_set.bit_count()
        if result.cover_vertex is not None:
            payload["cover_vertex"] = result.cover_vertex
    else:
        payload["witness"] = result.violation
    payload["queries_used"] = result.trace.queries_used
    payload["steps"] = result.trace.steps
    payload["parameters"] = result.trace.parameters
    return payload


def cmd_construct(args: argparse.Namespace) -> int:
    oracle = _load_oracle(args)
    if args.edge:
        e = mask_of(_flag_ints("--edge", args.edge, "comma-separated labels", n=oracle.params.n))
    else:
        e = oracle.first_edge()
    if e is None:
        raise ValueError("the family is empty")
    shrink, vertex_bound = {
        "k1": (shrink_core_k1, bnd.shrink_vertex_bound_k1),
        "k2": (shrink_core_k2, bnd.shrink_vertex_bound_k2),
    }[args.level]
    result = shrink(oracle, e)
    payload = _construct_payload(f"shrink-core-{args.level}", oracle, result, vertex_bound(oracle.params.k))
    _emit(args, to_json(payload, indent=2))
    return EXIT_OK if result.ok else EXIT_FOUND


def cmd_certify(args: argparse.Namespace) -> int:
    oracle = _load_oracle(args)
    fn = certify_star_k1 if args.level == "k1" else certify_star_k2
    cert: Certificate = fn(oracle, seed=args.seed)
    payload = {
        "procedure": f"certify-star-{args.level}",
        "params": {"n": oracle.params.n, "k": oracle.params.k},
        **cert.to_dict(),
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if cert.is_star else EXIT_FOUND


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.d_rule not in ("k-1", "k-2") and not re.fullmatch(r"d=[+-]?\d+", args.d_rule):
        raise ValueError(f"--d-rule expects k-1, k-2 or d=<int>, got {args.d_rule!r}")
    ks = list(range(args.k_min, args.k_max + 1))
    rows = bnd.bound_table(ks, args.d_rule)
    lines = [f"k={r.k} d={r.d}: threshold n >= {r.threshold}, bound {r.bound_at_threshold}" for r in rows]
    _emit_report(args, rows, [f.name for f in fields(bnd.BoundRow)], [astuple(r) for r in rows], lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ekrlab", description="Intersecting-family codegree workbench")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--seed", type=int, default=0)
    # Same options accepted after the subcommand; SUPPRESS keeps the
    # top-level value when the subcommand omits them.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"], default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    # --n/--k/--d of check and search; the level and source of construct and certify
    cell = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--k", "--d"):
        cell.add_argument(flag, type=int, required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("level", choices=["k1", "k2"])
    given = source.add_mutually_exclusive_group(required=True)
    given.add_argument("--in", dest="infile")
    given.add_argument("--star", help="implicit complete star as n,k,center")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate families")
    gsub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("star", "hm", "random", "all-maximal"):
        gp = gsub.add_parser(kind, parents=[common])
        gp.add_argument("--n", type=int, required=True)
        gp.add_argument("--k", type=int, required=True)
        if kind == "star":
            gp.add_argument("--center", type=int, required=True)
        if kind == "all-maximal":
            gp.add_argument("--dedup", choices=["labeled", "canonical"], default="labeled")
            gp.add_argument("--out-dir", help="write one .fam file per family")
        gp.set_defaults(func=cmd_gen)

    stats = sub.add_parser("stats", help="summarize a family file", parents=[common])
    stats.add_argument("--in", dest="infile", required=True)
    stats.set_defaults(func=cmd_stats)

    check = sub.add_parser("check", help="bound check over all maximal families", parents=[common, cell])
    check.add_argument("--dedup", choices=["labeled", "canonical"], default="labeled")
    check.set_defaults(func=cmd_check)

    search = sub.add_parser("search", help="counterexample search", parents=[common, cell])
    search.add_argument("--target", type=int, required=True)
    search.set_defaults(func=cmd_search)
    for p in (check, search):
        p.add_argument("--budget-ms", type=int, default=None)
        p.add_argument("--budget-nodes", type=int, default=None)

    construct = sub.add_parser("construct", help="run a core-shrinking construction", parents=[common, source])
    construct.add_argument("--edge", help="starting edge as comma-separated labels")
    construct.set_defaults(func=cmd_construct)

    certify = sub.add_parser("certify", help="run a star certification", parents=[common, source])
    certify.set_defaults(func=cmd_certify)

    bounds_p = sub.add_parser("bounds", help="threshold/bound table", parents=[common])
    bounds_p.add_argument("--k-min", type=int, required=True)
    bounds_p.add_argument("--k-max", type=int, required=True)
    bounds_p.add_argument("--d-rule", default="k-1", help='"k-1", "k-2", or "d=<int>"')
    bounds_p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.format != "json" and args.func not in (cmd_check, cmd_bounds):
            raise ValueError(f"--format {args.format} applies only to check and bounds, not {args.command}")
        return args.func(args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
