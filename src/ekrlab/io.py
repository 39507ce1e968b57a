"""Family text format and report serialization.

Format: first non-comment line ``n=<int> k=<int>``, then one edge per
line as k ascending 1-based labels separated by spaces; ``#`` starts a
comment.  Duplicate edges, wrong cardinalities, and out-of-range labels
are rejected with the offending line number.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from .family import Family, FamilyParams
from .masks import Mask, labels, mask_of


class FamilyParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def read_family_text(text: str) -> Family:
    params = None
    seen: set[Mask] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if params is None:
            parts = line.split()
            try:
                kv = dict(p.split("=", 1) for p in parts)
                params = FamilyParams(int(kv["n"]), int(kv["k"]))
            except (ValueError, KeyError) as exc:
                raise FamilyParseError(f"expected header 'n=<int> k=<int>', got {line!r}", lineno) from exc
            continue
        try:
            verts = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise FamilyParseError(f"non-integer label in {line!r}", lineno) from exc
        if len(verts) != params.k:
            raise FamilyParseError(f"edge has {len(verts)} labels, expected k={params.k}", lineno)
        if any(not 1 <= v <= params.n for v in verts):
            raise FamilyParseError(f"label outside 1..{params.n}", lineno)
        if sorted(verts) != verts or len(set(verts)) != len(verts):
            raise FamilyParseError("labels must be strictly ascending", lineno)
        m = mask_of(verts)
        if m in seen:
            raise FamilyParseError(f"duplicate edge {verts}", lineno)
        seen.add(m)
    if params is None:
        raise FamilyParseError("missing header line", 1)
    return Family(params, tuple(sorted(seen)))


def read_family(path: str | Path) -> Family:
    return read_family_text(Path(path).read_text())


def family_text(fam: Family) -> str:
    lines = [f"n={fam.params.n} k={fam.params.k}"]
    lines.extend(" ".join(str(v) for v in labels(e)) for e in fam.edges)
    return "\n".join(lines) + "\n"


def write_family(path: str | Path, fam: Family) -> None:
    Path(path).write_text(family_text(fam))


def jsonable(obj: Any) -> Any:
    """Reports to JSON-ready structures; masks become sorted label lists."""
    from .constructions import (
        Certificate,
        ConstructionTrace,
        DisjointEdges,
        LowCodegree,
        NotStar,
        TraceStep,
        TracedFamily,
        ZeroCodegree,
    )

    if isinstance(obj, Certificate):
        out: dict[str, Any] = {"outcome": "star-center" if obj.is_star else "violation"}
        if obj.center is not None:
            out["center"] = obj.center
        if obj.violation is not None:
            out["witness"] = jsonable(obj.violation)
        out["trace"] = jsonable(obj.trace)
        return out
    if isinstance(obj, DisjointEdges):
        return {"kind": "disjoint-edges", "first": list(labels(obj.first)), "second": list(labels(obj.second))}
    if isinstance(obj, ZeroCodegree):
        return {"kind": "zero-codegree", "query_set": list(labels(obj.query_set))}
    if isinstance(obj, LowCodegree):
        return {
            "kind": "low-codegree",
            "query_set": list(labels(obj.query_set)),
            "observed": obj.observed,
            "required": obj.required,
        }
    if isinstance(obj, NotStar):
        out = {"kind": "not-star"}
        if obj.missing is not None:
            out["missing"] = list(labels(obj.missing))
        if obj.offending is not None:
            out["offending"] = list(labels(obj.offending))
        return out
    if isinstance(obj, ConstructionTrace):
        return {
            "steps": [jsonable(s) for s in obj.steps],
            "final_vertex_set": list(labels(obj.final_vertex_set)),
            "queries_used": obj.queries_used,
            "parameters": {k: jsonable(v) for k, v in obj.parameters.items()},
        }
    if isinstance(obj, TraceStep):
        return {
            "phase": obj.phase,
            "query_set": list(labels(obj.query_set)),
            "returned_edge": list(labels(obj.returned_edge)) if obj.returned_edge is not None else None,
            "core": list(labels(obj.core)),
            "core_size": obj.core_size,
            "vertexset_size": obj.vertexset_size,
            "excess": obj.excess,
        }
    if isinstance(obj, TracedFamily):
        return {
            "edges": [list(labels(e)) for e in obj.edges],
            "vertex_set": list(labels(obj.vertex_set)),
        }
    if isinstance(obj, Family):
        return {"n": obj.params.n, "k": obj.params.k, "edges": [list(labels(e)) for e in obj.edges]}
    from .verify import BoundReport, SearchReport

    if isinstance(obj, BoundReport):
        out = {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name != "achievers"}
        out["achievers"] = [[list(labels(e)) for e in edges] for edges in obj.achievers]
        return out
    if isinstance(obj, SearchReport):
        out = {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name != "family"}
        out["family"] = [list(labels(e)) for e in obj.family] if obj.family is not None else None
        return out
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def to_json(obj: Any, **kwargs: Any) -> str:
    return json.dumps(jsonable(obj), **kwargs)
