"""Family text format and report serialization.

Format: the first line that is not blank or a comment is the header
``n=<int> k=<int>`` (exactly the keys ``n`` and ``k``, each once, in
either order, 1 <= k <= n), then one edge per line as k strictly
ascending labels in 1..n separated by whitespace; ``#`` starts a comment
and blank lines are skipped.  A label is any spelling ``int()`` accepts
(``7``, ``07``, ``+7``); lines written in the canonical spelling
``str(v)``, as ``family_text`` writes them, take a table lookup, any
other line the general per-line check.

Errors are ``FamilyParseError`` with a 1-based line number, and the first
offending line in file order wins: a bad header, a non-integer label, a
wrong size, a label out of range, labels not strictly ascending, or a
duplicate edge (reported at its second occurrence).
"""

from __future__ import annotations

import dataclasses
import json
from itertools import islice
from operator import eq
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


def _header(line: str, lineno: int) -> FamilyParams:
    try:
        pairs = [p.split("=", 1) for p in line.split()]
        kv = dict(pairs)
        if len(pairs) != 2 or kv.keys() != {"n", "k"}:
            raise ValueError("header keys must be n and k, each once")
        return FamilyParams(int(kv["n"]), int(kv["k"]))
    except ValueError as exc:
        raise FamilyParseError(f"expected header 'n=<int> k=<int>', got {line!r}", lineno) from exc


def _edge(line: str, params: FamilyParams, lineno: int) -> Mask:
    """The mask of a stripped, nonempty data line, or the line's error."""
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
    return mask_of(verts)


def _raise_first_repeat(lines: list[str], start: int, stop: int, params: FamilyParams) -> None:
    """Raise the duplicate error of the first edge in ``lines[start:stop]``
    that repeats an earlier one; the lines are known to parse."""
    seen: set[Mask] = set()
    for lineno, raw in enumerate(islice(lines, start, stop), start + 1):
        line = _strip(raw)
        if line:
            m = _edge(line, params, lineno)
            if m in seen:
                raise FamilyParseError(f"duplicate edge {list(labels(m))}", lineno)
            seen.add(m)


def read_family_text(text: str) -> Family:
    lines = text.splitlines()
    params = None
    for lineno, raw in enumerate(lines, 1):
        line = _strip(raw)
        if line:
            params = _header(line, lineno)
            break
    if params is None:
        raise FamilyParseError("missing header line", 1)
    # A line of k canonical labels with rising bits is its mask by OR;
    # blank, comment and any other lines go through _edge.
    start, k = lineno, params.k
    table = {str(v): 1 << (v - 1) for v in range(1, params.n + 1)}
    get = table.get
    masks: list[Mask] = []
    append = masks.append
    for lineno, raw in enumerate(islice(lines, start, None), start + 1):
        toks = raw.split()
        if len(toks) == k:
            prev = m = 0
            for tok in toks:
                b = get(tok, 0)
                if b <= prev:
                    break
                m |= b
                prev = b
            else:
                append(m)
                continue
        line = _strip(raw)
        if line:
            try:
                append(_edge(line, params, lineno))
            except FamilyParseError:
                # a repeat on an earlier line comes first in file order
                _raise_first_repeat(lines, start, lineno - 1, params)
                raise
    # One sort in place; equal neighbours are duplicates, named by a re-walk.
    masks.sort()
    if any(map(eq, masks, islice(masks, 1, None))):
        _raise_first_repeat(lines, start, len(lines), params)
    del lines  # not held while the edge tuple is built
    return Family(params, tuple(masks))


def read_family(path: str | Path) -> Family:
    return read_family_text(Path(path).read_text())


def family_text(fam: Family) -> str:
    n, k = fam.params.n, fam.params.k
    name = [""] + [str(v) for v in range(1, n + 1)]  # the label of bit v-1, by bit length v
    lines = [f"n={n} k={k}"]
    append = lines.append
    for e in fam.edges:
        parts = []
        while e:
            low = e & -e
            parts.append(name[low.bit_length()])
            e ^= low
        append(" ".join(parts))
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
