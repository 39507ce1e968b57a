"""Family text format and report serialization.

Format: the first line that is not blank or a comment is the header
``n=<int> k=<int>`` (exactly the keys ``n`` and ``k``, each once, in
either order, 1 <= k <= n), then one edge per line as k strictly
ascending labels in 1..n separated by whitespace; ``#`` starts a comment
and blank lines are skipped.  A label is any spelling ``int()`` accepts
(``7``, ``07``, ``+7``).

A text in exactly the form ``family_text`` writes (the header on line 1,
then lines of k canonical labels ``str(v)`` joined by single spaces, each
ending in ``'\\n'``, all ASCII) is read in bulk: blocks of about
``TEXT_BLOCK`` characters of whole lines are parsed with numpy into rows
of vertex indices, which are sorted into canonical order if they are not
in it already and kept as the family's ``rows``; the masks are built
from them by ``masks.row_masks``.
Any other text, or one with a duplicate edge, is read by one plain loop
over its lines in file order, which parses each line with ``int()`` and
stops at the first error, so both routes return the same family and the
same error.  That loop is the general route, not a fast
one: it holds the text's lines and a set of the masks read so far.

Errors are ``FamilyParseError`` with a 1-based line number, and the first
offending line in file order wins: a bad header, a non-integer label, a
wrong size, a label out of range, labels not strictly ascending, or a
duplicate edge (reported at its second occurrence).

Reports serialize from their fields: a dataclass becomes ``{field: value}``
in field order, with ``Mask`` fields as sorted label lists; a type shaped
otherwise returns JSON-ready values from its ``to_dict()``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any, Iterator

from .family import INDEX_BLOCK, Family, FamilyParams
from .masks import Mask, labels, mask_of, row_dtype, row_masks


TEXT_BLOCK = 1 << 16  # characters of family text per block of the bulk reader and of the writer


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


def _read_lines(text: str) -> Family:
    """Any family text, line by line in file order: the general route and every error."""
    params = None
    seen: set[Mask] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        if params is None:
            params = _header(line, lineno)
            continue
        m = _edge(line, params, lineno)
        if m in seen:
            raise FamilyParseError(f"duplicate edge {list(labels(m))}", lineno)
        seen.add(m)
    if params is None:
        raise FamilyParseError("missing header line", 1)
    return Family(params, tuple(sorted(seen)))


def _written_rows(block: str, n: int, k: int):
    """The edges of ``block``, whole lines of k labels as ``family_text``
    writes them, as rows of vertex indices (label - 1); None if any line is
    shaped otherwise.

    Every byte is a digit, ``' '`` or ``'\\n'``; each run of k separators is
    k-1 spaces and a newline; a label has at most ``len(str(n))`` digits
    and no leading zero, is at most n and exceeds the label before it.
    """
    import numpy as np

    b = np.frombuffer(block.encode("ascii"), np.uint8)
    is_sep = (b == 32) | (b == 10)
    if not (is_sep | ((b - 48) < 10)).all():
        return None
    ends = np.flatnonzero(is_sep)
    seps = b[ends].reshape(-1, k) if len(ends) % k == 0 else None
    if seps is None or not ((seps[:, -1] == 10).all() and (seps[:, :-1] == 32).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    width = len(str(n))  # int64 holds the labels: a Family over n >= 10**18 cannot hold its ground set
    if lengths.min() < 1 or lengths.max() > width or (b[starts] == 48).any():
        return None
    values = np.zeros(len(ends), np.int64)
    for j in range(width, 0, -1):  # Horner over the last `width` bytes before each end
        pos = ends - j
        values = values * 10 + np.where(pos >= starts, b.take(pos, mode="clip"), 48) - 48
    rows = values.reshape(-1, k)
    if values.max() > n or not (rows[:, 1:] > rows[:, :-1]).all():
        return None
    return (rows - 1).astype(row_dtype(n))


def _in_canonical_order(rows) -> bool:
    """Whether each row of vertex indices is above the row before it in
    canonical order: compared from the highest label down."""
    import numpy as np

    above, tied = np.zeros(len(rows) - 1, bool), np.ones(len(rows) - 1, bool)
    for col in rows.T[::-1]:
        above |= tied & (col[1:] > col[:-1])
        tied &= col[1:] == col[:-1]
    return bool(above.all())


def _read_written(text: str):
    """The header and the label rows, in file order, of a text in exactly
    the form ``family_text`` writes with at least one edge, read in blocks
    of whole lines; None otherwise."""
    head = text.find("\n")
    first = text[:head]
    if head < 0 or not text.endswith("\n") or not text.isascii() or not first.isprintable() or not _strip(first):
        return None
    params = _header(_strip(first), 1)  # line 1 of splitlines() too: it holds no line break
    blocks = []
    start, end = head + 1, len(text)
    while start < end:
        # whole lines of at most TEXT_BLOCK characters, or one longer line
        stop = text.rfind("\n", start, start + TEXT_BLOCK) + 1 or text.find("\n", start) + 1
        block = _written_rows(text[start:stop], params.n, params.k)
        if block is None:
            return None
        blocks.append(block)
        start = stop
    if not blocks:
        return None  # a header alone: the plain loop reads it without numpy
    import numpy as np

    return params, np.concatenate(blocks)


def read_family_text(text: str) -> Family:
    read = _read_written(text)
    if read is None:
        return _read_lines(text)
    params, rows = read
    if not _in_canonical_order(rows):  # the writer's files are in order already
        import numpy as np

        rows = rows[np.lexsort(rows.T)]  # the highest label is the first key
        if not _in_canonical_order(rows):
            return _read_lines(text)  # a repeated edge: the loop names its first repeat in file order
    masks: list[Mask] = []
    for lo in range(0, len(rows), INDEX_BLOCK):
        masks.extend(row_masks(rows[lo : lo + INDEX_BLOCK]))
    # the rows are strictly increasing k-sets of [n], and so are their masks
    return Family._trusted(params, tuple(masks), rows)


def read_family(path: str | Path) -> Family:
    return read_family_text(Path(path).read_text())


def _text_blocks(fam: Family) -> Iterator[str]:
    """The family text of ``fam``: the header line, then blocks of whole
    edge lines of about ``TEXT_BLOCK`` characters each.

    A block is cut from ``fam.rows`` through a per-label byte table: row
    v holds ``str(v + 1)`` and a space, padded with zero bytes to one
    width.  A block's rows index the table, the space after each line's
    last label becomes a newline (digits are never spaces), and the
    nonzero bytes, in order, are the block's text.
    """
    n, k = fam.params.n, fam.params.k
    yield f"n={n} k={k}\n"
    if not fam.edges:
        return
    import numpy as np

    width = len(str(n)) + 1  # a label and the separator after it
    names = b"".join(f"{v} ".encode().ljust(width, b"\0") for v in range(1, n + 1))
    table = np.frombuffer(names, np.uint8).reshape(n, width)
    rows = fam.rows
    per = max(1, TEXT_BLOCK // (k * width))  # lines per block
    for start in range(0, len(rows), per):
        cells = table[rows[start : start + per]]  # lines x k x width
        last = cells[:, -1]
        last[last == 32] = 10
        yield cells[cells != 0].tobytes().decode("ascii")


def family_text(fam: Family) -> str:
    return "".join(_text_blocks(fam))


def write_family(path: str | Path, fam: Family) -> None:
    with Path(path).open("w") as f:
        f.writelines(_text_blocks(fam))


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """(name, declared as masks) for each field of a dataclass, in order."""
    return tuple((f.name, "Mask" in str(f.type)) for f in dataclasses.fields(cls))


def _labeled(value: Any) -> Any:
    """A mask, or masks nested in tuples, as sorted label lists; None stays None."""
    if value is None:
        return None
    if isinstance(value, int):
        return list(labels(value))
    return [_labeled(v) for v in value]


def fields_json(obj: Any) -> dict[str, Any]:
    """A dataclass instance as ``{field: JSON-ready value}`` in field order."""
    return {
        name: _labeled(getattr(obj, name)) if is_mask else jsonable(getattr(obj, name))
        for name, is_mask in _fields(type(obj))
    }


def jsonable(obj: Any) -> Any:
    """Reports to JSON-ready structures: ``to_dict()`` where a type has one,
    else a dataclass by its fields; lists, tuples and dicts recurse."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    to_dict = getattr(obj, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return fields_json(obj)
    return obj


def to_json(obj: Any, **kwargs: Any) -> str:
    return json.dumps(jsonable(obj), **kwargs)
