"""Core-shrinking, cover reduction, and star-certification procedures.

Every procedure follows the same discipline: "arbitrary" choices resolve
to the canonically smallest valid option, every oracle answer is
validated at the boundary, and whenever a query that the degree
hypotheses guarantee comes back short, the procedure returns a
checkable violation witness instead of raising.  Inside a procedure a
witness is raised as ``_Refuted`` where it is found and caught at the
procedure's one exit.  Witnesses re-verify against the oracle via
:meth:`Violation.verify`.  A state that the arguments rule out fails
``_require``, which raises InternalContradictionError under ``python -O`` too.

Each certification witness route is written once: the k-1 gap probe, the
off-center extension of an absent k-1 star edge, the scan of an outside
(k-2)-set's extensions, and the explicit fallback (a disjoint pair or a
low d-set of ``oracle.family``, set when it answers for an explicit family).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from string import Formatter
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

from .bounds import (
    ceil_cbrt_poly,
    certify_threshold_k1,
    certify_threshold_k2,
    ell_param,
    shrink_threshold_k1,
    shrink_threshold_k2,
    shrink_vertex_bound_k2,
    sqrt_term,
    x_param,
)
from .family import Family, FamilyParams, covers_size1, covers_size2, disjoint_pair, is_complete_star_on
from .graphs import find_pattern, is_star_graph, is_subgraph_of_cherry, max_matching_upto
from .io import fields_json
from .masks import (
    Mask,
    bit,
    iter_bits,
    labels,
    lowest_vertex,
    mask_rows,
    popcount,
    row_dtype,
    row_masks,
    smallest_subset,
    fill_to_size,
)
from .oracles import BatchFailure, FamilyOracle, InternalContradictionError, as_oracle, link, min_degree

SAMPLE_BUDGET = 10_000  # seeded final-claim samples on non-explicit oracles
SPOT_BUDGET = 256  # per-window spot checks on non-explicit oracles
SAMPLE_BATCH = 256  # samples per batch of _sample_subsets: one getrandbits call, one swap pass


class _Message(Formatter):
    """``str.format`` in which a ``{:labels}`` field prints a mask's vertex labels."""

    def format_field(self, value, format_spec: str) -> str:
        return str(labels(value)) if format_spec == "labels" else super().format_field(value, format_spec)


def _require(holds: bool, message: str, *values) -> None:
    """Raise InternalContradictionError unless ``holds``, under ``python -O`` too.

    ``holds`` is a fact that the counting arguments, or the oracle's own
    answers, guarantee.  ``message`` is a format string filled from
    ``values`` only on failure, so a passing check formats nothing.
    """
    if not holds:
        raise InternalContradictionError(_Message().format(message, *values))


# ---------------------------------------------------------------------------
# violations


class Violation(ABC):
    kind: ClassVar[str]

    @abstractmethod
    def verify(self, oracle: FamilyOracle) -> bool:
        """Whether the witness holds against ``oracle``'s own answers."""

    def to_dict(self) -> dict:
        """``kind`` first, then the fields that are set."""
        out = {"kind": self.kind}
        out.update((name, value) for name, value in fields_json(self).items() if value is not None)
        return out


class _Refuted(Exception):
    """Carries a witness from where it is found to the procedure's one exit."""

    def __init__(self, violation: Violation):
        super().__init__(violation)
        self.violation = violation


@dataclass(frozen=True)
class DisjointEdges(Violation):
    """Two edges of the family with empty intersection."""

    kind: ClassVar[str] = "disjoint-edges"
    first: Mask
    second: Mask

    def verify(self, oracle: FamilyOracle) -> bool:
        return (
            not self.first & self.second
            and oracle.contains(self.first)
            and oracle.contains(self.second)
        )


@dataclass(frozen=True)
class ZeroCodegree(Violation):
    """A (k-1)-set contained in no edge."""

    kind: ClassVar[str] = "zero-codegree"
    query_set: Mask

    def verify(self, oracle: FamilyOracle) -> bool:
        return oracle.degree(self.query_set) == 0


@dataclass(frozen=True)
class LowCodegree(Violation):
    """A query set whose degree falls short of the guaranteed value."""

    kind: ClassVar[str] = "low-codegree"
    query_set: Mask
    observed: int
    required: int

    def verify(self, oracle: FamilyOracle) -> bool:
        deg = oracle.degree(self.query_set)
        return deg == self.observed and deg < self.required


@dataclass(frozen=True)
class NotStar(Violation):
    """Star claim refuted on an explicit family: a missing or offending edge."""

    kind: ClassVar[str] = "not-star"
    missing: Optional[Mask]
    offending: Optional[Mask]

    def verify(self, oracle: FamilyOracle) -> bool:
        if self.missing is not None and oracle.contains(self.missing):
            return False
        if self.offending is not None and not oracle.contains(self.offending):
            return False
        return self.missing is not None or self.offending is not None


# ---------------------------------------------------------------------------
# traces and result carriers


@dataclass(frozen=True)
class TraceStep:
    phase: int
    query_set: Mask
    returned_edge: Optional[Mask]
    core: Mask
    core_size: int
    vertexset_size: int
    excess: int  # vertexset_size - k


@dataclass
class ConstructionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    final_vertex_set: Mask = 0
    queries_used: int = 0
    parameters: dict = field(default_factory=dict)

    def record(
        self, phase: int, query_set: Mask, returned_edge: Optional[Mask], sub: TracedFamily
    ) -> TracedFamily:
        """Append the step that grew ``sub``, read off its core and vertex set; return ``sub``."""
        core, size = sub.core, popcount(sub.vertex_set)
        step = TraceStep(phase, query_set, returned_edge, core, popcount(core), size, size - sub.params.k)
        self.steps.append(step)
        return sub

    @property
    def excesses(self) -> list[int]:
        return [s.excess for s in self.steps]


@dataclass(frozen=True)
class TracedFamily(Family):
    """A subfamily plus an explicit vertex set (may carry isolated vertices)."""

    vertex_set: Mask

    def __post_init__(self) -> None:
        super().__post_init__()
        union = 0
        for e in self.edges:
            union |= e
        if union & ~self.vertex_set:
            raise ValueError("vertex set must contain every edge")

    @cached_property
    def core(self) -> Mask:
        return covers_size1(self)[0]

    def add(self, new_edges: Iterable[Mask]) -> "TracedFamily":
        """This family with ``new_edges`` added: only the new edges are
        checked, and the two sorted runs are merged (``sorted`` finds them)."""
        fresh = Family(self.params, tuple(sorted({e for e in new_edges if e not in self}))).edges
        vs = self.vertex_set
        for e in fresh:
            vs |= e
        return TracedFamily._trusted(self.params, tuple(sorted(self.edges + fresh)), vertex_set=vs)

    def to_dict(self) -> dict:
        return {name: value for name, value in fields_json(self).items() if name != "params"}


@dataclass(frozen=True)
class ShrinkResult:
    subfamily: Optional[TracedFamily]
    violation: Optional[Violation]
    trace: ConstructionTrace
    cover_vertex: Optional[int] = None  # set by the k-2 shrink on success

    @property
    def ok(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class CherryReduceResult:
    star_center: Optional[int]
    reduced: Optional[TracedFamily]
    pattern: Optional[object]

    @property
    def is_star_link(self) -> bool:
        return self.star_center is not None


@dataclass(frozen=True)
class Certificate:
    center: Optional[int]
    violation: Optional[Violation]
    trace: ConstructionTrace

    @property
    def is_star(self) -> bool:
        return self.center is not None

    def to_dict(self) -> dict:
        out = {"outcome": "star-center" if self.is_star else "violation", "center": self.center}
        if self.violation is not None:
            out["witness"] = self.violation.to_dict()
        out["trace"] = fields_json(self.trace)
        return {key: value for key, value in out.items() if value is not None}


# ---------------------------------------------------------------------------
# oracle plumbing


class CountingOracle(FamilyOracle):
    """Delegating oracle that counts queries and validates every answer.

    One counter serves a whole procedure: ``_shrink`` and ``cherry_reduce``
    ask through the counter they are given rather than wrapping it again,
    so each answer is validated once, and :func:`link` does not check an
    enumeration again.  A closed-form link (``link_pairs``) counts as one
    enumeration query; :func:`link` validates it whole, in one pass.
    """

    checks_answers = True

    def __init__(self, inner: FamilyOracle):
        self.inner = inner
        self.family = inner.family
        self.queries = 0

    @property
    def params(self) -> FamilyParams:
        return self.inner.params

    def contains(self, e: Mask) -> bool:
        self.queries += 1
        return self.inner.contains(e)

    def degree(self, s: Mask) -> int:
        self.queries += 1
        d = self.inner.degree(s)
        _require(d >= 0, "oracle returned a negative degree")
        return d

    def extension(self, base: Mask) -> Optional[Mask]:
        self.queries += 1
        e = self.inner.extension(base)
        return e if e is None else next(self._checked((e,), base, "extension"))

    def enumerate_extensions(self, base: Mask) -> Iterator[Mask]:
        self.queries += 1
        return self._checked(self.inner.enumerate_extensions(base), base, "enumeration")

    def link_pairs(self, base: Mask) -> Optional[Sequence[Mask]]:
        """The inner oracle's closed-form link of ``base``, counted as one query."""
        pairs = self.inner.link_pairs(base)
        if pairs is not None:
            self.queries += 1
        return pairs

    def _checked(self, answers: Iterable[Mask], base: Mask, query: str) -> Iterator[Mask]:
        """The answers, refusing one that is not a k-set of [n] holding ``base``."""
        k, full = self.params.k, self.params.full  # locals: this loop runs once per oracle answer
        for e in answers:
            valid = popcount(e) == k and not e & ~full and e & base == base
            _require(valid, "oracle {} answer {:labels} violates the query contract", query, e)
            yield e

    def first_failure(self, edges, sets=None, required: int = 0) -> Optional[BatchFailure]:
        """The inner oracle's answer, counted as the per-sample loop asks:
        one or two queries per passing row, then the failing row's."""
        failure = self.inner.first_failure(edges, sets, required)
        per_row = 1 if sets is None else 2
        if failure is None:
            self.queries += per_row * len(edges)
            return None
        self.queries += per_row * failure.index + (1 if failure.kind == "degree" else per_row)
        _require(failure.degree is None or failure.degree >= 0, "oracle returned a negative degree")
        return failure


def _random_floats(rng: random.Random, m: int):
    """The next ``m`` values of ``rng.random()`` as a float64 array, from one
    ``rng.getrandbits(64 * m)`` call.

    CPython's ``random()`` takes two 32-bit Mersenne Twister words a, b and
    returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; ``getrandbits`` packs
    the same words least significant first.  Each pair, read as one
    little-endian uint64 w, has a in its low half and b in its high half:
    the 53-bit integer ``((w >> 5) & (2**27 - 1)) << 26 | w >> 38``, times
    2**-53, gives the same floats and leaves ``rng`` in the same state.
    """
    import numpy as np

    pairs = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u8")
    return ((pairs >> 5 & 0x7FFFFFF) << 26 | pairs >> 38) * (1.0 / 9007199254740992.0)


def _sample_subsets(rng: random.Random, pool: Mask, r: int, count: int) -> Iterator:
    """``count`` uniform r-subsets of the pool, a batch at a time.

    Each sample is a partial Fisher-Yates shuffle of the pool's bits in
    ascending order: step i swaps positions i and
    ``i + int(rng.random() * (size - i))``.  Samples are drawn
    SAMPLE_BATCH at a time: the batch's floats, in sample order, come
    from one ``getrandbits`` call read as word pairs (``_random_floats``,
    equal to ``rng.random()`` float for float), then its swaps run as
    numpy column operations across the batch.  Each batch is yielded as
    its b × r label rows: row c holds sample c's vertex indices (label -
    1) in shuffle order, distinct since they fill distinct pool
    positions.  The rows' masks (``row_masks``) and the final ``rng``
    state equal ``count`` one-at-a-time draws, which ``TestSampleSubsets``
    checks against a plain ``rng.random()`` reference.  Batches are drawn
    one at a time, so a caller that draws from ``rng`` between yields sees
    the stream split at the batch boundaries.  The sampler only feeds spot
    checks, never proofs.
    """
    import numpy as np

    members = mask_rows([pool], pool.bit_length(), popcount(pool))[0]
    size = len(members)
    if not 0 <= r <= size:
        raise ValueError(f"cannot sample {r} of {size} pool vertices")
    span = size - np.arange(r, dtype=np.float64)
    steps = np.arange(r)
    while count > 0:
        b = min(SAMPLE_BATCH, count)
        count -= b
        u = _random_floats(rng, b * r).reshape(b, r)
        j = (u * span).astype(np.intp) + steps
        # shuffled[i, c] is position i of sample c; flat index i * b + c
        shuffled = np.repeat(members[:, None], b, axis=1)
        flat = shuffled.reshape(-1)
        targets = (j * b + np.arange(b)[:, None]).T.copy()
        for i in range(r):
            t = targets[i]
            head = flat[i * b : (i + 1) * b].copy()
            flat[i * b : (i + 1) * b] = flat[t]
            flat[t] = head
        yield shuffled[:r].T


def _draw_zs(rng: random.Random, rows, zchoices: Sequence[int]) -> list[int]:
    """Row i's z: ``rng.choice(zchoices)`` redrawn until it avoids row i,
    for each label row in turn, with the same values and final ``rng`` state.

    ``choice`` takes one 32-bit word per candidate: word >> (32 -
    len(zchoices).bit_length()), redrawn when it is len(zchoices) or above.
    The words come in blocks of one ``getrandbits(32 * m)`` call, m the
    number of rows still without a z, which pack them least significant
    first.  Each of those rows takes at least one word, so no word is drawn
    that the one-at-a-time loop would not draw; a block that runs out
    inside a row leaves that row to the next block.
    """
    import numpy as np

    size = len(zchoices)
    shift = 32 - size.bit_length()
    rows = rows.tolist()
    zs: list[int] = []
    while len(zs) < len(rows):
        m = len(rows) - len(zs)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        for c in (words >> shift).tolist():
            if c < size and zchoices[c] not in rows[len(zs)]:
                zs.append(zchoices[c])
    return zs


def _edge_rows(rows, v: int, zs=None):
    """The sampled label rows with v's index appended, and ``zs[i]`` to row i
    when given.  Indices stay distinct: both checks sample a pool without
    v, and the k-2 check redraws each z from it until z avoids its row."""
    import numpy as np

    b, r = rows.shape
    edges = np.empty((b, r + 1 + (zs is not None)), np.promote_types(rows.dtype, row_dtype(v)))
    edges[:, :r] = rows
    edges[:, r] = v - 1
    if zs is not None:
        edges[:, r + 1] = zs
    return edges


# ---------------------------------------------------------------------------
# core shrinking: one entry for both levels


def _counting(source: FamilyOracle | Family) -> CountingOracle:
    """``source`` itself when it is a CountingOracle, else a fresh one around it."""
    return source if isinstance(source, CountingOracle) else CountingOracle(as_oracle(source))


def _shrink(level: _K1 | _K2, source: FamilyOracle | Family, e: Mask) -> ShrinkResult:
    """Check the arguments, run the level's ``grow`` from ``e`` and catch its witness.

    The queries go through ``source`` when it is a CountingOracle (the
    certification's own), else through a fresh one; ``queries_used`` is
    the counter's increase over the shrink.
    """
    co = _counting(source)
    p = co.params
    n, k = p.n, p.k
    need = level.shrink_threshold(k)
    if n < need:
        raise ValueError(f"n >= {need} required for k={k}, got n={n}")
    start = co.queries
    if not co.contains(e):
        raise ValueError(f"edge {labels(e)} is not in the family")
    trace = ConstructionTrace()
    try:
        sub, cover_vertex = level.grow(co, e, trace)
    except _Refuted as refuted:
        return ShrinkResult(None, refuted.violation, trace)
    finally:
        trace.queries_used = co.queries - start
    trace.final_vertex_set = sub.vertex_set
    return ShrinkResult(sub, None, trace, cover_vertex)


# ---------------------------------------------------------------------------
# k-1 core shrinking


def shrink_core_k1(source: FamilyOracle | Family, e: Mask) -> ShrinkResult:
    """Shrink the common core around ``e`` to at most one vertex.

    Produces a subfamily H containing ``e`` with |core(H)| <= 1 on a
    bounded vertex set, or a ZeroCodegree witness when some queried
    (k-1)-set has no extension (which certifies the minimum
    (k-1)-degree is zero).  A DisjointEdges witness is returned when
    the k = 2 fallback exposes a non-intersecting input.
    """
    return _shrink(_K1(), source, e)


def _grow_k1(co: CountingOracle, e: Mask, trace: ConstructionTrace) -> tuple[TracedFamily, None]:
    p = co.params
    k = p.k
    if k == 2:
        partner = None
        for vb in iter_bits(e):
            for f in co.enumerate_extensions(vb):
                if f != e:
                    partner = f if partner is None else min(partner, f)
                    break
        if partner is None:
            stray = next((f for f in co.enumerate_extensions(0) if not f & e), None)
            if stray is not None:
                raise _Refuted(DisjointEdges(e, stray))
            raise _Refuted(ZeroCodegree(smallest_subset(p.full & ~e, 1)))
        trace.parameters["D"] = 1
        sub = TracedFamily(p, tuple(sorted((e, partner))), e | partner)
        return trace.record(1, smallest_subset(e, 1), partner, sub), None

    current = trace.record(1, 0, None, TracedFamily(p, (e,), e | smallest_subset(p.full & ~e, 1)))
    terminal_fired = False
    for _ in range(k + 2):
        core = current.core
        if popcount(core) <= 1:
            break
        outside = current.vertex_set & ~core
        terminal = popcount(outside) >= k - 1
        if terminal:
            w = smallest_subset(outside, k - 1)
        else:
            w = outside | smallest_subset(core, k - 1 - popcount(outside))
        f = co.extension(w)
        if f is None:
            raise _Refuted(ZeroCodegree(w))
        prev = trace.steps[-1]
        current = trace.record(1, w, f, current.add([f]))
        _require(terminal or popcount(current.core) <= prev.core_size - prev.excess, "a k-1 step kept its core")
        _require(trace.steps[-1].excess - prev.excess in (0, 1), "a k-1 step added more than one vertex")
        if terminal:
            terminal_fired = True
            break
    _require(popcount(current.core) <= 1, "the k-1 shrink stopped with a core of two or more vertices")

    # The stopping index of the underlying argument is the state just
    # before a terminal query (one that draws the whole query set from
    # outside the core), so the excess cap applies up to that state.
    d_seq = trace.excesses
    stop = len(d_seq) - 2 if terminal_fired else len(d_seq) - 1
    big_d = d_seq[stop - 1] if stop >= 1 else d_seq[-1]
    _require(sum(d_seq[:stop]) <= k, "the excesses before the stop sum past k = {}", k)
    _require(big_d * (big_d + 1) <= 2 * k, "D = {} breaks D(D+1) <= 2k at k = {}", big_d, k)
    _require(popcount(current.vertex_set) <= k + big_d + 2, "the k-1 subfamily spans more than k+D+2 vertices")

    trace.parameters["D"] = big_d
    return current, None


# ---------------------------------------------------------------------------
# cover reduction through link patterns


def cherry_reduce(
    source: FamilyOracle | Family, sub: TracedFamily, base: Mask, area: Mask
) -> CherryReduceResult:
    """Either the link of ``base`` is the complete star on the co-set, or
    a bounded extension of ``sub`` whose size-two covers inside ``area``
    form a subgraph of a cherry.

    The extension adds the edges base | {x,y} over the edges xy of a
    3-matching, Q, or K4 found in the link (at most six new vertices).
    The link is asked through ``source`` when it is a CountingOracle (the
    shrink's own), else through a fresh one.
    """
    co = _counting(source)
    n, k = co.params.n, co.params.k
    if popcount(base) != k - 2:
        raise ValueError(f"base must be a (k-2)-set, got {labels(base)}")
    if base & area:
        raise ValueError("base and area must be disjoint")
    if n < k + 5:
        raise ValueError(f"n >= k+5 = {k + 5} required")
    lk = link(co, base)
    required = n - k + 1
    if len(lk) < required:
        raise ValueError(f"degree of {labels(base)} is {len(lk)}, below the required {required}")
    center = is_star_graph(lk)
    if center is not None:
        return CherryReduceResult(star_center=center, reduced=None, pattern=None)
    reduced, witness, _ = _reduce_link(sub, base, area, lk)
    return CherryReduceResult(star_center=None, reduced=reduced, pattern=witness)


def _reduce_link(sub: TracedFamily, base: Mask, area: Mask, lk: Family) -> tuple[TracedFamily, object, Family]:
    """:func:`cherry_reduce`'s pattern step on ``lk``, the non-star link of ``base``: ``sub``
    with the pattern's edges added, the pattern, and their size-two covers inside ``area``."""
    witness = find_pattern(lk)
    _require(witness is not None, "link with >= 6 edges and no star center admits no 3-matching, Q, or K4")
    reduced = sub.add([base | xy for xy in witness.edges])
    _require(popcount(reduced.vertex_set) <= popcount(sub.vertex_set) + 6, "a pattern added over six vertices")
    cov = covers_size2(reduced, area)
    _require(is_subgraph_of_cherry(cov.edges), "the covers left inside the area form no subgraph of a cherry")
    return reduced, witness, cov


# ---------------------------------------------------------------------------
# k-2 core shrinking (two phases)


def _link_at_least(co: FamilyOracle, w: Mask) -> Family:
    """The link of the (k-2)-set ``w``; a LowCodegree witness when it has fewer than n-k+1 pairs."""
    lk = link(co, w)
    required = co.params.n - co.params.k + 1
    if len(lk) < required:
        raise _Refuted(LowCodegree(w, len(lk), required))
    return lk


def _star_edges(sel: Mask, lk: Family, center: int, among: Mask) -> list[Mask]:
    """The edges sel | {center, z} for every z in ``among`` outside sel and the center.

    Only called on a link of a (k-2)-set with >= n-k+1 pairs that all meet
    ``center``, which holds every such pair.
    """
    cbit = bit(center)
    added = []
    for zbit in iter_bits(among & ~(sel | cbit)):
        pr = cbit | zbit
        _require(pr in lk, "the star link at {} lacks the pair {:labels}", center, pr)
        added.append(sel | pr)
    return added


def _select_outside(current: TracedFamily, avoid: Mask) -> tuple[TracedFamily, Mask]:
    """The lowest (k-2)-set of V(current) outside ``avoid``, padding V(current)
    with isolated vertices when too few are left."""
    p = current.params
    short = p.k - 2 - popcount(current.vertex_set & ~avoid)
    if short > 0:
        current = TracedFamily(
            p, current.edges, fill_to_size(current.vertex_set, popcount(current.vertex_set) + short, p.full)
        )
    return current, smallest_subset(current.vertex_set & ~avoid, p.k - 2)


def _outside_miss(co: FamilyOracle, w: Mask, ctx_edges: Sequence[Mask]) -> Optional[DisjointEdges]:
    """The first extension of the (k-2)-set ``w`` with the first context edge it misses, if any."""
    for t in _link_at_least(co, w).edges:
        g = w | t
        for h in ctx_edges:
            if not g & h:
                return DisjointEdges(g, h)
    return None


def _refute_by_outside_query(co: FamilyOracle, ctx_edges: Sequence[Mask], ctx_vertex_set: Mask) -> Violation:
    """Produce a witness from a (k-2)-set outside a small context family.

    Any extension of such a set must either be scarce (LowCodegree) or
    yield an edge disjoint from some context edge (DisjointEdges);
    callers invoke this only where the counting arguments make one of
    the two certain.  Their contexts span at most shrink_vertex_bound_k2(k)
    vertices, which leaves k of them outside at n >= shrink_threshold_k2(k).
    """
    p = co.params
    miss = _outside_miss(co, smallest_subset(p.full & ~ctx_vertex_set, p.k - 2), ctx_edges)
    _require(miss is not None, "every extension of an outside (k-2)-set covers the context family")
    return miss


def shrink_core_k2(source: FamilyOracle | Family, e: Mask) -> ShrinkResult:
    """Build a subfamily around ``e`` whose size-two covers share a vertex.

    Phase 1 drives the common core below two vertices with (k-2)-set
    extension queries through a width-x window; phase 2 eliminates
    stray size-two covers part-pair by part-pair through the link
    structure.  Success returns (subfamily, cover vertex); every
    queried set is degree-checked against n-k+1 and shortfalls come
    back as LowCodegree witnesses.  The cover property is re-verified
    exhaustively over all vertex pairs before returning.
    """
    return _shrink(_K2(), source, e)


def _grow_k2(co: CountingOracle, e: Mask, trace: ConstructionTrace) -> tuple[TracedFamily, int]:
    p = co.params
    k = p.k
    x = x_param(k)
    q = (k + x - 1) // x  # ceil(k/x)
    _require(x >= 10 and 4 * q + 6 <= x, "x = {} breaks x >= max(10, 4ceil(k/x)+6)", x)
    trace.parameters["x"] = x
    current = _core_k2(co, e, x, trace)

    # Isolated-vertex padding: keeps every later (k-2)-selection inside the parts.
    part_size = (x + 3) // 4
    pad_target = max(k + x, (k - 2) + 4 * part_size + 1, popcount(current.vertex_set))
    current = TracedFamily(p, current.edges, fill_to_size(current.vertex_set, pad_target, p.full))
    _require(popcount(current.vertex_set) <= k + x + 2 * q + 4, "padding left over k+x+2ceil(k/x)+4 vertices")

    # Phase 2: eliminate size-two covers missing the distinguished vertex.
    v = lowest_vertex(current.core) if current.core else lowest_vertex(e)
    other_labels = labels(current.vertex_set & ~bit(v))
    parts = [
        sum(bit(u) for u in other_labels[i : i + part_size])
        for i in range(0, len(other_labels), part_size)
    ]
    s = len(parts)
    trace.parameters["s"] = s
    cap3 = 4 * (k + x + 2 * q + 3)
    _require(s <= (cap3 + x - 1) // x, "s = {} breaks s <= ceil(4(k+x+2ceil(k/x)+3)/x)", s)
    _require(s * x <= 4 * k + 7 * x, "s = {} breaks sx <= 4k+7x", s)
    _require(2 * s + k - 1 < p.n - k + 1, "s = {} leaves the cover count no room below n-k+1", s)
    current, cover_vertex = _part_pairs_k2(co, current, parts, v, trace)
    if cover_vertex is None:
        current, cover_vertex = _consolidate_k2(co, current, parts, v, trace)

    # Lemma postconditions, re-verified exhaustively.
    _require(popcount(current.vertex_set) <= shrink_vertex_bound_k2(k), "the k-2 shrink spans too many vertices")
    cvbit = bit(cover_vertex)
    # a core vertex u other than the cover vertex would make every {u, y} such a cover
    stray = next((pr for pr in covers_size2(current, current.vertex_set).edges if not pr & cvbit), None)
    _require(stray is None, "size-two cover {:labels} avoids the designated vertex {}", stray, cover_vertex)
    if not e & cvbit:
        raise _Refuted(_refute_by_outside_query(co, current.edges, current.vertex_set))
    return current, cover_vertex


def _core_k2(co: FamilyOracle, e: Mask, x: int, trace: ConstructionTrace) -> TracedFamily:
    """Phase 1 of the k-2 shrink: a subfamily around ``e`` whose core has at most one vertex.

    Each carve step extends the (k-2)-set that x+2 carved vertices (core
    first) leave of the k+x base vertices; ``ell``, the carve step count,
    is read off the fresh ``trace``.  A 2-core takes one more query.
    """
    p = co.params
    base_vset = e | smallest_subset(p.full & ~e, x)  # k + x vertices
    current = trace.record(1, 0, None, TracedFamily(p, (e,), base_vset))
    while popcount(current.core) >= 3:
        core = current.core
        if popcount(core) >= x + 2:
            carved = smallest_subset(core, x + 2)
        else:
            carved = core | smallest_subset(base_vset & ~core, x + 2 - popcount(core))
        w = base_vset & ~carved
        _require(popcount(w) == p.k - 2, "a carve left other than k-2 base vertices")
        f = w | _link_at_least(co, w).edges[0]
        prev = current.vertex_set
        current = trace.record(1, w, f, current.add([f]))
        _require(popcount(current.vertex_set) - popcount(prev) <= 2, "a carve step added over two vertices")
    trace.parameters["ell"] = len(trace.steps) - 1

    core = current.core
    if popcount(core) == 2:
        w = smallest_subset(current.vertex_set & ~core, p.k - 2)
        lk = _link_at_least(co, w)
        pairs = max_matching_upto(lk, 2)  # two disjoint link pairs, else one star pair below
        if len(pairs) < 2:
            center = is_star_graph(lk)
            _require(center is not None, ">= 6 pairwise-meeting link pairs share no vertex")
            cbit = bit(center)
            pairs = [next((t for t in lk.edges if t & cbit and not (t & ~cbit) & core), None)]
            _require(pairs[0] is not None, "the star link leaves no partner outside the 2-core")
        current = trace.record(1, w, w | pairs[0], current.add([w | t for t in pairs]))
    _require(popcount(current.core) <= 1, "phase 1 left a core of two or more vertices")
    return current


def _part_pairs_k2(
    co: FamilyOracle, current: TracedFamily, parts: Sequence[Mask], v: int, trace: ConstructionTrace
) -> tuple[TracedFamily, Optional[int]]:
    """Phase 2 of the k-2 shrink: reduce the size-two covers inside each pair of parts.

    ``parts`` and ``v`` partition the padded phase-1 vertex set of
    ``current``.  Per part pair, the (k-2)-sets outside it and two other
    parts are linked: a non-star link is cherry-reduced, stars at two
    centers confine the pair's covers to them, and stars at one common
    center end the shrink at that center (returned, else None).
    """
    vset = current.vertex_set
    others = vset & ~bit(v)
    for i, j in combinations(range(len(parts)), 2):
        area = parts[i] | parts[j]
        rest = [r for r in range(len(parts)) if r not in (i, j)]
        entries = []
        for r, r2 in combinations(rest, 2):
            sel = smallest_subset(others & ~(area | parts[r] | parts[r2]), co.params.k - 2)
            lk = _link_at_least(co, sel)
            entries.append((sel, lk, is_star_graph(lk)))
        nonstar = next((ent for ent in entries if ent[2] is None), None)
        if nonstar is not None:
            sel, lk, _ = nonstar
            reduced, _, _ = _reduce_link(current, sel, area, lk)
            current = trace.record(2, sel, None, reduced)
            continue
        first = entries[0]
        second = next((ent for ent in entries if ent[2] != first[2]), None)
        if second is None:
            # all links are stars at one common vertex: finish globally
            added = [f for sel, lk, center in entries for f in _star_edges(sel, lk, center, area)]
            return trace.record(2, first[0], added[0], current.add(added)), first[2]
        added = [f for sel, lk, center in (first, second) for f in _star_edges(sel, lk, center, vset)]
        current = trace.record(2, first[0], added[0], current.add(added))
        allowed = bit(first[2]) | bit(second[2])
        covers = covers_size2(current, area).edges
        _require(all(pr == allowed for pr in covers), "a part pair keeps a cover other than its star centers")
    return current, None


def _consolidate_k2(
    co: FamilyOracle, current: TracedFamily, parts: Sequence[Mask], v: int, trace: ConstructionTrace
) -> tuple[TracedFamily, int]:
    """The k-2 shrink's final consolidation, once every part pair is reduced.

    One more query set outside the remaining covers either hands every
    cover the vertex ``v`` (returned as the cover vertex with the grown
    subfamily) or refutes the input.
    """
    vbit = bit(v)
    cover_union = 0
    for first, second in combinations(parts, 2):
        cov = covers_size2(current, first | second)
        _require(is_subgraph_of_cherry(cov.edges), "a reduced part pair keeps covers beyond a cherry")
        cover_union |= reduce(or_, cov.edges, 0)
    _require(popcount(cover_union) <= 3 * len(parts) ** 2, "the covers span over 3s^2 vertices")
    current, sel = _select_outside(current, cover_union | vbit)
    lk = _link_at_least(co, sel)
    center = is_star_graph(lk)
    if center == v:
        added = _star_edges(sel, lk, v, current.vertex_set)
        return trace.record(2, sel, added[0], current.add(added)), v
    if center is not None:
        # A star away from v caps the cover count below the degree floor.
        ctx = current.add(_star_edges(sel, lk, center, current.vertex_set))
        raise _Refuted(_refute_by_outside_query(co, ctx.edges, ctx.vertex_set))
    reduced, _, cov = _reduce_link(current, sel, cover_union, lk)
    current = trace.record(2, sel, None, reduced)
    aux_union = reduce(or_, cov.edges, 0)
    current, sel2 = _select_outside(current, aux_union | vbit)
    lk2 = _link_at_least(co, sel2)
    off = next((t for t in lk2.edges if not t & vbit), None)
    if off is not None:
        # An edge through sel2 avoiding v caps the covers at k + 2.
        ctx = current.add([sel2 | off])
        raise _Refuted(_refute_by_outside_query(co, ctx.edges, ctx.vertex_set))
    free = co.params.full & ~(sel2 | vbit | aux_union)
    zbit = next((zb for zb in iter_bits(free) if (vbit | zb) in lk2), None)
    _require(zbit is not None, "the star link at {} has no pair through a free vertex", v)
    return trace.record(2, sel2, sel2 | vbit | zbit, current.add([sel2 | vbit | zbit])), v


# ---------------------------------------------------------------------------
# star certification: witness probes


def _gap_probe_k1(
    co: FamilyOracle, ctx_edges: Sequence[Mask], ctx_vset: Mask, window: Mask
) -> Violation:
    """Extract a witness from a context family with empty core.

    Any edge through a (k-1)-set outside window | V(ctx) meets the
    context in at most one vertex, which would have to cover all of it;
    an empty core forbids that, so the query either fails (ZeroCodegree)
    or hands back a disjoint edge pair.
    """
    p = co.params
    avail = p.full & ~(window | ctx_vset)
    w = smallest_subset(avail, p.k - 1)
    f = co.extension(w)
    if f is None:
        return ZeroCodegree(w)
    hub = f & ~w
    partner = next((h for h in ctx_edges if not h & hub), None)
    _require(partner is not None, "gap probe found a one-vertex cover of a coreless family")
    return DisjointEdges(partner, f)


def _off_center_extension(co: FamilyOracle, m: Mask, v: int) -> Mask:
    """The first extension of m - v for a star edge ``m`` (through v) reported absent."""
    w = m & ~bit(v)
    f = co.extension(w)
    if f is None:
        raise _Refuted(ZeroCodegree(w))
    _require(not f & bit(v), "oracle returned the star edge {:labels} previously reported missing", f)
    return f


def _explicit_refutation(co: FamilyOracle, d: int, required: int) -> None:
    """On an explicit family, raise its first disjoint pair, else its first d-set of degree below ``required``."""
    if co.family is None:
        return
    pair = disjoint_pair(co.family)
    if pair is not None:
        raise _Refuted(DisjointEdges(*pair))
    val, arg = min_degree(co.family, d)
    if val < required:
        raise _Refuted(ZeroCodegree(arg) if required == 1 else LowCodegree(arg, val, required))


def _offending_probe_k2(co: FamilyOracle, ctx: TracedFamily, f: Mask, v: int) -> Violation:
    """Witness from an edge ``f`` avoiding the designated cover vertex.

    A (k-2)-set disjoint from both the context and ``f`` can only reach
    its guaranteed degree if some extension misses the context or
    misses ``f``; either miss is a disjoint edge pair, a miss of ``f`` first.
    """
    p = co.params
    avail = p.full & ~(ctx.vertex_set | f | bit(v))
    if popcount(avail) < p.k - 2:
        _explicit_refutation(co, p.k - 2, p.n - p.k + 1)
    _require(popcount(avail) >= p.k - 2, "no room for an outside probe against the off-center edge")
    miss = _outside_miss(co, smallest_subset(avail, p.k - 2), (f, *ctx.edges))
    # the off-center edge itself is a checkable refutation of the star claim
    return miss or NotStar(missing=None, offending=f)


def _missing_edge_probe_k2(co: FamilyOracle, ctx: TracedFamily, m: Mask, v: int) -> Violation:
    """Witness from a star edge ``m`` (through v) reported absent."""
    sel = smallest_subset(m & ~bit(v), co.params.k - 2)
    off = next((t for t in _link_at_least(co, sel).edges if not t & bit(v)), None)
    _require(off is not None, "complete star link at {} contradicts the missing edge {:labels}", v, m)
    return _offending_probe_k2(co, ctx, sel | off, v)


# ---------------------------------------------------------------------------
# star certification: the two-window skeleton


def _star_check(
    co: FamilyOracle,
    window: Mask,
    v: int,
    rng: random.Random,
    count: int,
    offending: Callable[[Mask], Violation],
    missing: Callable[[Mask], Violation],
) -> None:
    """Check that the restriction to ``window`` is the complete star at ``v``.

    On an explicit family the check is exhaustive: the first edge that
    avoids v goes to ``offending``, else the first absent star edge to
    ``missing``.  On an oracle, ``count`` seeded (k-1)-subsets of
    window - v are spot-checked and the first absent star edge goes to
    ``missing``.  The probe's witness is raised.
    """
    vb = bit(v)
    if co.family is not None:
        sv = is_complete_star_on(co.family, window, v)
        if sv is not None:
            raise _Refuted(offending(sv.edge) if sv.kind == "offending" else missing(sv.edge))
        return
    for rows in _sample_subsets(rng, window & ~vb, co.params.k - 1, count):
        edges = _edge_rows(rows, v)
        failure = co.first_failure(edges)
        if failure is not None:
            raise _Refuted(missing(row_masks(edges[failure.index : failure.index + 1])[0]))


class _K1:
    """Codegree level k-1: the steps of the two-window argument that differ from k-2."""

    name, ell_key, copied = "k-1", "ell", ()
    certify_threshold = staticmethod(certify_threshold_k1)
    shrink_threshold = staticmethod(shrink_threshold_k1)
    grow = staticmethod(_grow_k1)

    def shrink(self, co: FamilyOracle, e: Mask) -> ShrinkResult:
        return shrink_core_k1(co, e)

    def center(self, co: FamilyOracle, sub: TracedFamily, cover_vertex: Optional[int], window: Mask) -> int:
        """The lowest core vertex; an empty core yields a gap-probe witness."""
        core = sub.core
        if not core:
            raise _Refuted(_gap_probe_k1(co, sub.edges, sub.vertex_set, window))
        return lowest_vertex(core)

    def probes(self, co: FamilyOracle, ctx: TracedFamily, window: Mask, v: int):
        """(offending, missing): witness routes for one window's star check; an
        absent star edge goes to ``offending`` with its off-center extension."""

        def offending(edge: Mask) -> Violation:
            return _gap_probe_k1(co, tuple(ctx.edges) + (edge,), ctx.vertex_set | edge, window)

        return offending, lambda edge: offending(_off_center_extension(co, edge, v))

    def cross(self, co: FamilyOracle, ctx: TracedFamily, window_x: Mask, v: int) -> Mask:
        """The star edge through v and the lowest k-1 vertices outside window X."""
        p = co.params
        vb = bit(v)
        wb = smallest_subset(p.full & ~window_x, p.k - 1)
        if co.contains(wb | vb):
            return wb | vb
        # Any extension of wb misses v, so it is disjoint from a window
        # star edge steered away from it.
        f = co.extension(wb)
        if f is None:
            raise _Refuted(ZeroCodegree(wb))
        _require(not f & vb, "oracle returned the edge {:labels} it reported absent", f)
        h = smallest_subset(window_x & ~(f | vb), p.k - 1) | vb
        if co.contains(h):
            raise _Refuted(DisjointEdges(f, h))
        _, missing = self.probes(co, ctx, window_x, v)
        raise _Refuted(missing(h))

    def ell(self, k: int) -> int:
        return sqrt_term(k) - 1

    def split_bounds(self, k: int, ell: int) -> tuple[int, int]:
        """Lower bounds on min(|Z1|, |Z2|) and on min(|X0|, |Y0|)."""
        return (ell + 1) // 2 + 1, k + (ell + 1) // 2 + 1

    def final_check(
        self,
        co: FamilyOracle,
        ctx: TracedFamily,
        window_x: Mask,
        window_y: Mask,
        v: int,
        rng: random.Random,
        samples: int,
    ) -> None:
        """Global star verification: exhaustive when explicit, sampled otherwise."""
        p = co.params
        vb = bit(v)

        def offending(f: Mask) -> Violation:
            for window in (window_x, window_y):
                pool = window & ~(f | vb)
                if popcount(pool) >= p.k - 1:
                    h = smallest_subset(pool, p.k - 1) | vb
                    if co.contains(h):
                        return DisjointEdges(f, h)
            _explicit_refutation(co, p.k - 1, 1)
            # the off-center edge itself is a checkable refutation of the star claim
            return NotStar(missing=None, offending=f)

        def missing(edge: Mask) -> Violation:
            return offending(_off_center_extension(co, edge, v))

        _star_check(co, p.full, v, rng, samples, offending, missing)


class _K2:
    """Codegree level k-2: the steps of the two-window argument that differ from k-1."""

    name, ell_key, copied = "k-2", "ell_cert", ("x", "s", "ell")
    certify_threshold = staticmethod(certify_threshold_k2)
    shrink_threshold = staticmethod(shrink_threshold_k2)
    grow = staticmethod(_grow_k2)

    def shrink(self, co: FamilyOracle, e: Mask) -> ShrinkResult:
        return shrink_core_k2(co, e)

    def center(self, co: FamilyOracle, sub: TracedFamily, cover_vertex: Optional[int], window: Mask) -> int:
        """The cover vertex the shrink designated."""
        return cover_vertex

    def probes(self, co: FamilyOracle, ctx: TracedFamily, window: Mask, v: int):
        """(offending, missing): witness routes for one window's star check."""
        return (
            lambda edge: _offending_probe_k2(co, ctx, edge, v),
            lambda edge: _missing_edge_probe_k2(co, ctx, edge, v),
        )

    def cross(self, co: FamilyOracle, ctx: TracedFamily, window_x: Mask, v: int) -> Mask:
        """An edge through v and k-2 of the k vertices outside window X.

        Every extension of that (k-2)-set must go through v; one that
        avoids v is disjoint from an edge of the shrunken family.
        """
        p = co.params
        vb = bit(v)
        w0 = smallest_subset(p.full & ~window_x, p.k - 2)
        lk = _link_at_least(co, w0)
        for t in lk.edges:
            if not t & vb:
                g = w0 | t
                partner = next((h for h in ctx.edges if not h & g), None)
                _require(
                    partner is not None, "an off-center extension of the outside set covers the shrunken family"
                )
                raise _Refuted(DisjointEdges(g, partner))
        return w0 | vb | min(t & ~vb for t in lk.edges)

    def ell(self, k: int) -> int:
        return ell_param(k)

    def split_bounds(self, k: int, ell: int) -> tuple[int, int]:
        """Lower bounds on min(|Z1|, |Z2|) and on min(|X0|, |Y0|)."""
        return ceil_cbrt_poly(1, 0, k), k + ell + 2

    def final_check(
        self,
        co: FamilyOracle,
        ctx: TracedFamily,
        window_x: Mask,
        window_y: Mask,
        v: int,
        rng: random.Random,
        samples: int,
    ) -> None:
        """Global star verification: exhaustive when explicit; on an oracle,
        seeded (k-2)-sets get a degree check and one random star edge each."""
        p = co.params
        vb = bit(v)
        if co.family is not None:
            _star_check(co, p.full, v, rng, samples, *self.probes(co, ctx, p.full, v))
            return
        required = p.n - p.k + 1
        pool = p.full & ~vb
        zchoices = [zb.bit_length() - 1 for zb in iter_bits(pool)]  # vertex indices
        for rows in _sample_subsets(rng, pool, p.k - 2, samples):
            edges = _edge_rows(rows, v, _draw_zs(rng, rows, zchoices))
            failure = co.first_failure(edges, rows, required)
            if failure is None:
                continue
            i = failure.index
            if failure.kind == "degree":
                raise _Refuted(LowCodegree(row_masks(rows[i : i + 1])[0], failure.degree, required))
            raise _Refuted(_missing_edge_probe_k2(co, ctx, row_masks(edges[i : i + 1])[0], v))


def _certify(
    level: _K1 | _K2, source: FamilyOracle | Family, samples: int, spot: int, seed: int
) -> Certificate:
    """The two-window argument shared by both codegree levels.

    Shrink a subfamily around a first edge and certify the star on a
    window X of size n-k around it; cross to an edge outside X, shrink
    again and certify a window Y; distinct centers give a witness, a
    common center is checked globally.
    """
    oracle = as_oracle(source)
    p = oracle.params
    n, k = p.n, p.k
    need = level.certify_threshold(k)  # raises first for k below the level's minimum
    if samples < 0 or spot < 0:
        raise ValueError(f"samples and spot must be >= 0, got samples={samples} spot={spot}")
    if n < need:
        raise ValueError(f"certification at codegree {level.name} requires n >= {need}, got n={n}")
    co = CountingOracle(oracle)
    rng = random.Random(seed)
    trace = ConstructionTrace()
    trace.parameters["seed"] = seed

    e0 = co.first_edge()
    if e0 is None:
        raise ValueError("the family is empty")

    try:
        r1 = level.shrink(co, e0)
        trace.steps.extend(r1.trace.steps)
        shrunk = r1.trace.parameters
        trace.parameters.update({key: shrunk[key] for key in level.copied if key in shrunk})
        if not r1.ok:
            raise _Refuted(r1.violation)
        ctx_x = r1.subfamily
        window_x = fill_to_size(ctx_x.vertex_set, n - k, p.full)
        v = level.center(co, ctx_x, r1.cover_vertex, window_x)
        offending_x, missing_x = level.probes(co, ctx_x, window_x, v)
        _star_check(co, window_x, v, rng, spot, offending_x, missing_x)

        r2 = level.shrink(co, level.cross(co, ctx_x, window_x, v))
        trace.steps.extend(r2.trace.steps)
        if not r2.ok:
            raise _Refuted(r2.violation)
        outside = p.full & ~window_x  # exactly k vertices
        ctx_y = r2.subfamily
        window_y = fill_to_size(outside | ctx_y.vertex_set, n - k, p.full)
        _require(window_x | window_y == p.full, "the windows X and Y miss a vertex")
        v2 = level.center(co, ctx_y, r2.cover_vertex, window_y)
        offending_y, missing_y = level.probes(co, ctx_y, window_y, v2)
        _star_check(co, window_y, v2, rng, spot, offending_y, missing_y)
        if v2 != v:
            # Star edges of the two windows, one inside X and one through the
            # vertices outside X, are disjoint; an absent one instead reopens
            # that window's missing-edge route.
            pair = bit(v) | bit(v2)
            e1 = smallest_subset(window_x & ~pair, k - 1) | bit(v)
            e2 = smallest_subset(outside & ~pair, k - 1) | bit(v2)
            if not co.contains(e1):
                raise _Refuted(missing_x(e1))
            if not co.contains(e2):
                raise _Refuted(missing_y(e2))
            raise _Refuted(DisjointEdges(e1, e2))

        # Propagation bookkeeping: the disjoint split of the window overlap
        # carries the star property across the whole ground set.
        ell = level.ell(k)
        overlap = (window_x & window_y) & ~bit(v)
        _require(popcount(overlap) == n - 2 * k - 1, "the window overlap less v is not n-2k-1 vertices")
        half = (popcount(overlap) + 1) // 2
        z1 = smallest_subset(overlap, half)
        z2 = overlap & ~z1
        x0 = (window_x & ~window_y) | z1
        y0 = (window_y & ~window_x) | z2
        z_min, xy_min = level.split_bounds(k, ell)
        _require(not x0 & y0, "X0 and Y0 meet")
        _require(min(popcount(z1), popcount(z2)) >= z_min, "min(|Z1|, |Z2|) is below {}", z_min)
        _require(min(popcount(x0), popcount(y0)) >= xy_min, "min(|X0|, |Y0|) is below {}", xy_min)
        trace.parameters.update({level.ell_key: ell, "Z1": z1, "Z2": z2, "X0": x0, "Y0": y0})

        level.final_check(co, ctx_x, window_x, window_y, v, rng, samples)
    except _Refuted as refuted:
        return Certificate(None, refuted.violation, trace)
    finally:
        trace.queries_used = co.queries
    trace.final_vertex_set = p.full
    return Certificate(v, None, trace)


def certify_star_k1(
    source: FamilyOracle | Family,
    *,
    samples: int = SAMPLE_BUDGET,
    spot: int = SPOT_BUDGET,
    seed: int = 0,
) -> Certificate:
    """Certify that an intersecting family with minimum (k-1)-degree one
    is a complete star, or return a violation witness.

    Runs the two-window argument: shrink a core around a first edge,
    certify the restriction to a window of size n-k, repeat from an
    edge across the window, merge the two centers, then verify the
    star claim globally (exhaustively for explicit families, by seeded
    sampling for oracles).
    """
    return _certify(_K1(), source, samples, spot, seed)


def certify_star_k2(
    source: FamilyOracle | Family,
    *,
    samples: int = SAMPLE_BUDGET,
    spot: int = SPOT_BUDGET,
    seed: int = 0,
) -> Certificate:
    """Certify that an intersecting family with minimum (k-2)-degree
    n-k+1 is a complete star, or return a violation witness.

    Shrinks a cover-concentrated subfamily around a first edge,
    certifies the window of size n-k around it, crosses to a second
    window through the leftover k vertices, merges the centers, and
    verifies the global star claim (exhaustive on explicit input,
    seeded sampling on oracles).
    """
    return _certify(_K2(), source, samples, spot, seed)
