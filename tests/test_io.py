import functools
import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrlab.io
from conftest import RefParseError, probe_numpy, random_family, ref_read_family_text
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.io import FamilyParseError, family_text, read_family, read_family_text, write_family
from ekrlab.masks import iter_ksubsets, labels, mask_of


class TestRead:
    def test_basic(self):
        fam = read_family_text("n=5 k=2\n1 2\n1 3\n")
        assert fam.params == FamilyParams(5, 2)
        assert fam.edges == (mask_of([1, 2]), mask_of([1, 3]))

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nn=4 k=2  # trailing\n1 2\n# mid\n3 4\n"
        fam = read_family_text(text)
        assert len(fam) == 2

    def test_no_trailing_newline(self):
        assert len(read_family_text("n=4 k=2\n1 2")) == 1

    def test_duplicate_edge_line_number(self):
        with pytest.raises(FamilyParseError) as ei:
            read_family_text("n=5 k=2\n1 2\n1 2\n")
        assert ei.value.line == 3

    def test_wrong_cardinality(self):
        with pytest.raises(FamilyParseError, match="expected k=2"):
            read_family_text("n=5 k=2\n1 2 3\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(FamilyParseError, match="outside"):
            read_family_text("n=5 k=2\n1 6\n")

    def test_not_ascending(self):
        with pytest.raises(FamilyParseError, match="ascending"):
            read_family_text("n=5 k=2\n2 1\n")

    def test_bad_header(self):
        with pytest.raises(FamilyParseError, match="header"):
            read_family_text("k=2 5\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(FamilyParseError):
            read_family_text("# nothing\n")

    @pytest.mark.parametrize("header", ["n=5 k=2 n=7", "n=5 k=2 foo=bar", "n=5 n=5", "n=5 k=2 k=2"])
    def test_header_keys_exactly_n_and_k(self, header):
        with pytest.raises(FamilyParseError, match="expected header") as ei:
            read_family_text(f"# c\n{header}\n1 2\n")
        assert ei.value.line == 2

    def test_header_keys_in_either_order(self):
        assert read_family_text("k=2 n=5\n1 2\n").params == FamilyParams(5, 2)

    def test_odd_spellings(self):
        fam = read_family_text("n=12 k=3\n01 +2 1_0\n\u0663 4 12\r\n")
        assert fam.edges == (mask_of([1, 2, 10]), mask_of([3, 4, 12]))

    def test_duplicate_before_later_error_wins(self):
        with pytest.raises(FamilyParseError, match="duplicate edge") as ei:
            read_family_text("n=5 k=2\n1 2\n3 4\n01 2\n1 x\n")
        assert ei.value.line == 4

    def test_error_before_later_duplicate_wins(self):
        with pytest.raises(FamilyParseError, match="ascending") as ei:
            read_family_text("n=5 k=2\n1 2\n4 3\n1 2\n")
        assert ei.value.line == 3

    def test_late_duplicate_line_number(self):
        edges = list(islice(iter_ksubsets(26, 3), 2512))
        body = [" ".join(map(str, labels(e))) for e in edges]
        body.insert(2299, body[7])  # the 2,300th edge line, file line 2,301
        text = "n=26 k=3\n" + "\n".join(body) + "\n"
        assert len(body) == 2513
        with pytest.raises(FamilyParseError) as ei:
            read_family_text(text)
        assert ei.value.line == 2301
        assert str(ei.value) == f"line 2301: duplicate edge {list(labels(edges[7]))}"

    def test_noncanonical_tokens_take_the_line_check(self):
        fam = read_family_text("n=4 k=2\n1 3\n2 \u0663\n")  # ARABIC-INDIC DIGIT THREE
        assert fam.edges == (mask_of([1, 3]), mask_of([2, 3]))
        for bad in ["\u00b2", "1" * 5000]:  # SUPERSCRIPT TWO passes isdigit(); 5000 digits exceed int()'s digit limit
            with pytest.raises(FamilyParseError, match="line 2: non-integer label"):
                read_family_text(f"n=4 k=1\n{bad}\n")

    def test_memory_does_not_grow_with_n(self):
        tracemalloc.start()
        try:
            read_family_text("n=50000 k=1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # nothing is held per label of 1..n
        fam = read_family_text("n=1000000 k=2\n7 1000000\n1 2\n")
        assert fam.params == FamilyParams(1000000, 2)
        assert fam.edges == (mask_of([1, 2]), mask_of([7, 1000000]))


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path, rng):
        fam = random_family(rng, 9, 3, 12)
        path = tmp_path / "f.fam"
        write_family(path, fam)
        assert read_family(path) == fam

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_family_roundtrip(self, seed):
        r = random.Random(seed)
        n = r.randrange(2, 12)
        k = r.randrange(1, min(5, n) + 1)
        fam = random_family(r, n, k, r.randrange(0, 14))
        assert read_family_text(family_text(fam)) == fam


def test_roundtrip_thousand_random_families():
    rng = random.Random(1000)
    for _ in range(1000):
        n = rng.randrange(2, 11)
        k = rng.randrange(1, min(4, n) + 1)
        fam = random_family(rng, n, k, rng.randrange(0, 10))
        assert read_family_text(family_text(fam)) == fam


def _star_minus_middle(n, k, center):
    star = complete_star(n, k, center)
    mid = len(star.edges) // 2
    return Family(star.params, star.edges[:mid] + star.edges[mid + 1 :])


# sha256 of family_text(f), computed before the writer was rewritten; the
# output must stay byte-identical.
WRITER_PINS = [
    (lambda: complete_star(36, 5, 17), "a79894ebb3fb2026ce998783040d188d42a8c87f19dc18d84c127e3578a8b365"),
    (lambda: _star_minus_middle(260, 3, 7), "5ff407f597cefbed54f46fff1fda3f245b3ca53d1c017cf952d7c5b1392026e8"),
    (lambda: hilton_milner(11, 3), "d7f53bc1da043dc118c4b48b9ddefe27e64c75e8a7c1dbf36910bdc07cfa794f"),
]


@pytest.mark.parametrize("build,digest", WRITER_PINS, ids=["star(36,5)", "star(260,3)-middle", "HM(11,3)"])
def test_writer_pinned(build, digest):
    fam = build()
    text = family_text(fam)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert read_family_text(text) == fam


def _spell(rng, v):
    """A label as ``int()`` reads it: mostly canonical, sometimes not."""
    r = rng.random()
    if r < 0.8:
        return str(v)
    if r < 0.85:
        return "0" + str(v)
    if r < 0.9:
        return "+" + str(v)
    if r < 0.95 and v >= 10:
        return str(v)[0] + "_" + str(v)[1:]
    return "".join(chr(0x660 + int(d)) for d in str(v))


def _bad_line(rng, n, k):
    """One data line that ``_edge`` rejects, of a random kind."""
    verts = sorted(rng.sample(range(1, n + 1), k))
    kind = rng.randrange(5)
    if kind == 0:  # one label too many, or one too few
        verts = verts + [n] if k == 1 or rng.random() < 0.5 else verts[:-1]
    elif kind == 1:
        verts[rng.randrange(k)] = rng.choice([0, -1, n + 1, 10 * n])
    elif kind == 2 and k >= 2:
        i = rng.randrange(k - 1)
        if rng.random() < 0.5:
            verts[i], verts[i + 1] = verts[i + 1], verts[i]
        else:
            verts[i + 1] = verts[i]
    else:
        toks = [str(v) for v in verts]
        toks[rng.randrange(k)] = rng.choice(["x", "1.0", "0x1", "1__0", "_1", "--1", "2-"])
        return " ".join(toks)
    return " ".join(map(str, verts))


def _random_family_text(rng):
    """A small family file mixing valid edges, repeats, odd spellings,
    comments, blank lines, bad lines and bad headers.  Returns the text and
    the order in which repeats ("dup") and bad lines ("bad") were written."""
    n = rng.randrange(1, 13) if rng.random() < 0.8 else rng.randrange(13, 41)
    k = rng.randrange(1, min(n, 4) + 1)
    lines, events = [], []
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.append(rng.choice(["", "# comment", "   ", "\t# x"]))
    r = rng.random()
    if r < 0.9:
        keys = [f"n={n}", f"k={k}"]
        rng.shuffle(keys)
        lines.append(rng.choice([" ", "  ", "\t"]).join(keys) + rng.choice(["", "  # header", " "]))
    elif r < 0.98:
        lines.append(
            rng.choice(
                [f"n={n} k={k} n={n + 1}", f"n={n} k={k} foo=bar", f"n={n}", f"n={n} k=x", f"k={k} {n}",
                 f"n={k - 1} k={k}", f"n=0{n} k=+{k}", f"n= {n} k={k}", f"n={n} k={k}=1"]
            )
        )
    else:
        return "\n".join(lines + ["# only comments", ""]), events
    edges = set()
    for _ in range(rng.randrange(0, 14)):
        r = rng.random()
        if r < 0.7 or not edges:
            e = tuple(sorted(rng.sample(range(1, n + 1), k)))
            events.append("dup" if e in edges else "new")
            edges.add(e)
            line = rng.choice([" ", "  ", "\t"]).join(_spell(rng, v) for v in e)
        elif r < 0.8:
            events.append("dup")
            line = " ".join(_spell(rng, v) for v in rng.choice(sorted(edges)))
        elif r < 0.9:
            events.append("bad")
            line = _bad_line(rng, n, k)
        else:
            line = rng.choice(["", "# note", "  ", "#"])
        if rng.random() < 0.1:
            line += rng.choice(["  # trailing", "#x", " "])
        lines.append(line)
    sep = rng.choice(["\n", "\n", "\r\n", "\r"]) if rng.random() < 0.97 else "\u2028"
    return sep.join(lines) + rng.choice(["", sep]), events


def _outcome(read, error, text):
    try:
        return read(text)
    except error as exc:
        return str(exc), exc.line


def test_differential_against_reference():
    rng = random.Random(0xF11E)
    kinds, orders = Counter(), Counter()
    for _ in range(20_000):
        text, events = _random_family_text(rng)
        want = _outcome(ref_read_family_text, RefParseError, text)
        got = _outcome(read_family_text, FamilyParseError, text)
        if isinstance(got, Family):
            got = got.params.n, got.params.k, got.edges
        assert got == want, text
        kinds["ok" if isinstance(want[0], int) else want[0].split(": ", 1)[1].split()[0]] += 1
        if "dup" in events and "bad" in events:
            orders["dup first" if events.index("dup") < events.index("bad") else "bad first"] += 1
    # every outcome kind, and repeats both before and after a bad line
    assert set(kinds) == {"ok", "duplicate", "edge", "label", "labels", "non-integer", "expected", "missing"}
    assert min(kinds.values()) >= 100, kinds
    assert min(orders["dup first"], orders["bad first"]) >= 1000, orders


def _sampled(n, k, m, seed):
    """About ``m`` random k-subsets of [n], drawn without building all of them."""
    rng = random.Random(seed)
    return Family.from_labels(FamilyParams(n, k), (rng.sample(range(1, n + 1), k) for _ in range(m)))


def _star_minus(n, k, center, step):
    star = complete_star(n, k, center)
    return Family(star.params, tuple(e for i, e in enumerate(star.edges) if i % step))


# families whose family_text spans more than one TEXT_BLOCK block (k = 1
# two, the others three or more); n = 64 and n = 65 sit on either side of
# the uint64 mask route
BULK_FAMILIES = {
    "star(36,5)": lambda: complete_star(36, 5, 17),
    "star(260,3)-edges": lambda: _star_minus(260, 3, 7, 97),
    "n=64": lambda: _sampled(64, 4, 20000, 64),
    "n=65": lambda: _sampled(65, 4, 20000, 65),
    "n=1000": lambda: _sampled(1000, 3, 20000, 1000),
    "k=1": lambda: Family(FamilyParams(13000, 1), tuple(1 << v for v in range(13000))),
}


@functools.cache
def _bulk_text(name):
    fam = BULK_FAMILIES[name]()
    text = family_text(fam)
    assert len(text) > (1 if fam.params.k == 1 else 3) * ekrlab.io.TEXT_BLOCK
    return fam, text


def _edge_spy(monkeypatch):
    calls = []
    real = ekrlab.io._edge

    def spy(line, params, lineno):
        calls.append(lineno)
        return real(line, params, lineno)

    monkeypatch.setattr(ekrlab.io, "_edge", spy)
    return calls


class TestBulkRoute:
    @pytest.mark.parametrize("name", BULK_FAMILIES)
    def test_written_text_skips_edge(self, monkeypatch, name):
        fam, text = _bulk_text(name)
        calls = _edge_spy(monkeypatch)
        assert read_family_text(text) == fam
        assert calls == []
        assert (fam.params.n, fam.params.k, fam.edges) == ref_read_family_text(text)

    def test_lines_longer_than_a_block(self, monkeypatch):
        star = complete_star(26, 4, 2)
        calls = _edge_spy(monkeypatch)
        monkeypatch.setattr(ekrlab.io, "TEXT_BLOCK", 5)
        assert read_family_text(family_text(star)) == star
        assert calls == []

    @pytest.mark.parametrize(
        "text",
        [
            "n=5 k=1\n1 2\n",  # two labels on a k = 1 line
            "n=5 k=2\n1 2 3\n4\n",  # k+1 labels, then k-1
            "n=5 k=1\n0\n",
            "n=150 k=2\n1 151\n",
            "n=99 k=2\n1 100\n",
            "n=10 k=2\n3 3\n",
            "n=20 k=2\n1 2\n007 8\n",
            "n=5 k=2\n 1 2\n",
            "n=5 k=2\n1 2 \n",
            "n=5 k=2\n1 2\n\n",
            "n=5 k=2\n1 2",
            "n=5\rk=2\n1 2\n",  # a line break inside the first line
            "n=5 k=2\x0c\n1 2\n",
            "\nn=5 k=2\n1 2\n",
            "n=5 k=x\n1 2\n",
        ],
    )
    def test_near_written_texts_match_reference(self, text):
        got = _outcome(read_family_text, FamilyParseError, text)
        if isinstance(got, Family):
            got = got.params.n, got.params.k, got.edges
        assert got == _outcome(ref_read_family_text, RefParseError, text)

    def test_header_only_leaves_numpy_unloaded(self):
        script = "from ekrlab.io import read_family_text\nassert not read_family_text('n=50000 k=1\\n').edges"
        assert probe_numpy(script) == "False"

    def test_body_loads_numpy(self):
        assert probe_numpy("from ekrlab.io import read_family_text\nassert read_family_text('n=5 k=2\\n1 2\\n')") == "True"


def _inject(defect, body, rng, n):
    """Put one ``defect`` into the edge lines ``body`` at a seeded line;
    the two duplicates copy a line of the first block into a later one."""
    i = rng.randrange(1, len(body) // 2)
    later = rng.randrange(len(body) // 2, len(body))
    toks = body[i].split(" ")
    if defect == "comment":
        body.insert(i, "# note")
    elif defect == "blank line":
        body.insert(i, "")
    elif defect == "crlf":
        body[i] += "\r"
    elif defect == "tab":
        body[i] = "\t".join(toks)
    elif defect == "double space":
        body[i] = "  ".join(toks)
    elif defect == "earlier-block duplicate":
        body.insert(later, body[rng.randrange(100)])
    elif defect == "duplicate before bad line":
        body.insert(later, body[later] + " x")
        body.insert(i, body[rng.randrange(100)])
    else:
        if defect == "07":
            toks[0] = "0" + toks[0]
        elif defect == "+7":
            toks[-1] = "+" + toks[-1]
        elif defect == "out of range":
            toks[-1] = str(n + 1)
        elif defect == "descending":
            toks[0], toks[1] = toks[1], toks[0]
        elif defect == "label count":
            toks.pop()
        body[i] = " ".join(toks)


# defect -> None if the text still reads, else the start of its error;
# defect i goes into the family BULK_FAMILIES lists i-th, cyclically
DEFECTS = {
    "comment": None, "blank line": None, "crlf": None, "tab": None, "double space": None, "07": None, "+7": None,
    "out of range": "label outside", "descending": "labels must be strictly ascending", "label count": "edge has",
    "earlier-block duplicate": "duplicate edge", "duplicate before bad line": "duplicate edge",
}


@pytest.mark.parametrize("seed,defect", enumerate(DEFECTS), ids=list(DEFECTS))
def test_bulk_defect_against_reference(seed, defect):
    names = list(BULK_FAMILIES)
    fam, text = _bulk_text(names[seed % len(names)])
    header, _, rest = text.partition("\n")
    body = rest.split("\n")[:-1]
    _inject(defect, body, random.Random(seed), fam.params.n)
    bad = "\n".join([header, *body, ""])
    want = _outcome(ref_read_family_text, RefParseError, bad)
    got = _outcome(read_family_text, FamilyParseError, bad)
    if isinstance(got, Family):
        got = got.params.n, got.params.k, got.edges
    assert got == want
    error = DEFECTS[defect]
    assert isinstance(want[0], int) if error is None else want[0].split(": ", 1)[1].startswith(error), want
