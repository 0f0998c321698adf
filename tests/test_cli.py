import hashlib
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from mptutte import (
    AxiomError,
    ConsistencyError,
    DomainError,
    ParseError,
    PerspectiveError,
    Poly,
    activities,
    bijection,
    cli,
    perspective,
)
from mptutte.cli import (
    cmd_check,
    cmd_compatible,
    cmd_table,
    cmd_tutte,
    document_matroids,
    document_perspective,
    main,
    parse_input,
)
from corpus import fixture_perspective, ladder

DATA = Path(__file__).parent / "data"
FIXTURE = (DATA / "two_triangles.txt").read_text()
FIXTURE_GRAPH = (DATA / "two_triangles_graph.txt").read_text()
FIXTURE_POLY_STR = "x^2*z + x^2 + x*y + 2*x*z + 2*x + y^2 + y*z + 2*y + z + 1"

U12_DOC = "elements: 2\nmatroid M bases: {1} {2}\n"


def test_parse_fixture():
    doc = parse_input(FIXTURE)
    assert ([s.kind for s in doc.stanzas], doc.identify_classes) == (["circuits", "circuits"], None)
    assert doc.ground.size == 5
    assert document_perspective(doc) == fixture_perspective()


def test_parse_single_matroid():
    doc = parse_input(U12_DOC)
    assert ([s.kind for s in doc.stanzas], doc.identify_classes) == (["bases"], None)
    (name, m), = document_matroids(doc)
    assert name == "M"
    assert m.bases == (1, 2)


def test_parse_graph_form_equals_circuit_form():
    assert document_perspective(parse_input(FIXTURE_GRAPH)) == document_perspective(
        parse_input(FIXTURE)
    )


def test_parse_reports_unknown_element_with_line():
    bad = "elements: 5\nmatroid M circuits: {1,9}\n"
    with pytest.raises(ParseError, match="line 2.*'9'"):
        parse_input(bad)


def test_parse_errors():
    with pytest.raises(ParseError, match="elements"):
        parse_input("matroid M bases: {1}\n")
    with pytest.raises(ParseError, match="duplicate 'elements:'"):
        parse_input("elements: 2\nelements: 2\nmatroid M bases: {1}\n")
    with pytest.raises(ParseError, match="duplicate stanza"):
        parse_input("elements: 1\nmatroid M bases: {1}\nmatroid M bases: {1}\n")
    with pytest.raises(ParseError, match="at most two"):
        parse_input(
            "elements: 1\nmatroid A bases: {1}\nmatroid B bases: {1}\nmatroid C bases: {1}\n"
        )
    with pytest.raises(ParseError, match="unrecognized"):
        parse_input("elements: 1\nwhatever\n")
    with pytest.raises(ParseError, match="exceeds"):
        parse_input("elements: 31\nmatroid M bases: {1}\n")
    with pytest.raises(ParseError, match="every element"):
        parse_input("elements: 3\norder: 1 2\nmatroid M bases: {1}\n")
    with pytest.raises(ParseError, match="identify"):
        parse_input("elements: 1\nmatroid M bases: {1}\nidentify: a=b\n")
    with pytest.raises(ParseError, match="no matroid"):
        parse_input("elements: 2\n")
    with pytest.raises(ParseError, match="unexpected text"):
        parse_input("elements: 2\nmatroid M bases: {1} junk\n")
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_input("elements: 1\ngraph G edges: 1=a-b\nidentify: a=z\n")
    # a label holding a set or edge delimiter could never be referenced, and
    # would print ambiguously: {x,y} for a one-element set
    for labels, bad in (("x,y z", "x,y"), ("a b{", "b{"), ("}c d", "}c"), ("e=f", "e=f")):
        with pytest.raises(ParseError) as exc:
            parse_input(f"# labels\nelements: {labels}\nmatroid M bases: {{z}}\n")
        assert exc.value.line == 2
        assert str(exc.value) == (f"line 2: element label {bad!r} contains a reserved "
                                  "character (one of { } , =)")


GRAPH_1 = "elements: 1\ngraph G edges: 1=a-b\n"


@pytest.mark.parametrize("text, message", [
    ("elements 2\n", "line 1: expected 'elements: ...'"),
    ("elements: a b a\n", "line 1: duplicate element labels"),
    ("elements: 2\norder: 1 2\norder: 2 1\n", "line 3: duplicate 'order:' line"),
    ("elements: 2\norder: 1 z\n", "line 2: unknown element 'z' in order"),
    ("elements: 2\nmatroid M flats: {1}\n",
     "line 2: expected 'matroid <name> circuits: ...' or 'matroid <name> bases: ...'"),
    ("elements: 2\nmatroid M bases {1}\n",
     "line 2: expected 'matroid <name> circuits: ...' or 'matroid <name> bases: ...'"),
    ("elements: 1\ngraph G vertices: 1=a-b\n", "line 2: expected 'graph <name> edges: ...'"),
    ("elements: 1\ngraph G edges: 1=a\n", "line 2: bad edge '1=a'; expected label=u-v"),
    ("elements: 1\ngraph G edges: 1=a-\n", "line 2: bad edge '1=a-'; expected label=u-v"),
    ("elements: 1\ngraph G edges: 1=-b\n", "line 2: bad edge '1=-b'; expected label=u-v"),
    ("elements: 1\ngraph G edges: =a-b\n", "line 2: unknown element ''"),
    (GRAPH_1 + "identify: a=b\nidentify: a=b\n", "line 4: duplicate 'identify:' line"),
    (GRAPH_1 + "identify: ab\n", "line 3: bad identification 'ab'; expected u=v"),
    (GRAPH_1 + "identify: =b\n", "line 3: bad identification '=b'; expected u=v"),
    (GRAPH_1 + "identify: a=\n", "line 3: bad identification 'a='; expected u=v"),
    (GRAPH_1 + "identify: a=b=c\n", "line 3: unknown vertex in identification a=b=c"),
    ("elements: 2\ngraph G edges: 1=a=x-b 2=b-c\n",
     "line 2: vertex name 'a=x' contains the reserved character ="),
    ("elements: 1\ngraph G edges: 1=a-b=y\n", "line 2: vertex name 'b=y' contains the reserved character ="),
    ("# nothing\n", "missing 'elements:' declaration"),
    ("", "missing 'elements:' declaration"),
    ("order: 1\nelements: 1\n", "line 1: 'elements:' must come before this line"),
    ("elements: 1\nelements 1\n", "line 2: expected 'elements: ...'"),
    (": 1\n", "line 1: unrecognized line ': 1'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert str(exc.value) == message


README_EDGES = "graph G edges: 1=a-b 2=b-c 3=c-a 4=c-d 5=d-a\n"


@pytest.mark.parametrize("text, message", [
    # the whole head, not only its first word, and then its colon
    ("elements: 5\n" + README_EDGES + "identify a=b\n", "line 3: expected 'identify: ...'"),
    ("elements: 5\n" + README_EDGES + "identify x: a=b\n", "line 3: expected 'identify: ...'"),
    ("elements x: 5\n" + README_EDGES, "line 1: expected 'elements: ...'"),
    ("elements: 2\norder junk: 2 1\nmatroid M bases: {1}\n", "line 2: expected 'order: ...'"),
    ("elements: 2\norder 2 1\nmatroid M bases: {1}\n", "line 2: expected 'order: ...'"),
    ("elements: 0\norder\nmatroid M bases: {}\n", "line 2: expected 'order: ...'"),
])
def test_a_head_is_exactly_its_keyword_with_its_colon(monkeypatch, capsys, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["tutte"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cmd_tutte_refuses_an_unknown_method():
    with pytest.raises(DomainError) as exc:
        cmd_tutte(parse_input(U12_DOC), "nope")
    assert str(exc.value) == "unknown method 'nope'; choose from ['activities', 'compatible', 'rank-gen']"


def test_parse_string_labels_and_order():
    doc = parse_input("elements: e f g\norder: g f e\nmatroid M circuits: {e,f} {f,g} {e,g}\n")
    assert doc.ground.names == ("e", "f", "g")
    assert doc.ground.order == (3, 2, 1)
    assert doc.ground.fmt(doc.ground.subset({1, 3})) == "{e,g}"
    # minors, duals and reorderings keep the names
    p = document_perspective(doc)
    assert p.matroid.restrict(0b101).ground.fmt(0b101) == "{e,g}"
    assert p.dual().matroid.contract(0b010).ground.fmt(0b101) == "{e,g}"
    assert p.reordered((1, 2, 3)).ground.fmt(0b111) == "{e,f,g}"


def test_parse_empty_forms():
    free = parse_input("elements: 3\nmatroid M circuits:\n")
    (_, m), = document_matroids(free)
    assert m.rank() == 3
    rank0 = parse_input("elements: 3\nmatroid M bases: {}\n")
    (_, m0), = document_matroids(rank0)
    assert m0.rank() == 0


def test_parse_comments_and_whitespace():
    text = "  elements:   5   # five\n\n# a comment line\nmatroid  M   circuits:  {1,2,3}   {3,4,5} {1,2,4,5}  \nmatroid Mp circuits: {1} {2,3} {3,4,5} {2,4,5}\n"
    assert document_perspective(parse_input(text)) == fixture_perspective()


def test_cmd_tutte_methods_agree_bytewise():
    doc = parse_input(FIXTURE)
    outs = {m: cmd_tutte(doc, m) for m in ("activities", "compatible", "rank-gen")}
    assert set(outs.values()) == {FIXTURE_POLY_STR}
    assert cmd_tutte(parse_input(U12_DOC), "compatible") == "x + y"
    for text in (
        FIXTURE_GRAPH,
        U12_DOC,
        "elements: e f g\norder: g f e\nmatroid M circuits: {e,f} {f,g} {e,g}\n",
        "elements: 3\nmatroid M bases: {}\n",
        "elements: 4\nmatroid M circuits: {1,2}\nmatroid N circuits: {1} {2}\n",
    ):
        doc = parse_input(text)
        one, two, three = (cmd_tutte(doc, m) for m in ("activities", "compatible", "rank-gen"))
        assert one == two == three


def test_cmd_table_fixture_rows():
    lines = "\n".join(cmd_table(parse_input(FIXTURE))).splitlines()
    assert lines[0] == "B\tInt\tExt\tX\tTerm"
    assert lines[1] == "{2,4}\t{2,4}\t{}\t{}\tx^2*z"
    assert lines[11] == "{2,3,4}\t{4}\t{1}\t{1,2,3}\tx*y"
    assert len(lines) == 14


def test_cmd_table_single_coloop_document():
    out = "\n".join(cmd_table(parse_input("elements: 1\nmatroid M bases: {1}\n")))
    assert out.splitlines()[1:] == ["{1}\t{1}\t{}\t{}\tx"]


def reference_table(p) -> list:
    """The table by its definition, sharing no code with the class pass: each
    valid set, filtered from all 2^n subsets by rank lookups, in size-lex
    order, its activities from activities.activities."""
    rank, rm, rq = p.matroid.rank(), p.matroid.ranks, p.quotient.ranks
    full = rq[p.ground.mask]
    valid = [s for s in p.ground.subsets() if rm[s] == s.bit_count() and rq[s] == full]
    valid.sort(key=p.ground.size_lex_key)
    rows = []
    for b in valid:
        internal, external = activities.activities(p.quotient, p.matroid, b)
        rows.append((b, internal, external, b & ~internal | external,
                     (internal.bit_count(), external.bit_count(), rank - b.bit_count())))
    return rows


def circuits_document(p) -> str:
    """A document whose perspective is p, as two circuit stanzas."""
    g = p.ground

    def sets(m):
        return " ".join("{" + ",".join(map(str, g.labels(c))) + "}" for c in m.circuits)

    return (f"elements: {g.size}\norder: {' '.join(map(str, g.order))}\n"
            f"matroid M circuits: {sets(p.matroid)}\nmatroid Mp circuits: {sets(p.quotient)}\n")


def table_documents(corpus):
    yield from (circuits_document(p) for _, p in corpus)
    for path in sorted(DATA.glob("*.txt")):
        try:
            doc = parse_input(path.read_text(encoding="utf-8"))
            document_perspective(doc)
        except (ParseError, UnicodeDecodeError, AxiomError, PerspectiveError):
            continue
        yield path.read_text(encoding="utf-8")


def test_cmd_table_and_bijection_table_match_the_reference(corpus):
    # every corpus perspective and every data document that builds one: the
    # streamed text, one fmt per column and Poly.monomial per row
    tables = 0
    for text in table_documents(corpus):
        doc = parse_input(text)
        p = document_perspective(doc)
        rows = reference_table(p)
        fmt = doc.ground.fmt
        lines = ["\t".join([*map(fmt, row[:4]), str(Poly.monomial(*row[4]))]) for row in rows]
        assert "\n".join(cmd_table(doc)) == "\n".join(["B\tInt\tExt\tX\tTerm", *lines]), text
        assert bijection.bijection_table(p) == rows, text
        tables += 1
    assert tables > len(corpus)


def test_cmd_table_peak_per_row():
    # the table is written one size class at a time, from one packed int per
    # valid set: about 86 bytes per row on W8 over rank 0, against 272 for
    # a row tuple per valid set and every line held at once
    doc = parse_input((DATA / "wheel8_rank0.txt").read_text())
    tracemalloc.start()
    try:
        lines = sum(chunk.count("\n") + 1 for chunk in cmd_table(doc)) - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == 18462
    assert peak <= 120 * lines, peak / lines


def test_cmd_compatible():
    out = "\n".join(cmd_compatible(parse_input(FIXTURE))).splitlines()
    assert out == [
        "{}", "{1}", "{3}", "{5}", "{1,3}", "{1,5}", "{3,5}", "{1,2,3}",
        "{1,3,5}", "{3,4,5}", "{1,2,3,5}", "{1,3,4,5}", "{1,2,3,4,5}",
    ]
    assert "\n".join(cmd_compatible(parse_input(U12_DOC))).splitlines() == ["{}", "{1,2}"]
    free2 = "elements: 2\nmatroid M circuits:\n"
    assert "\n".join(cmd_compatible(parse_input(free2))).splitlines() == ["{}"]


def test_cmd_compatible_writes_in_chunks(monkeypatch):
    # W8 over rank 0 has 18462 members of D: 19 chunks of at most 1000 lines,
    # which joined give the golden bytes of the `compatible` process row
    monkeypatch.setattr(cli, "TABLE_CHUNK", 1000)
    chunks = list(cmd_compatible(parse_input((DATA / "wheel8_rank0.txt").read_text())))
    assert len(chunks) == 19
    assert all(chunk.count("\n") < 1000 for chunk in chunks)
    digest = hashlib.sha256(("\n".join(chunks) + "\n").encode()).hexdigest()
    assert f"{digest}  compatible.txt" in (DATA / "wheel8_rank0.sha256").read_text().splitlines()


def test_cmd_check_passes_on_fixture():
    report, ok = cmd_check(parse_input(FIXTURE))
    assert ok
    assert "all checks passed" in report
    assert "FAIL" not in report


def test_cmd_check_identity_pair_reports_no_z():
    report, ok = cmd_check(parse_input(U12_DOC))
    assert ok
    assert "max z exponent 0" in report


def _patched_rows(monkeypatch, edit):
    """Make the table cmd_check builds to name a fault show each document's
    bijection rows after `edit(rows)`.  The rowless passes do not read it, so
    a test using it gives them a fault of their own to find."""
    real = cli.bijection_table

    def rows(p):
        out = real(p)
        edit(out)
        return out

    monkeypatch.setattr(cli, "bijection_table", rows)


def _patched_classes(monkeypatch, moves):
    """Make cmd_check, and the table it builds to name a fault, see each
    document's activity classes with each B of `moves` (a mask) refiled under
    its (Int, Ext) masks, or dropped where that is None."""
    real = activities.activity_classes

    def classes(quotient, matroid, masks):
        out = real(quotient, matroid, masks)
        for b, activity in moves.items():
            next(bs for _, _, bs in out if b in bs).remove(b)
            if activity is not None:
                bs = next((bs for i, e, bs in out if (i, e) == activity), None)
                if bs is None:
                    out.append((*activity, [b]))
                else:
                    bs.append(b)
        return out

    monkeypatch.setattr(cli, "activity_classes", classes)
    monkeypatch.setattr(bijection, "activity_classes", classes)


def test_cmd_check_names_both_rows_of_an_interval_overlap(monkeypatch):
    # {3,5} (Int {}, Ext {}) filed under Ext {2} covers {3,5} and {2,3,5};
    # the later row {2,3,5} starts its interval at {2,3,5}
    doc = parse_input(FIXTURE)
    s = doc.ground.subset
    _patched_classes(monkeypatch, {s({3, 5}): (0, s({2}))})
    report, ok = cmd_check(doc)
    assert not ok
    assert ("FAIL interval partition of the power set: {2,3,5} lies in the intervals "
            "of both {3,5} and {2,3,5}") in report.splitlines()


def test_cmd_check_counts_subsets_no_interval_covers(monkeypatch):
    # the last row, {2,4,5} with Int {} and Ext {1,3}, covers 4 subsets
    doc = parse_input(FIXTURE)
    _patched_classes(monkeypatch, {doc.ground.subset({2, 4, 5}): None})
    report, ok = cmd_check(doc)
    assert not ok
    assert ("FAIL interval partition of the power set: 4 subsets not covered by any interval"
            in report.splitlines())


ROUND_TRIPS = "FAIL bijection round trips (f, g mutually inverse between valid sets and D): "


def _check_fails(tmp_path, capsys, text=FIXTURE):
    """Run `check` through main; return its report lines after asserting exit 3."""
    f = tmp_path / "doc.txt"
    f.write_text(text)
    assert main(["check", "--input", str(f)]) == 3
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1] == "CHECKS FAILED"
    return out.splitlines()


def test_check_fails_when_backward_misses_the_row(tmp_path, capsys, monkeypatch):
    # the first row, B = {2,4}, has X = {}; an inverse returning X itself
    # gives {} back, not {2,4}.  The rowless pass calls the CLI's _inverse,
    # the row form the one backward calls
    monkeypatch.setattr(cli, "_inverse", lambda p, x: x)
    monkeypatch.setattr(bijection, "_inverse", lambda p, x: x)
    assert ROUND_TRIPS + "g(f(B)) != B at B = {2,4}" in _check_fails(tmp_path, capsys)


@pytest.mark.parametrize("row, image, line", [
    # row {2,5} given the image {3} of row {3,4}: {3} is in D, so the checked
    # backward refuses no row and the mismatch itself is the failure
    (1, 0b100, "g(f(B)) != B at B = {2,5}"),
    # given the non-member {2}, listed in D, it mismatches too, but the
    # checked backward refuses {2} at that row first
    (1, 0b10, "{2} is not in the compatible family"),
    # the first row given {2}, which inverts to its own B: the image {5}
    # missing from D is found first, at the second row, but the checked
    # backward refuses {2} at the row before it
    (0, 0b10, "{2} is not in the compatible family"),
], ids=["another-rows-image", "non-member-mismatch", "non-member-before-a-missing-image"])
def test_check_names_the_first_failing_row_without_a_patched_inverse(
        tmp_path, capsys, monkeypatch, row, image, line):
    # D lists the non-member {2} in place of {5}, the image of {2,5}; both
    # have the term x*z, so the polynomials still agree.  The rowless round
    # trips find {5} missing, and the table they then build gives the row
    # its image
    real = cli.compatible_family
    monkeypatch.setattr(cli, "compatible_family", lambda p: [x for x in real(p) if x != 0b10000] + [0b10])
    _patched_rows(monkeypatch, lambda rows: rows.__setitem__(row, rows[row]._replace(x=image)))
    lines = _check_fails(tmp_path, capsys)
    assert ROUND_TRIPS + line in lines
    # the other checks still run and report
    for name in ("interval partition", "polynomial agreement", "order invariance"):
        assert any(l.startswith("ok   " + name) for l in lines), name


def test_check_peak_per_member_of_d():
    # W8 over rank 0: the passes hold D, the activity classes and two 2^n-byte
    # marks, and build no row per valid set
    doc = parse_input((DATA / "wheel8_rank0.txt").read_text())
    cmd_check(doc)  # warm: first-call caches are not the check's
    tracemalloc.start()
    try:
        report, ok = cmd_check(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 200 * 18462, peak / 18462


def test_check_fails_when_an_image_is_missing_from_d(tmp_path, capsys, monkeypatch):
    real = cli.compatible_family
    monkeypatch.setattr(cli, "compatible_family", lambda p: [x for x in real(p) if x != 0b10000])
    lines = _check_fails(tmp_path, capsys)
    assert ROUND_TRIPS + "f({2,5}) = {5} is not compatible" in lines


def test_check_fails_when_d_has_an_extra_member(tmp_path, capsys, monkeypatch):
    # {2} is no image of a valid set; the count shows it without a pass over D
    real = cli.compatible_family
    monkeypatch.setattr(cli, "compatible_family", lambda p: real(p) + [0b10])
    assert ROUND_TRIPS + "|D| = 14 but 13 valid sets in 13 rows" in _check_fails(tmp_path, capsys)


def test_check_maps_a_backward_domain_error_to_its_fail_line(tmp_path, capsys, monkeypatch):
    # {2,4} and {3,4} trade Int {2,4} and {4}: the intervals still partition
    # and the terms stay, but the first row's image is the non-member {2},
    # listed in D in place of {3} (the same term).  {2} inverts to {2,4}; the
    # image {} of {3,4} does not, and backward refuses {2} first: the refusal
    # is the round-trip check's failure
    s = parse_input(FIXTURE).ground.subset
    _patched_classes(monkeypatch, {s({2, 4}): (s({4}), 0), s({3, 4}): (s({3, 4}), 0)})
    real = cli.compatible_family
    monkeypatch.setattr(cli, "compatible_family", lambda p: [x for x in real(p) if x != 0b100] + [0b10])
    lines = _check_fails(tmp_path, capsys)
    assert ROUND_TRIPS + "{2} is not in the compatible family" in lines
    # the other checks still run and report
    for name in ("interval partition", "polynomial agreement"):
        assert any(l.startswith("ok   " + name) for l in lines), name


LABELLED = "elements: A B C D\n"


@pytest.mark.parametrize("stanzas, code, message", [
    ("matroid M bases: {A} {B,C}", 1,
     "in stanza 'M' (line 2): bases must share one cardinality; {A} and {B,C} differ"),
    ("matroid M bases: {A,B} {C,D}", 1,
     "in stanza 'M' (line 2): basis exchange fails: no replacement for element A "
     "of {A,B} against {C,D}"),
    ("matroid M circuits: {A} {A,B}", 1,
     "in stanza 'M' (line 2): circuits must form an antichain; {A} is inside {A,B}"),
    ("matroid M circuits: {A,B} {B,C}", 1,
     "in stanza 'M' (line 2): circuit elimination fails: no circuit inside {A,C} "
     "(from {A,B}, {B,C} dropping B)"),
    ("matroid M circuits: {A,B} {B,C} {A,C}\nmatroid N circuits: {A}", 2,
     "not a perspective: circuit {A,B} of the first matroid is not a union of "
     "circuits of the second"),
])
def test_library_errors_name_the_document_labels(tmp_path, capsys, stanzas, code, message):
    f = tmp_path / "doc.txt"
    f.write_text(LABELLED + stanzas + "\n")
    assert main(["tutte", "--input", str(f)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the same family on numerals prints numerals, as it always did
    numerals = str.maketrans("ABCD", "1234")
    f.write_text("elements: 4\n" + stanzas.translate(numerals) + "\n")
    assert main(["tutte", "--input", str(f)]) == code
    assert capsys.readouterr() == ("", f"error: {message.translate(numerals)}\n")


@pytest.mark.parametrize("edges, message", [
    ("a=x-y c=y-z", "elements without an edge: b"),
    ("a=x-y", "elements without an edge: b c"),
    ("a=x-y b=y-z c=z-x a=x-x", "element 'a' labels more than one edge"),
])
def test_graph_label_errors_name_the_document_labels(tmp_path, capsys, edges, message):
    f = tmp_path / "doc.txt"
    f.write_text(f"elements: a b c\n# the graph\ngraph G edges: {edges}\n")
    assert main(["tutte", "--input", str(f)]) == 1
    assert capsys.readouterr() == ("", f"error: line 3: {message}\n")


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_identify_keeps_a_vertex_named_like_a_merged_class(capsys, method):
    # vertex a+b is not the class {a, b}: joining class names made it one
    doc = str(DATA / "identify_collision.txt")
    assert main(["tutte", "--method", method, "--input", doc]) == 0
    assert capsys.readouterr() == ((DATA / "identify_collision_tutte.txt").read_text(), "")


README_IDENTIFY = "elements: 5\ngraph G edges: 1=a-b 2=b-c 3=c-a 4=c-d 5=d-a\nidentify: a=b\n"
LADDER_14 = ("elements: 14\ngraph G edges: " + " ".join(f"{i}={u}-{v}" for i, u, v in ladder(14).edges)
             + "\nidentify: v0=v3\n")


@pytest.mark.parametrize("text, passes", [(README_IDENTIFY, [0, 0, 0, 0, 0, 1]),
                                          (LADDER_14, [0, 0, 0, 0, 0, 1]),
                                          (FIXTURE, [1, 1, 1, 1, 1, 1])],
                         ids=["readme-identify", "ladder-14", "two-stanzas"])
def test_only_check_proves_an_identified_pair(monkeypatch, capsys, text, passes):
    # a graph beside its identification is a perspective by theorem, so only
    # check runs the rank-step pass on it; a pair of stanzas is always checked
    calls = []
    real = perspective._rank_steps_dominate
    monkeypatch.setattr(perspective, "_rank_steps_dominate", lambda m, q: calls.append(1) or real(m, q))
    counts = []
    for argv in ([["tutte", "--method", m] for m in sorted(cli.METHODS)]
                 + [["table"], ["compatible"], ["check"]]):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        calls.clear()
        assert main(argv) == 0
        counts.append(len(calls))
    assert counts == passes
    assert capsys.readouterr().out.endswith("all checks passed\n")


@pytest.mark.parametrize("elements, names", [("a b c d", "abcd"), ("4", "1234")])
def test_check_order_invariance_failure_names_the_order(tmp_path, capsys, monkeypatch,
                                                        elements, names):
    # every reordered perspective gets a polynomial one too big; check's own
    # polynomial comes from the table rows
    real = cli.tutte_activities
    monkeypatch.setattr(cli, "tutte_activities", lambda p: real(p) + 1)
    lines = _check_fails(tmp_path, capsys, f"elements: {elements}\nmatroid M bases: {{{names[0]}}}\n")
    perm = random.Random(0).sample(range(1, 5), 4)
    shown = ", ".join(names[e - 1] for e in perm)
    assert (f"FAIL order invariance (10 orders, seed 0): order [{shown}] gave x*y^3 + 1 "
            "instead of x*y^3") in lines
    if names == "1234":  # numeric labels print as the list itself
        assert f"order {perm} gave" in lines[-2]


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    f = tmp_path / "doc.txt"
    f.write_text(FIXTURE)
    assert main(["tutte", "--input", str(f)]) == 0
    assert capsys.readouterr().out.strip() == FIXTURE_POLY_STR

    assert main(["check", "--input", str(f), "--seed", "7"]) == 0
    assert "all checks passed" in capsys.readouterr().out

    f.write_text("elements: 5\nmatroid M circuits: {1,9}\n")
    assert main(["tutte", "--input", str(f)]) == 1
    assert "unknown element" in capsys.readouterr().err

    # valid matroids, invalid perspective: quotient circuit {1,2,3} uncoverable
    f.write_text(
        "elements: 5\nmatroid M circuits: {1,2,3} {3,4,5} {1,2,4,5}\n"
        "matroid Mp circuits: {2,3} {3,4,5} {2,4,5}\n"
    )
    assert main(["table", "--input", str(f)]) == 2
    assert "{1,2,3}" in capsys.readouterr().err

    # circuit family that is not a matroid at all: input error
    f.write_text(
        "elements: 5\nmatroid M circuits: {1,2,3} {3,4,5} {1,2,4,5}\n"
        "matroid Mp circuits: {1} {3,4,5} {2,4,5}\n"
    )
    assert main(["tutte", "--input", str(f)]) == 1
    assert "elimination" in capsys.readouterr().err

    assert main(["tutte", "--input", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()

    # usage errors are malformed input too: exit 1 with argparse's usage text,
    # since 2 means a valid pair that is not a perspective
    for argv in (["tutte", "--method", "foo"], ["bogus"], [], ["check", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: mptutte") and "error: " in err, argv
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mptutte")

    # bytes that are not UTF-8: an input error on one line, not a traceback
    f.write_bytes(b"elements: 2\nmatroid M circuits: {1,2}\n# \xe9\xff\n")
    assert main(["tutte", "--input", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    # property failure path: exit 3 with the report on stdout
    monkeypatch.setattr("mptutte.cli.cmd_check", lambda doc, seed=0: ("FAIL boom", False))
    f.write_text(FIXTURE)
    assert main(["check", "--input", str(f)]) == 3
    assert "boom" in capsys.readouterr().out


def test_main_maps_consistency_error_to_exit_3(tmp_path, capsys, monkeypatch):
    # a cross-check that trips is an internal failure: exit 3, one error line
    def disagree(p):
        raise ConsistencyError("routes disagree")

    monkeypatch.setitem(cli.METHODS, "compatible", disagree)
    f = tmp_path / "doc.txt"
    f.write_text(FIXTURE)
    assert main(["tutte", "--method", "compatible", "--input", str(f)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: routes disagree\n"


def test_main_refuses_oversized_rank_table(tmp_path, capsys):
    f = tmp_path / "big.txt"
    for n in (25, 30):
        for stanza in (
            "matroid M bases: {" + ",".join(map(str, range(1, n + 1))) + "}",
            "matroid M circuits: {1,2}",
            "graph G edges: " + " ".join(f"{i}=a-b" for i in range(1, n + 1)),
        ):
            f.write_text(f"elements: {n}\n" + stanza + "\n")
            start = time.perf_counter()
            assert main(["tutte", "--input", str(f)]) == 1, stanza
            # refused before any 2^n scan, which would take minutes
            assert time.perf_counter() - start < 5, stanza
            err = capsys.readouterr().err
            assert err == f"error: line 1: {n} elements exceeds the limit of 24\n", err


def test_main_treats_only_ascii_digits_as_a_count(tmp_path, capsys):
    # "²".isdigit() is true but int("²") fails: a label list, not a count
    f = tmp_path / "doc.txt"
    for text, code, out in (
        ("elements: ²\n", 1, ""),
        ("elements: ²\nmatroid M bases: {²}\n", 0, "x\n"),
        ("elements: ３\nmatroid M bases: {1}\n", 1, ""),
    ):
        f.write_text(text, encoding="utf-8")
        assert main(["tutte", "--input", str(f)]) == code, text
        captured = capsys.readouterr()
        assert captured.out == out, text
        assert captured.err.count("\n") <= 1 and "Traceback" not in captured.err, text


def test_main_refuses_a_huge_count_before_building_labels(tmp_path, capsys):
    f = tmp_path / "doc.txt"
    for count, shown in (("1000000000000", "1000000000000"), ("0025", "25"), ("9" * 5000, "9" * 5000)):
        f.write_text(f"elements: {count}\nmatroid M bases: {{1}}\n")
        start = time.perf_counter()
        assert main(["tutte", "--input", str(f)]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"error: line 1: {shown} elements exceeds the limit of 24\n"


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(U12_DOC))
    assert main(["tutte"]) == 0
    assert capsys.readouterr().out.strip() == "x + y"


def test_main_drops_a_byte_order_mark(tmp_path, capsys, monkeypatch):
    # one leading U+FEFF, as an editor may save it, read as bytes or as text
    f = tmp_path / "doc.txt"
    f.write_bytes(b"\xef\xbb\xbf" + FIXTURE.encode("utf-8"))
    assert _run_main(capsys, ["tutte", "--input", str(f)]) == (0, FIXTURE_POLY_STR + "\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + FIXTURE))
    assert _run_main(capsys, ["tutte"]) == (0, FIXTURE_POLY_STR + "\n", "")
    with pytest.raises(ParseError, match="line 1: unrecognized line"):
        parse_input("\ufeff\ufeff" + FIXTURE)


def _run_main(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return (code, *capsys.readouterr())


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    f = tmp_path / "doc.txt"
    f.write_text(FIXTURE)
    # a seed given once is not the default of the next call
    assert "(10 orders, seed 3)" in _run_main(capsys, ["check", "--input", str(f), "--seed", "3"])[1]
    assert "(10 orders, seed 0)" in _run_main(capsys, ["check", "--input", str(f)])[1]

    # help and usage errors print the same bytes from a freshly built parser
    # and from the shared one, whatever ran in between
    argvs = (["--help"], ["tutte", "--help"], [], ["tutte", "--method", "foo"])
    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(_run_main(capsys, argv))
    assert [code for code, _, _ in first] == [0, 0, 1, 1]
    for _ in range(2):
        assert [_run_main(capsys, argv) for argv in argvs] == first
        assert _run_main(capsys, ["tutte", "--input", str(f)]) == (0, FIXTURE_POLY_STR + "\n", "")

    # an --input of one call does not carry over to the next, which reads stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(U12_DOC))
    assert _run_main(capsys, ["tutte"]) == (0, "x + y\n", "")


def _closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def test_closed_stdout_keeps_a_failing_checks_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_inverse", lambda p, x: x)
    monkeypatch.setattr(bijection, "_inverse", lambda p, x: x)
    with open(_closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check", "--input", str(DATA / "two_triangles.txt")]) == 3
    assert capsys.readouterr().err == ""


def test_import_surface_stays_small():
    """Importing the CLI loads none of dataclasses, typing, inspect and random
    (-S keeps site hooks, which may import them on their own, out of the count)."""
    code = ("import sys; import mptutte.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect', 'random'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
