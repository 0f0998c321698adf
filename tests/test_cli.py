import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mptutte import ConsistencyError, DomainError, ParseError, cli
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
from corpus import fixture_perspective

DATA = Path(__file__).parent / "data"
FIXTURE = (DATA / "two_triangles.txt").read_text()
FIXTURE_GRAPH = (DATA / "two_triangles_graph.txt").read_text()
FIXTURE_POLY_STR = "x^2*z + x^2 + x*y + 2*x*z + 2*x + y^2 + y*z + 2*y + z + 1"

U12_DOC = "elements: 2\nmatroid M bases: {1} {2}\n"


def test_parse_fixture():
    doc = parse_input(FIXTURE)
    assert doc.is_perspective
    assert doc.ground.size == 5
    assert document_perspective(doc) == fixture_perspective()


def test_parse_single_matroid():
    doc = parse_input(U12_DOC)
    assert not doc.is_perspective
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
    lines = cmd_table(parse_input(FIXTURE)).splitlines()
    assert lines[0] == "B\tInt\tExt\tX\tTerm"
    assert lines[1] == "{2,4}\t{2,4}\t{}\t{}\tx^2*z"
    assert lines[11] == "{2,3,4}\t{4}\t{1}\t{1,2,3}\tx*y"
    assert len(lines) == 14


def test_cmd_table_single_coloop_document():
    out = cmd_table(parse_input("elements: 1\nmatroid M bases: {1}\n"))
    assert out.splitlines()[1:] == ["{1}\t{1}\t{}\t{}\tx"]


def test_cmd_compatible():
    out = cmd_compatible(parse_input(FIXTURE)).splitlines()
    assert out == [
        "{}", "{1}", "{3}", "{5}", "{1,3}", "{1,5}", "{3,5}", "{1,2,3}",
        "{1,3,5}", "{3,4,5}", "{1,2,3,5}", "{1,3,4,5}", "{1,2,3,4,5}",
    ]
    assert cmd_compatible(parse_input(U12_DOC)).splitlines() == ["{}", "{1,2}"]
    free2 = "elements: 2\nmatroid M circuits:\n"
    assert cmd_compatible(parse_input(free2)).splitlines() == ["{}"]


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
    """Make cmd_check see each document's bijection rows after `edit(rows)`."""
    real = cli.bijection_table

    def rows(p):
        out = real(p)
        edit(out)
        return out

    monkeypatch.setattr(cli, "bijection_table", rows)


def test_cmd_check_names_both_rows_of_an_interval_overlap(monkeypatch):
    # row {3,5} (Int {}, Ext {}) given Ext {2} covers {3,5} and {2,3,5}; the
    # later row {2,3,5} starts its interval at {2,3,5}
    doc = parse_input(FIXTURE)
    b35, b235 = doc.ground.subset({3, 5}), doc.ground.subset({2, 3, 5})

    def widen(rows):
        i = next(i for i, row in enumerate(rows) if row.b == b35)
        rows[i] = rows[i]._replace(external=doc.ground.subset({2}))
        assert any(row.b == b235 for row in rows[i + 1:])

    _patched_rows(monkeypatch, widen)
    report, ok = cmd_check(doc)
    assert not ok
    assert ("FAIL interval partition of the power set: {2,3,5} lies in the intervals "
            "of both {3,5} and {2,3,5}") in report.splitlines()


def test_cmd_check_counts_subsets_no_interval_covers(monkeypatch):
    # the last row, {2,4,5} with Int {} and Ext {1,3}, covers 4 subsets
    doc = parse_input(FIXTURE)
    _patched_rows(monkeypatch, lambda rows: rows.pop())
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
    # the first row, B = {2,4}, has X = {}; a backward returning X itself
    # gives {} back, not {2,4}
    monkeypatch.setattr(cli, "backward", lambda p, x: x)
    assert ROUND_TRIPS + "g(f(B)) != B at B = {2,4}" in _check_fails(tmp_path, capsys)


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
    # a row whose image is the non-member {2}, listed in D too: backward
    # refuses {2}, and the refusal is the round-trip check's failure
    real = cli.compatible_family
    monkeypatch.setattr(cli, "compatible_family", lambda p: real(p) + [0b10])
    _patched_rows(monkeypatch, lambda rows: rows.__setitem__(0, rows[0]._replace(x=0b10)))
    lines = _check_fails(tmp_path, capsys)
    assert ROUND_TRIPS + "{2} is not in the compatible family" in lines
    # the other checks still run and report
    assert any(line.startswith("ok   polynomial agreement") for line in lines)


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


@pytest.mark.parametrize("name, code", [
    ("labelled_bad_bases", 1), ("non_perspective", 2), ("oversized", 1), ("graph_missing_edge", 1),
])
def test_main_prints_the_golden_error_line(capsys, name, code):
    assert main(["tutte", "--input", str(DATA / f"{name}.txt")]) == code
    assert capsys.readouterr() == ("", (DATA / f"{name}_stderr.txt").read_text())


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


@pytest.mark.parametrize("command", ["tutte", "table", "compatible", "check"])
def test_closed_stdout_exits_0_without_a_message(command):
    # even a short output fails once flushed, so this needs no large table
    write = _closed_pipe()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "mptutte", command,
                               "--input", str(DATA / "two_triangles.txt")],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_closed_stdout_keeps_a_failing_checks_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "backward", lambda p, x: x)
    with open(_closed_pipe(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check", "--input", str(DATA / "two_triangles.txt")]) == 3
    assert capsys.readouterr().err == ""
