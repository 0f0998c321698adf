"""The CLI as a process.  Each row runs `python -m mptutte` once and pins its
exit code, stdout and stderr: the contract of exit codes 0-3, no traceback,
sets printed in the input's labels, and UTF-8 in and out whatever the locale."""

import hashlib
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
SUMS = {(path.stem, name): digest for path in DATA.glob("*.sha256")
        for digest, name in map(str.split, path.read_text().splitlines())}
# unset in every run, so that no row depends on the caller's shell: under
# PYTHONUNBUFFERED, a write cut short by the reader leaving raises nothing
IO_SETTINGS = ("PYTHONUNBUFFERED", "PYTHONIOENCODING", "PYTHONUTF8")
ASCII_LOCALES = {"PYTHONIOENCODING=ascii": {"PYTHONIOENCODING": "ascii"},
                 "LC_ALL=C": {"LC_ALL": "C", "PYTHONUTF8": "0"}}


def run(argv, stdin=b"", env=None, head=None):
    """(exit code, stdout, stderr) of `python -m mptutte *argv` fed `stdin`.  With
    `head`, the reader leaves stdout after that many lines; with 0, before the start."""
    stdout = subprocess.PIPE
    if head == 0:  # the write end of a pipe whose read end is already closed
        read, stdout = os.pipe()
        os.close(read)
    env = {**{k: v for k, v in os.environ.items() if k not in IO_SETTINGS},
           "PYTHONPATH": str(SRC), **(env or {})}
    try:
        proc = subprocess.Popen([sys.executable, "-m", "mptutte", *argv], env=env,
                                stdin=subprocess.PIPE, stdout=stdout, stderr=subprocess.PIPE)
    finally:
        if head == 0:
            os.close(stdout)
    out = b""
    if head:
        out = b"".join(proc.stdout.readline() for _ in range(head))
        proc.stdout.close()
    try:
        rest, err = proc.communicate(stdin, timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return proc.returncode, out + (rest or b""), err


# A check maps a stream's bytes to (what was seen, what is expected).  `search`
# wants every pattern found: argparse's text differs between Python versions.
def exact(data): return lambda got: (got, data)
def golden(name): return exact((DATA / name).read_bytes())
def sha256(doc, name): return lambda got: (hashlib.sha256(got).hexdigest(), SUMS[doc, name])
def last_line(line): return lambda got: (got.splitlines()[-1:], [line.encode()])
def search(*patterns): return lambda got: ([p for p in patterns if not re.search(p, got.decode(), re.M)], [])
def same_as(*argv): return lambda got: (got, run(argv)[1])
def head_of(count, *argv): return lambda got: (got, b"".join(run(argv)[1].splitlines(keepends=True)[:count]))


EMPTY = exact(b"")


def doc(name):
    return ["--input", str(DATA / f"{name}.txt")]


def sources(name):
    """The document given by --input, and given on stdin."""
    return ("input", (doc(name), b"")), ("stdin", ([], (DATA / f"{name}.txt").read_bytes()))


def row(id, argv, code, out, err=EMPTY, **kw):
    return pytest.param(argv, code, out, err, kw, id=id)


TRIANGLES = ("two_triangles_graph", "two_triangles", "two_triangles_bases")
ROWS = [
    *(row(f"table-{d}", ["table", *doc(d)], 0, golden("two_triangles_table.tsv")) for d in TRIANGLES),
    *(row(f"compatible-{d}", ["compatible", *doc(d)], 0, golden("two_triangles_compatible.txt"))
      for d in TRIANGLES),
    *(row(f"rank-gen-{d}", ["tutte", "--method", "rank-gen", *doc(d)], 0,
          same_as("tutte", "--method", "activities", *doc(d))) for d in TRIANGLES),
    *(row(f"error-{d}", ["tutte", *doc(d)], code, EMPTY, golden(f"{d}_stderr.txt")) for d, code in
      (("non_perspective", 2), ("oversized", 1), ("labelled_bad_bases", 1), ("graph_missing_edge", 1),
       ("identify_no_colon", 1))),
    *(row(f"identify_collision-{m}", ["tutte", "--method", m, *doc("identify_collision")], 0,
          golden("identify_collision_tutte.txt")) for m in ("activities", "compatible", "rank-gen")),
    *(row(f"identify_merges-{m}", ["tutte", "--method", m, *doc("identify_merges")], 0,
          golden("identify_merges_tutte.txt")) for m in ("activities", "compatible", "rank-gen")),
    row("identify_merges-table", ["table", *doc("identify_merges")], 0, golden("identify_merges_table.tsv")),
    row("check-summary", ["check", *doc("two_triangles_graph")], 0, last_line("all checks passed")),
    row("usage-error", ["tutte", "--method", "foo"], 1, EMPTY, search("invalid choice: 'foo'")),
    row("missing-command", [], 1, EMPTY, search("^usage: mptutte")),
    row("empty-input-path", ["tutte", "--input", ""], 1, EMPTY,
        exact(b"error: [Errno 2] No such file or directory: ''\n"),
        stdin=b"elements: 2\nmatroid M circuits: {1,2}\n"),
    row("help", ["--help"], 0,
        search(*(rf"^ +{c}( |$)" for c in ("tutte", "table", "compatible", "check")))),
    *(row(f"closed-stdout-{c}", [c, *doc("two_triangles")], 0, EMPTY, head=0)
      for c in ("tutte", "table", "compatible", "check")),
    row("reader-gone-W8-table", ["table", *doc("wheel8_rank0")], 0,
        exact(b"B\tInt\tExt\tX\tTerm\n"), head=1),
    # past the first size classes: the reader leaves while the table is still being written
    row("reader-gone-W8-table-mid", ["table", *doc("wheel8_rank0")], 0,
        head_of(3000, "table", *doc("wheel8_rank0")), head=3000),
    *(row(f"W8-{c}", [c, *doc("wheel8_rank0")], 0, sha256("wheel8_rank0", f"{c}.txt"))
      for c in ("table", "compatible", "check")),
    # 2-byte counting lanes for both graphs (nullity 9, and 10 for G/~)
    *(row(f"ladder20-{m}", ["tutte", "--method", m, *doc("ladder20")], 0, sha256("ladder20", "tutte.txt"))
      for m in ("activities", "compatible", "rank-gen")),
    row("ladder20-table", ["table", *doc("ladder20")], 0, sha256("ladder20", "table.txt")),
    row("ladder20-family", ["compatible", *doc("ladder20")], 0, sha256("ladder20", "compatible.txt")),
    # the quotient G/~ has rank > 0, so check's inverse stops on both sides
    row("ladder20-check", ["check", *doc("ladder20")], 0, sha256("ladder20", "check.txt")),
    # three byte planes of vertex rows for both graphs (19 rows, and 18 for G/~)
    *(row(f"cycle20-{m}", ["tutte", "--method", m, *doc("cycle20")], 0, sha256("cycle20", "tutte.txt"))
      for m in ("activities", "compatible", "rank-gen")),
    row("cycle20-table", ["table", *doc("cycle20")], 0, sha256("cycle20", "table.txt")),
    *(row(f"accented-{how}-{loc}", ["table", *argv], 0, golden("accented_labels_table.tsv"),
          stdin=stdin, env=env)
      for loc, env in ASCII_LOCALES.items() for how, (argv, stdin) in sources("accented_labels")),
    *(row(f"error-accented-{loc}", ["tutte", *doc("accented_bad_circuits")], 1, EMPTY,
          golden("accented_bad_circuits_stderr.txt"), env=env) for loc, env in ASCII_LOCALES.items()),
    *(row(f"not-utf8-{how}-{loc}", ["tutte", *argv], 1, EMPTY, golden("not_utf8_stderr.txt"),
          stdin=stdin, env=env)
      for loc, env in {"default": {}, **ASCII_LOCALES}.items()
      for how, (argv, stdin) in sources("not_utf8")),
]


@pytest.fixture(scope="module")
def runs(request):
    """The selected rows' processes, started two at a time before any row is checked:
    each spends most of its time starting the interpreter, which two cores overlap."""
    selected = [item.callspec for item in request.session.items if item.module is request.module]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return {spec.id: pool.submit(run, spec.params["argv"], **spec.params["kw"])
                for spec in selected}


@pytest.mark.parametrize("argv, code, out, err, kw", ROWS)
def test_process(request, runs, argv, code, out, err, kw):
    returncode, stdout, stderr = runs[request.node.callspec.id].result()
    (got_err, want_err), (got_out, want_out) = err(stderr), out(stdout)
    assert (got_err, returncode, got_out) == (want_err, code, want_out)
