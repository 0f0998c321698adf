"""`main` is total: no input text makes it raise or leave the exit-code contract.

Documents are drawn from the input grammar on at most 6 elements, with the
faults a user makes mixed in: unknown or reserved labels, broken orders,
sets that break the axioms, pairs that are no perspective, heads without
their colon or with a stray word before it, stray lines.
Every command runs on each one in-process.  Each must return 0–3 without
raising; a nonzero exit prints exactly one line on stderr, and exit 0 none.
The examples are derandomized, so every run tries the same documents.
"""

import contextlib
import io
import sys
from datetime import timedelta
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mptutte.cli import main

COMMANDS = (
    ["tutte"],
    ["tutte", "--method", "compatible"],
    ["tutte", "--method", "rank-gen"],
    ["table"],
    ["compatible"],
    ["check"],
    ["check", "--seed", "3"],
)
LETTERS = "abcdefg"
VERTICES = ("u", "v", "w", "x")


@st.composite
def documents(draw):
    """Mostly valid documents, one fault in about every eighth choice."""

    def slip():
        return draw(st.integers(0, 7)) == 0

    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        labels = [str(e) for e in range(1, n + 1)]
        header = "elements: " + draw(st.sampled_from(["", "0", "00"])) + str(n)
    else:
        labels = list(draw(st.permutations(LETTERS))[:n])
        if labels and slip():  # a reserved character, or a label twice
            labels[-1] = draw(st.sampled_from(["{", "=", "a,b", labels[0]]))
        header = "elements: " + " ".join(labels)
    known = labels + (["z"] if slip() else [])  # "z" is never declared
    lines = [header]
    if draw(st.booleans()):
        order = draw(st.permutations(labels))
        if slip():
            order = draw(st.sampled_from([order[1:], order + order[:1]]))
        lines.append("order: " + " ".join(order))

    def subset(of):
        return [e for e in of if draw(st.booleans())]

    def sets(family):
        return " ".join("{" + ",".join(s) + "}" for s in family)

    def stanza(name, kind=None):
        kind = kind or draw(st.sampled_from(["graph", "uniform", "disjoint", "free", "loops", "any"]))
        if kind == "graph":
            edges = [(e, draw(st.sampled_from(VERTICES)), draw(st.sampled_from(VERTICES)))
                     for e in (subset(known) if slip() else known)]
            return f"graph {name} edges: " + " ".join(f"{e}={u}-{v}" for e, u, v in edges)
        if kind == "uniform":  # U(r, S), the rest loops
            span = subset(known)
            return f"matroid {name} bases: " + sets(combinations(span, draw(st.integers(0, len(span)))))
        if kind == "disjoint":  # disjoint circuits always satisfy the axioms
            blocks = {}
            for e in subset(known):
                blocks.setdefault(draw(st.integers(0, 2)), []).append(e)
            return f"matroid {name} circuits: " + sets(blocks.values())
        if kind == "free":
            return f"matroid {name} bases: " + sets([known])
        if kind == "loops":
            return f"matroid {name} bases: {{}}"
        family = [subset(known) for _ in range(draw(st.integers(1, 4)))]
        return f"matroid {name} {draw(st.sampled_from(['circuits', 'bases']))}: " + sets(family)

    first = stanza("M")
    lines.append(first)
    shape = draw(st.sampled_from(["single", "same", "pair", "identify"] + ["none", "three"] * slip()))
    if shape == "same":
        lines.append(first.replace(" M ", " N ", 1))
    elif shape in ("pair", "three"):
        lines.append(stanza("N"))
        if shape == "three":
            lines.append(stanza("P"))
    elif shape == "identify":
        if not first.startswith("graph") and not slip():
            lines[-1] = stanza("M", "graph")
        pairs = [(draw(st.sampled_from(VERTICES + ("q",) * slip())), draw(st.sampled_from(VERTICES)))
                 for _ in range(draw(st.integers(1, 2)))]
        lines.append("identify: " + " ".join(f"{u}={v}" for u, v in pairs))
    elif shape == "none":
        lines.pop()
    if slip():  # a head without its colon, or with a word before the colon
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace(":", draw(st.sampled_from(["", " x:"])), 1)
    if slip():
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_main_is_total(text):
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2, 3), (argv, text)
        lines = 1 if code else 0
        assert err.getvalue().count("\n") == lines and err.getvalue()[-1:] == "\n" * lines, (argv, text)
