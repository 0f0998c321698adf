"""Command-line surface: parse description files, compute, print.

Input grammar (line oriented; ``#`` starts a comment; blank lines ignored)::

    elements: <n>                       # or a label list (no { } , or =): a b c
    order: <e1> <e2> ... <en>           # optional, ascending <; default natural
    matroid <name> circuits: {1,2} {3}  # or: matroid <name> bases: {1} {2}
    graph <name> edges: 1=u-v 2=v-w     # edge labels are the elements
    identify: u=v w=x                   # second matroid from the graph stanza

One matroid stanza makes a single-matroid document (commands lift it to the
perspective (M, M)); two stanzas, or a graph stanza plus ``identify:``, make
a perspective document whose first matroid is M and second is M'.

``check`` tests the bijection f(B) = B \\ Int(B) ∪ Ext(B) one way plus a count:
f(B) in D and g(f(B)) = B for each of the distinct valid sets B, and |D| equal
to their number.  So f is injective into D, hence onto it, with inverse g.

Exit codes are a contract: 0 success, 1 parse/input error (a command-line
usage error included), 2 invalid perspective, 3 property-check failure or a
tripped internal cross-check (ConsistencyError).  A reader closing stdout
early (``mptutte table | head -1``) is no error: the rest is dropped silently
and the exit code stays 0, or 3 for a failing ``check``.
"""

import argparse
import functools
import os
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass

from .bijection import backward, bijection_table
from .compatible import compatible_family
from .errors import AxiomError, ConsistencyError, DomainError, ParseError, PerspectiveError
from .graphic import Multigraph, components, cycle_matroid, identify_vertices
from .matroid import Matroid
from .perspective import Perspective
from .polynomial import Poly
from .setcore import MAX_ELEMENTS, GroundSet
from .tutte import tutte_activities, tutte_compatible, tutte_rank_generating

SET_RE = re.compile(r"\{([^{}]*)\}")
METHODS = {
    "activities": tutte_activities,
    "compatible": tutte_compatible,
    "rank-gen": tutte_rank_generating,
}


@dataclass(frozen=True)
class Stanza:
    kind: str  # "circuits" | "bases" | "graph"
    name: str
    payload: tuple  # masks for matroid stanzas, (label, u, v) triples for graphs
    line: int


@dataclass(frozen=True)
class InputDocument:
    ground: GroundSet  # named by the document's element labels
    stanzas: tuple
    identify_classes: tuple | None  # partition of the graph's vertices, or None

    @property
    def is_perspective(self) -> bool:
        return len(self.stanzas) == 2 or self.identify_classes is not None


def parse_input(text: str) -> InputDocument:
    """Parse a description file.  Raises ParseError with the offending line."""
    labels = None
    label_index = {}
    order = None
    stanzas = []
    identify_pairs = None
    identify_line = None

    def need_elements(no):
        if labels is None:
            raise ParseError("'elements:' must come before this line", no)

    def parse_set(token, no):
        mask = 0
        for part in token.split(",") if token.strip() else ():
            part = part.strip()
            if part not in label_index:
                raise ParseError(f"unknown element {part!r}", no)
            mask |= 1 << (label_index[part] - 1)
        return mask

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        keyword = head.split()[0] if head.split() else ""

        if keyword == "elements":
            if not sep:
                raise ParseError("expected 'elements: ...'", no)
            if labels is not None:
                raise ParseError("duplicate 'elements:' line", no)
            tokens = rest.split()
            count = len(tokens) == 1 and tokens[0].isascii() and tokens[0].isdigit()
            if not count and len(set(tokens)) != len(tokens):
                raise ParseError("duplicate element labels", no)
            # a count stays text until it is known to be small
            n = (tokens[0].lstrip("0") or "0") if count else str(len(tokens))
            if len(n) > len(str(MAX_ELEMENTS)) or int(n) > MAX_ELEMENTS:
                raise ParseError(f"{n} elements exceeds the limit of {MAX_ELEMENTS}", no)
            labels = tuple(map(str, range(1, int(n) + 1))) if count else tuple(tokens)
            for lbl in labels:
                if any(ch in lbl for ch in "{},="):
                    raise ParseError(f"element label {lbl!r} contains a reserved character "
                                     "(one of { } , =)", no)
            label_index = {lbl: i for i, lbl in enumerate(labels, start=1)}
        elif keyword == "order":
            need_elements(no)
            if order is not None:
                raise ParseError("duplicate 'order:' line", no)
            tokens = rest.split()
            try:
                order = tuple(label_index[t] for t in tokens)
            except KeyError as e:
                raise ParseError(f"unknown element {e.args[0]!r} in order", no) from None
            if sorted(order) != list(range(1, len(labels) + 1)):
                raise ParseError("order must list every element exactly once", no)
        elif keyword == "matroid":
            need_elements(no)
            m = re.fullmatch(r"matroid\s+(\S+)\s+(circuits|bases)", head.strip())
            if not m or not sep:
                raise ParseError("expected 'matroid <name> circuits: ...' or 'matroid <name> bases: ...'", no)
            name, kind = m.group(1), m.group(2)
            sets = [parse_set(s, no) for s in SET_RE.findall(rest)]
            if SET_RE.sub("", rest).strip():
                raise ParseError(f"unexpected text {SET_RE.sub('', rest).strip()!r} in set list", no)
            _add_stanza(stanzas, Stanza(kind, name, tuple(sets), no), no)
        elif keyword == "graph":
            need_elements(no)
            m = re.fullmatch(r"graph\s+(\S+)\s+edges", head.strip())
            if not m or not sep:
                raise ParseError("expected 'graph <name> edges: ...'", no)
            edges = {}  # element -> its edge; each element labels exactly one
            for token in rest.split():
                lbl, eq, ends = token.partition("=")
                u, dash, v = ends.partition("-")
                if not eq or not dash or not u or not v:
                    raise ParseError(f"bad edge {token!r}; expected label=u-v", no)
                if lbl not in label_index:
                    raise ParseError(f"unknown element {lbl!r}", no)
                if label_index[lbl] in edges:
                    raise ParseError(f"element {lbl!r} labels more than one edge", no)
                edges[label_index[lbl]] = (label_index[lbl], u, v)
            missing = [lbl for lbl in labels if label_index[lbl] not in edges]
            if missing:
                raise ParseError(f"elements without an edge: {' '.join(missing)}", no)
            _add_stanza(stanzas, Stanza("graph", m.group(1), tuple(edges.values()), no), no)
        elif keyword == "identify":
            need_elements(no)
            if identify_pairs is not None:
                raise ParseError("duplicate 'identify:' line", no)
            pairs = []
            for token in rest.split():
                u, eq, v = token.partition("=")
                if not eq or not u or not v:
                    raise ParseError(f"bad identification {token!r}; expected u=v", no)
                pairs.append((u, v))
            identify_pairs = tuple(pairs)
            identify_line = no
        else:
            raise ParseError(f"unrecognized line {line!r}", no)

    if labels is None:
        raise ParseError("missing 'elements:' declaration")
    if not stanzas:
        raise ParseError("no matroid or graph stanza")
    if identify_pairs is not None:
        if len(stanzas) != 1 or stanzas[0].kind != "graph":
            raise ParseError(
                "'identify:' needs exactly one graph stanza and no other matroid stanza",
                identify_line,
            )

    classes = None
    if identify_pairs is not None:
        classes = _classes_from_pairs(stanzas[0], identify_pairs, identify_line)
    return InputDocument(
        ground=GroundSet(len(labels), order=order, names=labels),
        stanzas=tuple(stanzas),
        identify_classes=classes,
    )


def _add_stanza(stanzas, stanza, no):
    if any(s.name == stanza.name for s in stanzas):
        raise ParseError(f"duplicate stanza name {stanza.name!r}", no)
    if len(stanzas) >= 2:
        raise ParseError("at most two matroid/graph stanzas are allowed", no)
    stanzas.append(stanza)


def _graph_from_stanza(stanza: Stanza) -> Multigraph:
    vertices = tuple(dict.fromkeys(x for _, u, v in stanza.payload for x in (u, v)))
    return Multigraph(vertices=vertices, edges=stanza.payload)


def _classes_from_pairs(graph_stanza, pairs, line):
    vertices = _graph_from_stanza(graph_stanza).vertices
    for u, v in pairs:
        if u not in vertices or v not in vertices:
            raise ParseError(f"unknown vertex in identification {u}={v}", line)
    return components(vertices, pairs)


def document_matroids(doc: InputDocument) -> list:
    """Build the (name, Matroid) pairs a document describes, in order."""
    out = []
    for stanza in doc.stanzas:
        try:
            if stanza.kind == "circuits":
                m = Matroid.from_circuits(doc.ground, stanza.payload)
            elif stanza.kind == "bases":
                m = Matroid.from_bases(doc.ground, stanza.payload)
            else:
                m = cycle_matroid(_graph_from_stanza(stanza), doc.ground)
        except AxiomError as e:
            raise AxiomError(f"in stanza {stanza.name!r} (line {stanza.line}): {e}") from e
        out.append((stanza.name, m))
    if doc.identify_classes is not None:
        g = _graph_from_stanza(doc.stanzas[0])
        merged = identify_vertices(g, doc.identify_classes)
        out.append((doc.stanzas[0].name + "'", cycle_matroid(merged, doc.ground)))
    return out


def document_perspective(doc: InputDocument) -> Perspective:
    """The document's perspective; single-matroid documents lift to (M, M)."""
    ms = document_matroids(doc)
    if len(ms) == 1:
        return Perspective(ms[0][1], ms[0][1])
    return Perspective(ms[0][1], ms[1][1])


# -- commands ----------------------------------------------------------------

def cmd_tutte(doc: InputDocument, method: str = "activities") -> str:
    """Canonical polynomial string for the document's perspective."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    return str(METHODS[method](document_perspective(doc)))


def cmd_table(doc: InputDocument) -> str:
    """TSV bijection table: columns B, Int, Ext, X, Term."""
    p = document_perspective(doc)
    fmt = doc.ground.fmt
    terms = {}  # exponent triple -> its term; a table has few distinct triples
    lines = ["B\tInt\tExt\tX\tTerm"]
    for row in bijection_table(p):
        if row.monomial not in terms:
            terms[row.monomial] = str(Poly.monomial(*row.monomial))
        lines.append(f"{fmt(row.b)}\t{fmt(row.internal)}\t{fmt(row.external)}\t{fmt(row.x)}\t"
                     f"{terms[row.monomial]}")
    return "\n".join(lines)


def cmd_compatible(doc: InputDocument) -> str:
    """The compatible family, one set per line, ascending size then lex."""
    p = document_perspective(doc)
    family = sorted(compatible_family(p), key=doc.ground.size_lex_key)
    return "\n".join(map(doc.ground.fmt, family))


def cmd_check(doc: InputDocument, seed: int = 0) -> tuple:
    """Run the full property suite; returns (report text, all passed)."""
    p = document_perspective(doc)
    fmt = doc.ground.fmt
    results = [("perspective validation", True, "")]

    def run(name, fn):
        try:
            detail = fn()
            results.append((name, True, detail or ""))
        except (_CheckFailure, DomainError) as e:  # the input is valid by now: a failed check
            results.append((name, False, str(e)))

    rows = bijection_table(p)
    family = compatible_family(p)
    family_set = set(family)

    def round_trips():
        for row in rows:
            if row.x not in family_set:
                raise _CheckFailure(f"f({fmt(row.b)}) = {fmt(row.x)} is not compatible")
            if backward(p, row.x) != row.b:
                raise _CheckFailure(f"g(f(B)) != B at B = {fmt(row.b)}")
        # f is injective on distinct rows, and onto D when the counts agree
        valid = {row.b for row in rows}
        if not len(family) == len(valid) == len(rows):
            raise _CheckFailure(f"|D| = {len(family)} but {len(valid)} valid sets in {len(rows)} rows")

    def intervals():
        covered = bytearray(1 << doc.ground.size)
        for row in rows:
            lower = row.b & ~row.internal
            free = (row.b | row.external) & ~lower
            t = 0
            while True:
                s = lower | t
                if covered[s]:
                    owner = next(r.b for r in rows if not (r.b & ~r.internal & ~s or s & ~(r.b | r.external)))
                    raise _CheckFailure(f"{fmt(s)} lies in the intervals of both "
                                        f"{fmt(owner)} and {fmt(row.b)}")
                covered[s] = 1
                if t == free:
                    break
                t = (t - free) & free
        missing = covered.count(0)
        if missing:
            raise _CheckFailure(f"{missing} subsets not covered by any interval")

    base = Poly(Counter(row.monomial for row in rows))

    def agreement():
        c = tutte_compatible(p)
        r = tutte_rank_generating(p)
        if not (base == c == r):
            raise _CheckFailure(
                f"activities {base} | compatible {c} | rank-generating {r}"
            )
        return f"T = {base}; max z exponent {base.max_z_exponent()}"

    def order_invariance():
        rng = random.Random(seed)
        n = doc.ground.size
        for i in range(10):
            perm = rng.sample(range(1, n + 1), n)
            other = tutte_activities(p.reordered(perm))
            if other != base:
                shown = ", ".join(doc.ground.names[e - 1] for e in perm)
                raise _CheckFailure(f"order [{shown}] gave {other} instead of {base}")

    run("bijection round trips (f, g mutually inverse between valid sets and D)", round_trips)
    run("interval partition of the power set", intervals)
    run("polynomial agreement (activities = compatible = rank-gen)", agreement)
    run(f"order invariance (10 orders, seed {seed})", order_invariance)

    ok = all(passed for _, passed, _ in results)
    lines = []
    for name, passed, detail in results:
        mark = "ok" if passed else "FAIL"
        lines.append(f"{mark:4s} {name}" + (f": {detail}" if detail else ""))
    lines.append("all checks passed" if ok else "CHECKS FAILED")
    return "\n".join(lines), ok


class _CheckFailure(Exception):
    pass


# -- entry point ------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (malformed input), since 2
    means a valid pair that is not a perspective."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call of main."""
    parser = _ArgumentParser(
        prog="mptutte",
        description="Tutte polynomials of matroid perspectives: "
        "activities and compatible-sets expansions, bijection tables, property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("--input", metavar="FILE", help="description file (default: stdin)")
        return c

    tutte_cmd = add("tutte", "print the Tutte polynomial")
    tutte_cmd.add_argument(
        "--method", choices=sorted(METHODS), default="activities",
        help="expansion to use (all agree; default: activities)",
    )
    add("table", "print the bijection table as TSV")
    add("compatible", "print the compatible family, one set per line")
    check_cmd = add("check", "run the property suite against the input")
    check_cmd.add_argument("--seed", type=int, default=0, help="seed for the random element orders")
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.  main may be called repeatedly in
    one process: each call parses with the one shared parser and keeps no other
    state."""
    args = _parser().parse_args(argv)
    ok = True
    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        doc = parse_input(text)
        if args.command == "tutte":
            out = cmd_tutte(doc, args.method)
        elif args.command == "table":
            out = cmd_table(doc)
        elif args.command == "compatible":
            out = cmd_compatible(doc)
        else:
            out, ok = cmd_check(doc, seed=args.seed)
    except (ParseError, AxiomError, DomainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PerspectiveError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    try:
        print(out, flush=True)
    except BrokenPipeError:  # the reader left: what shutdown flushes goes nowhere too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
