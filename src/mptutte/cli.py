"""Command-line surface: parse description files, compute, print.

Input grammar (line oriented; ``#`` starts a comment; blank lines ignored).
Every line is ``<head>: <body>``, with one of five heads; a line whose head is
not exactly one of them, or lacks the colon, is refused on its line::

    elements: <n>                       # or a label list (no { } , or =): a b c
    order: <e1> <e2> ... <en>           # optional, ascending <; default natural
    matroid <name> circuits: {1,2} {3}  # or: matroid <name> bases: {1} {2}
    graph <name> edges: 1=u-v 2=v-w     # edge labels are the elements; no = in a vertex
    identify: u=v w=x                   # second matroid from the graph stanza

One matroid stanza makes a single-matroid document (commands lift it to the
perspective (M, M)); two stanzas, or a graph stanza plus ``identify:``, make
a perspective document whose first matroid is M and second is M'.

``check`` tests the bijection f(B) = B \\ Int(B) ∪ Ext(B) one way plus a count:
f(B) in D and g(f(B)) = B for each of the distinct valid sets B, and |D| equal
to their number.  So f is injective into D, hence onto it, with inverse g.
It builds no table row: each activity class (Int, Ext) gives every one of its
B the image B \\ Int ∪ Ext and the interval B \\ Int plus any part of Int ∪ Ext,
and the classes' counts give the activities polynomial.  Membership in D is
read off the compatible family, so g runs without proving it again.  A check
that finds a fault runs again on the bijection table in table order, the only
form that names a failure: there the checked g, bijection.backward, runs on
each row in turn, so its own refusal of an image outside D names the first
failing row.

``table`` is written by size of B, in chunks of at most TABLE_CHUNK lines,
in an order it packs itself from the activity classes: each valid B becomes
one int whose bare sort is the table's order and which reads B and its class
back.  Each row costs two set prints, and each activity class's Int and Ext
columns and each term are formatted once.
``compatible`` is written in chunks of at most TABLE_CHUNK lines too.  For
both, everything that can fail (parsing, the axioms, the perspective and the
class or family pass) runs before the first line is written.

Exit codes are a contract: 0 success, 1 parse/input error (a command-line
usage error included), 2 invalid perspective, 3 property-check failure or a
tripped internal cross-check (ConsistencyError).  A reader closing stdout
early (``mptutte table | head -1``) is no error: the rest is dropped silently
and the exit code stays 0, or 3 for a failing ``check``.  Input is read, and
stdout and error lines written, as UTF-8 whatever the locale.
"""

import argparse
import functools
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterator

from .activities import activity_classes, monomial_counts
from .bijection import _inverse, backward, bijection_table
from .compatible import compatible_family
from .errors import AxiomError, ConsistencyError, DomainError, ParseError, PerspectiveError
from .graphic import Multigraph, components, cycle_matroid, identify_vertices
from .matroid import Matroid
from .perspective import Perspective
from .polynomial import Poly
from .setcore import MAX_ELEMENTS, GroundSet, submasks
from .tutte import _compatible_sum, tutte_activities, tutte_compatible, tutte_rank_generating

SET_RE = re.compile(r"\{([^{}]*)\}")
TABLE_CHUNK = 65536  # most lines `table` writes at once
METHODS = {
    "activities": tutte_activities,
    "compatible": tutte_compatible,
    "rank-gen": tutte_rank_generating,
}


# kind is "circuits", "bases" or "graph"; payload holds masks for matroid
# stanzas and (label, u, v) triples for graphs
Stanza = namedtuple("Stanza", "kind name payload line")
# ground is named by the document's element labels; identify_classes is a
# partition of the graph's vertices, or None
InputDocument = namedtuple("InputDocument", "ground stanzas identify_classes")


def parse_input(text: str) -> InputDocument:
    """Parse a description file.  Raises ParseError with the offending line."""
    index = None  # element label -> its position, from the 'elements:' line
    singles = {}  # keyword of a line allowed once -> (its parsed body, its line number)
    stanzas = []
    text = text.removeprefix("\ufeff")  # a byte-order mark an editor may have saved
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, body = line.partition(":")
        keyword = (head.split() or [""])[0]
        if keyword not in _LINES:
            raise ParseError(f"unrecognized line {line!r}", no)
        if index is None and keyword != "elements":
            raise ParseError("'elements:' must come before this line", no)
        pattern, expected, parse_body = _LINES[keyword]
        m = pattern.fullmatch(head.strip())
        if not m or not colon:
            raise ParseError(expected, no)
        if keyword in singles:
            raise ParseError(f"duplicate '{keyword}:' line", no)
        value = parse_body(body, index, no)
        if not m.groups():  # elements, order or identify
            singles[keyword] = value, no
            if keyword == "elements":
                index = value
        elif any(s.name == m["name"] for s in stanzas):  # a stanza, named in its head
            raise ParseError(f"duplicate stanza name {m['name']!r}", no)
        elif len(stanzas) >= 2:
            raise ParseError("at most two matroid/graph stanzas are allowed", no)
        else:
            stanzas.append(Stanza(m["kind"], m["name"], value, no))
    if index is None:
        raise ParseError("missing 'elements:' declaration")
    if not stanzas:
        raise ParseError("no matroid or graph stanza")
    order = singles["order"][0] if "order" in singles else None
    classes = _classes(stanzas, *singles["identify"]) if "identify" in singles else None
    return InputDocument(GroundSet(len(index), order=order, names=tuple(index)), tuple(stanzas), classes)


def _classes(stanzas, pairs, line):
    """The vertex classes an 'identify:' line's pairs make of the one graph stanza."""
    if len(stanzas) != 1 or stanzas[0].kind != "graph":
        raise ParseError("'identify:' needs exactly one graph stanza and no other matroid stanza", line)
    vertices = dict.fromkeys(x for _, u, v in stanzas[0].payload for x in (u, v))
    for u, v in pairs:
        if u not in vertices or v not in vertices:
            raise ParseError(f"unknown vertex in identification {u}={v}", line)
    return components(vertices, pairs)


# -- line bodies: each gets the text after the colon, the label -> position map
# of the 'elements:' line (None while parsing that line) and the line number

def _elements(body, _, no):
    tokens = body.split()
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
    return {lbl: i for i, lbl in enumerate(labels, start=1)}


def _order(body, index, no):
    try:
        order = tuple(index[t] for t in body.split())
    except KeyError as e:
        raise ParseError(f"unknown element {e.args[0]!r} in order", no) from None
    if sorted(order) != list(range(1, len(index) + 1)):
        raise ParseError("order must list every element exactly once", no)
    return order


def _sets(body, index, no):
    masks = []
    for inside in SET_RE.findall(body):
        mask = 0
        for part in inside.split(",") if inside.strip() else ():
            mask |= 1 << (_element(part.strip(), index, no) - 1)
        masks.append(mask)
    if SET_RE.sub("", body).strip():
        raise ParseError(f"unexpected text {SET_RE.sub('', body).strip()!r} in set list", no)
    return tuple(masks)


def _edges(body, index, no):
    edges = {}  # element -> its edge; each element labels exactly one
    for lbl, u, v in _tokens(body, no, "edge", "label=u-v", r"([^=]*)=([^-]+)-(.+)"):
        e = _element(lbl, index, no)
        if "=" in u + v:  # 'identify: u=v' could not name the vertex
            raise ParseError(f"vertex name {u if '=' in u else v!r} contains the reserved character =", no)
        if e in edges:
            raise ParseError(f"element {lbl!r} labels more than one edge", no)
        edges[e] = (e, u, v)
    missing = [lbl for lbl, e in index.items() if e not in edges]
    if missing:
        raise ParseError(f"elements without an edge: {' '.join(missing)}", no)
    return tuple(edges.values())


def _element(label, index, no):
    if label not in index:
        raise ParseError(f"unknown element {label!r}", no)
    return index[label]


def _tokens(body, no, kind, form, pattern):
    """The parts `pattern` cuts each token of `body` into, one token at a time.  Both
    patterns cut at the first '=', and an edge's ends at the first '-' after it."""
    cut = re.compile(pattern).fullmatch
    for token in body.split():
        m = cut(token)
        if not m:
            raise ParseError(f"bad {kind} {token!r}; expected {form}", no)
        yield m.groups()


# keyword (a line's first word) -> the pattern its whole head must match, the
# message when it does not or the colon is missing, and the parser of its body
_LINES = {
    "elements": (re.compile("elements"), "expected 'elements: ...'", _elements),
    "order": (re.compile("order"), "expected 'order: ...'", _order),
    "matroid": (re.compile(r"matroid\s+(?P<name>\S+)\s+(?P<kind>circuits|bases)"),
                "expected 'matroid <name> circuits: ...' or 'matroid <name> bases: ...'", _sets),
    "graph": (re.compile(r"(?P<kind>graph)\s+(?P<name>\S+)\s+edges"),
              "expected 'graph <name> edges: ...'", _edges),
    "identify": (re.compile("identify"), "expected 'identify: ...'",
                 lambda body, _, no: tuple(_tokens(body, no, "identification", "u=v", r"([^=]+)=(.+)"))),
}


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
                vertices = tuple(dict.fromkeys(x for _, u, v in stanza.payload for x in (u, v)))
                g = Multigraph(vertices=vertices, edges=stanza.payload)
                m = cycle_matroid(g, doc.ground)
        except AxiomError as e:
            raise AxiomError(f"in stanza {stanza.name!r} (line {stanza.line}): {e}") from e
        out.append((stanza.name, m))
    if doc.identify_classes is not None:  # parse_input allows it only beside one graph stanza
        merged = identify_vertices(g, doc.identify_classes)
        out.append((doc.stanzas[0].name + "'", cycle_matroid(merged, doc.ground)))
    return out


def document_perspective(doc: InputDocument, checked: bool = False) -> Perspective:
    """The document's perspective; single-matroid documents lift to (M, M).
    A graph beside its identification is a perspective by theorem, so that
    pair is checked only when `checked` asks for it; every other pair is
    always checked."""
    ms = document_matroids(doc)
    if doc.identify_classes is not None and not checked:
        return Perspective._unchecked(ms[0][1], ms[1][1])
    return Perspective(ms[0][1], ms[-1][1])


# -- commands ----------------------------------------------------------------

def cmd_tutte(doc: InputDocument, method: str = "activities") -> str:
    """Canonical polynomial string for the document's perspective."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    return str(METHODS[method](document_perspective(doc)))


def cmd_table(doc: InputDocument) -> Iterator[str]:
    """TSV bijection table, columns B, Int, Ext, X, Term, as chunks of lines
    to write in turn, each followed by a newline: the header, then each size
    of B in chunks of at most TABLE_CHUNK lines.  Everything that can fail
    runs before it returns; the chunks are only formatted."""
    p = document_perspective(doc)
    fmt, key = doc.ground.fmt, doc.ground.size_lex_key
    low, n, rank = p.ground.mask, p.ground.mask.bit_length(), p.matroid.rank()
    # each valid B becomes the int size_lex_key(B) << (n + cbits) | c << n | B, c its
    # class's index, in a list for |B|: size_lex_key is injective, so a bare sort of
    # each list is the table's order, and B = v & low, c = v >> n & cmask
    found = activity_classes(p.quotient, p.matroid, True)
    cbits = len(found).bit_length()
    shift, cmask = n + cbits, (1 << cbits) - 1
    classes, sizes = [], [[] for _ in range(n + 1)]
    appends = [order.append for order in sizes]
    while found:  # popped, so each class's list is freed once packed
        internal, external, bs = found.pop()
        c = len(classes) << n
        classes.append((internal, external))
        for b in bs:
            appends[b.bit_count()](key(b) << shift | c | b)
    for order in sizes:
        order.sort()
    pairs = {}  # (|Int|, |Ext|) -> its index; a table has few distinct pairs
    # per class: the text between B and X, Int | Ext (X = B ^ Int ^ Ext), its pair's index
    parts = [(f"\t{fmt(internal)}\t{fmt(external)}\t", internal | external,
              pairs.setdefault((internal.bit_count(), external.bit_count()), len(pairs)))
             for internal, external in classes]

    def chunks():
        yield "B\tInt\tExt\tX\tTerm"
        for size, order in enumerate(sizes):
            terms = [f"\t{Poly.monomial(*pair, rank - size)}" for pair in pairs] if order else []
            for start in range(0, len(order), TABLE_CHUNK):
                lines = []
                for v in order[start:start + TABLE_CHUNK]:
                    b = v & low
                    between, free, pair = parts[v >> n & cmask]
                    lines.append(f"{fmt(b)}{between}{fmt(b ^ free)}{terms[pair]}")
                yield "\n".join(lines)
            sizes[size] = None  # written: its ints can go

    return chunks()


def cmd_compatible(doc: InputDocument) -> Iterator[str]:
    """The compatible family, one set per line, ascending size then lex, as
    chunks of at most TABLE_CHUNK lines to write in turn, each followed by a
    newline.  Everything that can fail runs before it returns."""
    p = document_perspective(doc)
    family = compatible_family(p)
    family.sort(key=doc.ground.size_lex_key)  # in place: no second list of D
    fmt = doc.ground.fmt
    return ("\n".join(map(fmt, family[i:i + TABLE_CHUNK])) for i in range(0, len(family), TABLE_CHUNK))


def cmd_check(doc: InputDocument, seed: int = 0) -> tuple:
    """Run the full property suite; returns (report text, all passed)."""
    p = document_perspective(doc, checked=True)
    fmt = doc.ground.fmt
    results = [("perspective validation", True, "")]

    def run(name, fn):
        try:
            detail = fn()
            results.append((name, True, detail or ""))
        except (_CheckFailure, DomainError) as e:  # the input is valid by now: a failed check
            results.append((name, False, str(e)))

    n = p.ground.mask.bit_length()
    # (Int, Ext, the valid sets B with them) per activity class
    classes = activity_classes(p.quotient, p.matroid, True)
    total = sum(len(bs) for _, _, bs in classes)
    family = compatible_family(p)

    def round_trips():
        # bit 0 marks the members of D, bit 1 each B already met
        seen = bytearray(1 << n)
        for x in family:
            seen[x] = 1
        for internal, external, bs in classes:
            keep = ~internal
            for b in bs:
                x = b & keep | external
                if not seen[x] & 1 or seen[b] & 2 or _inverse(p, x) != b:
                    return row_round_trips()
                seen[b] |= 2
        if len(family) != total:
            row_round_trips()

    def row_round_trips():
        # an image missing from the family fails here; one listed in D that
        # is not a member is refused by the checked g with its DomainError
        rows = bijection_table(p)
        family_set = set(family)
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
        # every B of a class spans the cube of the class's free mask Int | Ext
        # from B \ Int; 2^n marks with no subset left unmarked mark none twice
        covered = bytearray(1 << n)
        marks = 0
        for internal, external, bs in classes:
            free = internal | external
            cube = list(submasks(free))
            marks += len(bs) * len(cube)
            for b in bs:
                lower = b & ~internal
                if (b | external) & ~lower != free:  # Int not inside B, or Ext meets B \ Int
                    return row_intervals()
                for t in cube:
                    covered[lower | t] = 1
        if marks != len(covered) or covered.count(0):
            row_intervals()

    def row_intervals():
        rows = bijection_table(p)
        covered = bytearray(1 << n)
        for row in rows:
            lower = row.b & ~row.internal
            for t in submasks((row.b | row.external) & ~lower):
                s = lower | t
                if covered[s]:
                    owner = next(r.b for r in rows if not (r.b & ~r.internal & ~s or s & ~(r.b | r.external)))
                    raise _CheckFailure(f"{fmt(s)} lies in the intervals of both "
                                        f"{fmt(owner)} and {fmt(row.b)}")
                covered[s] = 1
        missing = covered.count(0)
        if missing:
            raise _CheckFailure(f"{missing} subsets not covered by any interval")

    rank = p.matroid.rank()
    base = Poly(monomial_counts(((i.bit_count(), e.bit_count(), bs) for i, e, bs in classes), rank))

    def agreement():
        c = _compatible_sum(p, family)
        r = tutte_rank_generating(p)
        if not (base == c == r):
            raise _CheckFailure(
                f"activities {base} | compatible {c} | rank-generating {r}"
            )
        return f"T = {base}; max z exponent {base.max_z_exponent()}"

    def order_invariance():
        import random  # only check needs it, so other commands skip its import
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
        if args.input is not None:
            with open(args.input, "rb") as fh:
                text = fh.read()
        else:  # a stdin without a byte layer (a StringIO) is read as text
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
        doc = parse_input(text.decode("utf-8") if isinstance(text, bytes) else text)
        if args.command == "tutte":
            chunks = [cmd_tutte(doc, args.method)]
        elif args.command == "table":
            chunks = cmd_table(doc)
        elif args.command == "compatible":
            chunks = cmd_compatible(doc)
        else:
            report, ok = cmd_check(doc, seed=args.seed)
            chunks = [report]
    except (ParseError, AxiomError, DomainError, OSError, UnicodeDecodeError,
            PerspectiveError, ConsistencyError) as e:
        _write_line(sys.stderr, f"error: {e}")
        return {PerspectiveError: 2, ConsistencyError: 3}.get(type(e), 1)
    try:
        for chunk in chunks:
            _write_line(sys.stdout, chunk)
    except BrokenPipeError:  # the reader left: what shutdown flushes goes nowhere too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0 if ok else 3


def _write_line(stream, text: str):
    """Write a line to `stream` as UTF-8, or as text if it has no byte layer (a StringIO)."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        print(text, file=stream, flush=True)
    else:
        buffer.write(text.encode("utf-8") + b"\n")
        buffer.flush()


if __name__ == "__main__":
    sys.exit(main())
