"""In-memory spans recorded around calls into the program's layers.

A span is a dict with its id, name, parent id, workload id, start and end
(``time.perf_counter`` seconds) plus any attributes given when it opened.
Spans stay in memory until :meth:`Tracer.write` dumps them at the end of a
run.  The layer of a span is the part of its name before the first dot, so
``matroid.rank_sweep`` belongs to the ``matroid`` layer.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records nested spans for one workload; ``span`` opens one as a context."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "workload": self.workload, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def write(self, path, summary: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "summary": summary, "spans": self.spans},
                      fh, indent=1)
            fh.write("\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = duration(s) - covered
    return out


def descendants(spans, root_id: int) -> list:
    """The root span and every span below it, in recording order."""
    inside = {root_id}
    out = []
    for s in spans:
        if s["id"] == root_id or s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out
