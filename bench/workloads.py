"""Seeded perspective descriptions for the benchmark workloads.

Each generator returns the input text the ``mptutte`` CLI reads.  The seed
and a variant number only draw a relabelling of the elements 1..n and a
ground order (``order:``); the matroids, and so every count and the
polynomial itself, are the same for every seed.  That is why one golden
answer per workload (``golden.json``) holds for all seeds.

The work does depend on the order and labels: the circuit and basis scans
stop at the first hit, so one relabelling of graphic-ladder runs
``tutte --method compatible`` up to a quarter slower than another.  A run
therefore cycles through the variants 0, 1, 2, ... of its seed, and its
medians describe the workload rather than one labelling of it.
"""

import json
import random
from itertools import combinations
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _relabelling(n: int, seed):
    """(label of element i, ground order) drawn from the seed."""
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return dict(zip(range(1, n + 1), labels)), order


def _header(n: int, order) -> list:
    return [f"elements: {n}", "order: " + " ".join(map(str, order))]


def _sets(family, label) -> str:
    return " ".join("{" + ",".join(str(e) for e in sorted(label[i] for i in s)) + "}"
                    for s in family)


def ladder(k: int, seed) -> str:
    """Triangle strip (square of a path) with k edges, plus ``identify: v0=v3``.

    Edge i joins v{(i-1)//2} and v{(i-1)//2 + 1 + (i-1) % 2}.
    """
    label, order = _relabelling(k, seed)
    edges = []
    for i in range(1, k + 1):
        a = (i - 1) // 2
        b = a + 1 + (i - 1) % 2
        edges.append(f"{label[i]}=v{a}-v{b}")
    return "\n".join(_header(k, order) + [
        "graph G edges: " + " ".join(edges),
        "identify: v0=v3",
    ]) + "\n"


def uniform_truncation(r: int, n: int, seed) -> str:
    """U(r, n) over its truncation U(r-1, n), both as ``bases:`` stanzas."""
    label, order = _relabelling(n, seed)
    ground = range(1, n + 1)
    return "\n".join(_header(n, order) + [
        "matroid M bases: " + _sets(combinations(ground, r), label),
        "matroid Mp bases: " + _sets(combinations(ground, r - 1), label),
    ]) + "\n"


def wheel_circuits(spokes: int) -> list:
    """Cycles of the wheel with the given number of spokes, as edge-index sets.

    Spoke j is edge j + 1 and rim edge j (rim vertices j, j+1) is edge
    spokes + j + 1.  The cycles are the rim and, for every arc of 1..spokes-1
    consecutive rim edges, that arc closed by the two spokes at its ends.
    """
    rim = [spokes + j + 1 for j in range(spokes)]
    out = [tuple(rim)]
    for start in range(spokes):
        for length in range(1, spokes):
            arc = [rim[(start + t) % spokes] for t in range(length)]
            out.append(tuple([start + 1, (start + length) % spokes + 1] + arc))
    return out


def rank0_lift(spokes: int, seed) -> str:
    """Cycle matroid of a wheel as a ``circuits:`` stanza, over the rank-0 quotient."""
    n = 2 * spokes
    label, order = _relabelling(n, seed)
    return "\n".join(_header(n, order) + [
        "matroid M circuits: " + _sets(wheel_circuits(spokes), label),
        "matroid Mp bases: {}",
    ]) + "\n"


# name -> generator of the input text from a seed; BENCHMARK.json says why
# each workload is there
WORKLOADS = {
    "graphic-ladder": lambda seed: ladder(14, seed),
    "uniform-truncation": lambda seed: uniform_truncation(4, 12, seed),
    "rank0-lift": lambda seed: rank0_lift(6, seed),
}


def generate(name: str, seed: int, variant: int = 0) -> str:
    """Input text of one variant of a workload; the same arguments give the same text."""
    return WORKLOADS[name](f"{seed}/{variant}")


def golden(name: str) -> dict:
    """Polynomial and exact counts of a workload; the same for every seed."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]
