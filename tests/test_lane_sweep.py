"""Lane sweeps across block boundaries.

Every whole-table pass (closures, the rank transform, a graph's counting
sweep, the circuit pass, the loops of a gapped ground set, the perspective
check) runs through matroid.lane_sweep on ints of matroid._BLOCK lanes.  The
corpus tables have at most 32 lanes, one block at the default size; with
4-lane blocks every element above the second pairs whole blocks, in the
2-byte counting lanes of two graphs too.  Both sizes must give the same
tables, circuits, minors, duals and perspective verdicts, the verdicts
on gapped minors of the corpus perspectives (forward and reversed) included;
at the default size those verdicts must also be the oracle's.  One default
size case at n = 16 (16 blocks) is checked against the oracle's scans.
"""

import random
from itertools import combinations

import pytest

import oracle
from corpus import corpus_matroids, ladder, slot_canonical_graphs
from mptutte import Matroid, Multigraph, Perspective, PerspectiveError, bit, cycle_matroid, identify_vertices
from mptutte import matroid as matroid_module


def identify_v0_v3(g):
    return identify_vertices(g, [("v0", "v3")] + [(v,) for v in g.vertices if v not in ("v0", "v3")])


def verdict(m, q, check=Perspective):
    try:
        check(m, q)
    except PerspectiveError as e:
        return str(e)
    return "perspective"


def minor_sets(m, rng):
    """Three seeded subsets X of m's ground set, the top position kept so
    that M|X and M/(E - X) have gaps below it."""
    e = m.ground.mask
    top = 1 << (e.bit_length() - 1) if e else 0
    return [rng.randrange(e + 1) & e | top for _ in range(3)]


def build_everything(matroids, graphs, pairs):
    """Everything the sweep builds, from inputs taken at the default size.
    Each minor is rebuilt from its own gapped ground and bases too, which
    runs the closure of the complements over gap bits, and must give the
    minor's table back."""
    rng = random.Random(19)
    out = []
    for m in matroids:
        ground, bases, circuits = m.ground, m.bases, m.circuits
        fresh = Matroid(ground, bases, validate=False)  # cold circuit and dual caches
        minors = [x for s in minor_sets(m, rng) for x in (m.restrict(s), m.contract(ground.mask ^ s))]
        assert [Matroid.from_bases(x.ground, x.bases).ranks for x in minors] == [x.ranks for x in minors]
        out.append((Matroid.from_bases(ground, bases).ranks, Matroid.from_circuits(ground, circuits).ranks,
                    fresh.circuits, fresh.dual().ranks, [x.ranks for x in minors]))
    for g in graphs:
        out.append((cycle_matroid(g).ranks, cycle_matroid(g).circuits))
    out.extend(verdict(m, q) for m, q in pairs)
    return out


def gapped_minor_pairs(corpus):
    """The restrictions and contractions of the corpus perspectives by
    minor_sets, and the same pairs reversed, where the ground set has a gap
    (its mask is not 2^k - 1), the two tables differ and the quotient has
    rank > 0, so the lane check runs on gapped tables."""
    rng = random.Random(21)
    pairs = []
    for _, p in corpus:
        m, q = p.matroid, p.quotient
        for s in minor_sets(m, rng):
            rest = m.ground.mask ^ s
            pairs += [(m.restrict(s), q.restrict(s)), (m.contract(rest), q.contract(rest))]
    pairs += [(q, m) for m, q in pairs]
    return [(m, q) for m, q in pairs if q.rank() and q.ranks != m.ranks and m.ground.mask & (m.ground.mask + 1)]


def test_four_lane_blocks_build_what_one_block_builds(corpus, monkeypatch):
    matroids = [m for _, m in corpus_matroids(corpus)]
    graphs = [g for k in range(2, 6) for g in slot_canonical_graphs(k).values()]
    graphs += [ladder(12), identify_v0_v3(ladder(12))]
    # nullity 9, so the counting sweep runs on 2-byte lanes: K4 with every
    # edge doubled, and ten parallel edges beside a separate edge
    doubled = list(combinations("abcd", 2)) * 2
    graphs += [Multigraph("abcd", [(l, u, v) for l, (u, v) in enumerate(doubled, 1)]),
               Multigraph("abcd", [(l, "a", "b") for l in range(1, 11)] + [(11, "c", "d")])]
    # pairs on one ground set: mostly not perspectives, so the rejecting
    # pairs' messages are compared too; each pair's quotient has rank > 0
    # and a table of its own, so the lane check runs
    rng = random.Random(4)
    by_ground = {}
    for m in matroids:
        by_ground.setdefault(m.ground.order, []).append(m)
    pairs = [(m, q) for group in by_ground.values() for m in group
             for q in rng.sample(group, min(3, len(group))) if q.rank() and q.ranks != m.ranks]
    pairs.append((cycle_matroid(ladder(12)), cycle_matroid(identify_v0_v3(ladder(12)))))
    gapped = gapped_minor_pairs(corpus)
    pairs += gapped
    default = build_everything(matroids, graphs, pairs)
    assert default[-len(gapped):] == [verdict(m, q, oracle.check_perspective) for m, q in gapped]
    monkeypatch.setattr(matroid_module, "_BLOCK", 4)
    assert build_everything(matroids, graphs, pairs) == default
    accepted = default[-len(pairs):].count("perspective")
    assert accepted >= 50 and len(pairs) - accepted >= 500, "both verdicts are compared"
    accepted = default[-len(gapped):].count("perspective")
    assert accepted >= 50 and len(gapped) - accepted >= 50, "both verdicts are compared on gapped pairs"


def test_sixteen_elements_match_the_oracle_at_the_default_block_size():
    graph = ladder(16)
    n = 16
    m, mq = cycle_matroid(graph), cycle_matroid(identify_v0_v3(graph))
    bases = oracle.graph_bases(graph)
    assert len(matroid_module.lane_blocks(m.ranks)) > 1
    assert m.ranks == oracle.greedy_ranks(n, oracle.independent_flags(n, bases))
    assert m.circuits == oracle.circuits_from_bases(m.ground, bases)
    assert m.dual().ranks == oracle.dual_ranks(m)
    # the contracted table ends a whole block early, in lanes that hold gaps
    x = bit(1) | bit(13) | bit(15) | bit(16)
    assert m.contract(x).ranks == oracle.contracted_ranks(m, x)
    assert m.restrict(m.ground.mask ^ x).ranks == oracle.restricted_ranks(m, m.ground.mask ^ x)
    assert mq.ranks == oracle.greedy_ranks(n, oracle.independent_flags(n, oracle.graph_bases(
        identify_v0_v3(graph))))
    oracle.check_perspective(m, mq)
    assert verdict(m, mq) == "perspective"
    with pytest.raises(PerspectiveError) as exc:
        oracle.check_perspective(mq, m)
    assert verdict(mq, m) == str(exc.value)
