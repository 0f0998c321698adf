"""The one construction path against the scans it replaced.

Every matroid is built as independence flags turned into a rank table by
the max-plus zeta transform, and its bases and circuits are read off that
table.  The greedy rank pass, the basis-pair circuit scan and the spanning
forest candidate scan that built them before live on unchanged in
tests/oracle.py; here each table, basis family and circuit family must
equal theirs.
"""

import itertools
import random

import oracle
from mptutte import (
    GroundSet,
    Matroid,
    Multigraph,
    cycle_matroid,
    identify_vertices,
    uniform_matroid,
)
from corpus import corpus_matroids, ladder, slot_canonical_graphs


def identify_v0_v3(g):
    return identify_vertices(g, [("v0", "v3")] + [(v,) for v in g.vertices if v not in ("v0", "v3")])


def assert_table_from_bases(m, bases, brute=True):
    """m's table is the greedy table of the downward closure of `bases`, and
    (when `brute`) every entry is the largest intersection with a basis."""
    n = m.ground.mask.bit_length()
    assert m.ranks == oracle.greedy_ranks(n, oracle.independent_flags(n, bases))
    if brute:
        for x in m.ground.subsets():
            assert m.ranks[x] == max(map(int.bit_count, map(x.__and__, bases))), x


def gapped_minors(m):
    """Minors that drop element 1 or 2, whose ground sets have a gap, each
    checked entry by entry against the rank formula of its kind."""
    out = []
    for b in (1, 2):
        if m.ground.mask & b:
            restricted, contracted = m.restrict(m.ground.mask ^ b), m.contract(b)
            for s in restricted.ground.subsets():
                assert restricted.rank(s) == m.rank(s)
                assert contracted.rank(s) == m.rank(s | b) - m.rank(b)
            out += [restricted, contracted]
    return out


def checked_dual(m):
    """m's dual, checked entry by entry against r*(S) = |S| - r(E) + r(E - S)."""
    d = m.dual()
    for s in m.ground.subsets():
        assert d.rank(s) == s.bit_count() - m.rank() + m.rank(m.ground.mask ^ s)
    return d


def test_corpus_tables_bases_and_circuits_match_the_replaced_scans(corpus):
    checked = 0
    for name, m in corpus_matroids(corpus):
        family = [m, *gapped_minors(m)]
        for matroid in family + [checked_dual(x) for x in family]:
            ground = matroid.ground
            bases = matroid.bases
            assert list(bases) == sorted(bases), name
            assert_table_from_bases(matroid, bases)
            # a circuit-built matroid keeps its input circuits, from which
            # the oracle finds the bases on its own
            assert list(bases) == oracle.bases_from_circuits(ground, matroid.circuits), name
            fresh = Matroid(ground, bases, validate=False)
            assert fresh.circuits == oracle.circuits_from_bases(ground, bases), name
            assert fresh.ranks == matroid.ranks, name
            checked += 1
    assert checked == 4864


def test_uniform_and_ladder_tables_match_the_replaced_scans():
    u = uniform_matroid(4, GroundSet(12))
    assert_table_from_bases(u, u.bases)
    fresh = Matroid(u.ground, u.bases, validate=False)
    assert fresh.circuits == oracle.circuits_from_bases(u.ground, u.bases)
    assert len(fresh.circuits) == 792
    for k in (12, 14, 16):
        g = ladder(k)
        for graph in (g, identify_v0_v3(g)):
            m = cycle_matroid(graph)
            bases = oracle.graph_bases(graph)
            assert m.bases == tuple(sorted(bases)), k
            assert_table_from_bases(m, bases, brute=k == 12)
            for minor in gapped_minors(m):
                assert_table_from_bases(minor, minor.bases, brute=False)
    m = cycle_matroid(ladder(12))
    assert Matroid(m.ground, m.bases, validate=False).circuits == oracle.circuits_from_bases(
        m.ground, m.bases)


def test_graph_tables_and_bases_match_the_candidate_scan():
    graphs = [g for k in range(6) for g in slot_canonical_graphs(k).values()]
    assert len(graphs) == 238
    graphs.append(Multigraph(
        vertices=("a", "b", "c", "d"),
        edges=((1, "a", "a"), (2, "a", "b"), (3, "b", "a"), (4, "b", "c")),
    ))
    rng = random.Random(20261018)
    for g in list(graphs):
        classes = {}
        for v in g.vertices:
            classes.setdefault(rng.randrange(2), []).append(v)
        graphs.append(identify_vertices(g, classes.values()))
    for g in graphs:
        m = cycle_matroid(g)
        bases = oracle.graph_bases(g)
        assert m.bases == tuple(sorted(bases)), g
        assert_table_from_bases(m, bases)


def test_equality_and_hash_follow_the_basis_family(corpus):
    by_eq, by_bases = {}, {}
    pool = [m for _, m in corpus_matroids(corpus)]
    rng = random.Random(7)
    for m in list(pool):
        pool.append(Matroid(m.ground, m.bases, validate=False))
        order = rng.sample(m.ground.order, m.ground.size)
        pool.append(Matroid(GroundSet(m.ground.size, order=order), m.bases, validate=False))
    for m in pool:
        first = by_eq.setdefault(m, m)
        assert by_bases.setdefault((m.ground, frozenset(m.bases)), m) is first
    for a, b in itertools.combinations(pool[:300], 2):
        same = a.ground == b.ground and frozenset(a.bases) == frozenset(b.bases)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
