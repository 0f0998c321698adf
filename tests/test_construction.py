"""The construction paths against the scans they replaced.

Bases, circuits and graphs become independence flags turned into a rank
table by the max-plus zeta transform; minors and duals are read off the
parent's table by index arithmetic; bases and circuits are read off the
table.  The greedy rank pass, the flag-built minors and duals, the
basis-pair circuit scan and the spanning forest candidate scan that built
them before live on in tests/oracle.py; here each table, basis family and
circuit family must equal theirs.
"""

import itertools
import random

import oracle
from mptutte import (
    GroundSet,
    Matroid,
    Multigraph,
    bit,
    cycle_matroid,
    free_matroid,
    identify_vertices,
    rank_zero_matroid,
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


def test_closed_form_factories_match_the_basis_built_tables():
    # n <= 8 on 1..n, and on ground sets with gaps below, between and above
    grounds = [GroundSet(n) for n in range(9)]
    grounds += [GroundSet.from_order((2, 3, 5, 6, 7)), GroundSet.from_order((8, 6, 3))]
    for ground in grounds:
        for k in range(ground.size + 1):
            combos = [sum(map(bit, c)) for c in itertools.combinations(ground.order, k)]
            u = uniform_matroid(k, ground)
            assert u.ranks == Matroid(ground, combos, validate=False).ranks, (ground, k)
            assert u.bases == tuple(sorted(combos)), (ground, k)
        assert free_matroid(ground) == Matroid(ground, [ground.mask], validate=False)
        assert rank_zero_matroid(ground) == Matroid(ground, [0], validate=False)


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


def test_graph_tables_over_three_vertex_planes_match_the_candidate_scan():
    # 18-24 vertices, so that the incidence columns span three byte planes,
    # with loops, parallel classes and a triangle through all three planes
    rng = random.Random(16)
    for _ in range(12):
        vertices = tuple(f"v{i}" for i in range(rng.randint(18, 24)))
        ends = [("v1", "v9"), ("v9", vertices[-1]), (vertices[-1], "v1")]
        while len(ends) < 16:
            kind = rng.random()
            if kind < 0.2:
                ends.append(rng.choice(ends))
            elif kind < 0.3:
                ends.append((rng.choice(vertices),) * 2)
            else:
                ends.append(tuple(rng.sample(vertices, 2)))
        rng.shuffle(ends)
        g = Multigraph(vertices=vertices, edges=tuple((l, u, v) for l, (u, v) in enumerate(ends, 1)))
        m = cycle_matroid(g)
        bases = oracle.graph_bases(g)
        assert m.bases == tuple(sorted(bases)), g
        assert_table_from_bases(m, bases, brute=False)


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


def test_minor_and_dual_tables_match_the_flag_built_oracle(corpus):
    # every index S, including those holding positions absent from the
    # minor's ground set, against the oracle table and the rank formulas
    checked = 0
    for name, m in corpus_matroids(corpus):
        e = m.ground.mask
        if m.ground.size > 5:
            continue
        r = [oracle.brute_rank(m, s) for s in range(e + 1)]
        d = m.dual()
        assert d.ranks == oracle.dual_ranks(m), name
        for s in range(len(d.ranks)):
            assert d.ranks[s] == (s & e).bit_count() - r[e] + r[e & ~s], (name, s)
        for x in m.ground.subsets():
            restricted, contracted = m.restrict(x), m.contract(x)
            assert restricted.ranks == oracle.restricted_ranks(m, x), (name, x)
            assert contracted.ranks == oracle.contracted_ranks(m, x), (name, x)
            # with the gapped dual r*_{M|X}(S) = |S & X| - r(X) + r(X - S)
            for s in range(len(restricted.ranks)):
                assert restricted.ranks[s] == r[s & x], (name, x, s)
                assert restricted.dual().ranks[s] == (s & x).bit_count() - r[x] + r[x & ~s], (name, x, s)
            for s in range(len(contracted.ranks)):
                assert contracted.ranks[s] == r[(s & e) | x] - r[x], (name, x, s)
            checked += 1
    assert checked == 13913, checked


def test_chained_minors_on_ladder_12_match_the_rank_formulas():
    graph = identify_v0_v3(ladder(12))
    m = cycle_matroid(graph)
    e = m.ground.mask
    r = oracle.greedy_ranks(12, oracle.independent_flags(12, oracle.graph_bases(graph)))
    rng = random.Random(12)
    for _ in range(6):
        x = rng.randrange(e + 1) | bit(12)  # the top position stays, so gaps sit below it
        y = rng.randrange(e + 1) & x & ~bit(12)
        # (M|X)/Y: r((S & (X - Y)) + Y) - r(Y)
        chained = m.restrict(x).contract(y)
        assert chained.ranks == oracle.contracted_ranks(m.restrict(x), y), (x, y)
        for s in range(len(chained.ranks)):
            assert chained.ranks[s] == r[(s & x & ~y) | y] - r[y], (x, y, s)
        # (M/Y)*: |T| - r_{M/Y}(E - Y) + r_{M/Y}(E - Y - T) with T = S - Y
        dual = m.contract(y).dual()
        assert dual.ranks == oracle.dual_ranks(m.contract(y)), y
        for s in range(len(dual.ranks)):
            t = s & e & ~y
            assert dual.ranks[s] == t.bit_count() - (r[e] - r[y]) + (r[e & ~t] - r[y]), (y, s)
