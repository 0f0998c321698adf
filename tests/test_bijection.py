import pytest

from mptutte import (
    BijectionRow,
    DomainError,
    GroundSet,
    Perspective,
    backward,
    bijection_table,
    compatible_family,
    forward,
    free_matroid,
    rank_zero_matroid,
)
from corpus import fixture_perspective

# (B, Int, Ext, X, monomial) per table row, ascending size then lex
FIXTURE_ROWS = [
    ({2, 4}, {2, 4}, set(), set(), (2, 0, 1)),
    ({2, 5}, {2}, set(), {5}, (1, 0, 1)),
    ({3, 4}, {4}, set(), {3}, (1, 0, 1)),
    ({3, 5}, set(), set(), {3, 5}, (0, 0, 1)),
    ({4, 5}, set(), {3}, {3, 4, 5}, (0, 1, 1)),
    ({1, 2, 4}, {2, 4}, set(), {1}, (2, 0, 0)),
    ({1, 2, 5}, {2}, set(), {1, 5}, (1, 0, 0)),
    ({1, 3, 4}, {4}, set(), {1, 3}, (1, 0, 0)),
    ({1, 3, 5}, set(), set(), {1, 3, 5}, (0, 0, 0)),
    ({1, 4, 5}, set(), {3}, {1, 3, 4, 5}, (0, 1, 0)),
    ({2, 3, 4}, {4}, {1}, {1, 2, 3}, (1, 1, 0)),
    ({2, 3, 5}, set(), {1}, {1, 2, 3, 5}, (0, 1, 0)),
    ({2, 4, 5}, set(), {1, 3}, {1, 2, 3, 4, 5}, (0, 2, 0)),
]


@pytest.fixture(scope="module")
def fixture():
    return fixture_perspective()


def test_forward_examples(fixture):
    e = fixture.ground
    assert forward(fixture, e.subset({2, 3, 4})) == e.subset({1, 2, 3})
    assert forward(fixture, e.subset({2, 4})) == 0
    assert forward(fixture, e.subset({1, 3, 5})) == e.subset({1, 3, 5})


def test_backward_examples(fixture):
    e = fixture.ground
    assert backward(fixture, e.subset({1, 2, 3})) == e.subset({2, 3, 4})
    assert backward(fixture, 0) == e.subset({2, 4})
    assert backward(fixture, e.mask) == e.subset({2, 4, 5})


def test_forward_rejects_invalid_input(fixture):
    e = fixture.ground
    with pytest.raises(DomainError):
        forward(fixture, e.subset({1, 2, 3}))  # dependent
    with pytest.raises(DomainError):
        forward(fixture, e.subset({1}))  # not spanning


def test_backward_rejects_invalid_input(fixture):
    e = fixture.ground
    with pytest.raises(DomainError):
        backward(fixture, e.subset({1, 4}))


def test_table_matches_fixture_rows(fixture):
    e = fixture.ground
    rows = bijection_table(fixture)
    assert len(rows) == 13
    for row, (b, internal, external, x, mono) in zip(rows, FIXTURE_ROWS):
        assert row.b == e.subset(b)
        assert row.internal == e.subset(internal)
        assert row.external == e.subset(external)
        assert row.x == e.subset(x)
        assert row.monomial == mono


def test_table_row_invariants(fixture):
    for row in bijection_table(fixture):
        assert row.x == (row.b & ~row.internal) | row.external
        assert row.internal & ~row.b == 0
        assert row.external & row.b == 0


def test_table_rows_are_bijection_rows(corpus):
    # the rows are built through tuple.__new__; check's tests edit them with
    # _replace, which only a BijectionRow has
    for name, p in corpus[::7]:
        rank = p.matroid.rank()
        for row in bijection_table(p):
            assert type(row) is BijectionRow, name
            assert row.monomial == (row.internal.bit_count(), row.external.bit_count(),
                                    rank - row.b.bit_count()), name
            assert row._replace(x=0) == (row.b, row.internal, row.external, 0, row.monomial)


def test_table_single_coloop():
    e = GroundSet(1)
    m = free_matroid(e)
    rows = bijection_table(Perspective(m, m))
    assert len(rows) == 1
    row = rows[0]
    assert (row.b, row.internal, row.external, row.x) == (1, 1, 0, 0)
    assert row.monomial == (1, 0, 0)


def test_table_single_loop():
    e = GroundSet(1)
    m = rank_zero_matroid(e)
    rows = bijection_table(Perspective(m, m))
    assert len(rows) == 1
    row = rows[0]
    assert (row.b, row.internal, row.external, row.x) == (0, 0, 1, 1)
    assert row.monomial == (0, 1, 0)


def test_round_trips_on_fixture(fixture):
    family = set(compatible_family(fixture))
    rows = bijection_table(fixture)
    for row in rows:
        assert row.x in family
        assert backward(fixture, row.x) == row.b
    valid = {row.b for row in rows}
    for x in family:
        b = backward(fixture, x)
        assert b in valid
        assert forward(fixture, b) == x


def test_proof_level_identities_on_fixture(fixture):
    # the inverse map's two minimal bases coincide with the activities
    for row in bijection_table(fixture):
        x = row.x
        assert row.external == fixture.matroid.restrict(x).dual().min_basis()
        assert row.internal == fixture.quotient.contract(x).min_basis()
        a, b, _ = row.monomial
        assert a == fixture.quotient.rank() - fixture.quotient.rank(x)
        assert b == x.bit_count() - fixture.matroid.rank(x)


def test_intervals_partition_power_set(fixture):
    counts = {}
    for row in bijection_table(fixture):
        lower = row.b & ~row.internal
        upper = row.b | row.external
        assert lower & ~row.x == 0 and row.x & ~upper == 0
        for s in fixture.ground.subsets():
            if lower & ~s == 0 and s & ~upper == 0:
                counts[s] = counts.get(s, 0) + 1
    assert all(c == 1 for c in counts.values())
    assert len(counts) == 32
