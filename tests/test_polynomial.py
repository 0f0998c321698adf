import random

import pytest

from mptutte import ONE, X, Y, Z, ZERO, Poly

SAMPLE_POLY = Poly(
    {
        (2, 0, 1): 1, (2, 0, 0): 1, (0, 2, 0): 1, (1, 1, 0): 1, (1, 0, 1): 2,
        (0, 1, 1): 1, (1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): 1,
    }
)


def random_poly(rng, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(0, max_exp) for _ in range(3))
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return Poly(terms)


def test_add_examples():
    x2z = Poly.monomial(2, 0, 1)
    x2 = Poly.monomial(2, 0, 0)
    assert (x2z + x2).terms() == {(2, 0, 1): 1, (2, 0, 0): 1}
    p = random_poly(random.Random(1))
    assert p + ZERO == p
    xz = Poly.monomial(1, 0, 1)
    assert xz + xz == Poly({(1, 0, 1): 2})


def test_substitute_examples():
    assert Z.substitute(z=X - 1) == X - 1
    p = Poly.monomial(2, 0, 1)
    assert p.substitute(x=X, y=Y, z=Z) == p
    assert (Z + 1).substitute(z=X - 1) == X


def test_substitute_accepts_ints():
    p = X * Y + Z
    assert p.substitute(x=2, y=3, z=0) == Poly.constant(6)


def test_canonical_string():
    assert str(SAMPLE_POLY) == "x^2*z + x^2 + x*y + 2*x*z + 2*x + y^2 + y*z + 2*y + z + 1"
    assert str(ZERO) == "0"
    assert str(-X) == "-x"
    assert str(X - 2) == "x - 2"
    assert str(Poly({(0, 3, 0): -4, (1, 0, 0): 1})) == "x - 4*y^3"


def test_zero_terms_pruned():
    assert (X - X).terms() == {}
    assert not (X - X)
    assert not Poly({(1, 0, 0): 0})
    # one stream whose keys repeat: x cancels, then comes back; y^2 cancels
    stream = [((1, 0, 0), 2), ((0, 2, 0), 1), ((1, 0, 0), -2), ((0, 1, 0), 3),
              ((0, 2, 0), -1), ((1, 0, 0), 5), ((0, 1, 0), -1)]
    p = Poly(iter(stream))
    assert p.terms() == {(1, 0, 0): 5, (0, 1, 0): 2}
    assert not Poly(iter(stream[:3] + [((0, 2, 0), -1)]))


def test_ring_axioms_on_random_sample():
    rng = random.Random(42)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * ONE == p
        assert p * ZERO == ZERO


def test_pow_matches_repeated_multiplication():
    rng = random.Random(3)
    p = random_poly(rng)
    acc = ONE
    for n in range(5):
        assert p**n == acc
        acc = acc * p
    with pytest.raises(ValueError):
        p ** -1


def test_identity_substitution_is_identity():
    rng = random.Random(9)
    for _ in range(20):
        p = random_poly(rng)
        assert p.substitute() == p


def test_evaluation_commutes_with_substitution():
    rng = random.Random(5)
    for _ in range(5):
        p = random_poly(rng)
        px, py, pz = (random_poly(rng, max_terms=2, max_exp=2) for _ in range(3))
        point = tuple(rng.randint(-3, 3) for _ in range(3))
        direct = p.substitute(x=px, y=py, z=pz).evaluate(*point)
        via_values = p.evaluate(px.evaluate(*point), py.evaluate(*point), pz.evaluate(*point))
        assert direct == via_values


def test_fold_order_does_not_matter():
    # summing monomials is associative-commutative, so any reduction order
    # (e.g. a parallel fold) must give the same polynomial
    rng = random.Random(17)
    monomials = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(30)]
    reference = ZERO
    for key in monomials:
        reference = reference + Poly.monomial(*key)
    for _ in range(5):
        rng.shuffle(monomials)
        acc = ZERO
        for key in monomials:
            acc = acc + Poly.monomial(*key)
        assert acc == reference


def test_evaluate():
    assert SAMPLE_POLY.evaluate(1, 1, 1) == 13
    assert SAMPLE_POLY.evaluate(2, 2, 1) == 32


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0, 0): 1})


def test_max_z_exponent():
    assert SAMPLE_POLY.max_z_exponent() == 1
    assert ZERO.max_z_exponent() == 0
    assert (X + Y).max_z_exponent() == 0
