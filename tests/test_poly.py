import random
from fractions import Fraction

import pytest

import pgshell.linalg as linalg_module
from pgshell import (
    QQ,
    Field,
    Ideal,
    Polynomial,
    PolyRing,
    linear_substitute,
    rational_normal_curve,
    standard_ring,
    substitute_ideal,
)
from pgshell.errors import NotHomogeneousError, RingMismatchError, WeightedRingError

from conftest import random_invertible


def test_poly_add_examples(R4, zvars):
    z = zvars
    p = z[0] * z[2] + (-(z[1] * z[1]))
    assert str(p) == "-z1^2 + z0*z2"
    assert (p + (-p)).is_zero()
    assert (z[0] * z[2] - z[1] * z[1]) + z[1] * z[1] == z[0] * z[2]


def test_poly_add_ring_mismatch(R4):
    other = standard_ring(3)
    with pytest.raises(RingMismatchError):
        Polynomial.variable(R4, 0) + Polynomial.variable(other, 0)


def test_poly_mul_examples(R4, zvars):
    z = zvars
    assert z[1] * z[1] == Polynomial.from_term(R4, (0, 2, 0, 0), QQ.one)
    assert (z[0] + z[1]) * (z[0] - z[1]) == z[0] * z[0] - z[1] * z[1]
    a = z[0] * z[1]              # degree 2
    b = z[2] * z[2] * z[3]       # degree 3
    prod = a * b
    assert prod.homogeneous_degree() == 5


def test_is_homogeneous(R4, zvars):
    z = zvars
    p = z[0] * z[3] - z[1] * z[2]
    assert p.homogeneous_degree() == 2
    q = z[0] + z[1] * z[1]
    assert q.homogeneous_degree() is None
    weighted = PolyRing(QQ, ("z0", "z1", "z2"), (1, 1, 2))
    w = [Polynomial.variable(weighted, i) for i in range(3)]
    assert (w[2] - w[0] * w[1]).homogeneous_degree() == 2


def test_linear_substitute_examples(R4, zvars):
    z = zvars
    p = z[0] * z[2] - z[1] * z[1]
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert linear_substitute(p, ident) == p
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert linear_substitute(p, swap) == z[1] * z[2] - z[0] * z[0]
    assert linear_substitute(p, swap).homogeneous_degree() == 2


def test_linear_substitute_right_action(R4, zvars):
    z = zvars
    rng = random.Random(5)
    p = z[0] * z[2] - z[1] * z[1] + z[3] * z[3]
    for _ in range(5):
        m1 = random_invertible(rng, 4, QQ)
        m2 = random_invertible(rng, 4, QQ)
        lhs = linear_substitute(linear_substitute(p, m1), m2)
        prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m2)] for row in m1]
        # group action law: substituting M1 then M2 equals substituting M1*M2
        rhs = linear_substitute(p, prod)
        assert lhs == rhs


def test_linear_substitute_rejections(R4, zvars):
    z = zvars
    singular = [[0] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        linear_substitute(z[0], singular)
    weighted = PolyRing(QQ, ("a", "b"), (1, 2))
    with pytest.raises(WeightedRingError):
        linear_substitute(Polynomial.variable(weighted, 0), [[1, 0], [0, 1]])


def test_linear_substitute_fraction_entries_over_prime_field():
    ring = standard_ring(2, Field(7))
    x, y = (Polynomial.variable(ring, i) for i in range(2))
    half = Fraction(1, 2)
    # z0 -> z0/2 + z1, z1 -> z1, and 1/2 = 4 in GF(7)
    assert linear_substitute(x * y, [[half, 1], [0, 1]]) == (x.scale(4) + y) * y


@pytest.mark.parametrize("field", [QQ, Field(7)])
def test_linear_substitute_rejects_singular_matrix(field):
    ring = standard_ring(3, field)
    z = Polynomial.variable(ring, 0)
    rank_two = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    with pytest.raises(ValueError, match="singular"):
        linear_substitute(z, rank_two)
    with pytest.raises(ValueError, match="singular"):
        linear_substitute(z, [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 1]])


def test_linear_substitute_singular_only_mod_p():
    # determinant 7: invertible over QQ, singular over GF(7)
    matrix = [[1, 0, 0], [0, 1, 0], [0, 0, 7]]
    z = Polynomial.variable(standard_ring(3), 2)
    assert linear_substitute(z, matrix) == z.scale(QQ.of(7))
    with pytest.raises(ValueError, match="singular"):
        linear_substitute(Polynomial.variable(standard_ring(3, Field(7)), 2), matrix)


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["qq", "gf"])
def test_substitute_ideal_checks_the_matrix_once(field, monkeypatch):
    ideal = rational_normal_curve(4, field).ideal
    matrix = random_invertible(random.Random(5), ideal.ring.num_vars, field)
    want = [linear_substitute(g, matrix) for g in ideal.generators]
    calls = []
    determinant = linalg_module.determinant
    monkeypatch.setattr(linalg_module, "determinant", lambda *a: calls.append(a) or determinant(*a))
    assert list(substitute_ideal(ideal, matrix).generators) == want
    assert len(ideal.generators) == 6 and len(calls) == 1


def test_determinism_of_str(R4, zvars):
    z = zvars
    p1 = z[0] * z[3] - z[1] * z[2] + z[2] * z[2]
    p2 = z[2] * z[2] + z[0] * z[3] - z[1] * z[2]
    assert p1 == p2 and str(p1) == str(p2) and hash(p1) == hash(p2)


def test_ideal_normalization(R4, zvars):
    z = zvars
    q = z[0] * z[2] - z[1] * z[1]
    ideal = Ideal(R4, [q, Polynomial.zero(R4), q])
    assert ideal.generators == (q,)
    with pytest.raises(NotHomogeneousError):
        Ideal(R4, [z[0] + z[1] * z[1]])
