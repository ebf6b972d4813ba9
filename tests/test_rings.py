import random
from math import comb

import pytest

from pgshell import PolyRing, QQ, standard_ring
from pgshell.errors import EngineError


def random_mono(rng, n, max_exp=4):
    return tuple(rng.randint(0, max_exp) for _ in range(n))


@pytest.mark.parametrize("weights", [None, (1, 2, 3, 1)])
def test_order_refines_divisibility_and_is_multiplicative(weights):
    ring = PolyRing(QQ, ("a", "b", "c", "d"), weights)
    rng = random.Random(11)
    for _ in range(500):
        m1 = random_mono(rng, 4)
        m2 = random_mono(rng, 4)
        m3 = random_mono(rng, 4)
        prod = ring.mono_mul(m1, m2)
        # divisibility: m1 | m1*m2 implies m1 <= m1*m2
        assert ring.sort_key(m1) <= ring.sort_key(prod)
        # multiplicative: m1 < m2 implies m1*m3 < m2*m3
        if ring.sort_key(m1) < ring.sort_key(m2):
            assert ring.sort_key(ring.mono_mul(m1, m3)) < ring.sort_key(
                ring.mono_mul(m2, m3)
            )
        # total order
        if m1 != m2:
            assert ring.sort_key(m1) != ring.sort_key(m2)


def test_grevlex_first_variable_largest():
    ring = standard_ring(4)
    z0 = (1, 0, 0, 0)
    z3 = (0, 0, 0, 1)
    assert ring.sort_key(z0) > ring.sort_key(z3)
    # degree dominates
    assert ring.sort_key((0, 0, 0, 2)) > ring.sort_key(z0)


def test_monomials_of_degree_counts():
    ring = standard_ring(4)
    monos = ring.monomials_of_degree(2)
    assert len(monos) == 10  # C(5, 3)
    for m in range(6):
        assert len(ring.monomials_of_degree(m)) == comb(m + 3, 3)
    assert ring.monomials_of_degree(0) == [(0, 0, 0, 0)]
    # sorted descending in the ring order
    keys = [ring.sort_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_monomials_of_degree_weighted():
    ring = PolyRing(QQ, ("z0", "z1"), (1, 2))
    assert ring.monomials_of_degree(2) == [(2, 0), (0, 1)]
    assert ring.monomials_of_degree(0) == [(0, 0)]
    assert ring.monomials_of_degree(3) == [(3, 0), (1, 1)]


def test_ring_validation():
    with pytest.raises(EngineError):
        PolyRing(QQ, ())
    with pytest.raises(EngineError):
        PolyRing(QQ, ("x", "x"))
    with pytest.raises(EngineError):
        PolyRing(QQ, ("x",), (0,))


def test_ring_value_semantics():
    a = standard_ring(3)
    b = standard_ring(3)
    assert a == b and hash(a) == hash(b)
    assert a != standard_ring(4)
