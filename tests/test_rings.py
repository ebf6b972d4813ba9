from math import comb

import pytest

from pgshell import PolyRing, QQ, standard_ring
from pgshell.errors import EngineError


def test_grevlex_first_variable_largest():
    ring = standard_ring(4)
    z0 = (1, 0, 0, 0)
    z3 = (0, 0, 0, 1)
    # a smaller key is a larger monomial
    assert ring.mono_key(z0) < ring.mono_key(z3)
    # degree dominates
    assert ring.mono_key((0, 0, 0, 2)) < ring.mono_key(z0)


def test_monomials_of_degree_counts():
    ring = standard_ring(4)
    monos = ring.monomials_of_degree(2)
    assert len(monos) == 10  # C(5, 3)
    for m in range(6):
        assert len(ring.monomials_of_degree(m)) == comb(m + 3, 3)
    assert ring.monomials_of_degree(0) == [(0, 0, 0, 0)]


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
