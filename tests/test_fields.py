import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    Field,
    GradedFreeModule,
    GradedMatrix,
    InternalCheckError,
    Polynomial,
    QQ,
    clear_caches,
    field_self_check,
    groebner_basis,
    rational_normal_curve,
    standard_ring,
)
from pgshell import fields, groebner, linalg
from pgshell.fields import is_prime
from pgshell.linalg import eliminate


def test_field_kinds():
    assert QQ.characteristic == 0
    assert Field(32003).characteristic == 32003


@pytest.mark.parametrize("bad", [4, 2, 9, 15, 2**31 + 11, 32004])
def test_bad_characteristics_rejected(bad):
    with pytest.raises(ValueError):
        Field(bad)


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(32003)
    assert not is_prime(1) and not is_prime(0) and not is_prime(32001)


def test_field_axioms_rationals():
    field_self_check(QQ, seed=20240811)


def test_field_axioms_prime():
    field_self_check(Field(32003), seed=20240811)


_real_clear_at = fields.clear_at


def clear_at_with_sign_error(v, c, row, p):
    scale = _real_clear_at(v, c, row, p)
    for j in v:
        v[j] = (-v[j]) % p if p else -v[j]
    return scale


def _canonical_without_mod(v, p):
    return {k: x for k, x in v.items() if x}


def _canonical_keeping_zeros(v, p):
    return {k: x % p if p else x for k, x in v.items()}


GF = Field(32003)


@pytest.mark.parametrize("field, target, broken", [
    pytest.param(QQ, "pgshell.fields.clear_at", clear_at_with_sign_error, id="qq"),
    pytest.param(GF, "pgshell.fields.clear_at", clear_at_with_sign_error, id="gf"),
    pytest.param(QQ, "pgshell.fields.canonical", _canonical_keeping_zeros,
                 id="qq-canonical-keeps-zeros"),
    pytest.param(GF, "pgshell.fields.canonical", _canonical_keeping_zeros,
                 id="gf-canonical-keeps-zeros"),
    pytest.param(GF, "pgshell.fields.canonical", _canonical_without_mod,
                 id="gf-canonical-without-mod"),
])
def test_field_check_covers_the_engines_row_operation(field, target, broken, monkeypatch):
    monkeypatch.setattr(target, broken)
    with pytest.raises(InternalCheckError, match="engine arithmetic"):
        field_self_check(field, seed=20240811)


@pytest.mark.parametrize("field", [QQ, GF], ids=["qq", "gf"])
def test_both_eliminations_run_the_checked_row_operation(field, monkeypatch):
    """`RowSpace` and `reduce_vector` (with the S-vectors) subtract rows
    only through `fields.clear_at`, the function `field_self_check`
    checks, so --field-check covers both eliminations."""
    assert groebner.clear_at is fields.clear_at and linalg.clear_at is fields.clear_at
    calls = {}

    def counted(module):
        def clear_at(v, c, row, p):
            calls[module] = calls.get(module, 0) + 1
            return _real_clear_at(v, c, row, p)
        return clear_at

    monkeypatch.setattr(groebner, "clear_at", counted("groebner"))
    monkeypatch.setattr(linalg, "clear_at", counted("linalg"))
    ideal = rational_normal_curve(4, field).ideal
    clear_caches()
    try:
        assert len(groebner_basis(ideal).elements) == 6
    finally:
        clear_caches()
    eliminate([{0: 2, 1: 3}, {0: 4, 1: 1}, {0: 1, 1: 5}], 2, field)
    assert calls.get("groebner", 0) > 0 and calls.get("linalg", 0) > 0


def _entries(p):
    """Integers in [-3p, 3p] (p = 7 bounds them over QQ), multiples of p often."""
    bound = 3 * (p or 7)
    return st.one_of(st.integers(-bound, bound), st.integers(-3, 3).map(lambda k: k * p))


def _reduced(v, field):
    return {k: y for k, x in v.items() if (y := field.of(x))}


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["qq", "gf"])
@given(data=st.data())
def test_stored_vectors_are_reduced_on_construction(field, data):
    """`Polynomial`, `GradedMatrix` and `RowSpace` store what `field.of`
    makes of unreduced integer entries, and drop the zeros."""
    p = field.characteristic
    ring = standard_ring(3, field)
    monos = ring.monomials_of_degree(2)
    terms = data.draw(st.dictionaries(st.sampled_from(monos), _entries(p)))
    assert Polynomial(ring, terms).terms == _reduced(terms, field)

    entry_keys = st.tuples(st.sampled_from(monos), st.integers(0, 1))
    cols = data.draw(st.lists(st.dictionaries(entry_keys, _entries(p), max_size=4), max_size=3))
    M = GradedMatrix(ring, GradedFreeModule([2] * len(cols)), GradedFreeModule([0, 0]), cols)
    assert list(M.columns) == [_reduced(col, field) for col in cols]

    vectors = data.draw(st.lists(st.dictionaries(st.integers(0, 4), _entries(p)), max_size=5))
    image, kernel = eliminate(vectors, 5, field)
    image_r, kernel_r = eliminate([_reduced(v, field) for v in vectors], 5, field)
    assert (image.rows, kernel) == (image_r.rows, kernel_r)


def test_prime_field_entries_divisible_by_p_are_zero():
    field = Field(7)
    ring = standard_ring(3, field)
    assert str(Polynomial.from_term(ring, (1, 0, 0), 7)) == "0"
    image, kernel = eliminate([{0: 7}], 1, field)
    assert (image.dim, kernel) == (0, [{0: 1}])


def test_rationals_stay_reduced():
    rng = random.Random(3)
    for _ in range(200):
        a = QQ.of(rng.randint(-40, 40), rng.randint(1, 30))
        b = QQ.of(rng.randint(-40, 40), rng.randint(1, 30))
        for value in (QQ.add(a, b), QQ.mul(a, b), QQ.sub(a, b)):
            assert isinstance(value, Fraction)
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1


def test_division_is_exact_on_both_fields():
    # over QQ the quotient of two ints is a Fraction, never a float
    cases = [(QQ.div(3, 2), Fraction(3, 2)), (QQ.inv(2), Fraction(1, 2)),
             (QQ.div(Fraction(1, 3), 2), Fraction(1, 6)),
             (QQ.inv(Fraction(-2, 3)), Fraction(-3, 2))]
    for value, want in cases:
        assert value == want and type(value) is Fraction
    f = Field(7)
    assert (f.div(3, 2), f.inv(2), f.div(6, 3)) == (5, 4, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_prime_field_representatives():
    f = Field(5)
    assert f.of(7) == 2
    assert f.of(-1) == 4
    assert f.of(1, 2) == 3  # 1/2 = 3 mod 5
    assert f.inv(3) == 2
    with pytest.raises(ZeroDivisionError):
        f.of(1, 5)


def test_prime_field_of_fraction():
    f = Field(7)
    assert f.of(Fraction(1, 2)) == 4
    assert f.of(Fraction(-3, 4)) == f.div(f.of(-3), f.of(4))
    assert f.of(Fraction(3, 2), 5) == f.div(f.of(3), f.of(10))
    assert f.of(Fraction(14, 3)) == 0
    with pytest.raises(ZeroDivisionError):
        f.of(Fraction(1, 7))
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)


def test_prime_field_of_fraction_denominator():
    # a Fraction denominator folds like a Fraction numerator, as over QQ
    f = Field(7)
    assert f.of(1, Fraction(1, 2)) == 2
    assert QQ.of(1, Fraction(1, 2)) == 2
    assert f.of(3, Fraction(2, 5)) == f.div(f.of(15), f.of(2))
    assert f.of(Fraction(1, 3), Fraction(2, 5)) == f.div(f.of(5), f.of(6))
    with pytest.raises(ZeroDivisionError):
        f.of(1, Fraction(7, 2))
