import random
from fractions import Fraction
from math import gcd

import pytest

from pgshell import Field, InternalCheckError, QQ, field_self_check, linalg
from pgshell.fields import is_prime


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


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["qq", "gf"])
def test_field_check_covers_the_engines_row_operation(field, monkeypatch):
    real = linalg._clear

    def sign_error(v, c, row, p):
        scale = real(v, c, row, p)
        for j in v:
            v[j] = (-v[j]) % p if p else -v[j]
        return scale

    monkeypatch.setattr(linalg, "_clear", sign_error)
    with pytest.raises(InternalCheckError, match="engine arithmetic"):
        field_self_check(field, seed=20240811)


def test_rationals_stay_reduced():
    rng = random.Random(3)
    for _ in range(200):
        a = QQ.of(rng.randint(-40, 40), rng.randint(1, 30))
        b = QQ.of(rng.randint(-40, 40), rng.randint(1, 30))
        for value in (QQ.add(a, b), QQ.mul(a, b), QQ.sub(a, b)):
            assert isinstance(value, Fraction)
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1


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
