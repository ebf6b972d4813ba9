"""Exact coefficient fields: the rationals and odd prime fields.

Field elements are plain Python values -- ``Fraction`` for the rationals
(always stored reduced with positive denominator, which Fraction
guarantees), ``int`` in ``[0, p)`` for GF(p) -- so the polynomial layer
stays allocation-light.  A ``Field`` instance is the arithmetic context.

Every stored vector -- the terms of a `Polynomial`, a column of a
`GradedMatrix`, a vector entering `linalg.RowSpace` -- takes the form
`canonical` gives it: no zero entries, and over GF(p) every entry in
[0, p).  So the engines compute on Python operators and leave the
reduction to the constructor that stores the result; the `Field`
arithmetic methods serve `Polynomial` arithmetic and `field_self_check`.

The other helpers serve the one integer-vector path of the Groebner
engine and `linalg.RowSpace` on both fields: QQ vectors are cleared of
denominators, and `primitive` normalizes a vector at its lead entry --
divided by its content over QQ, monic over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

MAX_CHARACTERISTIC = 2**31
DEFAULT_PRIME = 32003


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (enough below 2^31)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Arithmetic context for an exact field, selected by characteristic.

    characteristic 0 is the rationals; an odd prime p < 2^31 gives GF(p).
    Reports label GF(p) results probabilistic (`cli._field_mode`), since
    Betti numbers may drop under reduction mod p.
    """

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if characteristic != 0:
            p = characteristic
            if p == 2 or p >= MAX_CHARACTERISTIC or not is_prime(p):
                raise ValueError(
                    f"characteristic must be 0 or an odd prime < 2^31, got {p}"
                )
        self.characteristic = characteristic

    # -- element constructors ------------------------------------------------

    def of(self, numerator, denominator=1):
        """Build a field element from an integer (or Fraction) ratio."""
        p = self.characteristic
        if p == 0:
            return Fraction(numerator, denominator)
        if isinstance(numerator, Fraction):
            numerator, denominator = numerator.numerator, numerator.denominator * denominator
        if isinstance(denominator, Fraction):
            numerator, denominator = numerator * denominator.denominator, denominator.numerator
        num = numerator % p
        if denominator == 1:
            return num
        den = denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by the characteristic")
        return (num * pow(den, -1, p)) % p

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        if self.characteristic == 0:
            if b == 0:
                raise ZeroDivisionError("division by zero")
            return a / b
        return (a * pow(b, -1, self.characteristic)) % self.characteristic

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = Field(0)


def canonical(v: dict, p: int) -> dict:
    """A new dict holding v without its zero entries; over GF(p) (p > 0)
    each integer entry is first reduced mod p."""
    if p:
        return {k: y for k, x in v.items() if (y := x % p)}
    return {k: x for k, x in v.items() if x}


def clear_denominators(v: dict):
    """(w, d): the integer vector w = d v, for d the least common
    denominator of the rational vector v; zero entries are dropped."""
    d = lcm(*[x.denominator for x in v.values()])
    if d == 1:
        return {k: n for k, x in v.items() if (n := x.numerator)}, 1
    return {k: n * (d // x.denominator) for k, x in v.items() if (n := x.numerator)}, d


def primitive(v: dict, lead, p: int) -> dict:
    """The integer vector v normalized at its entry `lead`: over QQ
    (p = 0) divided by its content and signed so that v[lead] > 0, over
    GF(p) made monic there."""
    a = v[lead]
    if p:
        if a == 1:
            return v
        inv = pow(a, -1, p)
        return {k: x * inv % p for k, x in v.items()}
    g = gcd(*v.values())
    if a < 0:
        g = -g
    return v if g == 1 else {k: x // g for k, x in v.items()}


def field_self_check(field: Field, seed: int = 0) -> None:
    """Spot-check the field axioms on 1000 pseudo-random triples, then the
    integer vector arithmetic the engines run (`primitive` and
    `linalg._clear`) against `Fraction` arithmetic on 200 sparse vectors,
    and `canonical` against `field.of` on those vectors shifted by random
    multiples of p, with one entry that vanishes in the field.

    Raises InternalCheckError on any violation; used by the CLI
    --field-check flag and by the test suite.
    """
    import random

    from . import linalg
    from .errors import InternalCheckError

    rng = random.Random(seed)
    p = field.characteristic

    def rand_elt():
        if p == 0:
            return Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        return rng.randrange(p)

    zero, one = field.zero, field.one
    for _ in range(1000):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        checks = [
            field.add(field.add(a, b), c) == field.add(a, field.add(b, c)),
            field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c)),
            field.add(a, b) == field.add(b, a),
            field.mul(a, b) == field.mul(b, a),
            field.mul(a, field.add(b, c))
            == field.add(field.mul(a, b), field.mul(a, c)),
            field.add(a, field.neg(a)) == zero,
            field.mul(a, one) == a,
        ]
        if a != zero:
            checks.append(field.mul(a, field.inv(a)) == one)
        if p == 0:
            # reduced fraction with positive denominator
            f = field.mul(a, b)
            checks.append(f.denominator > 0)
            checks.append(gcd(f.numerator, f.denominator) == 1)
        if not all(checks):
            raise InternalCheckError(f"field axiom violation for {field} on {(a, b, c)}")

    def rand_vector():
        # a sparse integer vector with nonzero entries, as the engines keep them
        return {k: rng.randrange(1, p) if p else rng.randint(1, 50) * rng.choice((-1, 1))
                for k in rng.sample(range(8), rng.randint(1, 5))}

    for _ in range(200):
        v, row = rand_vector(), rand_vector()
        c = next(iter(row))
        w = primitive(dict(row), c, p)
        v.setdefault(c, 1)
        cleared = dict(v)
        scale = linalg._clear(cleared, c, w, p)
        ratio = Fraction(v[c], w[c])
        shifted = {k: x + p * rng.randint(-3, 3) for k, x in v.items()}
        shifted[8] = p * rng.randint(-3, 3)
        checks = [
            set(w) == set(row),
            w[c] == 1 if p else (w[c] > 0 and gcd(*w.values()) == 1),
            all(field.of(Fraction(w[k], w[c])) == field.of(Fraction(x, row[c]))
                for k, x in row.items()),
            scale != 0 and 0 not in cleared.values(),
            all(field.of(Fraction(cleared.get(j, 0), scale))
                == field.of(v.get(j, 0) - ratio * w.get(j, 0)) for j in {*v, *w}),
            canonical(shifted, p) == {k: y for k, x in shifted.items() if (y := field.of(x))},
        ]
        if not all(checks):
            raise InternalCheckError(f"engine arithmetic violation for {field} on {(v, row)}")
