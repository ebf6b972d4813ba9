"""Sparse multivariate polynomials over an exact field, plus ideals.

Polynomials are immutable values: a ring reference and a term map
monomial -> nonzero coefficient.  Equality, hashing and printing go
through a cached canonical term tuple (sorted descending in the ring
order), so identical inputs give byte-identical output everywhere.
"""

from __future__ import annotations

from .errors import NotHomogeneousError, RingMismatchError, WeightedRingError
from .rings import PolyRing


class Polynomial:
    __slots__ = ("ring", "terms", "_canon")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        zero = ring.field.zero
        self.terms = {m: c for m, c in terms.items() if c != zero}
        self._canon = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: PolyRing, value) -> "Polynomial":
        return cls(ring, {ring.one_mono: ring.field.of(value)})

    @classmethod
    def variable(cls, ring: PolyRing, i: int) -> "Polynomial":
        return cls(ring, {ring.variable_mono(i): ring.field.one})

    @classmethod
    def from_term(cls, ring: PolyRing, mono, coeff) -> "Polynomial":
        return cls(ring, {tuple(mono): coeff})

    # -- canonical views ---------------------------------------------------

    def sorted_terms(self):
        """Terms as ((mono, coeff), ...) descending in the ring order."""
        if self._canon is None:
            key = self.ring.mono_key
            self._canon = tuple(sorted(self.terms.items(), key=lambda t: key(t[0])))
        return self._canon

    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return min(self.terms, key=self.ring.mono_key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def degree(self):
        """Max weighted degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        d = self.ring.mono_degree
        return max(d(m) for m in self.terms)

    def homogeneous_degree(self):
        """Common weighted degree if homogeneous, else None (zero -> 0)."""
        if not self.terms:
            return 0
        d = self.ring.mono_degree
        it = iter(self.terms)
        deg = d(next(it))
        for m in it:
            if d(m) != deg:
                return None
        return deg

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        field = self.ring.field
        zero = field.zero
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(out.get(m, zero), c)
            if s == zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        field = self.ring.field
        zero = field.zero
        mono_mul = self.ring.mono_mul
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = mono_mul(m1, m2)
                s = field.add(out.get(m, zero), field.mul(c1, c2))
                if s == zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    def scale(self, coeff) -> "Polynomial":
        field = self.ring.field
        if coeff == field.zero:
            return Polynomial.zero(self.ring)
        return Polynomial(
            self.ring, {m: field.mul(c, coeff) for m, c in self.terms.items()}
        )

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lc = self.lead_coeff()
        if lc == self.ring.field.one:
            return self
        inv = self.ring.field.inv(lc)
        return self.scale(inv)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.sorted_terms()))

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        field = ring.field
        one = field.one
        parts = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            negative = field.characteristic == 0 and coeff < 0
            mag = -coeff if negative else coeff
            mono_s = ring.mono_str(mono)
            if mono_s == "1":
                body = str(mag)
            elif mag == one:
                body = mono_s
            else:
                body = f"{mag}*{mono_s}"
            if i == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


class Ideal:
    """Ideal given by a finite generator list, normally homogeneous.

    Generators are normalized on construction: zero polynomials are
    dropped and duplicates removed (first occurrence kept).  Equality is
    structural (same generator tuple); use ``same_ideal`` from the
    groebner module for mathematical equality.

    Inhomogeneous generators are rejected unless explicitly allowed
    (the parser does so in non-strict mode, after warning); graded
    operations then refuse such ideals at their own entry points.
    """

    __slots__ = ("ring", "generators", "homogeneous")

    def __init__(self, ring: PolyRing, generators, allow_inhomogeneous: bool = False):
        gens = []
        seen = set()
        homogeneous = True
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if g.is_zero():
                continue
            if g.homogeneous_degree() is None:
                if not allow_inhomogeneous:
                    raise NotHomogeneousError(f"inhomogeneous generator: {g}")
                homogeneous = False
            if g not in seen:
                seen.add(g)
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.homogeneous = homogeneous

    def require_homogeneous(self):
        if not self.homogeneous:
            raise NotHomogeneousError(
                "this operation needs homogeneous generators"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"

    def is_zero(self) -> bool:
        return not self.generators

    def contains_unit(self) -> bool:
        return any(g.homogeneous_degree() == 0 for g in self.generators)


def linear_substitute(p: Polynomial, matrix) -> Polynomial:
    """Substitute z_i -> sum_j M[i][j] z_j; matrix must be invertible.

    Standard grading only (a weighted ring has no linear coordinate
    changes mixing variables of different weights).
    """
    ring = p.ring
    if not ring.standard_graded:
        raise WeightedRingError("linear substitution needs a standard-graded ring")
    n = ring.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix size must match the variable count")
    from .linalg import determinant

    field = ring.field
    rows = [[field.of(x) for x in row] for row in matrix]
    if determinant(rows, field) == field.zero:
        raise ValueError("substitution matrix is singular")

    images = [
        Polynomial(
            ring,
            {ring.variable_mono(j): rows[i][j] for j in range(n) if rows[i][j] != field.zero},
        )
        for i in range(n)
    ]
    # cache powers of each image as needed
    powers: list[list[Polynomial]] = [[Polynomial.constant(ring, 1), img] for img in images]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    total = Polynomial.zero(ring)
    for mono, coeff in p.sorted_terms():
        term = Polynomial.constant(ring, 1).scale(coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


def substitute_ideal(I: Ideal, matrix) -> Ideal:
    return Ideal(I.ring, [linear_substitute(g, matrix) for g in I.generators])
