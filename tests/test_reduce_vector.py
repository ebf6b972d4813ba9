"""Differential test: `reduce_vector`'s heap worklist and inline
arithmetic against the scan loop on field methods it replaced.

`ref_reduce_vector` below is `reduce_vector` as it was before the heap
and before GF(p) joined QQ's integer pass: it picks the next term, the
largest, with `min(work, key=key)` (a smaller key is a larger term).
Over QQ it clears the input of denominators, as the engine does, and
pseudo-divides; otherwise, or on request (`fractions`), it does its
arithmetic through the `Field` methods and divides by the lead
coefficient.  Unless `fractions` is set, the remainder is normalized by
`fields.primitive`, as the engine returns it.  While a test runs, every
reduction the engine makes goes through both.  That covers the monic
integer vectors of GF(p), the primitive integer vectors of QQ, the
`Fraction` inputs of `normal_form` and the tagged reductions of
`field_remainder`, under `top_key`, `block_key` and `last_variable_key`.
Remainders and their key order must be identical.  Over QQ,
`normal_form` must also equal a `Fraction`-arithmetic reduction against
the monic basis.
"""

import random
from collections import Counter
from itertools import combinations
from math import gcd
from operator import mul as int_mul
from operator import sub as int_sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    QQ,
    Field,
    Polynomial,
    PolyRing,
    clear_caches,
    groebner_basis,
    minimal_resolution,
    normal_form,
    rational_normal_curve,
    substitute_ideal,
)
from pgshell import groebner, resolution, saturation
from pgshell.fields import clear_denominators, primitive
from pgshell.groebner import CONTENT_STEPS, lead_terms, poly_to_vector
from pgshell.resolution import betti_table
from pgshell.saturation import ideal_quotient_saturation

from conftest import dense_determinant, graded_ideals


def ref_reduce_vector(v, basis, lead_terms, key, ring, fractions=False) -> dict:
    """The scan loop: the largest term of the work vector, each step."""
    field = ring.field
    integral = not field.characteristic and not fractions
    zero, sub, mul = (0, int_sub, int_mul) if integral else (field.zero, field.sub, field.mul)
    mono_div, mono_mul = ring.mono_div, ring.mono_mul
    work = clear_denominators(v)[0] if integral else dict(v)
    remainder = {}
    nbasis = len(basis)
    steps = 0
    while work:
        t = min(work, key=key)
        tm, tp = t
        c = work[t]
        for idx in range(nbasis):
            (gm, gp), gc = lead_terms[idx]
            if gp != tp:
                continue
            q = mono_div(tm, gm)
            if q is None:
                continue
            if integral:
                steps += 1
                d = gcd(*work.values(), *remainder.values()) if steps % CONTENT_STEPS == 0 else 1
                c //= d
                g = gcd(c, gc)
                factor, scale = c // g, gc // g
                if d != 1 or scale != 1:
                    work = {k: x // d * scale for k, x in work.items()}
                    remainder = {k: x // d * scale for k, x in remainder.items()}
            else:
                factor = field.div(c, gc)
            for (m2, p2), c2 in basis[idx].items():
                k2 = (mono_mul(q, m2), p2)
                s = sub(work.get(k2, zero), mul(factor, c2))
                if s == zero:
                    work.pop(k2, None)
                else:
                    work[k2] = s
            break
        else:
            remainder[t] = c
            del work[t]
    if remainder and not fractions:
        return primitive(remainder, next(iter(remainder)), field.characteristic)
    return remainder


class Differential:
    """Stands in for `reduce_vector`: runs it and the reference on the
    same arguments, compares, and counts (key, arithmetic) pairs seen."""

    def __init__(self, real):
        self.real = real
        self.key_names = {}
        self.seen = Counter()

    def named(self, name, make):
        def make_named(*args):
            key = make(*args)
            self.key_names[key] = name
            return key
        return make_named

    def __call__(self, v, basis, lead_terms, key, ring, multiples=None):
        want = ref_reduce_vector(v, basis, lead_terms, key, ring)
        got = self.real(v, basis, lead_terms, key, ring, multiples)
        assert list(got.items()) == list(want.items())
        arithmetic = "gf" if ring.field.characteristic else "qq"
        name = self.key_names.get(key, "other")
        self.seen[name, arithmetic] += 1
        return got


@pytest.fixture
def differential(monkeypatch):
    d = Differential(groebner.reduce_vector)
    monkeypatch.setattr(groebner, "reduce_vector", d)
    monkeypatch.setattr(groebner, "top_key", d.named("top", groebner.top_key))
    monkeypatch.setattr(resolution, "block_key", d.named("block", groebner.block_key))
    monkeypatch.setattr(saturation, "last_variable_key",
                        d.named("last-variable", groebner.last_variable_key))
    clear_caches()
    yield d
    clear_caches()


@st.composite
def polynomials(draw, ring):
    """A few terms of degree <= 4 with coefficients n/d, d in 1..4."""
    monos = [m for deg in range(5) for m in ring.monomials_of_degree(deg)]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    return Polynomial(ring, {m: ring.field.of(draw(st.integers(-5, 5).filter(bool)),
                                              draw(st.integers(1, 4))) for m in chosen})


@pytest.mark.parametrize("field, weighted", [(Field(32003), False), (QQ, False), (QQ, True)],
                         ids=["gf", "qq", "qq-weighted"])
def test_reductions_match_max_scan(differential, field, weighted):
    @given(graded_ideals(field, weighted).flatmap(
        lambda ideal: st.tuples(st.just(ideal), polynomials(ideal.ring))))
    def check(case):
        ideal, p = case
        gb = groebner_basis(ideal)
        r = normal_form(p, gb)
        assert normal_form(p - r, gb).is_zero()
        if not field.characteristic:
            # the field remainder against the monic basis, on Fractions
            monic = [poly_to_vector(g) for g in gb.elements]
            want = ref_reduce_vector(poly_to_vector(p), monic, lead_terms(monic, gb.key), gb.key,
                                     ideal.ring, fractions=True)
            assert list(poly_to_vector(r).items()) == list(want.items())
        minimal_resolution(ideal)
        for i in range(ideal.ring.num_vars):
            ideal_quotient_saturation(ideal, Polynomial.variable(ideal.ring, i))

    check()
    arithmetic = "gf" if field.characteristic else "qq"
    for name in ("top", "block", "last-variable"):
        assert differential.seen[name, arithmetic], name


def resolve_generic_coordinates(label, n):
    """The coordinate change the resolve-generic benchmark workload
    applies to the ideal `label` in n variables: the first draw of
    entries in [-3, 3] from the stream named after it that is invertible
    over QQ and over GF(32003)."""
    rng = random.Random(f"resolve-generic/{label}")
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if all(dense_determinant([[f.of(x) for x in row] for row in m], f) != f.zero
               for f in (QQ, Field(32003))):
            return m


def test_each_reducer_multiple_is_built_once_per_pass(monkeypatch):
    """A pass builds each reducer multiple q basis[idx] once, in its table
    of multiples: `betti_table` of rnc6 in generic coordinates over
    GF(32003) makes at most 30,000 monomial products (183,121 when every
    division step built its own multiple), in exactly 457 reductions."""
    field = Field(32003)
    ideal = substitute_ideal(rational_normal_curve(6, field).ideal,
                             resolve_generic_coordinates("rnc6", 7))
    calls = Counter()
    real_mul, real_reduce = PolyRing.mono_mul, groebner.reduce_vector

    def mono_mul(a, b):
        calls["mono_mul"] += 1
        return real_mul(a, b)

    def reduce_vector(*args):
        calls["reduce_vector"] += 1
        return real_reduce(*args)

    monkeypatch.setattr(PolyRing, "mono_mul", staticmethod(mono_mul))
    monkeypatch.setattr(groebner, "reduce_vector", reduce_vector)
    clear_caches()
    try:
        table = betti_table(ideal)
    finally:
        clear_caches()
    assert table.entries == {(0, 0): 1, (1, 2): 15, (2, 3): 40, (3, 4): 45, (4, 5): 24,
                             (5, 6): 5}
    assert calls["mono_mul"] <= 30_000
    assert calls["reduce_vector"] == 457


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3)], ids=["standard", "weighted"])
def test_term_keys_are_monomial_orders(weights):
    """The ring's grevlex key is a monomial order on S and each term key
    one on S^3, read in descending key order; block and z_i-last keys
    also have the property they exist for."""
    ring = PolyRing(QQ, ("x", "y", "z"), weights)
    by_degree = [ring.monomials_of_degree(d) for d in range(5)]
    terms = [(m, p) for monos in by_degree for m in monos for p in range(3)]
    multipliers = [m for monos in by_degree[1:3] for m in monos]

    def times(m, term):
        return ring.mono_mul(m, term[0]), term[1]

    # the monomial key, on the terms of position 0
    keys = {"mono": lambda term: ring.mono_key(term[0])}
    keys["top"] = groebner.top_key(ring)
    keys.update({f"block {b}": groebner.block_key(ring, b) for b in (1, 2)})
    keys.update({f"last z{i}": groebner.last_variable_key(ring, i) for i in range(3)})
    for name, key in keys.items():
        domain = [t for t in terms if name != "mono" or t[1] == 0]
        assert len({key(t) for t in domain}) == len(domain), name
        ordered = sorted(domain, key=key)
        for m in multipliers:
            assert sorted(domain, key=lambda t: key(times(m, t))) == ordered, (name, m)
            assert all(key(times(m, t)) < key(t) for t in domain), (name, m)

    for block in (1, 2):
        key = keys[f"block {block}"]
        inside = max(key(t) for t in terms if t[1] < block)
        assert all(inside < key(t) for t in terms if t[1] >= block), block

    for i in range(3):
        key = keys[f"last z{i}"]
        for monos in by_degree:
            for size in (1, 2, 3):
                for f in combinations([(m, 0) for m in monos], size):
                    lead = min(f, key=key)
                    assert (lead[0][i] > 0) == all(m[i] > 0 for m, _ in f), (i, f)


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3)], ids=["standard", "weighted"])
def test_ring_order_is_the_engine_order(weights):
    """Printing, lead monomials and monomial enumeration order monomials
    exactly as the engine's `top_key` orders the terms of position 0."""
    ring = PolyRing(QQ, ("x", "y", "z"), weights)
    key = groebner.top_key(ring)

    def engine_sorted(monos):
        return sorted(monos, key=lambda m: key((m, 0)))

    by_degree = [ring.monomials_of_degree(d) for d in range(6)]
    for monos in by_degree:
        assert monos == engine_sorted(monos)
    monos = [m for ms in by_degree for m in ms]

    @given(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
    def check(chosen):
        p = Polynomial(ring, {m: ring.field.one for m in chosen})
        assert [m for m, _ in p.sorted_terms()] == engine_sorted(chosen)
        assert p.lead_monomial() == engine_sorted(chosen)[0]

    check()
