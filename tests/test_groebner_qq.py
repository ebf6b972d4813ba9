"""Differential tests: the integer Groebner pass against the
field-arithmetic engine it replaced, over QQ and over GF(p).

`module_groebner` runs both fields on integer vectors normalized by
`fields.primitive`: over QQ primitive, with pseudo-reduction; over GF(p)
monic, reduced mod p inline.  It returns its pass's basis in that form,
and `_interreduce` makes it the reduced basis.  The reference below is
the engine on the `Field` methods throughout (`Fraction` coefficients
over QQ), with monic vectors; on both fields the two must return the
same pass basis and the same reduced basis, up to that normalization,
and the same kept inputs.  Over QQ,
`reduce_vector` on integer vectors must return the primitive form, with
positive lead coefficient, of the field remainder.
"""

import random
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    QQ,
    Field,
    Ideal,
    Polynomial,
    complete_intersection,
    groebner_basis,
    minimal_resolution,
    points_on_rational_normal_curve,
    rational_normal_curve,
    scroll_surface,
    standard_ring,
    substitute_ideal,
    twisted_cubic_cone_p5,
    veronese_surface,
)
from pgshell.groebner import (
    _interreduce,
    block_key,
    module_groebner,
    poly_to_vector,
    reduce_vector,
    top_key,
    vector_lead,
)

from conftest import random_invertible

# ---------------------------------------------------------------------------
# the reference: the engine on field arithmetic


def ref_monic(v, key, field):
    lt = vector_lead(v, key)
    inv = field.inv(v[lt])
    return {t: field.mul(inv, c) for t, c in v.items()}


def ref_reduce(v, basis, lead_terms, key, ring):
    field = ring.field
    zero = field.zero
    work = dict(v)
    remainder = {}
    while work:
        t = min(work, key=key)
        tm, tp = t
        c = work[t]
        for idx in range(len(basis)):
            (gm, gp), gc = lead_terms[idx]
            q = ring.mono_div(tm, gm) if gp == tp else None
            if q is None:
                continue
            factor = field.div(c, gc)
            for (m2, p2), c2 in basis[idx].items():
                k2 = (tuple(a + b for a, b in zip(q, m2)), p2)
                s = field.sub(work.get(k2, zero), field.mul(factor, c2))
                if s == zero:
                    work.pop(k2, None)
                else:
                    work[k2] = s
            break
        else:
            remainder[t] = c
            del work[t]
    return remainder


def ref_spoly(f, g, ltf, ltg, ring):
    field = ring.field
    (fm, _), fc = ltf
    (gm, _), gc = ltg
    lcm_ = ring.mono_lcm(fm, gm)
    qf, qg = ring.mono_div(lcm_, fm), ring.mono_div(lcm_, gm)
    inv_f, inv_g = field.inv(fc), field.inv(gc)
    out = {}
    for (m, p), c in f.items():
        out[(tuple(a + b for a, b in zip(qf, m)), p)] = field.mul(inv_f, c)
    for (m, p), c in g.items():
        k = (tuple(a + b for a, b in zip(qg, m)), p)
        s = field.sub(out.get(k, field.zero), field.mul(inv_g, c))
        if s == field.zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def ref_module_groebner(vectors, ring, twists, key, kept):
    """The pass's basis, monic, in insertion order; pairs pop in the
    engine's order, by degree, then smallest (lcm, position) under `key`."""
    field = ring.field
    ideal = len(twists) == 1
    inputs = []
    for idx, v in enumerate(vectors):
        if v:
            mono, pos = vector_lead(v, key)
            inputs.append((ring.mono_degree(mono) + twists[pos], idx))
    inputs.sort()
    basis, leads, pairs, pending = [], [], [], set()

    def insert(v):
        v = ref_monic(v, key, field)
        lt = vector_lead(v, key)
        new = len(basis)
        basis.append(v)
        leads.append((lt, v[lt]))
        mono, pos = lt
        for t in range(new):
            (mt, pt), _ = leads[t]
            if pt == pos:
                lcm_ = ring.mono_lcm(mt, mono)
                # smallest (lcm, position) first: minus its key, a smaller key a larger term
                heappush(pairs, (ring.mono_degree(lcm_) + twists[pos],
                                 tuple(-k for k in key((lcm_, pos))), t, new, lcm_))
                pending.add((t, new))

    nxt = 0
    while pairs or nxt < len(inputs):
        if nxt < len(inputs) and (not pairs or inputs[nxt][0] < pairs[0][0]):
            idx = inputs[nxt][1]
            nxt += 1
            r = ref_reduce(vectors[idx], basis, leads, key, ring)
            if r:
                insert(r)
                kept.append(idx)
            continue
        _, _, i, j, lcm_ = heappop(pairs)
        pending.discard((i, j))
        (mi, pi), _ = leads[i]
        (mj, _), _ = leads[j]
        if ideal and tuple(a + b for a, b in zip(mi, mj)) == lcm_:
            continue
        if any(
            k != i and k != j and leads[k][0][1] == pi and ring.mono_divides(leads[k][0][0], lcm_)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        r = ref_reduce(ref_spoly(basis[i], basis[j], leads[i], leads[j], ring), basis, leads, key,
                       ring)
        if r:
            insert(r)
    return basis


def ref_interreduce(basis, key, ring):
    """The reduced basis, monic, smallest lead first."""
    field = ring.field
    leads = [(vector_lead(v, key), v[vector_lead(v, key)]) for v in basis]
    minimal = []
    for i in sorted(range(len(basis)), key=lambda i: key(leads[i][0]), reverse=True):
        m, p = leads[i][0]
        if not any(leads[k][0][1] == p and ring.mono_divides(leads[k][0][0], m) for k in minimal):
            minimal.append(i)
    out = []
    for i in minimal:
        others = [k for k in minimal if k != i]
        r = ref_reduce(basis[i], [basis[k] for k in others], [leads[k] for k in others], key, ring)
        out.append(ref_monic(r, key, field))
    out.sort(key=lambda v: key(vector_lead(v, key)), reverse=True)
    return out


# ---------------------------------------------------------------------------
# comparison


def assert_same_engine(vectors, ring, twists, key):
    """The engine's pass basis and its interreduction are the reference's
    pass basis and reduced basis, in the integer form; returns the
    reference's reduced basis."""
    kept, ref_kept = [], []
    got = module_groebner(vectors, ring, twists, key=key, kept=kept)
    want = ref_module_groebner(vectors, ring, twists, key, ref_kept)
    assert kept == ref_kept
    assert_integer_form(got, want, ring, key)
    want = ref_interreduce(want, key, ring)
    assert_integer_form(_interreduce(got, key, ring), want, ring, key)
    return want


def assert_integer_form(got, want, ring, key):
    """got is want in the engine's integer form: monic over GF(p), the
    primitive multiple with `int` coefficients over QQ."""
    if ring.field.characteristic:
        assert got == want
    else:
        assert got == [integer_primitive(v, key) for v in want]
    assert all(type(c) is int for v in got for c in v.values())
    # the same vectors, term order included
    assert [list(v) for v in got] == [list(v) for v in want]


def integer_primitive(v, key):
    """The primitive integer multiple of v with positive lead coefficient."""
    den = lcm(*(Fraction(c).denominator for c in v.values()))
    ints = {t: int(c * den) for t, c in v.items()}
    g = gcd(*ints.values())
    if ints[vector_lead(ints, key)] < 0:
        g = -g
    return {t: c // g for t, c in ints.items()}


def assert_pseudo_remainder(v, basis, key, ring):
    """Integer reduce_vector = primitive form of the field remainder."""
    leads = [(vector_lead(g, key), g[vector_lead(g, key)]) for g in basis]
    want = ref_reduce(v, basis, leads, key, ring)
    int_basis = [integer_primitive(g, key) for g in basis]
    int_leads = [(lt, g[lt]) for (lt, _), g in zip(leads, int_basis)]
    got = reduce_vector(integer_primitive(v, key), int_basis, int_leads, key, ring)
    assert got == (integer_primitive(want, key) if want else {})


GF = Field(32003)

GENERIC = {
    "rnc4": lambda field: rational_normal_curve(4, field),
    "rnc5": lambda field: rational_normal_curve(5, field),
    "veronese": veronese_surface,
    "scroll": scroll_surface,
    "tc-cone": twisted_cubic_cone_p5,
    "ci222": lambda field: complete_intersection([2, 2, 2], seed=1, field=field),
    "points5": lambda field: points_on_rational_normal_curve(3, 5, field=field),
}


# the QQ cases keep the bare label as their id
@pytest.mark.parametrize("label, field", [pytest.param(label, QQ, id=label) for label in GENERIC]
                         + [pytest.param(label, GF, id=f"{label}-gf") for label in GENERIC])
def test_catalog_in_generic_coordinates(label, field):
    ideal = GENERIC[label](field).ideal
    ring = ideal.ring
    assert ring.field == field
    rng = random.Random(f"generic/{label}")
    ideal = substitute_ideal(ideal, random_invertible(rng, ring.num_vars, ring.field))
    key = top_key(ring)
    gens = [poly_to_vector(g) for g in ideal.generators]
    gb = assert_same_engine(gens, ring, (0,), key)
    if not field.characteristic:
        for g in gens:
            assert_pseudo_remainder(g, gb, key, ring)
            # termwise rescaled, so in general outside the ideal
            assert_pseudo_remainder({t: c * rng.choice((-2, -1, 3)) for t, c in g.items()},
                                    gb, key, ring)
    for M in minimal_resolution(ideal).differentials:
        r = M.target.rank
        # the inputs of the differential's ColumnModule, under its block
        # order, in field values (syzygy columns are integer vectors)
        columns = over(ring.field, [{**col, (ring.one_mono, r + j): 1}
                                    for j, col in enumerate(M.columns)])
        basis = assert_same_engine(columns, ring, M.target.twists + M.source.twists,
                                   block_key(ring, r))
        # the syzygy part of the basis, a Groebner basis of ker M
        syz = [{(m, p - r): c for (m, p), c in v.items()} for v in basis
               if all(p >= r for (_, p) in v)]
        if syz:
            assert_same_engine(syz, ring, M.source.twists, top_key(ring))


RING = standard_ring(3, QQ)
GF_RING = standard_ring(3, GF)
TWISTS = (0, 1, 1)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def module_vectors(draw, homogeneous=True):
    """A nonzero vector of S(0) + S(-1) + S(-1) with rational coefficients;
    homogeneous of degree 1..3, or an ideal element of degree <= 2."""
    if not homogeneous:
        monos = [m for d in range(3) for m in RING.monomials_of_degree(d)]
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        return {(m, 0): draw(rationals) for m in chosen}
    degree = draw(st.integers(1, 3))
    terms = [(m, p) for p, tw in enumerate(TWISTS) for m in RING.monomials_of_degree(degree - tw)]
    chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=5, unique=True))
    return {t: draw(rationals) for t in chosen}


def over(field, vectors):
    """The rational vectors with their coefficients mapped into the field:
    each example runs over QQ and again over GF(p)."""
    return [{t: field.of(c) for t, c in v.items()} for v in vectors]


@given(st.lists(module_vectors(), min_size=1, max_size=5), module_vectors())
def test_random_rational_modules(vectors, v):
    key = top_key(RING)
    basis = assert_same_engine(vectors, RING, TWISTS, key)
    assert_pseudo_remainder(v, basis, key, RING)
    assert_same_engine(over(GF, vectors), GF_RING, TWISTS, top_key(GF_RING))


@given(st.lists(module_vectors(homogeneous=False), min_size=1, max_size=3),
       module_vectors(homogeneous=False))
def test_random_inhomogeneous_ideals(vectors, v):
    key = top_key(RING)
    basis = assert_same_engine(vectors, RING, (0,), key)
    assert_pseudo_remainder(v, basis, key, RING)
    assert_same_engine(over(GF, vectors), GF_RING, (0,), top_key(GF_RING))


def test_input_scaling_is_invisible():
    # non-monic, non-integral input gives the monic reduced basis
    x, y, z = (Polynomial.variable(RING, i) for i in range(3))
    f = (x * y).scale(QQ.of(-3, 4)) + (z * z).scale(QQ.of(5, 6))
    g = (y * z).scale(QQ.of(7, 2)) - (x * x).scale(QQ.of(2, 9))
    key = top_key(RING)
    want = assert_same_engine([poly_to_vector(f), poly_to_vector(g)], RING, (0,), key)
    assert all(v[vector_lead(v, key)] == 1 for v in want)
    elements = groebner_basis(Ideal(RING, [f, g])).elements
    assert [poly_to_vector(e) for e in elements] == want
    assert all(e.lead_coeff() == 1 and type(e.lead_coeff()) is Fraction for e in elements)
