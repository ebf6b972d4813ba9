import random

import pytest

from pgshell import (
    Field,
    Ideal,
    Polynomial,
    QQ,
    betti,
    clear_caches,
    complete_intersection,
    groebner_basis,
    is_minimal_generator,
    linear_substitute,
    membership,
    minimal_resolution,
    normal_form,
    pgshell_report,
    points_on_rational_normal_curve,
    rational_normal_curve,
    same_ideal,
    scroll_surface,
    standard_ring,
    substitute_ideal,
    tensor_resolution,
    twisted_cubic_cone_p5,
    veronese_surface,
)
from pgshell.linalg import determinant
from pgshell.resolution import column_module

from conftest import random_invertible


def evaluate(p, point):
    """The value of p at a tuple of field values."""
    field = p.ring.field
    total = field.zero
    for m, c in p.terms.items():
        val = c
        for e, x in zip(m, point):
            for _ in range(e):
                val = field.mul(val, x)
        total = field.add(total, val)
    return total


def assert_reduced(gb):
    """Every element is monic, and no term of one element is divisible
    by the lead monomial of another."""
    ring = gb.ring
    leads = [g.lead_monomial() for g in gb.elements]
    for i, g in enumerate(gb.elements):
        assert g.lead_coeff() == ring.field.one, g
        for j, lead in enumerate(leads):
            if j != i:
                assert not any(ring.mono_divides(lead, m) for m in g.terms), (g, lead)


def test_normal_form_of_basis_elements(twisted_cubic):
    gb = groebner_basis(twisted_cubic)
    for g in gb.elements:
        assert normal_form(g, twisted_cubic).is_zero()


def test_normal_form_of_ideal_element(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    assert normal_form(z[3] * tc_quadrics[0], twisted_cubic).is_zero()


def test_normal_form_standard_monomial(R4, zvars, twisted_cubic):
    z = zvars
    p = z[0] * z[0] * z[0]
    # no lead monomial of the basis divides z0^3
    assert normal_form(p, twisted_cubic) == p


def test_buchberger_twisted_cubic_already_reduced(twisted_cubic, tc_quadrics):
    gb = groebner_basis(twisted_cubic)
    assert len(gb.elements) == 3
    monic_inputs = {q.monic() for q in tc_quadrics}
    assert set(gb.elements) == monic_inputs
    assert_reduced(gb)


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["qq", "gf"])
def test_corpus_bases_are_reduced(field):
    rng = random.Random(5)
    entries = [
        rational_normal_curve(4, field),
        veronese_surface(field),
        scroll_surface(field),
        twisted_cubic_cone_p5(field),
        complete_intersection([2, 2, 2], field=field),
        points_on_rational_normal_curve(3, 5, field=field),
    ]
    for entry in entries:
        assert_reduced(groebner_basis(entry.ideal))
    # and in generic coordinates, where the bases are dense
    for entry in entries[:2]:
        n = entry.ring.num_vars
        assert_reduced(groebner_basis(substitute_ideal(entry.ideal, random_invertible(rng, n, field))))


def test_buchberger_principal(R4, zvars):
    z = zvars
    f = (z[0] * z[1] - z[2] * z[3]).scale(QQ.of(7))
    gb = groebner_basis(Ideal(R4, [f]))
    assert gb.elements == (f.monic(),)


def test_buchberger_linear_elimination():
    ring = standard_ring(2)
    z0 = Polynomial.variable(ring, 0)
    z1 = Polynomial.variable(ring, 1)
    gb = groebner_basis(Ideal(ring, [z0, z0 + z1]))
    assert set(gb.elements) == {z0, z1}


def test_buchberger_permutation_invariance(R4, tc_quadrics):
    import itertools

    renderings = set()
    for perm in itertools.permutations(tc_quadrics):
        gb = groebner_basis(Ideal(R4, list(perm)))
        renderings.add("; ".join(str(g) for g in gb.elements))
    assert len(renderings) == 1


def test_all_spolys_reduce_to_zero(twisted_cubic, veronese_entry):
    from pgshell.groebner import (
        _spoly,
        poly_to_vector,
        reduce_vector,
        top_key,
        vector_lead,
    )

    for ideal in (twisted_cubic, veronese_entry.ideal):
        gb = groebner_basis(ideal)
        key = top_key(ideal.ring)
        basis = [poly_to_vector(g) for g in gb.elements]
        leads = [(vector_lead(v, key), v[vector_lead(v, key)]) for v in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = _spoly(basis[i], basis[j], leads[i], leads[j], ideal.ring)
                assert not reduce_vector(s, basis, leads, key, ideal.ring)


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["qq", "gf"])
def test_groebner_engine_calls_no_field_arithmetic(field, monkeypatch):
    """The engine runs on Python operators over both fields: with every
    `Field` arithmetic method made to raise, bases, resolutions, normal
    forms, solves, the shell report with its witness, a tensor
    resolution, a point ideal and a determinant give what they gave with
    the methods.  Only `Polynomial` arithmetic, used here to build the
    inputs, calls them."""
    rng = random.Random("no-field-arithmetic")
    entry = rational_normal_curve(4, field)
    ideal = substitute_ideal(entry.ideal, random_invertible(rng, entry.ring.num_vars, field))
    z = [Polynomial.variable(ideal.ring, i) for i in range(entry.ring.num_vars)]
    f = ideal.generators[0] * z[1] + z[2] * z[3] * z[4].scale(field.of(2, 3))
    w2 = Ideal(ideal.ring, ideal.generators[:2])
    cone = twisted_cubic_cone_p5(field).ideal
    linear = Ideal(cone.ring, [Polynomial.variable(cone.ring, i) for i in (4, 5)])
    matrix = [[field.of(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)]

    def results():
        res = minimal_resolution(ideal)
        d = res.differentials[1]
        report = pgshell_report(ideal, w2, "both")
        tensor = tensor_resolution(cone, linear)[0]
        return (groebner_basis(ideal).elements, betti(res), res.differentials,
                normal_form(f, ideal), column_module(d).solve(d.columns[0]),
                report.verdict, report.table, report.witness,
                betti(tensor), tensor.differentials,
                points_on_rational_normal_curve(3, 5, field=field).ideal,
                determinant(matrix, field))

    clear_caches()
    want = results()
    assert want[3] and want[4] and want[7] and want[-1]

    def forbidden(*args):
        raise AssertionError("Field arithmetic in the engine")

    for name in ("add", "sub", "mul", "div", "inv", "neg"):
        monkeypatch.setattr(Field, name, forbidden)
    clear_caches()
    try:
        assert results() == want
    finally:
        clear_caches()


def test_membership_examples(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    assert membership(tc_quadrics[0], twisted_cubic)
    assert not membership(Polynomial.constant(R4, 1), twisted_cubic)
    # cubic on the curve: z0*z3^2 - z2^3 vanishes on (s^3, s^2 t, s t^2, t^3)
    member = z[0] * z[3] * z[3] - z[2] * z[2] * z[2]
    non_member = z[1] * z[1] * z[3] - z[2] * z[2] * z[2]

    def on_curve(p):
        rng = random.Random(17)
        for _ in range(6):
            s, t = QQ.of(rng.randint(1, 9)), QQ.of(rng.randint(1, 9))
            point = (s**3, s**2 * t, s * t**2, t**3)
            if evaluate(p, point) != 0:
                return False
        return True

    assert on_curve(member) and not on_curve(non_member)
    assert membership(member, twisted_cubic)
    assert not membership(non_member, twisted_cubic)


def test_normal_form_idempotent_linear_and_tracks_combination(R4, zvars, twisted_cubic):
    z = zvars
    rng = random.Random(23)
    gb = groebner_basis(twisted_cubic)
    monos = R4.monomials_of_degree(3)
    for _ in range(10):
        p = Polynomial(
            R4, {m: QQ.of(rng.randint(-4, 4)) for m in rng.sample(monos, 5)}
        )
        q = Polynomial(
            R4, {m: QQ.of(rng.randint(-4, 4)) for m in rng.sample(monos, 5)}
        )
        rp = normal_form(p, gb)
        assert normal_form(rp, gb) == rp
        assert normal_form(p + q, gb) == rp + normal_form(q, gb)
        assert membership(p - rp, gb)


def test_membership_invariant_under_coordinate_change(R4, zvars, twisted_cubic):
    z = zvars
    rng = random.Random(29)
    inside = z[3] * (z[0] * z[2] - z[1] * z[1])
    outside = z[0] * z[0] * z[0]
    for _ in range(5):
        m = random_invertible(rng, 4, QQ)
        moved = substitute_ideal(twisted_cubic, m)
        assert membership(linear_substitute(inside, m), moved)
        assert not membership(linear_substitute(outside, m), moved)


def test_is_minimal_generator(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    assert is_minimal_generator(tc_quadrics[0], twisted_cubic)
    assert not is_minimal_generator(z[3] * tc_quadrics[0], twisted_cubic)
    with pytest.raises(ValueError):
        is_minimal_generator(z[0] * z[0], twisted_cubic)  # not in the ideal


def test_is_minimal_generator_ci_distinct_degrees(ci23):
    for g in ci23.ideal.generators:
        assert is_minimal_generator(g, ci23.ideal)


def test_same_ideal(R4, tc_quadrics):
    a = Ideal(R4, list(tc_quadrics))
    b = Ideal(R4, [tc_quadrics[2], tc_quadrics[0], tc_quadrics[1] + tc_quadrics[0]])
    assert same_ideal(a, b)
    assert not same_ideal(a, Ideal(R4, [tc_quadrics[0]]))
