import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    Field,
    Ideal,
    Polynomial,
    PolyRing,
    artinian_reduction,
    betti_table,
    clear_caches,
    groebner_basis,
    ideal_intersection,
    ideal_quotient_saturation,
    is_saturated,
    minimal_resolution,
    rational_normal_curve,
    same_ideal,
    saturate_irrelevant,
    standard_ring,
)
from pgshell.errors import EngineError, NotHomogeneousError, PreconditionError
from pgshell.groebner import (
    _memoized_term_key,
    module_groebner,
    poly_to_vector,
    standard_monomials,
)

from conftest import graded_ideals


def test_quotient_power_examples(R4, zvars):
    z = zvars
    assert same_ideal(
        ideal_quotient_saturation(Ideal(R4, [z[0] * z[0]]), z[0]),
        Ideal(R4, [Polynomial.constant(R4, 1)]),
    )
    assert same_ideal(
        ideal_quotient_saturation(Ideal(R4, [z[0] * z[1]]), z[0]),
        Ideal(R4, [z[1]]),
    )
    with pytest.raises(EngineError):
        ideal_quotient_saturation(Ideal(R4, []), Polynomial.zero(R4))


def test_quotient_only_by_a_variable(R4, zvars):
    z = zvars
    I = Ideal(R4, [z[0] * z[1]])
    assert same_ideal(ideal_quotient_saturation(I, z[0].scale(R4.field.of(3))), Ideal(R4, [z[1]]))
    for f in (z[0] + z[1], z[0] * z[0], z[0] * z[1], Polynomial.constant(R4, 2)):
        with pytest.raises(PreconditionError):
            ideal_quotient_saturation(I, f)


def test_quotient_idempotent_on_saturated(twisted_cubic, zvars):
    q = ideal_quotient_saturation(twisted_cubic, zvars[0])
    assert same_ideal(q, twisted_cubic)


def test_intersection(R4, zvars):
    z = zvars
    a = Ideal(R4, [z[0]])
    b = Ideal(R4, [z[1]])
    assert same_ideal(ideal_intersection(a, b), Ideal(R4, [z[0] * z[1]]))
    assert ideal_intersection(a, Ideal(R4, [])).is_zero()


def test_graded_operations_refuse_inhomogeneous_input():
    ring = standard_ring(3)
    z0, z1, z2 = (Polynomial.variable(ring, i) for i in range(3))
    J = Ideal(ring, [z0 - z1 * z1], allow_inhomogeneous=True)
    H = Ideal(ring, [z0 * z1])
    with pytest.raises(NotHomogeneousError):
        saturate_irrelevant(J)
    with pytest.raises(NotHomogeneousError):
        ideal_quotient_saturation(J, z2)
    with pytest.raises(NotHomogeneousError):
        ideal_quotient_saturation(H, z2 - z0 * z0)
    with pytest.raises(NotHomogeneousError):
        ideal_intersection(H, J)
    with pytest.raises(NotHomogeneousError):
        ideal_intersection(J, H)


def test_saturate_irrelevant_examples(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    sat, changed = saturate_irrelevant(twisted_cubic)
    assert not changed
    assert same_ideal(sat, twisted_cubic)

    q = tc_quadrics[0]
    shifted = Ideal(R4, [z[i] * q for i in range(4)])
    sat2, changed2 = saturate_irrelevant(shifted)
    assert changed2
    assert same_ideal(sat2, Ideal(R4, [q]))

    unit = Ideal(R4, [Polynomial.constant(R4, 1)])
    sat3, changed3 = saturate_irrelevant(unit)
    assert not changed3 and same_ideal(sat3, unit)


def test_saturation_keeps_points_in_coordinate_hyperplanes(points5_entry):
    # two of the five points lie in coordinate hyperplanes; the saturation
    # must keep them (this is an intersection over the variables, not a
    # composition of single-variable saturations)
    sat, changed = saturate_irrelevant(points5_entry.ideal)
    assert not changed


def test_saturation_idempotent_and_never_shrinks(R4, zvars, tc_quadrics):
    z = zvars
    shifted = Ideal(R4, [z[i] * tc_quadrics[0] for i in range(4)])
    sat, _ = saturate_irrelevant(shifted)
    sat_again, changed = saturate_irrelevant(sat)
    assert not changed
    gb_before = groebner_basis(shifted)
    gb_after = groebner_basis(sat)
    for m in range(8):  # dim I_m <= dim (I^sat)_m
        assert len(standard_monomials(gb_after, m)) <= len(standard_monomials(gb_before, m))


# Reference: the classical elimination route, independent of the Bayer-Stillman
# quotient and the syzygy intersection under test.  Adjoin t, compute a basis
# under an order in which any power of t beats every t-free term (grevlex on
# the rest), and keep the t-free elements.


def _extended(ring):
    return PolyRing(ring.field, ring.names + ("_t",), ring.weights + (1,))


def _lift(p, ext, k=0):
    """p * t^k in S[t]."""
    return Polynomial(ext, {m + (k,): c for m, c in p.terms.items()})


def _eliminate_t(gens, ext, ring):
    """(gens) cap S, given by its reduced grevlex basis."""
    key = _memoized_term_key(lambda term: (-term[0][-1], *ring.mono_key(term[0][:-1])))
    basis = module_groebner([poly_to_vector(g) for g in gens], ext, (0,), key)
    pieces = [Polynomial(ring, {m[:-1]: c for (m, _), c in v.items()})
              for v in basis if all(m[-1] == 0 for m, _ in v)]
    return Ideal(ring, groebner_basis(Ideal(ring, pieces)).elements)


def reference_quotient(I, f):
    """(I : f^inf) from the t-free part of I + (t*f - 1)."""
    ext = _extended(I.ring)
    gens = [_lift(g, ext) for g in I.generators]
    gens.append(_lift(f, ext, 1) - Polynomial.constant(ext, 1))
    return _eliminate_t(gens, ext, I.ring)


def reference_intersection(I, J):
    """I cap J from the t-free part of t*I + (1-t)*J."""
    if not I.generators or not J.generators:
        return Ideal(I.ring, [])
    ext = _extended(I.ring)
    gens = [_lift(g, ext, 1) for g in I.generators]
    gens += [_lift(h, ext) - _lift(h, ext, 1) for h in J.generators]
    return _eliminate_t(gens, ext, I.ring)


def fixpoint_saturation(I):
    """Reference: the sweep cap_i (J : z_i^inf) repeated until it is a fixpoint."""
    ring = I.ring
    current = I
    current_gb = groebner_basis(current).elements
    while True:
        parts = [
            reference_quotient(current, Polynomial.variable(ring, i))
            for i in range(ring.num_vars)
        ]
        nxt = parts[0]
        for p in parts[1:]:
            nxt = reference_intersection(nxt, p)
        nxt_gb = groebner_basis(nxt).elements
        if nxt_gb == current_gb:
            break
        current, current_gb = nxt, nxt_gb
    return current, current_gb != groebner_basis(I).elements


def saturation_cases(ring):
    z = [Polynomial.variable(ring, i) for i in range(4)]
    quadrics = [z[0] * z[2] - z[1] * z[1], z[1] * z[3] - z[2] * z[2], z[0] * z[3] - z[1] * z[2]]
    tc = Ideal(ring, quadrics)
    cubes = Ideal(
        ring, [Polynomial.from_term(ring, m, ring.field.one) for m in ring.monomials_of_degree(3)]
    )
    return {
        "twisted cubic": tc,
        "z_i*q": Ideal(ring, [z[i] * quadrics[0] for i in range(4)]),
        "tc*S_+": Ideal(ring, [z[i] * q for q in quadrics for i in range(4)]),
        "tc cap S_+^3": reference_intersection(tc, cubes),
        "monomial": Ideal(
            ring, [z[0] * z[0] * z[1], z[0] * z[1] * z[1], z[1] * z[2] * z[3], z[2] * z[2] * z[2]]
        ),
    }


@pytest.mark.parametrize("p", [0, 32003])
def test_one_sweep_matches_fixpoint(p):
    ring = standard_ring(4, Field(p))
    for name, I in saturation_cases(ring).items():
        sat, changed = saturate_irrelevant(I)
        ref, ref_changed = fixpoint_saturation(I)
        assert groebner_basis(sat).elements == groebner_basis(ref).elements, name
        assert changed == ref_changed, name
        # one more sweep of the result changes nothing
        assert saturate_irrelevant(sat) == (sat, False), name


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_is_saturated_matches_elimination(p, weighted):
    @given(graded_ideals(Field(p), weighted))
    def check(I):
        assert is_saturated(I) != fixpoint_saturation(I)[1]

    check()


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_is_saturated_matches_betti(p, weighted):
    # the lead-monomial certificate against depth S/I >= 1, i.e. pd S/I <= N
    # (Auslander-Buchsbaum); on z_last * I the last variable divides every
    # lead, so nothing can be cut (c = 0), while another may divide none
    @given(graded_ideals(Field(p), weighted), st.booleans())
    def check(I, times_last):
        ring = I.ring
        if times_last:
            z = Polynomial.variable(ring, ring.num_vars - 1)
            I = Ideal(ring, [g * z for g in I.generators])
        assert is_saturated(I) == (betti_table(I).max_q() < ring.num_vars)

    check()


def test_is_saturated_reads_only_the_basis():
    # N = z4 * (a quadric of rnc 4): z4 divides its lead, so there is no
    # trailing variable to cut, but z3 divides no lead
    V = rational_normal_curve(4).ideal
    N = Ideal(V.ring, [V.generators[0] * Polynomial.variable(V.ring, 4)])
    clear_caches()
    assert is_saturated(N)
    assert groebner_basis.cache_info().misses == 1
    assert artinian_reduction.cache_info().misses == 0
    assert minimal_resolution.cache_info().misses == 0


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_saturation_matches_elimination_reference(p, weighted):
    # both sides return reduced bases, so equal ideals have equal generators
    @given(st.data())
    def check(data):
        I = data.draw(graded_ideals(Field(p), weighted))
        ring = I.ring
        J = data.draw(graded_ideals(Field(p), weighted, ring.weights))
        for i in range(ring.num_vars):
            z = Polynomial.variable(ring, i)
            assert ideal_quotient_saturation(I, z) == reference_quotient(I, z)
        assert ideal_intersection(I, J) == reference_intersection(I, J)
        sat, changed = saturate_irrelevant(I)
        ref, ref_changed = fixpoint_saturation(I)
        assert changed == ref_changed
        assert groebner_basis(sat).elements == groebner_basis(ref).elements

    check()
