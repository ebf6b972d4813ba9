from fractions import Fraction
from math import comb

import pytest
from hypothesis import given

from pgshell import (
    Field,
    Ideal,
    Polynomial,
    PolyRing,
    QQ,
    betti,
    groebner_basis,
    hilbert_function,
    lead_term_series,
    minimal_resolution,
)
from pgshell.errors import TailNotStabilizedError, WeightedRingError
from pgshell.groebner import standard_monomials

from conftest import graded_ideals


def series_coefficients(gen_degrees, num_vars, m_max):
    """Taylor coefficients of prod(1 - t^d) / (1 - t)^n, an independent check
    for complete intersections."""
    # numerator
    num = [0] * (m_max + 1)
    num[0] = 1
    for d in gen_degrees:
        new = list(num)
        for i in range(m_max + 1 - d):
            new[i + d] -= num[i]
        num = new
    # divide by (1-t)^n == multiply by sum C(k+n-1, n-1) t^k
    out = []
    for m in range(m_max + 1):
        total = 0
        for i in range(m + 1):
            total += num[i] * comb(m - i + num_vars - 1, num_vars - 1)
        out.append(total)
    return out


def dimension_degree(I):
    return betti(minimal_resolution(I)).dimension_degree(I.ring)


def test_twisted_cubic_hilbert(twisted_cubic):
    h = hilbert_function(twisted_cubic, 12)
    assert [h.values[m] for m in range(5)] == [1, 4, 7, 10, 13]
    assert h.hilbert_polynomial == [Fraction(1), Fraction(3)]
    assert h.stabilization_degree == 0
    assert dimension_degree(twisted_cubic) == (1, 3)


def test_zero_ideal_hilbert(R4):
    h = hilbert_function(Ideal(R4, []), 10)
    for m in range(11):
        assert h.values[m] == comb(m + 3, 3)
    assert dimension_degree(Ideal(R4, [])) == (3, 1)


def test_ci23_hilbert(ci23):
    h = hilbert_function(ci23.ideal, 12)
    expected = series_coefficients([2, 3], 4, 12)
    assert [h.values[m] for m in range(13)] == expected
    # Hilbert polynomial 6m - 3 (degree-6 curve of genus 4)
    assert h.hilbert_polynomial == [Fraction(-3), Fraction(6)]
    assert dimension_degree(ci23.ideal) == (1, 6)


def test_unit_ideal_hilbert(R4):
    h = hilbert_function(Ideal(R4, [Polynomial.constant(R4, 1)]), 8)
    assert all(v == 0 for v in h.values.values())
    assert dimension_degree(Ideal(R4, [Polynomial.constant(R4, 1)])) == (-1, 0)


def test_points_hilbert(points5_entry):
    h = hilbert_function(points5_entry.ideal, 10)
    assert [h.values[m] for m in range(4)] == [1, 4, 5, 5]
    assert dimension_degree(points5_entry.ideal) == (0, 5)


def test_artinian_dimension_degree(R4):
    square = [Polynomial.from_term(R4, m, R4.field.one) for m in R4.monomials_of_degree(2)]
    assert dimension_degree(Ideal(R4, square)) == (-1, 0)


def test_twisted_cubic_small_m_max(twisted_cubic):
    # the exact series needs no window of N+3 degrees
    h = hilbert_function(twisted_cubic, 4)
    assert [h.values[m] for m in range(5)] == [1, 4, 7, 10, 13]
    assert h.hilbert_polynomial == [Fraction(1), Fraction(3)]
    assert h.stabilization_degree == 0


def test_tail_error_when_m_max_too_small(points5_entry):
    # values 1, 4, 5, 5, ...: the constant 5 holds from degree 2 on
    with pytest.raises(TailNotStabilizedError):
        hilbert_function(points5_entry.ideal, 1)
    assert hilbert_function(points5_entry.ideal, 2).stabilization_degree == 2


def test_weighted_values_no_fit():
    ring = PolyRing(QQ, ("x", "y"), (1, 2))
    x = Polynomial.variable(ring, 0)
    h = hilbert_function(Ideal(ring, [x]), 8)
    # S/(x) = k[y] with y in degree 2
    assert [h.values[m] for m in range(5)] == [1, 0, 1, 0, 1]
    assert h.hilbert_polynomial is None
    with pytest.raises(WeightedRingError):
        dimension_degree(Ideal(ring, [x]))


STAIRCASES = {
    "1200": ((1200, 0), (1199, 1), (0, 1200)),
    "5000": ((5000, 0), (4999, 1), (0, 5000)),
    "1200-steps": tuple((1200 - 100 * i, 100 * i) for i in range(13)) + ((1199, 1),),
}


@pytest.mark.parametrize("weights", [(1, 1), (1, 2)], ids=["standard", "weighted"])
@pytest.mark.parametrize("name", list(STAIRCASES))
def test_deep_staircase_series_counts_standard_monomials(name, weights):
    # a pivot on a variable recursed once per unit of exponent, past
    # Python's recursion limit from degree about 1000
    ring = PolyRing(QQ, ("x", "y"), weights)
    gb = groebner_basis(
        Ideal(ring, [Polynomial.from_term(ring, g, ring.field.one) for g in STAIRCASES[name]])
    )
    top = 2 * max(ring.mono_degree(g) for g in gb.lead_monomials)
    values = lead_term_series(gb).values(top)
    last = max(m for m, v in enumerate(values) if v)  # S/M is Artinian
    gen_degree = min(ring.mono_degree(g) for g in gb.lead_monomials)
    degrees = set(range(0, top + 1, top // 10)) | set(range(gen_degree - 3, gen_degree + 4))
    for m in sorted(degrees | {last, last + 1}):
        assert values[m] == len(standard_monomials(gb, m)), m


def test_alternating_sum_matches_hilbert(catalog_items):
    from pgshell import betti, minimal_resolution, regularity_and_depth

    for name, ideal in catalog_items.items():
        bt = betti(minimal_resolution(ideal))
        reg = regularity_and_depth(bt, ideal.ring)[0]
        h = hilbert_function(ideal, reg + ideal.ring.num_vars + 5)
        for m in range(reg + 6):
            assert bt.hilbert_series(ideal.ring).values(m)[m] == h.values[m], (
                name,
                m,
            )


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_lead_term_series_matches_betti_and_counts(p, weighted):
    @given(graded_ideals(Field(p), weighted))
    def check(I):
        ring = I.ring
        table = betti(minimal_resolution(I))
        gb = groebner_basis(I)
        series = lead_term_series(gb)
        assert series.numerator == table.hilbert_series(ring).numerator
        top = table.regularity() + ring.num_vars + 1  # reg + N + 2
        assert series.values(top) == [len(standard_monomials(gb, m)) for m in range(top + 1)]

    check()


def interpolate(points):
    """Ascending coefficients of the polynomial through (x, y) points (Lagrange)."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                denom *= xi - xj
                basis = [b - a * xj for a, b in zip(basis + [0], [0] + basis)]
        for k, c in enumerate(basis):
            coeffs[k] += c * Fraction(yi) / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def tail_fit(values, num_vars, m_max):
    """The fit hilbert_function made before the exact series: interpolate the
    N+2 values before the last two, check it on those two, walk down to the
    stabilization degree.  (coefficients, degree), or None where it gave up."""
    window = num_vars + 1
    if m_max < window + 2:
        return None
    coeffs = interpolate([(m, values[m]) for m in range(m_max - 1 - window, m_max - 1)])

    def at(m):
        return sum(c * m**k for k, c in enumerate(coeffs))

    if len(coeffs) > num_vars or any(at(m) != values[m] for m in (m_max - 1, m_max)):
        return None
    stab = m_max
    while stab > 0 and at(stab - 1) == values[stab - 1]:
        stab -= 1
    return coeffs, stab


def test_series_matches_tail_fit(catalog_items):
    for name, ideal in catalog_items.items():
        gb = groebner_basis(ideal)
        values = [len(standard_monomials(gb, m)) for m in range(13)]
        answered = 0
        for m_max in range(13):
            fit = tail_fit(values, ideal.ring.num_vars, m_max)
            if fit is not None:
                h = hilbert_function(ideal, m_max)
                assert (h.hilbert_polynomial, h.stabilization_degree) == fit, (name, m_max)
                answered += 1
        assert answered, name
