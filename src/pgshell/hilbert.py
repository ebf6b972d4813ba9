"""Hilbert functions of graded quotients S/I, with exact polynomial fit.

Values are counted as standard monomials (monomials not divisible by
any lead monomial of the reduced Groebner basis).  On standard-graded
rings the tail is fitted by exact rational interpolation and verified
on two extra degrees.  This serves the `hilbert` command; dimension
and degree of the projective scheme are read off the Betti table
(`BettiTable.dimension_degree`), which needs no degree bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EngineError, TailNotStabilizedError
from .groebner import groebner_basis, standard_monomials
from .poly import Ideal


class HilbertData:
    """Graded dimensions of S/I up to m_max plus the fitted polynomial.

    hilbert_polynomial is an ascending coefficient list over Q, or None
    when no fit was attempted (weighted grading).
    """

    __slots__ = ("values", "hilbert_polynomial", "stabilization_degree", "m_max")

    def __init__(self, values, hilbert_polynomial, stabilization_degree, m_max):
        self.values = values
        self.hilbert_polynomial = hilbert_polynomial
        self.stabilization_degree = stabilization_degree
        self.m_max = m_max

    def polynomial_value(self, m: int) -> Fraction:
        if self.hilbert_polynomial is None:
            raise EngineError("no Hilbert polynomial available")
        acc = Fraction(0)
        for c in reversed(self.hilbert_polynomial):
            acc = acc * m + c
        return acc

    def polynomial_degree(self) -> int:
        """Degree of the Hilbert polynomial; -1 for the zero polynomial."""
        coeffs = self.hilbert_polynomial
        for i in range(len(coeffs) - 1, -1, -1):
            if coeffs[i] != 0:
                return i
        return -1


def _interpolate(points):
    """Ascending coefficients of the polynomial through (x, y) points."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # Lagrange basis polynomial for node i, accumulated into coeffs
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def hilbert_function(I: Ideal, m_max: int) -> HilbertData:
    """dim_k (S/I)_m for m in [0, m_max], plus the fitted Hilbert polynomial.

    The fit uses the last N+2 values before the final two, which are
    reserved as verification degrees; stabilization_degree is the least
    degree from which every computed value matches the polynomial.
    Raises TailNotStabilizedError (raise m_max) if verification fails.
    """
    I.require_homogeneous()
    ring = I.ring
    gb = groebner_basis(I)
    if gb.is_unit_ideal():
        values = {m: 0 for m in range(m_max + 1)}
        return HilbertData(values, [Fraction(0)], 0, m_max)
    values = {m: len(standard_monomials(gb, m)) for m in range(m_max + 1)}
    if not ring.standard_graded:
        return HilbertData(values, None, None, m_max)

    window = ring.num_vars + 1  # poly degree <= N, so N+1 nodes suffice
    if m_max < window + 2:
        raise TailNotStabilizedError(
            f"m_max={m_max} too small for a degree-{ring.num_vars - 1} fit; "
            f"raise m_max to at least {window + 2}"
        )
    fit_hi = m_max - 2
    nodes = [(m, values[m]) for m in range(fit_hi - window + 1, fit_hi + 1)]
    coeffs = _interpolate(nodes)
    data = HilbertData(values, coeffs, None, m_max)
    if data.polynomial_degree() >= ring.num_vars:
        raise TailNotStabilizedError(
            "fitted polynomial degree exceeds the ring dimension; raise m_max"
        )
    for m in (m_max - 1, m_max):
        if data.polynomial_value(m) != values[m]:
            raise TailNotStabilizedError(
                f"Hilbert value at degree {m} disagrees with the tail fit; raise m_max"
            )
    stab = m_max
    while stab > 0 and data.polynomial_value(stab - 1) == values[stab - 1]:
        stab -= 1
    data.stabilization_degree = stab
    return data

