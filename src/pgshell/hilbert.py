"""Hilbert series of graded quotients S/I, exact and with no degree bound.

S/I has Hilbert series K(t) / prod_i (1 - t^{w_i}) for an integer
polynomial K.  `HilbertSeries` holds K and reads everything else off
it: the values dim_k (S/I)_m, dimension and degree of the projective
scheme, and the Hilbert polynomial.  K has two sources, which agree:
`BettiTable.hilbert_series` (K = sum (-1)^q beta_{q,m} t^m) and
`lead_term_series`, Bigatti's pivot recursion on the lead monomials of
a Groebner basis (S/I and S/in(I) share their Hilbert function).  The
`hilbert` command reads the latter through `hilbert_function`, and
`artinian_reduction` to certify the cut that both shell routes run on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .errors import (EngineError, InternalCheckError, PreconditionError, RingMismatchError,
                     TailNotStabilizedError, WeightedRingError)
from .groebner import groebner_basis
from .memo import memoized
from .poly import Ideal, Polynomial
from .rings import PolyRing


def _add(a, b) -> list:
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] += c
    return out


class HilbertSeries:
    """HS(S/I) = K(t) / prod_i (1 - t^{w_i}); `numerator` holds K ascending,
    without trailing zeros (empty for the unit ideal)."""

    __slots__ = ("ring", "numerator")

    def __init__(self, ring, numerator):
        k = list(numerator)
        while k and k[-1] == 0:
            k.pop()
        self.ring, self.numerator = ring, tuple(k)

    def values(self, m_max: int) -> list:
        """[dim_k (S/I)_m for m in 0..m_max]."""
        out = list(self.numerator[: m_max + 1]) + [0] * (m_max + 1 - len(self.numerator))
        for w in self.ring.weights:
            for m in range(w, m_max + 1):  # times 1 / (1 - t^w)
                out[m] += out[m - w]
        return out

    def _h_dim(self):
        """(h, d) with K = (1 - t)^(N - d) h and h(1) != 0, d the projective
        dimension; d = -1 for the empty scheme."""
        if not self.ring.standard_graded:
            raise WeightedRingError("dimension, degree and Hilbert polynomial need a standard grading")
        h, d = self.numerator, self.ring.num_vars - 1
        while d >= 0 and sum(h) == 0:
            h, d = tuple(accumulate(h)), d - 1  # K / (1-t) has the prefix sums of K
        return h, d

    def dimension_degree(self) -> tuple:
        """(projective dimension, degree) of S/I; (-1, 0) for the empty scheme."""
        h, d = self._h_dim()
        return (d, sum(h)) if d >= 0 else (-1, 0)

    def polynomial(self) -> list:
        """Ascending coefficients over Q of sum_j h_j C(m - j + d, d), d the
        dimension; [0] for the empty scheme."""
        h, d = self._h_dim()
        coeffs = [Fraction(0)] * max(d + 1, 1)
        for j, hj in enumerate(h if d >= 0 else ()):
            term = [Fraction(hj)]
            for k in range(1, d + 1):  # times (m - j + k) / k
                term = [(a * (k - j) + b) / k for a, b in zip(term + [0], [0] + term)]
            coeffs = [a + b for a, b in zip(coeffs, term)]
        return coeffs


def _monomial_numerator(gens, ring) -> list:
    """K(t) of S/M for the monomial ideal M = (gens).

    Pivots on the power x^e of a variable x dividing the most minimal
    generators, e the lower median of their positive x-exponents,
    HS(S/M) = HS(S/(M + x^e)) + t^{e w_x} HS(S/(M : x^e)) (Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 1997), until the
    generators are pairwise coprime and K = prod_g (1 - t^{deg g}).
    Each branch leaves x in at most (k + 1) // 2 of the k generators it
    divided, so the depth grows with log k, not with the exponents.
    """
    minimal: list = []
    for g in sorted(set(gens), key=sum):
        if not any(ring.mono_divides(h, g) for h in minimal):
            minimal.append(g)
    counts = [sum(1 for g in minimal if g[i]) for i in range(ring.num_vars)]
    x = max(range(ring.num_vars), key=counts.__getitem__)
    if counts[x] < 2:
        k = [1]
        for g in minimal:
            k = _add(k, [0] * ring.mono_degree(g) + [-c for c in k])
        return k
    # below the largest exponent, so x^e is not in M even if M holds a power of x
    exps = sorted(g[x] for g in minimal if g[x])
    e = exps[(len(exps) - 1) // 2]
    power = tuple(e if i == x else 0 for i in range(ring.num_vars))
    plus = [g for g in minimal if g[x] < e] + [power]
    colon = [g[:x] + (max(g[x] - e, 0),) + g[x + 1:] for g in minimal]
    shifted = [0] * (ring.weights[x] * e) + _monomial_numerator(colon, ring)
    return _add(_monomial_numerator(plus, ring), shifted)


def lead_term_series(gb) -> HilbertSeries:
    """HS(S/I) from the lead monomials of a Groebner basis of I."""
    return HilbertSeries(gb.ring, _monomial_numerator(gb.lead_monomials, gb.ring))


def _trailing_free(I: Ideal) -> int:
    """The number of trailing variables that divide no lead monomial of the
    reduced grevlex basis of I (all of them for the zero ideal)."""
    n = I.ring.num_vars
    return min((n - 1 - max(i for i, e in enumerate(m) if e)
                for m in groebner_basis(I).lead_monomials), default=n)


@memoized
def artinian_reduction(*ideals):
    """(c, cut ideals): the last c variables form a regular sequence on
    every S/I, and each cut ideal is (I + those variables) / (them).

    The certificate is Bayer-Stillman's ("A criterion for detecting
    m-regularity", 1987): for homogeneous I under grevlex, z_N is
    regular on S/I iff it divides no lead monomial of the reduced basis,
    and the basis with z_N set to 0 is then one of I + (z_N); so c
    counts the trailing variables in no lead monomial of any of the
    ideals, at most N so that one variable is left.  A regular linear
    form l keeps Tor^S_q(S/I, k) = Tor^{S/l}_q(S/(I + l), k) in every
    degree, naturally in S/I: Betti tables, depth >= 1 and the maps
    mu_q of a pair all survive the cut.

    A cut ideal lives in the first N + 1 - c variables and is made by
    dropping every term with a cut variable from the given generators.
    It is checked against a second certificate: the sequence is regular
    iff HS(S/I) = HS(S'/I') / prod (1 - t^w) over the cut variables, so
    the cut ideal's lead-term series must have the numerator K(t) of the
    full one, or InternalCheckError is raised.  c is 0, and the ideals
    come back as given, when one is inhomogeneous or the unit ideal.
    """
    ring = ideals[0].ring
    if any(I.ring != ring for I in ideals):
        raise RingMismatchError("ideals live in different rings")
    if any(not I.homogeneous or I.contains_unit() for I in ideals):
        return 0, ideals
    c = min(ring.num_vars - 1, *(_trailing_free(I) for I in ideals))
    if not c:
        return 0, ideals
    k = ring.num_vars - c
    cut_ring = PolyRing(ring.field, ring.names[:k], ring.weights[:k])

    def drop(g):
        return Polynomial(cut_ring, {m[:k]: a for m, a in g.terms.items() if not any(m[k:])})

    def numerator(G):
        return lead_term_series(groebner_basis(G)).numerator

    cut = tuple(Ideal(cut_ring, [drop(g) for g in I.generators]) for I in ideals)
    for I, J in zip(ideals, cut):
        if numerator(I) != numerator(J):
            raise InternalCheckError(
                f"the Artinian reduction (c = {c}) changes the Hilbert series numerator of {I}"
            )
    return c, cut


class HilbertData:
    """Graded dimensions of S/I up to m_max plus the Hilbert polynomial.

    hilbert_polynomial is an ascending coefficient list over Q, or None
    on weighted gradings.
    """

    __slots__ = ("values", "hilbert_polynomial", "stabilization_degree")

    def __init__(self, values, hilbert_polynomial, stabilization_degree):
        self.values = values
        self.hilbert_polynomial = hilbert_polynomial
        self.stabilization_degree = stabilization_degree

    def polynomial_value(self, m: int) -> Fraction:
        if self.hilbert_polynomial is None:
            raise EngineError("no Hilbert polynomial available")
        acc = Fraction(0)
        for c in reversed(self.hilbert_polynomial):
            acc = acc * m + c
        return acc


def hilbert_function(I: Ideal, m_max: int) -> HilbertData:
    """dim_k (S/I)_m for m in [0, m_max], plus the Hilbert polynomial.

    Both are exact, read off the lead-term series.  The polynomial
    agrees with the values from degree deg K - N on (deg h - dim), and
    stabilization_degree is the least degree from which it agrees.
    Raises TailNotStabilizedError when that degree exceeds m_max, and
    PreconditionError when m_max < 0.  Weighted gradings get the values
    only.
    """
    if m_max < 0:
        raise PreconditionError(f"m_max must be at least 0, got {m_max}")
    I.require_homogeneous()
    ring = I.ring
    series = lead_term_series(groebner_basis(I))
    if not ring.standard_graded:
        return HilbertData(dict(enumerate(series.values(m_max))), None, None)
    stab = max(0, len(series.numerator) - ring.num_vars)
    values = series.values(max(m_max, stab))
    data = HilbertData(dict(enumerate(values[: m_max + 1])), series.polynomial(), None)
    while stab > 0 and data.polynomial_value(stab - 1) == values[stab - 1]:
        stab -= 1
    if stab > m_max:
        raise TailNotStabilizedError(
            f"the Hilbert function meets its polynomial only from degree {stab}; "
            f"raise m_max to at least {stab}"
        )
    data.stabilization_degree = stab
    return data
