"""Property tests on small random homogeneous ideals and modules, over
GF(p) and over QQ.

Examples come from the derandomized "pgshell" profile of conftest.py.
Coefficients are nonzero ratios with both signs and denominators 1..4,
so QQ inputs are neither monic nor integral.
"""

from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    QQ,
    Field,
    Ideal,
    Polynomial,
    betti,
    groebner_basis,
    hilbert_function,
    koszul_tor,
    minimal_resolution,
    parse_source,
    pgshell_report,
    render_source,
    standard_ring,
)
from pgshell.groebner import module_groebner, standard_monomials

# each test runs its check over both rings in turn, under its own name
RINGS = (standard_ring(3, Field(32003)), standard_ring(3, QQ))

coefficients = st.tuples(st.integers(1, 5), st.sampled_from((1, -1)), st.integers(1, 4))


@st.composite
def forms(draw, ring, degree):
    """A nonzero form of the given degree with a few small coefficients."""
    monos = ring.monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(coefficients, min_size=len(chosen), max_size=len(chosen)))
    return Polynomial(ring, {m: ring.field.of(s * n, d) for m, (n, s, d) in zip(chosen, coeffs)})


def form_lists(ring):
    return st.lists(st.integers(1, 3).flatmap(lambda d: forms(ring, d)), min_size=1, max_size=4)


def ideals(ring):
    return form_lists(ring).map(lambda gens: Ideal(ring, gens))


def test_betti_table_matches_koszul_oracle():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            table = betti(minimal_resolution(ideal))
            for q in range(table.max_q() + 1):
                support = table.row_support(q)
                for m in support + [support[-1] + 1]:
                    assert koszul_tor(ideal, q, m).dimension == table.get(q, m), (q, m)

        check()


def test_betti_table_predicts_hilbert_function():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            table = betti(minimal_resolution(ideal))
            gb = groebner_basis(ideal)
            for m in range(table.regularity() + table.max_q() + 2):
                want = len(standard_monomials(gb, m))
                assert table.alternating_sum_hilbert(ring, m) == want, m

        check()


def test_betti_dimension_degree_matches_tail_fit():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            table = betti(minimal_resolution(ideal))
            h = hilbert_function(ideal, table.regularity() + ring.num_vars + 5)
            d = h.polynomial_degree()
            want = (-1, 0) if d < 0 else (d, h.hilbert_polynomial[d] * factorial(d))
            assert table.dimension_degree(ring) == want

        check()


def test_source_round_trips():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            assert parse_source(render_source(ring, {"I": ideal})).ideals["I"] == ideal

        check()


def test_chain_map_and_oracle_verdicts_agree():
    for ring in RINGS:
        @given(form_lists(ring).flatmap(lambda gens: st.tuples(
            st.just(gens), st.sets(st.sampled_from(range(len(gens))), min_size=1)
        )))
        def check(case):
            gens, chosen = case
            # "both" raises InternalCheckError when the routes disagree
            W = Ideal(ring, [gens[i] for i in sorted(chosen)])
            pgshell_report(Ideal(ring, gens), W, "both")

        check()


TWISTS = (0, 1)


@st.composite
def twisted_vectors(draw, ring):
    """Homogeneous vectors of S(0) + S(-1) in degrees 1..3."""
    degree = draw(st.integers(1, 3))
    top = draw(forms(ring, degree))
    vec = {(m, 0): c for m, c in top.terms.items()}
    if draw(st.booleans()):
        bottom = draw(forms(ring, degree - 1))
        vec.update({(m, 1): c for m, c in bottom.terms.items()})
    return vec


def test_module_groebner_independent_of_input_order():
    for ring in RINGS:
        @given(st.lists(twisted_vectors(ring), min_size=1, max_size=4),
               st.randoms(use_true_random=False))
        def check(vectors, rnd):
            shuffled = list(vectors)
            rnd.shuffle(shuffled)
            assert module_groebner(shuffled, ring, TWISTS) == module_groebner(vectors, ring, TWISTS)

        check()
