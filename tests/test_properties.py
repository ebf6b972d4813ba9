"""Property tests on small random homogeneous ideals and modules over GF(p).

Examples come from the derandomized "pgshell" profile of conftest.py.
"""

from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
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

RING = standard_ring(3, Field(32003))


@st.composite
def forms(draw, degree):
    """A nonzero form of the given degree with a few small coefficients."""
    monos = RING.monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
    return Polynomial(RING, {m: RING.field.of(c) for m, c in zip(chosen, coeffs)})


ideals = st.lists(st.integers(1, 3).flatmap(forms), min_size=1, max_size=4).map(
    lambda gens: Ideal(RING, gens)
)


@given(ideals)
def test_betti_table_matches_koszul_oracle(ideal):
    table = betti(minimal_resolution(ideal))
    for q in range(table.max_q() + 1):
        support = table.row_support(q)
        for m in support + [support[-1] + 1]:
            assert koszul_tor(ideal, q, m).dimension == table.get(q, m), (q, m)


@given(ideals)
def test_betti_table_predicts_hilbert_function(ideal):
    table = betti(minimal_resolution(ideal))
    gb = groebner_basis(ideal)
    for m in range(table.regularity() + table.max_q() + 2):
        assert table.alternating_sum_hilbert(RING, m) == len(standard_monomials(gb, m)), m


@given(ideals)
def test_betti_dimension_degree_matches_tail_fit(ideal):
    table = betti(minimal_resolution(ideal))
    h = hilbert_function(ideal, table.regularity() + RING.num_vars + 5)
    d = h.polynomial_degree()
    want = (-1, 0) if d < 0 else (d, h.hilbert_polynomial[d] * factorial(d))
    assert table.dimension_degree(RING) == want


@given(ideals)
def test_source_round_trips(ideal):
    assert parse_source(render_source(RING, {"I": ideal})).ideals["I"] == ideal


@given(st.lists(st.integers(1, 3).flatmap(forms), min_size=1, max_size=4).flatmap(
    lambda gens: st.tuples(st.just(gens), st.sets(st.sampled_from(range(len(gens))), min_size=1))
))
def test_chain_map_and_oracle_verdicts_agree(case):
    gens, chosen = case
    # "both" raises InternalCheckError when the routes disagree
    pgshell_report(Ideal(RING, gens), Ideal(RING, [gens[i] for i in sorted(chosen)]), "both")


TWISTS = (0, 1)


@st.composite
def twisted_vectors(draw):
    """Homogeneous vectors of S(0) + S(-1) in degrees 1..3."""
    degree = draw(st.integers(1, 3))
    top = draw(forms(degree))
    vec = {(m, 0): c for m, c in top.terms.items()}
    if draw(st.booleans()):
        bottom = draw(forms(degree - 1))
        vec.update({(m, 1): c for m, c in bottom.terms.items()})
    return vec


@given(st.lists(twisted_vectors(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_module_groebner_independent_of_input_order(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert module_groebner(shuffled, RING, TWISTS) == module_groebner(vectors, RING, TWISTS)
