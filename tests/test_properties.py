"""Property tests on small random homogeneous ideals, modules and
matrices, over GF(p) and over QQ.

Examples come from the derandomized "pgshell" profile of conftest.py.
Coefficients are nonzero ratios with both signs and denominators 1..4,
so QQ inputs are neither monic nor integral.
"""

import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pgshell.resolution as resolution_module
import pgshell.shell as shell_module
from pgshell import (
    QQ,
    Field,
    GradedFreeModule,
    Ideal,
    Polynomial,
    PolyRing,
    artinian_reduction,
    betti,
    groebner_basis,
    hilbert_function,
    invariants,
    koszul_tor,
    minimal_resolution,
    parse_source,
    pgshell_check,
    pgshell_check_oracle,
    pgshell_report,
    render_source,
    standard_ring,
)
from pgshell.groebner import _interreduce, module_groebner, standard_monomials, top_key

from conftest import dense_matrix

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
                assert table.hilbert_series(ring).values(m)[m] == want, m

        check()


def test_betti_dimension_degree_matches_tail_fit():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            table = betti(minimal_resolution(ideal))
            h = hilbert_function(ideal, table.regularity() + ring.num_vars + 5)
            d = max((i for i, c in enumerate(h.hilbert_polynomial) if c), default=-1)
            want = (-1, 0) if d < 0 else (d, h.hilbert_polynomial[d] * factorial(d))
            assert table.dimension_degree(ring) == want

        check()


def test_source_round_trips():
    for ring in RINGS:
        @given(ideals(ring))
        def check(ideal):
            assert parse_source(render_source(ring, {"I": ideal})).ideals["I"] == ideal

        check()


def shell_pairs(ring):
    """(generators of V, the indices of those that generate W)."""
    return form_lists(ring).flatmap(lambda gens: st.tuples(
        st.just(gens), st.sets(st.sampled_from(range(len(gens))), min_size=1)
    ))


def test_chain_map_and_oracle_verdicts_agree():
    for ring in RINGS:
        @given(shell_pairs(ring))
        def check(case):
            gens, chosen = case
            # "both" raises InternalCheckError when the routes disagree
            W = Ideal(ring, [gens[i] for i in sorted(chosen)])
            pgshell_report(Ideal(ring, gens), W, "both")

        check()


def report_payload(report):
    return report.verdict, report.table, report.witness


def test_shell_check_ignores_generators_above_the_source_degrees():
    # V's generators of degree > D, D the top twist of F_q (q >= 1) for
    # S/I_W, cannot change mu_q; products of V's generators are such
    # forms, and adding them leaves the ideal I_V itself unchanged
    weighted = PolyRing(Field(32003), ("x", "y", "z"), (1, 1, 2))
    for ring in RINGS + (weighted,):
        @given(shell_pairs(ring), st.lists(st.integers(0, 3), min_size=2, max_size=6))
        def check(case, picks):
            gens, chosen = case
            V = Ideal(ring, gens)
            W = Ideal(ring, [gens[i] for i in sorted(chosen)])
            res_w = minimal_resolution(W)
            top = max(t for F in res_w.modules[1:] for t in F.twists)
            # a product of at least two generators, of degree > D
            factors = [gens[i % len(gens)] for i in picks] + [gens[0]] * (top + 1)
            extra = factors[0] * factors[1]
            for f in factors[2:]:
                if extra.homogeneous_degree() > top:
                    break
                extra = extra * f
            padded = Ideal(ring, list(gens) + [extra])
            assert len(padded.generators) > len(V.generators)
            assert report_payload(pgshell_check(padded, W)) == report_payload(pgshell_check(V, W))

        check()


def test_artinian_reduction_keeps_betti_and_oracle_tables():
    # the cut pair and the full pair give the same Betti tables, the same
    # reports of both routes, witness included, and the same invariants
    weighted = PolyRing(Field(32003), ("x", "y", "z"), (1, 1, 2))
    for ring in RINGS + (weighted,):
        cuts = []

        def reports(V, W):
            out = [report_payload(pgshell_check_oracle(V, W)),
                   report_payload(pgshell_check(V, W))]
            if ring.standard_graded:
                # invariants is memoized; its wrapped function recomputes
                out += [invariants.__wrapped__(I).to_json() for I in (V, W)]
            return out

        @given(shell_pairs(ring))
        def check(case):
            gens, chosen = case
            V = Ideal(ring, gens)
            W = Ideal(ring, [gens[i] for i in sorted(chosen)])
            c, cut = artinian_reduction(V, W)
            cuts.append(c)
            for full, part in zip((V, W), cut):
                assert part.ring.num_vars == ring.num_vars - c
                assert betti(minimal_resolution(part)) == betti(minimal_resolution(full))
            with pytest.MonkeyPatch.context() as mp:
                for module in (shell_module, resolution_module):
                    mp.setattr(module, "artinian_reduction", lambda *ideals: (0, ideals))
                want = reports(V, W)
            assert reports(V, W) == want

        check()
        assert any(cuts), ring


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
    """The reduced basis of a pass does not depend on the input order; the
    pass's own basis may."""
    for ring in RINGS:
        key = top_key(ring)

        def reduced(vectors):
            return _interreduce(module_groebner(vectors, ring, TWISTS, key), key, ring)

        @given(st.lists(twisted_vectors(ring), min_size=1, max_size=4),
               st.randoms(use_true_random=False))
        def check(vectors, rnd):
            shuffled = list(vectors)
            rnd.shuffle(shuffled)
            assert reduced(shuffled) == reduced(vectors)

        check()


def dense_compose(a_rows, b_rows, ring):
    """The product of two dense polynomial matrices, as GradedMatrix.compose
    computed it when matrices were grids of polynomials."""
    zero = Polynomial.zero(ring)
    out = []
    for i in range(len(a_rows)):
        row = []
        for j in range(len(b_rows[0])):
            acc = zero
            for k in range(len(b_rows)):
                a = a_rows[i][k]
                b = b_rows[k][j]
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


@st.composite
def matrix_pairs(draw, ring):
    """(G, F, E twists, rows of A: F -> G, rows of B: E -> F, cancel).

    Entries are homogeneous of the degree the twists ask for, or zero.
    With `cancel`, A repeats its first column as its last and B ends with
    the column (f, 0, ..., 0, -f), which A sends to zero term by term.
    """
    zero = Polynomial.zero(ring)

    def rows(row_twists, col_twists):
        return [[draw(forms(ring, s - t)) if s >= t and draw(st.integers(0, 3)) else zero
                 for s in col_twists] for t in row_twists]

    g_tw = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    f_tw = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    e_tw = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    a = rows(g_tw, f_tw)
    cancel = draw(st.booleans())
    if cancel:
        f_tw.append(f_tw[0])
        for row in a:
            row.append(row[0])
    b = rows(f_tw, e_tw)
    if cancel:
        d = draw(st.integers(0, 2))
        f = draw(forms(ring, d))
        e_tw.append(f_tw[0] + d)
        for k, row in enumerate(b):
            row.append(f if k == 0 else -f if k == len(f_tw) - 1 else zero)
    return g_tw, f_tw, e_tw, a, b, cancel


def test_sparse_compose_matches_dense_compose():
    for ring in RINGS:
        @given(matrix_pairs(ring))
        def check(case):
            g_tw, f_tw, e_tw, a, b, cancel = case
            G, F, E = GradedFreeModule(g_tw), GradedFreeModule(f_tw), GradedFreeModule(e_tw)
            A = dense_matrix(ring, F, G, a)
            B = dense_matrix(ring, E, F, b)
            A.validate_degrees()
            B.validate_degrees()
            want = dense_compose(a, b, ring)
            got = A.compose(B)
            got.validate_degrees()
            assert got == dense_matrix(ring, E, G, want)
            assert got.is_zero() == all(p.is_zero() for row in want for p in row)
            if cancel:
                assert got.columns[-1] == {}

        check()


def test_failing_example_is_reported_when_warnings_are_errors(tmp_path):
    """Under `-W error` a failing `@given` test is reported and the tests
    after it still run: conftest.py imports hypothesis's patch writer,
    whose import warns, before any failure needs it."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-W", "error", "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
