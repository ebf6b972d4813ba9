"""Differential tests: the one-pass minimal generating subset against the
greedy loop that re-runs Buchberger after every kept vector, the
minimal generators of an ideal read from its one Groebner pass, and the
minimal-generator tests of the shell criteria against linear algebra on
the degree-m multiples."""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgshell import (
    QQ,
    Field,
    Ideal,
    Polynomial,
    PolyRing,
    clear_caches,
    complete_intersection,
    groebner,
    groebner_basis,
    minimal_generators,
    minimal_resolution,
    points_on_rational_normal_curve,
    rational_normal_curve,
    scroll_surface,
    substitute_ideal,
    veronese_surface,
)
from pgshell.criteria import part_of_minimal_generators
from pgshell.errors import NotHomogeneousError
from pgshell.groebner import (
    is_minimal_generator,
    lead_terms,
    module_groebner,
    poly_to_vector,
    reduce_vector,
    top_key,
    vector_degree,
)
from pgshell.linalg import RowSpace
from pgshell.resolution import column_module, minimal_generating_subset

from conftest import graded_ideals, random_invertible


def reference_subset(vectors, ring, twists):
    """Greedy minimalization: keep a vector when the Groebner basis of the
    kept ones does not reduce it to zero, and recompute that basis from
    scratch after each kept vector."""
    degrees = [vector_degree(v, ring, twists) for v in vectors]
    order = sorted(range(len(vectors)), key=lambda i: degrees[i])
    key = top_key(ring)
    kept = []
    kept_gb = []
    for idx in order:
        if kept_gb and not reduce_vector(vectors[idx], kept_gb, lead_terms(kept_gb, key), key, ring):
            continue
        kept.append(idx)
        kept_gb = module_groebner([vectors[i] for i in kept], ring, twists, key=key)
    return kept


def with_redundant_generators(ideal, rng):
    """Generators plus scaled copies, same-degree sums and variable multiples,
    shuffled."""
    ring = ideal.ring
    gens = list(ideal.generators)
    extra = []
    for g in gens:
        h = rng.choice([f for f in gens if f.homogeneous_degree() == g.homogeneous_degree()])
        extra.append(g.scale(ring.field.of(rng.choice([-2, 3]))))
        extra.append(g + h.scale(ring.field.of(rng.randint(1, 3))))
        extra.append(g * Polynomial.variable(ring, rng.randrange(ring.num_vars)))
    polys = [p for p in gens + extra if not p.is_zero()]
    rng.shuffle(polys)
    return ring, polys


CATALOG = pytest.mark.parametrize(
    "build",
    [
        lambda field=None: rational_normal_curve(4, field),
        lambda field=None: veronese_surface(field),
        lambda field=None: scroll_surface(field),
        lambda field=None: complete_intersection([2, 3], seed=1, field=field),
        lambda field=None: points_on_rational_normal_curve(3, 5, field=field),
    ],
    ids=["rnc4", "veronese", "scroll", "ci23", "points5"],
)


@CATALOG
def test_minimal_subset_matches_reference_on_redundant_generators(build):
    entry = build()
    rng = random.Random(41)
    for _ in range(3):
        ring, polys = with_redundant_generators(entry.ideal, rng)
        vectors = [poly_to_vector(p) for p in polys]
        got = minimal_generating_subset(vectors, ring, (0,))
        assert got == reference_subset(vectors, ring, (0,))
        assert len(got) == len(entry.ideal.generators)


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["rnc4", "veronese"])
def test_minimal_subset_matches_reference_on_syzygy_vectors(name, characteristic):
    field = Field(characteristic)
    entry = rational_normal_curve(4, field) if name == "rnc4" else veronese_surface(field)
    ring = entry.ring
    moved = substitute_ideal(entry.ideal, random_invertible(random.Random(7), ring.num_vars, field))
    res = minimal_resolution(moved)
    for q in range(1, res.length + 1):
        d = res.differential(q)
        vectors = column_module(d).syzygy_vectors()
        twists = d.source.twists
        got = minimal_generating_subset(vectors, ring, twists)
        assert got == reference_subset(vectors, ring, twists)
        assert len(got) == res.module(q + 1).rank


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
@CATALOG
def test_minimal_generators_match_reference(build, characteristic):
    entry = build(Field(characteristic))
    rng = random.Random(43)
    for _ in range(2):
        ring, polys = with_redundant_generators(entry.ideal, rng)
        ideal = Ideal(ring, polys)
        vectors = [poly_to_vector(p) for p in ideal.generators]
        want = [ideal.generators[i] for i in reference_subset(vectors, ring, (0,))]
        assert minimal_generators(ideal) == want


def test_minimal_generators_reuse_the_groebner_pass(monkeypatch, twisted_cubic, zvars):
    calls = []
    engine = groebner.module_groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    # patch every namespace that binds the engine, as the tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("pgshell") and getattr(module, "module_groebner", None) is engine:
            monkeypatch.setattr(module, "module_groebner", counted)
    clear_caches()
    gens = list(twisted_cubic.generators)
    ideal = Ideal(twisted_cubic.ring, gens + [zvars[0] * gens[1]])
    groebner_basis(ideal)
    assert minimal_generators(ideal) == gens
    assert len(calls) == 1


# The minimal-generator tests against exact linear algebra on the degree-m
# piece: (S_+ I)_m is spanned by the degree-m multiples of the Groebner
# basis elements of degree < m.


def multiples_span(I, m):
    """(RowSpace of (S_+ I)_m, coordinates of a degree-m form)."""
    ring = I.ring
    index = {mono: i for i, mono in enumerate(ring.monomials_of_degree(m))}

    def coords(p):
        return {index[t]: c for t, c in p.terms.items()}

    span = RowSpace(len(index), ring.field)
    for g in groebner_basis(I).elements:
        dg = g.homogeneous_degree()
        if dg < m:
            for mono in ring.monomials_of_degree(m - dg):
                span.add(coords(g * Polynomial.from_term(ring, mono, ring.field.one)))
    return span, coords


def reference_is_minimal(F, I):
    span, coords = multiples_span(I, F.homogeneous_degree())
    return not span.contains(coords(F))


def reference_part(I_W, I_V):
    spans = {}
    for g in minimal_generators(I_W):
        m = g.homogeneous_degree()
        if m not in spans:
            spans[m] = multiples_span(I_V, m)
        span, coords = spans[m]
        if not span.add(coords(g)):
            return False
    return True


def elements(I, draw):
    """Generators, variable multiples and same-degree sums of generators."""
    ring = I.ring
    gens = list(I.generators)
    out = list(gens)
    for g in gens:
        out.append(g * Polynomial.variable(ring, draw(st.integers(0, ring.num_vars - 1))))
        same = [h for h in gens if h.homogeneous_degree() == g.homogeneous_degree()]
        out.append(g + draw(st.sampled_from(same)).scale(ring.field.of(draw(st.integers(1, 3)))))
    return [f for f in out if not f.is_zero()]


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF32003"])
def test_minimal_generator_tests_match_linear_algebra(p, weighted):
    answers = set()

    @given(st.data())
    def check(data):
        I_V = data.draw(graded_ideals(Field(p), weighted))
        candidates = elements(I_V, data.draw)
        for F in candidates:
            want = reference_is_minimal(F, I_V)
            assert is_minimal_generator(F, I_V) == want, F
            answers.add(("is_minimal_generator", want))
        chosen = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3))
        I_W = Ideal(I_V.ring, chosen)
        want = reference_part(I_W, I_V)
        assert part_of_minimal_generators(I_W, I_V) == want, chosen
        answers.add(("part_of_minimal_generators", want))

    check()
    assert answers == {(name, b) for name in ("is_minimal_generator", "part_of_minimal_generators")
                       for b in (True, False)}


def test_is_minimal_generator_needs_a_homogeneous_ideal():
    ring = PolyRing(QQ, ("x", "y"), (1, 1))
    x, y = (Polynomial.variable(ring, i) for i in range(2))
    I = Ideal(ring, [x + y * y, x * y], allow_inhomogeneous=True)
    # both lie in S_+ I: y^3 = y (x + y^2) - x y and x^2 = x (x + y^2) - y (x y)
    for F in (y * y * y, x * x):
        with pytest.raises(NotHomogeneousError):
            is_minimal_generator(F, I)
