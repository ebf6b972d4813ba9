"""Differential tests: the one-pass minimal generating subset against the
greedy loop that re-runs Buchberger after every kept vector, the
minimal generators of an ideal read from its one Groebner pass, the
minimal syzygies a column module's one pass records against the
minimal generating subset of its syzygy part, and the minimal-generator
tests of the shell criteria against linear algebra on the degree-m
multiples."""

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
from pgshell.fields import canonical
from pgshell.groebner import (
    _interreduce,
    _spoly,
    is_minimal_generator,
    lead_terms,
    module_groebner,
    poly_to_vector,
    reduce_vector,
    top_key,
    vector_degree,
)
from pgshell.linalg import RowSpace
from pgshell.modules import GradedFreeModule, GradedMatrix
from pgshell.resolution import ColumnModule, column_module, minimal_generating_subset

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


def generic(name, field):
    """The catalog ideal `name` in seeded generic coordinates over `field`."""
    if name == "veronese":
        entry = veronese_surface(field)
    else:
        entry = rational_normal_curve(int(name.removeprefix("rnc")), field)
    n = entry.ring.num_vars
    return substitute_ideal(entry.ideal, random_invertible(random.Random(7), n, field))


def syzygy_part(M):
    """The basis vectors of M's column module led in the syzygy block, shifted to S^s."""
    r = M.target.rank
    return [{(m, p - r): c for (m, p), c in v.items()} for v in column_module(M).basis
            if all(p >= r for (_, p) in v)]


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["rnc4", "veronese"])
def test_minimal_subset_matches_reference_on_syzygy_vectors(name, characteristic):
    res = minimal_resolution(generic(name, Field(characteristic)))
    ring = res.ring
    for q in range(1, res.length + 1):
        d = res.differential(q)
        vectors = syzygy_part(d)
        twists = d.source.twists
        got = minimal_generating_subset(vectors, ring, twists)
        assert got == reference_subset(vectors, ring, twists)
        assert len(got) == res.module(q + 1).rank


def assert_recorded_syzygies_are_minimal(M):
    """The syzygies recorded by M's column module lie in ker M, generate
    the Groebner basis of ker M that the same pass returns, and are as
    many as a minimal generating subset of it; returns their count."""
    ring = M.ring
    twists = M.source.twists
    syz = column_module(M).syzygies
    source = GradedFreeModule([vector_degree(v, ring, twists) for v in syz])
    assert M.compose(GradedMatrix(ring, source, M.source, syz)).is_zero()
    key = top_key(ring)
    gb = module_groebner(syz, ring, twists, key)
    part = syzygy_part(M)
    assert all(not reduce_vector(v, gb, lead_terms(gb, key), key, ring) for v in part)
    assert len(syz) == len(minimal_generating_subset(part, ring, twists))
    return len(syz)


def weighted_ideal(field):
    """Three seeded forms of weighted degree 3, 4 and 4 on weights (1, 1, 2, 3)."""
    ring = PolyRing(field, ("x", "y", "z", "w"), (1, 1, 2, 3))
    rng = random.Random(11)
    gens = []
    for d in (3, 4, 4):
        monos = rng.sample(ring.monomials_of_degree(d), 3)
        gens.append(Polynomial(ring, {m: field.of(rng.randint(1, 5)) for m in monos}))
    return Ideal(ring, gens)


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", ["rnc4", "veronese", "rnc5", "weighted"])
def test_recorded_syzygies_are_minimal_on_resolutions(name, characteristic):
    field = Field(characteristic)
    res = minimal_resolution(weighted_ideal(field) if name == "weighted" else generic(name, field))
    for q in range(1, res.length + 1):
        assert assert_recorded_syzygies_are_minimal(res.differential(q)) == res.module(q + 1).rank


def random_matrix(rng, field):
    """A small homogeneous matrix: random forms, zero entries and columns,
    and scaled copies of earlier columns, so that some inputs reduce to
    syzygies on entry."""
    weights = rng.choice([(1, 1, 1), (1, 1, 2)])
    ring = PolyRing(field, ("x", "y", "z"), weights)
    target = GradedFreeModule(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))

    def vector(degree):
        v = {}
        for i, t in enumerate(target.twists):
            monos = ring.monomials_of_degree(degree - t)
            if monos and rng.random() < 0.75:
                for m in rng.sample(monos, min(2, len(monos))):
                    v[m, i] = field.of(rng.randint(-3, 3))
        return v

    twists, columns = [], []
    for _ in range(rng.randint(1, 5)):
        degree = rng.randint(1, 3)
        col = vector(degree)
        same = [c for c, t in zip(columns, twists) if t == degree]
        if same and rng.random() < 0.3:
            col = {k: rng.randint(1, 3) * x for k, x in rng.choice(same).items()}
        twists.append(degree)
        columns.append(col)
    return GradedMatrix(ring, GradedFreeModule(twists), target, columns)


@pytest.mark.parametrize("characteristic", [0, 7, 32003], ids=["QQ", "GF7", "GF32003"])
def test_recorded_syzygies_are_minimal_on_random_matrices(characteristic):
    rng = random.Random(f"recorded-syzygies/{characteristic}")
    counts = [assert_recorded_syzygies_are_minimal(random_matrix(rng, Field(characteristic)))
              for _ in range(60)]
    assert sum(counts) > 60


def assert_pass_basis_contract(M, rng):
    """The basis of M's column module, as its pass leaves it, is a minimal
    Groebner basis, and solving against it or its interreduction agrees."""
    ring = M.ring
    module = ColumnModule(M)
    basis, leads, key = module.basis, module.leads, module.key
    for i, ((mi, pi), _) in enumerate(leads):
        for j, ((mj, pj), _) in enumerate(leads):
            if i != j and pi == pj:
                assert not ring.mono_divides(mi, mj)
                s = _spoly(basis[i], basis[j], leads[i], leads[j], ring)
                assert not reduce_vector(s, basis, leads, key, ring)
    # a combination of the columns in one degree, then a random target vector there
    target = M.target.twists
    degree = max(target + M.source.twists) + 1
    image = {}
    for t, col in zip(M.source.twists, M.columns):
        for q in rng.sample(ring.monomials_of_degree(degree - t), 1 if degree > t else 0):
            c = ring.field.of(rng.randint(1, 5))
            for (m, p), a in col.items():
                k = (ring.mono_mul(q, m), p)
                image[k] = image.get(k, 0) + c * a
    other = {(m, p): ring.field.of(rng.randint(-3, 3)) for p, t in enumerate(target)
             for m in ring.monomials_of_degree(degree - t)[:2]}
    us = [*M.columns, *(canonical(v, ring.field.characteristic) for v in (image, other))]
    want = [module.solve(u) for u in us]
    module.basis = _interreduce(basis, key, ring)
    module.leads = lead_terms(module.basis, key)
    assert [module.solve(u) for u in us] == want
    return sum(x is not None for x in want)


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
def test_pass_basis_is_a_minimal_groebner_basis(characteristic):
    """The basis a pass returns, not interreduced, is a minimal Groebner basis
    and solves as its interreduction does: on the differentials of catalog
    ideals in generic coordinates, one on a weighted ring, and on seeded
    random matrices."""
    field = Field(characteristic)
    rng = random.Random(f"pass-basis/{characteristic}")
    ideals = [generic(name, field) for name in ("rnc4", "veronese")] + [weighted_ideal(field)]
    matrices = [d for I in ideals for d in minimal_resolution(I).differentials]
    matrices += [random_matrix(rng, field) for _ in range(40)]
    solved = [assert_pass_basis_contract(M, rng) for M in matrices]
    assert sum(solved) > len(matrices)


@pytest.mark.parametrize("characteristic", [0, 32003], ids=["QQ", "GF32003"])
def test_minimal_resolution_runs_one_pass_per_differential(monkeypatch, characteristic):
    calls = count_engine_calls(monkeypatch)
    ideal = generic("rnc4", Field(characteristic))
    clear_caches()
    res = minimal_resolution(ideal)
    # the ideal's basis, then one column module per differential
    assert len(calls) == res.length + 1


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


def count_engine_calls(monkeypatch):
    """A list that grows by one for each `module_groebner` call."""
    calls = []
    engine = groebner.module_groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    # patch every namespace that binds the engine, as the tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("pgshell") and getattr(module, "module_groebner", None) is engine:
            monkeypatch.setattr(module, "module_groebner", counted)
    return calls


def test_minimal_generators_reuse_the_groebner_pass(monkeypatch, twisted_cubic, zvars):
    calls = count_engine_calls(monkeypatch)
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
