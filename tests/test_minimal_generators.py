"""Differential tests: the one-pass minimal generating subset against the
greedy loop that re-runs Buchberger after every kept vector, and the
minimal generators of an ideal read from its one Groebner pass."""

import random
import sys

import pytest

from pgshell import (
    Field,
    Ideal,
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
from pgshell.groebner import (
    lead_terms,
    module_groebner,
    poly_to_vector,
    reduce_vector,
    top_key,
    vector_degree,
)
from pgshell.resolution import column_module, minimal_generating_subset

from conftest import random_invertible


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
        extra.append(g.mul_term(ring.variable_mono(rng.randrange(ring.num_vars)), ring.field.one))
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
