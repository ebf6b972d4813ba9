import pytest

from pgshell import (
    Field,
    Ideal,
    Polynomial,
    SplitMix64,
    betti,
    clear_caches,
    complete_intersection,
    determinantal_minors,
    groebner_basis,
    invariants,
    lead_term_series,
    minimal_resolution,
    points_on_rational_normal_curve,
    rational_normal_curve,
    standard_ring,
)
from pgshell import catalog
from pgshell.catalog import build_catalog_entry, hyperplane
from pgshell.errors import CatalogError


def test_splitmix64_reference_stream():
    # published test vector for seed 1234567
    sm = SplitMix64(1234567)
    assert sm.next() == 6457827717110365317
    assert sm.next() == 3203168211198807973


def test_splitmix64_coefficient_range():
    sm = SplitMix64(99)
    values = {sm.small_coeff() for _ in range(2000)}
    assert values == {-5, -4, -3, -2, -1, 1, 2, 3, 4, 5}


def test_rnc3_is_twisted_cubic(twisted_cubic):
    entry = rational_normal_curve(3)
    moved = Ideal(twisted_cubic.ring, list(twisted_cubic.generators))
    from pgshell import same_ideal

    assert entry.ring == twisted_cubic.ring
    assert same_ideal(entry.ideal, moved)


def test_rnc2_conic():
    entry = rational_normal_curve(2)
    assert entry.ring.num_vars == 3
    assert len(entry.ideal.generators) == 1
    assert entry.ideal.generators[0].homogeneous_degree() == 2


def test_rnc4_betti():
    entry = rational_normal_curve(4)
    assert len(entry.ideal.generators) == 6
    assert betti(minimal_resolution(entry.ideal)).entries == {
        (0, 0): 1,
        (1, 2): 6,
        (2, 3): 8,
        (3, 4): 3,
    }


def test_rnc_family_invariants():
    for d in (2, 3, 4, 5):
        entry = rational_normal_curve(d)
        inv = invariants(entry.ideal)
        assert inv.is_2linear
        assert inv.delta_genus == 0
        assert inv.depth == 2
        assert inv.degree == d and inv.dim == 1


def test_rnc_betti_closed_form():
    # determinantal curves of minimal degree have the classical shape
    # beta_{q, q+1} = q * C(d, q+1)
    from math import comb

    for d in (3, 4, 5):
        bt = betti(minimal_resolution(rational_normal_curve(d).ideal))
        expected = {(0, 0): 1}
        for q in range(1, d):
            expected[(q, q + 1)] = q * comb(d, q + 1)
        assert bt.entries == expected, d


def test_catalog_expected_records_reproduced(
    rnc4_entry, veronese_entry, scroll_entry, points5_entry, ci23
):
    for entry in (rnc4_entry, veronese_entry, scroll_entry, points5_entry, ci23):
        inv = invariants(entry.ideal).to_json()
        for key, want in entry.expected.items():
            if key == "betti_totals":
                bt = betti(minimal_resolution(entry.ideal))
                got = tuple(bt.total(q) for q in range(bt.max_q() + 1))
            else:
                got = inv[key]
            assert got == want, (entry.name, key)


def test_determinantal_veronese(veronese_entry):
    assert len(veronese_entry.ideal.generators) == 6
    assert betti(minimal_resolution(veronese_entry.ideal)).entries == {
        (0, 0): 1,
        (1, 2): 6,
        (2, 3): 8,
        (3, 4): 3,
    }


def test_determinantal_scroll(scroll_entry):
    inv = invariants(scroll_entry.ideal)
    assert (inv.dim, inv.degree) == (2, 3)
    assert inv.is_2linear
    assert len(scroll_entry.ideal.generators) == 3


def test_determinantal_conic_cone():
    ring = standard_ring(3)
    z = [Polynomial.variable(ring, i) for i in range(3)]
    entry = determinantal_minors([[z[0], z[1]], [z[1], z[2]]], 2, ring)
    assert len(entry.ideal.generators) == 1
    assert entry.ideal.generators[0] == z[0] * z[2] - z[1] * z[1]


def test_complete_intersection_reproducible():
    a = complete_intersection([2, 3], seed=1)
    b = complete_intersection([2, 3], seed=1)
    assert a.ideal == b.ideal
    c = complete_intersection([2, 3], seed=2)
    assert c.ideal != a.ideal


def test_complete_intersection_hyperplane_and_triple():
    h = complete_intersection([1], seed=1)
    assert invariants(h.ideal).is_complete_intersection
    triple = complete_intersection([2, 2, 2], seed=1, num_vars=6)
    inv = invariants(triple.ideal)
    assert inv.is_complete_intersection
    assert inv.codim == 3
    assert inv.degree == 8
    assert inv.delta_genus == 2 + 8 - 6


def test_complete_intersection_bad_params():
    with pytest.raises(CatalogError):
        complete_intersection([])
    with pytest.raises(CatalogError):
        complete_intersection([2, 2, 2, 2], num_vars=4)


def test_complete_intersection_check_resolves_nothing():
    # the regular-sequence check reads the codimension off the Hilbert
    # series of the lead terms, not off a minimal resolution
    misses = minimal_resolution.cache_info().misses
    complete_intersection([2, 2, 2, 2], seed=1)
    assert minimal_resolution.cache_info().misses == misses


def test_complete_intersection_rejects_a_dependent_sequence():
    # over GF(7) the three linear forms of seed 21 are linearly dependent
    msg = r"seed 21 did not give a regular sequence \(codim 2 != 3\)"
    with pytest.raises(CatalogError, match=msg):
        complete_intersection([1, 1, 1], seed=21, field=Field(7))


@pytest.mark.parametrize("bad", [0, -1])
def test_complete_intersection_rejects_degree_below_one(bad):
    # a degree-0 form is a unit and no form has negative degree
    with pytest.raises(CatalogError, match=f"got {bad}$"):
        complete_intersection([2, bad])


@pytest.mark.parametrize("d,count,bad", [
    (0, 1, "curve degree must be at least 1, got 0"),
    (-2, 3, "curve degree must be at least 1, got -2"),
    (3, 0, "point count must be at least 1, got 0"),
    (3, -1, "point count must be at least 1, got -1"),
])
def test_points_on_rnc_rejects_parameters_below_one(d, count, bad):
    # d = 0 gave the zero ideal of one point in P^0; count = 0 an unsaturated ideal
    with pytest.raises(CatalogError, match=f"^{bad}$"):
        points_on_rational_normal_curve(d, count)


@pytest.mark.parametrize("num_vars", [1, 0, -1])
def test_hyperplane_rejects_fewer_than_two_variables(num_vars):
    # (z0) in QQ[z0] is the empty scheme, of degree 0, not a hyperplane of degree 1
    with pytest.raises(CatalogError, match=f"^variable count must be at least 2, got {num_vars}$"):
        hyperplane(num_vars)


def test_points_entry(points5_entry):
    inv = invariants(points5_entry.ideal)
    assert (inv.dim, inv.degree, inv.depth) == (0, 5, 1)
    assert inv.is_ACM and inv.nondegenerate


def test_points_check_resolves_nothing():
    # the ideal is checked against the points' Hilbert function on the
    # lead-term series of its Groebner basis, not off a minimal resolution
    clear_caches()
    points_on_rational_normal_curve(3, 5)
    assert minimal_resolution.cache_info().misses == 0


@pytest.mark.parametrize("characteristic", [0, 32003])
@pytest.mark.parametrize("d, count, num_gens", [(4, 9, 10), (5, 9, 12), (5, 10, 11)])
def test_points_with_no_regular_variable_finish(d, count, num_gens, characteristic):
    # no variable is regular on these points, which made the old
    # saturation check resolve the ideal
    entry = points_on_rational_normal_curve(d, count, field=Field(characteristic))
    assert len(entry.ideal.generators) == num_gens
    assert lead_term_series(groebner_basis(entry.ideal)).dimension_degree() == (0, count)


# (d, count, index of the generator dropped): without the last quadric of
# 5 points the degree becomes 6, while without the third quadric of 6
# points it stays 6, and only the values in degree 2 differ
@pytest.mark.parametrize("d, count, dropped", [(3, 5, 4), (4, 6, 2)])
def test_points_check_catches_a_missing_generator(monkeypatch, d, count, dropped):
    # without one minimal generator the ideal is smaller than I_X, so its
    # quotient is larger in that generator's degree
    keep = catalog.minimal_generators
    monkeypatch.setattr(catalog, "minimal_generators",
                        lambda I: [g for i, g in enumerate(keep(I)) if i != dropped])
    try:
        with pytest.raises(CatalogError, match="Hilbert function of the points"):
            points_on_rational_normal_curve(d, count)
    finally:
        clear_caches()


def test_points_check_catches_an_unsaturated_ideal(monkeypatch):
    # S_+ I_X has the Hilbert polynomial of I_X, but not its values
    keep = catalog.minimal_generators

    def times_variables(I):
        z = [Polynomial.variable(I.ring, i) for i in range(I.ring.num_vars)]
        return [g * x for g in keep(I) for x in z]

    monkeypatch.setattr(catalog, "minimal_generators", times_variables)
    try:
        with pytest.raises(CatalogError, match="Hilbert function of the points"):
            points_on_rational_normal_curve(3, 5)
    finally:
        clear_caches()


def test_points_need_distinct_params():
    with pytest.raises(CatalogError):
        points_on_rational_normal_curve(3, 2, params=[(1, 0), (1, 0)])


def test_build_catalog_entry_registry():
    entry = build_catalog_entry("rnc", ["3"])
    assert entry.name == "rnc3"
    entry = build_catalog_entry("ci", ["2", "3"], seed=1)
    assert entry.name == "ci-2-3-seed1"
    with pytest.raises(CatalogError):
        build_catalog_entry("nope", [])


@pytest.mark.parametrize("name, args, takes", [
    ("rnc", ["3", "4"], "1 parameter"),
    ("veronese", ["5"], "no parameters"),
    ("ci", [], "at least 1 parameter"),
    ("points-rnc", ["3"], "2 parameters"),
    ("hyperplane", ["3", "4"], "at most 1 parameter"),
])
def test_build_catalog_entry_checks_the_parameter_count(name, args, takes):
    with pytest.raises(CatalogError, match=f"catalog entry '{name}' takes {takes}.*, got {len(args)}$"):
        build_catalog_entry(name, args)


def test_points_without_params_name_the_default_limit():
    with pytest.raises(CatalogError, match="at most 10 points"):
        points_on_rational_normal_curve(3, 11)
    # explicit pairs lift the limit
    params = [(1, k) for k in range(11)]
    assert points_on_rational_normal_curve(1, 11, params=params).ideal.generators
