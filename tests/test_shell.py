import contextlib
import io

import pytest

from pgshell import (
    Ideal,
    Polynomial,
    PolyRing,
    QQ,
    Field,
    betti,
    check_containment,
    ci_chain_report,
    clear_caches,
    complete_intersection,
    criteria_suite,
    groebner_basis,
    invariants,
    lift_chain_map,
    minimal_resolution,
    pgshell_check,
    pgshell_check_oracle,
    pgshell_report,
    rational_normal_curve,
    tensor_resolution,
)
import pgshell.criteria as criteria_module
import pgshell.shell as shell_module
from pgshell.cli import EXIT_INTERNAL, run_command
from pgshell.criteria import ideal_power_plus
from pgshell.errors import (
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    WeightedRingError,
)
from pgshell.koszul import TorComparison, lyubeznik_degrees
from pgshell.resolution import ColumnModule, column_module, verify_complex
from pgshell.shell import NOT_PG_SHELL, PG_SHELL

from conftest import dense_rank
from test_cli import CORPUS_SRC


@pytest.fixture(scope="module")
def corpus_pairs(R4, zvars, twisted_cubic, tc_quadrics, ci23, veronese_entry,
                 scroll_entry, points5_entry, tensor_pair):
    """(name, V, W) triples used for the method-agreement property."""
    z = zvars
    q1, q2, q3 = tc_quadrics
    ci = ci23.ideal
    f2 = min(ci.generators, key=lambda g: g.homogeneous_degree())
    f3 = max(ci.generators, key=lambda g: g.homogeneous_degree())
    y, lin = tensor_pair
    sum_ideal = Ideal(y.ring, y.generators + lin.generators)
    ver = veronese_entry.ideal
    scr = scroll_entry.ideal
    pts = points5_entry.ideal
    return [
        ("tc/q1", twisted_cubic, Ideal(R4, [q1])),
        ("tc/q2", twisted_cubic, Ideal(R4, [q2])),
        ("tc/q3", twisted_cubic, Ideal(R4, [q3])),
        ("tc/identity", twisted_cubic, twisted_cubic),
        ("tc/ambient", twisted_cubic, Ideal(R4, [])),
        ("tc/z3q1-negative", twisted_cubic, Ideal(R4, [z[3] * q1])),
        ("tc/two-quadrics", twisted_cubic, Ideal(R4, [q1, q2])),
        ("ci/f2", ci, Ideal(ci.ring, [f2])),
        ("ci/f3", ci, Ideal(ci.ring, [f3])),
        ("points/tc", pts, twisted_cubic),
        ("points/q1", pts, Ideal(R4, [q1])),
        ("sum/cone", sum_ideal, y),
        ("sum/linear", sum_ideal, lin),
        ("veronese/one-quadric", ver, Ideal(ver.ring, [ver.generators[0]])),
        ("scroll/one-quadric", scr, Ideal(scr.ring, [scr.generators[0]])),
    ]


def test_lift_and_verification_reuse_column_modules(monkeypatch, scroll_entry):
    V = scroll_entry.ideal
    W = Ideal(V.ring, V.generators[:2])
    res_v = minimal_resolution(V)
    res_w = minimal_resolution(W)
    built = []
    init = ColumnModule.__init__
    monkeypatch.setattr(ColumnModule, "__init__", lambda self, M: built.append(M) or init(self, M))
    misses = column_module.cache_info().misses
    lift_chain_map(res_w, res_v)
    assert verify_complex(minimal_resolution(V)).ok
    assert column_module.cache_info().misses == misses
    assert not built


def test_check_containment(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    q1 = tc_quadrics[0]
    assert check_containment(twisted_cubic, Ideal(R4, [q1]))
    assert not check_containment(Ideal(R4, [q1]), twisted_cubic)
    assert check_containment(twisted_cubic, Ideal(R4, [z[3] * q1]))


def test_lift_chain_map_quadric(R4, twisted_cubic, tc_quadrics):
    w = Ideal(R4, [tc_quadrics[0]])
    cm = lift_chain_map(minimal_resolution(w), minimal_resolution(twisted_cubic))
    phi1 = cm.map(1)
    assert phi1.source.twists == (2,) and phi1.target.twists == (2, 2, 2)
    consts = [phi1.columns[0].get((R4.one_mono, i), 0) for i in range(phi1.target.rank)]
    assert sum(1 for c in consts if c != 0) >= 1
    # the reduction mod S_+ of a minimal-generator inclusion has full rank 1
    assert dense_rank([[c] for c in consts], QQ) == 1


def test_lift_chain_map_identity(twisted_cubic):
    res = minimal_resolution(twisted_cubic)
    cm = lift_chain_map(res, res)
    for q in range(res.length + 1):
        phi = cm.map(q)
        one = phi.ring.one_mono
        for i in range(phi.target.rank):
            for j in range(phi.source.rank):
                field_val = phi.columns[j].get((one, i), 0)
                if i == j:
                    assert field_val != 0
    # mod S_+ the identity lift is invertible in every degree, so the
    # report is the trivial positive one
    rep = pgshell_check(twisted_cubic, twisted_cubic)
    assert rep.verdict == PG_SHELL


def test_lift_chain_map_from_ambient(R4, twisted_cubic):
    ambient = Ideal(R4, [])
    cm = lift_chain_map(minimal_resolution(ambient), minimal_resolution(twisted_cubic))
    assert cm.map(1).source.rank == 0


def test_lift_requires_containment(R4, twisted_cubic, tc_quadrics):
    w = Ideal(R4, [tc_quadrics[0]])
    with pytest.raises(ContainmentError):
        lift_chain_map(minimal_resolution(twisted_cubic), minimal_resolution(w))


def test_pgshell_positive_examples(R4, twisted_cubic, tc_quadrics):
    rep = pgshell_check(twisted_cubic, Ideal(R4, [tc_quadrics[0]]))
    assert rep.verdict == PG_SHELL
    assert rep.table[(1, 2)]["tor_W"] == 1
    assert rep.witness is None


def test_pgshell_negative_example(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    w = Ideal(R4, [z[3] * tc_quadrics[0]])
    for rep in (pgshell_check(twisted_cubic, w), pgshell_check_oracle(twisted_cubic, w)):
        assert rep.verdict == NOT_PG_SHELL
        assert not rep.table[(1, 3)]["injective"]
        assert rep.witness is not None
        assert (rep.witness["q"], rep.witness["m"]) == (1, 3)
        assert rep.witness["cycle"]


def test_pgshell_containment_error(R4, twisted_cubic, tc_quadrics):
    with pytest.raises(ContainmentError):
        pgshell_check(Ideal(R4, [tc_quadrics[0]]), twisted_cubic)


def test_pgshell_rejects_unit_ideal(R4, zvars, twisted_cubic):
    # homogeneous: a constant generator; inhomogeneous: the Groebner basis
    one = Polynomial.constant(R4, 1)
    for unit in (Ideal(R4, [one]),
                 Ideal(R4, [zvars[0] - one, zvars[0]], allow_inhomogeneous=True)):
        with pytest.raises(PreconditionError, match="ideal V is the unit ideal"):
            pgshell_check(unit, twisted_cubic)


def test_method_agreement_on_corpus(corpus_pairs, monkeypatch):
    for name, v, w in corpus_pairs:
        chain = pgshell_check(v, w, oracle_spot=False)
        oracle = pgshell_check_oracle(v, w)
        assert chain.verdict == oracle.verdict, name
        assert chain.table == oracle.table, name
        assert chain.witness == oracle.witness, name
        # the same table and witness without the cut by trailing variables
        with monkeypatch.context() as mp:
            mp.setattr(shell_module, "artinian_reduction", lambda *ideals: (0, ideals))
            uncut = pgshell_check_oracle(v, w)
        assert (uncut.table, uncut.witness) == (oracle.table, oracle.witness), name


def test_oracle_walks_no_subset_past_the_number_of_variables():
    # every subset of the 21 lead monomials of (x, y)^20 is L-admissible; the
    # cut pair lives in k[x, y], so the oracle reads q <= 2 only, not 2^21 subsets
    ring = PolyRing(QQ, ("x", "y", "z"))
    d = 20
    w = Ideal(ring, [Polynomial.from_term(ring, (i, d - i, 0), QQ.one) for i in range(d + 1)])
    v = Ideal(ring, [Polynomial.variable(ring, 0), Polynomial.variable(ring, 1)])
    c, (_, cut_w) = shell_module.artinian_reduction(v, w)
    assert (c, cut_w.ring.num_vars) == (1, 2)
    assert lyubeznik_degrees(cut_w, 2) == tuple(range(d + 1, 2 * d + 1))
    assert lyubeznik_degrees(cut_w, 3) == ()
    oracle = pgshell_check_oracle(v, w)
    chain = pgshell_check(v, w, oracle_spot=False)
    assert oracle.verdict == chain.verdict == NOT_PG_SHELL
    assert (oracle.table, oracle.witness) == (chain.table, chain.witness)


def test_chain_route_and_invariants_resolve_only_cut_ideals(monkeypatch, twisted_cubic,
                                                           tc_quadrics, rnc4_entry):
    # every resolution the chain route and invariants make lives in the
    # ring of the Artinian reduction, N + 1 - c variables or fewer
    import pgshell.resolution as resolution_module

    ci222 = complete_intersection([2, 2, 2], seed=1, field=Field(32003)).ideal
    rnc4 = rnc4_entry.ideal
    pairs = [(twisted_cubic, Ideal(twisted_cubic.ring, [tc_quadrics[0]])),
             (rnc4, Ideal(rnc4.ring, rnc4.generators[:2])),
             (ci222, Ideal(ci222.ring, ci222.generators[:2]))]
    resolved = []
    real = resolution_module.minimal_resolution

    def recorded(I):
        resolved.append(I.ring.num_vars)
        return real(I)

    for module in (criteria_module, resolution_module):
        monkeypatch.setattr(module, "minimal_resolution", recorded)
    for V, W in pairs:
        c = shell_module.artinian_reduction(V, W)[0]
        assert c >= 1
        resolved.clear()
        pgshell_check(V, W)
        assert resolved and max(resolved) == V.ring.num_vars - c, resolved
        for I in (V, W):
            resolved.clear()
            invariants.__wrapped__(I)
            assert resolved == [I.ring.num_vars - shell_module.artinian_reduction(I)[0]]


def test_pgshell_report_both(twisted_cubic, tc_quadrics):
    rep = pgshell_report(twisted_cubic, Ideal(twisted_cubic.ring, [tc_quadrics[0]]), "both")
    assert rep.method == "both" and rep.verdict == PG_SHELL


def _alter_oracle_cell(monkeypatch, cell, **change):
    """Make the oracle report `change` at `cell` = (q, m) and the truth elsewhere."""
    real = shell_module.tor_comparison

    def altered(I_V, I_W, q, m):
        comp = real(I_V, I_W, q, m)
        if (q, m) != cell:
            return comp
        fields = {name: getattr(comp, name) for name in TorComparison.__slots__}
        return TorComparison(**{**fields, **change})

    monkeypatch.setattr(shell_module, "tor_comparison", altered)


def test_spot_check_compares_target_dim(monkeypatch, R4, twisted_cubic, tc_quadrics):
    # Tor_1(S/I_V)_2 has dimension 3; only that number is wrong
    _alter_oracle_cell(monkeypatch, (1, 2), dim_target=2)
    with pytest.raises(InternalCheckError, match=r"\(q=1, m=2\)"):
        pgshell_check(twisted_cubic, Ideal(R4, [tc_quadrics[0]]))


def test_failing_cell_is_checked_without_spot_check(monkeypatch, R4, zvars, twisted_cubic,
                                                     tc_quadrics):
    _alter_oracle_cell(monkeypatch, (1, 3), injective=True, witness=None)
    with pytest.raises(InternalCheckError, match=r"\(q=1, m=3\)"):
        pgshell_check(twisted_cubic, Ideal(R4, [zvars[3] * tc_quadrics[0]]), oracle_spot=False)


def test_both_compares_every_cell(monkeypatch, points5_entry, twisted_cubic):
    # five points on the twisted cubic: a positive pair, and (2, 3) is no
    # spot cell, so only the oracle route sees the change
    v = points5_entry.ideal
    _alter_oracle_cell(monkeypatch, (2, 3), dim_target=4)
    assert pgshell_report(v, twisted_cubic, "chain").is_shell
    with pytest.raises(InternalCheckError, match="table"):
        pgshell_report(v, twisted_cubic, "both")


def test_oracle_compares_the_full_witness_cell_with_the_cut_cell(monkeypatch, rnc4_entry):
    # rnc 4 and its first two quadrics are cut by z4; their first
    # non-injective cell (2, 4) is recomputed on the full pair, here wrongly
    V = rnc4_entry.ideal
    real = shell_module.tor_comparison

    def altered(I_V, I_W, q, m):
        comp = real(I_V, I_W, q, m)
        if I_V.ring != V.ring:
            return comp
        fields = {name: getattr(comp, name) for name in TorComparison.__slots__}
        return TorComparison(**{**fields, "dim_target": comp.dim_target + 1})

    monkeypatch.setattr(shell_module, "tor_comparison", altered)
    with pytest.raises(InternalCheckError, match=r"\(c = 1\) disagrees .* \(q=2, m=4\)"):
        pgshell_check_oracle(V, Ideal(V.ring, V.generators[:2]))


def test_cli_exits_3_on_an_oracle_disagreement(monkeypatch, tmp_path):
    path = tmp_path / "corpus.ideal"
    path.write_text(CORPUS_SRC)
    _alter_oracle_cell(monkeypatch, (1, 2), dim_target=2)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(["pgshell", str(path), "V", "W"], out=io.StringIO())
    assert code == EXIT_INTERNAL
    assert err.getvalue().startswith("internal check failure:")


def test_invariants_twisted_cubic(twisted_cubic):
    inv = invariants(twisted_cubic)
    assert (inv.dim, inv.degree, inv.codim) == (1, 3, 2)
    assert not inv.is_complete_intersection
    assert inv.is_2linear and inv.is_ACM
    assert inv.delta_genus == 0
    assert inv.num_min_gens == {2: 3}


def test_invariants_ci(ci23):
    inv = invariants(ci23.ideal)
    assert inv.is_complete_intersection
    assert not inv.is_2linear
    assert inv.delta_genus == 1 + 6 - 4
    assert inv.reg_R == 3


def test_invariants_zero_ideal(R4):
    inv = invariants(Ideal(R4, []))
    assert (inv.dim, inv.codim, inv.degree) == (3, 0, 1)
    assert inv.is_complete_intersection  # vacuous: no generators needed
    assert inv.delta_genus == 0


def test_ci_chain_report(ci23, R4, zvars, twisted_cubic):
    rep = ci_chain_report(ci23.ideal)
    assert rep["degrees"] == [2, 3]
    assert rep["series_length"] == 1
    assert rep["koszul_certified"]
    hyper = Ideal(R4, [zvars[0]])
    assert ci_chain_report(hyper)["degrees"] == [1]
    with pytest.raises(PreconditionError):
        ci_chain_report(twisted_cubic)


def test_criteria_suite_tc_quadric(twisted_cubic, tc_quadrics):
    suite = criteria_suite(twisted_cubic, Ideal(twisted_cubic.ring, [tc_quadrics[0]]))
    assert suite["observed"] == PG_SHELL
    assert suite["all_consistent"]
    by_name = {r["criterion"]: r for r in suite["criteria"]}
    assert by_name["hypersurface-minimal-generator"]["applicable"]
    assert by_name["hypersurface-minimal-generator"]["predicted"] == PG_SHELL
    # a quadric hypersurface is itself 2-linear, so that criterion fires too
    assert by_name["two-linear-shell"]["applicable"]
    assert by_name["two-linear-shell"]["predicted"] == PG_SHELL
    assert by_name["depth-inequality"]["consistent"]
    assert by_name["regularity-inequality"]["consistent"]
    assert by_name["infinitesimal-neighborhood-m1"]["consistent"]
    assert by_name["infinitesimal-neighborhood-m2"]["consistent"]


def test_criteria_suite_ci_quadric_factor(ci23):
    ci = ci23.ideal
    f2 = min(ci.generators, key=lambda g: g.homogeneous_degree())
    suite = criteria_suite(ci, Ideal(ci.ring, [f2]))
    assert suite["observed"] == PG_SHELL
    assert suite["all_consistent"]
    by_name = {r["criterion"]: r for r in suite["criteria"]}
    assert by_name["complete-intersection-subset"]["applicable"]
    assert by_name["complete-intersection-subset"]["predicted"] == PG_SHELL
    assert by_name["regular-section-of-acm"]["applicable"]
    assert by_name["regular-section-of-acm"]["predicted"] == PG_SHELL


def test_regular_section_criterion_builds_no_basis_of_its_own():
    # I_W lies in I_V, so I_W plus the minimal generators of I_V outside
    # it is I_V, and the criterion compares no further ideal: the suite
    # builds the bases of V, of W and of V's cut only
    V = rational_normal_curve(4).ideal
    W = Ideal(V.ring, list(V.generators[-2:]))
    clear_caches()
    suite = criteria_suite(V, W)
    assert groebner_basis.cache_info().misses == 3
    by_name = {r["criterion"]: r for r in suite["criteria"]}
    assert not by_name["regular-section-of-acm"]["applicable"]


def test_criteria_suite_points_curve(points5_entry, twisted_cubic):
    suite = criteria_suite(points5_entry.ideal, twisted_cubic)
    assert suite["observed"] == PG_SHELL
    assert suite["all_consistent"]
    by_name = {r["criterion"]: r for r in suite["criteria"]}
    assert by_name["two-linear-shell"]["applicable"]
    assert by_name["two-linear-shell"]["predicted"] == PG_SHELL


def test_criteria_suite_negative_case(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    w = Ideal(R4, [z[3] * tc_quadrics[0]])
    suite = criteria_suite(twisted_cubic, w)
    assert suite["observed"] == NOT_PG_SHELL
    assert suite["all_consistent"]
    by_name = {r["criterion"]: r for r in suite["criteria"]}
    assert by_name["hypersurface-minimal-generator"]["predicted"] == NOT_PG_SHELL


def test_criteria_suite_rejects_weighted_ring_by_name():
    ring = PolyRing(QQ, ("a", "b", "c"), (1, 1, 2))
    a, b = Polynomial.variable(ring, 0), Polynomial.variable(ring, 1)
    with pytest.raises(WeightedRingError, match="criteria need a standard-graded ring"):
        criteria_suite(Ideal(ring, [a]), Ideal(ring, [a * b]))


def test_transitivity_to_intermediates(R4, twisted_cubic, tc_quadrics):
    q1, q2, _ = tc_quadrics
    w = Ideal(R4, [q1])
    mid = Ideal(R4, [q1, q2])
    assert pgshell_check(twisted_cubic, w).verdict == PG_SHELL
    # V inside Y inside W: the shell property passes to the intermediate
    assert pgshell_check(mid, w).verdict == PG_SHELL
    for order in (1, 2):
        neighborhood = ideal_power_plus(twisted_cubic, order + 1, w)
        assert pgshell_check(neighborhood, w, oracle_spot=False).verdict == PG_SHELL


def test_depth_and_regularity_inequalities_on_positive_pairs(corpus_pairs):
    for name, v, w in corpus_pairs:
        rep = pgshell_check(v, w, oracle_spot=False)
        if rep.verdict != PG_SHELL:
            continue
        inv_v = invariants(v)
        inv_w = invariants(w)
        assert inv_v.depth <= inv_w.depth, name
        if inv_v.depth >= 2:
            assert inv_v.reg_R >= inv_w.reg_R, name


def test_tensor_resolution_p5(tensor_pair):
    y, lin = tensor_pair
    res, report = tensor_resolution(y, lin)
    assert report["verify"].ok
    assert report["convolution_matches"]
    assert report["shell_Y"].verdict == PG_SHELL
    assert report["shell_Z"].verdict == PG_SHELL
    expected = betti(minimal_resolution(y)).convolve(betti(minimal_resolution(lin)))
    assert betti(res) == expected
    # independent route: the direct minimal resolution of the sum
    direct = minimal_resolution(report["sum_ideal"])
    assert betti(direct) == betti(res)


def test_tensor_resolution_unequal_factor_lengths(veronese_entry):
    # length-3 factor times length-1 factor: signs and block layout get
    # exercised off the square case
    ring = veronese_entry.ring
    z5 = Polynomial.variable(ring, 5)
    hyper = Ideal(ring, [z5])
    res, rep = tensor_resolution(veronese_entry.ideal, hyper)
    assert rep["verify"].ok
    assert betti(res) == betti(minimal_resolution(rep["sum_ideal"]))


def test_tensor_resolution_ci_case(R4, zvars):
    z = zvars
    f = z[0] * z[0] + z[1] * z[2]
    g = z[3] * z[3] * z[3] + z[0] * z[1] * z[2] + z[1] * z[1] * z[3]
    res, report = tensor_resolution(Ideal(R4, [f]), Ideal(R4, [g]))
    assert betti(res).entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}


def test_tensor_resolution_rejects_nonadditive_codim(R4, tc_quadrics):
    q1 = tc_quadrics[0]
    a = Ideal(R4, [q1])
    with pytest.raises(PreconditionError):
        tensor_resolution(a, a)


def test_source_resolution_longer_than_target(R4, zvars):
    # W = z0 * S_+ is unsaturated with projective dimension 4, while
    # V = (z0) has projective dimension 1: the comparison maps hit zero
    # modules and both routes must agree on the negative verdict
    z = zvars
    v = Ideal(R4, [z[0]])
    w = Ideal(R4, [z[0] * z[i] for i in range(4)])
    chain = pgshell_check(v, w, oracle_spot=False)
    oracle = pgshell_check_oracle(v, w)
    assert chain.verdict == NOT_PG_SHELL == oracle.verdict
    assert chain.table == oracle.table
    assert chain.table[(4, 5)]["tor_V"] == 0


def test_second_neighbourhood_reuses_the_resolution_of_w():
    # W = two quadrics of a CI (2, 2, 2): the top twist of W's resolution
    # is 4 and every generator of I_V^3 has degree 6, so the k = 2 check
    # lifts onto the resolution of I_W, which criteria has already made
    V = complete_intersection([2, 2, 2], seed=1, field=Field(32003)).ideal
    W = Ideal(V.ring, V.generators[:2])
    # the resolving calls of criteria_suite, without the k = 2 check
    clear_caches()
    pgshell_check(V, W, oracle_spot=True)
    invariants(V)
    invariants(W)
    pgshell_check(ideal_power_plus(V, 2, W), W, oracle_spot=False)
    without_k2 = minimal_resolution.cache_info().misses
    clear_caches()
    report = criteria_suite(V, W)
    assert report["observed"] == PG_SHELL and report["all_consistent"]
    assert [r["criterion"] for r in report["criteria"]][2:4] == [
        "infinitesimal-neighborhood-m1", "infinitesimal-neighborhood-m2"]
    assert minimal_resolution.cache_info().misses == without_k2


def test_second_neighbourhood_builds_no_groebner_basis():
    # containment holds generator by generator and I_V^3 + I_W is
    # homogeneous, so neither shell precondition needs its basis, and
    # the k = 2 check lifts onto the resolution of I_W
    V = complete_intersection([2, 2, 2], seed=1, field=Field(32003)).ideal
    W = Ideal(V.ring, V.generators[:2])
    clear_caches()
    report = criteria_suite(V, W)
    assert report["observed"] == PG_SHELL and report["all_consistent"]
    misses = groebner_basis.cache_info().misses
    groebner_basis(ideal_power_plus(V, 3, W))
    assert groebner_basis.cache_info().misses == misses + 1
