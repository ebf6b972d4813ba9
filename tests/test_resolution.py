import io

import pytest

from pgshell import (
    Field,
    GradedFreeModule,
    GradedMatrix,
    Ideal,
    Polynomial,
    PolyRing,
    QQ,
    artinian_reduction,
    betti,
    betti_table,
    clear_caches,
    invariants,
    is_saturated,
    koszul_tor,
    minimal_resolution,
    pgshell_check,
    regularity_and_depth,
    render_source,
    standard_ring,
    syzygies,
    verify_complex,
)
import pgshell.hilbert as hilbert_module
import pgshell.resolution as resolution_module
from pgshell.cli import EXIT_INTERNAL, run_command
from pgshell.errors import (
    EngineError,
    InternalCheckError,
    NotHomogeneousError,
    RingMismatchError,
    WeightedRingError,
)
from pgshell.groebner import vector_component
from pgshell.resolution import BettiTable, FreeResolution

from conftest import dense_matrix, dense_rank


def column(M, j):
    """Column j of M as a list of polynomials, one per target row."""
    return [vector_component(M.columns[j], i, M.ring) for i in range(M.target.rank)]


def test_syzygies_twisted_cubic(R4, twisted_cubic):
    res = minimal_resolution(twisted_cubic)
    d1 = res.differential(1)
    syz = syzygies(d1)
    assert syz.target.rank == 3 and syz.source.rank == 2
    assert syz.source.twists == (3, 3)  # two linear syzygies
    assert d1.compose(syz).is_zero()
    # rank check against the independent Koszul computation
    assert koszul_tor(twisted_cubic, 2, 3).dimension == 2


def test_syzygies_single_nonzerodivisor(R4, zvars):
    z = zvars
    f0 = GradedFreeModule((0,))
    f1 = GradedFreeModule((2,))
    m = dense_matrix(R4, f1, f0, [[z[0] * z[1] - z[2] * z[3]]])
    assert syzygies(m).source.rank == 0


def test_syzygies_koszul_pair(R4, zvars):
    z = zvars
    f, g = z[0], z[1] * z[1]
    m = dense_matrix(R4, GradedFreeModule((1, 2)), GradedFreeModule((0,)), [[f, g]])
    syz = syzygies(m)
    assert syz.source.rank == 1
    col = column(syz, 0)
    # the Koszul syzygy (g, -f) up to a scalar
    ratio = None
    for got, want in zip(col, [g, -f]):
        assert not got.is_zero()
        k = got.lead_coeff() / want.lead_coeff()
        assert got == want.scale(k)
        ratio = ratio or k
        assert k == ratio


def test_syzygies_match_dense_kernels_on_random_matrices():
    """Differential test: the syzygy module spans the kernel degreewise.

    For random graded matrices the span of the monomial multiples of
    the computed syzygy columns must equal the dense-linear-algebra
    kernel of every graded piece (three degrees past the column range).
    """
    import random

    from pgshell.linalg import RowSpace

    rng = random.Random(777)
    for trial in range(25):
        n = rng.randint(2, 4)
        ring = standard_ring(n)
        field = ring.field
        tgt_twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        src_twists = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        entries = []
        for i, ti in enumerate(tgt_twists):
            row = []
            for j, tj in enumerate(src_twists):
                d = tj - ti
                if d < 0 or rng.random() < 0.25:
                    row.append(Polynomial.zero(ring))
                else:
                    monos = ring.monomials_of_degree(d)
                    chosen = rng.sample(monos, min(3, len(monos)))
                    row.append(Polynomial(
                        ring, {m: field.of(rng.randint(-3, 3)) for m in chosen}
                    ))
            entries.append(row)
        m = dense_matrix(
            ring, GradedFreeModule(src_twists), GradedFreeModule(tgt_twists), entries
        )
        syz = syzygies(m)
        assert m.compose(syz).is_zero()

        def piece_layout(twists, d):
            layout = []
            off = 0
            for tw in twists:
                monos = ring.monomials_of_degree(d - tw)
                layout.append((off, monos, {mm: k for k, mm in enumerate(monos)}))
                off += len(monos)
            return layout, off

        def embed(col, d, layout, dim):
            vec = [field.zero] * dim
            for j, p in enumerate(col):
                if p.is_zero():
                    continue
                off, _, idx = layout[j]
                for mm, c in p.terms.items():
                    vec[off + idx[mm]] = field.add(vec[off + idx[mm]], c)
            return vec

        for d in range(max(src_twists), max(src_twists) + 3):
            src_layout, src_dim = piece_layout(src_twists, d)
            tgt_layout, tgt_dim = piece_layout(tgt_twists, d)
            rows = [[field.zero] * src_dim for _ in range(tgt_dim)]
            for j in range(len(src_twists)):
                off, monos, _ = src_layout[j]
                for k, mono in enumerate(monos):
                    image = [entries[i][j] * Polynomial.from_term(ring, mono, field.one)
                             for i in range(len(tgt_twists))]
                    vec = embed(image, d, tgt_layout, tgt_dim)
                    for r in range(tgt_dim):
                        rows[r][off + k] = vec[r]
            kernel_dim = src_dim - dense_rank(rows, field)
            span = RowSpace(src_dim, field)
            for jj in range(syz.source.rank):
                col = column(syz, jj)
                for mono in ring.monomials_of_degree(d - syz.source.twists[jj]):
                    shifted = [p * Polynomial.from_term(ring, mono, field.one) for p in col]
                    span.add(dict(enumerate(embed(shifted, d, src_layout, src_dim))))
            assert span.dim == kernel_dim, (trial, d)


@pytest.mark.parametrize("field, weights",
                         [(QQ, (1, 1, 1)), (Field(32003), (1, 1, 1)), (QQ, (1, 2, 3))],
                         ids=["qq", "gf", "qq-weighted"])
def test_column_module_solve_is_exact(field, weights):
    """For u = M x with rational x, `solve(u)` returns an x' with M x' = u
    exactly; u plus a constant, outside the image, gives None."""
    import random

    from pgshell.resolution import column_module

    rng = random.Random(f"solve/{field.characteristic}/{weights}")
    ring = PolyRing(field, ("x", "y", "z"), weights)

    def form(degree):
        monos = ring.monomials_of_degree(degree)
        return {m: field.of(rng.randint(-5, 5), rng.randint(1, 4))
                for m in rng.sample(monos, min(3, len(monos)))}

    def vector(twists, degree):
        return {(m, i): c for i, t in enumerate(twists) for m, c in form(degree - t).items()}

    solved = 0
    for _ in range(20):
        target = GradedFreeModule(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        source = GradedFreeModule(rng.randint(2, 3) for _ in range(rng.randint(1, 4)))
        M = GradedMatrix(ring, source, target, [vector(target.twists, s) for s in source.twists])
        d = max(source.twists) + rng.randint(0, 2)
        one = GradedFreeModule((d,))
        (u,) = M.compose(GradedMatrix(ring, one, source, [vector(source.twists, d)])).columns
        x = column_module(M).solve(u)
        assert x is not None
        assert M.compose(GradedMatrix(ring, one, source, [x])).columns == (u,)
        solved += bool(u)
        # every entry of M lies in S_+, so no constant vector is in the image
        assert column_module(M).solve({**u, (ring.one_mono, 0): field.one}) is None
    assert solved > 10


def test_minimal_resolution_shapes(twisted_cubic, ci23, rnc4_entry):
    res = minimal_resolution(twisted_cubic)
    assert [m.twists for m in res.modules] == [(0,), (2, 2, 2), (3, 3)]
    res_ci = minimal_resolution(ci23.ideal)
    assert [m.twists for m in res_ci.modules] == [(0,), (2, 3), (5,)]
    res4 = minimal_resolution(rnc4_entry.ideal)
    assert betti(res4).entries == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def test_betti_examples(twisted_cubic, ci23, veronese_entry):
    assert betti(minimal_resolution(twisted_cubic)).entries == {
        (0, 0): 1,
        (1, 2): 3,
        (2, 3): 2,
    }
    assert betti(minimal_resolution(ci23.ideal)).entries == {
        (0, 0): 1,
        (1, 2): 1,
        (1, 3): 1,
        (2, 5): 1,
    }
    assert betti(minimal_resolution(veronese_entry.ideal)).entries == {
        (0, 0): 1,
        (1, 2): 6,
        (2, 3): 8,
        (3, 4): 3,
    }


def test_resolution_length_bound(catalog_items):
    for name, ideal in catalog_items.items():
        res = minimal_resolution(ideal)
        assert res.length <= ideal.ring.num_vars, name


def test_resolution_deterministic(R4, tc_quadrics):
    a = minimal_resolution(Ideal(R4, list(tc_quadrics)))
    clear_caches()
    b = minimal_resolution(Ideal(R4, list(tc_quadrics)))
    assert [m.twists for m in a.modules] == [m.twists for m in b.modules]
    for q in range(1, a.length + 1):
        assert a.differential(q).columns == b.differential(q).columns


def test_regularity_and_depth(R4, twisted_cubic, ci23):
    bt = betti(minimal_resolution(twisted_cubic))
    assert regularity_and_depth(bt, R4) == (1, 2, 2, 2)
    bt_ci = betti(minimal_resolution(ci23.ideal))
    assert regularity_and_depth(bt_ci, ci23.ring) == (3, 4, 2, 2)
    bt_zero = betti(minimal_resolution(Ideal(R4, [])))
    assert regularity_and_depth(bt_zero, R4) == (0, 1, 0, 4)


def test_regularity_weighted_rejected():
    from pgshell import PolyRing

    ring = PolyRing(QQ, ("x", "y"), (1, 2))
    with pytest.raises(WeightedRingError):
        regularity_and_depth(BettiTable({(0, 0): 1}), ring)


def test_verify_complex_passes(twisted_cubic):
    report = verify_complex(minimal_resolution(twisted_cubic))
    assert report.ok, report.failed()


def test_verify_complex_negative_control_not_a_complex(R4, zvars):
    z = zvars
    f0 = GradedFreeModule((0,))
    f1 = GradedFreeModule((1, 1))
    f2 = GradedFreeModule((2,))
    d1 = dense_matrix(R4, f1, f0, [[z[0], z[1]]])
    d2 = dense_matrix(R4, f2, f1, [[z[1]], [z[0]]])  # d1 d2 = 2 z0 z1 != 0
    fake = FreeResolution(R4, [f0, f1, f2], [d1, d2], Ideal(R4, [z[0], z[1]]))
    report = verify_complex(fake)
    assert not report.ok
    assert any("composition" in c["name"] for c in report.failed())


def nonminimal_fake(R4, z):
    """S <- S(-1)^2 <- S(-1) with a unit entry: exact, not minimal."""
    one = Polynomial.constant(R4, 1)
    f0 = GradedFreeModule((0,))
    f1 = GradedFreeModule((1, 1))
    f2 = GradedFreeModule((1,))
    d1 = dense_matrix(R4, f1, f0, [[z[0], z[0]]])
    d2 = dense_matrix(R4, f2, f1, [[one], [-one]])
    return FreeResolution(R4, [f0, f1, f2], [d1, d2], Ideal(R4, [z[0]]))


def not_exact_fake(R4, z):
    """One Koszul relation of three: a complex with no unit entry, not
    exact at F_1."""
    f0 = GradedFreeModule((0,))
    f1 = GradedFreeModule((1, 1, 1))
    f2 = GradedFreeModule((2,))
    d1 = dense_matrix(R4, f1, f0, [[z[0], z[1], z[2]]])
    d2 = dense_matrix(R4, f2, f1, [[z[1]], [-z[0]], [Polynomial.zero(R4)]])
    return FreeResolution(R4, [f0, f1, f2], [d1, d2], Ideal(R4, [z[0], z[1], z[2]]))


def test_verify_complex_negative_control_nonminimal(R4, zvars):
    report = verify_complex(nonminimal_fake(R4, zvars))
    names_failed = {c["name"] for c in report.failed()}
    assert "minimality" in names_failed
    # acyclicity-side checks pass: it is a complex and exact
    assert all("composition" not in n for n in names_failed)
    assert all("exactness" not in n for n in names_failed)
    assert all("kernel" not in n for n in names_failed)


def test_verify_complex_negative_control_not_exact(R4, zvars):
    checks = {c["name"]: c["ok"] for c in verify_complex(not_exact_fake(R4, zvars)).checks}
    assert checks["composition d_1.d_2 = 0"]
    assert not checks["exactness at F_1"]
    assert checks["kernel of d_2 vanishes"]


def drop_last_syzygy(mp):
    """Mutant: every column module loses its last recorded syzygy."""
    engine = resolution_module.module_groebner

    def dropping(*args, **kwargs):
        basis = engine(*args, **kwargs)
        recorded = kwargs.get("syzygies", (0, []))[1]
        if recorded:
            recorded.pop()
        return basis

    mp.setattr(resolution_module, "module_groebner", dropping)


def test_verify_complex_exactness_catches_a_dropped_syzygy(monkeypatch, twisted_cubic):
    """Under the dropped-syzygy mutant, d_2 of the twisted cubic gets one
    column of two.  The exactness check reads ker d_1 off the column
    module's basis, which the mutant leaves whole, so it reports the
    missing syzygy."""
    clear_caches()
    try:
        with monkeypatch.context() as mp:
            drop_last_syzygy(mp)
            res = minimal_resolution(twisted_cubic)
            checks = {c["name"]: c["ok"] for c in verify_complex(res).checks}
    finally:
        # the mutant's resolutions must not outlive the test
        clear_caches()
    assert [m.rank for m in res.modules] == [1, 3, 1]
    assert checks["composition d_1.d_2 = 0"]
    assert checks["image of d_1 is the resolved ideal"]
    assert not checks["exactness at F_1"]
    assert checks["kernel of d_2 vanishes"]


def test_betti_table_catches_a_dropped_syzygy(monkeypatch, twisted_cubic, tmp_path, capsys):
    """Under the dropped-syzygy mutant, the Betti table of the twisted cubic
    no longer sums to its Hilbert numerator, so `betti_table` raises and the
    betti command exits 3."""
    path = tmp_path / "tc.ideal"
    path.write_text(render_source(twisted_cubic.ring, {"I": twisted_cubic}))
    clear_caches()
    try:
        with monkeypatch.context() as mp:
            drop_last_syzygy(mp)
            with pytest.raises(InternalCheckError, match="disagrees with its Hilbert series"):
                betti_table(twisted_cubic)
            clear_caches()
            assert run_command(["betti", str(path), "I"], out=io.StringIO()) == EXIT_INTERNAL
            assert "disagrees with its Hilbert series" in capsys.readouterr().err
    finally:
        # the mutant's resolutions must not outlive the test
        clear_caches()
    assert betti_table(twisted_cubic).entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_verify_complex_betti_oracle_rows_follow_the_unit_entry_scan(R4, zvars, twisted_cubic):
    """The "betti oracle" rows appear exactly when the minimality check
    (the scan for unit entries) passes, whatever the other checks say."""
    cases = {
        "minimal resolution": minimal_resolution(twisted_cubic),
        "not exact": not_exact_fake(R4, zvars),
        "not minimal": nonminimal_fake(R4, zvars),
    }
    seen = {}
    for name, res in cases.items():
        checks = verify_complex(res).checks
        minimal = next(c["ok"] for c in checks if c["name"] == "minimality")
        oracle = [c for c in checks if c["name"].startswith("betti oracle")]
        assert bool(oracle) == minimal, name
        seen[name] = minimal, all(c["ok"] for c in oracle)
    assert seen == {
        "minimal resolution": (True, True),
        # beta_{2,2} of (z0, z1, z2) is 3, not the fake's 1
        "not exact": (True, False),
        "not minimal": (False, True),
    }


def test_zero_and_unit_ideal_resolutions(R4):
    res0 = minimal_resolution(Ideal(R4, []))
    assert res0.length == 0 and res0.modules[0].twists == (0,)
    assert betti(res0).entries == {(0, 0): 1}
    unit = minimal_resolution(Ideal(R4, [Polynomial.constant(R4, 1)]))
    assert unit.modules[0].rank == 0
    assert betti(unit).entries == {}


def test_artinian_reduction_of_the_twisted_cubic(R4, twisted_cubic):
    # z3 divides no lead monomial; the cut is the ideal of three points
    # in P^2 on a conic, with the Betti table of the curve
    c, (cut,) = artinian_reduction(twisted_cubic)
    assert c == 1
    assert cut.ring.names == R4.names[:3]
    assert [str(g) for g in cut.generators] == ["-z1^2 + z0*z2", "-z2^2", "-z1*z2"]
    assert betti(minimal_resolution(cut)) == betti(minimal_resolution(twisted_cubic))


def test_artinian_reduction_edge_cases(R4, zvars):
    c, (cut,) = artinian_reduction(Ideal(R4, []))
    assert c == 3 and cut.ring.num_vars == 1 and not cut.generators
    assert is_saturated(Ideal(R4, []))
    unit = Ideal(R4, [Polynomial.constant(R4, 1)])
    assert artinian_reduction(unit) == (0, (unit,))
    assert is_saturated(unit)
    z = zvars
    inhom = Ideal(R4, [z[0] + z[1] * z[1]], allow_inhomogeneous=True)
    assert artinian_reduction(inhom) == (0, (inhom,))
    with pytest.raises(NotHomogeneousError, match="needs homogeneous generators"):
        is_saturated(inhom)
    line = PolyRing(QQ, ("x",))
    x = Polynomial.variable(line, 0)
    for ideal in (Ideal(line, []), Ideal(line, [x * x])):
        assert artinian_reduction(ideal) == (0, (ideal,))
    assert is_saturated(Ideal(line, [])) and not is_saturated(Ideal(line, [x * x]))
    with pytest.raises(RingMismatchError):
        artinian_reduction(Ideal(R4, [z[0]]), Ideal(line, [x]))


def test_artinian_reduction_catches_a_cut_too_many(catalog_items, monkeypatch, tmp_path,
                                                   capsys):
    # a lead-monomial count one too high passes the Bayer-Stillman step
    # but changes the Hilbert series numerator of the cut ideal; the
    # chain route, invariants and the betti command all read the cut
    # the memos are cleared however the test ends, so that no result of
    # the mutant reaches a later test
    count = hilbert_module._trailing_free
    rnc4 = catalog_items["rnc4"]
    W2 = Ideal(rnc4.ring, rnc4.generators[:2])
    cases = [(I,) for I in catalog_items.values()]
    cases.append((rnc4, W2))
    path = tmp_path / "rnc4.ideal"
    path.write_text(render_source(rnc4.ring, {"I": rnc4}))
    try:
        for ideals in cases:
            clear_caches()
            c = artinian_reduction(*ideals)[0]
            assert c + 1 < ideals[0].ring.num_vars, ideals
            clear_caches()
            with monkeypatch.context() as mp:
                mp.setattr(hilbert_module, "_trailing_free", lambda I: count(I) + 1)
                with pytest.raises(InternalCheckError, match="Hilbert series numerator"):
                    artinian_reduction(*ideals)
        with monkeypatch.context() as mp:
            mp.setattr(hilbert_module, "_trailing_free", lambda I: count(I) + 1)
            for call in (lambda: pgshell_check(rnc4, W2), lambda: invariants(rnc4)):
                clear_caches()
                with pytest.raises(InternalCheckError, match="Hilbert series numerator"):
                    call()
            clear_caches()
            assert run_command(["betti", str(path), "I"], out=io.StringIO()) == EXIT_INTERNAL
            assert "Hilbert series numerator" in capsys.readouterr().err
    finally:
        clear_caches()


def test_weighted_resolution():
    from pgshell import PolyRing

    ring = PolyRing(QQ, ("x", "y", "w"), (1, 1, 2))
    x, y, w = (Polynomial.variable(ring, i) for i in range(3))
    ideal = Ideal(ring, [w - x * y])
    res = minimal_resolution(ideal)
    assert [m.twists for m in res.modules] == [(0,), (2,)]
    # weighted Koszul oracle agrees
    assert koszul_tor(ideal, 1, 2).dimension == 1
    assert koszul_tor(ideal, 1, 3).dimension == 0


def test_random_ideals_full_pipeline():
    """End-to-end fuzz: resolve random homogeneous ideals and certify.

    verify_complex re-checks the complex property, exactness (syzygy
    containment), minimality and the Betti/Koszul-oracle agreement; the
    alternating sum is compared with the standard-monomial count.
    """
    import random

    from pgshell import hilbert_function, regularity_and_depth

    rng = random.Random(424242)
    done = 0
    trial = 0
    while done < 10:
        trial += 1
        n = rng.randint(3, 4)
        ring = standard_ring(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            monos = ring.monomials_of_degree(d)
            chosen = rng.sample(monos, min(rng.randint(1, 4), len(monos)))
            p = Polynomial(
                ring, {m: ring.field.of(rng.randint(-3, 3)) for m in chosen}
            )
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        res = minimal_resolution(ideal)
        rep = verify_complex(res)
        assert rep.ok, (trial, rep.failed())
        bt = betti(res)
        reg = regularity_and_depth(bt, ring)[0]
        h = hilbert_function(ideal, max(reg, 0) + ring.num_vars + 5)
        for m in range(reg + 4):
            assert bt.hilbert_series(ring).values(m)[m] == h.values[m], (trial, m)
        done += 1


def test_graded_matrix_validation(R4, zvars):
    z = zvars
    f0 = GradedFreeModule((0,))
    f1 = GradedFreeModule((3,))
    bad = dense_matrix(R4, f1, f0, [[z[0] * z[1]]])  # degree 2 entry, expected 3
    with pytest.raises(EngineError):
        bad.validate_degrees()
    # one column per source basis vector, each inside the target's rows
    with pytest.raises(EngineError, match="2 columns do not fit"):
        GradedMatrix(R4, f1, f0, [{}, {}])
    with pytest.raises(EngineError, match="1 columns do not fit"):
        GradedMatrix(R4, f1, f0, [{(R4.one_mono, 1): R4.field.one}])
