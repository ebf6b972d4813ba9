from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given

from pgshell import (
    Field,
    Ideal,
    Polynomial,
    betti,
    clear_caches,
    groebner_basis,
    koszul_tor,
    minimal_resolution,
    normal_form,
    pgshell_report,
    rational_normal_curve,
    regularity_and_depth,
    standard_ring,
    substitute_ideal,
)
from pgshell import koszul
from pgshell.errors import InternalCheckError
from pgshell.hilbert import artinian_reduction
from pgshell.koszul import KoszulContext, koszul_context, lyubeznik_degrees, tor_comparison
from pgshell.shell import pgshell_check_oracle

from conftest import dense_nullspace, dense_rank, dense_solve, dense_vector, graded_ideals


def test_tor_examples(twisted_cubic):
    assert koszul_tor(twisted_cubic, 1, 2).dimension == 3
    assert koszul_tor(twisted_cubic, 0, 0).dimension == 1
    assert koszul_tor(twisted_cubic, 2, 4).dimension == 0


def test_tor_zero_in_degree_zero_everywhere(twisted_cubic, ci23):
    for ideal in (twisted_cubic, ci23.ideal):
        assert koszul_tor(ideal, 0, 0).dimension == 1
        for m in range(1, 4):
            assert koszul_tor(ideal, 0, m).dimension == 0


def test_cycle_basis_sizes(twisted_cubic):
    piece = koszul_tor(twisted_cubic, 2, 3)
    assert piece.dimension == 2
    assert len(piece.cycle_basis) == 2
    # representatives are cycles: d_q kills them
    ctx = koszul_context(twisted_cubic)
    cols = ctx.differential(2, 3)
    for z in piece.cycle_basis:
        image = {}
        for j, col in enumerate(cols):
            for i, a in col.items():
                image[i] = image.get(i, 0) + a * z.get(j, 0)
        assert not any(image.values())


def test_oracle_matches_resolution_on_corpus(catalog_items):
    for name, ideal in catalog_items.items():
        bt = betti(minimal_resolution(ideal))
        reg = regularity_and_depth(bt, ideal.ring)[0]
        pd = bt.max_q()
        for q in range(pd + 1):
            support = bt.row_support(q)
            top = max(support) if support else q
            for m in range(0, min(top, reg + q) + 2):
                assert koszul_tor(ideal, q, m).dimension == bt.get(q, m), (
                    name,
                    q,
                    m,
                )
        # one homological step beyond the projective dimension
        assert koszul_tor(ideal, pd + 1, reg + pd + 1).dimension == 0


def lcm_degree(ring, monos):
    return ring.mono_degree(reduce(ring.mono_lcm, monos, ring.one_mono))


def test_lyubeznik_degrees_cover_support(catalog_items):
    for name, ideal in catalog_items.items():
        bt = betti(minimal_resolution(ideal))
        for (q, m), v in bt.entries.items():
            assert m in lyubeznik_degrees(ideal, q), (name, q, m)


def test_lyubeznik_degrees_follow_the_definition(catalog_items):
    # every subset of the lead monomials, admissible ones kept, against the walk
    for name, ideal in catalog_items.items():
        ring = ideal.ring
        leads = groebner_basis(ideal).lead_monomials

        def admissible(T):
            for t in range(len(T) - 1):
                lcm = reduce(ring.mono_lcm, [leads[i] for i in T[t:]])
                if any(ring.mono_divides(leads[j], lcm) for j in range(T[t])):
                    return False
            return True

        # up to q = num_vars: Tor_q vanishes past it (Hilbert's syzygy theorem)
        for q in range(ring.num_vars + 1):
            want = sorted({lcm_degree(ring, [leads[i] for i in T])
                           for T in combinations(range(len(leads)), q) if admissible(T)})
            assert list(lyubeznik_degrees(ideal, q)) == want, (name, q)
        assert lyubeznik_degrees(ideal, ring.num_vars + 1) == (), name


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_lyubeznik_degrees_hold_every_nonzero_tor(p, weighted):
    # the oracle's old sweep, every degree up to the largest lcm degree of a
    # q-subset of the lead monomials (the Taylor bound), misses no degree
    @given(graded_ideals(Field(p), weighted))
    def check(I):
        ring = I.ring
        leads = groebner_basis(I).lead_monomials
        for q in range(1, ring.num_vars + 1):
            taylor = max((lcm_degree(ring, T) for T in combinations(leads, q)), default=-1)
            for m in range(taylor + 1):
                if koszul_tor(I, q, m).dimension:
                    assert m in lyubeznik_degrees(I, q), (q, m)

    check()


def test_tor_comparison_positive(twisted_cubic, tc_quadrics):
    w = Ideal(twisted_cubic.ring, [tc_quadrics[0]])
    comp = tor_comparison(twisted_cubic, w, 1, 2)
    assert comp.dim_source == 1 and comp.dim_target == 3
    assert comp.injective and comp.witness is None


def test_tor_comparison_negative_with_verified_witness(R4, zvars, twisted_cubic, tc_quadrics):
    z = zvars
    w = Ideal(R4, [z[3] * tc_quadrics[0]])
    comp = tor_comparison(twisted_cubic, w, 1, 3)
    assert not comp.injective
    assert comp.witness is not None
    assert comp.witness["q"] == 1 and comp.witness["m"] == 3
    assert any(c != 0 for c in comp.witness["cycle"].values())


# -- the oracle against a copy of its dense path -------------------------------


def nf_coordinates(ctx, mono, m):
    """Coordinates of the class of mono in (S/I)_m, from the public normal form."""
    ring = ctx.ring
    _, index = ctx.std_basis(m)
    r = normal_form(Polynomial.from_term(ring, mono, ring.field.one), ctx.ideal)
    return {index[t]: c for t, c in r.terms.items()}


def dense_differential(ctx, q, m):
    """Rows of d_q, filled densely from the normal forms of z_t * mono."""
    ring = ctx.ring
    field = ring.field
    labels, _ = ctx.chain_basis(q, m)
    t_labels, t_layout = ctx.chain_basis(q - 1, m)
    rows = [[field.zero] * len(labels) for _ in t_labels]
    for col, (T, mono) in enumerate(labels):
        piece = m - sum(ring.weights[t] for t in T)
        for k, t in enumerate(T):
            off, _ = t_layout[T[:k] + T[k + 1 :]]
            op = field.add if k % 2 == 0 else field.sub
            prod = ring.mono_mul(mono, ring.variable_mono(t))
            for r, c in nf_coordinates(ctx, prod, piece + ring.weights[t]).items():
                rows[off + r][col] = op(rows[off + r][col], c)
    return rows


def dense_boundary_columns(ctx, q, m):
    rows = dense_differential(ctx, q + 1, m)
    return [[row[j] for row in rows] for j in range(ctx.chain_dim(q + 1, m))]


def dense_cycle_basis(ctx, q, m):
    field = ctx.ring.field
    span = dense_boundary_columns(ctx, q, m)
    reps = []
    for z in dense_nullspace(dense_differential(ctx, q, m), ctx.chain_dim(q, m), field):
        if dense_rank(span + [z], field) > dense_rank(span, field):
            reps.append(z)
            span.append(z)
    return reps


def dense_image(ctx_w, ctx_v, q, m, vec):
    ring = ctx_w.ring
    field = ring.field
    labels_w, _ = ctx_w.chain_basis(q, m)
    _, layout_v = ctx_v.chain_basis(q, m)
    out = [field.zero] * ctx_v.chain_dim(q, m)
    for idx, c in enumerate(vec):
        if c != field.zero:
            T, mono = labels_w[idx]
            piece = m - sum(ring.weights[t] for t in T)
            off, _ = layout_v[T]
            for r, x in nf_coordinates(ctx_v, mono, piece).items():
                out[off + r] = field.add(out[off + r], field.mul(c, x))
    return out


def dense(vectors, n, field):
    """Dense lists of length n of sparse vectors."""
    return [dense_vector(v, n, field) for v in vectors]


def dense_comparison(I_V, I_W, q, m):
    """(source reps, target reps, kernel of mu, witness cycle or None)."""
    ctx_w, ctx_v = koszul_context(I_W), koszul_context(I_V)
    field = ctx_w.ring.field
    src = dense_cycle_basis(ctx_w, q, m)
    tgt = dense_cycle_basis(ctx_v, q, m)
    aug_cols = tgt + dense_boundary_columns(ctx_v, q, m)
    aug_rows = [[col[i] for col in aug_cols] for i in range(ctx_v.chain_dim(q, m))]
    mu_cols = [dense_solve(aug_rows, dense_image(ctx_w, ctx_v, q, m, z), field) for z in src]
    mu_rows = [[col[i] for col in mu_cols] for i in range(len(tgt))]
    kernel = dense_nullspace(mu_rows, len(src), field)
    cycle = None
    if kernel:
        cycle = [field.zero] * ctx_w.chain_dim(q, m)
        for ck, z in zip(kernel[0], src):
            cycle = [field.add(a, field.mul(ck, b)) for a, b in zip(cycle, z)]
    return src, tgt, kernel, cycle


def _tc_case(kind, field=None):
    ring = standard_ring(4, field)
    z = [Polynomial.variable(ring, i) for i in range(4)]
    quadrics = [z[0] * z[2] - z[1] * z[1], z[1] * z[3] - z[2] * z[2], z[0] * z[3] - z[1] * z[2]]
    w = [quadrics[0]] if kind == "positive" else [z[3] * quadrics[0]]
    return Ideal(ring, quadrics), Ideal(ring, w)


def _rnc4_case(kind, field):
    entry = rational_normal_curve(4, field=field)
    ring, v = entry.ring, entry.ideal
    if kind == "W2":
        w = [g for g in v.generators if g.homogeneous_degree() == 2][:2]
    else:
        w = [Polynomial.variable(ring, ring.num_vars - 1) * v.generators[0]]
    return v, Ideal(ring, w)


_DENSE_CASES = {
    "tc": _tc_case,
    "rnc4-gf": lambda kind: _rnc4_case(kind, Field(32003)),
    "rnc4-qq": lambda kind: _rnc4_case(kind, Field(0)),
}


@pytest.mark.parametrize("name, kind", [
    ("tc", "positive"), ("tc", "z3*quadric"), ("rnc4-gf", "W2"), ("rnc4-gf", "N"),
    ("rnc4-qq", "W2"),
])
def test_oracle_matches_dense_path(name, kind):
    I_V, I_W = _DENSE_CASES[name](kind)
    checked = 0
    for q in range(1, I_W.ring.num_vars + 1):
        for m in lyubeznik_degrees(I_W, q):
            if koszul_tor(I_W, q, m).dimension == 0:
                continue
            src, tgt, kernel, cycle = dense_comparison(I_V, I_W, q, m)
            field = I_W.ring.field
            n_w, n_v = koszul_context(I_W).chain_dim(q, m), koszul_context(I_V).chain_dim(q, m)
            assert dense(koszul_tor(I_W, q, m).cycle_basis, n_w, field) == src, (q, m)
            assert dense(koszul_tor(I_V, q, m).cycle_basis, n_v, field) == tgt, (q, m)
            comp = tor_comparison(I_V, I_W, q, m)
            assert comp.injective == (not kernel), (q, m)
            witness = comp.witness and dense_vector(comp.witness["cycle"], n_w, field)
            assert witness == cycle, (q, m)
            checked += 1
    assert checked


# -- the comparison's internal checks, each reached by a mutant ------------------


def test_cycle_extraction_catches_a_dropped_representative(twisted_cubic, monkeypatch):
    real = KoszulContext.homology
    monkeypatch.setattr(KoszulContext, "homology", lambda self, q, m: real(self, q, m)[1:])
    try:
        with pytest.raises(InternalCheckError,
                           match="^cycle extraction found 1 classes, expected 2$"):
            koszul_tor(twisted_cubic, 2, 3).cycle_basis
    finally:
        clear_caches()


def test_comparison_catches_an_image_that_is_not_a_cycle(twisted_cubic, tc_quadrics, monkeypatch):
    real = koszul._chain_map_image

    def noisy(ctx_w, ctx_v, q, m, vec):
        # e_j, for the first chain basis vector j that d_q does not kill
        j = next(j for j, col in enumerate(ctx_v.differential(q, m)) if any(col.values()))
        out = real(ctx_w, ctx_v, q, m, vec)
        out[j] = out.get(j, 0) + 1
        return out

    clear_caches()  # a memoized comparison would skip the mutant
    monkeypatch.setattr(koszul, "_chain_map_image", noisy)
    try:
        w = Ideal(twisted_cubic.ring, [tc_quadrics[0]])
        with pytest.raises(InternalCheckError,
                           match=r"^image of a Koszul cycle is not a cycle class at \(q=1, m=2\)$"):
            tor_comparison(twisted_cubic, w, 1, 2)
    finally:
        clear_caches()


def test_comparison_catches_a_witness_that_is_a_source_boundary(
    twisted_cubic, tc_quadrics, monkeypatch
):
    # the first representative becomes a boundary of d_{q+1}: a cycle whose
    # image is a target boundary, so it is a kernel class but not a Tor class
    real = KoszulContext.homology

    def with_a_boundary(self, q, m):
        return [self.differential(q + 1, m)[0], *real(self, q, m)[1:]]

    clear_caches()
    monkeypatch.setattr(KoszulContext, "homology", with_a_boundary)
    try:
        w = Ideal(twisted_cubic.ring, [tc_quadrics[0]])
        with pytest.raises(InternalCheckError,
                           match="^witness cycle is a boundary on the source side$"):
            tor_comparison(twisted_cubic, w, 1, 2)
    finally:
        clear_caches()


def test_comparison_catches_a_witness_image_that_is_no_boundary(
    twisted_cubic, tc_quadrics, monkeypatch
):
    # (1, 2) is injective: every image read as zero inside the loop makes a
    # false kernel, and the witness's real image is then no target boundary
    w = Ideal(twisted_cubic.ring, [tc_quadrics[0]])
    clear_caches()
    real = koszul._chain_map_image
    in_loop = [koszul_tor(w, 1, 2).dimension]

    def zero_in_loop(*args):
        if in_loop[0]:
            in_loop[0] -= 1
            return {}
        return real(*args)

    monkeypatch.setattr(koszul, "_chain_map_image", zero_in_loop)
    try:
        with pytest.raises(InternalCheckError,
                           match="^witness image is not a boundary on the target side$"):
            tor_comparison(twisted_cubic, w, 1, 2)
    finally:
        clear_caches()


@pytest.mark.parametrize("p", [0, 32003])
def test_comparison_builds_no_target_homology(p, monkeypatch):
    # ker mu_q is read against the target's boundaries only: every homology
    # built belongs to a source, the full W or the W of the cut pair
    field = Field(p)
    pairs = [_tc_case("positive", field), _tc_case("z3*quadric", field), _rnc4_case("W2", field)]
    clear_caches()
    built = set()
    real = KoszulContext.homology

    def counted(self, q, m):
        built.add(self.ideal)
        return real(self, q, m)

    monkeypatch.setattr(KoszulContext, "homology", counted)
    try:
        sources = set()
        for V, W in pairs:
            sources |= {W, artinian_reduction(V, W)[1][1]}
            pgshell_check_oracle(V, W)
            for q in range(1, W.ring.num_vars + 1):
                for m in lyubeznik_degrees(W, q):
                    tor_comparison(V, W, q, m)
        assert built and built <= sources
    finally:
        clear_caches()


# -- the one monomial reader -----------------------------------------------------


@pytest.mark.parametrize("weighted", [False, True], ids=["standard", "weighted"])
@pytest.mark.parametrize("p", [0, 32003])
def test_coords_is_the_normal_form(p, weighted):
    @given(graded_ideals(Field(p), weighted))
    def check(I):
        ring = I.ring
        ctx = koszul_context(I)
        top = max(g.homogeneous_degree() for g in I.generators) + 1
        for m in range(top + 1):
            for mono in ring.monomials_of_degree(m):
                assert ctx.coords(mono, m) == nf_coordinates(ctx, mono, m), (m, mono)

    check()


def _reader_pairs(field):
    """(V, W) pairs whose Koszul blocks hold non-standard monomials: the
    twisted cubic against z3 * (a quadric), and rnc5 after a fixed
    invertible change of coordinates against its first three generators."""
    rnc5 = rational_normal_curve(5, field=field).ideal
    n = rnc5.ring.num_vars
    # unitriangular, so invertible over every field
    change = [[1 if j == i else (2 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    generic = substitute_ideal(rnc5, change)
    return [_tc_case("z3*quadric", field), (generic, Ideal(generic.ring, generic.generators[:3]))]


@pytest.mark.parametrize("p", [0, 32003])
def test_koszul_blocks_build_no_polynomial(p, monkeypatch):
    pairs = _reader_pairs(Field(p))
    clear_caches()

    def refuse(*args):
        raise AssertionError("a Koszul block built a Polynomial")

    monkeypatch.setattr(Polynomial, "from_term", classmethod(refuse))
    for V, W in pairs:
        report = pgshell_report(V, W, "both")
        assert report.verdict == "not-pg-shell"
