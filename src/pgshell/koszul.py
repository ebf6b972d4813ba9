"""Koszul-homology computation of Tor, independent of any resolution.

Tor_q(S/I, k)_m is the degree-m homology of the Koszul complex on the
variables tensored with S/I:

    (S/I)_{m-q-1} (x) Wedge^{q+1}  ->  (S/I)_{m-q} (x) Wedge^q  ->  (S/I)_{m-q+1} (x) Wedge^{q-1}

computed as exact linear algebra over the coefficient field on standard
monomial bases of the graded pieces.  Wedge factors are indexed by
subsets of the variables in lexicographic order; on weighted rings each
subset contributes its total weight to the internal degree.

The same chain spaces realize the comparison maps mu_q between two
quotients S/I_W -> S/I_V, giving the resolution-free route to the
shell predicate.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalCheckError
from .groebner import groebner_basis, normal_form, standard_monomials
from .linalg import RowSpace, nullspace, rank, solve
from .poly import Ideal, Polynomial


class KoszulContext:
    """Cached standard-monomial data for one quotient S/I."""

    def __init__(self, I: Ideal):
        I.require_homogeneous()
        self.ideal = I
        self.ring = I.ring
        self.gb = groebner_basis(I)
        self._std: dict = {}
        self._mul: dict = {}
        self._chain: dict = {}
        self._diff: dict = {}

    # -- graded pieces of S/I ----------------------------------------------

    def std_basis(self, m: int):
        """(ordered standard monomials of degree m, mono -> index)."""
        cached = self._std.get(m)
        if cached is not None:
            return cached
        monos = standard_monomials(self.gb, m)
        out = (monos, {mono: i for i, mono in enumerate(monos)})
        self._std[m] = out
        return out

    def dim(self, m: int) -> int:
        if m < 0:
            return 0
        return len(self.std_basis(m)[0])

    def coords(self, p: Polynomial, m: int):
        """Coordinates of the class of p in the standard basis of (S/I)_m."""
        monos, index = self.std_basis(m)
        zero = self.ring.field.zero
        vec = [zero] * len(monos)
        nf = normal_form(p, self.gb)
        for mono, c in nf.terms.items():
            vec[index[mono]] = c
        return vec

    def mul_var(self, i: int, m: int):
        """Columns of multiplication by z_i: (S/I)_m -> (S/I)_{m + w_i}."""
        key = (i, m)
        cached = self._mul.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        monos, _ = self.std_basis(m)
        target = m + ring.weights[i]
        t_monos, t_index = self.std_basis(target)
        zero = ring.field.zero
        one = ring.field.one
        vi = ring.variable_mono(i)
        cols = []
        for mono in monos:
            prod = ring.mono_mul(mono, vi)
            if prod in t_index:
                vec = [zero] * len(t_monos)
                vec[t_index[prod]] = one
            else:
                vec = self.coords(Polynomial.from_term(ring, prod, one), target)
            cols.append(vec)
        self._mul[key] = cols
        return cols

    # -- Koszul chain spaces --------------------------------------------------

    def chain_basis(self, q: int, m: int):
        """Basis of Wedge^q (x) (S/I) in internal degree m.

        Returns (labels, layout) where labels are (subset, monomial)
        pairs and layout maps subset -> (offset, piece degree).
        """
        key = (q, m)
        cached = self._chain.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        n = ring.num_vars
        labels = []
        layout = {}
        if 0 <= q <= n:
            offset = 0
            for T in combinations(range(n), q):
                wt = sum(ring.weights[t] for t in T)
                piece = m - wt
                if piece < 0:
                    layout[T] = (offset, piece)
                    continue
                monos, _ = self.std_basis(piece)
                layout[T] = (offset, piece)
                for mono in monos:
                    labels.append((T, mono))
                offset += len(monos)
        out = (labels, layout)
        self._chain[key] = out
        return out

    def chain_dim(self, q: int, m: int) -> int:
        return len(self.chain_basis(q, m)[0])

    def differential(self, q: int, m: int):
        """Rows of d_q : C_q(m) -> C_{q-1}(m) over the chain bases."""
        key = (q, m)
        cached = self._diff.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        field = ring.field
        zero = field.zero
        labels, _ = self.chain_basis(q, m)
        t_labels, t_layout = self.chain_basis(q - 1, m)
        rows = [[zero] * len(labels) for _ in range(len(t_labels))]
        for col, (T, mono) in enumerate(labels):
            src_piece = m - sum(ring.weights[t] for t in T)
            for k, t in enumerate(T):
                rest = T[:k] + T[k + 1 :]
                off, _ = t_layout[rest]
                mult = self.mul_var(t, src_piece)
                _, src_index = self.std_basis(src_piece)
                vec = mult[src_index[mono]]
                if k % 2 == 0:
                    for r, c in enumerate(vec):
                        if c != zero:
                            rows[off + r][col] = field.add(rows[off + r][col], c)
                else:
                    for r, c in enumerate(vec):
                        if c != zero:
                            rows[off + r][col] = field.sub(rows[off + r][col], c)
        self._diff[key] = rows
        return rows


_CTX_CACHE: dict = {}


def koszul_context(I: Ideal) -> KoszulContext:
    ctx = _CTX_CACHE.get(I)
    if ctx is None:
        ctx = KoszulContext(I)
        _CTX_CACHE[I] = ctx
    return ctx


def clear_koszul_cache():
    _CTX_CACHE.clear()


class TorPiece:
    """Tor_q(S/I, k)_m: dimension plus an explicit cycle basis on demand."""

    __slots__ = ("ctx", "q", "m", "dimension", "_reps")

    def __init__(self, ctx: KoszulContext, q: int, m: int, dimension: int):
        self.ctx = ctx
        self.q = q
        self.m = m
        self.dimension = dimension
        self._reps = None

    @property
    def cycle_basis(self):
        """Representative cycles, coordinates in the chain basis."""
        if self._reps is None:
            ctx, q, m = self.ctx, self.q, self.m
            field = ctx.ring.field
            d_q = ctx.differential(q, m)
            ncols = ctx.chain_dim(q, m)
            cycles = nullspace(d_q, ncols, field)
            boundaries = ctx.differential(q + 1, m)
            span = RowSpace(ncols, field)
            ncols_up = ctx.chain_dim(q + 1, m)
            for j in range(ncols_up):
                span.add([boundaries[i][j] for i in range(ncols)])
            reps = []
            for z in cycles:
                if not span.contains(z):
                    reps.append(z)
                    span.add(z)
            if len(reps) != self.dimension:
                raise InternalCheckError(
                    f"cycle extraction found {len(reps)} classes, expected {self.dimension}"
                )
            self._reps = reps
        return self._reps

    def labels(self):
        return self.ctx.chain_basis(self.q, self.m)[0]


_TOR_CACHE: dict = {}


def koszul_tor(I: Ideal, q: int, m: int) -> TorPiece:
    """Tor_q(S/I, k)_m via Koszul homology (resolution-free)."""
    key = (I, q, m)
    cached = _TOR_CACHE.get(key)
    if cached is not None:
        return cached
    ctx = koszul_context(I)
    n = ctx.ring.num_vars
    if q < 0 or q > n or m < 0:
        piece = TorPiece(ctx, q, m, 0)
    else:
        field = ctx.ring.field
        dim_q = ctx.chain_dim(q, m)
        rank_down = rank(ctx.differential(q, m), field) if q >= 1 else 0
        rank_up = rank(ctx.differential(q + 1, m), field)
        piece = TorPiece(ctx, q, m, dim_q - rank_down - rank_up)
    _TOR_CACHE[key] = piece
    return piece


def taylor_degree_bound(I: Ideal, q: int) -> int:
    """Upper bound for degrees m with Tor_q nonzero, from the lead terms.

    Betti numbers can only grow when passing to the lead-term ideal,
    whose Taylor complex is supported in lcm degrees of q-subsets of
    the Groebner lead monomials; beyond the largest such degree the
    Tor piece vanishes.  Returns -1 when Tor_q is identically zero.
    """
    gb = groebner_basis(I)
    ring = I.ring
    leads = gb.lead_monomials
    if q == 0:
        return 0
    if q < 1 or q > len(leads):
        return -1
    best = -1
    for T in combinations(range(len(leads)), q):
        lcm = leads[T[0]]
        for t in T[1:]:
            lcm = ring.mono_lcm(lcm, leads[t])
        best = max(best, ring.mono_degree(lcm))
    return best


class TorComparison:
    """The induced map mu_q on degree-m Koszul Tor of S/I_W -> S/I_V."""

    __slots__ = (
        "q", "m", "dim_source", "dim_target", "matrix", "injective", "witness"
    )

    def __init__(self, q, m, dim_source, dim_target, matrix, injective, witness):
        self.q = q
        self.m = m
        self.dim_source = dim_source
        self.dim_target = dim_target
        self.matrix = matrix
        self.injective = injective
        self.witness = witness


def _chain_map_image(ctx_w: KoszulContext, ctx_v: KoszulContext, q, m, vec):
    """Image in C_q^V(m) of a chain vector given in C_q^W(m) coordinates."""
    ring = ctx_w.ring
    field = ring.field
    zero = field.zero
    labels_w, _ = ctx_w.chain_basis(q, m)
    labels_v, layout_v = ctx_v.chain_basis(q, m)
    out = [zero] * len(labels_v)
    for idx, c in enumerate(vec):
        if c == zero:
            continue
        T, mono = labels_w[idx]
        piece = m - sum(ring.weights[t] for t in T)
        coords = ctx_v.coords(Polynomial.from_term(ring, mono, field.one), piece)
        off, _ = layout_v[T]
        for r, x in enumerate(coords):
            if x != zero:
                out[off + r] = field.add(out[off + r], field.mul(c, x))
    return out


def tor_comparison(I_V: Ideal, I_W: Ideal, q: int, m: int) -> TorComparison:
    """mu_q in degree m for the surjection S/I_W ->> S/I_V (I_W <= I_V).

    The matrix is written in the homology representative bases of both
    sides.  When not injective, a witness kernel class of the source
    Tor is extracted and re-verified: nonzero as a W-class, mapped into
    the boundaries on the V side.
    """
    ctx_w = koszul_context(I_W)
    ctx_v = koszul_context(I_V)
    field = ctx_w.ring.field
    zero = field.zero
    src = koszul_tor(I_W, q, m)
    tgt = koszul_tor(I_V, q, m)
    h_w = src.dimension
    h_v = tgt.dimension
    if h_w == 0:
        return TorComparison(q, m, 0, h_v, [], True, None)

    chain_dim_v = ctx_v.chain_dim(q, m)
    v_bound = ctx_v.differential(q + 1, m)
    nb = ctx_v.chain_dim(q + 1, m)
    v_reps = tgt.cycle_basis
    # columns: target homology reps, then boundary generators
    aug_cols = [list(r) for r in v_reps] + [
        [v_bound[i][j] for i in range(chain_dim_v)] for j in range(nb)
    ]
    aug_rows = [[col[i] for col in aug_cols] for i in range(chain_dim_v)]

    mu_cols = []
    images = []
    for z in src.cycle_basis:
        img = _chain_map_image(ctx_w, ctx_v, q, m, z)
        images.append(img)
        x = solve(aug_rows, img, field) if aug_cols else ([] if all(c == zero for c in img) else None)
        if x is None:
            raise InternalCheckError(
                f"image of a Koszul cycle is not a cycle class at (q={q}, m={m})"
            )
        mu_cols.append(x[:h_v])
    mu_rows = [[mu_cols[j][i] for j in range(h_w)] for i in range(h_v)]
    injective = rank(mu_rows, field) == h_w

    witness = None
    if not injective:
        kernel = nullspace(mu_rows, h_w, field)
        c = kernel[0]
        cycle = [zero] * ctx_w.chain_dim(q, m)
        for k, ck in enumerate(c):
            if ck != zero:
                for i, x in enumerate(src.cycle_basis[k]):
                    if x != zero:
                        cycle[i] = field.add(cycle[i], field.mul(ck, x))
        # verify: nonzero class on the W side
        w_bound = ctx_w.differential(q + 1, m)
        chain_dim_w = ctx_w.chain_dim(q, m)
        span = RowSpace(chain_dim_w, field)
        for j in range(ctx_w.chain_dim(q + 1, m)):
            span.add([w_bound[i][j] for i in range(chain_dim_w)])
        if span.contains(cycle):
            raise InternalCheckError("witness cycle is a boundary on the source side")
        # verify: image is a boundary on the V side
        img = _chain_map_image(ctx_w, ctx_v, q, m, cycle)
        bound_rows = [[v_bound[i][j] for j in range(nb)] for i in range(chain_dim_v)]
        sol = solve(bound_rows, img, field) if nb else ([] if all(x == zero for x in img) else None)
        if sol is None:
            raise InternalCheckError("witness image is not a boundary on the target side")
        witness = {
            "q": q,
            "m": m,
            "coefficients": c,
            "cycle": cycle,
            "labels": src.labels(),
        }
    return TorComparison(q, m, h_w, h_v, mu_rows, injective, witness)
