"""Koszul-homology computation of Tor, independent of any resolution.

Tor_q(S/I, k)_m is the degree-m homology of the Koszul complex on the
variables tensored with S/I:

    (S/I)_{m-q-1} (x) Wedge^{q+1}  ->  (S/I)_{m-q} (x) Wedge^q  ->  (S/I)_{m-q+1} (x) Wedge^{q-1}

computed as exact linear algebra over the coefficient field on standard
monomial bases of the graded pieces.  Wedge factors are indexed by
subsets of the variables in lexicographic order; on weighted rings each
subset contributes its total weight to the internal degree.  The
differential and the comparison maps read every block through one
memoized reader, `KoszulContext.coords`: the class of a monomial in
(S/I)_m on that basis, from one `reduce_vector` call if not standard.

Each differential d_q is eliminated once per context and (q, m) by
`linalg.eliminate`: the image is the boundaries B_{q-1}(m), the kernel
is a basis of the cycles Z_q(m), and
dim Tor_q = dim C_q - dim B_{q-1} - dim B_q, so neighbouring q share
their ranks.  Representative cycles are the cycle basis vectors that
are independent modulo B_q, and the span they build (tagged with their
positions, negated) reads the homology coordinates of any cycle in one
reduction.

The same chain spaces realize the comparison maps mu_q between two
quotients S/I_W -> S/I_V, giving the resolution-free route to the
shell predicate; the kernel of mu_q comes from one more `eliminate`.
Every chain vector, cycle, homology coordinate vector and column of
mu_q is a sparse dict {index: value}.  Differential columns and chain-map
images are built on Python operators and left unreduced (over GF(p)
negative or >= p, zero sums kept): `RowSpace` reduces every vector on
entry.  Only the witness cycle, which is printed, is made
`fields.canonical` here.

The complex has C(N+1, q) wedge blocks in each C_q, so every variable
that can be dropped shrinks it.  Under grevlex, when the last c
variables divide no lead monomial of the reduced basis of I, they form
a regular sequence on S/I (Bayer-Stillman, "A criterion for detecting
m-regularity", 1987), and Tor^S_q(S/I, k) = Tor^{S'}_q(S'/I', k) in every
degree, naturally in S/I, for I' the image of I in the ring S' of the
other variables.  `hilbert.artinian_reduction` makes that cut and
checks it against the Hilbert series; the shell oracle sweeps the cut
pair, in the degrees `lyubeznik_degrees` reads off the lead monomials.
This module computes in whatever ring its ideals live in; it resolves nothing.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalCheckError
from .fields import canonical
from .groebner import groebner_basis, reduce_vector, standard_monomials
from .linalg import RowSpace, eliminate
from .memo import memoized
from .poly import Ideal


class KoszulContext:
    """Cached standard-monomial data for one quotient S/I."""

    def __init__(self, I: Ideal):
        I.require_homogeneous()
        self.ideal = I
        self.ring = I.ring
        self.gb = groebner_basis(I)

    # -- graded pieces of S/I ----------------------------------------------
    # Memoized methods keep self alive; koszul_context makes one per ideal.

    @memoized
    def std_basis(self, m: int):
        """(ordered standard monomials of degree m, mono -> index)."""
        monos = standard_monomials(self.gb, m)
        return monos, {mono: i for i, mono in enumerate(monos)}

    @memoized
    def coords(self, mono, m: int) -> dict:
        """Sparse coordinates of the class of the degree-m monomial mono in
        the standard basis of (S/I)_m; shared through the memo, do not mutate."""
        _, index = self.std_basis(m)
        one = self.ring.field.one
        if mono in index:
            return {index[mono]: one}
        gb = self.gb
        r = reduce_vector({(mono, 0): one}, gb.vectors, gb.leads, gb.key, self.ring)
        return {index[t]: c for (t, _), c in r.items()}

    # -- Koszul chain spaces --------------------------------------------------

    @memoized
    def chain_basis(self, q: int, m: int):
        """Basis of Wedge^q (x) (S/I) in internal degree m.

        Returns (labels, layout) where labels are (subset, monomial)
        pairs and layout maps subset -> (offset, piece degree).
        """
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
        return labels, layout

    def chain_dim(self, q: int, m: int) -> int:
        return len(self.chain_basis(q, m)[0])

    def differential(self, q: int, m: int):
        """Columns of d_q : C_q(m) -> C_{q-1}(m), as sparse {row: value} dicts."""
        ring = self.ring
        labels, _ = self.chain_basis(q, m)
        _, t_layout = self.chain_basis(q - 1, m)
        variables = [ring.variable_mono(t) for t in range(ring.num_vars)]
        cols = []
        for T, mono in labels:
            col = {}
            # dropping different factors of T lands in different blocks
            for k, t in enumerate(T):
                off, piece = t_layout[T[:k] + T[k + 1 :]]
                for r, c in self.coords(ring.mono_mul(mono, variables[t]), piece).items():
                    col[off + r] = c if k % 2 == 0 else -c
            cols.append(col)
        return cols

    @memoized
    def _eliminated(self, q: int, m: int):
        """(image, kernel) of d_q in degree m, from one `linalg.eliminate`:
        the image B_{q-1}(m) as a RowSpace over C_{q-1}(m), the kernel
        Z_q(m) as its canonical sparse basis."""
        return eliminate(self.differential(q, m), self.chain_dim(q - 1, m), self.ring.field)

    def boundaries(self, q: int, m: int) -> RowSpace:
        """B_q(m), the image of d_{q+1} in C_q(m); shared, do not add to it."""
        return self._eliminated(q + 1, m)[0]

    def cycles(self, q: int, m: int) -> list:
        """A basis of Z_q(m) = ker d_q as sparse vectors over C_q(m)."""
        return self._eliminated(q, m)[1]

    @memoized
    def homology(self, q: int, m: int):
        """(representative cycles, class reader) of H_q(m).

        The representatives are the cycle basis vectors that are
        independent modulo B_q(m), in order.  Each is added to a copy of
        B_q(m) tagged with minus its position; that span, the class
        reader, reduces a cycle to its homology coordinates in the tags.
        """
        ncols = self.chain_dim(q, m)
        span = self.boundaries(q, m).untagged()
        minus_one = self.ring.field.of(-1)
        reps = []
        for z in self.cycles(q, m):
            if span.add({**z, ncols + len(reps): minus_one}):
                reps.append(z)
        return reps, span


@memoized
def koszul_context(I: Ideal) -> KoszulContext:
    return KoszulContext(I)


class TorPiece:
    """Tor_q(S/I, k)_m: dimension plus an explicit cycle basis on demand."""

    __slots__ = ("ctx", "q", "m", "dimension")

    def __init__(self, ctx: KoszulContext, q: int, m: int, dimension: int):
        self.ctx = ctx
        self.q = q
        self.m = m
        self.dimension = dimension

    def _homology(self):
        reps, reader = self.ctx.homology(self.q, self.m)
        if len(reps) != self.dimension:
            raise InternalCheckError(
                f"cycle extraction found {len(reps)} classes, expected {self.dimension}"
            )
        return reps, reader

    @property
    def cycle_basis(self):
        """Representative cycles, sparse vectors over the chain basis."""
        return self._homology()[0]

    def class_coordinates(self, vec: dict):
        """Sparse coordinates of the class of a cycle on `cycle_basis`, or
        None when the sparse chain vector vec is not a cycle."""
        reader = self._homology()[1]
        ncols = reader.ncols
        rest = reader.reduce(vec)
        if any(c < ncols for c in rest):
            return None
        return {c - ncols: x for c, x in rest.items()}

    def labels(self):
        return self.ctx.chain_basis(self.q, self.m)[0]


@memoized
def koszul_tor(I: Ideal, q: int, m: int) -> TorPiece:
    """Tor_q(S/I, k)_m via Koszul homology (resolution-free)."""
    ctx = koszul_context(I)
    n = ctx.ring.num_vars
    if q < 0 or q > n or m < 0:
        return TorPiece(ctx, q, m, 0)
    dim_z = ctx.chain_dim(q, m) - ctx.boundaries(q - 1, m).dim
    return TorPiece(ctx, q, m, dim_z - ctx.boundaries(q, m).dim)


def lyubeznik_degrees(I: Ideal, q: int) -> tuple:
    """The sorted degrees of lcm(m_{i_1}, ..., m_{i_q}) over the L-admissible
    q-subsets of the reduced basis's lead monomials m_1, m_2, ... in basis
    order: those where no m_j with j < i_t divides lcm(m_{i_t}, ..., m_{i_q})
    for any t < q.  They index the Lyubeznik resolution of S/in(I) (JPAA 51,
    1988); Betti numbers only grow under passage to in(I), so Tor_q(S/I, k)
    is zero in every other degree.  Empty for q > num_vars (syzygy theorem)."""
    return _lyubeznik_walk(I).get(q, ())


@memoized
def _lyubeznik_walk(I: Ideal) -> dict:
    """q -> the degrees of `lyubeznik_degrees`, from one walk that extends
    admissible suffixes leftward, up to q = num_vars.  A suffix that breaks
    the condition breaks it in every extension, so the walk prunes it."""
    ring = I.ring
    leads = groebner_basis(I).lead_monomials
    found = {0: {0}}
    stack = [(i, mono, 1) for i, mono in enumerate(leads)]
    while stack:
        first, lcm, q = stack.pop()
        found.setdefault(q, set()).add(ring.mono_degree(lcm))
        for i in range(first if q < ring.num_vars else 0):
            wider = ring.mono_lcm(leads[i], lcm)
            if not any(ring.mono_divides(leads[j], wider) for j in range(i)):
                stack.append((i, wider, q + 1))
    return {q: tuple(sorted(degrees)) for q, degrees in found.items()}


class TorComparison:
    """The induced map mu_q on degree-m Koszul Tor of S/I_W -> S/I_V.

    `matrix` holds the sparse columns of mu_q, one per source class.
    """

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


def _chain_map_image(ctx_w: KoszulContext, ctx_v: KoszulContext, q, m, vec: dict) -> dict:
    """Image in C_q^V(m) of a chain vector of C_q^W(m), both sparse; its
    sums are left unreduced, for `RowSpace` to reduce on entry."""
    labels_w, _ = ctx_w.chain_basis(q, m)
    _, layout_v = ctx_v.chain_basis(q, m)
    out = {}
    for idx, c in vec.items():
        T, mono = labels_w[idx]
        off, piece = layout_v[T]
        for r, x in ctx_v.coords(mono, piece).items():
            out[off + r] = out.get(off + r, 0) + c * x
    return out


@memoized
def tor_comparison(I_V: Ideal, I_W: Ideal, q: int, m: int) -> TorComparison:
    """mu_q in degree m for the surjection S/I_W ->> S/I_V (I_W <= I_V).

    The matrix is written in the homology representative bases of both
    sides; its columns are read off one reduction per source cycle
    against the target's cycle span.  When not injective, a witness
    kernel class of the source Tor is extracted and re-verified: nonzero
    as a W-class, mapped into the boundaries on the V side.
    """
    ctx_w = koszul_context(I_W)
    ctx_v = koszul_context(I_V)
    field = ctx_w.ring.field
    src = koszul_tor(I_W, q, m)
    tgt = koszul_tor(I_V, q, m)
    h_w = src.dimension
    h_v = tgt.dimension
    if h_w == 0:
        return TorComparison(q, m, 0, h_v, [], True, None)

    mu_cols = []
    for z in src.cycle_basis:
        x = tgt.class_coordinates(_chain_map_image(ctx_w, ctx_v, q, m, z))
        if x is None:
            raise InternalCheckError(
                f"image of a Koszul cycle is not a cycle class at (q={q}, m={m})"
            )
        mu_cols.append(x)
    kernel = eliminate(mu_cols, h_v, field)[1]

    witness = None
    if kernel:
        c = kernel[0]
        cycle = {}
        for k, ck in c.items():
            for i, x in src.cycle_basis[k].items():
                cycle[i] = cycle.get(i, 0) + ck * x
        cycle = canonical(cycle, field.characteristic)
        if ctx_w.boundaries(q, m).contains(cycle):
            raise InternalCheckError("witness cycle is a boundary on the source side")
        if not ctx_v.boundaries(q, m).contains(_chain_map_image(ctx_w, ctx_v, q, m, cycle)):
            raise InternalCheckError("witness image is not a boundary on the target side")
        witness = {
            "q": q,
            "m": m,
            "coefficients": c,
            "cycle": cycle,
            "labels": src.labels(),
        }
    return TorComparison(q, m, h_w, h_v, mu_cols, not kernel, witness)
