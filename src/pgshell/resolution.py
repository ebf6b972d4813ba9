"""Syzygies, graded minimal free resolutions, Betti tables.

Everything runs on the one module Groebner engine.  For a matrix M
with columns c_1..c_s in S^r, a `ColumnModule` holds the Groebner
basis of the vectors (c_j ; e_j) in S^r (+) S^s under a block order in
which the first r positions dominate.  Basis elements whose first
block vanishes generate (indeed form a Groebner basis of) the syzygy
module, and reducing (u ; 0) solves M x = u.  Minimal generating sets
come from a single degree-ordered Buchberger pass that keeps exactly
the inputs not already in the span of the earlier ones, so iterating
kernels yields the minimal resolution directly (Hilbert's bound N+1
is asserted, never assumed).  `betti_table` resolves the cut ideal of
`hilbert.artinian_reduction`.
"""

from __future__ import annotations

from collections import Counter

from .errors import EngineError, InternalCheckError, WeightedRingError
from .fields import canonical
from .groebner import (
    block_key,
    groebner_basis,
    lead_terms,
    module_groebner,
    poly_to_vector,
    reduce_vector,
    vector_degree,
)
from .hilbert import HilbertSeries, artinian_reduction
from .memo import memoized
from .modules import GradedFreeModule, GradedMatrix
from .poly import Ideal
from .rings import PolyRing


# ---------------------------------------------------------------------------
# minimal generating sets


def minimal_generating_subset(vectors, ring: PolyRing, twists):
    """Indices of a minimal generating subset of a graded submodule.

    `vectors` are module vectors (dicts keyed (mono, pos)) inside the
    free module with the given twists.  One Groebner pass takes them in
    increasing degree (ties in input order) and keeps one exactly when
    it is not in the submodule generated by the kept ones, which by
    Nakayama lifts a basis of K / S_+ K.  The indices come in that
    order, so their degrees do not decrease.
    """
    for v in vectors:
        if vector_degree(v, ring, twists) is None:
            raise EngineError("inhomogeneous vector in minimalization")
    kept: list[int] = []
    module_groebner(vectors, ring, twists, kept=kept)
    return kept


def minimal_generators(I: Ideal):
    """Minimal generating subset of the given generator list, as kept by
    the one Buchberger pass of `groebner_basis(I)`."""
    I.require_homogeneous()
    return [I.generators[i] for i in groebner_basis(I).kept]


# ---------------------------------------------------------------------------
# column modules and syzygies


class ColumnModule:
    """Groebner basis of (c_j ; e_j) for the columns c_j of a matrix M."""

    __slots__ = ("matrix", "key", "basis", "leads")

    def __init__(self, M: GradedMatrix):
        ring = M.ring
        r = M.target.rank
        one = ring.field.one
        vectors = [{**col, (ring.one_mono, r + j): one} for j, col in enumerate(M.columns)]
        self.matrix = M
        self.key = block_key(ring, r)
        twists = M.target.twists + M.source.twists
        self.basis = module_groebner(vectors, ring, twists, key=self.key)
        self.leads = lead_terms(self.basis, self.key)

    def syzygy_vectors(self):
        """Basis elements with vanishing first block, shifted to S^s."""
        r = self.matrix.target.rank
        return [
            {(m, p - r): c for (m, p), c in v.items()}
            for v in self.basis
            if all(p >= r for (_, p) in v)
        ]

    def solve(self, u):
        """The vector x with M x = u (a vector of the target), or None."""
        ring = self.matrix.ring
        r = self.matrix.target.rank
        rem = reduce_vector(u, self.basis, self.leads, self.key, ring)
        if any(p < r for (_, p) in rem):
            return None
        x = {(m, p - r): -c for (m, p), c in rem.items()}
        return canonical(x, ring.field.characteristic)


@memoized
def column_module(M: GradedMatrix) -> ColumnModule:
    """The ColumnModule of M, built once per differential and shared by
    syzygies, the exactness check and the chain-map lift."""
    return ColumnModule(M)


def syzygies(M: GradedMatrix) -> GradedMatrix:
    """A minimal generating set of ker(M), as columns of a GradedMatrix.

    Twists of the new source module are inferred from the homogeneous
    column degrees; columns are sorted by degree.
    """
    M.validate_degrees()
    ring = M.ring
    s = M.source.rank
    if s == 0:
        return GradedMatrix(ring, GradedFreeModule(()), M.source, [])
    syz_vectors = column_module(M).syzygy_vectors()
    twists = M.source.twists
    chosen = [syz_vectors[i] for i in minimal_generating_subset(syz_vectors, ring, twists)]
    new_source = GradedFreeModule([vector_degree(v, ring, twists) for v in chosen])
    out = GradedMatrix(ring, new_source, M.source, chosen)
    out.validate_degrees()
    return out


# ---------------------------------------------------------------------------
# resolutions


class FreeResolution:
    """Chain S = F_0 <- F_1 <- ... <- F_len resolving S/I (cyclic)."""

    __slots__ = ("ring", "modules", "differentials", "resolved")

    def __init__(self, ring, modules, differentials, resolved: Ideal):
        self.ring = ring
        self.modules = tuple(modules)
        self.differentials = tuple(differentials)
        self.resolved = resolved

    @property
    def length(self) -> int:
        return len(self.differentials)

    def module(self, q: int) -> GradedFreeModule:
        if 0 <= q < len(self.modules):
            return self.modules[q]
        return GradedFreeModule(())

    def differential(self, q: int) -> GradedMatrix:
        """d_q : F_q -> F_{q-1} (1-based); zero matrix outside the range."""
        if 1 <= q <= self.length:
            return self.differentials[q - 1]
        source = self.module(q)
        return GradedMatrix(self.ring, source, self.module(q - 1), [{}] * source.rank)

    def __repr__(self):
        return " <- ".join(repr(m) for m in self.modules)


class BettiTable:
    """Finitely supported table (q, m) -> beta_{q,m}."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {k: v for k, v in entries.items() if v}

    def get(self, q: int, m: int) -> int:
        return self.entries.get((q, m), 0)

    def total(self, q: int) -> int:
        return sum(v for (qq, _), v in self.entries.items() if qq == q)

    def max_q(self) -> int:
        return max((q for (q, _) in self.entries), default=0)

    def row_support(self, q: int):
        return sorted(m for (qq, m) in self.entries if qq == q)

    def regularity(self) -> int:
        return max((m - q for (q, m) in self.entries), default=0)

    def degrees_of(self, q: int):
        out = []
        for m in self.row_support(q):
            out.extend([m] * self.get(q, m))
        return out

    def convolve(self, other: "BettiTable") -> "BettiTable":
        out: dict = {}
        for (qa, ma), va in self.entries.items():
            for (qb, mb), vb in other.entries.items():
                k = (qa + qb, ma + mb)
                out[k] = out.get(k, 0) + va * vb
        return BettiTable(out)

    def hilbert_series(self, ring: PolyRing) -> HilbertSeries:
        """HS(S/I) with numerator K(t) = sum (-1)^q beta_{q,m} t^m."""
        k = [0] * (max((m for (_, m) in self.entries), default=0) + 1)
        for (q, m), b in self.entries.items():
            k[m] += (-1) ** q * b
        return HilbertSeries(ring, k)

    def dimension_degree(self, ring: PolyRing) -> tuple:
        """(projective dimension, degree) of S/I; (-1, 0) for the empty scheme."""
        return self.hilbert_series(ring).dimension_degree()

    def to_json(self) -> dict:
        out: dict = {}
        for (q, m), b in sorted(self.entries.items()):
            out.setdefault(str(q), {})[str(m)] = b
        return out

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries

    def __repr__(self):
        return f"BettiTable({self.entries})"


def betti(res: FreeResolution) -> BettiTable:
    """beta_{q,m} read off the twists of a minimal resolution."""
    return BettiTable(Counter((q, t) for q, mod in enumerate(res.modules) for t in mod.twists))


@memoized
def minimal_resolution(I: Ideal) -> FreeResolution:
    """Graded minimal free resolution of S/I.

    Each step takes a minimal generating set of the previous kernel, so
    every differential has entries in S_+; a final scan re-checks that
    and the Hilbert length bound.
    """
    I.require_homogeneous()
    ring = I.ring
    n = ring.num_vars
    if I.contains_unit():
        return FreeResolution(ring, [GradedFreeModule(())], [], I)
    f0 = GradedFreeModule((0,))
    if not I.generators:
        return FreeResolution(ring, [f0], [], I)
    gens = minimal_generators(I)
    degs = [g.homogeneous_degree() for g in gens]
    # degree, then smallest lead first (minus its key), as the S-pair heap
    order = sorted(range(len(gens)), key=lambda i: (
        degs[i], tuple(-k for k in ring.mono_key(gens[i].lead_monomial()))))
    gens = [gens[i] for i in order]
    degs = [degs[i] for i in order]
    f1 = GradedFreeModule(degs)
    d1 = GradedMatrix(ring, f1, f0, [poly_to_vector(g) for g in gens])
    modules = [f0, f1]
    diffs = [d1]
    current = d1
    while True:
        nxt = syzygies(current)
        if nxt.source.rank == 0:
            break
        modules.append(nxt.source)
        diffs.append(nxt)
        current = nxt
        if len(diffs) > n:
            raise InternalCheckError(
                f"resolution exceeded the Hilbert length bound {n}"
            )
    for q, d in enumerate(diffs, start=1):
        if d.has_unit_entry():
            raise InternalCheckError(f"unit entry in differential d_{q}")
    return FreeResolution(ring, modules, diffs, I)


def regularity_and_depth(B: BettiTable, ring: PolyRing) -> tuple:
    """(reg_R, reg_I, pd, depth) from a Betti table, standard grading only.

    depth comes from the Auslander-Buchsbaum formula depth = (N+1) - pd;
    reg_I = reg_R + 1 is reported alongside since both conventions are
    in circulation.
    """
    if not ring.standard_graded:
        raise WeightedRingError("regularity/depth are defined for standard gradings here")
    pd = B.max_q()
    depth = ring.num_vars - pd
    reg_r = B.regularity()
    return (reg_r, reg_r + 1, pd, depth)


def is_saturated(I: Ideal) -> bool:
    """I = (I : S_+^inf)?  For proper I iff depth S/I >= 1; this holds
    for positive weights too, S_+ being the only graded maximal ideal.

    When `artinian_reduction` certifies a trailing variable regular on
    S/I, depth S/I >= 1 and no resolution is built.  Otherwise nothing
    is cut, and the answer is pd S/I <= N on the Betti table of I itself
    (Auslander-Buchsbaum).
    """
    if artinian_reduction(I)[0]:
        return True
    return betti_table(I).max_q() < I.ring.num_vars


def betti_table(I: Ideal) -> BettiTable:
    """The Betti table of S/I, read off the minimal resolution of its
    Artinian reduction: the cut variables are regular on S/I, so the
    table is the same, computed in fewer variables."""
    return betti(minimal_resolution(artinian_reduction(I)[1][0]))


# ---------------------------------------------------------------------------
# verification


class ComplexReport:
    """Itemized checks from verify_complex."""

    __slots__ = ("checks",)

    def __init__(self):
        self.checks = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c["ok"]]

    def __repr__(self):
        body = ", ".join(f"{c['name']}:{'ok' if c['ok'] else 'FAIL'}" for c in self.checks)
        return f"ComplexReport({body})"


def verify_complex(res: FreeResolution) -> ComplexReport:
    """Certify a claimed resolution: complex, exactness, minimality, Betti.

    Exactness is checked algebraically (each syzygy of d_q lies in the
    image of d_{q+1}, the image of d_1 equals the resolved ideal, and
    the last kernel vanishes).  When no differential has a unit entry
    (the minimality check), the Betti numbers are also compared with
    the independent Koszul homology oracle at every supported (q, m)
    and one degree beyond the support of each row.
    """
    report = ComplexReport()
    ring = res.ring

    for q in range(1, res.length + 1):
        try:
            res.differential(q).validate_degrees()
            report.add(f"degree-convention d_{q}", True)
        except EngineError as e:
            report.add(f"degree-convention d_{q}", False, str(e))

    for q in range(1, res.length):
        comp = res.differential(q).compose(res.differential(q + 1))
        ok = comp.is_zero()
        report.add(f"composition d_{q}.d_{q+1} = 0", ok,
                   "" if ok else "nonzero composite entry")

    units = [q for q in range(1, res.length + 1) if res.differential(q).has_unit_entry()]
    minimal_ok = not units
    report.add("minimality", minimal_ok, f"unit entry in d_{units[0]}" if units else "")

    if res.modules and res.modules[0].rank > 0:
        report.add("augmentation module is S(0)", res.modules[0].twists == (0,))

    composite_ok = all(c["ok"] for c in report.checks if c["name"].startswith("composition"))
    if composite_ok and res.modules[0].rank > 0:
        # image of d_1 equals the resolved ideal
        img = module_groebner(res.differential(1).columns, ring, (0,))
        ok = img == groebner_basis(res.resolved).vectors
        report.add("image of d_1 is the resolved ideal", ok)
        # exactness in the middle: Syz(d_q) inside im(d_{q+1}); the syzygy
        # vectors of a ColumnModule already form a Groebner basis of ker d_q
        modules = [column_module(res.differential(q)) for q in range(1, res.length + 1)]
        for q in range(1, res.length + 1):
            kernel = modules[q - 1].syzygy_vectors()
            if q < res.length:
                ok = all(modules[q].solve(v) is not None for v in kernel)
                report.add(f"exactness at F_{q}", ok)
            else:
                report.add(f"kernel of d_{q} vanishes", not kernel)

    if minimal_ok:
        from .koszul import koszul_tor

        table = betti(res)
        for q in range(len(res.modules)):
            support = table.row_support(q)
            if not support:
                continue
            for m in support + [support[-1] + 1]:
                want = table.get(q, m)
                got = koszul_tor(res.resolved, q, m).dimension
                report.add(
                    f"betti oracle (q={q}, m={m})",
                    got == want,
                    "" if got == want else f"resolution {want} vs oracle {got}",
                )
    return report
