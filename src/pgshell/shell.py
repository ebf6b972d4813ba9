"""The shell predicate and its criteria suite.

W is a pregeometric shell of V (for ideals I_W <= I_V, i.e. V inside W)
when every comparison map on Tor against the residue field,

    mu_q : Tor_q(S/I_W, k) -> Tor_q(S/I_V, k),   q >= 1,

is injective.  Two independent routes are implemented:

* chain-map: lift the quotient surjection to a degree-0 chain map of
  minimal free resolutions and reduce mod S_+ (minimality makes the
  reduction canonical, not just rank-canonical);
* koszul-oracle: realize mu_q on Koszul homology of the variable
  sequence, resolution-free.

Both routes, and `invariants`, run on the Artinian reduction of
`resolution.artinian_reduction`: trailing variables that are regular on
every quotient are cut, which changes no Betti number and no cell of
mu_q.  Wherever both routes compute a cell (q, m), the whole cell
{source_dim, target_dim, injective} must agree, or InternalCheckError
is raised.  Each chain-route run also checks its first failing cell,
and with the spot check its q = 1 cells, against the oracle on the
full, uncut pair.  Negative verdicts always carry a witness the oracle
verified on the full pair: a nonzero source Tor class, in the original
variables, mapped to zero.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from .errors import (
    ContainmentError,
    EngineError,
    InternalCheckError,
    PreconditionError,
    RingMismatchError,
    WeightedRingError,
)
from .groebner import (
    groebner_basis,
    is_minimal_generator,
    membership,
    module_groebner,
    poly_to_vector,
    same_ideal,
)
from .koszul import koszul_tor, taylor_degree_bound, tor_comparison
from .linalg import eliminate
from .memo import memoized
from .modules import GradedFreeModule, GradedMatrix
from .poly import Ideal
from .resolution import (
    BettiTable,
    FreeResolution,
    artinian_reduction,
    betti,
    betti_table,
    column_module,
    minimal_generators,
    minimal_resolution,
    regularity_and_depth,
    verify_complex,
)

PG_SHELL = "pg-shell"
NOT_PG_SHELL = "not-pg-shell"


# ---------------------------------------------------------------------------
# containment and chain maps


def check_containment(I_V: Ideal, I_W: Ideal) -> bool:
    """True iff I_W <= I_V as ideals (the schemes satisfy V inside W).

    No Groebner basis is built when every generator of I_W is one of I_V.
    """
    if I_V.ring != I_W.ring:
        raise RingMismatchError("ideals live in different rings")
    if set(I_W.generators) <= set(I_V.generators):
        return True
    gb_v = groebner_basis(I_V)
    return all(membership(g, gb_v) for g in I_W.generators)


class ChainMap:
    """Degree-0 lift phi of the surjection S/I_W ->> S/I_V.

    maps[q] : F_q (resolution of S/I_W) -> G_q (resolution of S/I_V);
    commutation with the differentials is verified exactly on
    construction.
    """

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: FreeResolution, target: FreeResolution, maps):
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        self._verify()

    def map(self, q: int) -> GradedMatrix:
        if q < len(self.maps):
            return self.maps[q]
        src = self.source.module(q)
        return GradedMatrix(self.source.ring, src, self.target.module(q), [{}] * src.rank)

    def _verify(self):
        for q in range(1, self.source.length + 1):
            lhs = self.target.differential(q).compose(self.map(q))
            rhs = self.map(q - 1).compose(self.source.differential(q))
            if lhs.columns != rhs.columns:
                raise InternalCheckError(f"chain map fails to commute at q={q}")


def lift_chain_map(res_W: FreeResolution, res_V: FreeResolution) -> ChainMap:
    """Inductive degree-0 lift of S/I_W ->> S/I_V over minimal resolutions."""
    if res_W.ring != res_V.ring:
        raise RingMismatchError("resolutions over different rings")
    if not check_containment(res_V.resolved, res_W.resolved):
        raise ContainmentError("the resolved ideals do not satisfy I_W <= I_V")
    ring = res_W.ring
    one = {(ring.one_mono, 0): ring.field.one}
    maps = [GradedMatrix(ring, res_W.module(0), res_V.module(0), [one])]
    for q in range(1, res_W.length + 1):
        f_q = res_W.module(q)
        g_q = res_V.module(q)
        u = maps[q - 1].compose(res_W.differential(q))
        if g_q.rank == 0:
            if not u.is_zero():
                raise InternalCheckError(
                    f"no lift possible at q={q}: target module vanished early"
                )
            maps.append(GradedMatrix(ring, f_q, g_q, [{}] * f_q.rank))
            continue
        image = column_module(res_V.differential(q))
        columns = []
        for j, col in enumerate(u.columns):
            x = image.solve(col)
            if x is None:
                raise InternalCheckError(
                    f"lift infeasible at q={q}, column {j} (should never happen)"
                )
            columns.append(x)
        phi = GradedMatrix(ring, f_q, g_q, columns)
        phi.validate_degrees()
        maps.append(phi)
    return ChainMap(res_W, res_V, maps)


class ShellReport:
    """Outcome of a shell check: verdict, per-(q, m) table, witness."""

    __slots__ = ("verdict", "method", "table", "witness")

    def __init__(self, verdict, method, table, witness=None):
        self.verdict = verdict
        self.method = method
        self.table = table
        self.witness = witness

    @property
    def is_shell(self) -> bool:
        return self.verdict == PG_SHELL

    def table_json(self):
        out = []
        for (q, m) in sorted(self.table):
            cell = self.table[(q, m)]
            out.append(
                {
                    "q": q,
                    "m": m,
                    "tor_W": cell["source_dim"],
                    "tor_V": cell["target_dim"],
                    "injective": cell["injective"],
                }
            )
        return out

    def __repr__(self):
        return f"ShellReport({self.verdict}, method={self.method})"


def _oracle_cells(I_V: Ideal, I_W: Ideal, cells):
    """The Koszul oracle's cell {source_dim, target_dim, injective} at each
    (q, m) of `cells`, and the first non-injective cell's witness cycle,
    rendered as {q, m, cycle} (None when every cell is injective)."""
    ring = I_V.ring
    table = {}
    witness = None
    for q, m in cells:
        comp = tor_comparison(I_V, I_W, q, m)
        table[(q, m)] = {
            "source_dim": comp.dim_source,
            "target_dim": comp.dim_target,
            "injective": comp.injective,
        }
        if witness is None and not comp.injective:
            terms = []
            for idx, c in sorted(comp.witness["cycle"].items()):
                T, mono = comp.witness["labels"][idx]
                wedge = "^".join(f"e[{ring.names[t]}]" for t in T) or "1"
                terms.append(f"({c})*{wedge}(x){ring.mono_str(mono)}")
            witness = {"q": q, "m": m, "cycle": " + ".join(terms)}
    return table, witness


def _oracle_table(I_V: Ideal, I_W: Ideal, cells: dict, c: int, route: str):
    """Check the cells (q, m) -> cell that `route` computed on the pair cut
    by c trailing variables against the Koszul oracle on the full pair
    I_V, I_W, all three fields of each; return the oracle's witness."""
    full, witness = _oracle_cells(I_V, I_W, cells)
    for (q, m), cell in full.items():
        if cell != cells[(q, m)]:
            raise InternalCheckError(
                f"the {route} on the Artinian reduction (c = {c}) disagrees with the "
                f"Koszul oracle on the full pair at (q={q}, m={m}): {cells[(q, m)]} != {cell}"
            )
    return witness


def _verdict(table) -> str:
    return PG_SHELL if all(cell["injective"] for cell in table.values()) else NOT_PG_SHELL


def _require_proper(I: Ideal, name: str):
    # a homogeneous ideal is the unit ideal iff a generator is a constant
    if I.contains_unit() or (not I.homogeneous and groebner_basis(I).is_unit_ideal()):
        raise PreconditionError(f"ideal {name} is the unit ideal (empty scheme)")


def _require_shell_pair(I_V: Ideal, I_W: Ideal):
    if not check_containment(I_V, I_W):
        raise ContainmentError("I_W is not contained in I_V")
    _require_proper(I_V, "V")
    _require_proper(I_W, "W")


def pgshell_check(I_V: Ideal, I_W: Ideal, oracle_spot: bool = True) -> ShellReport:
    """Shell verdict via the chain-map route.

    The target is truncated to the degrees mu_q can see.  Let D be the
    largest twist in F_q, q >= 1, of the resolution of S/I_W, read off
    `betti_table(I_W)`, and J the ideal of the generators of I_V of
    degree <= D (I_V itself when none is dropped).  Every degree m of
    mu_q is <= D, and in degree m, mu_q is the map on Koszul homology
    H_q(z; -)_m, which reads its modules in degrees <= m only.
    S/I_W ->> S/I_V factors through S/J, and S/J ->> S/I_V is an
    isomorphism in degrees <= D, since those generators span
    (I_V)_{<=D}.  So lifting onto the resolution of S/J gives exactly
    the table and verdict of I_V.

    The lift runs on the pair (J, I_W) cut by `artinian_reduction`: its
    last c variables are regular on both quotients, so each mu_q cell of
    the cut pair is the cell of (J, I_W).  The pair is cut with J, not
    I_V, so no Groebner basis of I_V is needed beyond the shell
    preconditions.

    The first failing cell, and with `oracle_spot` every q = 1 cell, is
    checked against the Koszul oracle on the full pair I_V, I_W.  Each
    oracle cell must equal the chain cell in all three fields, so the
    oracle also certifies the cut and the truncated target's dimension
    target_dim; any difference raises InternalCheckError.  The witness
    comes from that oracle, in the original variables.
    """
    _require_shell_pair(I_V, I_W)
    bt_w = betti_table(I_W)
    I_V.require_homogeneous()
    top = max((m for (q, m) in bt_w.entries if q >= 1), default=0)
    gens = [g for g in I_V.generators if g.homogeneous_degree() <= top]
    target = I_V if len(gens) == len(I_V.generators) else Ideal(I_V.ring, gens)
    c, (cut_j, cut_w) = artinian_reduction(target, I_W)
    res_w = minimal_resolution(cut_w)
    cm = lift_chain_map(res_w, minimal_resolution(cut_j))
    field = I_V.ring.field
    one = cut_w.ring.one_mono
    table = {}
    for q in range(1, res_w.length + 1):
        # mu_q in degree m: the constant terms of phi_q between twist-m basis vectors
        phi = cm.map(q)
        for m in sorted(set(phi.source.twists)):
            src_idx = [j for j, t in enumerate(phi.source.twists) if t == m]
            tgt_idx = [i for i, t in enumerate(phi.target.twists) if t == m]
            pos = {i: k for k, i in enumerate(tgt_idx)}
            cols = [{pos[i]: c for (mono, i), c in phi.columns[j].items()
                     if mono == one and i in pos} for j in src_idx]
            table[(q, m)] = {
                "source_dim": len(src_idx),
                "target_dim": len(tgt_idx),
                "injective": not eliminate(cols, len(tgt_idx), field)[1],
            }
    cells = [k for k in sorted(table) if not table[k]["injective"]][:1]
    if oracle_spot:
        cells += [k for k in sorted(table) if k[0] == 1]
    witness = _oracle_table(I_V, I_W, {k: table[k] for k in cells}, c, "chain map")
    return ShellReport(_verdict(table), "chain-map", table, witness)


def pgshell_check_oracle(I_V: Ideal, I_W: Ideal) -> ShellReport:
    """Shell verdict via Koszul homology only (no resolutions).

    The sweep runs on the pair cut by `artinian_reduction`: the last c
    variables divide no lead monomial of either reduced grevlex basis
    (Bayer-Stillman), so they form a regular sequence on both quotients,
    and Tor^S_q(S/I, k) = Tor^{S'}_q(S'/I', k) naturally in S/I.  Every
    mu_q cell of the cut pair is the cell of the full pair, with N + 1 - c
    variables instead of N + 1.  The cut is also checked against the
    Hilbert series numerator of each ideal.  When c >= 1, the first
    non-injective cell is recomputed on the full pair, which gives the
    witness in the original variables; it must equal the cut cell in all
    three fields, or InternalCheckError is raised.

    The sweep range comes from the lead-term (Taylor) bound on the
    source Betti support, which is independent of any resolution.
    """
    _require_shell_pair(I_V, I_W)
    c, (cut_v, cut_w) = artinian_reduction(I_V, I_W)
    max_q = min(cut_w.ring.num_vars, len(groebner_basis(cut_w).elements))
    # lazy, so each source piece is built just before its comparison
    cells = (
        (q, m)
        for q in range(1, max_q + 1)
        for m in range(taylor_degree_bound(cut_w, q) + 1)
        if koszul_tor(cut_w, q, m).dimension
    )
    table, witness = _oracle_cells(cut_v, cut_w, cells)
    if c and witness:
        cell = (witness["q"], witness["m"])
        witness = _oracle_table(I_V, I_W, {cell: table[cell]}, c, "Koszul oracle")
    return ShellReport(_verdict(table), "koszul-oracle", table, witness)


def pgshell_report(I_V: Ideal, I_W: Ideal, method: str = "chain") -> ShellReport:
    """Dispatch on method: chain (with q=1 oracle spot-check), oracle, both.

    `both` runs the chain route with its spot check, so its q = 1 cells
    are also checked on the full pair, and compares the two tables; the
    verdict is a function of the table.
    """
    if method == "chain":
        return pgshell_check(I_V, I_W, oracle_spot=True)
    if method == "oracle":
        return pgshell_check_oracle(I_V, I_W)
    if method == "both":
        chain = pgshell_check(I_V, I_W, oracle_spot=True)
        oracle = pgshell_check_oracle(I_V, I_W)
        if chain.table != oracle.table:
            raise InternalCheckError("methods disagree on the per-(q,m) table")
        return ShellReport(chain.verdict, "both", chain.table, oracle.witness)
    raise EngineError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# invariants


class InvariantRecord:
    # in the order the `invariants` command prints them
    __slots__ = (
        "dim",
        "codim",
        "degree",
        "depth",
        "pd",
        "reg_R",
        "reg_I",
        "delta_genus",
        "is_complete_intersection",
        "is_2linear",
        "is_ACM",
        "nondegenerate",
        "delta_lower_bound_only",
        "num_min_gens",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_json(self):
        out = {k: getattr(self, k) for k in self.__slots__}
        out["num_min_gens"] = {str(m): v for m, v in sorted(self.num_min_gens.items())}
        return out

    def __repr__(self):
        return f"InvariantRecord({self.to_json()})"


@memoized
def invariants(I: Ideal) -> InvariantRecord:
    """Dimension, degree, depth, regularity and the derived flags.

    The Delta-genus uses h^0(O(1)) = N+1, which is only the true value
    for nondegenerate arithmetically normal embeddings; when V is
    degenerate the record flags delta as a lower bound only.
    """
    ring = I.ring
    if not ring.standard_graded:
        raise WeightedRingError("invariants need a standard-graded ring")
    _require_proper(I, "I")
    bt = betti_table(I)
    reg_r, reg_i, pd, depth = regularity_and_depth(bt, ring)
    dim, degree = bt.dimension_degree(ring)
    n_proj = ring.num_vars - 1
    codim = n_proj - dim
    num_min_gens = {m: bt.get(1, m) for m in bt.row_support(1)}
    is_ci = bt.total(1) == codim
    is_2lin = all(m == q + 1 for (q, m) in bt.entries if q >= 1)
    is_acm = depth == dim + 1
    nondeg = bt.get(1, 1) == 0  # I_1 = (I / S_+ I)_1 for proper I
    delta = dim + degree - ring.num_vars
    return InvariantRecord(
        dim=dim,
        codim=codim,
        degree=degree,
        depth=depth,
        pd=pd,
        reg_R=reg_r,
        reg_I=reg_i,
        delta_genus=delta,
        num_min_gens=num_min_gens,
        is_complete_intersection=is_ci,
        is_2linear=is_2lin,
        is_ACM=is_acm,
        nondegenerate=nondeg,
        delta_lower_bound_only=not nondeg,
    )


def ci_chain_report(I: Ideal) -> dict:
    """Degree sequence and length-1 composition datum for a detected CI.

    For a complete intersection cut by forms of degrees (m_1..m_r) the
    resolution is the Koszul complex on those degrees; the report
    certifies the Betti shape and emits the twist sequence of the
    single splitting bundle (+)_s O(m_s).
    """
    inv = invariants(I)
    if not inv.is_complete_intersection:
        raise PreconditionError("not a complete intersection")
    bt = betti_table(I)
    degrees = sorted(bt.degrees_of(1))
    koszul = reduce(BettiTable.convolve, (BettiTable({(0, 0): 1, (1, d): 1}) for d in degrees),
                    BettiTable({(0, 0): 1}))
    if koszul != bt:
        raise InternalCheckError("CI flag set but the Betti table is not Koszul-shaped")
    return {
        "degrees": degrees,
        "series_length": 1,
        "bundle_twists": degrees,
        "koszul_certified": True,
    }


# ---------------------------------------------------------------------------
# criteria suite


def ideal_power_plus(I_V: Ideal, power: int, I_W: Ideal) -> Ideal:
    """I_V^power + I_W with explicit product expansion of the generators."""
    ring = I_V.ring
    gens = []
    for combo in combinations_with_replacement(I_V.generators, power):
        p = combo[0]
        for g in combo[1:]:
            p = p * g
        gens.append(p)
    gens.extend(I_W.generators)
    return Ideal(ring, gens)


def part_of_minimal_generators(I_W: Ideal, I_V: Ideal) -> bool:
    """Do the minimal generators of I_W extend to minimal generators of I_V?

    True iff their images in (I_V / S_+ I_V) are linearly independent:
    iff the one Buchberger pass over them followed by the generators of
    I_V keeps every one of them.  Ties in degree keep input order, so in
    each degree the W generators enter first.
    """
    w_gens = minimal_generators(I_W)
    vectors = [poly_to_vector(g) for g in (*w_gens, *I_V.generators)]
    kept: list[int] = []
    module_groebner(vectors, I_V.ring, (0,), kept=kept)
    return set(range(len(w_gens))) <= set(kept)


def criteria_suite(I_V: Ideal, I_W: Ideal) -> dict:
    """Run every applicable consistency criterion against the direct verdict.

    Each record carries: applicable?, the predicted verdict or
    inequality, the observation, and a consistency flag.  Inapplicable
    criteria are skipped with a reason.  An inconsistency can only come
    from an engine bug, so the caller may escalate on consistent=False.
    """
    if not check_containment(I_V, I_W):
        raise ContainmentError("I_W is not contained in I_V")
    if not I_V.ring.standard_graded:
        raise WeightedRingError("criteria need a standard-graded ring")
    direct = pgshell_check(I_V, I_W, oracle_spot=True)
    observed = direct.verdict
    inv_v = invariants(I_V)
    inv_w = invariants(I_W)
    records = []

    def record(criterion, applicable, reason="", predicted=None, detail="", consistent=None):
        records.append(
            {
                "criterion": criterion,
                "applicable": applicable,
                "reason": reason,
                "predicted": predicted,
                "detail": detail,
                "consistent": consistent,
            }
        )

    # hypersurface case: W cut by one equation
    if inv_w.pd == 0:
        record("hypersurface-minimal-generator", False, reason="W is the whole space")
    elif sum(inv_w.num_min_gens.values()) == 1:
        f = minimal_generators(I_W)[0]
        pred = PG_SHELL if is_minimal_generator(f, I_V) else NOT_PG_SHELL
        record(
            "hypersurface-minimal-generator",
            True,
            predicted=pred,
            detail=f"single equation of degree {f.homogeneous_degree()}",
            consistent=pred == observed,
        )
    else:
        record("hypersurface-minimal-generator", False, reason="W is not a hypersurface")

    # complete-intersection case: exact criterion when V is a CI
    if inv_v.is_complete_intersection:
        part = part_of_minimal_generators(I_W, I_V)
        pred = PG_SHELL if part else NOT_PG_SHELL
        record(
            "complete-intersection-subset",
            True,
            predicted=pred,
            detail="W generators independent in I_V/S_+I_V" if part else
                   "W generators dependent in I_V/S_+I_V",
            consistent=pred == observed,
        )
    else:
        record("complete-intersection-subset", False, reason="V is not a complete intersection")

    # transitivity to infinitesimal neighborhoods of V in W
    if observed == PG_SHELL:
        for order in (1, 2):
            i_y = ideal_power_plus(I_V, order + 1, I_W)
            sub = pgshell_check(i_y, I_W, oracle_spot=False)
            record(
                f"infinitesimal-neighborhood-m{order}",
                True,
                predicted=PG_SHELL,
                detail=f"W against I_V^{order + 1} + I_W",
                consistent=sub.verdict == PG_SHELL,
            )
    else:
        record(
            "infinitesimal-neighborhood",
            False,
            reason="only predicted for positive verdicts",
        )

    # arithmetic depth inequality (necessary for a positive verdict)
    ok_depth = inv_v.depth <= inv_w.depth
    record(
        "depth-inequality",
        True,
        predicted=f"depth(V)={inv_v.depth} <= depth(W)={inv_w.depth}",
        detail="necessary condition",
        consistent=(observed == NOT_PG_SHELL) or ok_depth,
    )

    # regularity inequality, needs depth(V) >= 2
    if inv_v.depth >= 2:
        ok_reg = inv_v.reg_R >= inv_w.reg_R
        record(
            "regularity-inequality",
            True,
            predicted=f"reg(V)={inv_v.reg_R} >= reg(W)={inv_w.reg_R}",
            detail="necessary condition given depth(V) >= 2",
            consistent=(observed == NOT_PG_SHELL) or ok_reg,
        )
    else:
        record("regularity-inequality", False, reason="depth(V) < 2")

    # V cut out of an ACM W by a regular sequence of hypersurfaces
    if inv_v.depth >= 2 and inv_w.is_ACM:
        extras = [g for g in minimal_generators(I_V) if not membership(g, I_W)]
        gens_match = same_ideal(Ideal(I_V.ring, I_W.generators + tuple(extras)), I_V)
        codim_drop = inv_v.dim == inv_w.dim - len(extras)
        if gens_match and codim_drop and extras:
            record(
                "regular-section-of-acm",
                True,
                predicted=PG_SHELL,
                detail=f"{len(extras)} extra hypersurfaces, codimension additive",
                consistent=observed == PG_SHELL,
            )
        else:
            record(
                "regular-section-of-acm",
                False,
                reason="I_V is not I_W plus a codimension-additive hypersurface sequence",
            )
    else:
        record(
            "regular-section-of-acm",
            False,
            reason="needs depth(V) >= 2 and W arithmetically Cohen-Macaulay",
        )

    # 2-linear W over nondegenerate V
    if inv_v.nondegenerate and inv_w.is_2linear:
        record(
            "two-linear-shell",
            True,
            predicted=PG_SHELL,
            detail="W has a 2-linear resolution and V is nondegenerate",
            consistent=observed == PG_SHELL,
        )
    else:
        reason = "V is degenerate" if not inv_v.nondegenerate else "W is not 2-linear"
        record("two-linear-shell", False, reason=reason)

    return {
        "direct": direct,
        "observed": observed,
        "criteria": records,
        "all_consistent": all(r["consistent"] is not False for r in records),
    }


# ---------------------------------------------------------------------------
# tensor resolutions of ACM intersections


def tensor_resolution(I_Y: Ideal, I_Z: Ideal):
    """Tensor complex of the two minimal resolutions, certified.

    Preconditions (checked): both quotients arithmetically
    Cohen-Macaulay and codim(I_Y + I_Z) = codim I_Y + codim I_Z.  The
    differential uses the sign d(x (x) y) = dx (x) y + (-1)^p x (x) dy
    on the bidegree-(p, *) block.  The certified complex is returned
    together with a report; both factors are confirmed as shells of the
    intersection.
    """
    if I_Y.ring != I_Z.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I_Y.ring
    if not ring.standard_graded:
        raise WeightedRingError("tensor resolutions need a standard-graded ring")
    inv_y = invariants(I_Y)
    inv_z = invariants(I_Z)
    if not inv_y.is_ACM:
        raise PreconditionError("first ideal is not arithmetically Cohen-Macaulay")
    if not inv_z.is_ACM:
        raise PreconditionError("second ideal is not arithmetically Cohen-Macaulay")
    I_X = Ideal(ring, I_Y.generators + I_Z.generators)
    _require_proper(I_X, "Y+Z")
    res_y = minimal_resolution(I_Y)
    res_z = minimal_resolution(I_Z)
    # codimension additivity, read off the Betti table of the cut I_X
    codim_x = invariants(I_X).codim
    if codim_x != inv_y.codim + inv_z.codim:
        raise PreconditionError(
            f"codimension not additive: codim(Y+Z)={codim_x}, "
            f"codim(Y)+codim(Z)={inv_y.codim + inv_z.codim}"
        )

    a, b = res_y.length, res_z.length
    neg = ring.field.neg

    def block_range(q):
        return [(p, q - p) for p in range(max(0, q - b), min(a, q) + 1)]

    # basis layout per homological degree
    layouts = []
    modules = []
    for q in range(a + b + 1):
        layout = {}
        twists = []
        offset = 0
        for (p, r) in block_range(q):
            fp = res_y.module(p)
            gr = res_z.module(r)
            layout[(p, r)] = offset
            for i in range(fp.rank):
                for j in range(gr.rank):
                    twists.append(fp.twists[i] + gr.twists[j])
            offset += fp.rank * gr.rank
        layouts.append(layout)
        modules.append(GradedFreeModule(twists))

    differentials = []
    for q in range(1, a + b + 1):
        columns = []
        for (p, r) in block_range(q):
            d_f = res_y.differential(p)
            d_g = res_z.differential(r)
            g_rank = res_z.module(r).rank
            g_prev = res_z.module(r - 1).rank
            # dx (x) y lands in block (p-1, r) and x (x) dy in block (p, r-1),
            # so their terms never share a key
            f_base = layouts[q - 1].get((p - 1, r))
            g_base = layouts[q - 1].get((p, r - 1))
            for i in range(res_y.module(p).rank):
                for j in range(g_rank):
                    col = {}
                    if p >= 1:
                        for (m, i2), c in d_f.columns[i].items():
                            col[(m, f_base + i2 * g_rank + j)] = c
                    if r >= 1:
                        for (m, j2), c in d_g.columns[j].items():
                            col[(m, g_base + i * g_prev + j2)] = neg(c) if p % 2 else c
                    columns.append(col)
        differentials.append(GradedMatrix(ring, modules[q], modules[q - 1], columns))

    res_x = FreeResolution(ring, modules, differentials, I_X)
    report_checks = verify_complex(res_x)
    if not report_checks.ok:
        raise InternalCheckError(
            f"tensor complex failed verification: {report_checks.failed()}"
        )
    bt_tensor = betti(res_x)
    conv = betti_table(I_Y).convolve(betti_table(I_Z))
    if bt_tensor != conv:
        raise InternalCheckError("tensor Betti table is not the convolution")
    shell_y = pgshell_check(I_X, I_Y, oracle_spot=False)
    shell_z = pgshell_check(I_X, I_Z, oracle_spot=False)
    if not (shell_y.is_shell and shell_z.is_shell):
        raise InternalCheckError("a tensor factor failed its shell verdict")
    report = {
        "sum_ideal": I_X,
        "codim_additive": True,
        "betti": bt_tensor,
        "convolution_matches": True,
        "verify": report_checks,
        "shell_Y": shell_y,
        "shell_Z": shell_z,
    }
    return res_x, report
