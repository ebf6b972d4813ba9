"""Invariants, the criteria suite and tensor resolutions.

`invariants` reads dimension, degree, depth, regularity and the derived
flags off `betti_table`, so it runs on the Artinian reduction.  The
criteria suite checks the shell verdict of `shell.pgshell_check`
against every criterion that applies to the pair, and
`tensor_resolution` builds and certifies the tensor complex of two ACM
ideals meeting in additive codimension.  The `pgshell` command needs
none of this; only `invariants`, `criteria` and `tensor-res` load it,
and `invariants` loads no verdict code: the suite and tensor
resolutions import `shell` where they call it.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement

from .errors import (
    ContainmentError,
    InternalCheckError,
    PreconditionError,
    RingMismatchError,
    WeightedRingError,
)
from .groebner import (
    is_minimal_generator,
    membership,
    minimal_generators,
    poly_to_vector,
    require_proper,
)
from .memo import memoized
from .modules import GradedFreeModule, GradedMatrix
from .poly import Ideal
from .resolution import (
    BettiTable,
    FreeResolution,
    betti,
    betti_table,
    minimal_generating_subset,
    minimal_resolution,
    regularity_and_depth,
    verify_complex,
)


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
    require_proper(I, "I")
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
    kept = minimal_generating_subset(vectors, I_V.ring, (0,))
    return set(range(len(w_gens))) <= set(kept)


def criteria_suite(I_V: Ideal, I_W: Ideal) -> dict:
    """Run every applicable consistency criterion against the direct verdict.

    Each record carries: applicable?, the predicted verdict or
    inequality, the observation, and a consistency flag.  Inapplicable
    criteria are skipped with a reason.  An inconsistency can only come
    from an engine bug, so the caller may escalate on consistent=False.
    """
    from .shell import NOT_PG_SHELL, PG_SHELL, check_containment, pgshell_check

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
        # I_W lies in I_V, so I_W + (extras) holds every minimal generator
        # of I_V and is I_V
        extras = [g for g in minimal_generators(I_V) if not membership(g, I_W)]
        if extras and inv_v.dim == inv_w.dim - len(extras):
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
    from .shell import pgshell_check

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
    require_proper(I_X, "Y+Z")
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
                            col[(m, g_base + i * g_prev + j2)] = -c if p % 2 else c
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
