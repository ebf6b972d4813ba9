"""The shell predicate: the verdict and its two routes.

W is a pregeometric shell of V (for ideals I_W <= I_V, i.e. V inside W)
when every comparison map on Tor against the residue field,

    mu_q : Tor_q(S/I_W, k) -> Tor_q(S/I_V, k),   q >= 1,

is injective.  Two independent routes are implemented:

* chain-map: lift the quotient surjection to a degree-0 chain map of
  minimal free resolutions and reduce mod S_+ (minimality makes the
  reduction canonical, not just rank-canonical);
* koszul-oracle: realize mu_q on Koszul homology of the variable
  sequence, resolution-free.

Both routes run on the Artinian reduction of
`hilbert.artinian_reduction`: trailing variables that are regular on
every quotient are cut, which changes no Betti number and no cell of
mu_q.  A cell is {tor_W, tor_V, injective}: the dimensions of the two
Tor pieces in degree m and whether mu_q is injective there.  The oracle
route never compiles `resolution` or `modules`: only the chain route
imports them.

Every route ends in one certificate, `_certify`: the first failing cell
of its table, and for the chain route with the spot check every q = 1
cell, must equal the Koszul oracle's cell on the full, uncut pair, or
InternalCheckError is raised.  `--method both` also compares the two
whole tables.  Negative verdicts always carry the witness of that
certificate: a nonzero source Tor class, verified by the oracle on the
full pair and written in the original variables, mapped to zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import (
    ContainmentError,
    EngineError,
    InternalCheckError,
    RingMismatchError,
)
from .groebner import groebner_basis, membership, require_proper
from .hilbert import artinian_reduction
from .koszul import koszul_tor, lyubeznik_degrees, tor_comparison
from .linalg import eliminate
from .poly import Ideal

if TYPE_CHECKING:
    from .modules import GradedMatrix
    from .resolution import FreeResolution

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
    commutation with the differentials is verified exactly on construction.
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
        from .modules import GradedMatrix

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
    from .modules import GradedMatrix
    from .resolution import column_module

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
        return [{"q": q, "m": m, **self.table[(q, m)]} for (q, m) in sorted(self.table)]

    def __repr__(self):
        return f"ShellReport({self.verdict}, method={self.method})"


def _cell(comp) -> dict:
    return {"tor_W": comp.dim_source, "tor_V": comp.dim_target, "injective": comp.injective}


def _certify(I_V: Ideal, I_W: Ideal, table: dict, c: int, route: str, spot: bool):
    """Check the first non-injective cell of `table`, which `route`
    computed on the pair cut by c trailing variables, and with `spot`
    every q = 1 cell, whole, against the Koszul oracle's on the full
    pair I_V, I_W; return the full pair's witness, rendered as
    {q, m, cycle} (None when every cell is injective)."""
    ring = I_V.ring
    failing = [k for k in sorted(table) if not table[k]["injective"]][:1]
    spots = [k for k in sorted(table) if k[0] == 1] if spot else []
    witness = None
    for q, m in dict.fromkeys(failing + spots):
        comp = tor_comparison(I_V, I_W, q, m)
        cell = _cell(comp)
        if cell != table[(q, m)]:
            raise InternalCheckError(
                f"the {route} on the Artinian reduction (c = {c}) disagrees with the "
                f"Koszul oracle on the full pair at (q={q}, m={m}): {table[(q, m)]} != {cell}"
            )
        if witness is None and comp.witness:
            terms = []
            for idx, x in sorted(comp.witness["cycle"].items()):
                T, mono = comp.witness["labels"][idx]
                wedge = "^".join(f"e[{ring.names[t]}]" for t in T) or "1"
                terms.append(f"({x})*{wedge}(x){ring.mono_str(mono)}")
            witness = {"q": q, "m": m, "cycle": " + ".join(terms)}
    return witness


def _verdict(table) -> str:
    return PG_SHELL if all(cell["injective"] for cell in table.values()) else NOT_PG_SHELL


def _require_shell_pair(I_V: Ideal, I_W: Ideal):
    if not check_containment(I_V, I_W):
        raise ContainmentError("I_W is not contained in I_V")
    require_proper(I_V, "V")
    require_proper(I_W, "W")


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

    The table goes to `_certify`, the certificate of every route: its
    first failing cell, and with `oracle_spot` every q = 1 cell, must
    equal the Koszul oracle's cell on the full pair I_V, I_W, so the
    oracle also certifies the cut and the truncated target's tor_V.
    The witness comes from that oracle, in the original variables.
    """
    from .resolution import betti_table, minimal_resolution

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
                "tor_W": len(src_idx),
                "tor_V": len(tgt_idx),
                "injective": not eliminate(cols, len(tgt_idx), field)[1],
            }
    witness = _certify(I_V, I_W, table, c, "chain map", oracle_spot)
    return ShellReport(_verdict(table), "chain-map", table, witness)


def pgshell_check_oracle(I_V: Ideal, I_W: Ideal) -> ShellReport:
    """Shell verdict via Koszul homology only (no resolutions).

    The sweep runs on the pair cut by `artinian_reduction`: the last c
    variables divide no lead monomial of either reduced grevlex basis
    (Bayer-Stillman), so they form a regular sequence on both quotients,
    and Tor^S_q(S/I, k) = Tor^{S'}_q(S'/I', k) naturally in S/I.  Every
    mu_q cell of the cut pair is the cell of the full pair, with N + 1 - c
    variables instead of N + 1.  The cut is also checked against the
    Hilbert series numerator of each ideal.  The table goes to
    `_certify`, as in the chain route: its first non-injective cell must
    equal the full pair's, which gives the witness in the original
    variables.  When c = 0 the cut pair is the full pair, and the check
    reads the memoized comparison.

    The sweep visits only the degrees `koszul.lyubeznik_degrees` lists
    for the cut source: Betti numbers only grow under passage to the
    lead-term ideal, whose Lyubeznik resolution has a basis element in
    degree m for every nonzero source cell (q, m).  It reads lead
    monomials only, so this route builds no resolution.
    """
    _require_shell_pair(I_V, I_W)
    c, (cut_v, cut_w) = artinian_reduction(I_V, I_W)
    # lazy, so each source piece is built just before its comparison
    cells = (
        (q, m)
        for q in range(1, cut_w.ring.num_vars + 1)
        for m in lyubeznik_degrees(cut_w, q)
        if koszul_tor(cut_w, q, m).dimension
    )
    table = {(q, m): _cell(tor_comparison(cut_v, cut_w, q, m)) for q, m in cells}
    witness = _certify(I_V, I_W, table, c, "Koszul oracle", False)
    return ShellReport(_verdict(table), "koszul-oracle", table, witness)


def pgshell_report(I_V: Ideal, I_W: Ideal, method: str = "chain") -> ShellReport:
    """Dispatch on method: chain (with q=1 oracle spot-check), oracle, both.

    `both` runs the chain route with its spot check, so its q = 1 cells
    are also checked on the full pair, and compares the two tables; the
    verdict is a function of the table.  Both routes certify the same
    failing cell, so its full-pair comparison is computed once.
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
