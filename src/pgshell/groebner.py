"""Buchberger engine for ideals and submodules of graded free modules.

Everything is built on one representation: a *vector* is a dict mapping
(monomial, position) -> nonzero coefficient, inside a free module whose
positions carry twists.  An ideal element is a vector of rank 1
(position always 0, twist 0).  One engine, `module_groebner`, serves
normal forms, ideal membership, minimal generating sets and every
minimal-generator test (is a form, or a set of forms, independent
modulo S_+ I?), syzygies (via an elimination block order on an
extended module), chain-map lifting and saturation (via a z_i-last
order).  The ring's grevlex is the default order; every other order
is a term key passed to the engine.  The lead monomials of the reduced
basis certify saturation at S_+ (`is_saturated`).

Strategy: S-pairs sit in a heap ordered by their twisted degree, then
by the pass's term key of (lcm, position), smallest first, then by
basis index.  Input vectors are not all loaded at the start: each
enters in increasing degree of its lead term, once every pair of no
larger degree has been processed, and is kept only if its normal form
against the basis so far is nonzero.  For homogeneous input that basis
is a truncated Groebner basis in the input's degree, so the inputs that
survive form a minimal generating subset, and under a block order so do
the syzygies that enter (La Scala-Stillman; `module_groebner`).  The
product criterion is used for ideals only, the chain criterion always.

Reduction: `reduce_vector` divides the largest remaining term first.
Every term key is one flat int tuple, memoized per term by
`_memoized_term_key`, that sorts terms in descending order: the largest
term has the least key.  So the terms still to divide sit in a min-heap
under the key itself.  A term is pushed when it enters the work vector
and skipped when popped after it has cancelled, so a step costs
O(log n), not a scan of the whole work vector.

Arithmetic: one integer form serves both fields, on Python operators,
with no `Field` method call per coefficient.  Every basis vector, in a
pass and in the reduced basis of `groebner_basis`, has integer
coefficients and is normalized at its lead term by `fields.primitive`,
the normalizer `linalg.RowSpace` uses too: monic over GF(p), where each
new coefficient is taken mod p; primitive (gcd 1, positive lead
coefficient) over QQ.  Every subtraction of one vector's multiple from
another is `fields.clear_at`, `RowSpace`'s row operation, which
`--field-check` checks: an S-polynomial clears q_f f at the lcm of the
leads by q_g g, so each is scaled by the other's lead coefficient over
their gcd and a monic pair needs no scaling, and a division step clears
the work vector by q g.  A pass keeps each reducer multiple q g it
builds, in one table that lives as long as the pass.  Over QQ,
`reduce_vector` clears denominators on entry and pseudo-divides: each
step scales the work vector by an integer, the partial remainder by the
same, and every few steps both are divided by their common content.
Every vector so produced is a nonzero multiple of the one the field
arithmetic would give, so pairs, zero reductions and kept inputs are
the same.  `field_remainder` divides that multiple out for the readers
of field values; printed bases are made monic as `Polynomial`s.

Determinism: ties keep input order.  Only `groebner_basis` interreduces
a pass's basis, to the reduced basis, which is unique and so independent
of generator permutation.  The other callers read kept inputs, recorded
syzygies or normal forms, the last the same against any Groebner basis.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import NotHomogeneousError, PreconditionError, RingMismatchError
from .fields import canonical, clear_at, clear_denominators, primitive
from .memo import memoized
from .poly import Ideal, Polynomial
from .rings import PolyRing

# ---------------------------------------------------------------------------
# module term orders


def _memoized_term_key(compute):
    """The term key `compute`, memoized per term.

    Every term key sorts terms in descending order: a smaller key is a
    larger term, so the lead term is the one of least key and
    `reduce_vector`'s min-heap pops the largest term first.  The memo
    lives as long as the key function, so reuse one key function per
    computation so that division loops share it.
    """
    cache: dict = {}

    def key(term):
        k = cache.get(term)
        if k is None:
            k = cache[term] = compute(term)
        return k

    return key


# Each key below is one flat int tuple.  The first two extend the ring's
# grevlex key `PolyRing.mono_key` by the position, so that e_0 is the
# largest.


def top_key(ring: PolyRing):
    """Term-over-position order: ring order on monomials, e_0 > e_1 > ..."""
    mono_key = ring.mono_key
    return _memoized_term_key(lambda term: (*mono_key(term[0]), term[1]))


def block_key(ring: PolyRing, block: int):
    """Elimination order: the first `block` positions dominate the rest."""
    mono_key = ring.mono_key
    return _memoized_term_key(
        lambda term: (-1 if term[1] < block else 0, *mono_key(term[0]), term[1]))


def last_variable_key(ring: PolyRing, i: int):
    """Grevlex with z_i moved to the last position.

    Among terms of one degree, fewer factors z_i means a bigger term, so
    z_i divides the lead term of a homogeneous f iff it divides f
    (Bayer-Stillman).
    """
    degree = ring.mono_degree
    return _memoized_term_key(
        lambda term: (-degree(term[0]), term[0][i],
                      *reversed(term[0][:i] + term[0][i + 1:]), term[1]))


# ---------------------------------------------------------------------------
# vector helpers


def poly_to_vector(p: Polynomial, pos: int = 0) -> dict:
    return {(m, pos): c for m, c in p.terms.items()}


def vector_component(v: dict, pos: int, ring: PolyRing) -> Polynomial:
    return Polynomial(ring, {m: c for (m, p), c in v.items() if p == pos})


def vector_lead(v: dict, key):
    return min(v, key=key)


def lead_terms(basis, key):
    """[(lead term, lead coefficient)] of each vector, as reduce_vector takes them."""
    leads = [vector_lead(v, key) for v in basis]
    return [(lt, v[lt]) for lt, v in zip(leads, basis)]


def vector_degree(v: dict, ring: PolyRing, twists) -> int | None:
    """Common twisted degree of a homogeneous vector, else None."""
    if not v:
        return 0
    degs = {ring.mono_degree(m) + twists[p] for (m, p) in v}
    if len(degs) == 1:
        return degs.pop()
    return None


# ---------------------------------------------------------------------------
# reduction and S-vectors

# pseudo-division steps over QQ between two divisions by the content
CONTENT_STEPS = 8


def _multiple(q, v, ring: PolyRing) -> dict:
    """The vector q v, for q a monomial."""
    mono_mul = ring.mono_mul
    return {(mono_mul(q, m), pos): c for (m, pos), c in v.items()}


def reduce_vector(v, basis, lead_terms, key, ring: PolyRing, multiples=None) -> dict:
    """Full normal form of v against basis (first matching divisor wins).

    The terms still to divide sit in a min-heap under `key`, pushed when
    they enter the work vector; a popped term that has since cancelled
    is skipped.  Every term a division step adds lies below the term it
    cancels, so terms leave the work vector largest first and the
    remainder is built in decreasing term order.  `key` is a term key
    as this module builds them: a smaller key is a larger term.

    The basis is one the engine keeps: integer vectors, monic over
    GF(p) and primitive over QQ, where v is cleared of denominators on
    entry.  A step clears the work vector at the term it cancels by the
    reducer multiple q basis[idx], with `fields.clear_at`, the row
    operation of `linalg.RowSpace`; over QQ that pseudo-divides, so the
    partial remainder is scaled by the factor it returns, and every
    CONTENT_STEPS steps both are divided by their common content.  The
    remainder is the field remainder times a nonzero scalar, normalized
    by `fields.primitive`; `field_remainder` reads the field remainder
    itself.  `multiples` maps (idx, q) to q basis[idx]: `module_groebner`
    keeps one per pass, so that each multiple is built once in a pass.
    """
    p = ring.field.characteristic
    mono_div = ring.mono_div
    if multiples is None:
        multiples = {}
    work = dict(v) if p else clear_denominators(v)[0]
    heap = [(key(t), t) for t in work]
    heapify(heap)
    remainder = {}
    nbasis = len(basis)
    steps = 0
    while work:
        t = heappop(heap)[1]
        if t not in work:
            continue
        tm, tp = t
        for idx in range(nbasis):
            (gm, gp), _ = lead_terms[idx]
            if gp != tp:
                continue
            q = mono_div(tm, gm)
            if q is None:
                continue
            row = multiples.get((idx, q))
            if row is None:
                row = multiples[idx, q] = _multiple(q, basis[idx], ring)
            for k in row:
                if k not in work:
                    heappush(heap, (key(k), k))
            steps += 1
            if not p and steps % CONTENT_STEPS == 0:
                d = gcd(*work.values(), *remainder.values())
                if d != 1:
                    work = {k: x // d for k, x in work.items()}
                    remainder = {k: x // d for k, x in remainder.items()}
            scale = clear_at(work, t, row, p)
            if scale != 1:
                remainder = {k: x * scale for k, x in remainder.items()}
            break
        else:
            remainder[t] = work.pop(t)
    if remainder:
        # terms leave `work` in decreasing order, so the first is the lead
        return primitive(remainder, next(iter(remainder)), p)
    return remainder


def field_remainder(v, basis, lead_terms, key, ring: PolyRing, rank: int) -> dict:
    """The normal form of v in field values.  v is reduced tagged with the
    constant monomial at position `rank` (the module's rank): no lead
    divides it, so it ends scaled by exactly the factor `reduce_vector`
    applied to the remainder, which is then divided out."""
    tag = (ring.one_mono, rank)
    r = reduce_vector({**v, tag: 1}, basis, lead_terms, key, ring)
    inverse = ring.field.of(1, r.pop(tag))
    return canonical({t: c * inverse for t, c in r.items()}, ring.field.characteristic)


def _spoly(f, g, ltf, ltg, ring: PolyRing):
    """S-vector scale_f qf f - scale_g qg g, which cancels the lead terms:
    qf f cleared at their lcm by qg g (`fields.clear_at`), so each scale
    is the other lead coefficient divided by their gcd, and both are 1
    for a monic pair (every pair over GF(p))."""
    (fm, pos), _ = ltf
    (gm, _), _ = ltg
    lcm = ring.mono_lcm(fm, gm)
    out = _multiple(ring.mono_div(lcm, fm), f, ring)
    clear_at(out, (lcm, pos), _multiple(ring.mono_div(lcm, gm), g, ring), ring.field.characteristic)
    return out


def module_groebner(vectors, ring: PolyRing, twists, key=None, kept=None, syzygies=None):
    """A Groebner basis of the submodule generated by `vectors`, as the pass
    leaves it: minimal for homogeneous input, its tails not reduced.

    The free module has rank len(twists); position p has twist
    twists[p].  The basis vectors are integer, monic over GF(p) and
    primitive over QQ.  In one degree, pairs pop smallest (lcm, position)
    first under `key`; under `block_key(ring, block)`, those inside the
    block (positions >= block) pop before the others and the inputs.

    If `kept` is a list, the indices of the inputs that survive their
    reduction on entry are appended to it; for homogeneous input they
    index a minimal generating subset.  If `syzygies` is (block, out),
    for `key` an order in which the positions < block dominate, each
    vector that enters led at a position >= block, from an input or a
    pair at a position < block, is appended to `out`.  For homogeneous
    input these minimally generate K, the part of the submodule in the
    positions >= block (La Scala-Stillman, JSC 26, 1998).  Minimal: when
    one of degree d enters, the basis holds a d-truncated Groebner basis
    of S_+ K and those recorded before it in degree d; only vectors led
    in the block reduce it, so it lies outside their span.  Generating:
    the basis vectors led in the block are a Groebner basis of K, and
    one from a pair inside the block lies in the span of earlier ones.
    """
    if key is None:
        key = top_key(ring)
    block, out = syzygies or (len(twists), None)
    mono_degree = ring.mono_degree
    mono_lcm, mono_mul = ring.mono_lcm, ring.mono_mul
    mono_divides = ring.mono_divides
    ideal = len(twists) == 1

    inputs = []  # (degree, index, vector)
    for idx, v in enumerate(vectors):
        if v:
            mono, pos = vector_lead(v, key)
            inputs.append((mono_degree(mono) + twists[pos], idx, v))
    inputs.sort(key=lambda entry: entry[:2])

    basis = []
    leads = []
    pairs = []  # heap of (degree, minus the key of (lcm, position), i, j, lcm): smallest first
    pending = set()
    multiples = {}  # (index, q) -> q basis[index]: valid while the basis only grows

    def insert(v, from_block):
        lt = vector_lead(v, key)
        new = len(basis)
        basis.append(v)
        leads.append((lt, v[lt]))
        mono, pos = lt
        if pos >= block and not from_block:
            out.append(v)
        for t in range(new):
            (mt, pt), _ = leads[t]
            if pt == pos:
                lcm = mono_lcm(mt, mono)
                order = tuple(-k for k in key((lcm, pos)))
                heappush(pairs, (mono_degree(lcm) + twists[pos], order, t, new, lcm))
                pending.add((t, new))

    nxt = 0
    while pairs or nxt < len(inputs):
        if nxt < len(inputs) and (not pairs or inputs[nxt][0] < pairs[0][0]):
            _, idx, v = inputs[nxt]
            nxt += 1
            r = reduce_vector(v, basis, leads, key, ring, multiples)
            if r:
                insert(r, False)
                if kept is not None:
                    kept.append(idx)
            continue
        _, _, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        (mi, pi), _ = leads[i]
        (mj, _), _ = leads[j]
        # product criterion (ideals only: invalid for modules)
        if ideal and mono_mul(mi, mj) == lcm:
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            (mk, pk), _ = leads[k]
            if pk != pi or not mono_divides(mk, lcm):
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], basis[j], leads[i], leads[j], ring)
        r = reduce_vector(s, basis, leads, key, ring, multiples)
        if r:
            insert(r, pi >= block)

    return basis


def _interreduce(basis, key, ring: PolyRing):
    """Reduced basis from any Groebner basis: drop divisible leads, reduce the rest."""
    leads = lead_terms(basis, key)
    mono_divides = ring.mono_divides
    kept = []
    for i in sorted(range(len(basis)), key=lambda i: key(leads[i][0]), reverse=True):
        m, pos = leads[i][0]
        if not any(leads[k][0][1] == pos and mono_divides(leads[k][0][0], m) for k in kept):
            kept.append(i)
    # `kept` is in ascending lead order, and reducing by the others
    # leaves each lead as it is: no smaller lead divides it, and a larger
    # lead cannot divide a smaller term.  So the result needs no sort.
    return [reduce_vector(basis[i], [basis[k] for k in kept if k != i],
                          [leads[k] for k in kept if k != i], key, ring) for i in kept]


# ---------------------------------------------------------------------------
# ideal-level interface


class GroebnerBasis:
    """Reduced Groebner basis of an ideal (monic `elements`) and its division data.

    `vectors`, `leads` and `key` are the interreduced basis of a pass (rank-1
    integer vectors), their lead terms and the term order.
    `kept` indexes the generators that survived their reduction on entry
    to the Buchberger pass: for homogeneous ideals, minimal generators.
    """

    __slots__ = ("ring", "elements", "kept", "key", "vectors", "leads", "lead_monomials")

    order = "grevlex"

    def __init__(self, ring: PolyRing, vectors, key, kept):
        self.ring = ring
        self.kept = tuple(kept)
        self.key = key
        self.vectors = vectors
        self.leads = lead_terms(vectors, key)
        self.lead_monomials = tuple(mono for (mono, _), _ in self.leads)
        self.elements = tuple(vector_component(v, 0, ring).monic() for v in vectors)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Remainder of full division of p by the basis."""
        if p.ring != self.ring:
            raise RingMismatchError("polynomial and basis in different rings")
        r = field_remainder(poly_to_vector(p), self.vectors, self.leads, self.key, self.ring, 1)
        return vector_component(r, 0, self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ring == self.ring
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.elements)}]"

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].degree() == 0


@memoized
def groebner_basis(I: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal, cached by value, from one pass."""
    key = top_key(I.ring)
    kept: list[int] = []
    basis = module_groebner([poly_to_vector(g) for g in I.generators], I.ring, (0,), key, kept)
    return GroebnerBasis(I.ring, _interreduce(basis, key, I.ring), key, kept)


def require_proper(I: Ideal, name: str):
    # a homogeneous ideal is the unit ideal iff a generator is a constant
    if I.contains_unit() or (not I.homogeneous and groebner_basis(I).is_unit_ideal()):
        raise PreconditionError(f"ideal {name} is the unit ideal (empty scheme)")


def _as_gb(ideal_or_gb) -> GroebnerBasis:
    if isinstance(ideal_or_gb, GroebnerBasis):
        return ideal_or_gb
    return groebner_basis(ideal_or_gb)


def normal_form(p: Polynomial, G) -> Polynomial:
    """Remainder of full division of p by the (reduced) basis G."""
    return _as_gb(G).reduce(p)


def membership(p: Polynomial, I) -> bool:
    """p in I, decided by normal form against the reduced basis."""
    return normal_form(p, I).is_zero()


def same_ideal(I: Ideal, J: Ideal) -> bool:
    return groebner_basis(I).elements == groebner_basis(J).elements


def is_saturated(I: Ideal) -> bool:
    """I = (I : S_+^inf)?  For proper I iff depth S/I >= 1, as S_+ is the
    only graded maximal ideal, for positive weights too.  A variable that
    divides no lead monomial of the reduced basis is regular on S/in(I),
    and depth S/I >= depth S/in(I), as Betti numbers only grow under
    passage to in(I); Bayer-Stillman's trailing-variable cut is one case.
    Otherwise depth S/I >= 1 iff pd S/I <= N on the Betti table.
    """
    I.require_homogeneous()
    n = I.ring.num_vars
    if len({i for m in groebner_basis(I).lead_monomials for i in range(n) if m[i]}) < n:
        return True
    from .resolution import betti_table

    return betti_table(I).max_q() < n


def standard_monomials(gb: GroebnerBasis, m: int) -> list:
    """Degree-m monomials outside the lead-term ideal, largest first.

    Their classes form a basis of (S/I)_m.
    """
    ring = gb.ring
    leads = gb.lead_monomials
    divides = ring.mono_divides
    return [
        mono
        for mono in ring.monomials_of_degree(m)
        if not any(divides(lt, mono) for lt in leads)
    ]


def minimal_generators(I: Ideal):
    """Minimal generating subset of the given generator list, as kept by
    the one Buchberger pass of `groebner_basis(I)`."""
    I.require_homogeneous()
    return [I.generators[i] for i in groebner_basis(I).kept]


def is_minimal_generator(F: Polynomial, I: Ideal) -> bool:
    """Is F part of a minimal generating system of I?

    F of degree m is one iff it is not in (S_+ I)_m, which the generators
    of I of degree < m span in degree m: iff the one Buchberger pass over
    those generators followed by F keeps F.
    """
    if F.is_zero():
        raise ValueError("zero polynomial cannot be a generator")
    m = F.homogeneous_degree()
    if m is None:
        raise NotHomogeneousError(f"inhomogeneous polynomial: {F}")
    I.require_homogeneous()
    if not membership(F, I):
        raise ValueError("polynomial does not lie in the ideal")
    lower = [poly_to_vector(g) for g in I.generators if g.homogeneous_degree() < m]
    kept: list[int] = []
    module_groebner(lower + [poly_to_vector(F)], I.ring, (0,), kept=kept)
    return len(lower) in kept
