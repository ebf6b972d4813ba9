"""Quotients by powers of a variable, intersections, and saturation at S_+.

Both constructions run on the one module Groebner engine and return the
reduced grevlex basis of the result, from `groebner_basis`.  (I : z_i^inf)
follows Bayer-Stillman: under grevlex with z_i last, z_i divides the lead
term of a form only if it divides the form, so any Groebner basis of I in
that order, each element divided by its largest power of z_i, spans it.
I cap J is generated by the sums sum_i s_i f_i over the syzygies (s ; t)
of [f_1..f_a | g_1..g_b], read off a rank-2 module with one position
eliminated.

The saturation at the irrelevant ideal is the intersection over all
variables, cap_i (I : z_i^inf), taken once: that intersection already
equals (I : S_+^inf).  Composing the single-variable saturations
instead would wrongly delete components lying inside coordinate
hyperplanes.  Whether I is saturated at all is read off the lead
monomials of its reduced basis, or else its Betti table
(`groebner.is_saturated`), so the sweep runs only on ideals that change.

All three are graded operations and raise NotHomogeneousError on an
inhomogeneous ideal or polynomial.
"""

from __future__ import annotations

from .errors import EngineError, NotHomogeneousError, PreconditionError
from .groebner import (
    block_key,
    groebner_basis,
    is_saturated,
    last_variable_key,
    module_groebner,
    poly_to_vector,
    vector_component,
)
from .poly import Ideal, Polynomial


def ideal_quotient_saturation(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^inf) for a variable f = c*z_i: any Groebner basis of I under
    the z_i-last order, each element divided by its largest power of z_i."""
    if f.is_zero():
        raise EngineError("cannot saturate by the zero polynomial")
    ring = I.ring
    if f.ring != ring:
        raise EngineError("polynomial from a different ring")
    I.require_homogeneous()
    if f.homogeneous_degree() is None:
        raise NotHomogeneousError(f"inhomogeneous polynomial: {f}")
    mono = next(iter(f.terms))
    if len(f.terms) != 1 or sum(mono) != 1:
        raise PreconditionError(f"can only saturate by a variable, got {f}")
    i = mono.index(1)
    key = last_variable_key(ring, i)
    parts = []
    for v in module_groebner([poly_to_vector(g) for g in I.generators], ring, (0,), key):
        k = min(m[i] for m, _ in v)
        parts.append({m[:i] + (m[i] - k,) + m[i + 1:]: c for (m, _), c in v.items()})
    return Ideal(ring, groebner_basis(Ideal(ring, [Polynomial(ring, t) for t in parts])).elements)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I cap J: the elements (0 ; h) of the module spanned by (f_i ; f_i)
    and (g_j ; 0), with position 0 eliminated, as recorded by its pass."""
    ring = I.ring
    if J.ring != ring:
        raise EngineError("ideals live in different rings")
    I.require_homogeneous()
    J.require_homogeneous()
    if not I.generators or not J.generators:
        return Ideal(ring, [])
    vectors = [{**poly_to_vector(f), **poly_to_vector(f, 1)} for f in I.generators]
    vectors += [poly_to_vector(g) for g in J.generators]
    h: list[dict] = []
    module_groebner(vectors, ring, (0, 0), block_key(ring, 1), syzygies=(1, h))
    parts = [vector_component(v, 1, ring) for v in h]
    return Ideal(ring, groebner_basis(Ideal(ring, parts)).elements)


def saturate_irrelevant(I: Ideal):
    """(saturation of I at (z_0..z_N), changed_flag).

    A saturated I comes back unchanged.  Otherwise: a form f lies in
    (I : S_+^inf) iff some power of every variable multiplies it into
    I, i.e. iff f lies in every (I : z_i^inf); so one sweep
    cap_i (I : z_i^inf) is the saturation.
    """
    if is_saturated(I):
        return I, False
    ring = I.ring
    parts = [
        ideal_quotient_saturation(I, Polynomial.variable(ring, i))
        for i in range(ring.num_vars)
    ]
    sat = parts[0]
    for p in parts[1:]:
        sat = ideal_intersection(sat, p)
    return sat, True
