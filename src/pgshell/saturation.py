"""Ideal quotients by powers, intersections, and saturation at S_+.

(I : f^inf) uses the classical trick: adjoin t, compute a Groebner
basis of I + (t*f - 1) under an order eliminating t, keep the t-free
elements.  I cap J uses t*I + (1-t)*J with the same elimination.  The
saturation at the irrelevant ideal is the intersection over all
variables, cap_i (I : z_i^inf), taken once: that intersection already
equals (I : S_+^inf).  Composing the single-variable saturations
instead would wrongly delete components lying inside coordinate
hyperplanes.  Whether I is saturated at all is read off its minimal
resolution (`resolution.is_saturated`), so the eliminations run only
on ideals that do change.

All three are graded operations and raise NotHomogeneousError on an
inhomogeneous ideal or polynomial.
"""

from __future__ import annotations

from .errors import EngineError, NotHomogeneousError
from .groebner import buchberger_list
from .poly import Ideal, Polynomial
from .resolution import is_saturated
from .rings import PolyRing


def _lift(p: Polynomial, ext: PolyRing) -> Polynomial:
    return Polynomial(ext, {m + (0,): c for m, c in p.terms.items()})


def _drop(p: Polynomial, ring: PolyRing) -> Polynomial:
    return Polynomial(ring, {m[:-1]: c for m, c in p.terms.items()})


def _eliminate_and_normalize(gens_ext, ext: PolyRing, ring: PolyRing) -> Ideal:
    """Groebner-eliminate the last variable and return a canonical ideal.

    The t-free part of the basis generates the contraction to S.  For a
    homogeneous contraction it is homogeneous, because the order of
    `ext` restricts to a graded order on S; a reduced basis in the order
    of S makes the output independent of the elimination path.
    """
    basis = buchberger_list(gens_ext, ext)
    pieces = [_drop(p, ring) for p in basis if all(m[-1] == 0 for m in p.terms)]
    return Ideal(ring, buchberger_list(pieces, ring))


def ideal_quotient_saturation(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^inf), generated by the t-free basis of I + (t*f - 1)."""
    if f.is_zero():
        raise EngineError("cannot saturate by the zero polynomial")
    ring = I.ring
    if f.ring != ring:
        raise EngineError("polynomial from a different ring")
    I.require_homogeneous()
    if f.homogeneous_degree() is None:
        raise NotHomogeneousError(f"inhomogeneous polynomial: {f}")
    ext = ring.extended_elimination_ring()
    t = Polynomial.variable(ext, ext.num_vars - 1)
    gens = [_lift(g, ext) for g in I.generators]
    gens.append(t * _lift(f, ext) - Polynomial.constant(ext, 1))
    return _eliminate_and_normalize(gens, ext, ring)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via elimination on t*I + (1-t)*J."""
    ring = I.ring
    if J.ring != ring:
        raise EngineError("ideals live in different rings")
    I.require_homogeneous()
    J.require_homogeneous()
    if not I.generators or not J.generators:
        return Ideal(ring, [])
    ext = ring.extended_elimination_ring()
    t = Polynomial.variable(ext, ext.num_vars - 1)
    one_minus_t = Polynomial.constant(ext, 1) - t
    gens = [t * _lift(g, ext) for g in I.generators]
    gens += [one_minus_t * _lift(h, ext) for h in J.generators]
    return _eliminate_and_normalize(gens, ext, ring)


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
