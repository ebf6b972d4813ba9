"""Deterministic constructors for the classical regression corpus.

Every entry is reproducible bit-for-bit: determinantal ideals expand
minors in a fixed cofactor order, and pseudo-random coefficients come
from SplitMix64 (Steele-Lea-Burges 64-bit generator; increment
0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB)
mapped onto {-5..5} \\ {0}, so the same seed gives the same forms in
any implementation.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import CatalogError
from .fields import Field
from .groebner import groebner_basis, minimal_generators
from .hilbert import lead_term_series
from .poly import Ideal, Polynomial
from .rings import PolyRing, standard_ring

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 stream; next() yields 64-bit values."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def small_coeff(self) -> int:
        """Uniform draw from {-5..-1, 1..5}."""
        v = self.next() % 10
        return v - 5 if v < 5 else v - 4


class CatalogEntry:
    __slots__ = ("name", "ring", "ideal", "expected", "notes")

    def __init__(self, name: str, ring: PolyRing, ideal: Ideal, expected: dict, notes: str = ""):
        self.name = name
        self.ring = ring
        self.ideal = ideal
        self.expected = expected
        self.notes = notes

    def __repr__(self):
        return f"CatalogEntry({self.name}, {self.ideal!r})"


def _det(rows, ring: PolyRing) -> Polynomial:
    """Determinant of a square matrix of polynomials, Laplace on row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero(ring)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def determinantal_minors(entries, size: int, ring: PolyRing, name: str = "minors") -> CatalogEntry:
    """Ideal of all size x size minors, rows/cols subsets in lex order."""
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    if size < 1 or size > min(nrows, ncols):
        raise CatalogError(f"no {size}x{size} minors in a {nrows}x{ncols} matrix")
    gens = []
    for rset in combinations(range(nrows), size):
        for cset in combinations(range(ncols), size):
            sub = [[entries[r][c] for c in cset] for r in rset]
            gens.append(_det(sub, ring))
    return CatalogEntry(name, ring, Ideal(ring, gens), {}, notes=f"{size}x{size} minors")


def rational_normal_curve(d: int, field: Field | None = None) -> CatalogEntry:
    """Degree-d rational normal curve in P^d: minors of the 2 x d band matrix."""
    if d < 2:
        raise CatalogError("rational normal curves need degree >= 2")
    ring = standard_ring(d + 1, field)
    z = [Polynomial.variable(ring, i) for i in range(d + 1)]
    top = [z[i] for i in range(d)]
    bottom = [z[i + 1] for i in range(d)]
    entry = determinantal_minors([top, bottom], 2, ring, name=f"rnc{d}")
    entry.expected = {
        "dim": 1,
        "codim": d - 1,
        "degree": d,
        "depth": 2,
        "is_ACM": True,
        "is_2linear": True,
        "is_complete_intersection": d == 2,
        "delta_genus": 0,
        "reg_R": 1,
    }
    entry.notes = "classical: ACM curve of minimal degree, 2-linear resolution"
    return entry


def veronese_surface(field: Field | None = None) -> CatalogEntry:
    """The Veronese surface in P^5: 2x2 minors of the symmetric 3x3 matrix."""
    ring = standard_ring(6, field)
    z = [Polynomial.variable(ring, i) for i in range(6)]
    sym = [[z[0], z[1], z[2]], [z[1], z[3], z[4]], [z[2], z[4], z[5]]]
    entry = determinantal_minors(sym, 2, ring, name="veronese")
    entry.expected = {
        "dim": 2,
        "codim": 3,
        "degree": 4,
        "depth": 3,
        "is_ACM": True,
        "is_2linear": True,
        "is_complete_intersection": False,
        "delta_genus": 0,
        "betti_totals": (1, 6, 8, 3),
    }
    entry.notes = "classical surface of minimal degree; 6 quadrics, Betti (6,8,3)"
    return entry


def scroll_surface(field: Field | None = None) -> CatalogEntry:
    """The rational normal scroll of type (1,2) in P^4."""
    ring = standard_ring(5, field)
    z = [Polynomial.variable(ring, i) for i in range(5)]
    rows = [[z[0], z[2], z[3]], [z[1], z[3], z[4]]]
    entry = determinantal_minors(rows, 2, ring, name="scroll12")
    entry.expected = {
        "dim": 2,
        "codim": 2,
        "degree": 3,
        "depth": 3,
        "is_ACM": True,
        "is_2linear": True,
        "is_complete_intersection": False,
        "delta_genus": 0,
    }
    entry.notes = "surface of minimal degree in P^4"
    return entry


def twisted_cubic_cone_p5(field: Field | None = None) -> CatalogEntry:
    """Cone over the twisted cubic, placed in P^5 (vertex a line)."""
    ring = standard_ring(6, field)
    z = [Polynomial.variable(ring, i) for i in range(6)]
    rows = [[z[0], z[1], z[2]], [z[1], z[2], z[3]]]
    entry = determinantal_minors(rows, 2, ring, name="tc-cone-p5")
    entry.expected = {
        "dim": 3,
        "codim": 2,
        "degree": 3,
        "depth": 4,
        "is_ACM": True,
        "is_complete_intersection": False,
    }
    entry.notes = "ACM threefold; tensor-factor example over the linear space (z4,z5)"
    return entry


def complete_intersection(
    degrees, seed: int = 1, num_vars: int | None = None, field: Field | None = None
) -> CatalogEntry:
    """Generic forms of the given degrees with SplitMix64 coefficients.

    Coefficients are drawn from {-5..5} \\ {0} in the deterministic
    monomial order.  The regular-sequence property is verified through
    the codimension check (raise CatalogError on an unlucky seed).
    """
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise CatalogError("at least one degree required")
    for d in degrees:
        if d < 1:
            raise CatalogError(f"form degrees must be at least 1, got {d}")
    if num_vars is None:
        num_vars = len(degrees) + 2
    if len(degrees) > num_vars - 1:
        raise CatalogError("more forms than the codimension of a point")
    ring = standard_ring(num_vars, field)
    stream = SplitMix64(seed)
    gens = []
    for d in degrees:
        terms = {}
        for mono in ring.monomials_of_degree(d):
            terms[mono] = ring.field.of(stream.small_coeff())
        gens.append(Polynomial(ring, terms))
    ideal = Ideal(ring, gens)

    expected = {
        "dim": (num_vars - 1) - len(degrees),
        "codim": len(degrees),
        "degree": math.prod(degrees),
        "is_complete_intersection": True,
        "delta_genus": (num_vars - 1) - len(degrees) + math.prod(degrees) - num_vars,
        "reg_R": sum(degrees) - len(degrees),
    }
    entry = CatalogEntry(
        f"ci-{'-'.join(map(str, degrees))}-seed{seed}", ring, ideal, expected,
        notes="generic complete intersection; coefficients from SplitMix64",
    )
    # S/I and S/in(I) share their Hilbert series, so no resolution is needed
    codim = (num_vars - 1) - lead_term_series(groebner_basis(ideal)).dimension_degree()[0]
    if codim != len(degrees):
        raise CatalogError(
            f"seed {seed} did not give a regular sequence "
            f"(codim {codim} != {len(degrees)})"
        )
    return entry


_DEFAULT_PARAMS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (1, -3), (1, 4), (1, -4)]


def points_on_rational_normal_curve(
    d: int, count: int, params=None, field: Field | None = None
) -> CatalogEntry:
    """The vanishing ideal of `count` rational points on the degree-d curve.

    Points are (s^d : s^{d-1} t : ... : t^d) for integer parameter pairs;
    without `params`, the first `count` of ten default pairs.  The
    kernels of the evaluation matrices, degree by degree, span the ideal,
    and the ranks of those matrices are the points' Hilbert function.
    The minimal generating subset of the kernels lies in the ideal I_X of
    the points, so it is I_X exactly when S/I and S/I_X have the same
    Hilbert function; that is checked on the lead-term series of its
    Groebner basis, with no resolution.
    """
    if d < 1:
        raise CatalogError(f"curve degree must be at least 1, got {d}")
    if count < 1:
        raise CatalogError(f"point count must be at least 1, got {count}")
    if params is None:
        if count > len(_DEFAULT_PARAMS):
            raise CatalogError(
                f"at most {len(_DEFAULT_PARAMS)} points without explicit parameter pairs, got {count}"
            )
        params = _DEFAULT_PARAMS[:count]
    if len(params) != count or len(set(params)) != count:
        raise CatalogError("need `count` distinct parameter pairs")
    ring = standard_ring(d + 1, field)
    pts = [[s ** (d - k) * t**k for k in range(d + 1)] for (s, t) in params]

    from .linalg import eliminate

    forms = []
    # ranks[m] = dim_k (S/I_X)_m, the rank of evaluation in degree m.  It
    # rises strictly until it reaches the number of distinct points and
    # stays there, and I_X is generated in degrees up to one past that
    # (the Castelnuovo-Mumford regularity of points)
    ranks = [1]
    while ranks[-2:] != [count, count]:
        monos = ring.monomials_of_degree(len(ranks))
        # integer values, reduced by `eliminate` on entry
        eval_cols = [{i: math.prod(map(pow, p, mono)) for i, p in enumerate(pts)} for mono in monos]
        kernel = eliminate(eval_cols, count, ring.field)[1]
        ranks.append(len(monos) - len(kernel))
        if ranks[-1] == ranks[-2] < count:
            raise CatalogError(f"the parameter pairs give {ranks[-1]} distinct points, not {count}")
        forms += [Polynomial(ring, {monos[i]: c for i, c in v.items()}) for v in kernel]

    ideal = Ideal(ring, minimal_generators(Ideal(ring, forms)))
    # I lies in I_X, so equal Hilbert functions make I = I_X.  From degree
    # deg K - N on, the values of S/I are its Hilbert polynomial, so the
    # degree and the values up to `top` cover every degree
    series = lead_term_series(groebner_basis(ideal))
    top = max(len(ranks), len(series.numerator))
    if (series.dimension_degree() != (0, count)
            or series.values(top) != ranks + [count] * (top + 1 - len(ranks))):
        raise CatalogError("point ideal does not have the Hilbert function of the points")
    return CatalogEntry(
        f"points{count}-rnc{d}",
        ring,
        ideal,
        {"dim": 0, "degree": count, "depth": 1, "is_ACM": True},
        notes=f"{count} rational points on the degree-{d} rational normal curve",
    )


def hyperplane(num_vars: int = 4, field: Field | None = None) -> CatalogEntry:
    if num_vars < 2:
        raise CatalogError(f"variable count must be at least 2, got {num_vars}")
    ring = standard_ring(num_vars, field)
    ideal = Ideal(ring, [Polynomial.variable(ring, 0)])
    return CatalogEntry(
        "hyperplane",
        ring,
        ideal,
        {"dim": num_vars - 2, "codim": 1, "degree": 1, "is_complete_intersection": True},
        notes="a coordinate hyperplane",
    )


def zero_ideal(num_vars: int = 4, field: Field | None = None) -> CatalogEntry:
    ring = standard_ring(num_vars, field)
    return CatalogEntry(
        "zero",
        ring,
        Ideal(ring, []),
        {"dim": num_vars - 1, "codim": 0, "degree": 1, "is_complete_intersection": True},
        notes="the whole projective space",
    )


# name -> (fewest and most parameters, None for no bound; what they
# are, as the count error says it; constructor on the integer parameters)
_ENTRIES = {
    "rnc": (1, 1, "1 parameter (the degree)",
            lambda p, seed, field: rational_normal_curve(*p, field)),
    "veronese": (0, 0, "no parameters", lambda p, seed, field: veronese_surface(field)),
    "scroll": (0, 0, "no parameters", lambda p, seed, field: scroll_surface(field)),
    "tc-cone": (0, 0, "no parameters", lambda p, seed, field: twisted_cubic_cone_p5(field)),
    "ci": (1, None, "at least 1 parameter (the form degrees)",
           lambda p, seed, field: complete_intersection(p, seed=seed, field=field)),
    "points-rnc": (2, 2, "2 parameters (the curve degree and the point count)",
                   lambda p, seed, field: points_on_rational_normal_curve(*p, field=field)),
    "hyperplane": (0, 1, "at most 1 parameter (the number of variables)",
                   lambda p, seed, field: hyperplane(*p, field=field)),
    "zero": (0, 1, "at most 1 parameter (the number of variables)",
             lambda p, seed, field: zero_ideal(*p, field=field)),
}

CATALOG_NAMES = tuple(_ENTRIES)


def build_catalog_entry(name: str, args, seed: int = 1, field: Field | None = None) -> CatalogEntry:
    """CLI registry: name plus integer parameters -> entry."""
    if name not in _ENTRIES:
        raise CatalogError(f"unknown catalog entry {name!r}")
    least, most, takes, build = _ENTRIES[name]
    if len(args) < least or (most is not None and len(args) > most):
        raise CatalogError(f"catalog entry {name!r} takes {takes}, got {len(args)}")
    try:
        params = [int(a) for a in args]
    except ValueError as e:
        raise CatalogError(f"bad parameters for catalog entry {name!r}: {e}") from e
    return build(params, seed, field)
