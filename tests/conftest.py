import random
import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from pgshell import (
    GradedMatrix,
    Ideal,
    Polynomial,
    PolyRing,
    complete_intersection,
    points_on_rational_normal_curve,
    rational_normal_curve,
    scroll_surface,
    standard_ring,
    twisted_cubic_cone_p5,
    veronese_surface,
)
from pgshell.groebner import poly_to_vector

# On a failing example hypothesis's report hook imports its patch writer,
# whose libcst -> mypy_extensions import warns; under `-W error` that
# warning would end the session.  Import it here, with its warnings off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "pgshell", derandomize=True, max_examples=30, deadline=None, database=None
)
settings.load_profile("pgshell")


@pytest.fixture(scope="session")
def R4():
    return standard_ring(4)


@pytest.fixture(scope="session")
def zvars(R4):
    return [Polynomial.variable(R4, i) for i in range(4)]


@pytest.fixture(scope="session")
def tc_quadrics(R4, zvars):
    z = zvars
    return (
        z[0] * z[2] - z[1] * z[1],
        z[1] * z[3] - z[2] * z[2],
        z[0] * z[3] - z[1] * z[2],
    )


@pytest.fixture(scope="session")
def twisted_cubic(R4, tc_quadrics):
    return Ideal(R4, list(tc_quadrics))


@pytest.fixture(scope="session")
def ci23():
    return complete_intersection([2, 3], seed=1)


@pytest.fixture(scope="session")
def rnc4_entry():
    return rational_normal_curve(4)


@pytest.fixture(scope="session")
def veronese_entry():
    return veronese_surface()


@pytest.fixture(scope="session")
def scroll_entry():
    return scroll_surface()


@pytest.fixture(scope="session")
def points5_entry():
    return points_on_rational_normal_curve(3, 5)


@pytest.fixture(scope="session")
def tensor_pair():
    """(Y, Z) in P^5: the twisted-cubic cone and a codim-2 linear space."""
    y = twisted_cubic_cone_p5()
    ring = y.ring
    z4 = Polynomial.variable(ring, 4)
    z5 = Polynomial.variable(ring, 5)
    return y.ideal, Ideal(ring, [z4, z5])


@pytest.fixture(scope="session")
def catalog_items(twisted_cubic, ci23, rnc4_entry, veronese_entry, scroll_entry, points5_entry):
    return {
        "twisted-cubic": twisted_cubic,
        "ci23": ci23.ideal,
        "rnc4": rnc4_entry.ideal,
        "veronese": veronese_entry.ideal,
        "scroll12": scroll_entry.ideal,
        "points5": points5_entry.ideal,
    }


@st.composite
def graded_ideals(draw, field, weighted, weights=None):
    """Forms, some times a variable, and some degree-3 monomials, in 3 variables.

    `weights`, if given, fixes the ring's weights.
    """
    if weights is None:
        weights = draw(st.tuples(*[st.integers(1, 3)] * 3)) if weighted else (1, 1, 1)
    ring = PolyRing(field, ("x", "y", "z"), weights)
    degrees = [d for d in range(1, 5) if ring.monomials_of_degree(d)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = ring.monomials_of_degree(draw(st.sampled_from(degrees)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        f = Polynomial(ring, {m: field.of(draw(st.integers(1, 5))) for m in chosen})
        if draw(st.booleans()):
            f = f * Polynomial.variable(ring, draw(st.integers(0, 2)))
        gens.append(f)
    cubes = ring.monomials_of_degree(3)
    if cubes:
        chosen = draw(st.lists(st.sampled_from(cubes), max_size=3, unique=True))
        gens += [Polynomial.from_term(ring, m, field.one) for m in chosen]
    return Ideal(ring, gens)


def random_invertible(rng: random.Random, n: int, field):
    """Deterministic small-entry invertible matrix over the field."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [[field.of(x) for x in row] for row in m]
        if dense_determinant(rows, field) != field.zero:
            return m


def dense_matrix(ring, source, target, rows):
    """The GradedMatrix whose entry (i, j) is the polynomial rows[i][j]."""
    return GradedMatrix(ring, source, target, [
        {t: c for i, row in enumerate(rows) for t, c in poly_to_vector(row[j], i).items()}
        for j in range(source.rank)
    ])


def recombine_generators(I: Ideal, rng: random.Random) -> Ideal:
    """Replace generators by random invertible combinations, degree by degree."""
    ring = I.ring
    by_degree = {}
    for g in I.generators:
        by_degree.setdefault(g.homogeneous_degree(), []).append(g)
    new_gens = []
    for d in sorted(by_degree):
        gens = by_degree[d]
        k = len(gens)
        m = random_invertible(rng, k, ring.field)
        for i in range(k):
            acc = Polynomial.zero(ring)
            for j in range(k):
                if m[i][j]:
                    acc = acc + gens[j].scale(ring.field.of(m[i][j]))
            new_gens.append(acc)
    return Ideal(ring, new_gens)


# Dense Gaussian elimination as the engine had it before the sparse
# kernel: the reference that the kernel and oracle tests compare with.


def dense_rref(rows, field):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    zero = field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        if inv != field.one:
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                for j in range(c, ncols):
                    if m[r][j] != zero:
                        m[i][j] = field.sub(m[i][j], field.mul(f, m[r][j]))
        pivots.append(c)
        r += 1
    return m, pivots


def dense_vector(vec, n, field):
    """The dense list of length n of a sparse vector {index: value}."""
    return [vec.get(i, field.zero) for i in range(n)]


def dense_rank(rows, field):
    return len(dense_rref(rows, field)[1])


def dense_nullspace(rows, ncols, field):
    zero, one = field.zero, field.one
    if not rows:
        return [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]
    m, pivots = dense_rref(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            if m[r][fc] != zero:
                v[pc] = field.neg(m[r][fc])
        basis.append(v)
    return basis


def dense_determinant(rows, field):
    n = len(rows)
    m = [list(r) for r in rows]
    zero = field.zero
    det = field.one
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != zero), None)
        if pivot_row is None:
            return zero
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != zero:
                f = field.mul(m[i][c], inv)
                for j in range(c, n):
                    m[i][j] = field.sub(m[i][j], field.mul(f, m[c][j]))
    return det


def dense_solve(rows, rhs, field):
    """The solution of A x = b with free variables zero, or None."""
    if not rows:
        return [] if all(x == field.zero for x in rhs) else None
    ncols = len(rows[0])
    m, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x
