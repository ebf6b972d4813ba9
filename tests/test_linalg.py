import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from pgshell import QQ, Field
from pgshell.linalg import (
    RowSpace,
    determinant,
    nullspace,
    rank,
    rref,
)

from conftest import dense_determinant, dense_nullspace, dense_rref


def F(x):
    return Fraction(x)


def tagged_solve(rows, rhs, field):
    """x with A x = b through the kernel's tagged reduction, or None.

    Column j of A goes in tagged with e_j, so every row of the span is
    (A t ; t); b reduces to (0 ; -x) exactly when A x = b.
    """
    nrows, ncols = len(rows), len(rows[0])
    span = RowSpace(nrows, field)
    for j in range(ncols):
        span.add({**{i: row[j] for i, row in enumerate(rows)}, nrows + j: field.one})
    rest = span.reduce(rhs)
    if any(c < nrows for c in rest):
        return None
    return [field.neg(rest.get(nrows + j, field.zero)) for j in range(ncols)]


def test_rref_and_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    ech, pivots = rref(rows, QQ)
    assert pivots == [0, 1]
    assert rank(rows, QQ) == 2


def test_nullspace_is_kernel():
    rng = random.Random(9)
    for _ in range(25):
        nrow, ncol = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4)) for _ in range(ncol)] for _ in range(nrow)]
        basis = nullspace(rows, ncol, QQ)
        assert len(basis) == ncol - rank(rows, QQ)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_determinant():
    assert determinant([[F(2)]], QQ) == 2
    assert determinant([[F(1), F(2)], [F(3), F(4)]], QQ) == -2
    assert determinant([[F(1), F(2)], [F(2), F(4)]], QQ) == 0
    # permutation parity
    assert determinant([[F(0), F(1)], [F(1), F(0)]], QQ) == -1


def test_solve():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    x = tagged_solve(rows, [F(3), F(1)], QQ)
    assert x == [F(2), F(1)]
    assert tagged_solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)], QQ) is None


def test_solve_prime_field():
    f = Field(7)
    rows = [[f.of(2), f.of(1)], [f.of(1), f.of(3)]]
    x = tagged_solve(rows, [f.of(1), f.of(2)], f)
    assert x is not None
    for row, b in zip(rows, [f.of(1), f.of(2)]):
        acc = f.zero
        for a, v in zip(row, x):
            acc = f.add(acc, f.mul(a, v))
        assert acc == b
    assert tagged_solve([[f.of(3), f.of(1)], [f.of(6), f.of(2)]], [f.of(1), f.of(1)], f) is None


def test_rowspace_membership():
    rs = RowSpace(3, QQ)
    assert rs.add([F(1), F(0), F(1)])
    assert rs.add([F(0), F(1), F(1)])
    assert not rs.add([F(1), F(1), F(2)])  # dependent
    assert rs.contains([F(2), F(-1), F(1)])
    assert not rs.contains([F(0), F(0), F(1)])
    assert rs.dim == 2


# -- the sparse kernel against the dense reference ---------------------------

FIELDS = (QQ, Field(7), Field(32003))


@st.composite
def sparse_matrices(draw, square=False):
    """(field, rows): a small matrix, most entries zero, some fractional."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.tuples(st.integers(-5, 5), st.sampled_from((1, 2, 3))).map(lambda t: field.of(*t)),
    )
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ))
    return field, [[field.of(x) if x == 0 else x for x in row] for row in rows]


@given(sparse_matrices())
def test_rref_and_nullspace_match_dense_reference(case):
    field, rows = case
    ncols = len(rows[0]) if rows else 0
    assert rref(rows, field) == dense_rref(rows, field)
    assert nullspace(rows, ncols, field) == dense_nullspace(rows, ncols, field)


@given(sparse_matrices(square=True))
def test_determinant_matches_dense_reference(case):
    field, rows = case
    assert determinant(rows, field) == dense_determinant(rows, field)


@given(sparse_matrices())
def test_rank_equals_rank_of_transpose(case):
    field, rows = case
    ncols = len(rows[0]) if rows else 0
    transpose = [[row[j] for row in rows] for j in range(ncols)]
    assert rank(rows, field) == rank(transpose, field)
