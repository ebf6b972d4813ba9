import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pgshell import QQ, Field
from pgshell.linalg import RowSpace, determinant, eliminate, rref

from conftest import (
    dense_determinant,
    dense_nullspace,
    dense_rank,
    dense_rref,
    dense_solve,
    dense_vector,
)


def F(x):
    return Fraction(x)


def columns(rows, ncols):
    """The sparse columns of a dense matrix."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def tagged_solve(rows, rhs, field):
    """x with A x = b through the kernel's tagged reduction, or None.

    Column j of A goes in tagged with e_j, so every row of the span is
    (A t ; t); b reduces to (0 ; -x) exactly when A x = b.
    """
    nrows, ncols = len(rows), len(rows[0])
    span = RowSpace(nrows, field)
    for j in range(ncols):
        span.add({**{i: row[j] for i, row in enumerate(rows)}, nrows + j: field.one})
    rest = span.reduce(dict(enumerate(rhs)))
    if any(c < nrows for c in rest):
        return None
    return [field.neg(rest.get(nrows + j, field.zero)) for j in range(ncols)]


def test_rref_and_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    ech, pivots = rref(rows, QQ)
    assert pivots == [0, 1]
    assert eliminate(columns(rows, 3), 3, QQ)[0].dim == 2


def test_eliminate_kernel_is_kernel():
    rng = random.Random(9)
    for _ in range(25):
        nrow, ncol = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4)) for _ in range(ncol)] for _ in range(nrow)]
        image, kernel = eliminate(columns(rows, ncol), nrow, QQ)
        assert image.dim == dense_rank(rows, QQ)
        assert len(kernel) == ncol - image.dim
        for v in kernel:
            assert v and all(v.values())
            for row in rows:
                assert sum(row[j] * x for j, x in v.items()) == 0


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
    assert rs.add({0: F(1), 2: F(1)})
    assert rs.add({1: F(1), 2: F(1)})
    assert not rs.add({0: F(1), 1: F(1), 2: F(2)})  # dependent
    assert rs.contains({0: F(2), 1: F(-1), 2: F(1)})
    assert not rs.contains({2: F(1)})
    assert rs.dim == 2


# -- the sparse kernel against the dense reference ---------------------------

FIELDS = (QQ, Field(7), Field(32003))


@st.composite
def sparse_matrices(draw, square=False):
    """(field, rows): a small matrix, most entries zero, the others with
    numerators up to 10^6 and denominators up to 97, so that the QQ
    kernel's content division and coefficient growth both run."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 7))
    p = field.characteristic
    denominators = [d for d in range(1, 98) if not p or d % p]
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.tuples(
            st.integers(-10**6, 10**6), st.sampled_from(denominators)
        ).map(lambda t: field.of(*t)),
    )
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ))
    return field, [[field.of(x) if x == 0 else x for x in row] for row in rows]


@given(sparse_matrices())
def test_rref_and_eliminate_match_dense_reference(case):
    field, rows = case
    ncols = len(rows[0]) if rows else 0
    assert rref(rows, field) == dense_rref(rows, field)
    image, kernel = eliminate(columns(rows, ncols), len(rows), field)
    assert image.dim == dense_rank(rows, field)
    dense_kernel = [dense_vector(v, ncols, field) for v in kernel]
    assert dense_kernel == dense_nullspace(rows, ncols, field)


@given(sparse_matrices(square=True))
def test_determinant_matches_dense_reference(case):
    field, rows = case
    assert determinant(rows, field) == dense_determinant(rows, field)


@given(sparse_matrices())
def test_rank_equals_rank_of_transpose(case):
    field, rows = case
    ncols = len(rows[0]) if rows else 0
    transpose = [[row[j] for row in rows] for j in range(ncols)]
    column_rank = eliminate(columns(rows, ncols), len(rows), field)[0].dim
    assert column_rank == eliminate(columns(transpose, len(rows)), ncols, field)[0].dim


@given(sparse_matrices())
def test_tagged_solve_matches_dense_reference(case):
    # the last column is the right-hand side
    field, rows = case
    assume(rows and rows[0])
    a = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    assert tagged_solve(a, b, field) == dense_solve(a, b, field)


def dense_remainder(rows, vec, field):
    """vec minus the multiples of the reference rref rows that clear it at
    their pivots: each rref row is zero at the other pivots."""
    echelon, pivots = dense_rref(rows, field)
    out = list(vec)
    for row, c in zip(echelon, pivots):
        f = vec[c]
        out = [field.sub(x, field.mul(f, y)) for x, y in zip(out, row)]
    return out


@given(sparse_matrices())
def test_reduce_matches_dense_remainder(case):
    # the last row is reduced against the span of the others
    field, rows = case
    assume(rows)
    span = RowSpace(len(rows[0]), field)
    for row in rows[:-1]:
        span.add(dict(enumerate(row)))
    rest = span.reduce(dict(enumerate(rows[-1])))
    assert dense_vector(rest, len(rows[0]), field) == dense_remainder(rows[:-1], rows[-1], field)
    assert all(rest.values())


@pytest.mark.parametrize("field", [QQ, Field(32003)])
def test_elimination_runs_on_integer_rows(field, monkeypatch):
    """eliminate, reduce and contains make no Field arithmetic call; the
    stored rows hold ints, and every value read out is a field element."""
    rng = random.Random(23)
    p = field.characteristic
    rows = [[field.of(rng.randint(-50, 50), rng.randint(1, 12)) if rng.random() < 0.6
             else field.zero for _ in range(7)] for _ in range(5)]
    rows.append([field.of(2 * x) for x in rows[0]])

    def forbidden(*args):
        raise AssertionError("Field arithmetic in the elimination kernel")

    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(Field, name, forbidden)
    image, kernel = eliminate(columns(rows, 7), len(rows), field)
    span = RowSpace(7, field)
    for j, row in enumerate(rows):
        span.add({**dict(enumerate(row)), 7 + j: field.one})
    assert span.contains(dict(enumerate(rows[-1])))
    rest = span.reduce({c: field.of(c + 1, 3) for c in range(7)})
    # tags only: no pivot is touched, so the remainder comes out unscaled
    tags = {7 + j: field.of(j + 1) for j in range(len(rows))}
    assert span.reduce(tags) == tags
    assert kernel and span.relations and rest
    for stored in (image, span):
        for row in stored.rows.values():
            assert all(type(x) is int for x in row.values())
    for vec in (*kernel, *span.relations, rest, span.reduce(tags)):
        for x in vec.values():
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is Fraction
