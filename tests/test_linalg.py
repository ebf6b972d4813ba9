import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from pgshell import QQ, Field
from pgshell.linalg import RowSpace, determinant, eliminate, rref

from conftest import dense_determinant, dense_nullspace, dense_rank, dense_rref, dense_vector


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
