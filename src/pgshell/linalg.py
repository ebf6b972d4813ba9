"""Exact sparse linear algebra over a coefficient field.

`RowSpace` is the one Gaussian elimination: it keeps sparse rows
({column: value}, nonzero entries only) in reduced echelon form with
monic pivots.  Pivots are chosen only among the columns < ncols;
entries at columns >= ncols are tags, carried through every row
operation but never pivoting.  Adding a vector tagged with e_j records
where it came from, so a vector that reduces to zero in the first
ncols columns leaves a linear relation among the tagged inputs: that
is how kernels, solves and coordinates come out of one elimination.

`eliminate` takes a matrix as sparse columns and returns its image and
its canonical kernel basis from that one elimination.  Every vector in
and out is a sparse dict; only `rref` and `determinant` take dense
matrices (lists of row lists of Fraction or int mod p), converting each
row on the way in.  Everything is deterministic: the pivot of a new row
is its first nonzero column, so identical inputs give identical echelon
forms, kernels and ranks.
"""

from __future__ import annotations

from .fields import Field


class RowSpace:
    """Incrementally maintained row space in sparse reduced echelon form.

    Rows are stored by pivot column, each monic at its pivot and zero at
    every other pivot, so reducing a vector is one pass over the pivots
    it touches.  Vectors are sparse dicts {column: value}.
    """

    __slots__ = ("field", "ncols", "rows", "relations")

    def __init__(self, ncols: int, field: Field):
        self.field = field
        self.ncols = ncols
        self.rows = {}        # pivot column -> sparse row
        self.relations = []   # remainders of tagged vectors that add() rejected

    def reduce(self, vec) -> dict:
        """vec minus the multiples of the rows that clear it at every pivot."""
        v = {c: x for c, x in vec.items() if x}
        rows = self.rows
        for p in [c for c in v if c in rows]:
            _subtract(v, v[p], rows[p], self.field)
        return v

    def contains(self, vec) -> bool:
        ncols = self.ncols
        return not any(c < ncols for c in self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the space.

        When it did not, a nonzero remainder (its tags, a relation among
        the tagged vectors added so far) is appended to `relations`.
        """
        v = self.reduce(vec)
        ncols = self.ncols
        pivot = min((c for c in v if c < ncols), default=None)
        if pivot is None:
            if v:
                self.relations.append(v)
            return False
        field = self.field
        if v[pivot] != field.one:
            inv = field.inv(v[pivot])
            v = {c: field.mul(inv, x) for c, x in v.items()}
        for row in self.rows.values():
            if pivot in row:
                _subtract(row, row[pivot], v, field)
        self.rows[pivot] = v
        return True

    def untagged(self) -> RowSpace:
        """A new RowSpace with the same span and the tag entries dropped."""
        out = RowSpace(self.ncols, self.field)
        ncols = self.ncols
        out.rows = {p: {c: x for c, x in row.items() if c < ncols} for p, row in self.rows.items()}
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)


def _subtract(v: dict, f, row: dict, field: Field):
    """v -= f * row in place, dropping the entries that cancel."""
    zero = field.zero
    sub, mul = field.sub, field.mul
    for j, x in row.items():
        y = sub(v.get(j, zero), mul(f, x))
        if y:
            v[j] = y
        else:
            del v[j]


def eliminate(columns, nrows: int, field: Field):
    """(image, kernel) of the matrix with the given sparse columns.

    The columns are added in order, column j tagged with e_j.  The image
    is their span, tags dropped, as a RowSpace over the nrows rows.  The
    kernel is the canonical rref basis, one sparse vector per column
    that depends on the earlier ones: 1 at its own index, zero at the
    other free columns.
    """
    span = RowSpace(nrows, field)
    one = field.one
    for j, col in enumerate(columns):
        span.add({**col, nrows + j: one})
    kernel = [{c - nrows: x for c, x in rel.items()} for rel in span.relations]
    del columns  # often a temporary of the caller: free it before the span is copied
    return span.untagged(), kernel


def rref(rows, field: Field):
    """Reduced row echelon form of a dense matrix.

    Returns (echelon_rows, pivot_columns); the echelon rows are padded
    with zero rows to the input's row count.  The input is not modified.
    """
    ncols = len(rows[0]) if rows else 0
    span = RowSpace(ncols, field)
    for row in rows:
        span.add(dict(enumerate(row)))
    pivots = sorted(span.rows)
    zero = field.zero
    echelon = [[span.rows[p].get(c, zero) for c in range(ncols)] for p in pivots]
    echelon += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return echelon, pivots


def determinant(rows, field: Field):
    """Exact determinant of a dense square matrix: the product of the
    pivots met while adding the rows, times the sign of the permutation
    of pivot columns."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    span = RowSpace(n, field)
    det = field.one
    order = []
    for row in rows:
        v = span.reduce(dict(enumerate(row)))
        if not v:
            return field.zero
        p = min(v)
        det = field.mul(det, v[p])
        order.append(p)
        span.add(v)
    inversions = sum(1 for i in range(n) for j in range(i) if order[j] > order[i])
    return field.neg(det) if inversions % 2 else det
