"""Exact sparse linear algebra over a coefficient field.

`RowSpace` is the one Gaussian elimination: it keeps sparse rows
({column: value}, nonzero entries only) in reduced echelon form.
Pivots are chosen only among the columns < ncols; entries at columns
>= ncols are tags, carried through every row operation but never
pivoting.  Adding a vector tagged with e_j records where it came from,
so a vector that reduces to zero in the first ncols columns leaves a
linear relation among the tagged inputs: that is how kernels, solves
and coordinates come out of one elimination.

Entries are reduced on entry, so callers may pass unreduced sums: over
GF(p) a vector is made `fields.canonical` (any integers, reduced mod p,
zeros dropped), over QQ it is cleared of denominators.  The rows are
integer vectors on both fields, each normalized at its pivot by
`fields.primitive`, the normalizer the Groebner engine uses: monic over
GF(p), divided by its content with a positive pivot over QQ.  The row
operation is `fields.clear_at`, the one the Groebner engine's division
step runs too; it branches on the field once per row operation, not per
entry.  Over GF(p) it computes (x - f y) % p.  Over QQ the elimination
is fraction-free: clearing v at the pivot a of a row r computes
(a v - b r) / g for b the entry of v and g = gcd(a, b), and returns the
scale a / g of v, which `_reduced` tracks; a row is made primitive
again whenever a step scaled it.
`Fraction`s appear only in the values a caller reads, each canonical:
the remainders `reduce` returns, `relations` and the rows `rref` returns.

`eliminate` takes a matrix as sparse columns and returns its image and
its canonical kernel basis from that one elimination.  Every vector in
and out is a sparse dict; only `rref` and `determinant` take dense
matrices (lists of row lists of Fractions or ints), converting each
row on the way in.  Everything is deterministic: the pivot of a new row
is its first nonzero column, so identical inputs give identical echelon
forms, kernels and ranks.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import Field, canonical, clear_at, clear_denominators, primitive


class RowSpace:
    """Incrementally maintained row space in sparse reduced echelon form.

    Rows are stored by pivot column, each zero at every other pivot, so
    reducing a vector is one pass over the pivots it touches.  Vectors
    in and out are sparse dicts {column: field value}.
    """

    __slots__ = ("field", "ncols", "rows", "relations")

    def __init__(self, ncols: int, field: Field):
        self.field = field
        self.ncols = ncols
        self.rows = {}        # pivot column -> sparse integer row
        self.relations = []   # remainders of tagged vectors that add() rejected

    def _reduced(self, vec):
        """(v, d): the remainder of vec as an integer vector v over the
        denominator d (always 1 over GF(p))."""
        p, rows = self.field.characteristic, self.rows
        v, d = (canonical(vec, p), 1) if p else clear_denominators(vec)
        for c in [c for c in v if c in rows]:
            d *= clear_at(v, c, rows[c], p)
        return v, d

    def _values(self, v, d):
        """The field values of the integer vector v over the denominator d."""
        return v if self.field.characteristic else {c: Fraction(x, d) for c, x in v.items()}

    def reduce(self, vec) -> dict:
        """vec minus the multiples of the rows that clear it at every pivot."""
        return self._values(*self._reduced(vec))

    def contains(self, vec) -> bool:
        return min(self._reduced(vec)[0], default=self.ncols) >= self.ncols

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the space.

        When it did not, a nonzero remainder (its tags, a relation among
        the tagged vectors added so far) is appended to `relations`.
        """
        v, d = self._reduced(vec)
        pivot = min(v, default=None)  # the tags are the largest columns
        if pivot is None or pivot >= self.ncols:
            if v:
                self.relations.append(self._values(v, d))
            return False
        p = self.field.characteristic
        if v[pivot] != 1:
            v = primitive(v, pivot, p)
        rows = self.rows
        for q in [q for q, row in rows.items() if pivot in row]:
            if clear_at(rows[q], pivot, v, p) != 1:
                rows[q] = primitive(rows[q], q, p)
        rows[pivot] = v
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
    echelon = []
    for p in pivots:
        row = span._values(span.rows[p], span.rows[p][p])
        echelon.append([row.get(c, zero) for c in range(ncols)])
    echelon += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return echelon, pivots


def determinant(rows, field: Field):
    """Exact determinant of a dense square matrix: the product of the
    pivots met while adding the rows, times the sign of the permutation
    of pivot columns, reduced once into the field."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    span = RowSpace(n, field)
    det = 1
    order = []
    for row in rows:
        v = span.reduce(dict(enumerate(row)))
        if not v:
            return field.zero
        p = min(v)
        det *= v[p]
        order.append(p)
        span.add(v)
    inversions = sum(1 for i in range(n) for j in range(i) if order[j] > order[i])
    return field.of(-det if inversions % 2 else det)
