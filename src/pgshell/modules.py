"""Graded free modules and homogeneous matrices between them.

A GradedFreeModule is just its twist list: twists (d_1..d_r) mean
(+)_i S(-d_i).  A GradedMatrix maps source -> target with the degree-0
convention: entry (i, j) is zero or homogeneous of degree
source.twists[j] - target.twists[i].  Columns are images of the source
basis vectors.
"""

from __future__ import annotations

from .errors import EngineError
from .poly import Polynomial
from .rings import PolyRing


class GradedFreeModule:
    __slots__ = ("twists",)

    def __init__(self, twists):
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def is_zero(self) -> bool:
        return not self.twists

    def __eq__(self, other):
        return isinstance(other, GradedFreeModule) and other.twists == self.twists

    def __hash__(self):
        return hash(self.twists)

    def __repr__(self):
        if not self.twists:
            return "0"
        groups = []
        for t in sorted(set(self.twists)):
            n = self.twists.count(t)
            body = f"S({-t})" if t else "S"
            groups.append(body if n == 1 else f"{body}^{n}")
        return " + ".join(groups)


class GradedMatrix:
    __slots__ = ("ring", "source", "target", "entries")

    def __init__(self, ring: PolyRing, source: GradedFreeModule, target: GradedFreeModule, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != target.rank or any(len(r) != source.rank for r in entries):
            raise EngineError(
                f"entry shape {len(entries)}x{(len(entries[0]) if entries else 0)} "
                f"does not match target rank {target.rank} x source rank {source.rank}"
            )
        self.ring = ring
        self.source = source
        self.target = target
        self.entries = entries

    @classmethod
    def from_columns(cls, ring, source, target, columns):
        entries = [
            [columns[j][i] for j in range(source.rank)] for i in range(target.rank)
        ]
        return cls(ring, source, target, entries)

    def column(self, j: int):
        return [self.entries[i][j] for i in range(self.target.rank)]

    def columns(self):
        return [self.column(j) for j in range(self.source.rank)]

    def validate_degrees(self):
        """Check the degree-0 map convention; raises EngineError on failure."""
        for i in range(self.target.rank):
            for j in range(self.source.rank):
                e = self.entries[i][j]
                if e.is_zero():
                    continue
                want = self.source.twists[j] - self.target.twists[i]
                got = e.homogeneous_degree()
                if got != want:
                    raise EngineError(
                        f"entry ({i},{j}) has degree {got}, expected {want}"
                    )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise EngineError("composition shape mismatch")
        ring = self.ring
        zero = Polynomial.zero(ring)
        rows = self.target.rank
        mid = self.source.rank
        cols = other.source.rank
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = zero
                for k in range(mid):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return GradedMatrix(ring, other.source, self.target, out)

    def constant_part(self):
        """Entries' constant coefficients as a field matrix (reduction mod S_+)."""
        return [
            [e.constant_coeff() for e in row]
            for row in self.entries
        ]

    def has_unit_entry(self) -> bool:
        zero = self.ring.field.zero
        return any(
            e.constant_coeff() != zero for row in self.entries for e in row
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.ring == self.ring
            and other.source == self.source
            and other.target == self.target
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ring, self.source, self.target, self.entries))

    def __repr__(self):
        return f"GradedMatrix({self.target.rank}x{self.source.rank})"
