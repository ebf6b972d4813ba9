"""Graded free modules and homogeneous matrices between them.

A GradedFreeModule is just its twist list: twists (d_1..d_r) mean
(+)_i S(-d_i).  A GradedMatrix maps source -> target with the degree-0
convention: entry (i, j) is zero or homogeneous of degree
source.twists[j] - target.twists[i].  Column j is the image of source
basis vector j, kept as a module vector of the Groebner engine: a dict
(monomial, row) -> nonzero coefficient.  The constructor normalizes
each column by `fields.canonical`, so `compose` and the other builders
of columns sum and negate on Python operators.
"""

from __future__ import annotations

from .errors import EngineError
from .fields import canonical
from .rings import PolyRing


class GradedFreeModule:
    __slots__ = ("twists",)

    def __init__(self, twists):
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

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
    __slots__ = ("ring", "source", "target", "columns")

    def __init__(self, ring: PolyRing, source: GradedFreeModule, target: GradedFreeModule, columns):
        p = ring.field.characteristic
        columns = tuple(canonical(col, p) for col in columns)
        rows = target.rank
        if len(columns) != source.rank or any(
            not 0 <= pos < rows for col in columns for (_, pos) in col
        ):
            raise EngineError(
                f"{len(columns)} columns do not fit a map from rank {source.rank} "
                f"to rank {rows}"
            )
        self.ring = ring
        self.source = source
        self.target = target
        self.columns = columns

    def validate_degrees(self):
        """Check the degree-0 map convention; raises EngineError on failure."""
        mono_degree = self.ring.mono_degree
        for j, col in enumerate(self.columns):
            for (mono, i) in col:
                want = self.source.twists[j] - self.target.twists[i]
                got = mono_degree(mono)
                if got != want:
                    raise EngineError(
                        f"entry ({i},{j}) has a term of degree {got}, expected {want}"
                    )

    def is_zero(self) -> bool:
        return not any(self.columns)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise EngineError("composition shape mismatch")
        mono_mul = self.ring.mono_mul
        out = []
        for v in other.columns:
            acc: dict = {}
            for (m, k), c in v.items():
                for (m2, i), c2 in self.columns[k].items():
                    t = (mono_mul(m, m2), i)
                    acc[t] = acc.get(t, 0) + c * c2
            out.append(acc)
        return GradedMatrix(self.ring, other.source, self.target, out)

    def has_unit_entry(self) -> bool:
        one = self.ring.one_mono
        return any(mono == one for col in self.columns for (mono, _) in col)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.ring == self.ring
            and other.source == self.source
            and other.target == self.target
            and other.columns == self.columns
        )

    def __hash__(self):
        # columns are dicts, so the hash reads the shape only
        return hash((self.ring, self.source, self.target))

    def __repr__(self):
        return f"GradedMatrix({self.target.rank}x{self.source.rank})"
