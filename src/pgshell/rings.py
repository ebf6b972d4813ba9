"""Graded polynomial rings: variables, weights, and the monomial order.

Monomials are plain exponent tuples.  The ring object owns every
monomial-level operation (degree, order key, divisibility) so the
polynomial layer never needs to know about weights.

The ring has one order, grevlex: (weighted) degree first, ties by
reverse lexicographic with the first variable largest.  `mono_key` is
the one place it is written; printing, lead monomials, the S-pair heap
and the engine's term keys (`groebner.top_key`, `block_key`) all read
it.  `last_variable_key`, the engine's one other order, is a term key
handed to `groebner.module_groebner`.
"""

from __future__ import annotations

from math import comb
from operator import add, le

from .errors import EngineError
from .fields import Field

Monomial = tuple  # exponent tuple, length == num_vars


class PolyRing:
    """Descriptor of k[z_0..z_N] with positive integer weights, ordered by grevlex."""

    __slots__ = ("field", "names", "weights", "num_vars", "standard_graded")

    def __init__(self, field: Field, names, weights=None):
        names = tuple(names)
        if len(names) < 1:
            raise EngineError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise EngineError(f"duplicate variable names: {names}")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise EngineError("one weight per variable required")
        if any(w < 1 for w in weights):
            raise EngineError(f"weights must be positive, got {weights}")
        self.field = field
        self.names = names
        self.weights = weights
        self.num_vars = len(names)
        self.standard_graded = all(w == 1 for w in weights)

    # -- identity ------------------------------------------------------------

    def _sig(self):
        return (self.field, self.names, self.weights)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other._sig() == self._sig()

    def __hash__(self):
        return hash(self._sig())

    def __repr__(self):
        base = repr(self.field)
        vars_ = ",".join(
            n if w == 1 else f"{n}:{w}" for n, w in zip(self.names, self.weights)
        )
        return f"{base}[{vars_}]"

    # -- monomials -----------------------------------------------------------

    @property
    def one_mono(self) -> Monomial:
        return (0,) * self.num_vars

    def variable_mono(self, i: int) -> Monomial:
        e = [0] * self.num_vars
        e[i] = 1
        return tuple(e)

    def mono_degree(self, mono: Monomial) -> int:
        if self.standard_graded:
            return sum(mono)
        return sum(w * e for w, e in zip(self.weights, mono))

    def mono_key(self, mono: Monomial) -> tuple:
        """Grevlex key, descending: a smaller key is a larger monomial.

        Minus the degree, then the exponents from the last variable back.
        """
        return (-self.mono_degree(mono), *reversed(mono))

    @staticmethod
    def mono_mul(a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(add, a, b))

    @staticmethod
    def mono_divides(a: Monomial, b: Monomial) -> bool:
        """a | b componentwise."""
        return all(map(le, a, b))

    @staticmethod
    def mono_div(a: Monomial, b: Monomial):
        """a / b, or None if b does not divide a."""
        q = []
        for x, y in zip(a, b):
            if y > x:
                return None
            q.append(x - y)
        return tuple(q)

    @staticmethod
    def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(max, a, b))

    def monomials_of_degree(self, m: int) -> list:
        """All monomials of weighted degree exactly m, largest first.

        Standard-graded count is C(m+N, N); asserted cheap to catch
        enumeration bugs.
        """
        if m < 0:
            return []
        out = []
        n = self.num_vars
        weights = self.weights

        def rec(i, remaining, prefix):
            if i == n - 1:
                if remaining % weights[i] == 0:
                    out.append(prefix + (remaining // weights[i],))
                return
            w = weights[i]
            for e in range(remaining // w, -1, -1):
                rec(i + 1, remaining - e * w, prefix + (e,))

        rec(0, m, ())
        if self.standard_graded:
            assert len(out) == comb(m + n - 1, n - 1)
        out.sort(key=self.mono_key)
        return out

    def mono_str(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def standard_ring(num_vars: int, field: Field | None = None) -> PolyRing:
    """k[z0..z_{num_vars-1}], standard graded, grevlex."""
    if field is None:
        field = Field(0)
    return PolyRing(field, tuple(f"z{i}" for i in range(num_vars)))
