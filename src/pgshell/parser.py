"""Text format for rings and ideals, with a printer that round-trips.

Grammar (whitespace insignificant, // line comments):

    file       := ring_decl ideal_decl+
    ring_decl  := "ring" IDENT "=" field "[" var ("," var)* "]" ";"
    field      := "QQ" | "ZZ/" INT
    var        := IDENT (":" INT)?          -- optional weight, default 1
    ideal_decl := "ideal" IDENT "=" poly ("," poly)* ";"
    poly       := ("+"|"-")? term (("+"|"-") term)*
    term       := coeff ("*"? factor)* | factor ("*" factor)*
    factor     := IDENT ("^" INT)?
    coeff      := INT ("/" INT)?

Errors carry line:column positions.  Inhomogeneous generators produce a
warning (an error under strict mode).
"""

from __future__ import annotations

from .errors import SourceError
from .fields import Field
from .poly import Ideal, Polynomial
from .rings import PolyRing

_SYMBOLS = "=,;[]^*+-/:"


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SourceError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class ParsedSource:
    __slots__ = ("ring", "ideals", "warnings")

    def __init__(self, ring, ideals, warnings):
        self.ring = ring
        self.ideals = ideals
        self.warnings = warnings


class _Parser:
    def __init__(self, tokens, strict: bool):
        self.tokens = tokens
        self.pos = 0
        self.strict = strict
        self.warnings = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"{kind!r}"
            got = "end of input" if tok.kind == "EOF" else f"{tok.value!r}"
            raise SourceError(f"expected {want}, found {got}", tok.line, tok.col)
        return self.advance()

    def fail(self, message):
        tok = self.peek()
        raise SourceError(message, tok.line, tok.col)

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> ParsedSource:
        ring = self.parse_ring_decl()
        ideals = {}
        while self.peek().kind != "EOF":
            name, ideal = self.parse_ideal_decl(ring)
            if name in ideals:
                self.fail(f"duplicate ideal name {name!r}")
            ideals[name] = ideal
        if not ideals:
            self.fail("expected at least one ideal declaration")
        return ParsedSource(ring, ideals, self.warnings)

    def parse_ring_decl(self):
        kw = self.expect("IDENT", "'ring'")
        if kw.value != "ring":
            raise SourceError(f"expected 'ring', found {kw.value!r}", kw.line, kw.col)
        self.expect("IDENT", "ring name")
        self.expect("=")
        field = self.parse_field()
        self.expect("[")
        names = []
        weights = []
        while True:
            var = self.expect("IDENT", "variable name")
            if var.value in names:
                raise SourceError(f"duplicate variable {var.value!r}", var.line, var.col)
            names.append(var.value)
            if self.peek().kind == ":":
                self.advance()
                w = self.expect("INT", "weight")
                weights.append(int(w.value))
                if weights[-1] < 1:
                    raise SourceError("weights must be positive", w.line, w.col)
            else:
                weights.append(1)
            if self.peek().kind == ",":
                self.advance()
                continue
            break
        self.expect("]")
        self.expect(";")
        return PolyRing(field, names, weights)

    def parse_field(self) -> Field:
        tok = self.expect("IDENT", "'QQ' or 'ZZ/p'")
        if tok.value == "QQ":
            return Field(0)
        if tok.value == "ZZ":
            self.expect("/")
            p = self.expect("INT", "prime characteristic")
            q = int(p.value)
            if q:  # Field(0) is QQ, which ZZ/0 does not name
                try:
                    return Field(q)
                except ValueError:
                    pass
            raise SourceError(f"characteristic must be an odd prime < 2^31, got {q}", p.line, p.col)
        raise SourceError(f"unknown field {tok.value!r}", tok.line, tok.col)

    def parse_ideal_decl(self, ring):
        kw = self.expect("IDENT", "'ideal'")
        if kw.value != "ideal":
            raise SourceError(f"expected 'ideal', found {kw.value!r}", kw.line, kw.col)
        name = self.expect("IDENT", "ideal name").value
        self.expect("=")
        gens = []
        while True:
            start = self.peek()
            p = self.parse_poly(ring)
            if p.homogeneous_degree() is None:
                msg = f"generator {len(gens) + 1} of ideal {name!r} is not homogeneous"
                if self.strict:
                    raise SourceError(msg, start.line, start.col)
                self.warnings.append(f"{start.line}:{start.col}: {msg}")
            gens.append(p)
            if self.peek().kind == ",":
                self.advance()
                continue
            break
        self.expect(";")
        return name, Ideal(ring, gens, allow_inhomogeneous=True)

    def parse_poly(self, ring) -> Polynomial:
        total = Polynomial.zero(ring)
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            sign = -1 if tok.kind == "-" else 1
            self.advance()
        total = total + self.parse_term(ring, sign)
        while self.peek().kind in "+-":
            op = self.advance()
            sign = -1 if op.kind == "-" else 1
            total = total + self.parse_term(ring, sign)
        return total

    def parse_term(self, ring, sign: int) -> Polynomial:
        field = ring.field
        coeff = field.of(sign)
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            num = int(tok.value)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("INT", "denominator")
                den = int(den_tok.value)
                if den == 0:
                    raise SourceError("zero denominator", den_tok.line, den_tok.col)
            try:
                coeff = field.of(sign * num, den)
            except ZeroDivisionError as e:
                raise SourceError(str(e), tok.line, tok.col) from e
            if self.peek().kind == "*":
                self.advance()
            elif self.peek().kind != "IDENT":
                return Polynomial.constant(ring, 1).scale(coeff)
        elif tok.kind != "IDENT":
            self.fail("expected a term")
        return self.parse_factors(ring, coeff)

    def parse_factors(self, ring, coeff) -> Polynomial:
        mono = list(ring.one_mono)
        count = 0
        while True:
            tok = self.peek()
            if tok.kind != "IDENT":
                if count == 0:
                    self.fail("expected a variable")
                break
            self.advance()
            if tok.value not in ring.names:
                raise SourceError(f"unknown variable {tok.value!r}", tok.line, tok.col)
            idx = ring.names.index(tok.value)
            exp = 1
            if self.peek().kind == "^":
                self.advance()
                e = self.expect("INT", "exponent")
                exp = int(e.value)
            mono[idx] += exp
            count += 1
            if self.peek().kind == "*":
                self.advance()
                nxt = self.peek()
                if nxt.kind != "IDENT":
                    raise SourceError("expected a variable after '*'",
                                      nxt.line, nxt.col)
                continue
            break
        return Polynomial.from_term(ring, tuple(mono), coeff)


def parse_source(text: str, strict: bool = False) -> ParsedSource:
    """Parse a source file into (ring, named ideals, warnings)."""
    return _Parser(tokenize(text), strict).parse_file()


# ---------------------------------------------------------------------------
# printing


def render_ring(ring: PolyRing) -> str:
    field = "QQ" if ring.field.characteristic == 0 else f"ZZ/{ring.field.characteristic}"
    vars_ = ",".join(
        n if w == 1 else f"{n}:{w}" for n, w in zip(ring.names, ring.weights)
    )
    return f"ring S = {field}[{vars_}];"


def render_ideal(name: str, ideal: Ideal) -> str:
    gens = [str(g) for g in ideal.generators] or ["0"]
    if len(gens) == 1:
        return f"ideal {name} = {gens[0]};"
    body = ",\n  ".join(gens)
    return f"ideal {name} =\n  {body};"


def render_source(ring: PolyRing, ideals: dict) -> str:
    lines = [render_ring(ring)]
    for name, ideal in ideals.items():
        lines.append(render_ideal(name, ideal))
    return "\n".join(lines) + "\n"
