import pytest

from pgshell import Polynomial, parse_source, render_source
from pgshell.catalog import build_catalog_entry
from pgshell.errors import SourceError


def test_parse_twisted_cubic(twisted_cubic):
    src = (
        "ring S = QQ[z0,z1,z2,z3];\n"
        "ideal I = z0*z2 - z1^2, z1*z3 - z2^2, z0*z3 - z1*z2;\n"
    )
    ps = parse_source(src)
    assert ps.ring == twisted_cubic.ring
    assert ps.ideals["I"] == twisted_cubic


def test_parse_prime_field():
    ps = parse_source("ring S = ZZ/32003[x,y];\nideal J = x^2 + y^2;")
    assert ps.ring.field.characteristic == 32003
    (gen,) = ps.ideals["J"].generators
    assert gen.homogeneous_degree() == 2


def test_parse_weights_and_comments():
    src = "// weighted example\nring R = QQ[x,y:2];\nideal K = y - x^2; // homogeneous\n"
    ps = parse_source(src)
    assert ps.ring.weights == (1, 2)
    assert not ps.warnings


def test_parse_rational_coefficients_and_signs():
    ps = parse_source("ring S = QQ[x,y];\nideal L = -x + 3/2*y, 2x*y, 7;")
    gens = ps.ideals["L"].generators
    assert str(gens[0]) in ("-x + 3/2*y", "3/2*y - x")
    assert str(gens[1]) == "2*x*y"
    assert gens[2].homogeneous_degree() == 0


def test_parse_zero_generator_gives_zero_ideal():
    ps = parse_source("ring S = QQ[x,y];\nideal Z = 0;")
    assert ps.ideals["Z"].is_zero()


@pytest.mark.parametrize(
    "source, line, col_min",
    [
        ("ideal I = z0 +", 1, 1),                      # missing ring declaration
        ("ring S = QQ[z0];\nideal I = z0 + ;", 2, 14), # dangling plus
        ("ring S = QQ[x];\nideal I = x + y;", 2, 15),  # unknown variable
        ("ring S = ZZ/0[x,y];\nideal I = x;", 1, 13),  # ZZ/0 is no field (not QQ)
        ("ring S = QQ[x,y];\nideal I = x^\u00b2;", 2, 13),  # superscript two: no ASCII digit
    ],
)
def test_parse_negative_cases_have_positions(source, line, col_min):
    with pytest.raises(SourceError) as err:
        parse_source(source)
    assert err.value.line == line
    assert err.value.column >= col_min - 2
    assert f"{err.value.line}:" in str(err.value)


LONG = "1" * 5000  # past the interpreter's 4300-digit int-conversion limit


@pytest.mark.parametrize(
    "source, line, col",
    [
        (f"ring S = QQ[x,y];\nideal I = {LONG}*x;", 2, 11),    # coefficient
        (f"ring S = QQ[x,y];\nideal I = 1/{LONG}*x;", 2, 13),  # denominator
        (f"ring S = QQ[x,y];\nideal I = x^{LONG};", 2, 13),    # exponent
        (f"ring S = QQ[x:{LONG},y];\nideal I = x;", 1, 15),     # weight
        (f"ring S = ZZ/{LONG}[x,y];\nideal I = x;", 1, 13),     # characteristic
    ],
    ids=["coefficient", "denominator", "exponent", "weight", "characteristic"],
)
def test_overlong_integer_literal_is_a_source_error(source, line, col):
    with pytest.raises(SourceError) as err:
        parse_source(source)
    assert (err.value.line, err.value.column) == (line, col)
    assert err.value.message == "integer literal too long (5000 digits)"


TOO_BIG = "9" * 20  # fits the int-conversion limit, far past 2^31 - 1


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        (f"ring S = QQ[x:{TOO_BIG},y];\nideal I = x;", 1, 15,
         "a weight must be from 1 to 2^31 - 1"),
        ("ring S = QQ[x:2147483648,y];\nideal I = x;", 1, 15,
         "a weight must be from 1 to 2^31 - 1"),
        ("ring S = QQ[x:0,y];\nideal I = x;", 1, 15, "a weight must be from 1 to 2^31 - 1"),
        (f"ring S = QQ[x,y];\nideal I = x^{TOO_BIG}*y;", 2, 13,
         "the exponent of x exceeds 2^31 - 1"),
        ("ring S = QQ[x,y];\nideal I = y*x^2147483648;", 2, 15,
         "the exponent of x exceeds 2^31 - 1"),
        # the bound holds for the exponent of the monomial, not of one factor
        ("ring S = QQ[x,y];\nideal I = x^2147483647*y*x;", 2, 26,
         "the exponent of x exceeds 2^31 - 1"),
    ],
    ids=["weight-20-digits", "weight-2^31", "weight-0", "exponent-20-digits",
         "exponent-2^31", "exponent-sum"],
)
def test_weight_and_exponent_bound(source, line, col, message):
    # 2^31 - 1 is the bound fields.MAX_CHARACTERISTIC puts on p
    with pytest.raises(SourceError) as err:
        parse_source(source)
    assert (err.value.line, err.value.column, err.value.message) == (line, col, message)


def test_weight_and_exponent_at_the_bound():
    ps = parse_source("ring S = QQ[x:2147483647,y];\nideal I = x^2147483647*y, y^3*y^2147483644;")
    assert ps.ring.weights == (2147483647, 1)
    assert [g.lead_monomial() for g in ps.ideals["I"].generators] == [(2147483647, 1),
                                                                     (0, 2147483647)]


@pytest.mark.parametrize("field", ["QQ", "ZZ/32003"])
def test_generator_is_one_term_map(field, monkeypatch):
    """A degree-8 generator in 6 variables (1287 terms), with repeated and
    zero terms, parses to its summed term map without `Polynomial.__add__`."""
    ring = parse_source(f"ring S = {field}[z0,z1,z2,z3,z4,z5];\nideal I = z0;").ring
    monos = ring.monomials_of_degree(8)
    assert len(monos) == 1287
    want, parts = {}, []
    for i, m in enumerate(monos + monos[:40]):
        c = i % 7 - 3
        want[m] = want.get(m, 0) + c
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*{ring.mono_str(m)}")
    source = f"ring S = {field}[z0,z1,z2,z3,z4,z5];\nideal I = {' '.join(parts)};"

    def forbidden(*args):
        raise AssertionError("the parser adds polynomials")

    monkeypatch.setattr(Polynomial, "__add__", forbidden)
    (gen,) = parse_source(source).ideals["I"].generators
    assert gen.terms == Polynomial(ring, {m: ring.field.of(c) for m, c in want.items()}).terms
    assert gen.homogeneous_degree() == 8


def test_zero_denominator():
    with pytest.raises(SourceError) as err:
        parse_source("ring S = QQ[x];\nideal I = 1/0;")
    assert "denominator" in str(err.value)


def test_inhomogeneous_warning_and_strict():
    src = "ring S = QQ[x,y];\nideal I = x + y^2;"
    ps = parse_source(src)
    assert len(ps.warnings) == 1
    with pytest.raises(SourceError):
        parse_source(src, strict=True)


def test_duplicate_names_rejected():
    with pytest.raises(SourceError):
        parse_source("ring S = QQ[x,x];\nideal I = x;")
    with pytest.raises(SourceError):
        parse_source("ring S = QQ[x];\nideal I = x;\nideal I = x;")


@pytest.mark.parametrize(
    "name,args",
    [
        ("rnc", ["2"]),
        ("rnc", ["3"]),
        ("rnc", ["4"]),
        ("veronese", []),
        ("scroll", []),
        ("tc-cone", []),
        ("ci", ["2", "3"]),
        ("points-rnc", ["3", "5"]),
        ("hyperplane", []),
        ("zero", []),
    ],
)
def test_round_trip_on_catalog_exports(name, args):
    entry = build_catalog_entry(name, args, seed=1)
    text = render_source(entry.ring, {"I": entry.ideal})
    ps = parse_source(text)
    assert ps.ring == entry.ring
    assert ps.ideals["I"] == entry.ideal
    # printing the parse gives the identical normalized source
    assert render_source(ps.ring, ps.ideals) == text
