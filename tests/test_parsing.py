"""Input grammars: polynomials, curve specs, measure tables, Mumford pairs."""

from fractions import Fraction

import pytest

from curvezeta import parse_curve_spec, parse_measure_table, parse_poly_text
from curvezeta.errors import CapacityError, ParseError
from curvezeta.parsing import format_fq_poly

# longer than the 4300 digits that int() converts by default
LONG = "1" * 5000


@pytest.mark.parametrize("text,coeffs", [
    ("x^3+x", [0, 1, 0, 1]),
    ("x^5+2*x+1", [1, 2, 0, 0, 0, 1]),
    ("1", [1]),
    ("0", [0]),
    ("-x+4", [4, -1]),
    ("2x^2 - x", [0, -1, 2]),       # juxtaposition means multiplication
    ("x*x*x", [0, 0, 0, 1]),
    ("3*4", [12]),
    ("x^2+x^2", [0, 0, 2]),
    ("x^2-x^2", [0]),
])
def test_poly_grammar(text, coeffs):
    assert parse_poly_text(text) == coeffs


@pytest.mark.parametrize("text,column", [
    ("x+?", 3),
    ("y^2", 1),
    ("x^", 3),
    ("x^y", 3),
    ("*x", 1),
    ("x+", 3),
    ("", 1),
    pytest.param(f"x^3+{LONG}*x", 5, id="long-coefficient"),
    pytest.param(f"x^{LONG}+1", 3, id="long-exponent"),
])
def test_poly_errors_carry_column(text, column):
    with pytest.raises(ParseError) as info:
        parse_poly_text(text)
    assert info.value.column == column
    assert f"column {column}" in str(info.value)


def test_curve_spec_full():
    spec = parse_curve_spec("p=3; k=2; f=x^5+1; h=x")
    assert (spec.p, spec.k) == (3, 2)
    assert spec.f == (1, 0, 0, 0, 0, 1)
    assert spec.h == (0, 1)
    assert spec.text == "p=3; k=2; f=x^5+1; h=x"


def test_curve_spec_defaults():
    spec = parse_curve_spec("p=7; f=x")
    assert (spec.p, spec.k, spec.h) == (7, 1, (0,))


def test_curve_spec_syntax_only():
    # primality is a semantic question for the field layer, not the parser
    assert parse_curve_spec("p=4; f=x^3+x").p == 4


@pytest.mark.parametrize("text", [
    "f=x^3+x",              # p missing
    "p=3",                  # f missing
    "p=3; p=5; f=x",        # duplicate key
    "p=-3; f=x",            # not a positive integer
    "p=3; q=5; f=x",        # unknown key
    "p=3; f=x^3+x; junk",   # not key=value
])
def test_curve_spec_rejections(text):
    with pytest.raises(ParseError):
        parse_curve_spec(text)


@pytest.mark.parametrize("text,column", [
    pytest.param(f"p={LONG}; f=x", 1, id="p"),
    pytest.param(f"p=3; k={LONG}; f=x", 5, id="k"),
])
def test_an_over_long_p_or_k_is_a_parse_error(text, column):
    with pytest.raises(ParseError, match="literal of 5000 digits") as info:
        parse_curve_spec(text, line=2)
    assert (info.value.line, info.value.column) == (2, column)


def test_curve_spec_propagates_line_number():
    with pytest.raises(ParseError) as info:
        parse_curve_spec("p=3; f=x^3+?", line=7)
    assert info.value.line == 7
    assert "line 7" in str(info.value)


def test_measure_table_round_trip():
    text = """
    # euler characteristic of a genus-1 curve
    g=1; pic0=0
    0 0 -1
    0 1 1
    """
    data = parse_measure_table(text)
    assert data.genus == 1
    assert data.pic0 == 0
    assert data.entries == {(0, 0): Fraction(-1), (0, 1): Fraction(1)}


def test_measure_table_rational_values():
    data = parse_measure_table("g=2; pic0=7/2\n0 1 1\n0 0 5/2\n")
    assert data.pic0 == Fraction(7, 2)
    assert data.entries[(0, 0)] == Fraction(5, 2)


@pytest.mark.parametrize("value,exact", [
    ("5/2", Fraction(5, 2)),
    ("-4/6", Fraction(-2, 3)),
    ("1.5", Fraction(3, 2)),
    ("-0.25", Fraction(-1, 4)),
    ("1e3", Fraction(1000)),
    ("1_000", Fraction(1000)),
    # exact values of few digits, from texts int() or 10**e could not take
    ("1." + "0" * 5000, Fraction(1)),
    ("5e-4300", Fraction(1, 2 * 10 ** 4299)),  # 4300 digits: the limit
    ("0e999999999", Fraction(0)),
])
def test_measure_table_values_are_fractions_or_decimals(value, exact):
    # a decimal is read exactly, never through a float
    data = parse_measure_table(f"g=1; pic0={value}\n0 0 {value}\n")
    assert data.pic0 == exact == data.entries[(0, 0)]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("g=1\n0 0 1", "both g and pic0"),
    ("g=1; pic0=2; extra=1", "unknown header key"),
    ("g=1; pic0=2\n0 0", "expected 'n nu value'"),
    ("g=1; pic0=2\nx 0 1", "must be integers"),
    ("g=1; pic0=2\n-1 0 1", "nonnegative"),
    ("g=1; pic0=2\n0 0 1/0", "not a rational"),
    ("g=1; pic0=2\n0 0 1//2", "not a rational a/b or a decimal"),
    ("g=1; pic0=1,5\n0 0 1", "not a rational a/b or a decimal"),
    ("g=1; pic0=2\n0 0 1\n0 0 2", "duplicate stratum"),
    ("g=x; pic0=2", "nonnegative integer"),
    pytest.param(f"# header next\ng={LONG}; pic0=1",
                 "line 2, column 1: integer literal of 5000 digits",
                 id="long-genus"),
    # 10^5000 has 5001 digits and 10^-4300 a denominator of 4301
    ("g=1; pic0=1e5000\n0 0 1",
     "line 1, column 1: decimal of 6 characters is too long"),
    ("g=1; pic0=2\n0 0 1e5000", "line 2, column 1: decimal"),
    ("g=1; pic0=1e-4300", "needs more than 4300 digits"),
    ("g=1; pic0=1e20000000", "decimal of 10 characters is too long"),
    (f"g=1; pic0=0.{LONG}", "decimal of 5002 characters is too long"),
    (f"g=1; pic0=1e{LONG}", "integer literal of 5000 digits"),
])
def test_measure_table_rejections(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_measure_table(text)
    assert fragment in str(info.value)


def test_measure_table_error_names_offending_line():
    with pytest.raises(ParseError) as info:
        parse_measure_table("g=1; pic0=0\n0 0 -1\nbroken line here\n")
    assert info.value.line == 3


def test_format_fq_poly():
    assert format_fq_poly((0, 1, 0, 1)) == "x^3+x"
    assert format_fq_poly((1, 2)) == "2*x+1"
    assert format_fq_poly((0,)) == "0"
    assert format_fq_poly(()) == "0"


def test_an_exponent_over_the_work_bound_is_refused_before_allocating():
    # degree e needs e + 1 coefficients: 100 fit a bound of 100, 101 do not
    assert len(parse_poly_text("x^99+1", capacity=100)) == 100
    with pytest.raises(CapacityError, match=r"exponent 100 needs 101 "
                                            r"coefficients, above the work "
                                            r"bound 100"):
        parse_poly_text("x^100+1", capacity=100)
    # a product of powers counts too, and so do cancelling terms
    with pytest.raises(CapacityError):
        parse_poly_text("x^60*x^60", capacity=100)
    with pytest.raises(CapacityError):
        parse_poly_text("x^200-x^200", capacity=100)
    with pytest.raises(CapacityError, match="work bound 100"):
        parse_curve_spec("p=3; f=x^5+1; h=x^300", capacity=100)
