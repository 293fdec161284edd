"""Exact rational polynomial arithmetic, univariate and bivariate."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import euclid_gcd, max_loop_divmod
from curvezeta import BiPoly, RationalPoly
from curvezeta.errors import NotDivisibleError
from curvezeta.ratpoly import (bivariate_divmod, bivariate_exact_divide,
                               format_poly, poly_gcd, quotient)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# raw ints too, which the constructors must keep as they are
scalars = st.one_of(st.integers(-4, 4), fracs)


def rpolys(max_deg=4):
    return st.lists(scalars, min_size=0, max_size=max_deg + 1).map(RationalPoly)


@given(rpolys(), rpolys(), rpolys())
def test_univariate_ring_identities(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RationalPoly()
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree == a.degree + b.degree


@given(rpolys(6), rpolys(3))
def test_univariate_divmod_invariant(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(rpolys(4), rpolys(4))
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.coeffs[-1] == 1  # monic
    assert (a % g).is_zero()
    assert (b % g).is_zero()


# ints and Fractions, small and of up to 40 digits
wide = st.one_of(
    scalars, st.integers(-10 ** 40, 10 ** 40),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)))


def wide_rpolys(max_deg=4):
    return st.lists(wide, max_size=max_deg + 1).map(RationalPoly)


@settings(max_examples=200, deadline=None)
@given(wide_rpolys(), wide_rpolys(), wide_rpolys(2))
@example(RationalPoly(), RationalPoly(), RationalPoly())  # zero
@example(RationalPoly((3,)), RationalPoly(), RationalPoly())  # constants
@example(RationalPoly((Fraction(-2, 3),)), RationalPoly((5,)), RationalPoly())
@example(RationalPoly((1, 1)), RationalPoly((1, -1)), RationalPoly((1, 2, 1)))
def test_poly_gcd_matches_euclid_over_q(a, b, common):
    assert poly_gcd(a, b) == euclid_gcd(a, b)
    # with a shared factor, which the gcd must carry
    assert poly_gcd(a * common, b * common) == euclid_gcd(a * common,
                                                          b * common)


def test_gcd_of_constructed_common_factor():
    common = RationalPoly((1, 2, 1))  # (x+1)^2
    a = common * RationalPoly((3, 1))
    b = common * RationalPoly((-1, 1))
    assert poly_gcd(a, b) == common


def test_evaluate_and_derivative():
    p = RationalPoly((1, -2, 3))  # 3x^2 - 2x + 1
    assert p.evaluate(2) == Fraction(9)
    assert p.derivative() == RationalPoly((-2, 6))


def bipolys():
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars,
        max_size=6).map(BiPoly.from_terms)


@settings(max_examples=50)
@given(bipolys(), bipolys(), bipolys())
def test_bivariate_ring_identities(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(bipolys())
def test_terms_round_trip(a):
    assert BiPoly.from_terms(a.terms()) == a


@given(bipolys(), st.integers(0, 4), st.integers(0, 4))
def test_coefficient_views_agree(a, i, j):
    assert a.coeff_of_t(i).coeff(j) == a.coeff(i, j)
    assert a.coeff_of_u(j).coeff(i) == a.coeff(i, j)


@given(bipolys(), fracs)
def test_evaluation_views_agree(a, x):
    # substituting u then T must equal substituting T then u
    assert a.eval_u(x).evaluate(x) == a.eval_t(x).evaluate(x)


@given(bipolys(), bipolys())
def test_bivariate_divmod_invariant(num, den):
    if den.is_zero():
        return
    q, r = bivariate_divmod(num, den)
    assert q * den + r == num


def wide_bipolys():
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), wide,
        max_size=6).map(BiPoly.from_terms)


T_, U_ = BiPoly.t(), BiPoly.u()


@settings(max_examples=200, deadline=None)
@given(wide_bipolys(), wide_bipolys(), wide_bipolys())
@example(BiPoly(), T_ - U_ ** 3, BiPoly())  # zero
@example(BiPoly.const(7), BiPoly.const(Fraction(2, 3)), BiPoly())  # constants
@example(T_ ** 3, T_ - U_ ** 3, BiPoly.const(1))  # columns grow per step
@example(U_ ** 2 + T_, U_ - 1, T_ * U_ - 2)  # the numerator's divisor
@example(T_ * U_ ** 2, T_ ** 2 * U_ + 3 * T_ * U_ ** 3, U_)
def test_bivariate_divmod_matches_max_loop(num, den, quot):
    if den.is_zero():
        return
    for dividend in (num, quot * den, quot * den + num):
        assert bivariate_divmod(dividend, den) == max_loop_divmod(dividend,
                                                                  den)


def test_bivariate_exact_division():
    t, u = BiPoly.t(), BiPoly.u()
    prod = (u - 1) * (t ** 2 + u * t + 3)
    assert bivariate_exact_divide(prod, u - 1) == t ** 2 + u * t + 3
    with pytest.raises(NotDivisibleError) as info:
        bivariate_exact_divide(prod + 1, u - 1)
    assert not info.value.remainder.is_zero()


def test_format_poly_rendering():
    assert format_poly((), "T") == "0"
    assert format_poly((1,), "T") == "1"
    assert format_poly((0, 1), "T") == "T"
    assert format_poly((1, -1), "T") == "1 - T"
    assert format_poly((Fraction(1, 2), 0, 3), "u") == "1/2 + 3*u^2"


def test_bipoly_text():
    t, u = BiPoly.t(), BiPoly.u()
    p = 1 + (3 - u) * t + u * t ** 2
    assert str(p) == "1 + (3 - u)*T + u*T^2"


def stored(c) -> bool:
    """A stored coefficient is an int when integral, else a Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def all_stored(poly) -> bool:
    rows = poly.rows if isinstance(poly, BiPoly) else (poly.coeffs,)
    return all(stored(c) for row in rows for c in row)


@given(rpolys(), rpolys(3), fracs, bipolys(), bipolys())
def test_coefficients_are_ints_or_proper_fractions(a, b, x, p, d):
    out = [a + b, a - b, a * b, a * x, a.monic(), poly_gcd(a, b),
           p + d, p - d, p * d, p * x, p.eval_u(x), p.eval_t(x)]
    if b:
        out += divmod(a, b)
    if d:
        out += bivariate_divmod(p, d)
    assert all(all_stored(poly) for poly in out)
    assert stored(a.evaluate(x)) and stored(quotient(x, 3))


def test_integer_division_gives_fractions_not_floats():
    q, r = divmod(RationalPoly((1, 1)), RationalPoly((0, 2)))
    assert q.coeffs == (Fraction(1, 2),) and type(q.coeffs[0]) is Fraction
    assert r.coeffs == (1,) and type(r.coeffs[0]) is int
    assert RationalPoly((1, 2)).monic().coeffs == (Fraction(1, 2), 1)
    assert type(quotient(6, 3)) is int and quotient(1, 3) == Fraction(1, 3)
    assert type(quotient(Fraction(3, 2), Fraction(1, 2))) is int
