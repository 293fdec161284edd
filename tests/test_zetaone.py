"""One-variable zeta data: L-polynomials, class numbers, divisor counts."""

import pytest

from curvezeta import (RationalPoly, LPolynomial, class_number, count_points,
                       effective_divisor_count, enumerate_places,
                       extension_field, lifted_lpolynomial,
                       lpolynomial_from_counts, parse_curve_spec,
                       point_counts_from_lpolynomial, validate_model,
                       zeta_series)
from curvezeta.errors import InconsistentCountsError
from conftest import brute_point_count


def build(text):
    spec = parse_curve_spec(text)
    return validate_model(extension_field(spec.p, spec.k), spec.f, spec.h)


def test_worked_example_lpolynomial(worked_elliptic):
    counts = [count_points(worked_elliptic, 1)]
    assert counts == [4]
    lpoly = lpolynomial_from_counts(counts, 3, 1)
    assert lpoly.coeffs == (1, 0, 3)
    assert class_number(lpoly) == 4
    assert str(lpoly) == "1 + 3*T^2"


def test_lpolynomial_predicts_higher_counts(worked_elliptic):
    # L is built from a_1 alone; its predictions for a_2..a_4 must match
    # the independent exhaustive counts
    lpoly = lpolynomial_from_counts([4], 3, 1)
    predicted = point_counts_from_lpolynomial(lpoly, 4)
    assert predicted == [count_points(worked_elliptic, m) for m in (1, 2, 3, 4)]
    assert predicted[1] == 16


def test_genus_two_lpolynomial_round_trip():
    model = build("p=3; f=x^5+1")
    counts = [count_points(model, m) for m in (1, 2, 3, 4)]
    lpoly = lpolynomial_from_counts(counts[:2], 3, 2)
    assert point_counts_from_lpolynomial(lpoly, 4) == counts
    assert class_number(lpoly) == 10


def test_functional_equation_enforced():
    with pytest.raises(InconsistentCountsError):
        LPolynomial((1, 1, 1), q=3, genus=1)  # c_2 must be q * c_0 = 3
    with pytest.raises(InconsistentCountsError):
        LPolynomial((1, 0, 3, 0), q=3, genus=1)  # wrong length
    with pytest.raises(InconsistentCountsError):
        LPolynomial((2, 0, 6), q=3, genus=1)  # L(0) != 1


def test_weil_bound_rejects_impossible_counts():
    # a_1 = 12 over F_3 would need |c_1| = 8 > 2 * sqrt(3) * 2g
    with pytest.raises(InconsistentCountsError):
        lpolynomial_from_counts([12], 3, 1)


def test_non_integer_coefficients_rejected():
    # no genus-2 curve over F_3 has a_1 = 1 and a_2 = 0
    with pytest.raises(InconsistentCountsError):
        lpolynomial_from_counts([1, 0], 3, 2)


def test_counts_shorter_than_genus_rejected():
    with pytest.raises(InconsistentCountsError):
        lpolynomial_from_counts([4], 3, 2)


def test_lifted_lpolynomial_worked_example():
    lpoly = lpolynomial_from_counts([4], 3, 1)
    lifted = lifted_lpolynomial(lpoly, 2)
    assert lifted.coeffs == (1, 6, 9)
    assert lifted.q == 9
    assert class_number(lifted) == 16


def test_lifted_lpolynomial_agrees_with_direct_count():
    # dual route: lift L algebraically, or recount over the extension
    model = build("p=3; f=x^5+1")
    lpoly = lpolynomial_from_counts(
        [count_points(model, m) for m in (1, 2)], 3, 2)
    from curvezeta import base_change
    big = base_change(model, 2)
    direct = lpolynomial_from_counts(
        [count_points(big, m) for m in (1, 2)], 9, 2)
    assert lifted_lpolynomial(lpoly, 2).coeffs == direct.coeffs


def test_genus_zero_series():
    lpoly = lpolynomial_from_counts([], 7, 0)
    assert lpoly.coeffs == (1,)
    assert zeta_series(lpoly, 2) == [1, 8, 57]


def test_series_counts_effective_divisors(worked_elliptic):
    lpoly = lpolynomial_from_counts([4], 3, 1)
    series = zeta_series(lpoly, 3)
    # by hand from N_1 = 4, N_2 = 6, N_3 = 8: degree-2 divisors are
    # C(5, 2) = 10 pairs of degree-1 places plus 6 degree-2 places
    assert series == [1, 4, 16, 52]


def test_effective_divisor_count_euler_route(worked_elliptic):
    table = enumerate_places(worked_elliptic, 4)
    lpoly = lpolynomial_from_counts([4], 3, 1)
    series = zeta_series(lpoly, 4)
    assert effective_divisor_count(table, 4) == series
    # a shallower expansion is the same list cut short
    for n in range(5):
        assert effective_divisor_count(table, n) == series[:n + 1]


def test_effective_divisor_count_depth_guard(worked_elliptic):
    table = enumerate_places(worked_elliptic, 2)
    with pytest.raises(ValueError):
        effective_divisor_count(table, 3)
    with pytest.raises(ValueError):
        effective_divisor_count(table, -1)


def as_poly(lpoly):
    """L(T) as a rational polynomial."""
    return RationalPoly(lpoly.coeffs)


def test_as_poly_and_counts_against_brute_force():
    for text in ("p=5; f=x^3+x+1", "p=2; f=x^3+x+1; h=1"):
        spec = parse_curve_spec(text)
        model = build(text)
        lpoly = lpolynomial_from_counts([count_points(model, 1)], spec.p, 1)
        assert isinstance(as_poly(lpoly), RationalPoly)
        assert as_poly(lpoly).evaluate(0) == 1
        assert count_points(model, 1) == brute_point_count(spec.p, spec.f, spec.h)
        # a_1 = q + 1 - c_1
        assert lpoly.coeffs[1] == count_points(model, 1) - spec.p - 1
