"""The two-variable numerator and its structural clauses.

The expected numerators here were derived by hand before being frozen into
the tests: expand Q(T, u) from the strata polynomial and divide each
T-coefficient by u - 1.
"""

from fractions import Fraction

import pytest

from curvezeta import (BiPoly, Measure, classical_specialization,
                       count_points, counting_measure, class_number,
                       enumerate_places, extension_field,
                       lpolynomial_from_counts, measure_from_table,
                       numerator_clauses, parse_curve_spec,
                       parse_measure_table, scaled_numerator, strata_table,
                       stratum_count_clauses, validate_measure, validate_model,
                       zeta_numerator, zeta_series)
from curvezeta.errors import (CapacityError, ConsistencyError,
                              InvalidMeasureError)
from curvezeta.zetatwo import strata_polynomial

T, U = BiPoly.t(), BiPoly.u()


def build(text):
    spec = parse_curve_spec(text)
    return validate_model(extension_field(spec.p, spec.k), spec.f, spec.h)


def curve_measure(text):
    model = build(text)
    g = model.genus
    counts = [count_points(model, m) for m in range(1, g + 1)]
    lpoly = lpolynomial_from_counts(counts, model.field.order, g)
    table = enumerate_places(model, max(2 * g - 2, 1))
    strata = strata_table(model, table, class_number(lpoly))
    return counting_measure(strata), lpoly


def test_worked_elliptic_numerator():
    measure, _ = curve_measure("p=3; f=x^3+x")
    # hand-derived: pic0 = 4, G = 3 + u, so P = 1 + (3 - u)T + uT^2
    assert zeta_numerator(measure) == 1 + (3 - U) * T + U * T ** 2


def test_genus_two_numerator_hand_derived():
    measure, _ = curve_measure("p=3; f=x^5+1")
    expected = (1 + (3 - U) * T + (6 - 2 * U) * T ** 2
                + (3 * U - U ** 2) * T ** 3 + U ** 2 * T ** 4)
    assert zeta_numerator(measure) == expected


def test_genus_zero_numerator_is_one():
    measure = Measure(genus=0, pic0=Fraction(1), values=(), lefschetz=7)
    validate_measure(measure)
    assert zeta_numerator(measure) == BiPoly.const(1)


def test_strata_polynomial_worked_example():
    measure, _ = curve_measure("p=3; f=x^3+x")
    assert strata_polynomial(measure) == 3 + U


def test_scaled_numerator_is_divisible_by_u_minus_one():
    measure, _ = curve_measure("p=3; f=x^5+1")
    q_poly = scaled_numerator(measure)
    assert q_poly == (U - 1) * zeta_numerator(measure)


def test_scaled_numerator_detects_broken_row_sum():
    measure, _ = curve_measure("p=3; f=x^5+1")
    rows = [list(r) for r in measure.values]
    rows[1][0] += 1  # run the construction with an unvalidated table
    broken = Measure(genus=2, pic0=measure.pic0,
                     values=tuple(tuple(r) for r in rows))
    with pytest.raises(ConsistencyError):
        scaled_numerator(broken)


def test_scaled_numerator_detects_broken_zero_row():
    measure, _ = curve_measure("p=3; f=x^5+1")
    rows = [list(r) for r in measure.values]
    rows[0][0] += 1
    broken = Measure(genus=2, pic0=measure.pic0 + 1,
                     values=tuple(tuple(r) for r in rows))
    with pytest.raises(ConsistencyError):
        scaled_numerator(broken)


def test_numerator_clauses_all_pass_on_curves():
    for text in ("p=3; f=x^3+x", "p=3; f=x^5+1", "p=2; f=x^5; h=1"):
        measure, lpoly = curve_measure(text)
        numerator = zeta_numerator(measure)
        clauses = numerator_clauses(numerator, measure.genus, measure.pic0)
        assert [c.name for c in clauses] == [
            "unit constant term", "leading coefficient",
            "coefficient degree bounds", "coefficient symmetry",
            "functional equation", "value at T = 1"]
        assert all(c.passed for c in clauses), \
            [c.detail for c in clauses if not c.passed]
        spec_clause = classical_specialization(
            numerator, lpoly.coeffs, measure.lefschetz)
        assert spec_clause.passed


def test_numerator_clauses_fail_on_tampered_polynomial():
    measure, _ = curve_measure("p=3; f=x^3+x")
    numerator = zeta_numerator(measure)
    # the middle coefficient is unconstrained by symmetry, so +T only
    # moves the value at T = 1
    clauses = {c.name: c
               for c in numerator_clauses(numerator + T, 1, measure.pic0)}
    assert clauses["unit constant term"].passed
    assert clauses["coefficient symmetry"].passed
    assert not clauses["value at T = 1"].passed
    # +T^2 breaks the leading coefficient and with it the symmetry
    clauses = {c.name: c
               for c in numerator_clauses(numerator + T ** 2, 1, measure.pic0)}
    assert not clauses["leading coefficient"].passed
    assert not clauses["coefficient symmetry"].passed
    assert not clauses["functional equation"].passed


def test_classical_specialization_mismatch_reported():
    measure, lpoly = curve_measure("p=3; f=x^3+x")
    clause = classical_specialization(
        zeta_numerator(measure), (1, 1, 3), 3)
    assert not clause.passed
    assert "L(T)" in clause.detail


def test_stratum_count_clauses_match_series(worked_elliptic):
    measure, lpoly = curve_measure("p=3; f=x^3+x")
    series = zeta_series(lpoly, 4)
    clauses = stratum_count_clauses(measure, series, 3)
    assert len(clauses) == 5
    assert all(c.passed for c in clauses)
    # degrees above 2g - 2 use the closed form
    assert "closed form" in clauses[4].detail
    assert "strata" in clauses[0].detail


def test_stratum_count_clauses_catch_wrong_series():
    measure, lpoly = curve_measure("p=3; f=x^3+x")
    series = zeta_series(lpoly, 3)
    series[2] += 1
    clauses = stratum_count_clauses(measure, series, 3)
    assert not clauses[2].passed
    assert clauses[0].passed and clauses[1].passed


def euler_table_text():
    return "g=1; pic0=0\n0 0 -1\n0 1 1\n"


def test_euler_characteristic_table_numerator():
    measure = measure_from_table(parse_measure_table(euler_table_text()))
    assert measure.pic0 == 0
    numerator = zeta_numerator(measure)
    assert numerator == (1 - T) * (1 - U * T)
    clauses = numerator_clauses(numerator, 1, measure.pic0)
    assert all(c.passed for c in clauses)


def test_measure_from_table_range_checks():
    with pytest.raises(InvalidMeasureError):
        measure_from_table(parse_measure_table("g=1; pic0=0\n3 0 1\n"))
    with pytest.raises(InvalidMeasureError):
        measure_from_table(parse_measure_table("g=1; pic0=0\n0 2 1\n"))
    with pytest.raises(InvalidMeasureError):
        measure_from_table(parse_measure_table("g=0; pic0=1\n0 0 1\n"))


def test_measure_from_table_accepts_genus_zero_header_only():
    measure = measure_from_table(parse_measure_table("g=0; pic0=1\n"))
    assert measure.genus == 0
    assert zeta_numerator(measure) == BiPoly.const(1)


def _measure(genus, pic0, rows):
    return Measure(genus=genus, pic0=Fraction(pic0),
                   values=tuple(tuple(Fraction(v) for v in row) for row in rows))


@pytest.mark.parametrize("measure,fragment", [
    (_measure(0, 2, ()), "pic0 = 1"),
    (_measure(1, 4, ((3, 1), (0, 4))), "1 x 2 value table"),
    (_measure(1, 4, ((2, 1),)), "row sum"),
    (_measure(1, 4, ((4, 0),)), "must be 1"),
    (_measure(2, 10, ((8, 1, 1), (6, 4, 0), (0, 9, 1))), "must vanish"),
    (_measure(2, 10, ((9, 1, 0), (6, 4, 0), (1, 8, 1))), "duality"),
    (_measure(2, 10, ((9, 1, 0), (4, 4, 2), (0, 9, 1))), "Clifford"),
])
def test_measure_constraint_violations(measure, fragment):
    with pytest.raises(InvalidMeasureError) as info:
        validate_measure(measure)
    assert fragment in str(info.value)


def test_negative_values_are_legal_when_constraints_hold():
    # the Euler table has a negative stratum value and still validates
    measure = measure_from_table(parse_measure_table(euler_table_text()))
    assert measure.value(0, 0) == -1
    validate_measure(measure)


def test_counting_measure_carries_field_order(worked_elliptic):
    measure, _ = curve_measure("p=3; f=x^3+x")
    assert measure.lefschetz == 3
    assert measure.label == "counting"
    assert measure.value(0, 1) == 1
    assert measure.value(7, 0) == 0  # out of range


def test_a_genus_over_the_work_bound_is_refused_before_allocating():
    # genus 6 needs (2g-1)(g+1) = 77 entries and genus 7 needs 104
    table = parse_measure_table("g=7; pic0=1\n")
    with pytest.raises(CapacityError, match=r"genus 7 needs a table of 104 "
                                            r"entries, above the work bound "
                                            r"100"):
        measure_from_table(table, capacity=100)
    with pytest.raises(InvalidMeasureError):  # refused for its shape only
        measure_from_table(parse_measure_table("g=6; pic0=1\n"), capacity=100)
