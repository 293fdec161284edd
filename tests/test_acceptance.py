"""Acceptance battery: one test per end-to-end guarantee.

The first three criteria pin frozen worked instances against oracles that
never touch the library (hand expansion, direct exhaustion over fields
built inline).  The corpus-wide criteria then assert the dual-route
identities, the structural clause suite, the irreducibility dichotomy, and
report determinism on every curve in the standing corpus.  All arithmetic
is exact, so every value comparison is an equality; the only inequalities
are the wall-clock budgets.

Run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from conftest import corpus_specs, random_products
from curvezeta import (BiPoly, Measure, RationalPoly, absolute_factor_count,
                       all_clauses, analyze_irreducibility, canonical_json,
                       class_number, count_points, counting_measure,
                       effective_divisor_count, enumerate_jacobian,
                       enumerate_places, extension_field, is_squarefree,
                       lpolynomial_from_counts, measure_from_table,
                       numerator_clauses, parse_curve_spec,
                       parse_measure_table, reference_factor_count, reversal,
                       run_curve_pipeline, strata_table,
                       stratum_count_clauses, validate_model, zeta_numerator,
                       zeta_series)
from curvezeta.cli import main
from curvezeta.ratpoly import bivariate_divmod

DATA = Path(__file__).parent / "data"
T, U = BiPoly.t(), BiPoly.u()

WORKED = "p=3; f=x^3+x"


@dataclass(frozen=True)
class CurveBundle:
    """Every pipeline intermediate for one corpus curve, computed once and
    shared by the corpus-wide criteria."""
    text: str
    model: object
    q: int
    genus: int
    counts: tuple
    lpoly: object
    pic0: int
    places: object
    measure: Measure
    numerator: BiPoly
    series: tuple


_STATE: dict = {}


def _build_bundle(text: str) -> CurveBundle:
    spec = parse_curve_spec(text)
    field = extension_field(spec.p, spec.k)
    model = validate_model(field, spec.f, spec.h)
    g, q = model.genus, field.order
    counts = tuple(count_points(model, m) for m in range(1, 2 * g + 1))
    lpoly = lpolynomial_from_counts(counts, q, g)
    pic0 = class_number(lpoly)
    places = enumerate_places(model, 2 * g + 2)
    measure = counting_measure(strata_table(model, places, pic0))
    return CurveBundle(
        text=text, model=model, q=q, genus=g, counts=counts, lpoly=lpoly,
        pic0=pic0, places=places, measure=measure,
        numerator=zeta_numerator(measure),
        series=tuple(zeta_series(lpoly, 2 * g + 2)))


def corpus_bundles() -> list:
    if "bundles" not in _STATE:
        start = time.perf_counter()
        _STATE["bundles"] = [_build_bundle(text) for text in corpus_specs()]
        _STATE["build_seconds"] = time.perf_counter() - start
    return _STATE["bundles"]


def worked_base_change():
    """The worked curve viewed over F_9, run once through the pipeline."""
    if "base_change" not in _STATE:
        result = run_curve_pipeline(parse_curve_spec(WORKED), base_change=2)
        rows = result.report["numerator"]["coefficients"]
        numerator = BiPoly.from_terms({(i, j): c
                                       for i, row in enumerate(rows)
                                       for j, c in enumerate(row) if c})
        _STATE["base_change"] = (result, numerator)
    return _STATE["base_change"]


def _report_numerator(report: dict) -> BiPoly:
    rows = report["numerator"]["coefficients"]
    return BiPoly.from_terms({(i, j): c for i, row in enumerate(rows)
                              for j, c in enumerate(row) if c})


def _f9_point_count() -> int:
    """|X(F_9)| for y^2 = x^3 + x by exhaustion, with F_9 built inline as
    F_3[i], i^2 = -1 (x^2 + 1 has no root mod 3)."""
    elems = [(a, b) for a in range(3) for b in range(3)]

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % 3,
                (x[0] * y[1] + x[1] * y[0]) % 3)

    squares: dict = {}
    for y in elems:
        sq = mul(y, y)
        squares[sq] = squares.get(sq, 0) + 1
    total = 1
    for x in elems:
        cube = mul(mul(x, x), x)
        rhs = ((cube[0] + x[0]) % 3, (cube[1] + x[1]) % 3)
        total += squares.get(rhs, 0)
    return total


def _f81_point_count() -> int:
    """|X(F_81)| for y^2 = x^3 + x by exhaustion over F_3[t]/(m), with m
    the first monic quartic no monic polynomial of degree 1 or 2 divides."""

    def rem(a, m):
        a = list(a)
        d = len(m) - 1
        for i in range(len(a) - 1, d - 1, -1):
            c = a[i] % 3
            if c:
                for j in range(d + 1):
                    a[i - d + j] = (a[i - d + j] - c * m[j]) % 3
        return tuple(c % 3 for c in a[:d])

    def mul(a, b, m):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % 3
        return rem(out, m)

    small = ([(c, 1) for c in range(3)]
             + [(c0, c1, 1) for c0 in range(3) for c1 in range(3)])
    quartics = ((code % 3, code // 3 % 3, code // 9 % 3, code // 27 % 3, 1)
                for code in range(81))
    modulus = next(cand for cand in quartics
                   if all(any(rem(cand, m)) for m in small))
    elems = [tuple(code // 3 ** i % 3 for i in range(4)) for code in range(81)]
    squares: dict = {}
    for y in elems:
        sq = mul(y, y, modulus)
        squares[sq] = squares.get(sq, 0) + 1
    total = 1
    for x in elems:
        cube = mul(mul(x, x, modulus), x, modulus)
        rhs = tuple((a + b) % 3 for a, b in zip(cube, x))
        total += squares.get(rhs, 0)
    return total


def _lpolynomial_by_series(n1: int, n2: int, q: int) -> tuple:
    """First three coefficients of exp(n1 T + n2 T^2 / 2) (1 - T)(1 - qT),
    multiplied out by hand on Fractions."""
    z = (Fraction(1), Fraction(n1), Fraction(n1 * n1, 2) + Fraction(n2, 2))
    d = (Fraction(1), Fraction(-(q + 1)), Fraction(q))
    return tuple(sum(z[i] * d[k - i] for i in range(k + 1)) for k in range(3))


def test_criterion_1_genus_zero_numerator_is_one():
    start = time.perf_counter()
    result = run_curve_pipeline(parse_curve_spec("p=7; f=x"))
    direct = zeta_numerator(Measure(genus=0, pic0=Fraction(1), values=(),
                                    lefschetz=7, label="counting"))
    elapsed = time.perf_counter() - start
    assert result.passed
    assert result.report["input"]["genus"] == 0
    assert result.report["numerator"]["text"] == "1"
    assert direct == BiPoly.const(1)
    assert elapsed < 1.0


def test_criterion_2_worked_elliptic_instance():
    start = time.perf_counter()
    result = run_curve_pipeline(parse_curve_spec(WORKED))
    elapsed = time.perf_counter() - start
    report = result.report
    assert result.passed
    assert all(c["passed"] for c in all_clauses(report))
    assert report["curve"]["class_number"] == 4
    assert report["strata"]["rows"] == [[3, 1]]  # b[0][0] = 3, b[0][1] = 1
    assert report["curve"]["l_polynomial"] == [1, 0, 3]
    numerator = _report_numerator(report)
    assert numerator == 1 + (3 - U) * T + U * T ** 2
    assert numerator.eval_u(Fraction(3)) == RationalPoly((1, 0, 3))
    assert report["checks"]["irreducibility"]["factor_count"] == 1
    assert elapsed < 1.0


def test_criterion_3_base_change_coherence():
    start = time.perf_counter()
    n1 = _f9_point_count()
    n2 = _f81_point_count()
    oracle = _lpolynomial_by_series(n1, n2, 9)
    result, numerator = worked_base_change()
    elapsed = time.perf_counter() - start

    assert (n1, n2) == (16, 64)
    assert oracle == (1, 6, 9)
    report = result.report
    assert result.passed
    assert report["input"]["field_order"] == 9
    assert report["curve"]["point_counts"] == [n1, n2]
    assert tuple(report["curve"]["l_polynomial"]) == oracle
    assert report["curve"]["class_number"] == sum(oracle) == 16
    assert numerator.eval_u(Fraction(9)) == RationalPoly(oracle)
    lifted = [c for c in report["checks"]["structure"]
              if c["name"] == "base change consistency"]
    assert len(lifted) == 1 and lifted[0]["passed"]
    assert elapsed < 5.0


def test_criterion_4_divisor_count_routes_agree():
    bundles = corpus_bundles()
    start = time.perf_counter()

    by_field: dict = {}
    for b in bundles:
        by_field.setdefault((b.model.field.p, b.genus), []).append(b)
    # corpus shape: elliptic families over F_2, F_3, F_5 and at least three
    # genus-2 models over each odd characteristic, y^2 = x^5 + 1 among them
    assert len(by_field[(2, 1)]) >= 3
    assert len(by_field[(3, 1)]) >= 3
    assert len(by_field[(5, 1)]) >= 3
    assert len(by_field[(3, 2)]) >= 3
    assert len(by_field[(5, 2)]) >= 3
    assert any(b.text == "p=3; f=x^5+1" for b in bundles)

    for b in bundles:
        euler = effective_divisor_count(b.places, 2 * b.genus + 2)
        assert tuple(euler) == b.series, b.text
        for clause in stratum_count_clauses(b.measure, b.series, b.q):
            assert clause.passed, (b.text, clause.name, clause.detail)
    elapsed = _STATE["build_seconds"] + time.perf_counter() - start
    assert elapsed < 120.0


def test_criterion_5_numerator_structure_suite():
    for b in corpus_bundles():
        g = b.genus
        for clause in numerator_clauses(b.numerator, g, b.measure.pic0):
            assert clause.passed, (b.text, clause.name, clause.detail)
        # the same facts, asserted directly rather than through the clauses
        assert b.numerator.coeff_of_t(0) == RationalPoly.const(1), b.text
        assert b.numerator.t_degree == 2 * g, b.text
        assert b.numerator.coeff_of_t(2 * g) == RationalPoly.x() ** g, b.text
        for i in range(2 * g + 1):
            assert b.numerator.coeff_of_t(i).degree <= 1 + i // 2, (b.text, i)
        for i in range(g + 1):
            assert (b.numerator.coeff_of_t(2 * g - i)
                    == RationalPoly.x() ** (g - i)
                    * b.numerator.coeff_of_t(i)), (b.text, i)
        assert b.numerator.eval_t(Fraction(1)) == RationalPoly.const(b.pic0)
        for n in range(2 * g - 1):
            for nu in range(g + 1):
                v = b.measure.value(n, nu)
                dual = b.measure.value(2 * g - 2 - n, nu - n + g - 1)
                assert v == dual, (b.text, n, nu)
                if nu >= max(1, n - g + 2) and 2 * nu > n + 2:
                    assert v == 0, (b.text, n, nu)


def test_criterion_6_irreducibility_biconditional():
    # nonzero class mass forces a single absolute factor, on both routes
    for b in corpus_bundles():
        assert b.pic0 != 0, b.text
        assert is_squarefree(b.numerator), b.text
        assert absolute_factor_count(b.numerator) == 1, b.text
        assert reference_factor_count(b.numerator) == 1, b.text
        report = analyze_irreducibility(b.numerator, b.genus, b.measure.pic0)
        assert all(c.passed for c in report.clauses), b.text
        assert {"absolutely irreducible", "factor count cross-check"} \
            <= {c.name for c in report.clauses}
    _, lifted = worked_base_change()
    assert absolute_factor_count(lifted) == reference_factor_count(lifted) == 1

    # zero class mass forces the factor 1 - T
    table = parse_measure_table((DATA / "euler_g1.txt").read_text())
    measure = measure_from_table(table)
    assert measure.pic0 == 0
    numerator = zeta_numerator(measure)
    assert numerator == (1 - T) * (1 - U * T)
    quotient, remainder = bivariate_divmod(numerator, 1 - T)
    assert remainder.is_zero() and quotient == 1 - U * T
    assert absolute_factor_count(numerator) == 2
    assert reference_factor_count(numerator) == 2
    report = analyze_irreducibility(numerator, measure.genus, measure.pic0)
    assert "factor 1 - T at zero class mass" in [c.name for c in report.clauses]
    assert all(c.passed for c in report.clauses)

    # both routes agree with the constructed truth on random products
    products = random_products(20250825, 50)
    assert len(products) >= 50
    for poly, truth in products:
        assert absolute_factor_count(poly) == truth, str(poly)
        assert reference_factor_count(poly) == truth, str(poly)


def test_criterion_7_reversal_of_numerator():
    one_minus_t = RationalPoly((Fraction(1), Fraction(-1)))
    for b in corpus_bundles():
        assert b.pic0 != 0, b.text
        rev = reversal(b.numerator)
        # rev = T^(2g) P(1/T, u) = (1 - T) u^g + lower order terms in u
        assert rev.u_degree == b.genus, b.text
        assert rev.coeff_of_u(b.genus) == one_minus_t, b.text
        assert rev.eval_t(Fraction(1)) == RationalPoly.const(b.pic0), b.text


def test_criterion_8_class_group_and_place_counts():
    for b in corpus_bundles():
        classes = enumerate_jacobian(b.model)
        assert len(classes) == b.pic0, b.text
        assert len(set(classes)) == b.pic0, b.text
        for m in range(1, 2 * b.genus + 1):
            by_places = sum(d * b.places.count(d)
                            for d in range(1, m + 1) if m % d == 0)
            assert by_places == b.counts[m - 1], (b.text, m)


def test_criterion_9_reports_are_byte_identical(tmp_path):
    for spec_text in (WORKED, "p=3; f=x^5+1"):
        first = run_curve_pipeline(parse_curve_spec(spec_text),
                                   with_timing=False)
        second = run_curve_pipeline(parse_curve_spec(spec_text),
                                    with_timing=False)
        assert canonical_json(first.report) == canonical_json(second.report)

        paths = [tmp_path / f"{abs(hash(spec_text))}-{i}.json" for i in (0, 1)]
        for path in paths:
            code = main(["analyze", "--spec", spec_text, "--format",
                         "machine", "--no-timing", "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes().endswith(b"\n")
