"""Absolute factor counting: differential-equation route versus the
closed-form reference, on inputs whose true count is known by construction."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from curvezeta import (BiPoly, RationalPoly, absolute_factor_count,
                       analyze_irreducibility, is_squarefree,
                       reference_factor_count, reversal)
from curvezeta.errors import CapacityError, OracleUnsupportedError
from curvezeta import irreducibility
from curvezeta.irreducibility import (_PRIME, NotSquarefreeError, _rank,
                                      _rank_mod_prime, _square_in_closure,
                                      certify_irreducible, newton_polygon)
from conftest import (FACTOR_POOL, fraction_square_test, gao_box_count,
                      random_products)

T, U = BiPoly.t(), BiPoly.u()

G1_NUMERATOR = 1 + (3 - U) * T + U * T ** 2
G2_NUMERATOR = (1 + (3 - U) * T + (6 - 2 * U) * T ** 2
                + (3 * U - U ** 2) * T ** 3 + U ** 2 * T ** 4)

KNOWN_CASES = [
    (G1_NUMERATOR, 1),
    (G2_NUMERATOR, 1),
    ((1 - T) * G1_NUMERATOR, 2),
    (T ** 2 - 2 * U ** 2, 2),     # conjugate factors T = +-sqrt(2) u
    ((1 + U * T) * (1 - T), 2),
    (T ** 2 + U ** 2, 2),
    (U ** 2 - 5 * T, 1),
    ((T ** 2 + U) * (T + U ** 2), 2),
    (T * U + 1, 1),
]


@pytest.mark.parametrize("poly,count", KNOWN_CASES)
def test_known_counts_both_routes(poly, count):
    assert absolute_factor_count(poly) == count
    assert reference_factor_count(poly) == count


SQUAREFREE_CASES = [
    ((1 - T) * (1 - U * T), True),
    (G1_NUMERATOR, True),
    ((1 - T) ** 2 * (1 + U), False),
    ((1 + U) ** 2 * (T + U), False),  # square in the content
    (BiPoly.from_terms({}), False),
    (BiPoly.const(3), True),
    (1 + U + U ** 2, True),  # T-free but squarefree in u
    # P(T, c) = T^2 at c = 0, 1, 2; c = 3 decides
    (T ** 2 - U * (U - 1) * (U - 2), True),
    ((T ** 2 - U * (U - 1) * (U - 2)) ** 2, False),
    # the leading coefficient vanishes at c = 0
    (U * T ** 2 + T + 1, True),
    ((U * T ** 2 + T + 1) ** 2, False),
    ((1 + U) ** 2 * (1 - U * T) * (T ** 2 + U), False),
    ((U + 1) ** 2 * (U - 2) ** 3 * (U + 3), False),
    ((U + 1) * (U - 1) * (U + 2), True),
    ((T + 1) ** 2 * (T - 2) ** 3 * (T + 3), False),
    ((T + 1) * (T - 1) * (T + 2), True),
]


def test_is_squarefree():
    for poly, expected in SQUAREFREE_CASES:
        assert is_squarefree(poly) == expected, poly


CONTENT_POOL = [1 + U, U - 2, U, U ** 2 + 1]


def _squarefree_by_factoring(poly):
    """Squarefree by sympy's rational factorization: every multiplicity 1."""
    import sympy
    t, u = sympy.symbols("T u")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i * u ** j
               for (i, j), c in poly.terms().items())
    _, factors = sympy.factor_list(expr)
    return all(mult == 1 for _, mult in factors)


def test_is_squarefree_matches_factorization():
    rng = random.Random(20261018)
    pool = [poly for poly, _, _ in FACTOR_POOL] + CONTENT_POOL
    repeated = 0
    for _ in range(150):
        product = BiPoly.const(rng.choice([1, -2, 3]))
        picks = rng.choices(pool, k=rng.randint(1, 3))
        if rng.random() < 0.4:
            picks.append(rng.choice(picks))
        for poly in picks:
            product = product * poly
        expected = _squarefree_by_factoring(product)
        repeated += not expected
        assert is_squarefree(product) == expected, product
    assert 50 <= repeated <= 100  # both answers are well represented


def test_factor_count_input_guards():
    with pytest.raises(ValueError):
        absolute_factor_count(1 + T)  # u is absent
    with pytest.raises(ValueError):
        absolute_factor_count(1 + U)  # T is absent
    with pytest.raises(NotSquarefreeError):
        absolute_factor_count((T + U) ** 2)


def test_factor_count_system_over_the_work_bound_is_refused_before_the_rank(
        monkeypatch):
    ranked = []
    rank = irreducibility._rank
    monkeypatch.setattr(irreducibility, "_rank",
                        lambda rows, bound: ranked.append(rows) or
                        rank(rows, bound))
    # 12 columns, and 2 NP(P) has 22 lattice points: the system G2 builds
    # has 14 rows, so 12 * 22 = 264 entries bound it
    assert absolute_factor_count(G2_NUMERATOR, capacity=264) == 1
    assert len(ranked) == 1 and len(ranked[0]) <= 22
    assert len(ranked[0][0]) == 12
    with pytest.raises(CapacityError, match=r"needs 264 entries \(12 "
                       r"columns times at most 22 rows\), above the work "
                       r"bound 263"):
        analyze_irreducibility(G2_NUMERATOR, 2, Fraction(0), capacity=263)
    assert len(ranked) == 1


def test_reference_oracle_refuses_what_it_cannot_classify():
    with pytest.raises(OracleUnsupportedError):
        reference_factor_count((T + U) ** 2)  # repeated factor
    # irreducible, inhomogeneous, cubic in both variables: no closed form
    with pytest.raises(OracleUnsupportedError):
        reference_factor_count(T ** 3 + U ** 3 + 1)


def _rational_factor_multiplicities(poly):
    """Multiplicities of the non-constant factors in sympy's factorization
    over Q."""
    import sympy
    t, u = sympy.symbols("T u")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i * u ** j
               for (i, j), c in poly.terms().items())
    _, factors = sympy.factor_list(expr)
    return [mult for _, mult in factors]


CERTIFICATE_POOL = [poly for poly, _, _ in FACTOR_POOL] + CONTENT_POOL


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(CERTIFICATE_POOL), min_size=1, max_size=3),
       st.sampled_from([1, -2, Fraction(1, 6)]), st.integers(0, 80))
def test_certificate_never_certifies_a_factored_polynomial(picks, scalar, budget):
    product = BiPoly.const(scalar)
    for poly in picks:
        product = product * poly
    if certify_irreducible(product, budget):
        assert _rational_factor_multiplicities(product) == [1], product


def test_certificate_finds_the_irreducible_pool_entries():
    for poly, _, _ in FACTOR_POOL:
        assert certify_irreducible(poly, irreducibility.CERTIFICATE_BUDGET), poly
        assert not certify_irreducible(poly, 0)
    for poly in CONTENT_POOL:  # no T: nothing to specialize
        assert not certify_irreducible(poly, irreducibility.CERTIFICATE_BUDGET)


def test_quadratic_discriminant_classification():
    # u^2 = T^2 (T + 1) has a non-square discriminant: one absolute factor
    assert reference_factor_count(U ** 2 - T ** 2 * (T + 1)) == 1
    # u^2 = T^2 (T + 1)^2 splits: two absolute factors
    assert reference_factor_count(U ** 2 - T ** 2 * (T + 1) ** 2) == 2
    assert absolute_factor_count(U ** 2 - T ** 2 * (T + 1)) == 1
    assert absolute_factor_count(U ** 2 - T ** 2 * (T + 1) ** 2) == 2


@pytest.mark.parametrize("fac,count", [
    # quadratic in u, of T-degree 4: the discriminant 8 (T^2 + 1)^2 is a
    # square over the closure, 4 (T^4 + 1) is not
    (U ** 2 - 2 * (T ** 2 + 1) ** 2, 2),
    (U ** 2 - T ** 4 - 1, 1),
    # quadratic in T, of u-degree 6 and 4
    (T ** 2 - 2 * (U ** 3 + 1) ** 2, 2),
    (T ** 2 - U ** 4 - 1, 1),
])
def test_closed_form_reads_a_quadratic_in_either_variable(fac, count):
    # each is irreducible over Q, so the closed form is the whole count
    assert irreducibility._factor_count_closed_form(fac) == count
    assert absolute_factor_count(fac) == count


X = RationalPoly.x()

# irreducible over Q and pairwise coprime
SQUARE_POOL = [X, X + 1, X - 2, 2 * X + 3, X ** 2 + 1, X ** 2 - 2,
               X ** 3 - X - 1, 3 * X ** 4 + X + 1]


def _square_by_sqf_list(poly):
    """Every multiplicity in sympy's squarefree decomposition is even."""
    import sympy
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(poly.coeffs))
    _, parts = sympy.sqf_list(expr, x)
    return all(mult % 2 == 0 for _, mult in parts)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, -1, 2, -3, Fraction(1, 6), Fraction(5, 4)]),
       st.lists(st.tuples(st.sampled_from(SQUARE_POOL), st.integers(1, 3)),
                max_size=4))
@example(7, [])  # constants are squares
@example(Fraction(-2, 3), [])
@example(1, [(X, 1)])  # odd degree
@example(1, [(X + 1, 3)])
@example(2, [(X ** 2 + 1, 2)])  # non-square constant times a square
@example(-3, [(X - 2, 2), (X, 2), (X, 2)])
@example(5, [(X ** 2 - 2, 1), (X + 1, 2)])
@example(4, [(X + Fraction(1, 2), 2)])  # 4x^2 + 4x + 1: the root x + 1/2
@example(9, [(X + Fraction(1, 3), 2), (X, 2)])
def test_square_in_closure_matches_squarefree_decomposition(scalar, picks):
    poly = RationalPoly.const(scalar)
    for factor, exponent in picks:
        poly = poly * factor ** exponent
    assert _square_in_closure(poly) == _square_by_sqf_list(poly), poly


# ints and Fractions, small and of up to 30 digits
WIDE = st.one_of(st.integers(-4, 4), st.integers(-10 ** 30, 10 ** 30),
                 st.fractions(max_denominator=6),
                 st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                           st.integers(1, 10 ** 30)))


@settings(max_examples=200, deadline=None)
@given(st.lists(WIDE, min_size=1, max_size=4).map(RationalPoly),
       st.lists(WIDE, max_size=5).map(RationalPoly), WIDE)
@example(RationalPoly((1,)), RationalPoly(), 7)  # constants
@example(RationalPoly((1, 2)), RationalPoly(), -1)  # a square, negated
@example(RationalPoly((Fraction(1, 3), 1)), RationalPoly((0, 1)), 1)
def test_square_in_closure_matches_fraction_reference(root, extra, scalar):
    if scalar == 0:
        return
    square = root * root * scalar
    for disc in (square, square + extra, root * scalar):
        if disc:
            assert (_square_in_closure(disc)
                    == fraction_square_test(disc)), disc


def test_reversal():
    assert reversal(G1_NUMERATOR) == T ** 2 + (3 - U) * T + U
    assert reversal(reversal(G1_NUMERATOR)) == G1_NUMERATOR
    assert reversal(BiPoly.const(5)) == BiPoly.const(5)


def test_random_products_three_way_agreement():
    for product, truth in random_products(seed=20240817, how_many=55):
        assert is_squarefree(product)
        assert absolute_factor_count(product) == truth
        assert reference_factor_count(product) == truth


def test_rational_coefficients_keep_the_count():
    # denominators are cleared before the rank is taken
    halves = Fraction(1, 2) * T ** 2 - Fraction(1, 3) * U ** 2  # 2 factors
    for product, truth in random_products(seed=20261019, how_many=10):
        assert absolute_factor_count(Fraction(1, 6) * product) == truth
        assert absolute_factor_count(product * halves) == truth + 2


def fraction_rank(rows):
    """Rank by Gaussian elimination over Q with Fraction entries."""
    mat = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                factor = mat[i][col] / lead
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# Small entries make rank drops likely; large ones, past 2^64, test that
# nothing is truncated to a machine word.
ENTRIES = st.integers(-9, 9) | st.integers(-2 ** 40, 2 ** 40)


@st.composite
def deficient_matrices(draw):
    """Integer matrices up to 10 x 10 of rank at most the inner dimension of
    a random product, with some columns zeroed."""
    rows, cols, inner = (draw(st.integers(1, 10)) for _ in range(3))
    left = draw(st.lists(st.lists(ENTRIES, min_size=inner, max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
    zeroed = draw(st.sets(st.integers(0, cols - 1)))
    return [[0 if j in zeroed else sum(a * right[k][j] for k, a in enumerate(row))
             for j in range(cols)] for row in left]


@st.composite
def full_rank_matrices(draw):
    """Integer matrices up to 10 x 10 of rank min(#rows, #cols): the leading
    square block is strictly diagonally dominant, hence nonsingular."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entries = st.integers(-2 ** 70, 2 ** 70)
    mat = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    for i in range(min(rows, cols)):
        mat[i][i] = draw(st.sampled_from([1, -1])) * (
            sum(abs(a) for a in mat[i]) + 1)
    return mat


MATRICES = deficient_matrices() | full_rank_matrices()


@settings(max_examples=300, deadline=None)
@given(MATRICES)
def test_rank_matches_fraction_elimination(rows):
    before = [row[:] for row in rows]
    assert _rank(rows) == fraction_rank(rows)
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(full_rank_matrices())
def test_full_rank_matrices_have_full_rank(rows):
    assert _rank(rows) == min(len(rows), len(rows[0]))


@settings(max_examples=100, deadline=None)
@given(MATRICES, st.integers(1, 2 ** 64))
@example([[1, 0], [0, _PRIME]], 1)  # rank 2 over Q, 1 mod the prime
@example([[_PRIME, 2 * _PRIME], [3 * _PRIME, 6 * _PRIME]], 1)
def test_multiples_of_the_prime_go_to_exact_elimination(rows, multiple):
    """A matrix the prime divides reads rank 0 mod it, so exact elimination
    must decide, and gets the rank of the matrix before scaling."""
    truth = fraction_rank(rows)
    scaled = [[_PRIME * multiple * a for a in row] for row in rows]
    assert _rank_mod_prime(scaled, len(rows)) == 0
    assert _rank(scaled) == truth
    assert _rank(rows) == truth


@settings(max_examples=150, deadline=None)
@given(MATRICES, st.data())
def test_rank_below_an_explicit_bound(rows, data):
    truth = fraction_rank(rows)
    bound = data.draw(st.integers(truth, min(len(rows), len(rows[0]))))
    assert _rank(rows, bound) == truth
    scaled = [[_PRIME * a for a in row] for row in rows]
    assert _rank(scaled, bound) == truth


def test_rank_with_a_kernel_vector_and_a_bound():
    # columns 0 + 1 = 2, so rank <= 2 < min(4, 3); the modular pass reaches 2
    rows = [[1, 2, 3], [4, -5, -1], [2 ** 70, 3, 2 ** 70 + 3], [0, 7, 7]]
    assert _rank(rows, 2) == 2 == fraction_rank(rows)
    # the same matrix times the prime: only exact elimination finds 2
    scaled = [[_PRIME * a for a in row] for row in rows]
    assert _rank(scaled, 2) == 2


def _bareiss_calls(monkeypatch):
    calls = []
    real = irreducibility._bareiss_rank

    def spy(rows):
        calls.append((len(rows), len(rows[0])))
        return real(rows)

    monkeypatch.setattr(irreducibility, "_bareiss_rank", spy)
    return calls


@pytest.mark.parametrize("spec", ["p=2; f=x^11+x+1; h=1", "p=3; f=x^7+x+1"])
def test_curve_numerators_skip_exact_elimination(monkeypatch, spec):
    from curvezeta import parse_curve_spec, run_curve_pipeline
    calls = _bareiss_calls(monkeypatch)
    ranks = []
    real = irreducibility._rank

    def rank_spy(rows, bound=None):
        ranks.append(bound)
        return real(rows, bound)

    monkeypatch.setattr(irreducibility, "_rank", rank_spy)
    result = run_curve_pipeline(parse_curve_spec(spec), with_timing=False)
    assert result.passed
    assert result.report["checks"]["irreducibility"]["factor_count"] == 1
    assert len(ranks) == 1 and calls == []


def test_reducible_numerator_takes_exact_elimination(monkeypatch):
    from curvezeta import (measure_from_table, parse_measure_table,
                           zeta_numerator)
    P = zeta_numerator(measure_from_table(
        parse_measure_table(EULER_TABLE.read_text())))
    calls = _bareiss_calls(monkeypatch)
    assert absolute_factor_count(P) == 2
    assert len(calls) == 1


def _rank_calls(monkeypatch):
    """(#rows, #cols, bound) of every irreducibility._rank call."""
    calls = []
    real = irreducibility._rank

    def spy(rows, bound=None):
        calls.append((len(rows), len(rows[0]) if rows else 0, bound))
        return real(rows, bound)

    monkeypatch.setattr(irreducibility, "_rank", spy)
    return calls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([1, Fraction(1, 6)]),
       st.sampled_from([BiPoly.const(1), U, U + 2, (U - 1) * (U + 3)]))
def test_polygon_count_matches_the_full_box(seed, scalar, content):
    """Keeping only the unknowns inside NP(P) loses no solution of Gao's
    system: the count matches the full degree box on pool products, also
    scaled and times a u-content whose factors each count once."""
    (product, truth), = random_products(seed, 1)
    P = scalar * product * content
    count = truth + content.u_degree
    assert absolute_factor_count(P) == gao_box_count(P) == count


@pytest.mark.parametrize("poly,hull,width,count", [
    (T * U, ((1, 1),), 2, 2),
    (T * U * (1 + T), ((1, 1), (2, 1)), 4, 3),
    (1 + T * U, ((0, 0), (1, 1)), 2, 1),
    (T ** 2 - 2 * U ** 2, ((0, 2), (2, 0)), 4, 2),
    (T ** 3 + U ** 3, ((0, 3), (3, 0)), 6, 3),
])
def test_degenerate_hulls(monkeypatch, poly, hull, width, count):
    """A hull that is one point or a segment keeps its count, with one
    unknown of g and one of h per lattice point (x, y) of the hull that has
    x >= 1 and y >= 1 respectively, and none off it."""
    assert newton_polygon(poly) == hull
    calls = _rank_calls(monkeypatch)
    assert absolute_factor_count(poly) == gao_box_count(poly) == count
    assert [bound for _, _, bound in calls] == [width - 1]


@pytest.mark.parametrize("name,count", [("euler_g1.txt", 2),
                                        ("euler_g2.txt", 3)])
def test_zero_class_mass_tables_on_the_polygon(monkeypatch, name, count):
    """Reducible numerators (P = (1 - T)(1 - uT) Q): the polygon system
    falls short of its bound and exact elimination decides the count."""
    from curvezeta import (measure_from_table, parse_measure_table,
                           zeta_numerator)
    table = Path(__file__).parent / "data" / name
    P = zeta_numerator(measure_from_table(
        parse_measure_table(table.read_text())))
    assert gao_box_count(P) == count
    calls = _bareiss_calls(monkeypatch)
    assert absolute_factor_count(P) == count
    assert len(calls) == 1


def _pentagon(g):
    """The Newton polygon of a genus-g curve numerator, as newton_polygon
    lists it; for g = 1 the vertices (2g - 1, g) and (1, 1) coincide."""
    return tuple(dict.fromkeys(
        [(0, 0), (g, 0), (2 * g, g), (2 * g - 1, g), (1, 1)]))


@pytest.mark.parametrize("spec,genus,shape", [
    ("p=2; f=x^11+x+1; h=1", 5, (71, 45)),
    ("p=2; f=x^13+x+1; h=1", 6, (98, 60)),
    ("p=3; f=x^9+x+1", 4, (48, 32)),
    ("p=3; f=x^3+x", 1, (4, 5)),
])
def test_rank_system_spans_the_newton_polygon(monkeypatch, spec, genus, shape):
    """Deterministic work: each curve's one rank matrix has the polygon
    system's shape (the full degree box gave 167 x 115, 241 x 162 and
    109 x 76 for genus 5, 6 and 4), and the hull has the vertices that a
    unit-edge argument reads."""
    from curvezeta import parse_curve_spec, run_curve_pipeline
    calls = _rank_calls(monkeypatch)
    hulls = []
    real_hull = irreducibility.newton_polygon

    def hull_spy(P):
        hulls.append(real_hull(P))
        return hulls[-1]

    monkeypatch.setattr(irreducibility, "newton_polygon", hull_spy)
    assert run_curve_pipeline(parse_curve_spec(spec), with_timing=False).passed
    assert [(rows, cols) for rows, cols, _ in calls] == [shape]
    assert hulls == [_pentagon(genus)]


def test_analyze_genus_zero():
    report = analyze_irreducibility(BiPoly.const(1), 0, Fraction(1))
    assert not report.applicable
    assert report.factor_count is None
    assert len(report.clauses) == 1 and report.clauses[0].passed


def test_analyze_worked_elliptic():
    report = analyze_irreducibility(G1_NUMERATOR, 1, Fraction(4))
    assert report.applicable and report.squarefree
    assert report.factor_count == 1
    assert report.reference_count == 1
    names = [c.name for c in report.clauses]
    assert names == ["reversal leading coefficient", "reversal value at T = 1",
                     "factor count cross-check", "absolutely irreducible"]
    assert all(c.passed for c in report.clauses)


def test_analyze_not_squarefree():
    report = analyze_irreducibility((1 - U * T) ** 2, 1, Fraction(4))
    assert report.squarefree is False
    assert report.factor_count is None and report.reference_count is None
    by_name = {c.name: c for c in report.clauses}
    assert "factor count cross-check" not in by_name
    assert not by_name["absolutely irreducible"].passed


def test_analyze_zero_class_mass():
    euler = (1 - T) * (1 - U * T)
    report = analyze_irreducibility(euler, 1, Fraction(0))
    assert report.factor_count == 2
    by_name = {c.name: c for c in report.clauses}
    assert by_name["factor 1 - T at zero class mass"].passed
    assert by_name["reversal value at T = 1"].passed
    assert "absolutely irreducible" not in by_name


def test_analyze_flags_wrong_class_mass():
    # a reducible polynomial presented with nonzero mass must fail
    report = analyze_irreducibility((1 - T) * (1 - U * T), 1, Fraction(4))
    by_name = {c.name: c for c in report.clauses}
    assert not by_name["absolutely irreducible"].passed
    assert not by_name["reversal value at T = 1"].passed
    assert by_name["factor count cross-check"].passed  # both routes say 2


def test_analyze_zero_mass_without_the_factor():
    # genus-1 shaped polynomial with P(1, u) != 0 but claimed mass zero
    bad = 1 + (3 - U) * T + U * T ** 2
    report = analyze_irreducibility(bad, 1, Fraction(0))
    by_name = {c.name: c for c in report.clauses}
    assert not by_name["factor 1 - T at zero class mass"].passed


EULER_TABLE = Path(__file__).parent / "data" / "euler_g1.txt"
GENUS_3_SPEC = "p=2; f=x^7+x+1; h=x^3+x+1"

# (spec, base change): genus 1, genus 2, a base change and genus 3
CERTIFIED_RUNS = [("p=3; f=x^3+x", 1), ("p=5; f=x^5+x+1", 1),
                  ("p=3; f=x^3+x", 2), (GENUS_3_SPEC, 1)]


def _fresh_process(code):
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_certified_numerators_skip_sympy():
    # every numerator is certified irreducible over Q, so the oracle never
    # imports sympy: genus 1 and 2 are classified as P itself, genus 3 fits
    # no closed form and its clause is dropped
    _fresh_process(
        "import sys\n"
        "from curvezeta import parse_curve_spec, run_curve_pipeline\n"
        f"for spec, base_change in {CERTIFIED_RUNS!r}:\n"
        "    result = run_curve_pipeline(parse_curve_spec(spec),\n"
        "                                base_change=base_change)\n"
        "    assert result.passed\n"
        "    irred = result.report['checks']['irreducibility']\n"
        "    names = [c['name'] for c in irred['clauses']]\n"
        "    if result.report['input']['genus'] < 3:\n"
        "        assert irred['reference_factor_count'] == 1, spec\n"
        "        assert 'factor count cross-check' in names, spec\n"
        "    else:\n"
        "        assert irred['reference_factor_count'] is None, spec\n"
        "        assert 'factor count cross-check' not in names, spec\n"
        "assert 'sympy' not in sys.modules\n")
    # (1 - T)(1 - uT) is reducible, so only sympy can factor it
    _fresh_process(
        "import sys\n"
        "from curvezeta import parse_measure_table, run_table_pipeline\n"
        f"text = open({str(EULER_TABLE)!r}).read()\n"
        "result = run_table_pipeline(parse_measure_table(text))\n"
        "assert result.passed\n"
        "irred = result.report['checks']['irreducibility']\n"
        "assert irred['reference_factor_count'] == 2\n"
        "assert 'factor count cross-check' in "
        "[c['name'] for c in irred['clauses']]\n"
        "assert 'sympy' in sys.modules\n")


def test_certificate_gives_up_at_once_on_the_factor_1_minus_t(monkeypatch):
    from curvezeta import (measure_from_table, parse_measure_table,
                           zeta_numerator)
    P = zeta_numerator(measure_from_table(
        parse_measure_table(EULER_TABLE.read_text())))
    real = irreducibility.fp.is_irreducible
    tests = []

    def spy(F, f):
        tests.append(f)
        return real(F, f)

    monkeypatch.setattr(irreducibility.fp, "is_irreducible", spy)
    assert irreducibility.reference_factor_count(P) == 2
    assert tests == []


def test_certificate_leaves_the_report_unchanged(monkeypatch):
    from curvezeta import canonical_json, parse_curve_spec, run_curve_pipeline

    numerators, classified = [], []
    oracle = irreducibility.reference_factor_count
    closed_form = irreducibility._factor_count_closed_form

    def oracle_spy(P):
        numerators.append(P)
        return oracle(P)

    def closed_form_spy(fac):
        classified.append(fac)
        return closed_form(fac)

    monkeypatch.setattr(irreducibility, "reference_factor_count", oracle_spy)
    monkeypatch.setattr(irreducibility, "_factor_count_closed_form",
                        closed_form_spy)
    def report(spec, base_change, budget):
        monkeypatch.setattr(irreducibility, "CERTIFICATE_BUDGET", budget)
        numerators.clear()
        classified.clear()
        return canonical_json(run_curve_pipeline(
            parse_curve_spec(spec), base_change=base_change,
            with_timing=False).report)

    default_budget = irreducibility.CERTIFICATE_BUDGET
    for spec, base_change in CERTIFIED_RUNS:
        certified = report(spec, base_change, default_budget)
        assert len(numerators) == 1, spec
        assert classified == numerators, spec  # P itself, nothing else
        P = numerators[0]
        assert report(spec, base_change, 0) == certified, spec
        # sympy factored P into one factor, proportional to P
        assert len(classified) == 1, spec
        assert classified[0] * P.coeff(0, 0) == P * classified[0].coeff(0, 0)
