"""Two-variable zeta numerator built from a measure on the section strata.

A measure assigns a rational value to every stratum (degree n, sections nu)
for 0 <= n <= 2g-2, together with a total mass pic0 for each degree.  The
counting measure (stratum sizes over F_q) is the motivating case; any table
satisfying the same shape constraints is accepted.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CapacityError, ConsistencyError, InvalidMeasureError
from .finitefield import DEFAULT_CAPACITY
from .jacobian import StratumTable
from .parsing import MeasureTableData
from .ratpoly import BiPoly, RationalPoly, bivariate_exact_divide, format_poly


def _u_text(poly: RationalPoly) -> str:
    return format_poly(poly.coeffs, "u")


class Measure(namedtuple("Measure", "genus pic0 values lefschetz label",
                         defaults=(None, "measure"))):
    """values[n][nu] for 0 <= n <= 2g-2, 0 <= nu <= g; pic0 is the common
    row total.  lefschetz is the point-count specialization of u (the field
    order) when the measure arises from counting, else None."""
    genus: int
    pic0: Fraction
    values: tuple[tuple[Fraction, ...], ...]
    lefschetz: int | None
    label: str
    __slots__ = ()

    def value(self, n: int, nu: int) -> Fraction:
        if 0 <= n < len(self.values) and 0 <= nu < len(self.values[n]):
            return self.values[n][nu]
        return Fraction(0)


def validate_measure(measure: Measure) -> None:
    """Check the shape constraints; raises InvalidMeasureError naming the
    first violated one."""
    g = measure.genus
    if g < 0:
        raise InvalidMeasureError("genus must be nonnegative")
    if g == 0:
        if measure.pic0 != 1:
            raise InvalidMeasureError(
                f"genus 0 forces pic0 = 1, table says {measure.pic0}")
        if any(any(row) for row in measure.values):
            raise InvalidMeasureError("genus 0 admits no strata entries")
        return
    rows = 2 * g - 1
    if len(measure.values) != rows or any(len(r) != g + 1 for r in measure.values):
        raise InvalidMeasureError(
            f"genus {g} needs a {rows} x {g + 1} value table")
    for n in range(rows):
        total = sum(measure.values[n])
        if total != measure.pic0:
            raise InvalidMeasureError(
                f"row sum at degree {n} is {total}, expected pic0 = {measure.pic0}")
    if measure.value(0, 1) != 1:
        raise InvalidMeasureError(
            f"zero-section constraint: value at (0, 1) must be 1, "
            f"got {measure.value(0, 1)}")
    for nu in range(2, g + 1):
        if measure.value(0, nu) != 0:
            raise InvalidMeasureError(
                f"zero-section constraint: value at (0, {nu}) must vanish")
    for n in range(rows):
        for nu in range(g + 1):
            dual = measure.value(2 * g - 2 - n, nu - n + g - 1)
            if measure.value(n, nu) != dual:
                raise InvalidMeasureError(
                    f"duality constraint fails at ({n}, {nu}): "
                    f"{measure.value(n, nu)} vs {dual} at "
                    f"({2 * g - 2 - n}, {nu - n + g - 1})")
            if (nu >= max(1, n - g + 2) and 2 * nu > n + 2
                    and measure.value(n, nu) != 0):
                raise InvalidMeasureError(
                    f"Clifford vanishing fails at ({n}, {nu}): "
                    f"{measure.value(n, nu)}")


def counting_measure(table: StratumTable, label: str = "counting") -> Measure:
    measure = Measure(
        genus=table.genus,
        pic0=Fraction(table.class_count),
        values=tuple(tuple(Fraction(v) for v in row) for row in table.rows),
        lefschetz=table.q,
        label=label)
    validate_measure(measure)
    return measure


def measure_from_table(data: MeasureTableData, *,
                       capacity: int = DEFAULT_CAPACITY) -> Measure:
    """The measure of a parsed table; a genus whose (2g-1)(g+1) entries
    exceed capacity is refused (CapacityError) before the table is built."""
    g = data.genus
    if (2 * g - 1) * (g + 1) > capacity:
        raise CapacityError(
            f"genus {g} needs a table of {(2 * g - 1) * (g + 1)} entries, "
            f"above the work bound {capacity}")
    values = [[Fraction(0)] * (g + 1) for _ in range(max(2 * g - 1, 0))]
    for (n, nu), val in data.entries.items():
        if n > max(2 * g - 2, 0) or nu > g or (g == 0 and (n, nu) != (0, 0)):
            raise InvalidMeasureError(
                f"stratum ({n}, {nu}) is out of range for genus {g}")
        if g == 0:
            raise InvalidMeasureError("genus 0 admits no strata entries")
        values[n][nu] = val
    measure = Measure(genus=g, pic0=data.pic0,
                      values=tuple(tuple(row) for row in values),
                      lefschetz=None, label="table")
    validate_measure(measure)
    return measure


def strata_polynomial(measure: Measure) -> BiPoly:
    """G(T, u) = sum over strata of value * u^nu * T^n."""
    terms = {}
    for n in range(max(2 * measure.genus - 1, 0)):
        for nu in range(measure.genus + 1):
            val = measure.value(n, nu)
            if val:
                terms[(n, nu)] = val
    return BiPoly.from_terms(terms)


def scaled_numerator(measure: Measure) -> BiPoly:
    """(u - 1) times the numerator; self-checks its three forced values."""
    g = measure.genus
    if g == 0:
        return BiPoly.u() - BiPoly.const(1)
    # pic0 ((1 - T) u^g T^(2g-1) - (1 - uT)) + (1 - T)(1 - uT) G, with the
    # two fixed factors written down term by term
    one_ut = BiPoly.from_terms({(0, 0): 1, (1, 1): -1})
    top = BiPoly.from_terms({(2 * g - 1, g): 1, (2 * g, g): -1}) - one_ut
    both = BiPoly.from_terms({(0, 0): 1, (1, 0): -1, (1, 1): -1, (2, 1): 1})
    q_poly = top * measure.pic0 + both * strata_polynomial(measure)
    if q_poly.eval_u(1) != RationalPoly.const(0):
        raise ConsistencyError("scaled numerator does not vanish at u = 1")
    if q_poly.coeff_of_t(0) != RationalPoly((-1, 1)):
        raise ConsistencyError("scaled numerator has wrong constant term")
    expect = RationalPoly((-measure.pic0, measure.pic0))
    if q_poly.eval_t(1) != expect:
        raise ConsistencyError("scaled numerator has wrong value at T = 1")
    return q_poly


def zeta_numerator(measure: Measure) -> BiPoly:
    """P(T, u): numerator of the two-variable zeta over (1 - T)(1 - uT)."""
    if measure.genus == 0:
        return BiPoly.const(1)
    q_poly = scaled_numerator(measure)
    return bivariate_exact_divide(q_poly, BiPoly.u() - BiPoly.const(1))


class ClauseResult(namedtuple("ClauseResult", "name passed detail")):
    name: str
    passed: bool
    detail: str
    __slots__ = ()


def numerator_clauses(numerator: BiPoly, genus: int,
                      pic0: Fraction) -> list[ClauseResult]:
    """The structural properties of P(T, u), each as a pass/fail clause."""
    g = genus
    out = []

    p0 = numerator.coeff_of_t(0)
    out.append(ClauseResult(
        "unit constant term", p0 == RationalPoly.const(1),
        f"P_0(u) = {_u_text(p0)}"))

    lead_ok = (numerator.t_degree == 2 * g
               and numerator.coeff_of_t(2 * g) == RationalPoly((0,) * g + (1,)))
    out.append(ClauseResult(
        "leading coefficient", lead_ok,
        f"T-degree {numerator.t_degree} (expected {2 * g}), "
        f"P_{2 * g}(u) = {_u_text(numerator.coeff_of_t(2 * g))}"))

    bad = [i for i in range(2 * g + 1)
           if numerator.coeff_of_t(i).degree > 1 + i // 2]
    out.append(ClauseResult(
        "coefficient degree bounds", not bad,
        "every deg_u P_i <= 1 + i/2" if not bad
        else f"bound violated at T-indices {bad}"))

    sym_bad = [i for i in range(g + 1)
               if numerator.coeff_of_t(2 * g - i)
               != RationalPoly((0,) * (g - i) + numerator.coeff_of_t(i).coeffs)]
    out.append(ClauseResult(
        "coefficient symmetry", not sym_bad,
        "P_{2g-i} = u^(g-i) P_i for 0 <= i <= g" if not sym_bad
        else f"symmetry broken at indices {sym_bad}"))

    # u^g P and sum_i P_i(u) u^(2g-i) T^(2g-i), by shifting rows: row k of
    # the sum is P_(2g-k) moved up by k powers of u.
    lhs = BiPoly(tuple((0,) * g + row for row in numerator.rows))
    rhs = BiPoly(tuple((0,) * k + numerator.coeff_of_t(2 * g - k).coeffs
                       for k in range(2 * g + 1)))
    out.append(ClauseResult(
        "functional equation", lhs == rhs,
        "u^g P(T, u) equals the reflected sum" if lhs == rhs
        else "cleared functional equation fails"))

    at_one = numerator.eval_t(1)
    out.append(ClauseResult(
        "value at T = 1", at_one == RationalPoly.const(pic0),
        f"P(1, u) = {_u_text(at_one)}, pic0 = {pic0}"))
    return out


def classical_specialization(numerator: BiPoly, lpoly_coeffs,
                             q: int) -> ClauseResult:
    """P(T, q) must be the one-variable numerator L(T)."""
    spec = numerator.eval_u(q)
    want = RationalPoly(lpoly_coeffs)
    return ClauseResult(
        "point-count specialization", spec == want,
        f"P(T, {q}) = {spec}" + ("" if spec == want else f", L(T) = {want}"))


def stratum_count_clauses(measure: Measure, series,
                          q: int) -> list[ClauseResult]:
    """Effective divisor counts from the strata versus the zeta series.

    Degrees n <= 2g-2 use the bucket decomposition; larger degrees use the
    closed form pic0 * (q^(n-g+1) - 1)/(q - 1).
    """
    g = measure.genus
    out = []
    for n in range(len(series)):
        if n <= 2 * g - 2:
            lhs = sum(measure.value(n, nu) * Fraction(q ** nu - 1, q - 1)
                      for nu in range(g + 1))
            branch = "strata"
        else:
            lhs = measure.pic0 * Fraction(q ** (n - g + 1) - 1, q - 1)
            branch = "closed form"
        out.append(ClauseResult(
            f"effective divisor count, degree {n}", lhs == series[n],
            f"{branch}: {lhs}, series: {series[n]}"))
    return out
