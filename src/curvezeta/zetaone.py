"""The classical (one-variable) zeta data of a curve.

Everything here is driven by the numerator L(T) of

    Z(T) = L(T) / ((1 - T)(1 - qT)),

an integer polynomial of degree 2g determined by the point counts
a_1 .. a_g together with the functional equation c_(2g-i) = q^(g-i) c_i.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .errors import InconsistentCountsError


class LPolynomial(namedtuple("LPolynomial", "coeffs q genus")):
    coeffs: tuple[int, ...]  # c_0 .. c_2g
    q: int
    genus: int
    __slots__ = ()

    def __new__(cls, coeffs, q, genus):
        g = genus
        cs = coeffs
        if len(cs) != 2 * g + 1:
            raise InconsistentCountsError(
                f"L-polynomial of genus {g} needs {2 * g + 1} coefficients")
        if cs[0] != 1:
            raise InconsistentCountsError("L(0) must be 1")
        for i in range(g + 1):
            if cs[2 * g - i] != q ** (g - i) * cs[i]:
                raise InconsistentCountsError(
                    f"functional equation fails at index {i}: "
                    f"c_{2 * g - i} = {cs[2 * g - i]} != q^{g - i} * c_{i}")
        if g >= 1 and cs[1] ** 2 > 4 * g * g * q:
            raise InconsistentCountsError(
                f"|c_1| = {abs(cs[1])} breaks the Weil bound c_1^2 <= 4 g^2 q")
        return super().__new__(cls, coeffs, q, genus)

    def __str__(self):
        from .ratpoly import format_poly
        return format_poly(self.coeffs, "T")


def lpolynomial_from_counts(counts, q: int, genus: int) -> LPolynomial:
    """Build L from a_1 .. a_genus.

    The power sums P_m = q^m + 1 - a_m of the inverse roots give the low
    half of L by Newton's identities, m c_m = -sum_(j=1..m) P_j c_(m-j);
    the high half comes from the functional equation.  A non-integer c_m
    means the counts are not the counts of any curve.
    """
    counts = list(counts)
    if len(counts) < genus:
        raise InconsistentCountsError(
            f"need a_1..a_{genus} to determine a genus-{genus} L-polynomial")
    psums = [q ** m + 1 - counts[m - 1] for m in range(1, genus + 1)]
    low = [1]
    for n in range(1, genus + 1):
        acc = -sum(psums[j - 1] * low[n - j] for j in range(1, n + 1))
        if acc % n:
            raise InconsistentCountsError(
                f"counts force the non-integer coefficient c_{n} = "
                f"{Fraction(acc, n)}")
        low.append(acc // n)
    full = low + [q ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)]
    return LPolynomial(coeffs=tuple(full), q=q, genus=genus)


def class_number(lpoly: LPolynomial) -> int:
    """|Pic^0(F_q)| = L(1)."""
    return sum(lpoly.coeffs)


def point_counts_from_lpolynomial(lpoly: LPolynomial, upto: int) -> list[int]:
    """a_1 .. a_upto recovered from L via Newton power sums of the inverse
    roots: a_m = q^m + 1 - P_m."""
    c = lpoly.coeffs
    deg = len(c) - 1
    psums = [0] * (upto + 1)
    for m in range(1, upto + 1):
        acc = m * c[m] if m <= deg else 0
        for j in range(1, min(m, deg) + 1):
            if j < m:
                acc += c[j] * psums[m - j]
        psums[m] = -acc
    return [lpoly.q ** m + 1 - psums[m] for m in range(1, upto + 1)]


def lifted_lpolynomial(lpoly: LPolynomial, m: int) -> LPolynomial:
    """The L-polynomial over F_(q^m): inverse roots are the m-th powers of
    the originals.  Computed through the recovered point counts."""
    if m < 1:
        raise ValueError("base change degree must be >= 1")
    g = lpoly.genus
    big = point_counts_from_lpolynomial(lpoly, m * g)
    lifted_counts = [big[m * j - 1] for j in range(1, g + 1)]
    return lpolynomial_from_counts(lifted_counts, lpoly.q ** m, g)


def zeta_series(lpoly: LPolynomial, order: int) -> list[int]:
    """s_0 .. s_order with s_n = |X^(n)(F_q)|, the degree-n effective
    divisor counts, read off the expansion of L / ((1-T)(1-qT)):
    s_n = c_n + (1+q) s_(n-1) - q s_(n-2)."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    c, q = lpoly.coeffs, lpoly.q
    out = []
    for n in range(order + 1):
        v = c[n] if n < len(c) else 0
        if n >= 1:
            v += (1 + q) * out[n - 1]
        if n >= 2:
            v -= q * out[n - 2]
        if v < 0:
            raise InconsistentCountsError(
                f"series coefficient s_{n} = {v} is not a nonnegative integer")
        out.append(v)
    return out


def effective_divisor_count(place_table, upto: int) -> list[int]:
    """s_0 .. s_upto, as zeta_series gives them, recomputed from the place
    table alone: the Euler product over places, expanded once to degree
    upto, counts the multisets of places of each total degree n.

    Independent of the L-polynomial route on purpose for n <= 2g, where
    every N_d is a sieved tally; the two are compared in the verification
    layer.  Past 2g the table's N_d are read from L (see
    curve.enumerate_places), so there the two routes agree by
    construction.
    """
    if upto < 0:
        raise ValueError("divisor degree must be nonnegative")
    if upto > place_table.max_degree:
        raise ValueError(
            f"place table depth {place_table.max_degree} cannot count "
            f"degree-{upto} divisors")
    series = [1] + [0] * upto
    for d in range(1, upto + 1):
        nd = place_table.count(d)
        if not nd:
            continue
        # multiply by sum_j C(nd - 1 + j, j) T^(d j)
        out = [0] * (upto + 1)
        for base in range(upto + 1):
            if series[base]:
                for j in range(0, (upto - base) // d + 1):
                    out[base + d * j] += series[base] * comb(nd - 1 + j, j)
        series = out
    return series
