"""Absolute irreducibility of the two-variable numerator.

Primary route: the dimension of the solution space of the partial
differential equation g_u * P - g * P_u = h_T * P - h * P_T equals the
number of irreducible factors P_k of a squarefree P over the algebraic
closure (S. Gao, Math. Comp. 72, 2003).  Each solution is a sum of
c_k (P/P_k) (dP_k/dT, dP_k/du), and NP(P) = NP(P_k) + NP(P/P_k) for Newton
polygons (Ostrowski), so only unknowns with T g and u h inside NP(P) are
kept: no solution is lost.  The system's integer rank (denominators
cleared) is at most its width minus one, as (g, h) = (P_T, P_u) solves it,
and at least its rank mod a prime, since a minor that is nonzero mod the
prime is a nonzero integer.  A rank mod a prime near 2^20 that reaches
the width minus one is therefore the rank over Q; only when it falls
short, as for a reducible P, does exact fraction-free elimination run.

Squarefreeness, which that count needs, is decided with univariate gcds
only.  Let C(u) be the u-content of P, m = deg_T P and n = deg_u P.  A
repeated factor of P either divides C, or has positive T-degree and then
stays repeated in every P(T, c) that keeps T-degree m.  If P is squarefree,
every c where P(T, c) drops degree or shares a root with its T-derivative
is a root of the resultant Res_T(P, P_T), a nonzero polynomial of u-degree
at most (2m - 1) n.  So P is squarefree exactly when C is and one of the
(2m - 1) n + 1 values c = 0, 1, ... gives a P(T, c) of T-degree m that is
coprime to its T-derivative.

Reference route: factor over the rationals, then classify each rational
factor by a closed form (univariate, homogeneous, linear or quadratic in one
variable).  Shapes outside that list raise OracleUnsupportedError rather
than guess.  When the certificate below proves P irreducible over Q, P is
its own factorization; only a P it cannot decide is factored by sympy, which
is imported only then.

The certificate: the u-content of P is 1, and some P(T, c) has T-degree
m = deg_T P and is irreducible mod a prime l that divides no denominator
of P and not its leading coefficient.  Then P(T, c) is irreducible over Q
(Gauss's lemma over the l-adic integers), and a factorization P = A B with
A of T-degree 0 would put A in the u-content, while one with both factors
of positive T-degree would survive in P(T, c), both keeping their degrees.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from . import fqpoly as fp
from .errors import CapacityError, OracleUnsupportedError
from .finitefield import DEFAULT_CAPACITY, extension_field, is_prime
from .ratpoly import BiPoly, RationalPoly, format_poly, poly_gcd
from .zetatwo import ClauseResult


# The most irreducibility tests mod l that certify_irreducible runs for one
# polynomial before it gives up and the reference route factors with sympy.
CERTIFICATE_BUDGET = 128

# The fixed prime of the modular pass in _rank: the largest below 2^20.
_PRIME = next(l for l in range((1 << 20) - 1, 1, -2) if is_prime(l))


class NotSquarefreeError(ValueError):
    """absolute_factor_count was given a polynomial with a repeated factor."""


def _u_content(P: BiPoly) -> RationalPoly:
    content = RationalPoly()
    for i in range(P.t_degree + 1):
        content = poly_gcd(content, P.coeff_of_t(i))
    return content


def is_squarefree(P: BiPoly) -> bool:
    """Squarefree as a bivariate rational polynomial.

    With m = deg_T P and n = deg_u P: P is squarefree exactly when its
    u-content is, and some P(T, c) with c in 0..(2m-1)n keeps T-degree m
    and is coprime to its T-derivative; the module docstring says why.
    """
    if P.is_zero():
        return False
    m, n = P.t_degree, P.u_degree
    content = _u_content(P)
    if poly_gcd(content, content.derivative()).degree > 0:
        return False
    if m == 0:
        return True
    for c in range((2 * m - 1) * n + 1):
        special = P.eval_u(c)
        if (special.degree == m
                and poly_gcd(special, special.derivative()).degree == 0):
            return True
    return False


def absolute_factor_count(P: BiPoly, *,
                          capacity: int = DEFAULT_CAPACITY) -> int:
    """Number of distinct irreducible factors over the algebraic closure.

    Input must be squarefree (else NotSquarefreeError) and involve both
    variables.  The count is the nullity of the exact linear system behind
    the logarithmic-derivative equation; no factor is ever constructed.
    A system whose columns times the lattice points of 2 NP(P), the most
    rows it can have, exceed capacity is refused (CapacityError) before
    any column is built.
    """
    if not is_squarefree(P):
        raise NotSquarefreeError("factor counting needs a squarefree polynomial")
    m, n = P.t_degree, P.u_degree
    if m < 1 or n < 1:
        raise ValueError("factor counting needs both variables present")
    # Clearing denominators leaves the factors, hence the count, unchanged.
    terms = P.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    scaled = [(a, b, c.numerator * (scale // c.denominator))
              for (a, b), c in terms.items()]

    # Unknowns sit at the lattice points (x, y) of NP(P), the bounding-box
    # points on or left of every hull edge.  T^(x-1) u^y in g gives column
    # y T^(x-1) u^(y-1) P - T^(x-1) u^y P_u and T^x u^(y-1) in h gives
    # T^x u^(y-1) P_T - x T^(x-1) u^(y-1) P, where P's terms never collide.
    hull = newton_polygon(P)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    low_x, low_y = map(min, zip(*hull))
    points = [(x, y) for x in range(low_x, m + 1) for y in range(low_y, n + 1)
              if all(_cross(a, b, (x, y)) >= 0 for a, b in edges)]
    # Every row monomial lies in 2 NP(P) - (1, 1).  By Pick's theorem 2 NP(P)
    # has 4 A + B + 1 lattice points, A the area and B the boundary points
    # of NP(P); a point or a segment is counted right too.
    twice_area = sum(a[0] * b[1] - a[1] * b[0] for a, b in edges)
    boundary = sum(gcd(b[0] - a[0], b[1] - a[1]) for a, b in edges)
    most_rows = 2 * twice_area + boundary + 1
    width = sum(1 for x, y in points if x) + sum(1 for x, y in points if y)
    if width * most_rows > capacity:
        raise CapacityError(
            f"the factor-count system needs {width * most_rows} entries "
            f"({width} columns times at most {most_rows} rows), above the "
            f"work bound {capacity}")
    columns = [{(a + x - 1, b + y - 1): (y - b) * c
                for a, b, c in scaled if y != b} for x, y in points if x]
    columns += [{(a + x - 1, b + y - 1): (a - x) * c
                 for a, b, c in scaled if a != x} for x, y in points if y]

    row_index: dict = {}
    rows: list = []
    for k, column in enumerate(columns):
        for key, val in column.items():
            if key not in row_index:
                row_index[key] = len(rows)
                rows.append([0] * width)
            rows[row_index[key]][k] = val
    # (g, h) = (P_T, P_u) is a nonzero solution, so the rank is below width.
    return width - _rank(rows, width - 1)


def _cross(o: tuple, a: tuple, b: tuple) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(P: BiPoly) -> tuple:
    """The vertices of the convex hull of P's exponents, counterclockwise
    from the least; a point or a segment gives one or two."""
    def chain(points):  # Andrew's monotone chain, without its last point
        out = []
        for pt in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], pt) <= 0:
                out.pop()
            out.append(pt)
        return out[:-1]
    points = sorted(P.terms())
    return tuple(chain(points) + chain(points[::-1])) or tuple(points)


def _rank(rows: list, bound: int | None = None) -> int:
    """Rank over Q of an integer matrix.  A given bound must be at least
    that rank; min(#rows, #cols) always is, and is the default.

    The rank mod _PRIME is at most the rank over Q, because a minor that is
    nonzero mod the prime is nonzero over Z.  So when the modular pass
    reaches the bound, the bound is the rank; only when it falls short does
    exact Bareiss elimination decide."""
    limit = min(len(rows), len(rows[0]) if rows else 0)
    if bound is not None:
        limit = min(limit, bound)
    if _rank_mod_prime(rows, limit) == limit:
        return limit
    return _bareiss_rank(rows)


def _rank_mod_prime(rows: list, limit: int) -> int:
    """Rank mod _PRIME of an integer matrix, or limit if that is smaller.

    Each row is packed from its nonzero entries into one int with a slot of
    `width` bytes per column, column 0 lowest, so eliminating a column is
    one big-int update row + f * pivot_row per row.  A slot is reduced mod
    the prime only when it is read as a pivot candidate or its row becomes
    the pivot row, whose slots are then all reduced.  Every slot starts
    below p and gains less than p^2 per pivot, over at most #cols pivots,
    so it stays below (#cols + 1) p^2, which the slot width holds.  After
    each column every row shifts right by one slot, dropping the column
    just eliminated."""
    p = _PRIME
    ncols = len(rows[0]) if rows else 0
    width = (2 * p.bit_length() + ncols.bit_length() + 1 + 7) // 8
    shift = 8 * width
    mask = (1 << shift) - 1

    def pack(values):
        # reduced mod p; zero slots, most of a row, cost nothing
        return sum(v % p << j * shift for j, v in enumerate(values) if v)

    live = [pack(row) for row in rows]
    rank = 0
    for col in range(ncols):
        if rank == limit:
            break
        heads = [(r & mask) % p for r in live]
        k = next((i for i, v in enumerate(heads) if v), None)
        tail = 0  # with no pivot every head is 0 and the rows only shift
        if k is not None:
            # The pivot row, past its head, reduced and scaled by -1/head:
            # then adding head * tail to a row's tail clears that row's head.
            scale = -pow(heads.pop(k), -1, p)
            packed = (live.pop(k) >> shift).to_bytes(
                width * (ncols - col - 1), "little")
            tail = pack(int.from_bytes(packed[i:i + width], "little") * scale
                        for i in range(0, len(packed), width))
            rank += 1
        # In place, so the packed matrix is never held twice.
        for i, v in enumerate(heads):
            live[i] = (live[i] >> shift) + v * tail
    return rank


def _bareiss_rank(rows: list) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination: after k pivots every entry below them is a (k+1)-minor,
    so each update divides exactly by the previous pivot (Sylvester's
    identity) and the entries stay integers of minor size."""
    mat = list(rows)
    rank = 0
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        lead = top[col]
        for i in range(rank + 1, len(mat)):
            c = mat[i][col]
            mat[i] = [(lead * a - c * b) // prev for a, b in zip(mat[i], top)]
        prev = lead
        rank += 1
    return rank


def _square_in_closure(disc: RationalPoly) -> bool:
    """Is a nonzero univariate rational polynomial a square over the
    algebraic closure, i.e. are all its root multiplicities even?  Then its
    monic part is s^2 for the monic s = prod (x - root)^(multiplicity / 2),
    which is Galois-invariant, hence rational.  With N the polynomial with
    its denominators cleared and c its leading coefficient, that says c N =
    (c s)^2, and by Gauss's lemma a rational polynomial whose square has
    integer coefficients has them too.  So match the integer root of c N
    from the top down and confirm the square exactly."""
    if disc.degree % 2:
        return False
    den = lcm(*(c.denominator for c in disc.coeffs))
    cleared = [c.numerator * (den // c.denominator) for c in disc.coeffs]
    target = [cleared[-1] * c for c in cleared]
    n = disc.degree // 2
    root = [0] * n + [abs(cleared[-1])]
    for k in range(n - 1, -1, -1):
        # the x^(n+k) coefficient of root^2 is 2 |c| root_k plus known products
        known = sum(root[i] * root[n + k - i] for i in range(k + 1, n))
        root[k], rem = divmod(target[n + k] - known, 2 * root[n])
        if rem:
            return False
    return (RationalPoly(root) ** 2).coeffs == tuple(target)


def _factor_count_closed_form(fac: BiPoly) -> int:
    """Absolute factor count of one Q-irreducible polynomial, by shape."""
    d_t, d_u = fac.t_degree, fac.u_degree
    if d_t == 0 or d_u == 0:
        return max(d_t, d_u)
    total_degrees = {a + b for a, b in fac.terms()}
    if len(total_degrees) == 1:
        return total_degrees.pop()
    if d_t == 1 or d_u == 1:
        return 1
    if 2 in (d_u, d_t):
        # quadratic in u (else in T): two factors when the discriminant
        # is a square
        coeff = fac.coeff_of_u if d_u == 2 else fac.coeff_of_t
        a, b, c = (coeff(j) for j in (2, 1, 0))
        return 2 if _square_in_closure(b * b - a * c * 4) else 1
    raise OracleUnsupportedError(
        f"no closed form for a factor of bidegree ({d_t}, {d_u})")


def _sympy_factors(P: BiPoly) -> list:
    """The irreducible factors of P over Q, by sympy's factor_list."""
    import sympy
    T, u = sympy.symbols("T u")
    expr = sympy.Integer(0)
    for (i, j), c in P.terms().items():
        expr += sympy.Rational(c.numerator, c.denominator) * T ** i * u ** j
    _, factors = sympy.factor_list(expr)
    if any(mult != 1 for _, mult in factors):
        raise OracleUnsupportedError("repeated factor; count is ambiguous")
    return [BiPoly.from_terms({
        ij: Fraction(int(c.p), int(c.q))
        for ij, c in sympy.Poly(fac, T, u).terms()}) for fac, _ in factors]


def certify_irreducible(P: BiPoly, budget: int) -> bool:
    """True when P is proved irreducible over Q by the certificate in the
    module docstring; False when no certificate turns up within budget
    irreducibility tests, which decides nothing.  When P(1, u) vanishes and
    deg_T P >= 2, 1 - T is a proper factor and False comes before any test.

    The primes l are tried in increasing order, and for each the values
    c = 0 .. l - 1, which give distinct reductions mod l.
    """
    m = P.t_degree
    if m < 1 or _u_content(P).degree > 0:
        return False
    if m >= 2 and P.eval_t(1).is_zero():
        return False  # 1 - T is a proper factor
    terms = P.terms()
    den = lcm(*(c.denominator for c in terms.values()))
    tries = 0
    l = 1
    while tries < budget:
        l += 1
        if not is_prime(l) or den % l == 0:
            continue
        F = extension_field(l)
        reduced = [(a, b, c.numerator * pow(c.denominator, -1, l) % l)
                   for (a, b), c in terms.items()]
        for c in range(l):
            special = [0] * (m + 1)
            for a, b, coeff in reduced:
                special[a] = (special[a] + coeff * pow(c, b, l)) % l
            if not special[m]:
                continue
            if fp.is_irreducible(F, fp.monic(F, special)):
                return True
            tries += 1
            if tries == budget:
                break
    return False


def reference_factor_count(P: BiPoly) -> int:
    """Independent count of absolute irreducible factors: rational
    factorization plus per-factor closed forms.

    The factorization is [P] when certify_irreducible proves P irreducible
    over Q, and sympy's otherwise.
    """
    factors = ([P] if certify_irreducible(P, CERTIFICATE_BUDGET)
               else _sympy_factors(P))
    return sum(_factor_count_closed_form(fac) for fac in factors)


def reversal(P: BiPoly) -> BiPoly:
    """T^(deg_T P) * P(1/T, u)."""
    m = P.t_degree
    return BiPoly.from_terms({(m - i, j): c for (i, j), c in P.terms().items()})


class IrreducibilityReport(namedtuple(
        "IrreducibilityReport",
        "applicable squarefree factor_count reference_count clauses")):
    applicable: bool
    squarefree: bool | None
    factor_count: int | None
    reference_count: int | None
    clauses: tuple
    __slots__ = ()


def analyze_irreducibility(P: BiPoly, genus: int, pic0: Fraction, *,
                           capacity: int = DEFAULT_CAPACITY
                           ) -> IrreducibilityReport:
    """The dichotomy for the numerator: a nonzero class mass forces absolute
    irreducibility, a zero class mass forces the factor 1 - T.  capacity
    bounds the factor-count system (absolute_factor_count)."""
    if genus == 0:
        clause = ClauseResult("absolute irreducibility", True,
                              "not applicable: the genus-zero numerator is 1")
        return IrreducibilityReport(False, None, None, None, (clause,))

    clauses = []
    rev = reversal(P)
    lead = rev.coeff_of_u(genus)
    lead_ok = lead == RationalPoly((1, -1))
    clauses.append(ClauseResult(
        "reversal leading coefficient", lead_ok,
        f"u^{genus} coefficient of T^{2 * genus} P(1/T, u) is {lead}"))
    at_one = rev.eval_t(1)
    one_ok = at_one == RationalPoly.const(pic0)
    clauses.append(ClauseResult(
        "reversal value at T = 1", one_ok,
        f"got {format_poly(at_one.coeffs, 'u')}, expected {pic0}"))

    try:
        count = absolute_factor_count(P, capacity=capacity)
    except NotSquarefreeError:
        count = None
    squarefree = count is not None
    try:
        reference = reference_factor_count(P) if squarefree else None
    except OracleUnsupportedError:
        reference = None
    if count is not None and reference is not None:
        clauses.append(ClauseResult(
            "factor count cross-check", count == reference,
            f"differential equation: {count}, closed form: {reference}"))

    if pic0 != 0:
        passed = squarefree and count == 1
        clauses.append(ClauseResult(
            "absolutely irreducible", passed,
            f"squarefree: {squarefree}, absolute factor count: {count}"))
    else:
        # P = (1 - T) Q + P(1, u), and P(1, u) = rev(1, u) = at_one.
        divisible = at_one.is_zero()
        clauses.append(ClauseResult(
            "factor 1 - T at zero class mass", divisible,
            "P(1, u) vanishes identically" if divisible
            else "1 - T does not divide P"))
    return IrreducibilityReport(True, squarefree, count, reference,
                                tuple(clauses))
