"""Shared fixtures and independent oracles for the test suite.

The oracle helpers here deliberately avoid the library under test: point
counts come from double loops over small prime fields, irreducible-polynomial
tallies from the Mobius formula, effective divisors from a listing one
divisor at a time, and extension fields (where a test needs one) from
throwaway coefficient-list arithmetic written inline.  Three helpers are
the exceptions.  absolute_trace sums over the roots of u on fqpoly's table
kernels, as the reference for fqpoly.fraction_trace, which takes the
trace of a fraction a / b without forming it in F_q[x]/(u).
sieved_place_counts sieves and classes every degree with the library's
own sieve and class test, as the reference for the place table, which
reads the counts past degree 2g from L(T).  gao_box_count takes the rank
of Gao's system on the full degree box with the library's exact Bareiss
elimination, as the reference for irreducibility.absolute_factor_count,
which keeps only the unknowns inside the Newton polygon of P.

The exact rational kernels keep their earlier forms here as references:
euclid_gcd (Euclid over Q with Fractions) for ratpoly.poly_gcd,
fraction_square_test (the square root matched over Q) for
irreducibility._square_in_closure, max_loop_divmod (the largest remaining
term found by max() at every step) for ratpoly.bivariate_divmod, and
json_dumps_report (json.dumps with sorted keys and an indent of 2) for
report.canonical_json.
"""

import importlib.util
import json
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from curvezeta import (BiPoly, RationalPoly, extension_field, parse_curve_spec,
                       validate_model)
from curvezeta import fqpoly as fp
from curvezeta.ratpoly import quotient

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def brute_affine_count(p, f, h):
    """Solutions of y^2 + h(x) y = f(x) over the prime field F_p, counted by
    the obvious double loop.  f and h are integer coefficient tuples,
    constant term first."""
    def ev(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    total = 0
    for x in range(p):
        fx = ev(f, x)
        hx = ev(h, x)
        for y in range(p):
            if (y * y + hx * y - fx) % p == 0:
                total += 1
    return total


def brute_point_count(p, f, h=(0,)):
    """Projective count: affine solutions plus the one point at infinity of
    an odd-degree model."""
    return brute_affine_count(p, f, h) + 1


def field_sqrt(F, a):
    """The square root of a in the finite field F with the smallest
    encoding, by search over the field, or None when a is a non-square."""
    return next((y for y in range(F.order) if F.mul(y, y) == a), None)


def absolute_trace(F, a, u) -> int:
    """The trace of a from F_q[x]/(u) down to F_2, as the int 0 or 1, for
    monic irreducible u in characteristic 2; z^2 + z = a is solvable
    exactly when it is 0.  The trace to F_q sums a mod u over the roots of
    u (fqpoly._trace_to_fq); the absolute trace of F_q takes it the rest of
    the way (Lidl and Niederreiter, Finite Fields, ch. 2), as the parity of
    the coordinates that the field's trace mask keeps."""
    if F.p != 2:
        raise ValueError("absolute_trace is only provided in characteristic 2")
    log, exp = F._log, F._exp
    a = fp._divmod2(log, exp, list(a), u)
    return (fp._trace_to_fq(log, exp, a, u) & F._mask).bit_count() & 1


def sieved_place_counts(model, depth):
    """(N_1, ..., N_depth) with every degree sieved: the monic irreducibles
    u of each degree from fqpoly.monic_irreducibles, and each fiber's
    class from curve._fiber_class.  A split fiber gives two places of
    degree deg u, a ramified one one, and an inert one a place of degree
    2 deg u."""
    from curvezeta import curve
    disc = curve._discriminant(model)
    tally = [0] * (depth + 1)
    tally[1] = 1  # the infinite place
    for d in range(1, depth + 1):
        for u in fp.monic_irreducibles(model.field, d):
            split = curve._fiber_class(model, disc, u)
            if split >= 0:
                tally[d] += 1 + split
            elif 2 * d <= depth:
                tally[2 * d] += 1
    return tuple(tally[1:])


def mobius(n):
    count = 0
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            count += 1
        d += 1
    if m > 1:
        count += 1
    return (-1) ** count


def irreducible_tally(q, d):
    """Number of monic irreducible degree-d polynomials over F_q, by the
    Mobius count (1/d) sum_{e | d} mu(e) q^(d/e)."""
    total = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def product_sieve(F, degree):
    """{d: the monic irreducibles of degree d over the field F} for every
    d <= degree, each as a tuple sorted by coefficient key: the reference
    sieve.  Every product of a monic irreducible of degree a <= d/2 with a
    monic of degree d - a is multiplied out coefficient by coefficient with
    F.add and F.mul and marked by its key; the unmarked monics remain."""
    q = F.order

    def key(coeffs):
        t = 0
        for c in reversed(coeffs):
            t = t * q + c
        return t

    def monic(value, d):
        coeffs = []
        for _ in range(d):
            coeffs.append(value % q)
            value //= q
        return tuple(coeffs) + (1,)

    found = {1: tuple(monic(value, 1) for value in range(q))}
    for d in range(2, degree + 1):
        composite = bytearray(q ** d)
        for a in range(1, d // 2 + 1):
            others = [monic(value, d - a) for value in range(q ** (d - a))]
            for low in found[a]:
                for other in others:
                    prod = [0] * (d + 1)
                    for i, x in enumerate(low):
                        for j, y in enumerate(other):
                            prod[i + j] = F.add(prod[i + j], F.mul(x, y))
                    composite[key(prod[:-1])] = 1
        found[d] = tuple(monic(value, d) for value in range(q ** d)
                         if not composite[value])
    return found


def cantor_add(model, rep1, rep2):
    """The full Cantor composition of two Mumford pairs, then reduction:
    the reference for curvezeta.jacobian.add, which returns the other
    operand for IDENTITY.  Written on curvezeta.fqpoly, with both extended
    gcds and both exact divisions on every pair, IDENTITY included."""
    from curvezeta import fqpoly as fp
    from curvezeta.jacobian import _reduce
    F = model.field
    u1, v1 = rep1
    u2, v2 = rep2
    d1, e1, e2 = fp.xgcd(F, u1, u2)
    step = fp.add(F, fp.add(F, v1, v2), model.h)
    d, c1, c2 = fp.xgcd(F, d1, step)
    u_comp, rem = fp.divmod_(F, fp.mul(F, u1, u2), fp.mul(F, d, d))
    assert not rem
    acc = fp.add(F, fp.mul(F, fp.mul(F, fp.mul(F, c1, e1), u1), v2),
                 fp.mul(F, fp.mul(F, fp.mul(F, c1, e2), u2), v1))
    acc = fp.add(F, acc, fp.mul(F, c2, fp.add(F, fp.mul(F, v1, v2), model.f)))
    v_comp, rem = fp.divmod_(F, acc, d)
    assert not rem
    return _reduce(model, fp.monic(F, u_comp), fp.mod(F, v_comp, u_comp))


def effective_divisors(place_table, n: int):
    """Yield every effective divisor of degree n as a tuple of
    (place, multiplicity) pairs, places in table order.

    The reference enumeration the strata walk is checked against: each
    divisor is listed on its own, so its class can be folded from zero.
    Each level of the recursion picks one place of the support, so its
    depth is at most n, however many places the table holds.
    """
    places = [p for d in range(1, n + 1) for p in place_table.places(d)]

    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(places)):
            place = places[idx]
            if place.degree > remaining:
                break  # places are listed by increasing degree
            for mult in range(remaining // place.degree, 0, -1):
                for rest in rec(idx + 1, remaining - mult * place.degree):
                    yield ((place, mult),) + rest

    yield from rec(0, n)


ELLIPTIC_F2 = [
    f"p=2; f=x^3+{a}*x+{b}; h={h}"
    for h in ("1", "x", "x+1")
    for a in (0, 1)
    for b in (0, 1)
]

ELLIPTIC_F3 = [
    f"p=3; f=x^3+{a}*x+{b}"
    for a in (1, 2)
    for b in (0, 1, 2)
]

ELLIPTIC_F5 = [
    f"p=5; f=x^3+{a}*x+{b}"
    for a in range(5)
    for b in range(5)
    if (4 * a ** 3 + 27 * b ** 2) % 5 != 0
]

GENUS2 = [
    "p=3; f=x^5+1",
    "p=3; f=x^5+x",
    "p=3; f=x^5+2*x+1",
    "p=5; f=x^5+x+1",
    "p=5; f=x^5+2*x+1",
    "p=5; f=x^5+x^2+1",
    "p=2; f=x^5; h=1",
]


def _nonsingular(spec_text):
    from curvezeta.errors import ModelShapeError, SingularCurveError
    spec = parse_curve_spec(spec_text)
    field = extension_field(spec.p, spec.k)
    try:
        validate_model(field, spec.f, spec.h)
    except (ModelShapeError, SingularCurveError):
        return False
    return True


def corpus_specs():
    """Every curve in the standing test corpus, as spec strings.

    The characteristic-2 family is filtered down to its nonsingular members;
    the odd-characteristic lists are nonsingular by construction.
    """
    specs = [s for s in ELLIPTIC_F2 if _nonsingular(s)]
    specs += ELLIPTIC_F3
    specs += ELLIPTIC_F5
    specs += GENUS2
    return specs


@pytest.fixture(scope="session")
def corpus():
    return corpus_specs()


@pytest.fixture
def worked_elliptic():
    """The standing worked example: y^2 = x^3 + x over F_3."""
    spec = parse_curve_spec("p=3; f=x^3+x")
    field = extension_field(3)
    return validate_model(field, spec.f, spec.h)


def _factor_pool():
    T, U = BiPoly.t(), BiPoly.u()
    # Q-irreducible polynomials with known absolute factor counts;
    # (polynomial, absolute count, total degree)
    return [
        (1 - T, 1, 1),
        (1 + T + U, 1, 1),
        (1 - U * T, 1, 2),
        (1 + U * T, 1, 2),
        (T + U ** 2, 1, 2),
        (T ** 2 + U, 1, 2),
        (U ** 2 - 5 * T, 1, 2),
        (T ** 2 + U * T + 1, 1, 2),
        (T ** 2 - 2 * U ** 2, 2, 2),
        (T ** 2 + U ** 2, 2, 2),
        (U ** 2 + 2 * T ** 2, 2, 2),
    ]


FACTOR_POOL = _factor_pool()


def random_products(seed, how_many, max_total_degree=6):
    """Random squarefree products of distinct FACTOR_POOL entries, paired
    with their absolute factor count, which is known by construction."""
    rng = random.Random(seed)
    out = []
    while len(out) < how_many:
        picks = rng.sample(FACTOR_POOL, rng.randint(2, 3))
        if sum(d for _, _, d in picks) > max_total_degree:
            continue
        product = BiPoly.const(1)
        truth = 0
        for poly, count, _ in picks:
            product = product * poly
            truth += count
        if product.t_degree < 1 or product.u_degree < 1:
            continue
        out.append((product, truth))
    return out


def gao_box_count(P):
    """Absolute factor count of a squarefree P in both variables: the
    nullity of Gao's system g_u P - g P_u = h_T P - h P_T with one unknown
    per monomial T^i u^j of g (i < m, j <= n) and of h (i <= m, j < n),
    where (m, n) is the bidegree of P, its rank taken over the integers by
    irreducibility._bareiss_rank alone."""
    from curvezeta.irreducibility import _bareiss_rank
    m, n = P.t_degree, P.u_degree
    terms = P.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    scaled = [(a, b, c.numerator * (scale // c.denominator))
              for (a, b), c in terms.items()]
    columns = []
    for i in range(m):
        for j in range(n + 1):
            columns.append({(a + i, b + j - 1): (j - b) * c
                            for a, b, c in scaled if j != b})
    for i in range(m + 1):
        for j in range(n):
            columns.append({(a + i - 1, b + j): (a - i) * c
                            for a, b, c in scaled if a != i})
    keys = sorted({key for column in columns for key in column})
    rows = [[column.get(key, 0) for column in columns] for key in keys]
    return len(columns) - _bareiss_rank(rows)


def euclid_gcd(a, b):
    """The monic gcd of two RationalPolys by Euclid's algorithm over Q."""
    while b:
        a, b = b, a % b
    return a.monic()


def fraction_square_test(disc):
    """Is the nonzero RationalPoly disc a square over the algebraic closure?
    Its monic part is then the square of a monic rational s, matched from
    the top coefficient down over Q and confirmed exactly."""
    if disc.degree % 2:
        return False
    target = disc.monic()
    n = disc.degree // 2
    s = [0] * n + [1]
    for k in range(n - 1, -1, -1):
        known = sum(s[i] * s[n + k - i] for i in range(k + 1, n))
        s[k] = quotient(target.coeff(n + k) - known, 2)
    return RationalPoly(s) ** 2 == target


def max_loop_divmod(num, den):
    """Division of BiPolys in lex order with T before u, by the largest
    remaining term of a term dict, found with max() at every step."""
    if den.is_zero():
        raise ZeroDivisionError("bivariate division by zero")
    dterms = den.terms()
    lt_den = max(dterms)
    lc_den = dterms[lt_den]
    work = num.terms()
    quot: dict = {}
    rem: dict = {}
    while work:
        lt = max(work)
        if lt[0] >= lt_den[0] and lt[1] >= lt_den[1]:
            shift = (lt[0] - lt_den[0], lt[1] - lt_den[1])
            c = quotient(work[lt], lc_den)
            quot[shift] = quot.get(shift, 0) + c
            for (i, j), d in dterms.items():
                key = (i + shift[0], j + shift[1])
                val = work.get(key, 0) - c * d
                if val:
                    work[key] = val
                else:
                    work.pop(key, None)
        else:
            rem[lt] = work.pop(lt)
    return BiPoly.from_terms(quot), BiPoly.from_terms(rem)


def _fraction_text(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} has no canonical JSON form")


def json_dumps_report(report) -> str:
    """A report's canonical text as json.dumps writes it: sorted keys, an
    indent of 2, every Fraction as its string, and a final newline."""
    return json.dumps(report, sort_keys=True, indent=2,
                      default=_fraction_text) + "\n"


def load_perfbench(name: str):
    """perfbench/<name>.py, loaded by file path (its dataclasses need it
    registered in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def workload_inputs(name: str, seed: int) -> list:
    """The benchmark workload's (input id, spec, base change) triples for
    one seed, drawn by perfbench/workloads.py."""
    return load_perfbench("workloads").generate(name, seed, _nonsingular)
