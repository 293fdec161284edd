"""Micro-timings of the primitives the pipeline stands on.

Each timing runs its operation in a loop of about 0.1 s, repeats the loop
REPEATS times and keeps the median per operation; loop overhead is
included.  Inputs are
fixed (they do not depend on the workload seed), so the numbers compare
across workloads and commits.  Every primitive's result is checked against
a property it must satisfy, so a broken primitive cannot pass as fast.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

REPEATS = 7
# The genus-4 numerator whose PDE system absolute_factor_count solves.
GENUS4_SPEC = "p=2; f=x^9+x+1; h=1"
# A genus-3 curve whose degree-3 places give full-weight Mumford pairs.
GENUS3_SPEC = "p=3; f=x^7+x+1"


def _per_op(fn, ops: int, repeats: int = REPEATS) -> float:
    """Median seconds per operation of ``fn``, which performs ``ops`` of
    them per call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / ops)
    return median(times)


def _field_ops(F, n_pairs: int, rounds: int):
    pairs = [((7 * i + 3) % F.order, (11 * i + 5) % F.order)
             for i in range(n_pairs)]

    def adds():
        add = F.add
        for _ in range(rounds):
            for a, b in pairs:
                add(a, b)

    def muls():
        mul = F.mul
        for _ in range(rounds):
            for a, b in pairs:
                mul(a, b)

    ops = n_pairs * rounds
    return _per_op(adds, ops), _per_op(muls, ops)


def _model(cz, text):
    spec = cz.parsing.parse_curve_spec(text)
    field = cz.finitefield.extension_field(spec.p, spec.k)
    return cz.curve.validate_model(field, spec.f, spec.h)


def _numerator(cz, model):
    g = model.genus
    counts = [cz.curve.count_points(model, m) for m in range(1, 2 * g + 1)]
    lpoly = cz.zetaone.lpolynomial_from_counts(counts, model.field.order, g)
    places = cz.curve.enumerate_places(model, 2 * g - 2)
    table = cz.jacobian.strata_table(model, places,
                                     cz.zetaone.class_number(lpoly))
    return cz.zetatwo.zeta_numerator(cz.zetatwo.counting_measure(table))


def run(cz) -> dict:
    """All micro-timings; ``cz`` is the imported curvezeta package."""
    ff, fp, jac = cz.finitefield, cz.fqpoly, cz.jacobian
    BiPoly = cz.ratpoly.BiPoly
    out = {}

    f3 = ff.extension_field(3, 1)
    add_s, mul_s = _field_ops(f3, 10000, 80)
    out["finitefield.add_ns.prime"] = add_s * 1e9
    out["finitefield.mul_ns.prime"] = mul_s * 1e9
    if (f3.add(2, 2), f3.mul(2, 2)) != (1, 1):
        raise AssertionError("F_3 arithmetic is not arithmetic mod 3")
    f81 = ff.extension_field(3, 4)
    add_s, mul_s = _field_ops(f81, 10000, 15)
    out["finitefield.add_ns.ext"] = add_s * 1e9
    out["finitefield.mul_ns.ext"] = mul_s * 1e9
    if f81.add(f81.from_coeffs((1, 2)), f81.from_coeffs((2, 2))) \
            != f81.from_coeffs((0, 1)) \
            or any(f81.mul(a, f81.inv(a)) != 1 for a in range(1, 81)):
        raise AssertionError("F_81 arithmetic is inconsistent")

    # An uncached F_(5^4): the log tables are rebuilt on every construction.
    built = []
    out["finitefield.build_ms"] = _per_op(
        lambda: built.extend(ff.FiniteField(5, 4) for _ in range(20)),
        20) * 1e3
    if built[-1].order != 625 or built[-1].mul(2, built[-1].inv(2)) != 1:
        raise AssertionError("rebuilt F_625 is inconsistent")

    # Euler's criterion in F_3[x]/(u), deg u = 8: a^((q^8-1)/2) = +-1.
    u8 = fp.monic_irreducibles(f3, 8)[0]
    base = (2, 1, 0, 1, 2, 0, 1)
    exponent = (3 ** 8 - 1) // 2
    out["fqpoly.pow_mod_us"] = _per_op(
        lambda: [fp.pow_mod(f3, base, exponent, u8) for _ in range(400)],
        400) * 1e6
    if fp.pow_mod(f3, base, exponent, u8) not in ((1,), (2,)):
        raise AssertionError("Euler's criterion gives neither 1 nor -1")

    # Square root in F_9[x]/(u), deg u = 2, an even-degree ring in which
    # every constant is a square.
    f9 = ff.extension_field(3, 2)
    ring = fp.QuotientRing(f9, fp.monic_irreducibles(f9, 2)[0])
    squares = [ring.mul(a, a) for a in ((1, 4), (3, 7), (5, 2), (8, 1))]
    out["fqpoly.sqrt_us"] = _per_op(
        lambda: [ring.sqrt(s) for _ in range(40) for s in squares],
        40 * len(squares)) * 1e6
    for s in squares:
        r = ring.sqrt(s)
        if ring.mul(r, r) != s:
            raise AssertionError("quotient-ring square root is wrong")

    # Cantor addition of two weight-3 classes at genus 3.
    g3 = _model(cz, GENUS3_SPEC)
    deg3 = [pl for pl in cz.curve.enumerate_places(g3, 3).places(3)
            if pl.kind == "affine"]
    d1, d2 = (jac.from_place(g3, pl) for pl in deg3[:2])
    out["jacobian.add_us"] = _per_op(
        lambda: [jac.add(g3, d1, d2) for _ in range(2000)], 2000) * 1e6
    total = jac.add(g3, d1, d2)
    if jac.add(g3, total, jac.negate(g3, d2)) != d1:
        raise AssertionError("Cantor addition is not invertible")

    numerator = _numerator(cz, _model(cz, GENUS4_SPEC))
    scaled = numerator * (BiPoly.u() - BiPoly.const(1))
    den = BiPoly.u() - BiPoly.const(1)
    out["ratpoly.exact_divide_us"] = _per_op(
        lambda: [cz.ratpoly.bivariate_exact_divide(scaled, den)
                 for _ in range(400)], 400) * 1e6
    if cz.ratpoly.bivariate_exact_divide(scaled, den) != numerator:
        raise AssertionError("exact division does not undo the product")

    counts = []
    out["irreducibility.factor_count_ms"] = _per_op(
        lambda: counts.append(
            cz.irreducibility.absolute_factor_count(numerator)), 1, 3) * 1e3
    if set(counts) != {1}:
        raise AssertionError("genus-4 numerator is not absolutely irreducible")
    return out
