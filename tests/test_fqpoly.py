"""Polynomial arithmetic over finite fields, checked against ring identities
and the Mobius count of irreducibles."""

import pytest
from hypothesis import given, settings, strategies as st

from curvezeta import FiniteField, extension_field
from curvezeta.errors import CapacityError
from curvezeta import fqpoly as fp
from conftest import absolute_trace, irreducible_tally, product_sieve


def polys(q, max_deg=5):
    return st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1)


# every kernel (prime fields, characteristic 2 with F_2, odd extension
# fields), each with a larger field: F_16, F_27 and F_25
RING_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2),
               (2, 4), (3, 3), (5, 2)]


@settings(max_examples=300)
@given(st.sampled_from(RING_FIELDS), st.data())
def test_ring_identities(pk, data):
    F = extension_field(*pk)
    a = fp.trim(data.draw(polys(F.order)))
    b = fp.trim(data.draw(polys(F.order)))
    c = fp.trim(data.draw(polys(F.order)))
    assert fp.add(F, a, b) == fp.add(F, b, a)
    assert fp.mul(F, a, b) == fp.mul(F, b, a)
    assert fp.mul(F, fp.mul(F, a, b), c) == fp.mul(F, a, fp.mul(F, b, c))
    assert fp.mul(F, a, fp.add(F, b, c)) == fp.add(F, fp.mul(F, a, b),
                                                   fp.mul(F, a, c))
    assert fp.sub(F, a, a) == ()
    assert fp.add(F, a, fp.neg(F, a)) == ()
    assert fp.add(F, fp.sub(F, a, b), b) == a
    assert fp.sub(F, a, b) == fp.neg(F, fp.sub(F, b, a))
    # coefficientwise against the field's own add and neg
    n = max(len(a), len(b))
    pad_a, pad_b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    assert fp.add(F, a, b) == fp.trim([F.add(x, y) for x, y in zip(pad_a, pad_b)])
    assert fp.sub(F, a, b) == fp.trim([F.add(x, F.neg(y))
                                       for x, y in zip(pad_a, pad_b)])
    if a and b:
        assert fp.deg(fp.mul(F, a, b)) == fp.deg(a) + fp.deg(b)


@settings(max_examples=300)
@given(st.sampled_from(RING_FIELDS), st.data())
def test_division_invariant(pk, data):
    F = extension_field(*pk)
    a = fp.trim(data.draw(polys(F.order, 7)))
    b = fp.trim(data.draw(polys(F.order, 4)))
    if not b:
        return
    q, r = fp.divmod_(F, a, b)
    assert fp.add(F, fp.mul(F, q, b), r) == a
    assert fp.deg(r) < fp.deg(b)
    assert fp.mod(F, a, b) == r


@settings(max_examples=300)
@given(st.sampled_from(RING_FIELDS), st.data())
def test_xgcd_bezout(pk, data):
    F = extension_field(*pk)
    a = fp.trim(data.draw(polys(F.order)))
    b = fp.trim(data.draw(polys(F.order)))
    g, s, t = fp.xgcd(F, a, b)
    assert fp.add(F, fp.mul(F, s, a), fp.mul(F, t, b)) == g
    if g:
        assert g[-1] == 1  # monic
        assert not fp.mod(F, a, g) and not fp.mod(F, b, g)
    else:
        assert not a and not b


def test_gcd_of_known_product():
    F = extension_field(5)
    a = fp.mul(F, (1, 1), (2, 1))  # (x+1)(x+2)
    b = fp.mul(F, (1, 1), (3, 1))  # (x+1)(x+3)
    assert fp.gcd(F, a, b) == (1, 1)


@given(st.sampled_from([3, 5]), st.data())
def test_evaluate_is_ring_homomorphism(p, data):
    F = extension_field(p)
    a = data.draw(polys(p))
    b = data.draw(polys(p))
    x = data.draw(st.integers(0, p - 1))
    assert (fp.evaluate(F, fp.mul(F, a, b), x)
            == F.mul(fp.evaluate(F, a, x), fp.evaluate(F, b, x)))
    assert (fp.evaluate(F, fp.add(F, a, b), x)
            == F.add(fp.evaluate(F, a, x), fp.evaluate(F, b, x)))


def test_derivative_product_rule():
    F = extension_field(7)
    a, b = (3, 0, 1), (2, 5, 0, 1)
    lhs = fp.derivative(F, fp.mul(F, a, b))
    rhs = fp.add(F, fp.mul(F, fp.derivative(F, a), b),
                 fp.mul(F, a, fp.derivative(F, b)))
    assert lhs == rhs


def test_pow_mod_matches_repeated_multiplication():
    F = extension_field(3)
    m = (1, 0, 1, 1)
    a = (2, 1)
    acc = (1,)
    for e in range(12):
        assert fp.pow_mod(F, a, e, m) == acc
        acc = fp.mod(F, fp.mul(F, acc, a), m)


def test_encode_decode_monic_round_trip():
    F = extension_field(3)
    seen = set()
    for value in range(27):
        poly = fp.decode_monic(F, value, 3)
        assert fp.deg(poly) == 3 and poly[-1] == 1
        assert fp.encode(F, poly[:-1]) == value
        seen.add(poly)
    assert len(seen) == 27


@pytest.mark.parametrize("p,k,d", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
    (3, 1, 1), (3, 1, 2), (3, 1, 3),
    (5, 1, 1), (5, 1, 2),
    (2, 2, 2), (2, 2, 4), (2, 3, 3), (3, 2, 3), (5, 2, 2),
])
def test_monic_irreducible_tally_matches_mobius_count(p, k, d):
    F = extension_field(p, k)
    polys_ = fp.monic_irreducibles(F, d)
    assert len(polys_) == irreducible_tally(F.order, d)
    for u in polys_:
        assert fp.deg(u) == d and u[-1] == 1
        assert fp.is_irreducible(F, u)


@pytest.mark.parametrize("p,k,max_d", [
    (2, 1, 10), (3, 1, 6), (5, 1, 4), (2, 2, 4), (2, 3, 3), (3, 2, 3)])
def test_odometer_sieve_matches_the_product_sieve(p, k, max_d):
    # a fresh field, so that no cached list stands in for the walk
    F = FiniteField(p, k)
    reference = product_sieve(F, max_d)
    for d in range(1, max_d + 1):
        assert fp.monic_irreducibles(F, d) == reference[d], (p, k, d)


def test_irreducibility_matches_trial_division():
    F = extension_field(3)
    linears = [(c, 1) for c in range(3)]
    for value in range(27):
        u = fp.decode_monic(F, value, 3)
        # a cubic is reducible iff it has a root
        has_root = any(fp.evaluate(F, u, x) == 0 for x in range(3))
        assert fp.is_irreducible(F, u) == (not has_root)
        if has_root:
            assert any(not fp.mod(F, u, lin) for lin in linears)


def test_monic_irreducibles_respects_capacity():
    F = extension_field(5)
    with pytest.raises(CapacityError):
        fp.monic_irreducibles(F, 9, capacity=1000)


def test_quotient_ring_field_axioms():
    F = extension_field(2)
    ring = fp.QuotientRing(F, (1, 1, 0, 1))  # F_8 as F_2[x]/(x^3+x+1)
    els = list(ring.elements())
    assert len(els) == 8
    for a in els:
        if a:
            assert ring.mul(a, ring.inv(a)) == (1,)
            assert ring.pow(a, 7) == (1,)
        for b in els:
            assert ring.mul(a, b) == ring.mul(b, a)


def test_quotient_ring_sqrt(monkeypatch):
    f3, f9 = extension_field(3), extension_field(3, 2)
    cubic = fp.monic_irreducibles(f3, 3)[0]
    fields = [
        fp.QuotientRing(f3, (2, 2, 1)),  # x^2+2x+2
        # degree 1: every element is a constant
        fp.QuotientRing(extension_field(5), (2, 1)),
        # degree 2 over F_9: every constant is a square
        fp.QuotientRing(f9, fp.monic_irreducibles(f9, 2)[0]),
        # order 27 = 3 mod 4, where Tonelli-Shanks needs no non-residue
        fp.QuotientRing(f3, cubic),
        # characteristic 2: every element is a square
        fp.QuotientRing(extension_field(2), (1, 1, 0, 1)),
        fp.QuotientRing(extension_field(2, 2), fp.X),
    ]
    for ring in fields:
        squares = {ring.mul(a, a) for a in ring.elements()}
        for a in ring.elements():
            root = ring.sqrt(a)
            if a in squares:
                assert root is not None and ring.mul(root, root) == a
            else:
                assert root is None
    # a ring that is not a field: a true root or None, and always an answer
    for ring in (fp.QuotientRing(f3, (0, 0, 1)),  # x^2, odd order
                 # even order: a^(order/2) squares back only in a field
                 fp.QuotientRing(extension_field(2), (0, 0, 1)),
                 fp.QuotientRing(extension_field(2, 2), (0, 0, 1)),
                 fp.QuotientRing(extension_field(2), (0, 0, 0, 1)),
                 fp.QuotientRing(extension_field(2), (0, 1, 1))):  # x^2+x
        for a in ring.elements():
            root = ring.sqrt(a)
            assert root is None or ring.mul(root, root) == a
    assert fp.QuotientRing(extension_field(2), (0, 0, 1)).sqrt((0, 1)) is None
    # one power per call in the order-27 field, for a square and a
    # non-square alike
    ring = fp.QuotientRing(f3, cubic)
    calls = []
    pow_ = fp.QuotientRing.pow
    monkeypatch.setattr(fp.QuotientRing, "pow",
                        lambda self, a, e: calls.append(e) or pow_(self, a, e))
    square = ring.mul((1, 1), (1, 1))
    nonsquare = next(a for a in ring.elements()
                     if a and ring.pow(a, 13) != (1,))
    for a, is_square in ((square, True), (nonsquare, False)):
        calls.clear()
        assert (ring.sqrt(a) is not None) == is_square
        assert len(calls) == 1


def test_quotient_ring_pow_matches_naive():
    F = extension_field(5)
    ring = fp.QuotientRing(F, (2, 0, 1))
    a = (1, 1)
    acc = (1,)
    for e in range(10):
        assert ring.pow(a, e) == acc
        acc = ring.mul(acc, a)
    assert ring.pow(a, -1) == ring.inv(a)


@pytest.mark.parametrize("modulus", [(1, 1), (1, 1, 1), (1, 1, 0, 1)])
def test_artin_schreier_solutions(modulus):
    F = extension_field(2)
    ring = fp.QuotientRing(F, modulus)
    for w in ring.elements():
        sol = fp.artin_schreier_solve(ring, w)
        brute = [z for z in ring.elements()
                 if ring.add(ring.mul(z, z), z) == ring.reduce(w)]
        if sol is None:
            assert not brute
        else:
            assert sol in brute
            assert len(brute) == 2  # z and z + 1


def test_artin_schreier_rejects_odd_characteristic():
    ring = fp.QuotientRing(extension_field(3), (1, 0, 1))
    with pytest.raises(ValueError):
        fp.artin_schreier_solve(ring, (1,))


def next_irreducible(F, degree, start):
    """The first monic irreducible of the degree whose coefficient key is at
    or after start, wrapping around; found by the irreducibility test."""
    n = F.order ** degree
    return next(u for u in (fp.decode_monic(F, (start + i) % n, degree)
                            for i in range(n)) if fp.is_irreducible(F, u))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]),
       st.integers(1, 5), st.data())
def test_quadratic_character_matches_euler_criterion(pk, d, data):
    F = extension_field(*pk)
    q = F.order
    u = next_irreducible(F, d, data.draw(st.integers(0, q ** d - 1)))
    a = fp.trim(data.draw(st.lists(st.integers(0, q - 1), max_size=2 * d + 2)))
    minus_one = (F.neg(1),)
    # any a, a multiple of u, and a constant
    for case in (a, fp.mul(F, a, u), a[:1]):
        euler = fp.pow_mod(F, case, (q ** d - 1) // 2, u)
        if not fp.mod(F, case, u):
            assert euler == ()
            expected = 0
        else:
            assert euler in ((1,), minus_one)
            expected = 1 if euler == (1,) else -1
        assert fp.quadratic_character(F, case, u) == expected


def test_quadratic_character_rejects_characteristic_two():
    with pytest.raises(ValueError):
        fp.quadratic_character(extension_field(2), (1,), (1, 1))


@pytest.mark.parametrize("k,max_d", [(1, 5), (2, 4), (3, 3)])
def test_absolute_trace_decides_artin_schreier(k, max_d):
    F = extension_field(2, k)
    for d in range(1, max_d + 1):
        for u in fp.monic_irreducibles(F, d)[:2]:
            ring = fp.QuotientRing(F, u)
            for w in ring.elements():
                trace = absolute_trace(F, w, u)
                solvable = fp.artin_schreier_solve(ring, w) is not None
                assert trace in (0, 1)
                assert (trace == 0) == solvable
                # the trace reads w mod u
                assert absolute_trace(F, fp.add(F, w, fp.mul(F, u, fp.X)),
                                      u) == trace


def test_absolute_trace_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        absolute_trace(extension_field(3), (1,), (1, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fraction_trace_is_the_trace_of_the_fraction(k):
    F = extension_field(2, k)
    q = F.order
    # b constant, with a repeated factor, and not monic
    for b in ((q - 1,), (0, 0, 1), (1, 1, 0, 1), (1, q - 1)):
        square = fp.mul(F, b, b)
        for seed in range(4):
            # a of degree 2 deg b + 6: it outgrows deg u
            a = fp.trim([(7 * seed + 3 * i * i + 1) % q
                         for i in range(2 * len(b) + 4)] + [1])
            for d in (1, 2, 3):
                for u in fp.monic_irreducibles(F, d)[:4]:
                    ring = fp.QuotientRing(F, u)
                    bbar = ring.reduce(b)
                    got = fp.fraction_trace(F, a, square, u)
                    if not bbar:
                        assert got is None
                        continue
                    w = ring.mul(ring.reduce(a), ring.inv(ring.mul(bbar, bbar)))
                    assert got == absolute_trace(F, w, u), (k, b, a, u)


def test_fraction_trace_reads_no_product_longer_than_a_or_twice_u(
        monkeypatch):
    # _trace_to_fq reads any degree, so reducing a mod u is a matter of
    # cost: a constant b mod u scales a as it is, and any other b mod u
    # has its inverse multiply a reduced a, below degree 2 deg u - 1
    F = extension_field(2, 2)
    a = (1, 2, 3) * 4 + (1,)
    real = fp._trace_to_fq
    lengths = []

    def spy(log, exp, product, u):
        lengths.append((len(product), len(u)))
        return real(log, exp, product, u)

    monkeypatch.setattr(fp, "_trace_to_fq", spy)
    for b in ((3,), (1, 1, 1)):
        for u in fp.monic_irreducibles(F, 3):
            fp.fraction_trace(F, a, b, u)
    assert len(lengths) == 2 * len(fp.monic_irreducibles(F, 3))
    assert max(n for n, _ in lengths) == len(a)
    assert all(n <= max(len(a), 2 * m - 3) for n, m in lengths)


def test_fraction_trace_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        fp.fraction_trace(extension_field(3), (1,), (1,), (1, 1))
