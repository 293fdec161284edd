"""Finite field arithmetic against independent integer-mod-p oracles."""

import pytest
from hypothesis import given, strategies as st

from curvezeta import FiniteField, extension_field
from curvezeta import fqpoly as fp
from curvezeta.errors import CapacityError, ModelShapeError
from conftest import field_sqrt


def ring_sqrt(F, a):
    """Tonelli-Shanks in F, run in the quotient ring F[x]/(x), which is F
    with each element a written as the constant polynomial (a,)."""
    root = fp.QuotientRing(F, fp.X).sqrt(fp.trim((a,)))
    if root is None:
        return None
    return root[0] if root else 0


@given(st.sampled_from([2, 3, 5, 7, 13]), st.data())
def test_prime_field_matches_integers_mod_p(p, data):
    F = extension_field(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    assert F.add(a, b) == (a + b) % p
    assert F.sub(a, b) == (a - b) % p
    assert F.mul(a, b) == (a * b) % p
    assert F.neg(a) == (-a) % p
    if a:
        assert F.mul(a, F.inv(a)) == 1
    assert F.pow(a, 5) == pow(a, 5, p)


# Generators behind the log tables: a different one would relabel every
# discrete log, so they are pinned along with the moduli.
GENERATORS = {(2, 2): 2, (2, 3): 2, (3, 2): 4,
              (2, 8): 3, (3, 4): 3, (3, 6): 3, (5, 4): 6}


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1, 1, 1)),
    (2, 3, (1, 1, 0, 1)),
    (3, 2, (1, 0, 1)),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (3, 6, (2, 1, 0, 0, 0, 0, 1)),
    (5, 4, (2, 0, 0, 0, 1)),
])
def test_default_modulus_is_lex_smallest_irreducible(p, k, modulus):
    # the canonical construction must be reproducible across runs
    F = extension_field(p, k)
    assert F.modulus == modulus
    assert F.generator == GENERATORS[p, k]


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_extension_field_axioms_exhaustive(p, k):
    F = extension_field(p, k)
    els = list(range(F.order))
    assert len(els) == p ** k
    for a in els[:6]:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.order - 1) == (1 if a else 0)


def vector_product(x, y, modulus, p):
    """The product of two coefficient vectors as polynomials over F_p,
    reduced mod the monic modulus, by schoolbook multiplication."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top] % p
        for j in range(k + 1):
            prod[top - k + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:k])


def power_by_squaring(F, a, e):
    result = 1
    while e:
        if e & 1:
            result = F.mul(result, a)
        a = F.mul(a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2),
                                 (3, 3)])
def test_encoding_contract_exhaustive(p, k):
    # the int encoding is the base-p coefficient vector in the power basis
    # of F.modulus: add, sub and neg act digit by digit mod p, and mul is
    # the product of the vectors mod F.modulus over F_p
    F = extension_field(p, k)
    vec = F.coeff_vector
    for a in range(F.order):
        x = vec(a)
        assert vec(F.neg(a)) == tuple(-c % p for c in x)
        for b in range(F.order):
            y = vec(b)
            assert vec(F.add(a, b)) == tuple((c + d) % p for c, d in zip(x, y))
            assert vec(F.sub(a, b)) == tuple((c - d) % p for c, d in zip(x, y))
            assert vec(F.mul(a, b)) == vector_product(x, y, F.modulus, p)
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, -3) == F.inv(power_by_squaring(F, a, 3))
        for e in (0, 1, 2, 5, F.order - 1, F.order, 10 ** 20 + 3):
            assert F.pow(a, e) == power_by_squaring(F, a, e)
        if p == 2:
            # Tr(a) = a + a^2 + ... + a^(2^(k-1)), by repeated squaring
            total, t = a, a
            for _ in range(k - 1):
                t = F.mul(t, t)
                total = F.add(total, t)
            assert F.absolute_trace(a) == total
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_sqrt_odd_characteristic(p, k):
    F = extension_field(p, k)
    squares = {F.mul(a, a) for a in range(F.order)}
    assert len(squares) == (F.order + 1) // 2
    for a in range(F.order):
        root = ring_sqrt(F, a)
        if a in squares:
            assert root is not None and F.mul(root, root) == a
        else:
            assert root is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sqrt_characteristic_two_is_bijective(k):
    F = extension_field(2, k)
    roots = {field_sqrt(F, a) for a in range(F.order)}
    assert len(roots) == F.order
    for a in range(F.order):
        r = field_sqrt(F, a)
        assert F.mul(r, r) == a


def test_tonelli_on_prime_fields():
    for p in (3, 5, 7, 11, 13):
        F = extension_field(p)
        for a in range(1, p):
            root = ring_sqrt(F, a)
            if root is not None:
                assert (root * root) % p == a
            else:
                assert all((y * y) % p != a for y in range(p))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_absolute_trace_additive_and_balanced(k):
    F = extension_field(2, k)
    values = [F.absolute_trace(a) for a in range(F.order)]
    assert set(values) <= {0, 1}
    # the trace is onto F_2 with equal fibers
    assert values.count(0) == values.count(1) == F.order // 2
    for a in range(min(8, F.order)):
        for b in range(F.order):
            assert (F.absolute_trace(F.add(a, b))
                    == F.absolute_trace(a) ^ F.absolute_trace(b))


def test_coeff_vector_round_trip():
    F = extension_field(3, 2)
    for a in range(F.order):
        vec = F.coeff_vector(a)
        assert len(vec) == 2
        assert F.from_coeffs(vec) == a


def test_non_prime_characteristic_rejected():
    with pytest.raises(ModelShapeError):
        extension_field(4)
    with pytest.raises(ModelShapeError):
        FiniteField(6)


def test_capacity_bound_enforced_even_when_cached():
    extension_field(5, 2)
    with pytest.raises(CapacityError):
        extension_field(5, 2, capacity=10)
    with pytest.raises(CapacityError):
        FiniteField(5, 4, capacity=100)


def test_a_degree_past_the_bound_is_refused_before_its_order():
    # 3^30000000 has about 14 million digits; admission must refuse the
    # degree without computing it, so p ** degree is never taken
    powers = []

    class Spy(int):
        def __pow__(self, *args):
            powers.append(args)
            return int.__pow__(self, *args)

    p = Spy(3)
    message = r"field order 3\^30000000 exceeds the work bound 1000000"
    with pytest.raises(CapacityError, match=message):
        extension_field(p, 30000000, capacity=10**6)
    with pytest.raises(CapacityError, match=message):
        FiniteField(p, 30000000, capacity=10**6)
    assert powers == []
    # the spy sees the order of a field that is admitted
    assert FiniteField(p, 1, capacity=10**6).order == 3
    assert powers


def test_field_cache_returns_identical_objects():
    assert extension_field(3, 2) is extension_field(3, 2)
    assert extension_field(7) is extension_field(7)
