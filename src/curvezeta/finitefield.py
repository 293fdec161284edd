"""Finite fields F_(p^k) with a deterministic, reproducible construction.

Elements are plain ints in [0, q).  The int is the base-p encoding of the
coefficient vector of the element written in the power basis of the modulus:
value = sum(c_i * p**i) with c_0 the constant coefficient.  The prime
subfield therefore embeds as the ints 0..p-1, and iterating range(q) walks
the field in a canonical order.

For k > 1 the chosen modulus is the monic irreducible polynomial of degree k
whose non-leading coefficient vector has the smallest base-p encoding, so a
given (p, k) always produces the same field with the same element labels.
Multiplication, inversion and powering then go through discrete-log tables
built once at construction time.
"""

from __future__ import annotations

from array import array

from .errors import CapacityError, ConsistencyError, ModelShapeError

DEFAULT_CAPACITY = 1_000_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division (n stays small here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """Arithmetic for F_(p^k) on int-encoded elements.

    Do not mutate instances after construction; the lazy caches hanging off
    them (irreducible lists, embeddings) only ever grow.
    """

    def __init__(self, p: int, degree: int = 1, *,
                 capacity: int = DEFAULT_CAPACITY):
        order = _admit(p, degree, capacity)
        self.p = p
        self.degree = degree
        self.order = order
        if degree == 1:
            self.modulus = (0, 1)
            self._exp = self._log = None
        else:
            from . import fqpoly as fp  # fqpoly imports this module
            prime = extension_field(p, capacity=capacity)
            modulus = next((m for m in (_digits(v, p, degree) + (1,)
                                        for v in range(order))
                            if fp.is_irreducible(prime, m)), None)
            if modulus is None:
                raise ConsistencyError(
                    f"no irreducible polynomial of degree {degree} over F_{p}")
            self.modulus = modulus
            self._build_log_tables(prime)
        self._irreducibles: dict[int, tuple] = {}
        self._embeddings: dict = {}
        self._tables = None  # fqpoly's list-kernel tables, built on first use

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self, prime: FiniteField):
        """exp/log tables of a generator, multiplying coefficient vectors of
        the element encodings as polynomials over the prime field."""
        from . import fqpoly as fp
        p, k, q = self.p, self.degree, self.order
        mod = self.modulus

        def poly(a):
            return fp.trim(_digits(a, p, k))

        factors = prime_factors(q - 1)
        gen = next((c for c in range(2, q)
                    if all(fp.pow_mod(prime, poly(c), (q - 1) // f, mod) != (1,)
                           for f in factors)), None)
        if gen is None:
            raise ConsistencyError(f"no generator of the unit group of {self!r}")
        exp = array('q', [1] * (q - 1))
        log = array('q', [-1] * q)
        acc, gen_poly = (1,), poly(gen)
        for i in range(q - 1):
            value = _undigits(acc, p)
            exp[i] = value
            log[value] = i
            acc = fp.mod(prime, fp.mul(prime, acc, gen_poly), mod)
        self.generator = gen
        self._exp = exp
        self._log = log

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.degree == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        t, scale = 0, 1
        while a or b:
            t += ((a + b) % p) * scale
            a //= p
            b //= p
            scale *= p
        return t

    def neg(self, a: int) -> int:
        p = self.p
        if self.degree == 1:
            return (-a) % p
        if p == 2:
            return a
        t, scale = 0, 1
        while a:
            t += (-a % p) * scale
            a //= p
            scale *= p
        return t

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        n = self.order - 1
        if self.degree == 1:
            return pow(a, e % n if n else 0, self.p)
        return self._exp[(self._log[a] * e) % n]

    def absolute_trace(self, a: int) -> int:
        """Trace down to F_2 (characteristic 2 only), as the int 0 or 1."""
        if self.p != 2:
            raise ValueError("absolute_trace is only provided in characteristic 2")
        acc, t = a, a
        for _ in range(self.degree - 1):
            t = self.mul(t, t)
            acc = self.add(acc, t)
        return acc

    # -- encodings -----------------------------------------------------------

    def coeff_vector(self, a: int) -> tuple[int, ...]:
        return _digits(a, self.p, self.degree)

    def from_coeffs(self, coeffs) -> int:
        p, k = self.p, self.degree
        cs = [c % p for c in coeffs]
        if len(cs) > k and any(cs[k:]):
            raise ValueError("coefficient vector longer than the field degree")
        return _undigits(cs[:k], p)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.degree, self.modulus)
                == (other.p, other.degree, other.modulus))

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.degree})"


def _digits(value: int, base: int, k: int) -> tuple[int, ...]:
    """The k lowest base-`base` digits of value, least significant first:
    the one decoder of element encodings (base p) and of polynomial keys
    (base q)."""
    out = []
    for _ in range(k):
        out.append(value % base)
        value //= base
    return tuple(out)


def _undigits(digits, base: int) -> int:
    """The inverse of _digits: sum(digits[i] * base**i)."""
    t = 0
    for c in reversed(digits):
        t = t * base + c
    return t


def _admit(p: int, degree: int, capacity: int) -> int:
    """The order p^degree of an admissible field: p prime, degree >= 1 and
    the order within the work bound.  As p >= 2, a degree of at least
    capacity.bit_length() is refused before p^degree is computed."""
    if not is_prime(p):
        raise ModelShapeError(f"characteristic {p} is not prime")
    if degree < 1:
        raise ModelShapeError(f"extension degree must be positive, got {degree}")
    if degree < capacity.bit_length():
        order = p ** degree
        if order <= capacity:
            return order
    raise CapacityError(
        f"field order {p}^{degree} exceeds the work bound {capacity}")


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def extension_field(p: int, degree: int = 1, *, capacity: int = DEFAULT_CAPACITY) -> FiniteField:
    """The canonical F_(p^degree); construction is cached per (p, degree).

    The capacity bound is enforced on every call, cached or not, so a caller
    with a tight work budget is refused consistently.
    """
    _admit(p, degree, capacity)
    key = (p, degree)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FiniteField(p, degree, capacity=capacity)
        _FIELD_CACHE[key] = field
    return field
