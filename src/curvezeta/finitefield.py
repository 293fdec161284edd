"""Finite fields F_(p^k) with a deterministic, reproducible construction.

Elements are plain ints in [0, q).  The int is the base-p encoding of the
coefficient vector of the element written in the power basis of the modulus:
value = sum(c_i * p**i) with c_0 the constant coefficient.  The prime
subfield therefore embeds as the ints 0..p-1, and iterating range(q) walks
the field in a canonical order.

For k > 1 the chosen modulus is the monic irreducible polynomial of degree k
whose non-leading coefficient vector has the smallest base-p encoding, so a
given (p, k) always produces the same field with the same element labels.
Every field but an odd prime field builds one table set at construction
time: discrete logs and exps of a generator, with the absolute-trace mask
in characteristic 2 and the Zech logarithms of an odd extension field.  The
field's own arithmetic and fqpoly's list kernels both read it; an odd prime
field reduces mod p instead.
"""

from __future__ import annotations

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
        self._log = self._exp = self._mask = self._zech = None
        if degree == 1:
            self.modulus = (0, 1)
            if p == 2:
                self._build_tables([1])
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
            self._build_tables(self._powers(prime))
        self._irreducibles: dict[int, tuple] = {}
        self._embeddings: dict = {}

    # -- construction helpers ------------------------------------------------

    def _powers(self, prime: FiniteField) -> list:
        """[g^0, ..., g^(q-2)] for the generator g of the unit group with
        the smallest encoding.  The accumulator is a vector of k digits
        over F_p, stepped by g as a linear map."""
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
        # g * acc = sum of acc_i (g x^i mod modulus), so with those k
        # columns packed into ints, slots of w bits, a step is k products of
        # a digit with a column and one reduction of the k slots mod p
        w = (k * (p - 1) ** 2).bit_length()  # a slot holds k products
        column, columns = list(_digits(gen, p, k)), []
        for _ in range(k):
            columns.append(sum(c << w * j for j, c in enumerate(column)))
            top = column.pop()  # column * x, reduced by the monic modulus
            column = [(c - top * m) % p for c, m in zip([0] + column, mod)]
        mask, shifts = (1 << w) - 1, range(0, w * k, w)
        acc = [1] + [0] * (k - 1)
        powers = []
        for _ in range(q - 1):
            powers.append(_undigits(acc, p))
            packed = 0
            for a, col in zip(acc, columns):
                packed += a * col
            acc = [(packed >> shift & mask) % p for shift in shifts]
        self.generator = gen
        return powers

    def _build_tables(self, powers: list) -> None:
        """The field's one table set, from powers[i] = g^i for i < n =
        q - 1; the methods below and fqpoly's list kernels read it.  _log[c]
        is the log of c, and 2n for c = 0.  _exp[i] is g^i for i < 2n and 0
        up to 4n, so _exp[_log[a] + _log[b]] = a*b for every a and b.  In
        characteristic 2, _mask keeps the coordinates whose basis element
        has absolute trace 1.  For odd q, _zech[i] = log(1 + g^i), written
        twice so that any i in (-2n, 2n) indexes it (Lidl and Niederreiter,
        Finite Fields, ch. 2).  An odd prime field has no tables.
        """
        p, k, n = self.p, self.degree, len(powers)
        log = [2 * n] * (n + 1)
        for i, c in enumerate(powers):
            log[c] = i
        self._log = log
        self._exp = powers * 2 + [0] * (2 * n + 1)
        if p == 2:
            # Tr(c) = c + c^2 + ... + c^(2^(k-1)) lies in F_2, so it is the
            # parity of the lowest bits of its terms
            self._mask = sum(1 << i for i in range(k) if sum(
                powers[(log[1 << i] << j) % n] & 1 for j in range(k)) & 1)
        else:
            # 1 + c steps the lowest base-p digit of c
            self._zech = [log[c + 1 if c % p != p - 1 else c + 1 - p]
                          for c in powers] * 2

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        if self.degree == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        # -1 = g^(n/2), and _log[0] + n/2 still reads 0
        return self._exp[self._log[a] + (self.order - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.degree == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        n = self.order - 1
        if self.degree == 1:
            return pow(a, e % n if n else 0, self.p)
        return self._exp[self._log[a] * e % n]

    def absolute_trace(self, a: int) -> int:
        """Trace down to F_2 (characteristic 2 only), as the int 0 or 1."""
        if self.p != 2:
            raise ValueError("absolute_trace is only provided in characteristic 2")
        return (a & self._mask).bit_count() & 1

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
