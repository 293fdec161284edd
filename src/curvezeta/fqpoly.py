"""Univariate polynomial arithmetic over a finite field.

Polynomials are tuples of int-encoded field elements, constant term first,
with no trailing zeros; the zero polynomial is the empty tuple.  Every
function takes the field as its first argument, so the same code serves the
base field of a curve and the big fields used for point counting.

Products and divisions run on int lists, in one kernel per field kind:
integers mod p over an odd prime field, the field's log tables in
characteristic 2, and log tables with Zech logarithms over an odd extension
field (FiniteField._build_tables).  mul, divmod_ and mod wrap them, and the
class tests of places call them directly.  A division kernel reduces a in
place and returns the remainder, trimmed; it never writes a[deg b:], which
keeps lead(b) times the quotient (mod p, over a prime field).
"""

from __future__ import annotations

from itertools import chain, compress, product

from .errors import CapacityError
from .finitefield import DEFAULT_CAPACITY, _digits, _undigits

X = (0, 1)


def trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def deg(a) -> int:
    """Degree with deg(0) = -1."""
    return len(a) - 1


def add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    # characteristic 2 adds the encodings by XOR, a prime field mod p
    if F.p == 2:
        out = [x ^ y for x, y in zip(a, b)]
    elif F.degree == 1:
        p = F.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        out = [F.add(x, y) for x, y in zip(a, b)]
    out += a[len(b):]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def neg(F, a):
    if F.p == 2:
        return tuple(a)
    if F.degree == 1:
        p = F.p
        return tuple(p - c if c else 0 for c in a)
    return tuple(F.neg(c) for c in a)


def sub(F, a, b):
    return add(F, a, neg(F, b))


def scale(F, c, a):
    if c == 0:
        return ()
    return trim(tuple(F.mul(c, x) for x in a))


def mul(F, a, b):
    if F.p == 2:
        return tuple(_mul2(F._log, F._exp, a, b))
    if F.degree == 1:
        return tuple(_mul_p(F.p, a, b))
    return tuple(_mul_zech(F._log, F._exp, F._zech, a, b))


def divmod_(F, a, b):
    a = list(a)
    rem = _reduce(F, a, b)
    return scale(F, F.inv(b[-1]), a[len(b) - 1:]), rem


def mod(F, a, b):
    return _reduce(F, list(a), b)


def _reduce(F, a: list, b) -> tuple:
    """a mod b through the field kind's division kernel; a is consumed."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if F.p == 2:
        return tuple(_divmod2(F._log, F._exp, a, b))
    if F.degree == 1:
        return tuple(_divmod_p(F.p, a, b))
    return tuple(_divmod_zech(F._log, F._exp, F._zech, a, b))


# -- list kernels (see the module docstring) -----------------------------


def _mul_p(p, a, b) -> list:
    """The product over the prime field F_p: elements are least residues,
    so integer convolution followed by one reduction pass is exact."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return [c % p for c in prod]


def _divmod_p(p, a: list, b) -> list:
    """Division over the prime field F_p, a a list of least residues.  b is
    made monic once, and the coefficients of a reduce mod p lazily: each
    top one as it is divided out, the rest once at the end."""
    nb = len(b) - 1
    if len(a) > nb:
        if b[-1] != 1:
            inv_lead = pow(b[-1], -1, p)
            b = [c * inv_lead % p for c in b]
        for top in range(len(a) - 1, nb - 1, -1):
            c = a[top] % p
            if c:
                s = top - nb
                for j in range(nb):
                    a[s + j] -= c * b[j]
        a = [x % p for x in a[:nb]]
    while a and not a[-1]:
        a.pop()
    return a


def _mul2(log, exp, a, b) -> list:
    """The product in characteristic 2."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    logs_b = [log[c] for c in b]
    for i, c in enumerate(a):
        if c:
            lc = log[c]
            for j, lb in enumerate(logs_b):
                out[i + j] ^= exp[lc + lb]
    return out


def _divmod2(log, exp, a: list, b) -> list:
    """Division in characteristic 2."""
    n = len(log) - 1
    nb = len(b) - 1
    if len(a) > nb:
        # logs of the nonzero b_j / b_lead
        shift = -log[b[-1]]
        logs_b = [(j, (log[c] + shift) % n) for j, c in enumerate(b[:-1]) if c]
        for top in range(len(a) - 1, nb - 1, -1):
            c = a[top]
            if c:
                lc, s = log[c], top - nb
                for j, lb in logs_b:
                    a[s + j] ^= exp[lc + lb]
        a = a[:nb]
    while a and not a[-1]:
        a.pop()
    return a


def _mul_zech(log, exp, zech, a, b) -> list:
    """The product over an odd extension field: terms multiply through the
    log tables and add by Zech logarithms, y + g^l = g^(log y + zech[l -
    log y])."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    logs_b = [(j, log[c]) for j, c in enumerate(b) if c]
    for i, c in enumerate(a):
        if c:
            lc = log[c]
            for j, lb in logs_b:
                y = out[i + j]
                if y:
                    ly = log[y]
                    out[i + j] = exp[ly + zech[lc + lb - ly]]
                else:
                    out[i + j] = exp[lc + lb]
    return out


def _divmod_zech(log, exp, zech, a: list, b) -> list:
    """Division over an odd extension field, with the sums of _mul_zech."""
    n = len(log) - 1
    nb = len(b) - 1
    if len(a) > nb:
        # logs of the nonzero -b_j / b_lead; -1 = g^(n/2)
        shift = n // 2 - log[b[-1]]
        neg_b = [(j, (log[c] + shift) % n) for j, c in enumerate(b[:-1]) if c]
        for top in range(len(a) - 1, nb - 1, -1):
            c = a[top]
            if c:
                lc, s = log[c], top - nb
                for j, lb in neg_b:
                    y = a[s + j]
                    if y:
                        ly = log[y]
                        a[s + j] = exp[ly + zech[lc + lb - ly]]
                    else:
                        a[s + j] = exp[lc + lb]
        a = a[:nb]
    while a and not a[-1]:
        a.pop()
    return a


def monic(F, a):
    if not a or a[-1] == 1:
        return tuple(a)
    return scale(F, F.inv(a[-1]), a)


def gcd(F, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def xgcd(F, a, b):
    """(g, s, t) with g = s*a + t*b and g monic (or zero).  The loop
    tracks s only; t is then the exact quotient (g - s*a) / b."""
    a, b = trim(a), trim(b)
    r0, r1 = a, b
    s0, s1 = (1,), ()
    while r1:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
    if r0 and r0[-1] != 1:
        c = F.inv(r0[-1])
        r0, s0 = scale(F, c, r0), scale(F, c, s0)
    t0 = divmod_(F, sub(F, r0, mul(F, s0, a)), b)[0] if b else ()
    return r0, s0, t0


def pow_mod(F, a, e, m):
    """a^e mod m, by left-to-right binary powering: one squaring per bit of
    e below the top one, and one product per set bit below it."""
    if not e:
        return (1,)
    a = mod(F, a, m)
    r = a
    for bit in bin(e)[3:]:
        r = mod(F, mul(F, r, r), m)
        if bit == "1":
            r = mod(F, mul(F, r, a), m)
    return r


def evaluate(F, a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def derivative(F, a):
    # The scalar i lands in the prime subfield, whose elements are the ints
    # 0..p-1 under the field encoding.
    return trim(tuple(F.mul(i % F.p, a[i]) for i in range(1, len(a))))


def map_coeffs(phi, a):
    return trim(tuple(phi(c) for c in a))


def encode(F, a) -> int:
    """Base-q integer key of a coefficient tuple (little-endian)."""
    return _undigits(a, F.order)


def decode(F, value: int, degree: int) -> tuple:
    """The polynomial of degree < degree whose key is value."""
    return trim(_digits(value, F.order, degree))


def decode_monic(F, value: int, degree: int) -> tuple:
    """The monic polynomial of the given degree whose key, with the
    leading 1 left out, is value."""
    return _digits(value, F.order, degree) + (1,)


def is_irreducible(F, poly) -> bool:
    """Certificate: poly | x^(q^d) - x, and gcd(poly, x^(q^j) - x) = 1 for
    every proper divisor j of d."""
    d = deg(poly)
    if d < 1:
        return False
    q = F.order
    x_red = mod(F, X, poly)
    t = x_red
    for j in range(1, d + 1):
        t = pow_mod(F, t, q, poly)
        if j < d and d % j == 0:
            if deg(gcd(F, sub(F, t, X), poly)) != 0:
                return False
    return t == x_red


def check_candidates(F, degree: int, capacity: int) -> None:
    """Refuse a sieve over the q^degree monics of a degree above the bound."""
    q = F.order
    if q ** degree > capacity:
        raise CapacityError(
            f"enumerating degree-{degree} polynomials over order-{q} field "
            f"needs {q ** degree} candidates, above the work bound {capacity}")


def monic_irreducibles(F, degree: int, *, capacity: int = DEFAULT_CAPACITY) -> tuple:
    """All monic irreducibles of the given degree, sorted by coefficient key.

    Candidates of a degree d are sieved by the products of each monic
    irreducible p_low of degree a <= d/2 with every monic of degree d - a.
    Every reducible monic of degree d has a monic irreducible factor of such
    a degree, so the survivors are exactly the irreducibles.  Lists are
    cached on the field, so repeated calls are cheap.

    The products are walked, not multiplied.  An element of F_q, q = p^k,
    is the base-p number of its coordinates over F_p, so the key of a
    polynomial (encode) is the base-p number of its coefficients'
    coordinates laid end to end.  The cofactor runs through its q^(d-a)
    monics in odometer order on those base-p digits.  Stepping the digit of
    coordinate s at position i by one, the wrap from p - 1 to 0 included,
    adds e_s * p_low * x^i to the product, where e_s is the element encoded
    p^s; the digits of e_s * p_low are worked out once per p_low and s.  So
    the walk keeps the product's digits and key and updates both at the
    nonzero digits of that vector, at most (a + 1) k a step
    (_mark_products).  The same walk serves every field, characteristic 2
    included.  No step multiplies polynomials or re-encodes a key.  Each
    survivor's tuple is joined from two tables, of its low d//2
    coefficients and of the rest.
    """
    if degree < 1:
        raise ValueError("irreducible polynomials have degree >= 1")
    check_candidates(F, degree, capacity)
    q = F.order
    for d in range(1, degree + 1):
        if d in F._irreducibles:
            continue
        composite = bytearray(q ** d)
        for a in range(1, d // 2 + 1):
            for p_low in F._irreducibles[a]:
                _mark_products(F, composite, p_low, d - a)
        survivors = compress(range(q ** d), composite.translate(_UNMARKED))
        # a key's low d//2 coefficients are its residue mod Q, the rest
        # (and the leading 1) its quotient
        half = d // 2
        Q = q ** half
        lo = [c[::-1] for c in product(range(q), repeat=half)]
        hi = [c[::-1] + (1,) for c in product(range(q), repeat=d - half)]
        F._irreducibles[d] = tuple(lo[value % Q] + hi[value // Q]
                                   for value in survivors)
    return F._irreducibles[degree]


_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _mark_products(F, composite, p_low, m: int) -> None:
    """Set composite[key(p_low * other)] = 1 for every monic other of
    degree m, where key is encode with the leading 1 left out, walking
    other in odometer order (see monic_irreducibles).

    Flat digit t = i k + s of other is coordinate s of its x^i coefficient,
    so the odometer counts other's key up from 0.  The product's flat
    digits r < width = (m + deg p_low) k make up its key; digit r has
    weight p^r in the key.
    """
    p, k = F.p, F.degree
    n = m * k
    width = (m + len(p_low) - 1) * k
    # steps[s]: the nonzero flat digits (r, v) of e_s * p_low
    steps = []
    for s in range(k):
        vec = []
        for j, c in enumerate(p_low):
            c = F.mul(p ** s, c)
            for r in range(j * k, (j + 1) * k):
                if c % p:
                    vec.append((r, c % p))
                c //= p
        steps.append(vec)
    # the walk starts at other = x^m
    start = [(m * k + r, v) for r, v in steps[0] if m * k + r < width]
    weight = [p ** r for r in range(width)]
    prod = [0] * width
    key = 0
    for r, v in start:
        prod[r] = v
        key += v * weight[r]
    # per flat digit t: (r, v, key change without wrap, with wrap)
    moves = [[(t - t % k + r, v, v * weight[t - t % k + r],
               (v - p) * weight[t - t % k + r]) for r, v in steps[t % k]]
             for t in range(n)]
    digits = [0] * n
    top = p - 1
    composite[key] = 1
    t = 0
    while True:  # step digit t; a wrap to 0 carries into digit t + 1
        for r, v, up, down in moves[t]:
            x = prod[r] + v
            if x < p:
                prod[r] = x
                key += up
            else:
                prod[r] = x - p
                key += down
        if digits[t] < top:
            digits[t] += 1
            composite[key] = 1
            t = 0
        else:
            digits[t] = 0
            t += 1
            if t == n:
                return


def quadratic_character(F, a, u) -> int:
    """The Jacobi symbol (a / u) for monic u over F_q, q odd: 0, 1 or -1.

    For irreducible u this is the quadratic character of a in the field
    F_q[x]/(u): 1 on nonzero squares, -1 on non-squares, 0 when u | a.  It
    is computed by Euclid's algorithm with polynomial quadratic reciprocity
    (Rosen, Number Theory in Function Fields, ch. 3): for coprime monic A
    and B, (A / B) = (-1)^(((q-1)/2) deg A deg B) (B / A), and a constant c
    has (c / B) = chi(c)^(deg B), with chi the quadratic character of F_q,
    so (c / B) = chi(c) for B of odd degree.  No power is taken in
    F_q[x]/(u).

    Each step reduces by a monic divisor and scales the remainder monic,
    on int lists, with the field kind's division kernel.  Over a prime
    field (_jacobi_mod_p, _divmod_p) the coefficients reduce mod p, lazily,
    and chi is Euler's criterion c^((p-1)/2).  Over an extension field
    (_jacobi_zech, _divmod_zech) they multiply through the field's log
    tables and add by its Zech logarithms, and chi(c) = -1 exactly when
    the log of c is odd.
    """
    if F.p == 2:
        raise ValueError("quadratic_character needs odd characteristic")
    if F.degree == 1:
        return _jacobi_mod_p(F.p, list(a), u)
    return _jacobi_zech(F, list(a), u)


def _jacobi_mod_p(p, a: list, b) -> int:
    """quadratic_character over the prime field F_p; a is consumed."""
    half = (p - 1) // 2
    flip = half & 1
    sign = 1
    while True:
        nb = len(b) - 1
        a = _divmod_p(p, a, b)
        if not nb:
            return sign
        if not a:
            return 0
        c = a[-1]
        if c != 1:
            if nb & 1 and pow(c, half, p) != 1:
                sign = -sign
            c = pow(c, -1, p)
            a = [x * c % p for x in a]
        if flip and nb & 1 and not len(a) & 1:
            sign = -sign
        a, b = list(b), a


def _jacobi_zech(F, a: list, b) -> int:
    """quadratic_character over an odd extension field; a is consumed."""
    log, exp, zech = F._log, F._exp, F._zech
    n = F.order - 1
    flip = n // 2 & 1
    sign = 1
    while True:
        nb = len(b) - 1
        a = _divmod_zech(log, exp, zech, a, b)
        if not nb:
            return sign
        if not a:
            return 0
        c = a[-1]
        if c != 1:
            lc = log[c]
            if nb & 1 and lc & 1:
                sign = -sign
            lc = n - lc
            a = [exp[log[x] + lc] for x in a]
        if flip and nb & 1 and not len(a) & 1:
            sign = -sign
        a, b = list(b), a


def fraction_trace(F, a, b, u):
    """The absolute trace of a / b mod u as the int 0 or 1, for monic
    irreducible u in characteristic 2; None when u divides b.

    r = b mod u is zero exactly when u | b.  Otherwise the trace to F_q
    sums a r^-1 over the roots of u (_trace_to_fq), with r^-1 the one
    inverse mod u (_inverse2).  As _trace_to_fq reads a polynomial of any
    degree, a is first reduced mod u only when r is not a constant, so
    that the product stays below degree 2 deg u - 1.  The absolute trace
    of F_q takes the sum the rest of the way (Lidl and Niederreiter,
    Finite Fields, ch. 2), F.absolute_trace; z^2 + z = a / b mod u is
    solvable exactly when it is 0.
    """
    if F.p != 2:
        raise ValueError("fraction_trace is only provided in characteristic 2")
    log, exp = F._log, F._exp
    r = _divmod2(log, exp, list(b), u)
    if not r:
        return None
    if len(r) > 1:
        a = _divmod2(log, exp, list(a), u)
    inverse = _inverse2(log, exp, r, u)
    return F.absolute_trace(
        _trace_to_fq(log, exp, _mul2(log, exp, a, inverse), u))


def _inverse2(log, exp, b, m) -> list:
    """The inverse of b mod m in characteristic 2, for deg b < deg m; a
    ZeroDivisionError when gcd(b, m) is not 1.  An extended Euclid that
    keeps only b's cofactor, on int lists through the field's tables."""
    # r0 = s0 * b and r1 = s1 * b mod m throughout
    n = len(log) - 1
    r0, r1, s0, s1 = list(m), list(b), [], [1]
    while len(r1) > 1:
        rem = _divmod2(log, exp, r0, r1)
        inv_lead = n - log[r1[-1]]
        quot = [exp[log[c] + inv_lead] for c in r0[len(r1) - 1:]]
        s2 = _mul2(log, exp, quot, s1)
        for i, c in enumerate(s0):
            s2[i] ^= c
        while s2 and not s2[-1]:
            s2.pop()
        r0, r1, s0, s1 = r1, rem, s1, s2
    if not r1:
        raise ZeroDivisionError("b is not invertible mod m")
    inv_c = n - log[r1[0]]
    return [exp[log[c] + inv_c] for c in s1]


def _trace_to_fq(log, exp, a, u) -> int:
    """sum_j a_j s_j, the sum of a over the roots of the monic u, in
    characteristic 2 and for any deg a; s_j is the j-th power sum of the
    roots.  By Newton's identities, with u = sum_i c_i x^i of degree d,
    s_k = sum_(0<i<=min(k,d)) c_(d-i) s_(k-i) + (k - d) c_(d-k) [k <= d],
    where s_0 = d."""
    d = len(u) - 1
    logs_c = [log[c] for c in reversed(u[:-1])]  # c_(d-1), ..., c_0
    logs_s = [log[d & 1]]
    t = exp[log[a[0]] + logs_s[0]] if a else 0
    for k in range(1, len(a)):
        acc = u[d - k] if k <= d and (k ^ d) & 1 else 0
        for lc, ls in zip(logs_c, reversed(logs_s)):
            acc ^= exp[lc + ls]
        ls = log[acc]
        logs_s.append(ls)
        t ^= exp[log[a[k]] + ls]
    return t


class QuotientRing:
    """F_q[x] / (u) for monic u; a field whenever u is irreducible.
    Elements are polynomials of degree < deg u."""

    def __init__(self, field, modulus):
        self.field = field
        self.modulus = tuple(modulus)
        self.d = deg(self.modulus)
        self.order = field.order ** self.d

    def reduce(self, a):
        return mod(self.field, a, self.modulus)

    def add(self, a, b):
        return add(self.field, a, b)

    def sub(self, a, b):
        return sub(self.field, a, b)

    def neg(self, a):
        return neg(self.field, a)

    def mul(self, a, b):
        return mod(self.field, mul(self.field, a, b), self.modulus)

    def inv(self, a):
        g, s, _ = xgcd(self.field, a, self.modulus)
        if g != (1,):
            raise ZeroDivisionError("element is not invertible in the quotient ring")
        return self.reduce(s)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return pow_mod(self.field, a, e, self.modulus)

    def elements(self):
        """Every element, in key order."""
        return (decode(self.field, v, self.d) for v in range(self.order))

    def sqrt(self, a):
        """A square root of a, or None.  Even order: a^(order/2), the root
        in a field, returned only when it squares back to a, which a ring
        with nilpotents can fail.  Odd order: Tonelli-Shanks, which keeps
        r^2 = a u and gives None once u^(2^(m-1)) != 1 (a non-square or a
        non-unit)."""
        if not a:
            return ()
        q = self.order
        if q % 2 == 0:
            r = self.pow(a, q // 2)
            return r if self.mul(r, r) == self.reduce(a) else None
        s, t = 0, q - 1
        while t % 2 == 0:
            t //= 2
            s += 1
        w = self.pow(a, (t - 1) // 2)
        r = self.mul(w, a)
        u = self.mul(w, r)
        m, c = s, None
        while u != (1,):
            i, v = 0, u
            while v != (1,) and i < m:
                v = self.mul(v, v)
                i += 1
            if i == m:
                return None
            if c is None:
                # A non-residue z, in key order but with the constants
                # last: in a ring of even degree every constant is a
                # square, and a ring of degree one has nothing else.
                k, half = self.field.order, (q - 1) // 2
                z = next(z for z in (decode(self.field, v, self.d)
                                     for v in chain(range(k, q), range(1, k)))
                         if self.pow(z, half) != (1,))
                c = self.pow(z, t)
            b = self.pow(c, 1 << (m - i - 1))
            r = self.mul(r, b)
            c = self.mul(b, b)
            u = self.mul(u, c)
            m = i
        return r


def artin_schreier_solve(ring: QuotientRing, w):
    """One solution z of z^2 + z = w in a characteristic-2 quotient field.

    The map z -> z^2 + z is linear over F_2, so this is Gaussian elimination
    on bit rows.  Returns None when no solution exists (trace 1 case).
    """
    F = ring.field
    if F.p != 2:
        raise ValueError("artin_schreier_solve is only provided in characteristic 2")
    k, d = F.degree, ring.d

    def to_bits(a):  # bit i k + j is coordinate j of the x^i coefficient
        return sum(c << (i * k) for i, c in enumerate(a))

    basis = [(0,) * i + (1 << j,) for i in range(d) for j in range(k)]
    rows = [(to_bits(ring.add(ring.mul(e, e), e)), 1 << idx)
            for idx, e in enumerate(basis)]
    target = to_bits(ring.reduce(w))
    # eliminate
    sol_mask = 0
    for bit in range(k * d):
        pivot = next((r for r, (img, _) in enumerate(rows) if img >> bit & 1),
                     None)
        if pivot is None:
            continue
        pimg, ppre = rows.pop(pivot)
        if target >> bit & 1:
            target ^= pimg
            sol_mask ^= ppre
        rows = [(img ^ pimg, pre ^ ppre) if img >> bit & 1 else (img, pre)
                for img, pre in rows]
    if target:
        return None
    return trim((sol_mask >> (i * k)) & ((1 << k) - 1) for i in range(d))
