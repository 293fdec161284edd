"""Univariate polynomial arithmetic over a finite field.

Polynomials are tuples of int-encoded field elements, constant term first,
with no trailing zeros; the zero polynomial is the empty tuple.  Every
function takes the field as its first argument, so the same code serves the
base field of a curve and the big fields used for point counting.
"""

from __future__ import annotations

from .errors import CapacityError
from .finitefield import DEFAULT_CAPACITY, tonelli_sqrt

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
    n = max(len(a), len(b))
    return trim(tuple(F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                      for i in range(n)))


def neg(F, a):
    return tuple(F.neg(c) for c in a)


def sub(F, a, b):
    return add(F, a, neg(F, b))


def scale(F, c, a):
    if c == 0:
        return ()
    return trim(tuple(F.mul(c, x) for x in a))


def mul(F, a, b):
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    if F.degree == 1:
        # prime field: elements are least residues, so integer convolution
        # followed by one reduction pass is exact
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        p = F.p
        return trim([c % p for c in prod])
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    prod[i + j] = F.add(prod[i + j], F.mul(ca, cb))
    return trim(prod)


def divmod_(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    if F.degree == 1:
        p = F.p
        lead = b[-1]
        inv_lead = 1 if lead == 1 else pow(lead, -1, p)
        nb = len(b)
        while len(a) >= nb:
            c = a[-1] if inv_lead == 1 else (a[-1] * inv_lead) % p
            shift = len(a) - nb
            if c:
                quot[shift] = c
                for j in range(nb - 1):
                    a[shift + j] = (a[shift + j] - c * b[j]) % p
            del a[-1]
        return trim(quot), trim(a)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b):
        c = F.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        if c:
            quot[shift] = c
            for j in range(len(b)):
                a[shift + j] = F.sub(a[shift + j], F.mul(c, b[j]))
        del a[-1]
    return trim(quot), trim(a)


def mod(F, a, b):
    return divmod_(F, a, b)[1]


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
    """(g, s, t) with g = s*a + t*b and g monic (or zero)."""
    r0, r1 = trim(a), trim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if r0 and r0[-1] != 1:
        c = F.inv(r0[-1])
        r0, s0, t0 = scale(F, c, r0), scale(F, c, s0), scale(F, c, t0)
    return r0, s0, t0


def pow_mod(F, a, e, m):
    r = (1,)
    a = mod(F, a, m)
    while e:
        if e & 1:
            r = mod(F, mul(F, r, a), m)
        a = mod(F, mul(F, a, a), m)
        e >>= 1
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
    t = 0
    for c in reversed(a):
        t = t * F.order + c
    return t


def decode_monic(F, value: int, degree: int) -> tuple:
    cs = []
    for _ in range(degree):
        cs.append(value % F.order)
        value //= F.order
    cs.append(1)
    return tuple(cs)


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
    irreducible of degree a <= d/2 with every monic of degree d - a.  Every
    reducible monic of degree d has a monic irreducible factor of such a
    degree, so the survivors are exactly the irreducibles.  Lists are cached
    on the field, so repeated calls are cheap.
    """
    if degree < 1:
        raise ValueError("irreducible polynomials have degree >= 1")
    check_candidates(F, degree, capacity)
    q = F.order
    for d in range(1, degree + 1):
        if d in F._irreducibles:
            continue
        if d == 1:
            polys = tuple((F.neg(r), 1) for r in range(q))
            F._irreducibles[1] = tuple(sorted(polys, key=lambda t: encode(F, t)))
            continue
        composite = bytearray(q ** d)
        for a in range(1, d // 2 + 1):
            others = [decode_monic(F, mval, d - a) for mval in range(q ** (d - a))]
            for p_low in F._irreducibles[a]:
                for other in others:
                    prod = mul(F, p_low, other)
                    composite[encode(F, prod[:-1])] = 1
        F._irreducibles[d] = tuple(decode_monic(F, value, d)
                                   for value in range(q ** d)
                                   if not composite[value])
    return F._irreducibles[degree]


def quadratic_character(F, a, u) -> int:
    """The Jacobi symbol (a / u) for monic u over F_q, q odd: 0, 1 or -1.

    For irreducible u this is the quadratic character of a in the field
    F_q[x]/(u): 1 on nonzero squares, -1 on non-squares, 0 when u | a.  It
    is computed by Euclid's algorithm with polynomial quadratic reciprocity
    (Rosen, Number Theory in Function Fields, ch. 3): for coprime monic A
    and B, (A / B) = (-1)^(((q-1)/2) deg A deg B) (B / A), and a constant c
    has (c / B) = chi(c)^(deg B), with chi the quadratic character of F_q.
    No power is taken in F_q[x]/(u).
    """
    if F.p == 2:
        raise ValueError("quadratic_character needs odd characteristic")
    half = (F.order - 1) // 2
    sign = 1
    a, b = mod(F, a, u), tuple(u)
    while deg(b) > 0:
        if not a:
            return 0
        c = a[-1]
        if c != 1:
            if deg(b) % 2 and F.pow(c, half) != 1:
                sign = -sign
            a = scale(F, F.inv(c), a)
        if half % 2 and deg(a) % 2 and deg(b) % 2:
            sign = -sign
        a, b = mod(F, b, a), a
    return sign


def absolute_trace(F, a, u) -> int:
    """The trace of a from F_q[x]/(u) down to F_2, as the int 0 or 1, for
    monic irreducible u in characteristic 2.

    The trace down to F_q is sum_i a_i s_i, where s_i is the i-th power sum
    of the roots of u, read off u's coefficients by Newton's identities;
    FiniteField.absolute_trace takes it the rest of the way (Lidl and
    Niederreiter, Finite Fields, ch. 2).  z^2 + z = a is solvable exactly
    when this trace is 0.
    """
    if F.p != 2:
        raise ValueError("absolute_trace is only provided in characteristic 2")
    a = mod(F, a, u)
    d = deg(u)
    # s_k = k c_(d-k) + sum_(i<k) c_(d-i) s_(k-i), signs dropped in char 2
    sums = [d % 2]
    for k in range(1, len(a)):
        acc = u[d - k] if k % 2 else 0
        for i in range(1, k):
            acc = F.add(acc, F.mul(u[d - i], sums[k - i]))
        sums.append(acc)
    t = 0
    for coeff, s in zip(a, sums):
        t = F.add(t, F.mul(coeff, s))
    return F.absolute_trace(t)


class QuotientRing:
    """F_q[x] / (u) for monic u; a field whenever u is irreducible.

    Shares the duck-typed interface of FiniteField that the square-root
    helpers rely on: order, base_order, one, elements(), mul, pow, inv.
    """

    def __init__(self, field, modulus):
        self.field = field
        self.modulus = tuple(modulus)
        self.d = deg(self.modulus)
        self.base_order = field.order
        self.order = field.order ** self.d
        self.one = (1,)

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
        if deg(g) != 0:
            raise ZeroDivisionError("element is not invertible in the quotient ring")
        return self.reduce(scale(self.field, self.field.inv(g[0]), s))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return pow_mod(self.field, a, e, self.modulus)

    def elements(self):
        q = self.field.order
        for value in range(self.order):
            cs = []
            v = value
            for _ in range(self.d):
                cs.append(v % q)
                v //= q
            yield trim(cs)

    def sqrt(self, a):
        """A square root in the quotient field, or None (odd order only)."""
        if not a:
            return ()
        return tonelli_sqrt(self, a)


def artin_schreier_solve(ring: QuotientRing, w):
    """One solution z of z^2 + z = w in a characteristic-2 quotient field.

    The map z -> z^2 + z is linear over F_2, so this is Gaussian elimination
    on bit rows.  Returns None when no solution exists (trace 1 case).
    """
    F = ring.field
    if F.p != 2:
        raise ValueError("artin_schreier_solve is only provided in characteristic 2")
    k, d = F.degree, ring.d
    n = k * d
    basis = []
    for i in range(d):
        for j in range(k):
            e = tuple(([0] * i) + [1 << j])
            basis.append(trim(e))

    def to_bits(a):
        bits = 0
        for i in range(d):
            c = a[i] if i < len(a) else 0
            bits |= c << (i * k)
        return bits

    rows = []
    for idx, e in enumerate(basis):
        img = ring.add(ring.mul(e, e), e)
        rows.append((to_bits(img), 1 << idx))
    target = to_bits(ring.reduce(w))
    # eliminate
    sol_mask = 0
    for bit in range(n):
        pivot = None
        for r, (img, pre) in enumerate(rows):
            if img >> bit & 1:
                pivot = r
                break
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
    coeffs = [0] * d
    for idx in range(n):
        if sol_mask >> idx & 1:
            i, j = divmod(idx, k)
            coeffs[i] ^= 1 << j
    return trim(coeffs)
