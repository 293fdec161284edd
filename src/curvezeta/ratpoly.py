"""Exact rational polynomial arithmetic.

Two representations, both over the rationals:

  RationalPoly -- dense univariate, coefficient tuple, constant term first.
  BiPoly       -- dense bivariate, rows[i][j] = coefficient of T^i * u^j,
                  rectangular with trailing zero rows and columns trimmed.

A stored coefficient is an int when it is integral and a fractions.Fraction
otherwise, so integer-valued polynomials cost int arithmetic.  Every
quotient of coefficients goes through quotient(), which never yields a
float.  Everything is immutable and hashable; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotDivisibleError


def _coef(x):
    """x as a stored coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quotient(a, b):
    """a / b for rational a and b, exactly, as a stored coefficient; the
    one division of coefficients, so that two ints never give a float."""
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return _coef(Fraction(a) / b)


def _power(base, e: int):
    """base ** e for either polynomial class, by repeated squaring."""
    out = type(base).const(1)
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


class RationalPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coef(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def const(cls, c) -> "RationalPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RationalPoly()
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return RationalPoly(prod)

    __rmul__ = __mul__

    __pow__ = _power

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        dcs = other.coeffs
        while len(rem) >= len(dcs):
            c = quotient(rem[-1], dcs[-1])
            shift = len(rem) - len(dcs)
            if c:
                quot[shift] = c
                for j in range(len(dcs)):
                    rem[shift + j] -= c * dcs[j]
            rem.pop()
        return RationalPoly(quot), RationalPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        x = _coef(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _coef(acc)

    def derivative(self) -> "RationalPoly":
        return RationalPoly(tuple(i * self.coeffs[i]
                                  for i in range(1, len(self.coeffs))))

    def monic(self) -> "RationalPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        lead = self.coeffs[-1]
        return RationalPoly(tuple(quotient(c, lead) for c in self.coeffs))

    def __str__(self):
        return format_poly(self.coeffs, "T")

    def __repr__(self):
        return f"RationalPoly({self})"


def _coerce(x) -> RationalPoly:
    if isinstance(x, RationalPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalPoly.const(x)
    raise TypeError(f"cannot treat {x!r} as a rational polynomial")


def _primitive(coeffs) -> list:
    """The primitive integer multiple of a rational coefficient list:
    denominators cleared, then the content divided out; [] for zero."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """The monic gcd over Q, zero only for two zeros, by a primitive
    remainder sequence over Z: each step takes a pseudo-remainder, which is
    a rational multiple of the remainder over Q, and divides out its
    content, so the coefficients stay integers of the size of the gcd's
    and no Fraction is formed until the gcd is made monic."""
    x, y = _primitive(a.coeffs), _primitive(b.coeffs)
    if len(x) < len(y):
        x, y = y, x
    while y:
        lead, n = y[-1], len(y) - 1
        while len(x) > n:
            c = x.pop()
            if c:
                # lead/k * x - c/k * x^(len(x) - n) * y clears the top term
                k = gcd(c, lead)
                if lead != k:
                    scale = lead // k
                    x = [v * scale for v in x]
                c //= k
                base = len(x) - n
                for j in range(n):
                    x[base + j] -= c * y[j]
        while x and not x[-1]:
            x.pop()
        x, y = y, _primitive(x)
    return RationalPoly(x).monic()


class BiPoly:
    """Dense bivariate polynomial; rows[i][j] is the T^i u^j coefficient."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        grid = [[_coef(c) for c in row] for row in rows]
        height = len(grid)
        while height and not any(grid[height - 1]):
            height -= 1
        grid = grid[:height]
        width = max((len(r) for r in grid), default=0)
        while width and not any(r[width - 1] if width <= len(r) else 0 for r in grid):
            width -= 1
        norm = tuple(tuple(r[:width]) + (0,) * (width - len(r)) for r in grid)
        object.__setattr__(self, "rows", norm)

    def __setattr__(self, *a):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls(((c,),))

    @classmethod
    def t(cls) -> "BiPoly":
        return cls(((0,), (1,)))

    @classmethod
    def u(cls) -> "BiPoly":
        return cls(((0, 1),))

    @classmethod
    def from_terms(cls, terms: dict) -> "BiPoly":
        if not terms:
            return cls()
        h = max(i for i, _ in terms) + 1
        w = max(j for _, j in terms) + 1
        grid = [[0] * w for _ in range(h)]
        for (i, j), c in terms.items():
            grid[i][j] = c
        return cls(grid)

    def terms(self) -> dict:
        return {(i, j): c for i, row in enumerate(self.rows)
                for j, c in enumerate(row) if c}

    @property
    def t_degree(self) -> int:
        return len(self.rows) - 1

    @property
    def u_degree(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else -1

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.rows == other.rows
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def coeff(self, i: int, j: int):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    def coeff_of_t(self, i: int) -> RationalPoly:
        """The T^i coefficient, as a polynomial in u."""
        if 0 <= i < len(self.rows):
            return RationalPoly(self.rows[i])
        return RationalPoly()

    def coeff_of_u(self, j: int) -> RationalPoly:
        """The u^j coefficient, as a polynomial in T."""
        return RationalPoly(tuple(self.coeff(i, j) for i in range(len(self.rows))))

    def __add__(self, other):
        other = _coerce_bi(other)
        h = max(len(self.rows), len(other.rows))
        return BiPoly(tuple(
            tuple(self.coeff(i, j) + other.coeff(i, j)
                  for j in range(max(self.u_degree, other.u_degree) + 1))
            for i in range(h)))

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(tuple(tuple(-c for c in row) for row in self.rows))

    def __sub__(self, other):
        return self + (-_coerce_bi(other))

    def __rsub__(self, other):
        return _coerce_bi(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly(tuple(tuple(c * other for c in row) for row in self.rows))
        if isinstance(other, RationalPoly):
            raise TypeError("ambiguous variable; lift the univariate factor first")
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly()
        h = len(self.rows) + len(other.rows) - 1
        w = len(self.rows[0]) + len(other.rows[0]) - 1
        grid = [[0] * w for _ in range(h)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a:
                    for k, orow in enumerate(other.rows):
                        for l, b in enumerate(orow):
                            if b:
                                grid[i + k][j + l] += a * b
        return BiPoly(grid)

    __rmul__ = __mul__

    __pow__ = _power

    def eval_u(self, value) -> RationalPoly:
        """Substitute u = value, leaving a polynomial in T."""
        return RationalPoly(tuple(RationalPoly(row).evaluate(value)
                                  for row in self.rows))

    def eval_t(self, value) -> RationalPoly:
        """Substitute T = value, leaving a polynomial in u."""
        return RationalPoly(tuple(RationalPoly(column).evaluate(value)
                                  for column in zip(*self.rows)))

    def __str__(self):
        if not self.rows:
            return "0"
        parts = []
        for i, row in enumerate(self.rows):
            upoly = format_poly(row, "u")
            if upoly == "0":
                continue
            if i == 0:
                parts.append(upoly)
            else:
                tpow = "T" if i == 1 else f"T^{i}"
                coeff = "" if upoly == "1" else (
                    f"({upoly})*" if any(s in upoly for s in " +-") else f"{upoly}*")
                parts.append(f"{coeff}{tpow}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"BiPoly({self})"


def _coerce_bi(x) -> BiPoly:
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BiPoly.const(x)
    raise TypeError(f"cannot treat {x!r} as a bivariate polynomial")


def bivariate_divmod(num: BiPoly, den: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Single-divisor multivariate division, lex order with T before u.

    num = quotient * den + remainder, and no term of the remainder is
    divisible by the leading term of den.  The remainder is zero exactly
    when den divides num.

    One sweep over the terms of num in descending lex order: a step at the
    term T^i u^j only changes terms below it, since the order respects
    products, so each term is final when the sweep reaches it.  A step
    moves terms at most deg_u den - lt_u columns right and at least one
    row down, which fixes the width of the work grid in advance.
    """
    if den.is_zero():
        raise ZeroDivisionError("bivariate division by zero")
    drows = den.rows
    di = len(drows) - 1
    dj = max(j for j, c in enumerate(drows[di]) if c)
    lc = drows[di][dj]
    rest = [(a, b, d) for a, row in enumerate(drows) for b, d in enumerate(row)
            if d and (a, b) != (di, dj)]
    height = len(num.rows)
    width = len(num.rows[0]) if num.rows else 0
    width += max(0, len(drows[0]) - 1 - dj) * max(0, height - di)
    work = [list(row) + [0] * (width - len(row)) for row in num.rows]
    quot = [[0] * width for _ in range(height - di)]
    for i in range(height - 1, di - 1, -1):
        row = work[i]
        for j in range(width - 1, dj - 1, -1):
            if row[j]:
                c = quot[i - di][j - dj] = quotient(row[j], lc)
                row[j] = 0
                for a, b, d in rest:
                    work[i - di + a][j - dj + b] -= c * d
    return BiPoly(quot), BiPoly(work)


def bivariate_exact_divide(num: BiPoly, den: BiPoly) -> BiPoly:
    """num / den when the division is exact; otherwise NotDivisibleError
    carrying the nonzero remainder."""
    quot, rem = bivariate_divmod(num, den)
    if not rem.is_zero():
        raise NotDivisibleError(
            f"exact division failed; remainder {rem}", remainder=rem)
    return quot


def format_poly(coeffs, var: str) -> str:
    """Human-readable polynomial text, constant term first in the input."""
    parts = []
    for i, c in enumerate(coeffs):
        c = _coef(c)
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            text += f" - {part[1:]}"
        else:
            text += f" + {part}"
    return text
