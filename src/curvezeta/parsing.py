"""Textual input formats.

Three small grammars live here:

  polynomial   x^5+2*x+1        integer coefficients, operators + - * ^,
                                whitespace insignificant, no parentheses
  curve spec   p=3; k=2; f=x^5+1; h=0      (k and h optional)
  measure table  header ``g=<int>; pic0=<rational>`` then rows ``n nu value``

Parsers raise ParseError with a 1-based line and column so the command line
driver can point at the offending character.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+\-*^]))")


def parse_poly_text(text: str, var: str = "x", *, line: int = 1) -> list[int]:
    """Parse the polynomial grammar into an integer coefficient list,
    constant term first.  Coefficients may be any size and sign."""
    tokens = []  # (kind, value, column)
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + len(text[pos:]) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1) + 1))
        elif m.group(2) is not None:
            name = m.group(2)
            if name != var:
                raise ParseError(
                    f"unknown symbol {name!r}, expected variable {var!r}",
                    line, m.start(2) + 1)
            tokens.append(("var", name, m.start(2) + 1))
        else:
            tokens.append(("op", m.group(3), m.start(3) + 1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", line, 1)

    coeffs: dict[int, int] = {}
    i = 0
    n = len(tokens)

    def fail(msg, idx):
        col = tokens[idx][2] if idx < n else len(text) + 1
        raise ParseError(msg, line, col)

    while i < n:
        sign = 1
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -1
            i += 1
        if i >= n:
            fail("dangling sign", i)
        # one monomial: product of numbers and var^exp factors
        coeff, exp, saw_factor = 1, 0, False
        expect_factor = True
        while i < n:
            kind, value, col = tokens[i]
            if kind == "num":
                coeff *= value
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "var":
                power = 1
                i += 1
                if i < n and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        fail("exponent must be a nonnegative integer", i)
                    power = tokens[i][1]
                    i += 1
                exp += power
                saw_factor = True
                expect_factor = False
            elif kind == "op" and value == "*":
                if expect_factor:
                    fail("misplaced '*'", i)
                expect_factor = True
                i += 1
            elif kind == "op" and value in "+-":
                break
            else:
                fail(f"misplaced {value!r}", i)
        if not saw_factor or expect_factor:
            fail("incomplete term", i)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    degree = max(coeffs) if coeffs else 0
    out = [coeffs.get(e, 0) for e in range(degree + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


class CurveSpecData(namedtuple("CurveSpecData", "p k f h text")):
    """Raw key/value content of one curve spec string."""
    p: int
    k: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    text: str
    __slots__ = ()


def parse_curve_spec(text: str, *, line: int = 1) -> CurveSpecData:
    """Parse ``p=...; k=...; f=...; h=...``; k defaults to 1, h to 0.

    Only syntax is judged here; semantic checks (primality, curve shape)
    belong to the field and model constructors.
    """
    seen: dict[str, object] = {}
    col = 1
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if not stripped:
            col += len(chunk) + 1
            continue
        if "=" not in stripped:
            raise ParseError(f"expected key=value, got {stripped!r}", line, col)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line, col)
        if key in ("p", "k"):
            if not re.fullmatch(r"\d+", value):
                raise ParseError(f"{key} must be a positive integer", line, col)
            seen[key] = int(value)
        elif key in ("f", "h"):
            seen[key] = tuple(parse_poly_text(value, "x", line=line))
        else:
            raise ParseError(f"unknown key {key!r}", line, col)
        col += len(chunk) + 1
    if "p" not in seen:
        raise ParseError("curve spec is missing p", line, 1)
    if "f" not in seen:
        raise ParseError("curve spec is missing f", line, 1)
    return CurveSpecData(
        p=seen["p"], k=seen.get("k", 1),
        f=seen["f"], h=seen.get("h", (0,)),
        text=text.strip())


def _parse_fraction(text: str, line: int, col: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{text!r} is not a rational a/b or a decimal",
                         line, col) from None


class MeasureTableData(namedtuple("MeasureTableData", "genus pic0 entries")):
    genus: int
    pic0: Fraction
    entries: dict  # (n, nu) -> Fraction
    __slots__ = ()


def parse_measure_table(text: str) -> MeasureTableData:
    """Parse a measure table document.

    Header ``g=<int>; pic0=<rational>`` on the first contentful line, then
    one ``n nu value`` triple per line.  Blank lines and ``#`` comments are
    ignored.  Unlisted strata default to zero.
    """
    genus = None
    pic0 = None
    entries: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if genus is None:
            for part in content.split(";"):
                part = part.strip()
                if not part:
                    continue
                key, _, value = part.partition("=")
                key, value = key.strip(), value.strip()
                if key == "g":
                    if not re.fullmatch(r"\d+", value):
                        raise ParseError("g must be a nonnegative integer", lineno, 1)
                    genus = int(value)
                elif key == "pic0":
                    pic0 = _parse_fraction(value, lineno, 1)
                else:
                    raise ParseError(f"unknown header key {key!r}", lineno, 1)
            if genus is None or pic0 is None:
                raise ParseError("header must set both g and pic0", lineno, 1)
            continue
        fields = content.split()
        if len(fields) != 3:
            raise ParseError("expected 'n nu value'", lineno, 1)
        try:
            n, nu = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError("n and nu must be integers", lineno, 1) from None
        if n < 0 or nu < 0:
            raise ParseError("n and nu must be nonnegative", lineno, 1)
        if (n, nu) in entries:
            raise ParseError(f"duplicate stratum ({n}, {nu})", lineno, 1)
        entries[(n, nu)] = _parse_fraction(fields[2], lineno, 1)
    if genus is None:
        raise ParseError("empty measure table", 1, 1)
    return MeasureTableData(genus=genus, pic0=pic0, entries=entries)


def format_fq_poly(coeffs, var: str = "x") -> str:
    """Render a field polynomial using the integer element encodings."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            parts.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return "+".join(reversed(parts)) if parts else "0"
