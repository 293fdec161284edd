"""Divisor class arithmetic in Mumford coordinates, and the section strata.

A degree-zero class is stored as a reduced Mumford pair (U, V): U monic,
deg V < deg U <= g, U | V^2 + hV - f.  For odd-degree models that reduced
representative is unique, so pairs double as dictionary keys.  Every
function here takes and returns reduced pairs; add relies on that when it
returns the other operand for IDENTITY.

A degree-n class (n >= 0) is the pair (U, V) of [D - n*infinity]; the
strata bucket such pairs per degree in one walk of the effective divisors
of degree <= g-1, one Cantor addition per divisor.  Most of those
additions have an IDENTITY operand, which add returns at once.  The rows
of degree g .. 2g-2 are read off the walked ones by D -> K - D.
"""

from __future__ import annotations

from collections import namedtuple

from . import fqpoly as fp
from .curve import HyperellipticModel, Place, PlaceTable
from .errors import CapacityError, ConsistencyError, StratificationError
from .finitefield import DEFAULT_CAPACITY
from .zetaone import class_number

IDENTITY = ((1,), ())


def negate(model: HyperellipticModel, rep):
    u, v = rep
    F = model.field
    return (u, fp.mod(F, fp.neg(F, fp.add(F, v, model.h)), u))


def _reduce(model: HyperellipticModel, u, v):
    F = model.field
    g = model.genus
    while fp.deg(u) > g:
        w = fp.add(F, v, model.h)
        u_next, rem = fp.divmod_(F, fp.sub(F, model.f, fp.mul(F, v, w)), u)
        if rem:
            raise ConsistencyError(
                f"reduction of ({u}, {v}) leaves remainder {rem}: not a Mumford pair")
        u = fp.monic(F, u_next)
        v = fp.mod(F, fp.neg(F, w), u)
    return (fp.monic(F, u), v)


def add(model: HyperellipticModel, rep1, rep2):
    """The sum of two reduced Mumford pairs: Cantor composition followed by
    reduction (Cantor, Computing in the Jacobian of a hyperelliptic curve,
    Math. Comp. 48, 1987).

    Both operands must be reduced pairs, as this module returns them; then
    IDENTITY + b = b, so an IDENTITY operand returns the other one.  Every
    other pair goes through the one composition.
    """
    if rep1 == IDENTITY:
        return rep2
    if rep2 == IDENTITY:
        return rep1
    F = model.field
    u1, v1 = rep1
    u2, v2 = rep2
    d1, e1, e2 = fp.xgcd(F, u1, u2)
    step = fp.add(F, fp.add(F, v1, v2), model.h)
    d, c1, c2 = fp.xgcd(F, d1, step)
    s1 = fp.mul(F, c1, e1)
    s2 = fp.mul(F, c1, e2)
    s3 = c2
    u_comp, rem = fp.divmod_(F, fp.mul(F, u1, u2), fp.mul(F, d, d))
    if rem:
        raise ConsistencyError(
            f"Cantor composition: d^2 does not divide u1*u2 (d = {d})")
    acc = fp.add(F, fp.mul(F, fp.mul(F, s1, u1), v2),
                 fp.mul(F, fp.mul(F, s2, u2), v1))
    acc = fp.add(F, acc, fp.mul(F, s3, fp.add(F, fp.mul(F, v1, v2), model.f)))
    v_comp, rem = fp.divmod_(F, acc, d)
    if rem:
        raise ConsistencyError(
            f"Cantor composition: d = {d} does not divide the v numerator")
    v_comp = fp.mod(F, v_comp, u_comp)
    return _reduce(model, fp.monic(F, u_comp), v_comp)


def from_place(model: HyperellipticModel, place: Place):
    """The class [P - deg(P) * infinity] of one place, reduced.

    Infinite place: zero by definition.  Inert place: the whole fiber over
    u is the divisor of the function u(x), hence principal, hence zero.
    """
    if place.kind in ("infinite", "inert"):
        return IDENTITY
    return _reduce(model, place.u, place.v)


def divisor_class(model: HyperellipticModel, parts):
    """Class data of an effective divisor given as (place, multiplicity)
    pairs: returns ((U, V), degree)."""
    acc = IDENTITY
    degree = 0
    for place, mult in parts:
        image = from_place(model, place)
        degree += place.degree * mult
        for _ in range(mult):
            acc = add(model, acc, image)
    return acc, degree


def enumerate_jacobian(model: HyperellipticModel, *,
                       capacity: int = DEFAULT_CAPACITY) -> tuple:
    """Every reduced Mumford pair, by brute force over (U, V).

    Deliberately exhaustive: this is the route that does not go through the
    L-polynomial, so its length can be compared with L(1).
    """
    F = model.field
    g = model.genus
    q = F.order
    if q ** (2 * g) > capacity:
        raise CapacityError(
            f"jacobian enumeration needs {q ** (2 * g)} candidate pairs, "
            f"above the work bound {capacity}")
    out = [IDENTITY]
    for d in range(1, g + 1):
        for uval in range(q ** d):
            u = fp.decode_monic(F, uval, d)
            for vval in range(q ** d):
                v = fp.decode(F, vval, d)
                probe = fp.add(F, fp.mul(F, v, v),
                               fp.sub(F, fp.mul(F, v, model.h), model.f))
                if not fp.mod(F, probe, u):
                    out.append((u, v))
    return tuple(sorted(out, key=lambda rep: (fp.deg(rep[0]),
                                              fp.encode(F, rep[0]),
                                              fp.encode(F, rep[1]))))


def section_count_to_h0(q: int, size: int) -> int:
    """Invert size = (q^nu - 1)/(q - 1); raises when no nu fits."""
    val, nu = 1, 1
    while val < size:
        val = val * q + 1
        nu += 1
    if val != size:
        raise StratificationError(
            f"bucket of size {size} is not (q^nu - 1)/(q - 1) for any nu")
    return nu


class StratumTable(namedtuple("StratumTable", "genus q class_count rows")):
    """b[n][nu] = number of degree-n classes with nu independent sections,
    for 0 <= n <= 2g-2 and 0 <= nu <= g."""
    genus: int
    q: int
    class_count: int
    rows: tuple[tuple[int, ...], ...]
    __slots__ = ()

    def b(self, n: int, nu: int) -> int:
        if 0 <= n < len(self.rows) and 0 <= nu < len(self.rows[n]):
            return self.rows[n][nu]
        return 0


def strata_table(model: HyperellipticModel, place_table: PlaceTable,
                 class_count: int) -> StratumTable:
    """Bucket effective divisors of each degree n <= g-1 by divisor class,
    and read the rows of degree g .. 2g-2 off them by the involution.

    One walk visits each effective divisor of degree 1 .. g-1 once, as a
    non-decreasing run of listed places: a node's class is its parent's
    plus one place's image (one Cantor addition), and the walk goes one
    level per place added, so at most g-1 deep.  Degree 0 holds only zero.
    Every bucket size must be a projective-space count (q^nu - 1)/(q - 1),
    which self-certifies the number of sections of the class.

    D -> K - D maps the degree-n classes with nu sections onto the degree
    (2g-2-n) classes with nu - n + g - 1 sections (Riemann-Roch and Serre
    duality), so for n <= g-2, b[2g-2-n][nu] = b[n][nu - (g-1-n)], and 0
    where that index is negative.  A reflected row keeps its walked row's
    total, so the duality check cannot see a wrong class_count; it must
    be L(1), read from the table's L(T).  The zero-section, duality and
    Clifford shape constraints are checked when the table becomes a
    measure, in zetatwo.counting_measure.
    """
    g = model.genus
    q = model.field.order
    if place_table.lpoly is None:
        raise ValueError(
            f"strata need L(T), from places up to degree {g}; the table "
            f"has {place_table.max_degree}")
    pic0 = class_number(place_table.lpoly)
    if class_count != pic0:
        raise StratificationError(
            f"class count {class_count} is not L(1) = {pic0}")
    top = g - 1
    places = [p for d in range(1, top + 1) for p in place_table.places(d)]
    images = [divisor_class(model, ((place, 1),))[0] for place in places]
    buckets = [{IDENTITY: 1} if n == 0 else {} for n in range(top + 1)]

    def walk(start, rep, degree):
        for idx in range(start, len(places)):
            n = degree + places[idx].degree
            if n > top:
                break  # places are listed by increasing degree
            node = add(model, rep, images[idx])
            buckets[n][node] = buckets[n].get(node, 0) + 1
            walk(idx, node, n)

    walk(0, IDENTITY, 0)
    rows = []
    for n, bucket in enumerate(buckets):
        row = [0] * (g + 1)
        for rep, size in bucket.items():
            nu = section_count_to_h0(q, size)
            if nu > g:
                raise StratificationError(
                    f"class {rep} of degree {n} shows {nu} sections, above the genus")
            row[nu] += 1
        missing = class_count - sum(row)
        if missing < 0:
            raise StratificationError(
                f"degree {n} has {sum(row)} effective classes but only "
                f"{class_count} classes exist")
        row[0] = missing
        rows.append(tuple(row))
    for n in range(g - 2, -1, -1):
        # row 2g-2-n is row n with every class g-1-n sections higher
        shift = g - 1 - n
        rows.append((0,) * shift + rows[n][:g + 1 - shift])
    return StratumTable(genus=g, q=q, class_count=class_count,
                        rows=tuple(rows))
