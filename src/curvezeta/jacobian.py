"""Divisor class arithmetic in Mumford coordinates, and the section strata.

A degree-zero class is stored as a reduced Mumford pair (U, V): U monic,
deg V < deg U <= g, U | V^2 + hV - f.  For odd-degree models that reduced
representative is unique, so pairs double as dictionary keys.  Every
function here takes and returns reduced pairs; add relies on that when it
returns the other operand for IDENTITY.

A degree-n class (n >= 0) is the pair (U, V) of [D - n*infinity]; the
strata bucket such pairs per degree in one walk of the effective divisors,
one Cantor addition per divisor.  Most of those additions have an
IDENTITY operand, a degree-1 U (one affine point) or coprime U's; add
handles all three without the full composition.
"""

from __future__ import annotations

from collections import namedtuple

from . import fqpoly as fp
from .curve import HyperellipticModel, Place, PlaceTable
from .errors import CapacityError, ConsistencyError, StratificationError
from .finitefield import DEFAULT_CAPACITY

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


def _add_point(model: HyperellipticModel, point, rep):
    """point + rep for a reduced pair point = (x - a, b), one affine point
    (a, b), by scalars at x = a and no xgcd.  With w = u(a) for rep = (u, v):
    w != 0 is the coprime case, v + c u with c = (b - v(a)) / w; otherwise
    rep holds (a, b) or its conjugate, and s = b + v(a) + h(a) tells which.
    s = 0: the point cancels its conjugate (or a ramified point doubles to
    a fiber), leaving u / (x - a).  s != 0: the point doubles, and v + c u
    with c = -t(a) / s, t = (v^2 + h v - f) / u, makes (x - a) u divide
    v^2 + h v - f."""
    F = model.field
    a = F.neg(point[0][0])
    b = point[1][0] if point[1] else 0
    u, v = rep
    w = fp.evaluate(F, u, a)
    va = fp.evaluate(F, v, a)
    if w:
        c = F.mul(F.sub(b, va), F.inv(w))
    else:
        s = F.add(F.add(b, va), fp.evaluate(F, model.h, a))
        if not s:
            rest = fp.divmod_(F, u, point[0])[0]
            return (rest, fp.mod(F, v, rest))
        t = fp.divmod_(F, fp.sub(F, fp.mul(F, v, fp.add(F, v, model.h)),
                                  model.f), u)[0]
        c = F.neg(F.mul(fp.evaluate(F, t, a), F.inv(s)))
    return _reduce(model, fp.mul(F, point[0], u),
                   fp.add(F, v, fp.scale(F, c, u)))


def add(model: HyperellipticModel, rep1, rep2):
    """The sum of two reduced Mumford pairs: Cantor composition followed by
    reduction (Cantor, Computing in the Jacobian of a hyperelliptic curve,
    Math. Comp. 48, 1987).

    Both operands must be reduced pairs, as this module returns them; then
    IDENTITY + b = b, so an IDENTITY operand returns the other one.  An
    operand with deg u = 1 is one affine point, added by _add_point.  For
    coprime u1, u2 the composition has d = 1: u = u1 u2, and v is the
    solution of degree < deg u of v = v1 mod u1, v = v2 mod u2, which is
    v1 + u1 ((v2 - v1) e1 mod u2) with e1 u1 = 1 mod u2 from the first
    xgcd.  The second xgcd and both exact divisions are then skipped.
    """
    if rep1 == IDENTITY:
        return rep2
    if rep2 == IDENTITY:
        return rep1
    if len(rep1[0]) == 2:
        return _add_point(model, rep1, rep2)
    if len(rep2[0]) == 2:
        return _add_point(model, rep2, rep1)
    F = model.field
    u1, v1 = rep1
    u2, v2 = rep2
    d1, e1, e2 = fp.xgcd(F, u1, u2)
    if d1 == (1,):
        lift = fp.mod(F, fp.mul(F, fp.sub(F, v2, v1), e1), u2)
        return _reduce(model, fp.mul(F, u1, u2),
                       fp.add(F, v1, fp.mul(F, u1, lift)))
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
                v = []
                t = vval
                for _ in range(d):
                    v.append(t % q)
                    t //= q
                v = fp.trim(v)
                probe = fp.add(F, fp.mul(F, v, v),
                               fp.sub(F, fp.mul(F, v, model.h), model.f))
                if not fp.mod(F, probe, u):
                    out.append((u, tuple(v)))
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
    """Bucket effective divisors of each degree n <= 2g-2 by divisor class.

    One walk visits each effective divisor of degree 1 .. 2g-2 once, as a
    non-decreasing run of listed places: a node's class is its parent's
    plus one place's image (one Cantor addition), and the walk goes one
    level per place added, so at most 2g-2 deep.  Degree 0 holds only zero.

    Every bucket size must be a projective-space count (q^nu - 1)/(q - 1),
    which self-certifies the number of sections of the class.  The
    zero-section, duality and Clifford shape constraints are checked when
    the table becomes a measure, in zetatwo.counting_measure.
    """
    g = model.genus
    q = model.field.order
    top = 2 * g - 2
    if top > 0 and place_table.max_degree < top:
        raise ValueError(
            f"strata need places up to degree {top}, table has "
            f"{place_table.max_degree}")
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
    return StratumTable(genus=g, q=q, class_count=class_count,
                        rows=tuple(rows))
