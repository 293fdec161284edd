"""Odd-degree hyperelliptic plane models and their closed points.

A model is y^2 + h(x) y = f(x) with f monic of odd degree 2g+1 and
deg h <= g, over a finite field.  Such a model has exactly one place at
infinity, of degree 1, and its smooth projective model has genus g.

Closed points (places) of the affine part come in three kinds over the
monic irreducible u = u(x) below them:

  affine   (u, v) with v^2 + h v = f (mod u); degree deg u
  inert    y generates a quadratic extension of F_q[x]/(u); no v exists,
           the place is the whole fiber over u and has degree 2 deg u
  infinite the single place over x = infinity, degree 1
"""

from __future__ import annotations

from collections import namedtuple

from . import fqpoly as fp
from . import zetaone
from .errors import ConsistencyError, ModelShapeError, SingularCurveError
from .parsing import format_fq_poly
from .finitefield import DEFAULT_CAPACITY, FiniteField, extension_field


def field_embedding(src: FiniteField, dst: FiniteField):
    """The canonical embedding F_(p^k) -> F_(p^(k*m)) as a callable.

    Sends the power-basis generator of src to the smallest root (by element
    encoding) of src's modulus inside dst, which pins the map uniquely and
    reproducibly.
    """
    if src.p != dst.p:
        raise ValueError("embedding requires equal characteristic")
    if dst.degree % src.degree:
        raise ValueError(
            f"no embedding of degree-{src.degree} field into degree-{dst.degree} field")
    if src.degree == 1 or src == dst:
        return lambda a: a
    key = (dst.p, dst.degree, dst.modulus)
    table = src._embeddings.get(key)
    if table is None:
        # The digits of src.modulus and of src.coeff_vector(a) are prime
        # field elements, which dst encodes as the same ints 0..p-1.
        root = next((cand for cand in range(dst.order)
                     if fp.evaluate(dst, src.modulus, cand) == 0), None)
        if root is None:
            raise ConsistencyError(
                f"modulus of {src!r} has no root in {dst!r}")
        table = tuple(fp.evaluate(dst, src.coeff_vector(a), root)
                      for a in range(src.order))
        src._embeddings[key] = table
    return table.__getitem__


class HyperellipticModel(namedtuple("HyperellipticModel", "field f h genus")):
    field: FiniteField
    f: tuple[int, ...]
    h: tuple[int, ...]
    genus: int
    __slots__ = ()

    def __repr__(self):
        return (f"HyperellipticModel(genus {self.genus} over {self.field!r})")


def _field_coeffs(field: FiniteField, coeffs, name: str) -> tuple:
    """coeffs as trimmed field elements (see validate_model)."""
    if field.degree == 1:
        return fp.trim(c % field.p for c in coeffs)
    for c in coeffs:
        if not 0 <= c < field.order:
            raise ModelShapeError(
                f"coefficient {c} of {name} is not an element encoding "
                f"0..{field.order - 1} of {field!r}")
    return fp.trim(coeffs)


def validate_model(field: FiniteField, f, h=()) -> HyperellipticModel:
    """Check the odd-degree shape and that the affine part is nonsingular.

    Characteristic != 2: the substitution z = 2y + h(x) turns the model into
    z^2 = 4f + h^2, so nonsingularity is exactly squarefreeness of 4f + h^2,
    certified by a gcd with the derivative.  Characteristic 2 with h = 0 is
    always singular and is rejected outright.  Otherwise the y-partial h
    vanishes only over a root x of h, where the one point is
    (x, sqrt f(x)); the x-partial h' y + f' vanishes there exactly when
    h'(x)^2 f(x) = f'(x)^2, squaring being injective.  So the model is
    singular exactly when h and f'^2 + h'^2 f share a root, certified by
    one gcd.

    Coefficients are ints: over a prime field any int, reduced mod p; over
    F_(p^k), k > 1, an element encoding in 0..q-1, and anything else is a
    ModelShapeError.
    """
    f = _field_coeffs(field, f, "f")
    h = _field_coeffs(field, h, "h")
    d = fp.deg(f)
    if d < 1 or d % 2 == 0:
        raise ModelShapeError(f"f must have odd degree >= 1, got degree {d}")
    if f[-1] != 1:
        raise ModelShapeError("f must be monic")
    genus = (d - 1) // 2
    if fp.deg(h) > genus:
        raise ModelShapeError(
            f"deg h = {fp.deg(h)} exceeds the genus {genus}")
    p = field.p
    if p != 2:
        completed = fp.add(field, fp.scale(field, 4 % p, f), fp.mul(field, h, h))
        pair = (completed, fp.derivative(field, completed))
        named = "gcd(4f+h^2, (4f+h^2)')"
    else:
        if not h:
            raise SingularCurveError(
                "h = 0 in characteristic 2 always gives a singular model")
        hp = fp.derivative(field, h)
        fprime = fp.derivative(field, f)
        pair = (h, fp.add(field, fp.mul(field, fprime, fprime),
                          fp.mul(field, fp.mul(field, hp, hp), f)))
        named = "gcd(h, f'^2 + h'^2 f)"
    g = fp.gcd(field, *pair)
    if fp.deg(g) != 0:
        raise SingularCurveError(
            "affine singular locus over the x-roots of "
            f"{format_fq_poly(g)}: {named} is not constant")
    return HyperellipticModel(field=field, f=f, h=h, genus=genus)


def base_change(model: HyperellipticModel, m: int, *,
                capacity: int = DEFAULT_CAPACITY) -> HyperellipticModel:
    """The same curve viewed over F_(q^m)."""
    if m < 1:
        raise ValueError("base change degree must be >= 1")
    if m == 1:
        return model
    src = model.field
    ext = extension_field(src.p, src.degree * m, capacity=capacity)
    emb = field_embedding(src, ext)
    return validate_model(ext, fp.map_coeffs(emb, model.f),
                          fp.map_coeffs(emb, model.h))


def count_points(model: HyperellipticModel, m: int = 1, *,
                 capacity: int = DEFAULT_CAPACITY) -> int:
    """|X(F_(q^m))| on the smooth model: affine solutions plus the one
    infinite point, by exhaustion over x on the base change to F_(q^m).
    """
    ext, f_e, h_e, _ = base_change(model, m, capacity=capacity)
    total = 1
    if ext.p != 2:
        counts = bytearray(ext.order)
        for y in range(ext.order):
            counts[ext.mul(y, y)] += 1
        quarter = ext.inv(4 % ext.p)
        for x in range(ext.order):
            hv = fp.evaluate(ext, h_e, x)
            val = ext.add(fp.evaluate(ext, f_e, x),
                          ext.mul(quarter, ext.mul(hv, hv)))
            total += counts[val]
    else:
        for x in range(ext.order):
            hv = fp.evaluate(ext, h_e, x)
            fv = fp.evaluate(ext, f_e, x)
            if hv == 0:
                total += 1
            else:
                w = ext.mul(fv, ext.pow(ext.inv(hv), 2))
                if ext.absolute_trace(w) == 0:
                    total += 2
    return total


class Place(namedtuple("Place", "kind u v degree")):
    """One closed point.  u and v are coefficient tuples over the base field;
    v is None for inert and infinite places."""
    kind: str  # "affine" | "inert" | "infinite"
    u: tuple[int, ...] | None
    v: tuple[int, ...] | None
    degree: int
    __slots__ = ()

    def sort_key(self, field):
        rank = {"infinite": 0, "affine": 1, "inert": 2}[self.kind]
        return (self.degree, rank,
                fp.encode(field, self.u) if self.u is not None else -1,
                fp.encode(field, self.v) if self.v is not None else -1)


class PlaceTable(namedtuple("PlaceTable", "model max_degree place_counts "
                            "point_counts lpoly capacity fibers disc by_degree")):
    """Place counts N_1 .. N_max_degree, point counts a_1 .. a_max_degree
    and the L(T) of the curve, the one source of its one-variable data.

    a_m is counted by exhaustion for m <= max(g, 1); a_1 .. a_g fix L
    (lpoly, None for a table shallower than the genus), and deeper a_m and
    N_d past degree max(2g, 1) are read from it (see enumerate_places).

    The places of a degree are listed the first time that degree is asked
    for, and kept: listing needs a square root (Tonelli) or an
    Artin-Schreier solution per split fiber, while the strata read places
    only up to degree g-1 and the Euler product reads only the counts.
    Listing reads the fiber classes recorded in fibers and decides none
    again.  A degree past max(2g, 1), which enumerate_places did not
    sieve, is sieved and classed when it is listed, under the work bound
    the table was built with, and its listing must hold count(d) places.

    Two tables are equal when all nine fields are, the caches included, and
    a table has no hash, since its caches are dicts.
    """
    model: HyperellipticModel
    max_degree: int
    place_counts: tuple[int, ...]  # N_1 .. N_max_degree
    point_counts: tuple[int, ...]  # a_1 .. a_max_degree
    lpoly: zetaone.LPolynomial | None  # L(T); None if max_degree < g
    # the work bound of every sieve, deferred ones included
    capacity: int
    # fibers[d] = (the monic irreducibles u of degree d, as
    # fp.monic_irreducibles returns them, and the _fiber_class of each u),
    # for the degrees classed so far (_class_fibers)
    fibers: dict
    # the polynomial the classes are decided with: D = f + h^2/4 for odd
    # q, h^2 in characteristic 2 (see _discriminant)
    disc: tuple
    # degree -> tuple[Place, ...], for the degrees listed so far
    by_degree: dict
    __slots__ = ()

    def __new__(cls, model, max_degree, place_counts, point_counts, lpoly,
                capacity, fibers, disc, by_degree=None):
        return super().__new__(
            cls, model, max_degree, place_counts, point_counts, lpoly,
            capacity, fibers, disc, {} if by_degree is None else by_degree)

    def __repr__(self):
        # the first five fields; the caches after them are left out
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields[:5], self))
        return f"PlaceTable({shown})"

    def _check_degree(self, degree: int) -> None:
        if not 1 <= degree <= self.max_degree:
            raise ValueError(
                f"degree {degree} asked of a place table of depth "
                f"{self.max_degree}")

    def places(self, degree: int) -> tuple:
        self._check_degree(degree)
        if degree not in self.by_degree:
            self.by_degree[degree] = _list_places(self, degree)
        return self.by_degree[degree]

    def all_places(self):
        for d in range(1, self.max_degree + 1):
            yield from self.places(d)

    def count(self, degree: int) -> int:
        self._check_degree(degree)
        return self.place_counts[degree - 1]


def _discriminant(model: HyperellipticModel):
    """The polynomial the fiber classes are decided with: D = f + h^2/4,
    monic of degree 2g + 1, for an odd-q model, and h^2 in characteristic
    2."""
    F = model.field
    square = fp.mul(F, model.h, model.h)
    if F.p == 2:
        return square
    return fp.add(F, model.f, fp.scale(F, F.inv(4 % F.p), square))


def _fiber_class(model: HyperellipticModel, disc, u) -> int:
    """1, 0 or -1: the fiber over the monic irreducible u splits into two
    affine places, ramifies into one, or stays inert.

    One square-class test decides it.  For odd q it is the Jacobi symbol
    (D / u) of D = f + h^2/4 (disc), from fp.quadratic_character.  In
    characteristic 2 it is the absolute trace of f/h^2 mod u (disc = h^2),
    from fp.fraction_trace, with one inverse of h^2 mod u; ramified where
    u | h.  Both run on int lists with the field's lookup tables, and
    neither builds a QuotientRing.
    """
    F = model.field
    if F.p != 2:
        return fp.quadratic_character(F, disc, u)
    trace = fp.fraction_trace(F, model.f, disc, u)
    if trace is None:
        return 0
    return 1 - 2 * trace


def _class_fibers(model: HyperellipticModel, disc, fibers: dict, d: int,
                  capacity: int) -> tuple:
    """fibers[d]: the monic irreducibles of degree d and the class of each
    one's fiber, sieved and classed the first time degree d is asked for."""
    if d not in fibers:
        irreducibles = fp.monic_irreducibles(model.field, d, capacity=capacity)
        fibers[d] = (irreducibles,
                     tuple(_fiber_class(model, disc, u) for u in irreducibles))
    return fibers[d]


def _affine_places(model: HyperellipticModel, disc, u, split: int) -> list:
    """The affine places over u, whose fiber class split is 1 or 0.  The
    root extraction must agree with the square-class test."""
    F = model.field
    ring = fp.QuotientRing(F, u)
    hbar = fp.mod(F, model.h, u)
    if F.p != 2:
        base_v = fp.scale(F, F.neg(F.inv(2 % F.p)), hbar)
        if not split:
            vs = (base_v,)
        else:
            root = ring.sqrt(fp.mod(F, disc, u))
            if root is None:
                raise ConsistencyError(
                    f"f + h^2/4 has quadratic character 1 mod {u} but no "
                    "square root")
            vs = (ring.add(base_v, root), ring.sub(base_v, root))
    else:
        fbar = fp.mod(F, model.f, u)
        if not split:
            vs = (ring.pow(fbar, ring.order // 2),)
        else:
            w = ring.mul(fbar, ring.pow(ring.inv(hbar), 2))
            sol = fp.artin_schreier_solve(ring, w)
            if sol is None:
                raise ConsistencyError(
                    f"f/h^2 has trace 0 mod {u} but z^2 + z = {w} has no "
                    "solution")
            v1 = ring.mul(hbar, sol)
            vs = (v1, ring.add(v1, hbar))
    return [Place("affine", u, v, fp.deg(u)) for v in vs]


def _list_places(table: PlaceTable, degree: int) -> tuple:
    """Every place of the given degree, in sort_key order: affine places
    over the split and ramified fibers of that degree, inert places over
    the inert fibers of half of it, and the infinite place in degree 1.
    The fiber classes and the discriminant are read from the table's
    record; a degree not classed yet is classed here (_class_fibers)."""
    model = table.model
    disc = table.disc

    def fibers(d):
        return zip(*_class_fibers(model, disc, table.fibers, d,
                                  table.capacity))

    found = [Place("infinite", None, None, 1)] if degree == 1 else []
    for u, split in fibers(degree):
        if split >= 0:
            found += _affine_places(model, disc, u, split)
    if degree % 2 == 0:
        found += [Place("inert", u, None, degree)
                  for u, split in fibers(degree // 2) if split < 0]
    if len(found) != table.count(degree):
        raise ConsistencyError(
            f"listed {len(found)} places of degree {degree}, but the table "
            f"counts {table.count(degree)}")
    return tuple(sorted(found, key=lambda pl: pl.sort_key(model.field)))


def enumerate_places(model: HyperellipticModel, max_degree: int, *,
                     capacity: int = DEFAULT_CAPACITY) -> PlaceTable:
    """The place table to depth max_degree: N_d for every d <= max_degree,
    the places of degree <= max(g-1, 1), and those of any deeper degree
    listed when first asked for.

    Only the degrees d <= s = min(max_degree, max(2g, 1)) are sieved here.
    Their N_d come from the irreducible sieve plus one square-class test
    per fiber (_fiber_class), the only one: the table records each class,
    and listing reads it from there.  No square root is taken here.  For
    odd q the test is the Jacobi symbol of D = f + h^2/4 mod u.  In
    characteristic 2 it is the absolute trace of f/h^2 mod u, summed over
    the roots of u by their power sums, with one inverse of h^2 mod u per
    fiber.

    Then sum over d | m of d * N_d is compared with a_m = |X(F_(q^m))| for
    every m <= s.  For m <= max(g, 1) the a_m are counted by exhaustion
    over x (count_points); they fix L(T), which the table keeps as lpoly,
    and every deeper a_m is read from that L.  So each sieved degree is
    compared with a value the tally did not produce: shallow degrees with
    exhaustion, the degrees in (g, 2g] with the L that exhaustion
    determines.  By the Euler product L(T) = prod_u (1 - c(u) T^deg u)^-1
    over the monic irreducibles u, c(u) the class of the fiber over u
    (Rosen, Number Theory in Function Fields, ch. 4), those comparisons
    are the coefficients of L; as deg L = 2g, a degree past 2g tells
    nothing new.  So for d in (s, max_degree], N_d = (a_d - sum over
    e | d, e < d of e N_e) / d, which must be an integer no smaller than
    the inert places of degree d already tallied.  Such a degree is
    sieved only when it is listed (PlaceTable.places), and its listing
    must hold N_d places.  A depth whose sieve to degree s exceeds the
    work bound is refused before any sieving; a deeper degree is refused
    when it is listed.
    """
    if max_degree < 1:
        raise ValueError("place table depth must be >= 1")
    F = model.field
    g = model.genus
    sieved = min(max_degree, max(2 * g, 1))
    for d in range(1, sieved + 1):
        fp.check_candidates(F, d, capacity)
    disc = _discriminant(model)
    fibers = {}
    tally = [0] * (max_degree + 1)
    tally[1] = 1  # the infinite place
    for d in range(1, sieved + 1):
        classes = _class_fibers(model, disc, fibers, d, capacity)[1]
        tally[d] += 2 * classes.count(1) + classes.count(0)
        if 2 * d <= max_degree:
            tally[2 * d] += classes.count(-1)
    exhausted = min(max_degree, max(g, 1))
    counts = [count_points(model, m, capacity=capacity)
              for m in range(1, exhausted + 1)]
    lpoly = None
    if max_degree >= g:
        lpoly = zetaone.lpolynomial_from_counts(counts, F.order, g)
        counts += zetaone.point_counts_from_lpolynomial(
            lpoly, max_degree)[exhausted:]
    for m in range(1, max_degree + 1):
        lower = sum(e * tally[e] for e in range(1, m) if m % e == 0)
        if m > sieved:
            rest = counts[m - 1] - lower
            if rest % m or rest // m < tally[m]:
                raise ConsistencyError(
                    f"L(T) gives no place count at degree {m}: "
                    f"(a_{m} - sum e*N_e) / {m} = {rest}/{m}, with "
                    f"{tally[m]} inert places already tallied")
            tally[m] = rest // m
        elif lower + m * tally[m] != counts[m - 1]:
            source = "exhaustion" if m <= exhausted else "L(T)"
            raise ConsistencyError(
                f"place table disagrees with point counts at degree {m}: "
                f"sum d*N_d = {lower + m * tally[m]} but "
                f"|X(F_q^{m})| = {counts[m - 1]} (from {source})")
    table = PlaceTable(model=model, max_degree=max_degree,
                       place_counts=tuple(tally[1:]),
                       point_counts=tuple(counts), lpoly=lpoly,
                       capacity=capacity, fibers=fibers, disc=disc)
    # List the degrees the strata read, and degree 1 at every genus, so
    # that each table runs the root extraction against the square-class
    # test at least once.
    for d in range(1, min(max_degree, max(g - 1, 1)) + 1):
        table.places(d)
    return table
