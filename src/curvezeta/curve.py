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

from dataclasses import dataclass

from . import fqpoly as fp
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
        root = None
        for cand in range(dst.order):
            acc = 0
            for c in reversed(src.modulus):
                acc = dst.add(dst.mul(acc, cand), c)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise ConsistencyError(
                f"modulus of {src!r} has no root in {dst!r}")
        powers = [1]
        for _ in range(src.degree - 1):
            powers.append(dst.mul(powers[-1], root))
        table = []
        for a in range(src.order):
            digits = src.coeff_vector(a)
            img = 0
            for d, r in zip(digits, powers):
                img = dst.add(img, dst.mul(d, r))
            table.append(img)
        table = tuple(table)
        src._embeddings[key] = table
    return table.__getitem__


@dataclass(frozen=True)
class HyperellipticModel:
    field: FiniteField
    f: tuple[int, ...]
    h: tuple[int, ...]
    genus: int

    def __repr__(self):
        return (f"HyperellipticModel(genus {self.genus} over {self.field!r})")


def validate_model(field: FiniteField, f, h=(), *,
                   capacity: int = DEFAULT_CAPACITY) -> HyperellipticModel:
    """Check the odd-degree shape and that the affine part is nonsingular.

    Characteristic != 2: the substitution z = 2y + h(x) turns the model into
    z^2 = 4f + h^2, so nonsingularity is exactly squarefreeness of 4f + h^2,
    certified by a gcd with the derivative.  Characteristic 2 with h = 0 is
    always singular and is rejected outright; otherwise any singular point
    sits over a root of h, so the search only needs the extensions where a
    root of h can live (degree <= deg h <= g).
    """
    f = fp.trim(f)
    h = fp.trim(h)
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
        four = 4 % p
        if four == 0:
            raise ModelShapeError("characteristic 2 must use the p == 2 path")
        completed = fp.add(field, fp.scale(field, four, f), fp.mul(field, h, h))
        g = fp.gcd(field, completed, fp.derivative(field, completed))
        if fp.deg(g) != 0:
            raise SingularCurveError(
                "affine singular locus over the x-roots of "
                f"{format_fq_poly(g)}: gcd(4f+h^2, (4f+h^2)') is not constant")
    else:
        if not h:
            raise SingularCurveError(
                "h = 0 in characteristic 2 always gives a singular model")
        hp = fp.derivative(field, h)
        fprime = fp.derivative(field, f)
        for m in range(1, max(fp.deg(h), 1) + 1):
            ext = extension_field(p, field.degree * m, capacity=capacity)
            emb = field_embedding(field, ext)
            h_e = fp.map_coeffs(emb, h)
            f_e = fp.map_coeffs(emb, f)
            hp_e = fp.map_coeffs(emb, hp)
            fp_e = fp.map_coeffs(emb, fprime)
            for x in range(ext.order):
                if fp.evaluate(ext, h_e, x) != 0:
                    continue
                y = ext.sqrt(fp.evaluate(ext, f_e, x))
                if ext.mul(fp.evaluate(ext, hp_e, x), y) == fp.evaluate(ext, fp_e, x):
                    raise SingularCurveError(
                        f"singular point at x={x}, y={y} over {ext!r}")
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
                          fp.map_coeffs(emb, model.h), capacity=capacity)


def count_points(model: HyperellipticModel, m: int = 1, *,
                 capacity: int = DEFAULT_CAPACITY) -> int:
    """|X(F_(q^m))| on the smooth model: affine solutions plus the one
    infinite point, by exhaustion over x.
    """
    src = model.field
    if m == 1:
        ext, emb = src, (lambda a: a)
    else:
        ext = extension_field(src.p, src.degree * m, capacity=capacity)
        emb = field_embedding(src, ext)
    f_e = fp.map_coeffs(emb, model.f)
    h_e = fp.map_coeffs(emb, model.h)
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


@dataclass(frozen=True)
class Place:
    """One closed point.  u and v are coefficient tuples over the base field;
    v is None for inert and infinite places."""
    kind: str  # "affine" | "inert" | "infinite"
    u: tuple[int, ...] | None
    v: tuple[int, ...] | None
    degree: int

    def sort_key(self, field):
        rank = {"infinite": 0, "affine": 1, "inert": 2}[self.kind]
        return (self.degree, rank,
                fp.encode(field, self.u) if self.u is not None else -1,
                fp.encode(field, self.v) if self.v is not None else -1)


@dataclass(frozen=True)
class PlaceTable:
    model: HyperellipticModel
    max_degree: int
    by_degree: dict  # degree -> tuple[Place, ...]
    point_counts: tuple[int, ...]  # a_1 .. a_max_degree

    def places(self, degree: int) -> tuple:
        return self.by_degree.get(degree, ())

    def all_places(self):
        for d in sorted(self.by_degree):
            yield from self.by_degree[d]

    def count(self, degree: int) -> int:
        return len(self.by_degree.get(degree, ()))


def enumerate_places(model: HyperellipticModel, max_degree: int, *,
                     capacity: int = DEFAULT_CAPACITY) -> PlaceTable:
    """Every place of degree <= max_degree, grouped by degree.

    The table is checked against independent point counts before it is
    returned: sum over d | m of d * N_d must equal |X(F_(q^m))| for every
    m <= max_degree.
    """
    if max_degree < 1:
        raise ValueError("place table depth must be >= 1")
    F = model.field
    found: dict[int, list[Place]] = {d: [] for d in range(1, max_degree + 1)}
    found[1].append(Place("infinite", None, None, 1))
    p = F.p
    if p != 2:
        quarter = F.inv(4 % p)
        minus_half = F.neg(F.inv(2 % p))
    for d in range(1, max_degree + 1):
        for u in fp.monic_irreducibles(F, d, capacity=capacity):
            ring = fp.QuotientRing(F, u)
            fbar = fp.mod(F, model.f, u)
            hbar = fp.mod(F, model.h, u)
            if p != 2:
                delta = ring.add(fbar, fp.scale(F, quarter, ring.mul(hbar, hbar)))
                base_v = fp.scale(F, minus_half, hbar)
                if not delta:
                    found[d].append(Place("affine", u, base_v, d))
                    continue
                root = ring.sqrt(delta)
                if root is None:
                    if 2 * d <= max_degree:
                        found[2 * d].append(Place("inert", u, None, 2 * d))
                    continue
                for v in (ring.add(base_v, root), ring.sub(base_v, root)):
                    found[d].append(Place("affine", u, v, d))
            else:
                if not hbar:
                    v = ring.pow(fbar, ring.order // 2)
                    found[d].append(Place("affine", u, v, d))
                    continue
                w = ring.mul(fbar, ring.pow(ring.inv(hbar), 2))
                sol = fp.artin_schreier_solve(ring, w)
                if sol is None:
                    if 2 * d <= max_degree:
                        found[2 * d].append(Place("inert", u, None, 2 * d))
                    continue
                v1 = ring.mul(hbar, sol)
                for v in (v1, ring.add(v1, hbar)):
                    found[d].append(Place("affine", u, v, d))
    by_degree = {d: tuple(sorted(places, key=lambda pl: pl.sort_key(F)))
                 for d, places in found.items() if places}
    counts = tuple(count_points(model, m, capacity=capacity)
                   for m in range(1, max_degree + 1))
    for m in range(1, max_degree + 1):
        weighted = sum(d * len(by_degree.get(d, ()))
                       for d in range(1, m + 1) if m % d == 0)
        if weighted != counts[m - 1]:
            raise ConsistencyError(
                f"place table disagrees with point counts at degree {m}: "
                f"sum d*N_d = {weighted} but |X(F_q^{m})| = {counts[m - 1]}")
    return PlaceTable(model=model, max_degree=max_degree,
                      by_degree=by_degree, point_counts=counts)
