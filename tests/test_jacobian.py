"""Divisor class arithmetic and the section strata."""

import random
import sys

import pytest

from curvezeta import (IDENTITY, Place, base_change, class_number,
                       count_points, counting_measure, divisor_class,
                       effective_divisor_count, enumerate_jacobian,
                       enumerate_places, extension_field, from_place,
                       lpolynomial_from_counts, parse_curve_spec,
                       strata_table, validate_model)
from curvezeta import fqpoly as fp
from curvezeta import jacobian
from curvezeta.errors import (CapacityError, ConsistencyError,
                              InvalidMeasureError, StratificationError)
from curvezeta.jacobian import StratumTable, add, negate, section_count_to_h0

from conftest import cantor_add, effective_divisors

GROUP_LAW_CURVES = [
    "p=3; f=x^3+x",
    "p=5; f=x^3+x+1",
    "p=3; f=x^5+1",
    "p=2; f=x^3+x+1; h=1",
    "p=2; f=x^5; h=1",
    "p=2; f=x^5+x^3+x; h=x",
    "p=2; k=2; f=x^5+x+1; h=x^2+x+1",
    "p=3; k=2; f=x^3+2*x+1",
]

# one small curve over each of F_2, F_3, F_4 and F_9, for the comparison
# of add with the full Cantor composition on every pair of classes
CANTOR_CURVES = [
    "p=2; f=x^7+x^5+x^3+x; h=x^3+x^2+1",
    "p=3; f=x^5+2*x+1",
    "p=2; k=2; f=x^5+x+1; h=x^2+x+1",
    "p=3; k=2; f=x^3+x",
]


def build(text):
    spec = parse_curve_spec(text)
    return validate_model(extension_field(spec.p, spec.k), spec.f, spec.h)


def scalar(model, rep, n: int):
    """n * rep by double-and-add."""
    if n < 0:
        return scalar(model, negate(model, rep), -n)
    acc = IDENTITY
    base = rep
    while n:
        if n & 1:
            acc = add(model, acc, base)
        base = add(model, base, base)
        n >>= 1
    return acc


def group_order(model):
    counts = [count_points(model, m) for m in range(1, model.genus + 1)]
    return class_number(lpolynomial_from_counts(
        counts, model.field.order, model.genus))


@pytest.mark.parametrize("text", GROUP_LAW_CURVES)
def test_enumeration_size_is_the_class_number(text):
    model = build(text)
    reps = enumerate_jacobian(model)
    assert len(reps) == group_order(model)
    assert len(set(reps)) == len(reps)
    assert IDENTITY in reps


@pytest.mark.parametrize("text", GROUP_LAW_CURVES)
def test_group_laws(text):
    model = build(text)
    reps = enumerate_jacobian(model)
    rng = random.Random(7)
    sample = [rng.choice(reps) for _ in range(8)]
    for a in sample:
        assert add(model, a, IDENTITY) == a
        assert add(model, a, negate(model, a)) == IDENTITY
        for b in sample:
            ab = add(model, a, b)
            assert ab in reps
            assert ab == add(model, b, a)
            for c in sample[:4]:
                assert add(model, ab, c) == add(model, a, add(model, b, c))


@pytest.mark.parametrize("text", GROUP_LAW_CURVES)
def test_scalar_multiples(text):
    model = build(text)
    reps = enumerate_jacobian(model)
    order = group_order(model)
    rng = random.Random(11)
    for rep in [rng.choice(reps) for _ in range(4)]:
        acc = IDENTITY
        for n in range(5):
            assert scalar(model, rep, n) == acc
            acc = add(model, acc, rep)
        assert scalar(model, rep, order) == IDENTITY
        assert scalar(model, rep, -1) == negate(model, rep)
        assert scalar(model, rep, -3) == negate(model, scalar(model, rep, 3))


@pytest.mark.parametrize("text", CANTOR_CURVES)
def test_add_matches_the_full_cantor_composition(text):
    """add returns the other operand for IDENTITY and composes every other
    pair; every pair of classes, so a + a, a + (-a) and IDENTITY on either
    side among them, must give the reference composition's reduced pair.
    The pairs must include coprime and non-coprime u's, and a one-point
    operand (deg u = 1) against a coprime u, its conjugate point, and the
    same point."""
    model = build(text)
    F = model.field
    reps = enumerate_jacobian(model)
    kinds, point_cases = set(), set()
    for a in reps:
        assert negate(model, a) in reps
        for b in reps:
            assert add(model, a, b) == cantor_add(model, a, b)
            if IDENTITY not in (a, b):
                kinds.add(fp.gcd(F, a[0], b[0]) == (1,))
            if fp.deg(a[0]) == 1 and b != IDENTITY:
                at_a = fp.mod(F, b[1], a[0])  # b's y-value over x = a
                if fp.gcd(F, a[0], b[0]) == (1,):
                    point_cases.add("coprime")
                elif at_a == negate(model, a)[1]:
                    point_cases.add("conjugate")  # a ramified point too
                else:
                    assert at_a == a[1]
                    point_cases.add("same")
    assert kinds == {True, False}
    assert point_cases == {"coprime", "same", "conjugate"}


def test_enumeration_respects_capacity():
    model = build("p=5; f=x^5+x+1")
    with pytest.raises(CapacityError):
        enumerate_jacobian(model, capacity=100)


def test_from_place_kinds(worked_elliptic):
    table = enumerate_places(worked_elliptic, 2)
    for place in table.all_places():
        rep = from_place(worked_elliptic, place)
        if place.kind in ("infinite", "inert"):
            # the fiber divisor is principal, so the class is zero
            assert rep == IDENTITY
        else:
            assert rep in enumerate_jacobian(worked_elliptic)


def test_conjugate_affine_places_sum_to_zero(worked_elliptic):
    # the two places over a split x - a add up to div(x - a)
    table = enumerate_places(worked_elliptic, 1)
    by_u = {}
    for place in table.places(1):
        if place.kind == "affine":
            by_u.setdefault(place.u, []).append(place)
    assert by_u  # the worked curve has affine degree-1 places
    for u, places in by_u.items():
        total = IDENTITY
        for place in places:
            total = add(worked_elliptic, total,
                        from_place(worked_elliptic, place))
        if len(places) == 2:
            assert total == IDENTITY
        else:
            # ramified: the single place is 2-torsion
            assert len(places) == 1
            rep = from_place(worked_elliptic, places[0])
            assert add(worked_elliptic, rep, rep) == IDENTITY


def test_divisor_class_accumulates_degree(worked_elliptic):
    table = enumerate_places(worked_elliptic, 2)
    affine = [p for p in table.places(1) if p.kind == "affine"]
    rep, degree = divisor_class(worked_elliptic, [(affine[0], 2), (affine[1], 1)])
    assert degree == 3
    expected = add(worked_elliptic,
                   scalar(worked_elliptic, from_place(worked_elliptic, affine[0]), 2),
                   from_place(worked_elliptic, affine[1]))
    assert rep == expected


def test_effective_divisors_enumeration_matches_counting():
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 4)
    for n in range(5):
        divisors = list(effective_divisors(table, n))
        assert len(divisors) == effective_divisor_count(table, n)[n]
        for parts in divisors:
            assert sum(place.degree * mult for place, mult in parts) == n
            assert all(mult >= 1 for _, mult in parts)
        # no divisor listed twice
        keys = [tuple((p.kind, p.u, p.v, mult) for p, mult in parts)
                for parts in divisors]
        assert len(set(keys)) == len(keys)


def test_section_count_inversion():
    for q in (2, 3, 5):
        value = 1
        for nu in range(1, 6):
            assert section_count_to_h0(q, value) == nu
            value = value * q + 1
    with pytest.raises(StratificationError):
        section_count_to_h0(3, 2)
    with pytest.raises(StratificationError):
        section_count_to_h0(3, 5)


def test_worked_example_strata(worked_elliptic):
    table = enumerate_places(worked_elliptic, 4)
    strata = strata_table(worked_elliptic, table, 4)
    assert strata.rows == ((3, 1),)
    assert strata.b(0, 1) == 1
    assert strata.b(0, 0) == 3
    assert strata.b(5, 1) == 0  # out of range reads as zero


def test_genus_two_strata_hand_derived():
    # y^2 = x^5 + 1 over F_3: 10 classes; one effective class of degree 0,
    # four of degree 1, and in degree 2 the canonical class (2 sections)
    # plus nine 1-section classes
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 4)
    strata = strata_table(model, table, 10)
    assert strata.rows == ((9, 1, 0), (6, 4, 0), (0, 9, 1))


def test_strata_reject_understated_class_count():
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 4)
    with pytest.raises(StratificationError):
        strata_table(model, table, 5)


def test_strata_reject_overstated_class_count():
    # L(1) = 10: the walked rows have room for an 11th class, so only the
    # table's own L(T) refuses the count
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 4)
    with pytest.raises(StratificationError, match=r"11 is not L\(1\) = 10"):
        strata_table(model, table, 11)


def test_strata_shape_guards():
    # a computed table meets the shape constraints in counting_measure
    base = dict(genus=2, q=3, class_count=10)
    good = ((9, 1, 0), (6, 4, 0), (0, 9, 1))
    # zero-section row must show the trivial class exactly once
    with pytest.raises(InvalidMeasureError):
        counting_measure(StratumTable(rows=((8, 2, 0),) + good[1:], **base))
    with pytest.raises(InvalidMeasureError):
        counting_measure(StratumTable(rows=((8, 1, 1),) + good[1:], **base))
    # duality couples rows 0 and 2
    with pytest.raises(InvalidMeasureError):
        counting_measure(StratumTable(rows=good[:2] + ((1, 8, 1),), **base))
    # Clifford forbids two sections in degree 1
    with pytest.raises(InvalidMeasureError):
        counting_measure(StratumTable(rows=(good[0], (4, 4, 2), good[2]), **base))
    counting_measure(StratumTable(rows=good, **base))  # sanity


def test_from_place_rejects_a_non_mumford_pair(worked_elliptic):
    # x^2 + 1 does not divide v^2 - f for v = 1, so reduction cannot go on
    bogus = Place("affine", (1, 0, 1), (1,), 2)
    with pytest.raises(ConsistencyError):
        from_place(worked_elliptic, bogus)


def dual_class_key(model, rep, n):
    """The degree-(2g-2-n) key of the Serre-dual class."""
    return negate(model, rep), 2 * model.genus - 2 - n


def class_section_count(model, place_table, rep, n):
    """h^0 of one degree-n class, by direct bucket size (0 when the class
    has no effective representative)."""
    size = sum(1 for divisor in effective_divisors(place_table, n)
               if divisor_class(model, divisor)[0] == rep)
    if size == 0:
        return 0
    return section_count_to_h0(model.field.order, size)


def test_dual_class_and_section_counts():
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 4)
    # the canonical class of the odd model is 2*infinity, i.e. IDENTITY
    # in degree 2g - 2 = 2, with h^0 = g = 2
    assert class_section_count(model, table, IDENTITY, 0) == 1
    assert class_section_count(model, table, IDENTITY, 2) == 2
    assert dual_class_key(model, IDENTITY, 0) == (IDENTITY, 2)
    affine = [p for p in table.places(1) if p.kind == "affine"][0]
    rep = from_place(model, affine)
    assert class_section_count(model, table, rep, 1) == 1
    # a degree-1 class with no effective representative
    others = [r for r in enumerate_jacobian(model)
              if r != IDENTITY and class_section_count(model, table, r, 1) == 0]
    assert others  # 10 classes, only 4 effective degree-1 divisors


def test_effective_divisors_refuse_degrees_beyond_the_table_depth():
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 2)
    assert len(list(effective_divisors(table, 2))) == effective_divisor_count(table, 2)[2]
    with pytest.raises(ValueError):
        list(effective_divisors(table, 3))
    with pytest.raises(ValueError):
        strata_table(model, enumerate_places(model, 1), 10)


def test_effective_divisors_recurse_per_place_of_the_support():
    # over F_2003 the table has more places of degree 1 than Python's
    # recursion limit; the recursion must go no deeper than the degree
    model = validate_model(extension_field(2003), (0, 1, 0, 1))
    table = enumerate_places(model, 1)
    assert table.count(1) > sys.getrecursionlimit()
    divisors = list(effective_divisors(table, 1))
    assert len(divisors) == table.count(1)
    assert [div[0][0] for div in divisors] == list(table.places(1))


# Genus 3-5 curves, one over F_4 and one base-changed to F_4: the report
# digests pin only genus 1-2, so these pin the strata above genus 2.
DEEP_STRATA_CURVES = [
    ("p=3; f=x^7+x+1", 1),
    ("p=3; f=x^9+x+1", 1),
    ("p=2; f=x^11+x+1; h=1", 1),
    ("p=2; f=x^9+x+1; h=x+1", 1),
    ("p=2; k=2; f=x^7+x+1; h=1", 1),
    ("p=2; f=x^5+x+1; h=x+1", 2),
]


def _recursion_depth() -> int:
    """The depth the recursion limit counts here (C calls included), found
    by recursing until the limit is hit."""
    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n
    return sys.getrecursionlimit() - probe(0)


@pytest.mark.parametrize("text,extension", DEEP_STRATA_CURVES)
def test_strata_walk_matches_divisor_by_divisor_buckets(text, extension,
                                                        monkeypatch):
    model = build(text)
    if extension > 1:
        model = base_change(model, extension)
    g, q = model.genus, model.field.order
    top = 2 * g - 2
    table = enumerate_places(model, top)
    pic0 = class_number(lpolynomial_from_counts(
        table.point_counts[:g], q, g))
    # the reference: list every divisor and fold its class from zero
    expected = []
    for n in range(top + 1):
        buckets: dict = {}
        for divisor in effective_divisors(table, n):
            rep = divisor_class(model, divisor)[0]
            buckets[rep] = buckets.get(rep, 0) + 1
        row = [0] * (g + 1)
        for size in buckets.values():
            row[section_count_to_h0(q, size)] += 1
        row[0] = pic0 - sum(row)
        expected.append(tuple(row))

    calls = []

    def counted_add(*args):
        calls.append(None)
        return add(*args)

    monkeypatch.setattr(jacobian, "add", counted_add)
    strata = strata_table(model, table, pic0)
    # the walked rows 0..g-1 and the rows g..2g-2 read off them by D -> K - D
    assert strata.rows == tuple(expected)
    # one addition per effective divisor of degree 1..g-1, and one per
    # place listed to degree g-1 for its image; nothing deeper is walked
    divisors = sum(effective_divisor_count(table, g - 1)[1:])
    listed = sum(table.count(d) for d in range(1, g))
    assert len(calls) == divisors + listed


def test_strata_walk_recurses_per_place_added():
    # genus 3 over F_7: 50 places of degree <= g-1 = 2, so a walk that
    # recursed per listed place, not per place added, would pass the limit
    model = build("p=7; f=x^7+x+1")
    g = model.genus
    table = enumerate_places(model, g)
    # g-1 levels plus the few frames of one Cantor addition must do
    headroom = g - 1 + 10
    assert sum(table.count(d) for d in range(1, g)) > headroom
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + headroom)
    try:
        strata_table(model, table, class_number(table.lpoly))
    finally:
        sys.setrecursionlimit(limit)
