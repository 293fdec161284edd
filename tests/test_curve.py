"""Curve models, point counts and place enumeration against brute force."""

import random

import pytest

from curvezeta import (base_change, count_points, enumerate_places,
                       extension_field, field_embedding,
                       lpolynomial_from_counts, parse_curve_spec,
                       validate_model)
from curvezeta.errors import (CapacityError, ConsistencyError,
                              ModelShapeError, SingularCurveError)
from curvezeta import fqpoly as fp
from curvezeta.finitefield import DEFAULT_CAPACITY
from conftest import (brute_point_count, corpus_specs, field_sqrt,
                      sieved_place_counts)


def build(spec_text):
    spec = parse_curve_spec(spec_text)
    field = extension_field(spec.p, spec.k)
    return validate_model(field, spec.f, spec.h)


def test_genus_from_degree():
    assert build("p=3; f=x").genus == 0
    assert build("p=3; f=x^3+x").genus == 1
    assert build("p=3; f=x^5+1").genus == 2


@pytest.mark.parametrize("text,error", [
    ("p=3; f=x^2+1", ModelShapeError),        # even degree
    ("p=3; f=2*x^3+1", ModelShapeError),      # not monic
    ("p=3; f=x^3+x; h=x^2", ModelShapeError), # deg h above genus
    ("p=3; f=x^3", SingularCurveError),       # cusp at the origin
    ("p=5; f=x^3+5*x", SingularCurveError),   # f = x^3 mod 5
    ("p=2; f=x^3+x+1", SingularCurveError),   # h = 0 in characteristic 2
    ("p=2; f=x^5+x^4; h=x", SingularCurveError),
    ("p=2; f=x^3+x; h=2", SingularCurveError),   # h = 2 = 0 mod 2
    ("p=3; f=3*x^3+x^2", ModelShapeError),    # 3 x^3 = 0: even degree
    ("p=3; k=2; f=x^3+10*x", ModelShapeError),  # 10 is not in F_9
    ("p=3; k=2; f=x^3+x; h=-1", ModelShapeError),
])
def test_model_rejections(text, error):
    with pytest.raises(error):
        build(text)


def test_prime_field_coefficients_are_reduced_mod_p():
    assert build("p=3; f=4*x^3+x") == build("p=3; f=x^3+x")
    reduced = build("p=5; f=x^5-7*x+11; h=-x")
    assert (reduced.f, reduced.h) == ((1, 3, 0, 0, 0, 1), (0, 4))
    # over F_9 the encodings 0..8 are taken as they are
    assert build("p=3; k=2; f=x^3+8*x").f == (0, 8, 0, 1)


def test_whole_corpus_validates(corpus):
    for text in corpus:
        assert build(text).genus in (1, 2)


def test_point_counts_match_brute_force_over_prime_fields(corpus):
    for text in corpus:
        spec = parse_curve_spec(text)
        model = build(text)
        assert count_points(model, 1) == brute_point_count(spec.p, spec.f, spec.h)


def test_point_counts_genus_zero():
    model = build("p=7; f=x")
    for m in (1, 2, 3):
        assert count_points(model, m) == 7 ** m + 1


def test_point_count_over_extension_matches_brute_force():
    # y^2 = x^3 + x over F_9, counted directly in F_3[i]
    model = build("p=3; k=2; f=x^3+x")
    total = 1
    for a0 in range(3):
        for a1 in range(3):
            for b0 in range(3):
                for b1 in range(3):
                    # (b0 + b1 i)^2 = (a0 + a1 i)^3 + (a0 + a1 i), i^2 = -1
                    lhs = ((b0 * b0 - b1 * b1) % 3, (2 * b0 * b1) % 3)
                    sq = ((a0 * a0 - a1 * a1) % 3, (2 * a0 * a1) % 3)
                    cube = ((sq[0] * a0 - sq[1] * a1) % 3,
                            (sq[0] * a1 + sq[1] * a0) % 3)
                    rhs = ((cube[0] + a0) % 3, (cube[1] + a1) % 3)
                    if lhs == rhs:
                        total += 1
    assert count_points(model, 1) == total == 16


def test_worked_example_place_counts(worked_elliptic):
    # y^2 = x^3 + x over F_3: one place at infinity and three affine
    # ramification places in degree 1, six places of degree 2
    table = enumerate_places(worked_elliptic, 4)
    assert table.count(1) == 4
    assert table.count(2) == 6
    assert table.point_counts[0] == 4


def test_worked_example_degree_two_place_kinds(worked_elliptic):
    table = enumerate_places(worked_elliptic, 2)
    kinds = sorted(p.kind for p in table.places(2))
    # the fiber over x = 1 is inert: f(1) = 2 is a non-square in F_3
    assert kinds == ["affine"] * 5 + ["inert"]
    inert = [p for p in table.places(2) if p.kind == "inert"][0]
    assert inert.u == (2, 1)  # x - 1
    assert inert.v is None
    assert inert.degree == 2


def test_place_degree_sum_rule():
    # enumerate_places compares degrees above the genus with the L-polynomial
    # only, so check the tally and the table's counts against exhaustion
    # from the outside, to the depth 2g+2 the pipeline uses, for odd q,
    # even q and k = 2
    for text in ("p=5; f=x^5+x+1", "p=2; f=x^7+x+1; h=x^3+x+1",
                 "p=3; k=2; f=x^3+x"):
        model = build(text)
        depth = 2 * model.genus + 2
        table = enumerate_places(model, depth)
        for m in range(1, depth + 1):
            exhaustive = count_points(model, m)
            weighted = sum(d * table.count(d)
                           for d in range(1, m + 1) if m % d == 0)
            assert table.point_counts[m - 1] == weighted == exhaustive, (text, m)


def test_deep_degrees_are_checked_against_the_l_polynomial(monkeypatch):
    import curvezeta.curve as curvemod
    model = build("p=5; f=x^5+x+1")
    g = model.genus
    real = curvemod._fiber_class
    # the first and the last degree above the genus that is sieved
    for degree in (g + 1, 2 * g):
        flipped = []

        def flip_one(model, disc, u):
            split = real(model, disc, u)
            if len(u) - 1 == degree and not flipped:
                flipped.append(u)
                return -1 if split >= 0 else 1
            return split

        monkeypatch.setattr(curvemod, "_fiber_class", flip_one)
        with pytest.raises(ConsistencyError,
                           match=rf"at degree {degree}: .*\(from L\(T\)\)"):
            enumerate_places(model, 2 * g + 2)
        assert flipped


def test_place_counts_past_2g_are_checked(monkeypatch):
    import curvezeta.curve as curvemod
    from curvezeta import zetaone
    model = build("p=5; f=x^5+x+1")
    g = model.genus
    d = 2 * g + 2
    table = enumerate_places(model, d)
    inert = table.fibers[g + 1][1].count(-1)
    assert inert
    real = zetaone.point_counts_from_lpolynomial
    # a_(2g+1) one too many gives no whole N_(2g+1); a_(2g+2) short by
    # d (N_d - inert + 1) gives N_d = inert - 1, fewer places than the
    # inert fibers of degree g + 1 already make
    for m, shift in ((d - 1, 1), (d, -d * (table.count(d) - inert + 1))):

        def shifted(lpoly, upto):
            counts = real(lpoly, upto)
            counts[m - 1] += shift
            return counts

        monkeypatch.setattr(curvemod.zetaone, "point_counts_from_lpolynomial",
                            shifted)
        with pytest.raises(ConsistencyError,
                           match=rf"no place count at degree {m}"):
            enumerate_places(model, d)


def test_exhaustion_up_to_the_genus_only(monkeypatch):
    import curvezeta.curve as curvemod
    from curvezeta import zetaone
    model = build("p=3; f=x^7+x+1")
    g = model.genus
    real = curvemod.count_points
    asked = []

    def spy(model, m=1, **kwargs):
        asked.append(m)
        return real(model, m, **kwargs)

    monkeypatch.setattr(curvemod, "count_points", spy)
    deep = enumerate_places(model, 2 * g + 2)
    assert asked == list(range(1, g + 1))
    assert len(deep.point_counts) == 2 * g + 2

    # a table shallower than the genus cannot fix L: every degree is
    # counted by exhaustion, and no L is built
    def no_l(*args):
        raise AssertionError("L built for a table shallower than the genus")

    monkeypatch.setattr(zetaone, "lpolynomial_from_counts", no_l)
    monkeypatch.setattr(zetaone, "point_counts_from_lpolynomial", no_l)
    asked.clear()
    shallow = enumerate_places(model, g - 1)
    assert asked == list(range(1, g))
    assert shallow.point_counts == deep.point_counts[:g - 1]
    assert shallow.lpoly is None


@pytest.mark.parametrize("text", ["p=3; f=x^3+x", "p=3; f=x^7+x+1",
                                  "p=2; f=x^5+x^3+x; h=x",
                                  "p=2; k=2; f=x^3+x+1; h=1"])
def test_place_table_carries_the_l_of_its_exhausted_counts(text):
    model = build(text)
    g, q = model.genus, model.field.order
    for depth in (g, 2 * g + 3):
        table = enumerate_places(model, depth)
        assert table.lpoly == lpolynomial_from_counts(
            table.point_counts[:g], q, g)


def test_place_table_is_sorted_and_consistent():
    model = build("p=3; f=x^5+1")
    table = enumerate_places(model, 3)
    for d in range(1, 4):
        places = table.places(d)
        keys = [p.sort_key(model.field) for p in places]
        assert keys == sorted(keys)
        for p in places:
            assert p.degree == d
    assert table.max_degree == 3
    assert list(table.all_places())[0].kind == "infinite"


def test_affine_places_satisfy_curve_equation():
    import curvezeta.fqpoly as fp
    model = build("p=3; f=x^5+x")
    F = model.field
    table = enumerate_places(model, 3)
    for place in table.all_places():
        if place.kind != "affine":
            continue
        probe = fp.add(F, fp.mul(F, place.v, place.v),
                       fp.sub(F, fp.mul(F, place.v, model.h), model.f))
        assert not fp.mod(F, probe, place.u)
        assert fp.deg(place.v) < fp.deg(place.u) or place.v == ()


def test_base_change_preserves_the_curve():
    model = build("p=3; f=x^3+x")
    lifted = base_change(model, 2)
    assert lifted.field.order == 9
    assert lifted.genus == 1
    # counts over F_9 through either route must agree
    assert count_points(lifted, 1) == count_points(model, 2) == 16


def test_field_embedding_is_a_ring_homomorphism():
    src = extension_field(2, 2)
    dst = extension_field(2, 4)
    emb = field_embedding(src, dst)
    for a in range(src.order):
        for b in range(src.order):
            assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
            assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
    assert emb(0) == 0 and emb(1) == 1
    images = {emb(a) for a in range(src.order)}
    assert len(images) == src.order


def test_field_embedding_requires_compatible_degrees():
    with pytest.raises(ValueError):
        field_embedding(extension_field(2, 2), extension_field(2, 3))
    with pytest.raises(ValueError):
        field_embedding(extension_field(2), extension_field(3))


def test_char2_validation_searches_extensions():
    # h = x has its root at x = 0; y^2 + xy = x^5 + x^3 has a singular
    # point there iff f'(0) = 0 and f(0) is a square, which holds
    with pytest.raises(SingularCurveError):
        build("p=2; f=x^5+x^3; h=x")
    # same h but f'(0) = 1 keeps the model smooth
    build("p=2; f=x^5+x^3+x; h=x")


def singular_by_search(field, f, h) -> bool:
    """Characteristic 2, h != 0: look for a singular point over every root
    x of h, in each extension where such a root can live, by testing
    h'(x) sqrt(f(x)) = f'(x)."""
    import curvezeta.fqpoly as fp
    hp, fprime = fp.derivative(field, h), fp.derivative(field, f)
    for m in range(1, max(fp.deg(h), 1) + 1):
        ext = extension_field(2, field.degree * m)
        emb = field_embedding(field, ext)
        h_e, f_e, hp_e, fp_e = (fp.map_coeffs(emb, a) for a in (h, f, hp, fprime))
        for x in range(ext.order):
            if fp.evaluate(ext, h_e, x) != 0:
                continue
            y = field_sqrt(ext, fp.evaluate(ext, f_e, x))
            if ext.mul(fp.evaluate(ext, hp_e, x), y) == fp.evaluate(ext, fp_e, x):
                return True
    return False


def test_char2_gcd_test_matches_the_point_search():
    import curvezeta.fqpoly as fp
    rng = random.Random(20261018)
    singular = 0
    for k in (1, 2, 3):
        field = extension_field(2, k)
        for _ in range(400):
            g = rng.randint(1, 3)
            f = tuple(rng.randrange(field.order) for _ in range(2 * g + 1)) + (1,)
            h = tuple(rng.randrange(field.order)
                      for _ in range(rng.randint(1, g))) + (
                rng.randrange(1, field.order),)
            expected = singular_by_search(field, f, h)
            singular += expected
            try:
                validate_model(field, f, h)
            except SingularCurveError:
                assert expected, (k, f, h)
            else:
                assert not expected, (k, f, h)
    assert 200 <= singular <= 1000  # both answers are well represented


# (spec, depth): odd and even characteristic, k = 1 and k > 1, and h with
# roots in characteristic 2 (ramified fibers over them)
LISTING_CURVES = [
    ("p=3; f=x^3+x", 4),
    ("p=3; f=x^5+2*x+1", 6),
    ("p=5; f=x^5+x^2+1", 4),
    ("p=2; f=x^3+0*x+1; h=1", 6),
    ("p=2; f=x^5; h=1", 6),
    ("p=2; f=x^5+x^3+x; h=x", 5),
    ("p=3; k=2; f=x^3+x", 3),
    ("p=2; k=2; f=x^3+x; h=1", 4),
]


@pytest.mark.parametrize("text,depth", LISTING_CURVES)
def test_places_listed_on_demand_match_the_counts(text, depth):
    import curvezeta.fqpoly as fp
    model = build(text)
    F = model.field
    table = enumerate_places(model, depth)
    # only the degrees the strata read are listed up front
    strata_depth = min(depth, max(model.genus - 1, 1))
    assert sorted(table.by_degree) == list(range(1, strata_depth + 1))
    backwards = enumerate_places(model, depth)
    for d in range(depth, 0, -1):
        backwards.places(d)
    for d in range(1, depth + 1):
        places = table.places(d)
        assert places is table.places(d)
        assert places == backwards.places(d)
        assert len(places) == table.count(d)
        for place in places:
            assert place.degree == d
            if place.kind == "affine":
                probe = fp.add(F, fp.mul(F, place.v, place.v),
                               fp.sub(F, fp.mul(F, place.v, model.h), model.f))
                assert not fp.mod(F, probe, place.u)


@pytest.mark.parametrize("text", [
    "p=3; f=x^7+x+1", "p=2; f=x^9+x^3+1; h=x^2+x", "p=3; k=2; f=x^3+x"])
def test_each_fiber_is_classified_once(monkeypatch, text):
    import curvezeta.curve as curvemod
    import curvezeta.fqpoly as fp
    model = build(text)
    depth = 2 * model.genus + 2
    real = curvemod._fiber_class
    classified = []

    def spy(model, disc, u):
        classified.append(u)
        return real(model, disc, u)

    monkeypatch.setattr(curvemod, "_fiber_class", spy)
    table = enumerate_places(model, depth)
    assert len(list(table.all_places())) == sum(table.place_counts)
    assert len(classified) == sum(len(fp.monic_irreducibles(model.field, d))
                                  for d in range(1, depth + 1))


# (spec, base change, depth beyond 2g + 2): q = 3 mod 4 and q = 1 mod 4;
# an irreducible f + h^2/4, whose own fiber at degree 2g + 1 is ramified;
# x | f; h != 0; F_9, given and base-changed; genus 0; and a depth of
# 2g + 5
JACOBI_CURVES = [
    ("p=3; f=x^7+x+1", 1, 0),
    ("p=7; f=x^5+x+3", 1, 0),
    ("p=5; f=x^5+x+1", 1, 0),
    ("p=13; f=x^3+2", 1, 0),
    ("p=3; f=x^3+2*x+1", 1, 3),
    ("p=5; f=x^5+4*x+1", 1, 0),
    ("p=3; f=x^5+x^2+2*x", 1, 0),
    ("p=5; f=x^5+x; h=x+2", 1, 0),
    ("p=3; k=2; f=x^3+5*x^2+x+7", 1, 0),
    ("p=3; f=x^3+x", 2, 0),
    ("p=7; f=x", 1, 0),
]


@pytest.mark.parametrize("text,m,extra", JACOBI_CURVES)
def test_fiber_classes_match_the_jacobi_symbol_at_every_degree(text, m,
                                                               extra):
    import curvezeta.curve as curvemod
    model = base_change(build(text), m)
    F = model.field
    n = 2 * model.genus + 1
    depth = n + 1 + extra
    table = enumerate_places(model, depth)
    D = table.disc
    assert fp.deg(D) == n
    # degrees past 2g are not classed until asked for
    assert sorted(table.fibers) == list(range(1, max(n - 1, 1) + 1))
    # class them as listing would, but without listing's square roots,
    # which take many seconds over F_7 at degree 6
    for d in range(1, depth + 1):
        curvemod._class_fibers(model, D, table.fibers, d, table.capacity)
    assert sorted(table.fibers) == list(range(1, depth + 1))
    ramified = []
    for irreducibles, classes in table.fibers.values():
        assert len(irreducibles) == len(classes)
        for u, split in zip(irreducibles, classes):
            assert split == fp.quadratic_character(F, D, u), (text, u)
            if split == 0 and fp.deg(u) >= n:
                ramified.append(u)
    # from degree 2g + 1 up only D itself can ramify
    assert ramified == ([D] if fp.is_irreducible(F, D) else [])


@pytest.mark.parametrize("text,m", [
    ("p=3; f=x^7+x+1", 1), ("p=3; f=x^3+x", 2),
    ("p=2; f=x^9+x^3+1; h=x^2+x", 1)])
def test_no_fiber_past_2g_is_classed_until_listed(monkeypatch, text, m):
    import curvezeta.curve as curvemod
    model = base_change(build(text), m)
    two_g = 2 * model.genus
    real_class, real_sieve = curvemod._fiber_class, fp.monic_irreducibles
    classed, sieved = [], []

    def spy_class(model, disc, u):
        classed.append(fp.deg(u))
        return real_class(model, disc, u)

    def spy_sieve(F, degree, **kwargs):
        sieved.append(degree)
        return real_sieve(F, degree, **kwargs)

    monkeypatch.setattr(curvemod, "_fiber_class", spy_class)
    monkeypatch.setattr(fp, "monic_irreducibles", spy_sieve)
    table = enumerate_places(model, two_g + 2)
    assert max(sieved) == max(classed) == two_g
    assert sorted(table.fibers) == list(range(1, two_g + 1))
    assert len(classed) == sum(len(real_sieve(model.field, d))
                               for d in range(1, two_g + 1))
    # listing degree 2g + 2 classes its own fibers; those of half of it,
    # g + 1, were classed already
    classed.clear()
    places = table.places(two_g + 2)
    assert set(classed) == {two_g + 2}
    assert sorted(table.fibers) == list(range(1, two_g + 1)) + [two_g + 2]
    assert len(places) == table.count(two_g + 2)


def test_a_deep_listing_that_disagrees_with_the_count_is_refused(monkeypatch):
    import curvezeta.curve as curvemod
    model = build("p=5; f=x^5+x+1")
    deep = 2 * model.genus + 1
    table = enumerate_places(model, deep)
    real = curvemod._fiber_class
    flipped = []

    def split_to_inert(model, disc, u):
        split = real(model, disc, u)
        if split == 1 and not flipped:
            flipped.append(u)
            return -1
        return split

    monkeypatch.setattr(curvemod, "_fiber_class", split_to_inert)
    with pytest.raises(ConsistencyError,
                       match=rf"listed {table.count(deep) - 2} places of "
                             rf"degree {deep}, but the table counts "
                             rf"{table.count(deep)}"):
        table.places(deep)
    assert fp.deg(flipped[0]) == deep


def test_a_deep_degree_over_the_bound_is_refused_when_listed():
    # genus 2: the table sieves degrees <= 4 (3^4 = 81 candidates) and
    # reads N_5 and N_6 from L; listing degree 5 needs 3^5 = 243
    model = build("p=3; f=x^5+2*x+1")
    table = enumerate_places(model, 6, capacity=100)
    assert table.count(5) and table.count(6)
    assert table.places(4)
    for degree in (5, 6):
        with pytest.raises(CapacityError,
                           match=rf"degree-{degree} polynomials .* "
                                 rf"{3 ** degree} "):
            table.places(degree)
    assert sorted(table.by_degree) == [1, 4]


@pytest.mark.parametrize("text,m,calls", [
    ("p=3; f=x^7+x+1", 1, 196), ("p=3; f=x^3+x", 2, 45)])
def test_jacobi_symbols_only_below_the_discriminant_degree(monkeypatch,
                                                           text, m, calls):
    model = base_change(build(text), m)
    n = 2 * model.genus + 1
    real = fp.quadratic_character
    asked = []

    def spy(F, a, u):
        asked.append(u)
        return real(F, a, u)

    monkeypatch.setattr(fp, "quadratic_character", spy)
    table = enumerate_places(model, n + 1)
    assert len(asked) == calls == sum(len(table.fibers[d][0])
                                      for d in range(1, n))
    assert len(set(asked)) == len(asked)
    # a table that stops at degree 2g takes the same symbols
    asked.clear()
    enumerate_places(model, n - 1)
    assert len(asked) == calls


def reference_class(model, u):
    """The square class of the fiber over u from powers in F_q[x]/(u):
    Euler's criterion on f + h^2/4 for odd q; in characteristic 2, 0 where
    u | h, else the trace of w = f/h^2 taken as the sum of w^(2^i) over
    i < k deg u, with no Newton sums."""
    F = model.field
    ring = fp.QuotientRing(F, u)
    if F.p != 2:
        disc = fp.add(F, model.f, fp.scale(F, F.inv(4 % F.p),
                                           fp.mul(F, model.h, model.h)))
        euler = ring.pow(ring.reduce(disc), (ring.order - 1) // 2)
        return {(): 0, (1,): 1, (F.neg(1),): -1}[euler]
    hbar = ring.reduce(model.h)
    if not hbar:
        return 0
    w = ring.mul(ring.reduce(model.f), ring.inv(ring.mul(hbar, hbar)))
    trace, power = (), w
    for _ in range(F.degree * ring.d):
        trace = ring.add(trace, power)
        power = ring.mul(power, power)
    return {(): 1, (1,): -1}[trace]


@pytest.mark.parametrize("text,ramified", [
    ("p=2; f=x^5+x^3+1; h=x^2+x", (1, 1)),
    ("p=2; k=2; f=x^3+2*x+1; h=x", (0, 1)),
    ("p=2; k=3; f=x^3+5*x^2+x+3; h=x+4", (4, 1)),
    ("p=3; f=x^3+x", (0, 1)),
    ("p=3; f=x^5+2*x+1; h=x", None),
    ("p=5; f=x^3+x", (0, 1)),
    ("p=5; f=x^5+x; h=x+2", None),
    ("p=3; k=2; f=x^3+4*x", (0, 1)),
    ("p=3; k=2; f=x^3+x; h=3*x+5", None),
])
def test_fiber_class_matches_powers_in_the_residue_field(text, ramified):
    import curvezeta.curve as curvemod
    model = build(text)
    disc = curvemod._discriminant(model)
    classes = {}
    for d in (1, 2, 3):
        for u in fp.monic_irreducibles(model.field, d):
            classes[u] = curvemod._fiber_class(model, disc, u)
            assert classes[u] == reference_class(model, u), (text, u)
    assert {1, -1} <= set(classes.values())
    if ramified is not None:
        assert classes[ramified] == 0


# (spec, base change): h constant, so deg P = 2g + 1 exceeds the degree of
# most fibers; a repeated factor of h; a non-monic h over F_8; and F_4 by
# base change
CHAR2_CURVES = [
    ("p=2; f=x^11+x+1; h=1", 1),
    ("p=2; f=x^7+x; h=x^3", 1),
    ("p=2; k=3; f=x^3+4*x^2+4*x; h=7*x+2", 1),
    ("p=2; f=x^5+x^4+x^3; h=1", 2),
]


@pytest.mark.parametrize("text,m",
                         [(text, m) for text, m, _ in JACOBI_CURVES])
def test_odd_fiber_classes_match_powers_at_every_sieved_degree(text, m):
    model = base_change(build(text), m)
    two_g = 2 * model.genus
    table = enumerate_places(model, two_g + 2)
    assert sorted(table.fibers) == list(range(1, max(two_g, 1) + 1))
    for irreducibles, classes in table.fibers.values():
        for u, split in zip(irreducibles, classes):
            assert split == reference_class(model, u), (text, u)


@pytest.mark.parametrize("text,m", CHAR2_CURVES)
def test_char2_fiber_classes_match_powers_at_every_degree(text, m):
    model = base_change(build(text), m)
    table = enumerate_places(model, 2 * model.genus + 2)
    list(table.all_places())
    seen = set()
    for irreducibles, classes in table.fibers.values():
        for u, split in zip(irreducibles, classes):
            assert split == reference_class(model, u), (text, u)
        seen.update(classes)
    assert {1, -1} <= seen


@pytest.mark.parametrize("text,m", [(text, m) for text, m, _ in JACOBI_CURVES]
                         + CHAR2_CURVES)
def test_place_counts_match_a_sieve_of_every_degree(text, m):
    model = base_change(build(text), m)
    g = model.genus
    # the reference sieves every degree, so it is held to the work bound
    depths = [depth for depth in (2 * g + 2, 2 * g + 5)
              if model.field.order ** depth <= DEFAULT_CAPACITY]
    assert depths[0] == 2 * g + 2
    for depth in depths:
        table = enumerate_places(model, depth)
        assert table.place_counts == sieved_place_counts(model, depth), depth


def test_places_refuses_degrees_beyond_the_table_depth(worked_elliptic):
    table = enumerate_places(worked_elliptic, 4)
    assert table.places(4)
    for degree in (0, 5):
        with pytest.raises(ValueError):
            table.places(degree)
        with pytest.raises(ValueError):
            table.count(degree)


def test_over_bound_depth_is_refused_before_any_fiber(monkeypatch):
    import curvezeta.curve as curvemod
    model = build("p=3; f=x^9+x+1")
    classified = []

    def spy(*args):
        classified.append(args)
        return 0

    monkeypatch.setattr(curvemod, "_fiber_class", spy)
    # 3^7 = 2187 is the first candidate count above the bound: the refusal
    # names degree 7, as the sieve of that degree would
    with pytest.raises(CapacityError, match=r"degree-7 polynomials .* 2187 "):
        enumerate_places(model, 10, capacity=1000)
    assert classified == []


def test_square_class_disagreement_is_reported(monkeypatch):
    import curvezeta.fqpoly as fp
    odd = build("p=3; f=x^3+x")
    # every fiber called split: the inert fiber over x - 1 has no root
    monkeypatch.setattr(fp, "quadratic_character", lambda F, a, u: 1 if a else 0)
    with pytest.raises(ConsistencyError):
        enumerate_places(odd, 1)
    even = build("p=2; f=x^3+0*x+1; h=1")
    monkeypatch.setattr(fp, "fraction_trace", lambda F, a, b, u: 0)
    with pytest.raises(ConsistencyError):
        enumerate_places(even, 1)
