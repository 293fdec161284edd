"""The record types: immutable values built by keyword or position and read
by field name.

Every result the library hands back (a model, a place, a place table, an
L-polynomial, a measure, a clause, a stratum table, an irreducibility
report, a pipeline result, and the two parsed inputs) follows the same
contract, checked here type by type.  PlaceTable is the one exception to
value equality: it carries its caches, so it is compared and hashed by no
contract, and its repr leaves the caches out.
"""

from fractions import Fraction

import pytest

from curvezeta import (ClauseResult, CurveSpecData, HyperellipticModel,
                       IrreducibilityReport, LPolynomial, Measure,
                       MeasureTableData, PipelineResult, Place, PlaceTable,
                       StratumTable, enumerate_places, extension_field,
                       validate_model)

CACHES = ("capacity", "fibers", "disc", "by_degree")


def _model():
    return validate_model(extension_field(3), f=(0, 1, 0, 1))


def _place_table_fields():
    table = enumerate_places(_model(), 4)
    return {name: getattr(table, name)
            for name in ("model", "max_degree", "place_counts",
                         "point_counts", "lpoly") + CACHES}


# type -> a function returning fresh field values, in field order
RECORDS = {
    HyperellipticModel: lambda: {
        "field": extension_field(3), "f": (0, 1, 0, 1), "h": (), "genus": 1},
    Place: lambda: {"kind": "affine", "u": (1, 1), "v": (2,), "degree": 1},
    PlaceTable: _place_table_fields,
    LPolynomial: lambda: {"coeffs": (1, 0, 3), "q": 3, "genus": 1},
    Measure: lambda: {
        "genus": 1, "pic0": Fraction(4), "values": ((Fraction(3), Fraction(1)),),
        "lefschetz": 3, "label": "counting"},
    ClauseResult: lambda: {"name": "unit constant term", "passed": True,
                           "detail": "P_0(u) = 1"},
    StratumTable: lambda: {"genus": 1, "q": 3, "class_count": 4,
                           "rows": ((3, 1),)},
    IrreducibilityReport: lambda: {
        "applicable": True, "squarefree": True, "factor_count": 1,
        "reference_count": 1,
        "clauses": (ClauseResult("absolutely irreducible", True, "ok"),)},
    PipelineResult: lambda: {"report": {"checks": {"passed": True}},
                             "passed": True},
    CurveSpecData: lambda: {"p": 3, "k": 1, "f": (0, 1, 0, 1), "h": (0,),
                            "text": "p=3; f=x^3+x"},
    MeasureTableData: lambda: {"genus": 1, "pic0": Fraction(4),
                               "entries": {(0, 0): Fraction(3),
                                           (0, 1): Fraction(1)}},
}
TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


@TYPES
def test_keyword_and_positional_construction_read_by_name(cls):
    values = RECORDS[cls]()
    record = cls(**values)
    for name, value in values.items():
        assert getattr(record, name) is value
    positional = cls(*values.values())
    for name, value in values.items():
        assert getattr(positional, name) is value


@TYPES
def test_fields_cannot_be_assigned(cls):
    values = RECORDS[cls]()
    record = cls(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1


@TYPES
def test_equal_values_compare_and_hash_equal(cls):
    if cls is PlaceTable:
        pytest.skip("PlaceTable carries caches and has no value equality")
    first, second = cls(**RECORDS[cls]()), cls(**RECORDS[cls]())
    assert first == second
    assert not first != second
    if any(isinstance(v, dict) for v in RECORDS[cls]().values()):
        # a dict field makes the record unhashable, as it makes a tuple
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@TYPES
def test_unequal_values_compare_unequal(cls):
    if cls is PlaceTable:
        pytest.skip("PlaceTable carries caches and has no value equality")
    values = RECORDS[cls]()
    if cls is LPolynomial:  # it checks its coefficients
        changed = dict(values, coeffs=(1, 1, 3))
    else:
        name = next(n for n in values if not isinstance(values[n], dict))
        changed = dict(values, **{name: "changed"})
    assert cls(**values) != cls(**changed)
    assert not cls(**values) == cls(**changed)


@TYPES
def test_repr_starts_with_the_class_name(cls):
    assert repr(cls(**RECORDS[cls]())).startswith(cls.__name__ + "(")


def test_place_table_repr_leaves_out_its_caches():
    text = repr(PlaceTable(**_place_table_fields()))
    for name in CACHES:
        assert name not in text
    assert "place_counts=" in text and "lpoly=" in text


def test_place_table_builds_a_fresh_cache_per_table():
    values = _place_table_fields()
    del values["by_degree"]
    first, second = PlaceTable(**values), PlaceTable(**values)
    assert first.by_degree == {} and second.by_degree == {}
    assert first.by_degree is not second.by_degree
    first.places(1)
    assert 1 in first.by_degree and second.by_degree == {}


def test_measure_defaults():
    measure = Measure(genus=0, pic0=Fraction(1), values=())
    assert measure.lefschetz is None
    assert measure.label == "measure"
