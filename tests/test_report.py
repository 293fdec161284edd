"""Report assembly: pipeline wiring, canonical JSON, text rendering."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import json_dumps_report, workload_inputs
from curvezeta import (all_clauses, canonical_json, parse_curve_spec,
                       parse_measure_table, render_text, run_curve_pipeline,
                       run_table_pipeline)
from curvezeta import finitefield
from curvezeta.errors import CapacityError


def run(text, **kwargs):
    return run_curve_pipeline(parse_curve_spec(text), **kwargs)


def test_worked_elliptic_report_content():
    result = run("p=3; f=x^3+x")
    assert result.passed
    report = result.report
    assert report["format"] == "curvezeta-report/1"
    assert report["input"]["genus"] == 1
    assert report["input"]["field_order"] == 3
    assert report["curve"]["l_polynomial"] == [1, 0, 3]
    assert report["curve"]["class_number"] == 4
    assert report["curve"]["place_counts"][0] == [1, 4]
    assert report["curve"]["place_counts"][1] == [2, 6]
    assert report["strata"]["rows"] == [[3, 1]]
    assert report["numerator"]["text"] == "1 + (3 - u)*T + u*T^2"
    assert report["checks"]["passed"] is True
    assert report["checks"]["irreducibility"]["factor_count"] == 1
    assert "timing" in report


def test_all_checks_have_unique_names_and_pass():
    result = run("p=3; f=x^5+1")
    clauses = all_clauses(result.report)
    names = [c["name"] for c in clauses]
    assert len(names) == len(set(names))
    assert all(c["passed"] for c in clauses)
    assert "functional equation" in names
    assert "point-count specialization" in names
    assert "divisor count route agreement, degree 6" in names
    assert "absolutely irreducible" in names


def test_base_change_adds_consistency_clause():
    result = run("p=3; f=x^3+x", base_change=2)
    report = result.report
    assert report["input"]["base_change"] == 2
    assert report["input"]["field_order"] == 9
    assert report["curve"]["class_number"] == 16
    assert report["numerator"]["coefficients"][1] == [Fraction(15), Fraction(-1)]
    names = [c["name"] for c in all_clauses(report)]
    assert names[0] == "base change consistency"
    assert result.passed


def test_series_order_controls_divisor_checks():
    # the divisor checks run to degree 2g+2, and no further
    for spec, genus in (("p=3; f=x^3+x", 1), ("p=3; f=x^5+1", 2)):
        result = run(spec)
        names = [c["name"] for c in all_clauses(result.report)]
        order = 2 * genus + 2
        for n, present in ((order, True), (order + 1, False)):
            assert (f"effective divisor count, degree {n}" in names) is present
            assert (f"divisor count route agreement, degree {n}"
                    in names) is present
        assert result.report["input"]["series_order"] == order


def test_max_work_bounds_every_field_the_run_asks_for(monkeypatch):
    # genus 4 over F_3 needs places of degree 7, i.e. 3^7 > 1000 candidates,
    # so the run is refused; no field above the bound may be asked for first
    real = finitefield.extension_field
    orders = []

    def recording(p, degree=1, **kwargs):
        orders.append(p ** degree)
        return real(p, degree, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "curvezeta"
                and getattr(module, "extension_field", None) is real):
            monkeypatch.setattr(module, "extension_field", recording)
    with pytest.raises(CapacityError):
        run("p=3; f=x^9+x+1", capacity=1000)
    assert orders and max(orders) <= 1000


def test_genus_zero_pipeline():
    result = run("p=7; f=x")
    report = result.report
    assert report["input"]["genus"] == 0
    assert report["numerator"]["text"] == "1"
    assert report["strata"]["rows"] == []
    assert result.passed
    # the genus-zero series starts 1, 8, 57 over F_7
    degree2 = [c for c in all_clauses(report)
               if c["name"] == "effective divisor count, degree 2"]
    assert degree2 and "57" in degree2[0]["detail"]


def test_canonical_json_round_trip_and_determinism():
    first = run("p=3; f=x^3+x", with_timing=False)
    second = run("p=3; f=x^3+x", with_timing=False)
    doc1 = canonical_json(first.report)
    doc2 = canonical_json(second.report)
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == doc1
    assert "timing" not in parsed


def test_fractions_serialize_as_strings():
    table = parse_measure_table("g=1; pic0=0\n0 0 -1\n0 1 1\n")
    result = run_table_pipeline(table, with_timing=False)
    doc = json.loads(canonical_json(result.report))
    assert doc["strata"]["pic0"] == "0"
    assert doc["strata"]["rows"] == [["-1", "1"]]
    assert doc["input"]["kind"] == "measure-table"
    assert result.passed


def test_rational_table_prints_every_coefficient_as_a_string():
    table = parse_measure_table("g=1; pic0=3/2\n0 0 1/2\n0 1 1\n")
    result = run_table_pipeline(table, with_timing=False)
    assert result.passed
    doc = json.loads(canonical_json(result.report))
    assert doc["numerator"]["text"] == "1 + (1/2 - u)*T + u*T^2"
    assert doc["numerator"]["coefficients"] == [["1"], ["1/2", "-1"],
                                                ["0", "1"]]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["odd-prime", "char2-high-genus",
                                      "extension-field"])
def test_canonical_json_is_json_dumps_on_workload_reports(workload, seed):
    for _, text, base_change in workload_inputs(workload, seed):
        report = run(text, base_change=base_change).report
        assert canonical_json(report) == json_dumps_report(report), text


ATOMS = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.integers(-10 ** 30, 10 ** 30), st.floats(), st.text(),
                  st.fractions())
KEYS = [st.text(), st.integers(), st.floats(),
        st.sampled_from([True, False, None])]
VALUES = st.recursive(ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    *(st.dictionaries(key, inner, max_size=4) for key in KEYS)),
    max_leaves=20)


def _outcome(write, value):
    try:
        return write(value)
    except TypeError as exc:
        return TypeError, str(exc)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"": [], "a": {}, "b": ()})  # empty containers
@example(["\u00e9\u2028\ud800", "\x00\x1f\"\\", "\U0001f600"])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, None])
@example({1: "int", 2.5: "float", 3: ()})
@example({True: 1, None: 2})  # keys json.dumps cannot sort: a TypeError
@example([Fraction(-7, 3), Fraction(4), {"x": Fraction(1, 10 ** 20)}])
def test_canonical_json_is_json_dumps_on_nested_values(value):
    assert _outcome(canonical_json, value) == _outcome(json_dumps_report,
                                                       value)


def test_canonical_json_refuses_a_type_without_a_canonical_form():
    # only Fractions are turned into strings; anything else fails loudly
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


@pytest.mark.parametrize("value", [
    [1 + 2j], {"x": {1, 2}}, [b"bytes"], {(1, 2): 0}, {Fraction(1, 2): 0}])
def test_canonical_json_refuses_what_json_dumps_refuses(value):
    assert _outcome(json_dumps_report, value)[0] is TypeError
    assert _outcome(canonical_json, value) == _outcome(json_dumps_report,
                                                       value)


def test_table_pipeline_has_no_divisor_checks():
    table = parse_measure_table("g=1; pic0=0\n0 0 -1\n0 1 1\n")
    result = run_table_pipeline(table)
    assert result.report["checks"]["divisor_counts"] == []
    assert result.report["numerator"]["text"] == "1 + (-1 - u)*T + u*T^2"


def test_render_text_layout():
    result = run("p=3; f=x^3+x")
    text = render_text(result.report)
    assert "input: p=3; f=x^3+x" in text
    assert "L(T) = 1 + 3*T^2" in text
    assert "class number: 4" in text
    assert "N_2 = 6" in text
    assert "P(T, u) = 1 + (3 - u)*T + u*T^2" in text
    assert "absolute factor count: 1" in text
    assert "(pass)" in text
    assert "[FAIL]" not in text


def test_render_text_show_clauses():
    result = run("p=3; f=x^3+x")
    text = render_text(result.report, show_clauses=True)
    assert "[PASS] functional equation" in text
    assert text.count("[PASS]") == len(all_clauses(result.report))


def test_render_text_for_tables():
    table = parse_measure_table("g=1; pic0=0\n0 0 -1\n0 1 1\n")
    text = render_text(run_table_pipeline(table).report)
    assert "measure table, genus 1" in text
    assert "pic0 = 0" in text


def test_base_change_counts_the_base_model_up_to_the_genus(monkeypatch):
    import curvezeta.curve as curvemod
    real = curvemod.count_points
    asked = []

    def spy(model, m=1, **kwargs):
        asked.append((model.field.order, m))
        return real(model, m, **kwargs)

    monkeypatch.setattr(curvemod, "count_points", spy)
    result = run("p=2; f=x^5+x^3+x; h=x", base_change=2, with_timing=False)
    assert result.passed
    # genus 2: a_1, a_2 over F_4 for the place table, and over F_2 for
    # the base model, which is all its L-polynomial reads
    assert asked == [(4, 1), (4, 2), (2, 1), (2, 2)]
    clause = next(c for c in result.report["checks"]["structure"]
                  if c["name"] == "base change consistency")
    assert clause["passed"]


@pytest.mark.parametrize("base_change, l_builds", [(1, 1), (2, 3)])
def test_one_l_and_one_euler_product_per_report(monkeypatch, base_change,
                                               l_builds):
    # L(T) comes from the place table, and the Euler product is expanded
    # once, to degree 2g+2; with a base change the base model's L and the
    # lifted L are built once each on top
    from curvezeta import zetaone
    calls = {"lpolynomial_from_counts": 0, "effective_divisor_count": 0}

    def counted(name):
        real = getattr(zetaone, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(zetaone, name, counted(name))
    result = run("p=3; f=x^3+x", base_change=base_change, with_timing=False)
    assert result.passed
    assert len(all_clauses(result.report)) == 21 + (base_change > 1)
    assert calls == {"lpolynomial_from_counts": l_builds,
                     "effective_divisor_count": 1}
