"""Pipeline orchestration and report assembly.

A run produces a nested report dict whose machine form is canonical JSON:
keys sorted, fixed indentation, rationals rendered as strings.  Identical
inputs give byte-identical documents (timing excluded), and parsing plus
re-serializing a document reproduces it exactly.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction

from . import curve as curvemod
from . import irreducibility as irrmod
from . import jacobian, zetaone, zetatwo
from .finitefield import DEFAULT_CAPACITY, extension_field
from .parsing import CurveSpecData, MeasureTableData, format_fq_poly
from .ratpoly import format_poly

REPORT_FORMAT = "curvezeta-report/1"


class PipelineResult(namedtuple("PipelineResult", "report passed")):
    report: dict
    passed: bool
    __slots__ = ()


def _clause(c: zetatwo.ClauseResult) -> dict:
    return {"name": c.name, "passed": c.passed, "detail": c.detail}


def _assemble(head: dict, measure, numerator, structure: list,
              divisor_clauses: list, irred: irrmod.IrreducibilityReport,
              timings: dict, start: float, with_timing: bool) -> PipelineResult:
    """The report of either pipeline: the caller's input (and curve)
    sections in head, then strata, numerator, checks, verdict and timing."""
    timings["total"] = f"{time.perf_counter() - start:.6f}"
    passed = all(c.passed for c in structure + divisor_clauses
                 + list(irred.clauses))
    # Fractions, so that the canonical JSON prints every one as a string
    coeffs = [[Fraction(c) for c in numerator.coeff_of_t(i).coeffs]
              for i in range(numerator.t_degree + 1)]
    report = {
        "format": REPORT_FORMAT,
        **head,
        "strata": {
            "pic0": measure.pic0,
            "rows": [list(row) for row in measure.values],
        },
        "numerator": {"coefficients": coeffs, "text": str(numerator)},
        "checks": {
            "structure": [_clause(c) for c in structure],
            "divisor_counts": [_clause(c) for c in divisor_clauses],
            "irreducibility": {
                "applicable": irred.applicable,
                "squarefree": irred.squarefree,
                "factor_count": irred.factor_count,
                "reference_factor_count": irred.reference_count,
                "clauses": [_clause(c) for c in irred.clauses],
            },
            "passed": passed,
        },
    }
    if with_timing:
        report["timing"] = timings
    return PipelineResult(report=report, passed=passed)


def run_curve_pipeline(spec: CurveSpecData, *, base_change: int = 1,
                       series_order: int | None = None,
                       capacity: int = DEFAULT_CAPACITY,
                       with_timing: bool = True) -> PipelineResult:
    """validate -> places and counts -> L -> strata -> numerator -> checks.

    L(T) is read from the place table (places.lpoly), and the Euler product
    over its places is expanded once, to the series order."""
    timings: dict = {}
    start = time.perf_counter()

    def stage(name, begin):
        timings[name] = f"{time.perf_counter() - begin:.6f}"

    t0 = time.perf_counter()
    field = extension_field(spec.p, spec.k, capacity=capacity)
    model = curvemod.validate_model(field, spec.f, spec.h)
    base_model = model
    if base_change > 1:
        model = curvemod.base_change(model, base_change, capacity=capacity)
    g = model.genus
    q = model.field.order
    stage("model", t0)

    order = series_order if series_order is not None else 2 * g + 2

    t0 = time.perf_counter()
    depth = max(order, 2 * g - 2, 1)
    places = curvemod.enumerate_places(model, depth, capacity=capacity)
    stage("places", t0)

    # depth >= g, so the table carries the L(T) that a_1..a_g fix.
    t0 = time.perf_counter()
    lpoly = places.lpoly
    counts = zetaone.point_counts_from_lpolynomial(lpoly, 2 * g)
    pic0 = zetaone.class_number(lpoly)
    stage("point_counts", t0)

    structure: list = []
    if base_change > 1:
        # L reads a_1..a_g only.
        base_counts = [curvemod.count_points(base_model, m, capacity=capacity)
                       for m in range(1, g + 1)]
        base_lpoly = zetaone.lpolynomial_from_counts(
            base_counts, base_model.field.order, g)
        lifted = zetaone.lifted_lpolynomial(base_lpoly, base_change)
        structure.append(zetatwo.ClauseResult(
            "base change consistency", lifted.coeffs == lpoly.coeffs,
            f"lifted L {list(lifted.coeffs)} vs direct count {list(lpoly.coeffs)}"))

    t0 = time.perf_counter()
    strata = jacobian.strata_table(model, places, pic0)
    measure = (zetatwo.counting_measure(strata) if g >= 1
               else zetatwo.Measure(genus=0, pic0=Fraction(1), values=(),
                                    lefschetz=q, label="counting"))
    stage("strata", t0)

    t0 = time.perf_counter()
    numerator = zetatwo.zeta_numerator(measure)
    stage("numerator", t0)

    structure += zetatwo.numerator_clauses(numerator, g, measure.pic0)
    structure.append(zetatwo.classical_specialization(
        numerator, lpoly.coeffs, q))

    series = zetaone.zeta_series(lpoly, order)
    euler = zetaone.effective_divisor_count(places, order)
    divisor_clauses = list(zetatwo.stratum_count_clauses(measure, series, q))
    divisor_clauses += [zetatwo.ClauseResult(
        f"divisor count route agreement, degree {n}", e == s,
        f"place enumeration: {e}, series expansion: {s}")
        for n, (e, s) in enumerate(zip(euler, series))]

    t0 = time.perf_counter()
    irred = irrmod.analyze_irreducibility(numerator, g, measure.pic0)
    stage("irreducibility", t0)

    head = {
        "input": {
            "kind": "curve",
            "spec": spec.text,
            "p": spec.p,
            "k": spec.k,
            "base_change": base_change,
            "field_order": q,
            "f": format_fq_poly(model.f),
            "h": format_fq_poly(model.h),
            "genus": g,
            "series_order": order,
        },
        "curve": {
            "point_counts": counts,
            "l_polynomial": list(lpoly.coeffs),
            "class_number": pic0,
            "place_counts": [[d, places.count(d)]
                             for d in range(1, places.max_degree + 1)],
        },
    }
    return _assemble(head, measure, numerator, structure, divisor_clauses,
                     irred, timings, start, with_timing)


def run_table_pipeline(table: MeasureTableData, *,
                       with_timing: bool = True) -> PipelineResult:
    """Numerator and checks for a user-supplied measure table."""
    start = time.perf_counter()
    measure = zetatwo.measure_from_table(table)
    g = measure.genus
    numerator = zetatwo.zeta_numerator(measure)
    structure = zetatwo.numerator_clauses(numerator, g, measure.pic0)
    irred = irrmod.analyze_irreducibility(numerator, g, measure.pic0)
    head = {
        "input": {
            "kind": "measure-table",
            "genus": g,
            "pic0": measure.pic0,
        },
    }
    return _assemble(head, measure, numerator, structure, [], irred, {},
                     start, with_timing)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def render_text(report: dict, *, show_clauses: bool = False) -> str:
    lines = []
    inp = report["input"]
    if inp["kind"] == "curve":
        lines.append(f"input: {inp['spec']}")
        extra = (f", base change m = {inp['base_change']}"
                 if inp["base_change"] > 1 else "")
        lines.append(f"field order: {inp['field_order']}{extra}")
        lines.append(f"model: y^2 + ({inp['h']}) y = {inp['f']}, "
                     f"genus {inp['genus']}")
        curve = report["curve"]
        lines.append("point counts: " + ", ".join(
            f"a_{i + 1} = {a}" for i, a in enumerate(curve["point_counts"])))
        lcoeffs = [Fraction(c) for c in curve["l_polynomial"]]
        lines.append(f"L(T) = {format_poly(lcoeffs, 'T')}")
        lines.append(f"class number: {curve['class_number']}")
        lines.append("places by degree: " + ", ".join(
            f"N_{d} = {c}" for d, c in curve["place_counts"]))
    else:
        lines.append(f"input: measure table, genus {inp['genus']}, "
                     f"pic0 = {inp['pic0']}")
    strata = report["strata"]
    if strata["rows"]:
        lines.append("strata (rows n = 0..2g-2, columns nu = 0..g):")
        for n, row in enumerate(strata["rows"]):
            lines.append(f"  n={n}: " + " ".join(str(v) for v in row))
    lines.append(f"P(T, u) = {report['numerator']['text']}")
    irred = report["checks"]["irreducibility"]
    if irred["applicable"]:
        lines.append(
            f"absolute factor count: {irred['factor_count']}"
            + (f" (reference: {irred['reference_factor_count']})"
               if irred["reference_factor_count"] is not None else ""))
    clauses = all_clauses(report)
    n_pass = sum(1 for c in clauses if c["passed"])
    if show_clauses:
        for c in clauses:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: {c['detail']}")
    else:
        for c in clauses:
            if not c["passed"]:
                lines.append(f"[FAIL] {c['name']}: {c['detail']}")
    verdict = "pass" if report["checks"]["passed"] else "FAIL"
    lines.append(f"checks: {n_pass}/{len(clauses)} passed ({verdict})")
    if "timing" in report:
        lines.append("timing: " + ", ".join(
            f"{k} {v}s" for k, v in report["timing"].items()))
    return "\n".join(lines) + "\n"


def all_clauses(report: dict) -> list:
    checks = report["checks"]
    return (list(checks["structure"]) + list(checks["divisor_counts"])
            + list(checks["irreducibility"]["clauses"]))
