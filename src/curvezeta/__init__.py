"""Exact two-variable zeta functions of odd-degree hyperelliptic curves.

The pipeline: validate a plane model y^2 + h(x) y = f(x) over F_q, count
points, build the one-variable numerator L(T), enumerate places, stratify
divisor classes by their number of sections, and assemble the two-variable
numerator P(T, u) whose structural properties (functional equation, degree
bounds, special values, absolute irreducibility dichotomy) are verified
with exact rational arithmetic.
"""

from .curve import (HyperellipticModel, Place, PlaceTable, base_change,
                    count_points, enumerate_places, field_embedding,
                    validate_model)
from .errors import (CapacityError, ConsistencyError, CurveZetaError,
                     InconsistentCountsError, InvalidMeasureError,
                     ModelShapeError, NotDivisibleError,
                     OracleUnsupportedError, ParseError, SingularCurveError,
                     StratificationError)
from .finitefield import DEFAULT_CAPACITY, FiniteField, extension_field
from .irreducibility import (IrreducibilityReport, absolute_factor_count,
                             analyze_irreducibility, is_squarefree,
                             reference_factor_count, reversal)
from .jacobian import (IDENTITY, StratumTable, divisor_class,
                       enumerate_jacobian, from_place, strata_table)
from .parsing import (CurveSpecData, MeasureTableData, parse_curve_spec,
                      parse_measure_table, parse_poly_text)
from .ratpoly import BiPoly, RationalPoly
from .report import (PipelineResult, all_clauses, canonical_json,
                     render_text, run_curve_pipeline, run_table_pipeline)
from .zetaone import (LPolynomial, class_number, effective_divisor_count,
                      lifted_lpolynomial, lpolynomial_from_counts,
                      point_counts_from_lpolynomial, zeta_series)
from .zetatwo import (ClauseResult, Measure, classical_specialization,
                      counting_measure, measure_from_table,
                      numerator_clauses, scaled_numerator,
                      strata_polynomial, stratum_count_clauses,
                      validate_measure, zeta_numerator)

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CapacityError", "ClauseResult", "ConsistencyError",
    "CurveSpecData", "CurveZetaError", "DEFAULT_CAPACITY", "FiniteField",
    "HyperellipticModel", "IDENTITY", "InconsistentCountsError",
    "InvalidMeasureError", "IrreducibilityReport", "LPolynomial",
    "Measure", "MeasureTableData", "ModelShapeError", "NotDivisibleError",
    "OracleUnsupportedError", "ParseError", "Place", "PlaceTable",
    "PipelineResult", "RationalPoly", "SingularCurveError",
    "StratificationError", "StratumTable", "absolute_factor_count",
    "all_clauses", "analyze_irreducibility", "base_change",
    "canonical_json", "class_number", "classical_specialization",
    "count_points", "counting_measure", "divisor_class",
    "effective_divisor_count", "enumerate_jacobian",
    "enumerate_places", "extension_field", "field_embedding", "from_place",
    "is_squarefree", "lifted_lpolynomial", "lpolynomial_from_counts",
    "measure_from_table", "numerator_clauses", "parse_curve_spec",
    "parse_measure_table", "parse_poly_text",
    "point_counts_from_lpolynomial", "reference_factor_count",
    "render_text", "reversal", "run_curve_pipeline", "run_table_pipeline",
    "scaled_numerator", "strata_polynomial", "strata_table",
    "stratum_count_clauses", "validate_measure", "validate_model",
    "zeta_numerator", "zeta_series",
]
