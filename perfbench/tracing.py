"""Spans around curvezeta's layers, recorded from outside the package.

``Tracer.install`` rebinds the functions in ``WRAPPED`` to timing wrappers:
a module-level function is replaced in every curvezeta module that holds
it (so ``from .x import f`` copies are covered too), a method on its class.
Each call records a span ``[name, start, end, parent, input id]`` in memory;
nothing is written until the run ends.  Spans nest strictly, because the
pipeline is single-threaded and every wrapper closes its span before
returning, so a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# The functions wrapped, as "module.qualname" under curvezeta.  Hot
# primitives (FiniteField.add/mul, fqpoly.mul, fqpoly.pow_mod) are left out
# on purpose: a wrapper would cost more than they do, so micro.py times them.
WRAPPED = (
    "finitefield.FiniteField.__init__",
    "fqpoly.monic_irreducibles",
    "fqpoly.is_irreducible",
    "fqpoly.QuotientRing.sqrt",
    "fqpoly.QuotientRing.pow",
    "fqpoly.artin_schreier_solve",
    "curve.validate_model",
    "curve.base_change",
    "curve.field_embedding",
    "curve.count_points",
    "curve.enumerate_places",
    "zetaone.lpolynomial_from_counts",
    "zetaone.class_number",
    "zetaone.lifted_lpolynomial",
    "zetaone.zeta_series",
    "zetaone.effective_divisor_count",
    "jacobian.strata_table",
    "jacobian.divisor_class",
    "jacobian.add",
    "zetatwo.counting_measure",
    "zetatwo.zeta_numerator",
    "zetatwo.numerator_clauses",
    "zetatwo.classical_specialization",
    "zetatwo.stratum_count_clauses",
    "ratpoly.bivariate_exact_divide",
    "irreducibility.analyze_irreducibility",
    "irreducibility.absolute_factor_count",
    "irreducibility.is_squarefree",
    "irreducibility._rank",
    "irreducibility.reference_factor_count",
    "report.run_curve_pipeline",
    "report.canonical_json",
)

NAME, START, END, PARENT = range(4)  # then the input id


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.input_id = None
        # Facts read from arguments and results at the wrappers, by name.
        self.rank_shapes: list = []  # (rows, cols) per _rank call
        self.places_built = 0
        self.count_keys: set = set()  # distinct (model, m) counted
        self.oracle_decided = 0

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.input_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = perf_counter()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _observers(self):
        def rank(args, kwargs, out):
            rows = args[0]
            self.rank_shapes.append((len(rows), len(rows[0]) if rows else 0))

        def places(args, kwargs, out):
            self.places_built += sum(len(v) for v in out.by_degree.values())

        def count(args, kwargs, out):
            m = args[1] if len(args) > 1 else kwargs.get("m", 1)
            self.count_keys.add((args[0], m))

        def oracle(args, kwargs, out):
            self.oracle_decided += 1  # reached only when no error was raised

        return {"irreducibility._rank": rank,
                "curve.enumerate_places": places,
                "curve.count_points": count,
                "irreducibility.reference_factor_count": oracle}

    def install(self) -> None:
        """Wrap every name in WRAPPED.  A name missing from the package is
        skipped; it then records no call, which fails the hit check."""
        observers = self._observers()
        modules = [m for key, m in list(sys.modules.items())
                   if key == "curvezeta" or key.startswith("curvezeta.")]
        for name in WRAPPED:
            mod_name, _, qual = name.partition(".")
            owner = sys.modules.get(f"curvezeta.{mod_name}")
            cls_name, _, attr = qual.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def inclusive_time(spans, match) -> float:
    """Total duration of the spans whose name satisfies ``match`` and that
    have no ancestor that also matches, so recursion is counted once."""
    total = 0.0
    for rec in spans:
        if not match(rec[NAME]):
            continue
        parent = rec[PARENT]
        while parent >= 0 and not match(spans[parent][NAME]):
            parent = spans[parent][PARENT]
        if parent < 0:
            total += rec[END] - rec[START]
    return total


def layer_metrics(tracer: Tracer) -> tuple:
    """The per-layer numbers of one traced pass, keyed by metric name, and
    the call count of every wrapped name."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for rec, s in zip(spans, selfs):
        calls[rec[NAME]] += 1
        self_s[rec[NAME]] += s
    pow_in_sqrt = sum(1 for rec in spans if rec[NAME] == "fqpoly.QuotientRing.pow"
                      and rec[PARENT] >= 0
                      and spans[rec[PARENT]][NAME] == "fqpoly.QuotientRing.sqrt")

    def incl(*names):
        return inclusive_time(spans, lambda n: n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    rows = [r for r, _ in tracer.rank_shapes]
    cols = [c for _, c in tracer.rank_shapes]
    metrics = {
        "finitefield.fields_built": calls["finitefield.FiniteField.__init__"],
        "finitefield.build_s": incl("finitefield.FiniteField.__init__"),
        "fqpoly.monic_irreducibles.self_s": self_s["fqpoly.monic_irreducibles"],
        "fqpoly.monic_irreducibles.calls": calls["fqpoly.monic_irreducibles"],
        "fqpoly.is_irreducible.calls": calls["fqpoly.is_irreducible"],
        "fqpoly.is_irreducible.s": incl("fqpoly.is_irreducible"),
        "fqpoly.place_roots.self_s": (self_s["fqpoly.QuotientRing.sqrt"]
                                      + self_s["fqpoly.artin_schreier_solve"]),
        "fqpoly.sqrt.calls": calls["fqpoly.QuotientRing.sqrt"],
        "fqpoly.sqrt.pow_per_call": ratio(pow_in_sqrt,
                                          calls["fqpoly.QuotientRing.sqrt"]),
        "fqpoly.artin_schreier_solve.calls": calls["fqpoly.artin_schreier_solve"],
        "fqpoly.quotient_pow.s": incl("fqpoly.QuotientRing.pow"),
        "curve.enumerate_places.self_s": self_s["curve.enumerate_places"],
        "curve.places_built": tracer.places_built,
        "curve.count_points.s": incl("curve.count_points"),
        "curve.count_points.calls": calls["curve.count_points"],
        "curve.count_points.repeat_ratio": ratio(calls["curve.count_points"],
                                                 len(tracer.count_keys)),
        "curve.base_change.calls": calls["curve.base_change"],
        "curve.field_embedding.s": incl("curve.field_embedding"),
        "curve.validate_model.s": incl("curve.validate_model"),
        "zetaone.s": inclusive_time(spans, lambda n: n.startswith("zetaone.")),
        "jacobian.strata_table.self_s": self_s["jacobian.strata_table"],
        "jacobian.add.calls": calls["jacobian.add"],
        "jacobian.add.s": incl("jacobian.add"),
        "jacobian.divisor_class.calls": calls["jacobian.divisor_class"],
        "jacobian.add_per_divisor": ratio(calls["jacobian.add"],
                                          calls["jacobian.divisor_class"]),
        "zetatwo.zeta_numerator.s": incl("zetatwo.zeta_numerator"),
        "ratpoly.bivariate_exact_divide.s": incl("ratpoly.bivariate_exact_divide"),
        "zetatwo.counting_measure.s": incl("zetatwo.counting_measure"),
        "zetatwo.clauses.s": incl("zetatwo.numerator_clauses",
                                  "zetatwo.classical_specialization",
                                  "zetatwo.stratum_count_clauses"),
        "irreducibility.analyze.s": incl("irreducibility.analyze_irreducibility"),
        "irreducibility.absolute_factor_count.self_s":
            self_s["irreducibility.absolute_factor_count"],
        "irreducibility.rank.s": incl("irreducibility._rank"),
        "irreducibility.rank.rows": max(rows, default=0),
        "irreducibility.rank.cols": max(cols, default=0),
        "irreducibility.is_squarefree.s": incl("irreducibility.is_squarefree"),
        "irreducibility.is_squarefree.per_numerator": ratio(
            calls["irreducibility.is_squarefree"],
            calls["irreducibility.analyze_irreducibility"]),
        "irreducibility.oracle.s": incl("irreducibility.reference_factor_count"),
        "irreducibility.oracle.decided_ratio": ratio(
            tracer.oracle_decided, calls["irreducibility.reference_factor_count"]),
        "report.orchestration.self_s": self_s["report.run_curve_pipeline"],
        "report.canonical_json.s": incl("report.canonical_json"),
    }
    return metrics, {name: calls[name] for name in WRAPPED}


def hit_check(calls: dict, bypassed) -> list:
    """Wrapped names with no call (or missing from the package), other than
    those the workload bypasses."""
    return [name for name in WRAPPED
            if name not in bypassed and not calls.get(name)]
