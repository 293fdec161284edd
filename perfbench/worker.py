"""One fresh benchmark worker process.

Reads a job as JSON on stdin and writes its result as one JSON line on
stdout.  Jobs:

  {"mode": "setup"}                 time ``import curvezeta.cli`` only
  {"mode": "micro"}                 run micro.py after the import
  {"mode": "pipeline", "inputs": [[id, spec, base_change], ...],
   "trace": false, "spans_path": null}

A pipeline job feeds every input, in order, through
``report.run_curve_pipeline`` and ``report.canonical_json``, the path
``curvezeta analyze --format machine`` takes, in this one process, so the
package's field and irreducible-polynomial caches fill as they do in
``curvezeta batch``.  Each result carries the canonical report without its
``timing`` section, plus that section, for run.py to check.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import curvezeta.cli from the checkout's src/ and time it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import curvezeta.cli  # noqa: F401
    setup_s = perf_counter() - t0
    import curvezeta
    if Path(curvezeta.__file__).resolve().parent != src / "curvezeta":
        raise ImportError(f"curvezeta imported from {curvezeta.__file__}, "
                          f"not from {src}")
    return curvezeta, setup_s


def _run_inputs(cz, inputs, tracer) -> tuple:
    report_mod = cz.report
    parse = cz.parsing.parse_curve_spec
    results = []
    t_start = perf_counter()
    for input_id, text, base_change in inputs:
        if tracer is not None:
            tracer.input_id = input_id
        try:
            t0 = perf_counter()
            result = report_mod.run_curve_pipeline(
                parse(text), base_change=base_change)
            # Stage timings stay out of the bytes, as with --no-timing.
            timing = result.report.pop("timing")
            canonical = report_mod.canonical_json(result.report)
            seconds = perf_counter() - t0
        except Exception:  # one bad input must not hide the others' results
            results.append({"id": input_id, "error": traceback.format_exc()})
            continue
        results.append({"id": input_id, "seconds": seconds, "timing": timing,
                        "canonical": canonical})
    return results, perf_counter() - t_start


def main() -> int:
    job = json.loads(sys.stdin.read())
    cz, setup_s = _import_package()
    out = {"setup_s": setup_s}
    if job["mode"] == "micro":
        import micro
        out["micro"] = micro.run(cz)
    elif job["mode"] == "pipeline":
        tracer = None
        if job.get("trace"):
            from tracing import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
        out["results"], out["wall_s"] = _run_inputs(cz, job["inputs"], tracer)
        if tracer is not None:
            out["layers"], out["calls"] = layer_metrics(tracer)
            if job.get("spans_path"):
                tracer.write(job["spans_path"])
    # ru_maxrss is in KiB on Linux.
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
