"""Pinned report bytes: the sha256 of every corpus curve's machine report.

Each line of data/report_digests.txt is ``<sha256> <base change> <spec>``,
the digest of ``canonical_json(run_curve_pipeline(spec,
with_timing=False).report)``.  A change that alters any report byte fails
here.  After a deliberate change of the report format, rewrite the file with

    PYTHONPATH=src:tests python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from conftest import corpus_specs
from curvezeta import canonical_json, parse_curve_spec, run_curve_pipeline

DIGESTS = Path(__file__).parent / "data" / "report_digests.txt"


def pinned_inputs() -> list:
    """(spec, base change) pairs: the corpus, the worked base change, and
    four curves of genus 3-6 whose numerators have large coefficients."""
    return ([(text, 1) for text in corpus_specs()] + [("p=3; f=x^3+x", 2)]
            + [(text, 1) for text in ("p=3; f=x^7+x+1",
                                      "p=2; f=x^9+x^3+1; h=x^2+x",
                                      "p=2; f=x^11+x+1; h=1",
                                      "p=2; f=x^13+x+1; h=1")])


def report_digest(text: str, base_change: int) -> str:
    result = run_curve_pipeline(parse_curve_spec(text), base_change=base_change,
                                with_timing=False)
    return hashlib.sha256(canonical_json(result.report).encode()).hexdigest()


def read_digests() -> dict:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, base_change, text = line.split(" ", 2)
        out[(text, int(base_change))] = digest
    return out


def test_reports_match_pinned_digests():
    pinned = read_digests()
    inputs = pinned_inputs()
    assert sorted(pinned) == sorted(inputs)
    mismatched = [(text, bc) for text, bc in inputs
                  if report_digest(text, bc) != pinned[(text, bc)]]
    assert mismatched == []


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{report_digest(text, bc)} {bc} {text}\n"
                               for text, bc in pinned_inputs()),
                       encoding="utf-8")
