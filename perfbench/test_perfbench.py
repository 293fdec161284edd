"""Tests of the benchmark's own arithmetic and input generation.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import (WRAPPED, Tracer, hit_check, inclusive_time,  # noqa: E402
                     self_times)
from workloads import WORKLOADS, draw_spec, generate  # noqa: E402

from curvezeta.parsing import parse_curve_spec  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, "input"]


def test_self_time_subtracts_direct_children_only():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("a.child", 2.0, 3.0, 1),
             span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_inclusive_time_counts_recursion_once():
    spans = [span("f", 0.0, 8.0, -1),
             span("f", 1.0, 5.0, 0),
             span("g", 5.0, 6.0, 0),
             span("f", 10.0, 11.0, -1)]
    assert inclusive_time(spans, lambda n: n == "f") == 9.0
    assert inclusive_time(spans, lambda n: n == "g") == 1.0
    assert inclusive_time(spans, lambda n: n in ("f", "g")) == 9.0


def test_wrapper_records_parents_and_survives_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) * 2)
    assert outer_t(1) == 4
    with pytest.raises(ValueError):
        outer_t(-1)
    assert outer_t(2) == 6
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("outer", -1),
                     ("inner", 2), ("outer", -1), ("inner", 4)]
    assert tracer.stack == []
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_hit_check_ignores_bypassed_names():
    calls = {name: 1 for name in WRAPPED}
    calls["curve.base_change"] = 0
    assert hit_check(calls, ()) == ["curve.base_change"]
    assert hit_check(calls, ("curve.base_change",)) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_shaped(name):
    first = generate(name, 11, run.is_nonsingular)
    assert first == generate(name, 11, run.is_nonsingular)
    assert first != generate(name, 12, run.is_nonsingular)
    wl = WORKLOADS[name]
    assert len(first) == len(wl.anchors) + sum(f.count for f in wl.families)
    assert len({(s, bc) for _, s, bc in first}) == len(first)
    seeded = first[len(wl.anchors):]
    expected = [f for f in wl.families for _ in range(f.count)]
    for (_, text, bc), fam in zip(seeded, expected):
        spec = parse_curve_spec(text)
        assert (spec.p, spec.k, bc) == (fam.p, fam.k, fam.base_change)
        assert len(spec.f) == 2 * fam.genus + 2 and spec.f[-1] == 1
        assert all(0 <= c < fam.p ** fam.k for c in spec.f + spec.h)
        assert fam.p != 2 or any(spec.h)
        assert run.is_nonsingular(text)


def test_generator_output_is_pinned():
    # Guards "same seed, same inputs" across Python versions and edits.
    assert generate("odd-prime", 1, run.is_nonsingular) == [
        ("odd-prime#0", "p=5; f=x^5+x+1", 1),
        ("odd-prime#1", "p=3; f=x^7+x^6+2*x^5+x^3+2*x+2", 1),
        ("odd-prime#2", "p=3; f=x^7+x^6+2*x^3+x+2", 1),
        ("odd-prime#3", "p=3; f=x^5+2*x^4+x^3+2*x^2+x+1", 1),
        ("odd-prime#4", "p=3; f=x^5+2*x^4+x+1", 1),
        ("odd-prime#5", "p=3; f=x^5+2*x^2+x+2", 1),
        ("odd-prime#6", "p=3; f=x^5+x^4+2*x^3+x^2+2", 1)]


def test_draw_spec_round_trips_through_the_parser():
    import random
    fam = WORKLOADS["extension-field"].families[0]
    text = draw_spec(random.Random(0), fam)
    spec = parse_curve_spec(text)
    assert (spec.p, spec.k) == (3, 2) and spec.text == text


def test_brute_force_point_count():
    # README's worked curve y^2 = x^3 + x over F_3 has 4 points.
    assert run.brute_a1(3, (0, 1, 0, 1), (0,)) == 4
    # y^2 + y = x^3 over F_2: (0,0), (0,1) and the point at infinity.
    assert run.brute_a1(2, (0, 0, 0, 1), (1,)) == 3
