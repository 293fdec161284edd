"""Workload definitions: fixed anchor inputs plus a seeded curve generator.

Every input is a (spec string, base change degree) pair, the two things a
user passes to ``curvezeta analyze --spec ... --base-change ...``.  Inputs
run in the order listed here: anchors first, then the seeded curves.  The
same (workload, seed) always gives the same spec strings, because draws come
from ``random.Random`` seeded with a string, which does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    """Seeded curves of one shape: ``count`` draws over F_(p^k) of genus g."""
    p: int
    k: int
    genus: int
    count: int
    base_change: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Seed-independent inputs, with the sha256 of their report as
    # ``curvezeta analyze --format machine --no-timing`` prints it:
    # ((spec, base_change, digest), ...).
    anchors: tuple
    families: tuple  # (Family, ...)
    # Wrapped names (tracing.WRAPPED) this workload's inputs never reach.
    # Every other wrapped name must record a call in the traced run.
    bypasses: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        name="odd-prime",
        why="odd q, k = 1: place enumeration (irreducible sieve and Tonelli "
            "square roots in F_q[x]/(u)) does almost all the work",
        anchors=(("p=5; f=x^5+x+1", 1, "17cc2713942dd7497e542178b8a21168"
                  "2b6f012c31fc10978d3c12022bd2e121"),),
        families=(Family(p=3, k=1, genus=3, count=2),
                  Family(p=3, k=1, genus=2, count=4)),
        bypasses=("fqpoly.artin_schreier_solve", "curve.base_change",
                  "zetaone.lifted_lpolynomial"),
    ),
    Workload(
        name="char2-high-genus",
        why="p = 2 up to genus 5: places stay small and use Artin-Schreier, "
            "while the exact PDE rank and the squarefree test grow with genus",
        anchors=(("p=2; f=x^11+x+1; h=1", 1, "adb16feb7f3861e26ad584e26b9e6da1"
                  "0dba845619678401be48a6f4832f3a92"),),
        families=(Family(p=2, k=1, genus=4, count=3),
                  Family(p=2, k=1, genus=3, count=3)),
        bypasses=("fqpoly.QuotientRing.sqrt", "curve.base_change",
                  "zetaone.lifted_lpolynomial"),
    ),
    Workload(
        name="extension-field",
        why="k > 1 and base change: field arithmetic goes through log tables, "
            "the digit-loop add, field_embedding and base_change",
        anchors=(("p=3; f=x^3+x", 2, "0ad4f7d3a5b2b0e1607465a04db09833"
                  "cf7c56d05b1bb5781dc4faf70ba374ef"),),
        families=(Family(p=3, k=2, genus=1, count=1),
                  Family(p=2, k=3, genus=1, count=2),
                  Family(p=2, k=1, genus=2, count=1, base_change=2)),
        bypasses=(),
    ),
)}


def _poly_text(coeffs) -> str:
    """Spec text of a coefficient list (constant term first); coefficients
    are field-element encodings in 0..q-1."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return "+".join(terms) if terms else "0"


def draw_spec(rng: random.Random, fam: Family) -> str:
    """One monic f of degree 2g+1 over F_(p^k), and a nonzero h of degree
    at most g when p = 2 (h = 0 is always singular there)."""
    q = fam.p ** fam.k
    f = [rng.randrange(q) for _ in range(2 * fam.genus + 1)] + [1]
    text = f"p={fam.p}; " + (f"k={fam.k}; " if fam.k > 1 else "")
    text += f"f={_poly_text(f)}"
    if fam.p == 2:
        h = [0]
        while not any(h):
            h = [rng.randrange(q) for _ in range(fam.genus + 1)]
        text += f"; h={_poly_text(h)}"
    return text


def generate(name: str, seed: int, is_nonsingular) -> list:
    """The workload's inputs as (input id, spec, base change) triples.

    ``is_nonsingular(spec)`` rejects singular draws; it runs here, before
    any timing starts.  Draws repeating an earlier input are rejected too,
    so every seeded input is a distinct curve.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    inputs = [(spec, bc) for spec, bc, _ in wl.anchors]
    for fam in wl.families:
        made = 0
        while made < fam.count:
            spec = draw_spec(rng, fam)
            if (spec, fam.base_change) in inputs or not is_nonsingular(spec):
                continue
            inputs.append((spec, fam.base_change))
            made += 1
    return [(f"{name}#{i}", spec, bc) for i, (spec, bc) in enumerate(inputs)]
