"""Every function the benchmark's tracer wraps still exists in the package,
and every one a workload should reach is called.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed or
deleted function would otherwise surface only in a traced benchmark run,
as a name with no recorded call.  The tracer module uses only the standard
library, so it is loaded here by file path.  The call check runs each
workload's seed-1 inputs through ``perfbench/worker.py`` with tracing on,
in a subprocess, as ``perfbench/run.py --trace 1`` does.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PERFBENCH, load_perfbench

ROOT = Path(__file__).resolve().parent.parent


def wrapped_names() -> tuple:
    return load_perfbench("tracing").WRAPPED


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names
    missing = []
    for name in names:
        mod_name, _, qual = name.partition(".")
        owner = importlib.import_module(f"curvezeta.{mod_name}")
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("name", sorted(load_perfbench("workloads").WORKLOADS))
def test_every_wrapped_name_is_called_by_its_workloads(monkeypatch, name):
    # run.py imports its siblings by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    job = {"mode": "pipeline", "trace": True,
           "inputs": run.generate(name, 1, run.is_nonsingular)}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [r["error"] for r in out["results"] if "error" in r] == []
    bypasses = run.WORKLOADS[name].bypasses
    assert run.hit_check(out["calls"], bypasses) == []
