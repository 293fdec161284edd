"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed or
deleted function would otherwise surface only in a traced benchmark run,
as a name with no recorded call.  The tracer module uses only the standard
library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def wrapped_names() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


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
