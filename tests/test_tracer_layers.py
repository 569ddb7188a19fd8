"""The per-layer trace of ``benchmarks/tracer.py`` names functions that exist.

``tracer.LAYERS`` wraps keydyn functions by (module, function) name; a name
that no longer resolves reports its layer absent instead of timing it.
``tracer.COUNTERS`` reads counts off the results of functions named the same
way; a name that no longer resolves leaves its counts at zero. Only the two
names already known to be stale may fail to resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
KNOWN_STALE = {"features.merge", "matrix.build_matrix_prepared"}


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("keydyn_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [pair for functions in tracer.LAYERS.values() for pair in functions] + list(tracer.COUNTERS)
    unresolved = {
        f"{module}.{name}" for module, name in named if not hasattr(importlib.import_module(f"keydyn.{module}"), name)
    }
    assert unresolved <= KNOWN_STALE
