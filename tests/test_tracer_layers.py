"""The per-layer trace of ``benchmarks/tracer.py`` names functions that exist.

``tracer.LAYERS`` wraps keydyn functions by (module, function) name; a name
that no longer resolves reports its layer absent instead of timing it. Only
the two names already known to be stale may fail to resolve.
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
    unresolved = {
        f"{module}.{name}"
        for functions in tracer.LAYERS.values()
        for module, name in functions
        if not hasattr(importlib.import_module(f"keydyn.{module}"), name)
    }
    assert unresolved <= KNOWN_STALE
