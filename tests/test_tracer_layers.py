"""The per-layer trace of ``benchmarks/tracer.py`` names functions that exist and counts what they return.

``tracer.LAYERS`` wraps keydyn functions by (module, function) name; a name
that no longer resolves reports its layer absent instead of timing it.
``tracer.COUNTERS`` reads counts off the results of functions named the same
way; a name that no longer resolves leaves its counts at zero, and a result
that no longer carries its count is reported ``<layer>.uncounted``. Only the
two names already known to be stale may fail to resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from keydyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmarks" / "tracer.py"
KNOWN_STALE = {"features.merge", "matrix.build_matrix_prepared"}


def _tracer():
    """``benchmarks/tracer.py`` loaded as a module; loading it wraps nothing."""
    spec = importlib.util.spec_from_file_location("keydyn_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve():
    tracer = _tracer()
    named = [pair for functions in tracer.LAYERS.values() for pair in functions] + list(tracer.COUNTERS)
    unresolved = {
        f"{module}.{name}" for module, name in named if not hasattr(importlib.import_module(f"keydyn.{module}"), name)
    }
    assert unresolved <= KNOWN_STALE


def test_tracer_counts_what_extract_reads_pairs_and_extracts(tmp_path):
    corpus, spans = tmp_path / "in", tmp_path / "spans.json"
    assert main(["--seed", "1", "synth", "--out-dir", str(corpus), "--users", "2"]) == 0
    # a child process, so the tracer's wrappers never replace this process's keydyn functions
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, str(TRACER), str(spans), "--", "extract", str(corpus), "--out", str(tmp_path / "out")]
    subprocess.run(command, env=env, check=True, capture_output=True)
    metrics, _ = _tracer().layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
    counts = {name: metrics[name] for name in ("ingest.rows", "ingest.keystrokes", "features.values")}
    assert min(counts.values()) > 0, counts
    assert [name for name in metrics if name.endswith(".uncounted")] == []
