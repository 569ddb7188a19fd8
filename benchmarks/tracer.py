"""Traced in-process run of one keydyn command, timed layer by layer from outside.

    python3 benchmarks/tracer.py SPANS.json -- <keydyn arguments>

Imports ``keydyn.cli`` (timed as ``cli.import_s``), then replaces, at run
time, every binding of each layer's public functions in every loaded keydyn
module with a wrapper that records a span (name, start, end, parent) and the
counts the layer's result carries. ``keydyn.cli.main`` is the root span.
Spans stay in memory and are written to SPANS.json when the command ends. A
function that no longer exists under its name is listed as missing and its
layer reported absent; the run goes on without it.

``layer_metrics`` turns a spans file into the per-layer metrics: a layer's
time is the self time of its spans (span minus its child spans), so the layer
times plus ``cli.self_s`` (the root's self time) add up to the root span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# layer -> the public functions whose spans it owns, as (module, function)
LAYERS = {
    "synth.generate": [("synth", "generate_corpus")],
    "ingest.serialize": [("ingest", "serialize_corpus")],
    "ingest.parse": [("ingest", "read_corpus"), ("ingest", "parse_log")],
    "ingest.pair": [("ingest", "pair_events")],
    "features.extract": [
        ("features", "session_features"),
        ("features", "extract_features"),
        ("features", "extract_unigraphs"),
        ("features", "extract_digraphs"),
        ("features", "extract_wordholds"),
    ],
    "features.merge": [("features", "merge")],
    "features.profile_json": [("features", "profile_to_json")],
    "verifiers.prepare": [("verifiers", "prepare_profile")],
    "verifiers.sim": [("verifiers", "similarity_from_prepared")],
    "verifiers.abs": [("verifiers", "absolute_from_prepared")],
    "verifiers.itad": [("verifiers", "itad_from_prepared")],
    "matrix.build": [("matrix", "build_matrix_prepared"), ("matrix", "build_score_matrix")],
    "matrix.fuse": [("matrix", "fuse")],
    "matrix.write": [("matrix", "matrix_to_csv"), ("matrix", "matrix_to_json")],
    "evaluation.drive": [("evaluation", "run_benchmark"), ("evaluation", "build_scenario_data")],
    "evaluation.rank": [("evaluation", "k_rank_accuracy")],
    "evaluation.report": [("evaluation", "report_to_json"), ("evaluation", "report_to_csv")],
}


def _count_parse(result, counts: dict) -> None:
    counts["ingest.rows"] = counts.get("ingest.rows", 0) + getattr(result, "rows_total", 0)
    counts["ingest.sessions"] = counts.get("ingest.sessions", 0) + len(getattr(result, "sessions", ()))


def _count_pair(result, counts: dict) -> None:
    counts["ingest.keystrokes"] = counts.get("ingest.keystrokes", 0) + len(getattr(result, "pairs", ()))
    counts["ingest.dropped"] = counts.get("ingest.dropped", 0) + getattr(result, "dropped_total", 0)


def _count_features(result, counts: dict) -> None:
    counts["features.values"] = counts.get("features.values", 0) + sum(len(v) for v in result.values())


COUNTS = ("ingest.rows", "ingest.sessions", "ingest.keystrokes", "ingest.dropped", "features.values")

# counts read off a function's result at its boundary, keyed by (module, function)
COUNTERS = {
    ("ingest", "parse_log"): _count_parse,
    ("ingest", "pair_events"): _count_pair,
    ("features", "session_features"): _count_features,
}

# layer -> name of its call-count metric
CALL_COUNTS = {
    "ingest.pair": "ingest.pair_calls",
    "verifiers.prepare": "verifiers.prepare_calls",
    "verifiers.sim": "verifiers.pair_scores",
    "verifiers.abs": "verifiers.pair_scores",
    "verifiers.itad": "verifiers.pair_scores",
    "matrix.build": "matrix.build_calls",
    "evaluation.rank": "evaluation.rank_calls",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(result, self.counts)
                except (AttributeError, TypeError):  # result no longer carries the count
                    self.counts[name + ".uncounted"] = 1
            return result

        return traced

    def install(self, layers: dict = LAYERS) -> list[str]:
        """Wrap every module binding of each layer function; return the missing ones."""
        modules = [m for name, m in list(sys.modules.items()) if name == "keydyn" or name.startswith("keydyn.")]
        missing = []
        for layer, functions in layers.items():
            for module_name, fn_name in functions:
                try:
                    fn = getattr(importlib.import_module(f"keydyn.{module_name}"), fn_name)
                except (ImportError, AttributeError):
                    missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.span(layer, fn, COUNTERS.get((module_name, fn_name)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        return missing


def layer_metrics(doc: dict, layers: dict = LAYERS) -> tuple[dict[str, float], list[str]]:
    """Per-layer self times, call counts and counts from one spans document.

    Returns the metrics and the layers that recorded no span (absent).
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics: dict[str, float] = {f"{layer}_s": 0.0 for layer in layers}
    metrics.update({name: 0 for name in COUNTS + tuple(CALL_COUNTS.values())})
    seen = set()
    for (name, start, end, _), children in zip(spans, child_time):
        key = "cli.self" if name == "cli.main" else name
        metrics[f"{key}_s"] = metrics.get(f"{key}_s", 0.0) + (end - start - children)
        seen.add(name)
        if name in CALL_COUNTS:
            metrics[CALL_COUNTS[name]] += 1
    metrics.update(doc["counts"])
    metrics["cli.import_s"] = doc["import_s"]
    absent = sorted(layer for layer in layers if layer not in seen)
    return metrics, absent


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    keydyn_args = argv[argv.index("--") + 1 :]
    start = time.perf_counter()
    import keydyn.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = tracer.install()
    root = tracer.span("cli.main", keydyn.cli.main)
    try:
        rc = root(keydyn_args)
    finally:
        spans_path.write_text(
            json.dumps({"import_s": import_s, "missing": missing, "counts": tracer.counts, "spans": tracer.spans}),
            encoding="utf-8",
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
