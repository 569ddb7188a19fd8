"""Self-test of the benchmark's checks and tracer.

    python3 benchmarks/selftest.py

Runs the three workload commands on a small corpus (8 users), shows that
every check passes on the real outputs and fails on deliberately corrupted
copies of them (a flipped accuracy, an altered matrix cell, a dropped
profile value, ...), and that the tracer reports a function it cannot find
as a missing span instead of failing. Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer  # noqa: E402
from run import SEPARATION, SRC, WORK, fresh, keydyn, must, run_child  # noqa: E402

USERS = 8
SEED = 7


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def flip_accuracy(doc: dict) -> None:
    row = next(r for r in doc["results"] if r["scenario"] == "T" and r["scorer"] == "itad" and r["k"] == 1)
    row["accuracy"] = (round(row["accuracy"] * USERS) - 1) % USERS / USERS


def off_grid_accuracy(doc: dict) -> None:
    doc["results"][-1]["accuracy"] = 0.3 / USERS


def drop_row(doc: dict) -> None:
    doc["results"].pop()


def decrease_in_k(doc: dict) -> None:
    row = next(r for r in doc["results"] if r["scenario"] == "F-I" and r["scorer"] == "sim" and r["k"] == 5)
    row["accuracy"] = 0.0


def cell(value) -> callable:
    def change(doc: dict) -> None:
        doc["values"][1][2] = value(doc["values"][1][2])

    return change


def drop_value(doc: dict) -> None:
    values = max(doc["features"].values(), key=len)
    values.pop()


def main() -> int:
    work = fresh(WORK / "selftest")
    corpus_dir = work / "corpus"
    synth = ["--seed", str(SEED), "synth", "--out-dir", str(corpus_dir), "--users", str(USERS)]
    synth += ["--separation", SEPARATION]
    must(run_child(keydyn(synth), work / "synth.log", SEED), "synth")
    corpus = corpus_dir / "corpus.csv"
    commands = {
        "evaluate": ["evaluate", str(corpus), "--out", str(work / "evaluate"), "--similarity-mode", "corrected"],
        "score": ["score", str(corpus), "--scenario", "cross:F:I", "--out", str(work / "score")]
        + ["--similarity-mode", "corrected"],
        "extract": ["extract", str(corpus), "--out", str(work / "extract")],
    }
    stdout = {}
    for name, args in commands.items():
        stdout[name] = must(run_child(keydyn(args), work / f"{name}.log", SEED), name).stdout

    # (check, case, corruption applied to a copy of the output, text the failure must contain)
    cases = [
        ("evaluate", "clean", None, None),
        ("evaluate", "flipped accuracy", ("report.json", flip_accuracy), "T/itad/k=1"),
        ("evaluate", "accuracy off the 1/n grid", ("report.json", off_grid_accuracy), "not a multiple"),
        ("evaluate", "dropped row", ("report.json", drop_row), "rows, expected"),
        ("evaluate", "accuracy decreasing in k", ("report.json", decrease_in_k), "decreases in k"),
        ("score", "clean", None, None),
        ("score", "altered base cell", ("F-I_sim.json", cell(lambda v: v + 1e-9)), "not the fusion"),
        ("score", "altered fused cell", ("F-I_fmean.json", cell(lambda v: v + 1e-9)), "not the fusion"),
        ("score", "cell outside [0, 1]", ("F-I_abs.json", cell(lambda v: 1.5)), "finite score"),
        ("score", "non-finite cell", ("F-I_itad.json", cell(lambda v: math.nan)), "finite score"),
        ("score", "fmin above fmax", ("F-I_fmin.json", cell(lambda v: 1.0)), "fusion order"),
        ("extract", "clean", None, None),
        ("extract", "dropped profile value", ("u1_F_s1.json", drop_value), "values, reference"),
        ("extract", "missing profile file", ("u2_I_s3.json", None), "profile files"),
    ]
    wrong = 0
    for check, case, corruption, expect in cases:
        out = work / "case"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(work / check, out)
        if corruption is not None:
            name, change = corruption
            if change is None:
                (out / name).unlink()
            else:
                edit_json(out / name, change)
        fails, _ = reference.CHECKS[check](corpus, out, stdout[check], SEED)
        ok = not fails if expect is None else any(expect in f for f in fails)
        wrong += not ok
        detail = "no failures" if not fails else fails[0]
        print(f"{'ok  ' if ok else 'FAIL'} {check:<9} {case:<28} -> {detail}")

    # a function that was renamed away: its span and counts are missing, the run still completes
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("keydyn.cli")

    layers = {**tracer.LAYERS, "ingest.pair": [("ingest", "pair_events_renamed")]}
    trace = tracer.Tracer()
    missing = trace.install(layers)
    rc = trace.span("cli.main", cli.main)(["extract", str(corpus), "--out", str(work / "traced")])
    doc = {"import_s": 0.0, "missing": missing, "counts": trace.counts, "spans": trace.spans}
    metrics, absent = tracer.layer_metrics(doc, layers)
    ok = (
        rc == 0
        and missing == ["ingest.pair_events_renamed"]
        and "ingest.pair" in absent
        and metrics["ingest.keystrokes"] == metrics["ingest.pair_calls"] == 0
        and "ingest.parse" not in absent
        and metrics["ingest.rows"] > 0
    )
    wrong += not ok
    print(f"{'ok  ' if ok else 'FAIL'} tracer    renamed function -> missing {missing}, absent {len(absent)} layers")
    print(f"{len(cases) + 1 - wrong} of {len(cases) + 1} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
