"""Benchmark of the keydyn CLI: three workloads, end to end or layer by layer.

    python3 benchmarks/run.py --workload evaluate-paper --seed 1 --seconds 24 --trace 0

Run from the repository root. Set-up writes the workload's corpus, one fixed
synthetic corpus per workload, with ``keydyn synth``: twice before the timed
part and twice after it, so that ``setup_s``, the median, samples the whole
run and not one moment of a machine whose speed drifts from minute to minute.
``--seed`` sets ``PYTHONHASHSEED`` of every child and the sample of outputs
the reference recomputes. With ``--trace 0``
the workload's command then runs as a single-process subprocess
(``--jobs 1``) again and again while another run still fits in ``--seconds``
(at least once); each run's wall time, CPU time and peak RSS come from
``os.wait4`` on that child alone and the medians are reported. With
``--trace 1`` the corpus is written by one traced ``keydyn synth``, the
command runs untraced as above, then once more traced in-process
(``tracer.py``); the per-layer metrics come from the traced run, and the
tracing overhead is its wall time minus the untraced median. Outputs are
checked against ``reference.py`` after the timed part, and traced outputs
must equal untraced ones byte for byte. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer  # noqa: E402

SEPARATION = "3.0"
SETUP_REPEATS = 2  # keydyn synth runs before the timed part, and as many after it


@dataclass(frozen=True)
class Workload:
    users: int
    synth_seed: int  # keydyn --seed of the corpus, one of about median size for its user count
    check: str  # key of reference.CHECKS
    args: tuple[str, ...]  # keydyn command; {corpus} and {out} are filled in


WORKLOADS = {
    "evaluate-paper": Workload(
        26, 25, "evaluate", ("evaluate", "{corpus}", "--out", "{out}", "--similarity-mode", "corrected")
    ),
    "score-wide": Workload(
        52,
        13,
        "score",
        ("score", "{corpus}", "--scenario", "cross:F:I", "--out", "{out}", "--similarity-mode", "corrected"),
    ),
    "extract-wide": Workload(52, 13, "extract", ("extract", "{corpus}", "--out", "{out}")),
}

# metric names and units, as BENCHMARK.json declares them
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def run_child(cmd: list[str], log: Path, seed: int) -> Child:
    """Run one command to its end; resources are those of this child alone."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed % 2**32)}
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, log.read_text(encoding="utf-8")
    )


def keydyn(args: list[str], spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "keydyn.cli", "--jobs", "1", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), "--", "--jobs", "1", *args]


def synth_args(wl: Workload, out_dir: Path) -> list[str]:
    return ["--seed", str(wl.synth_seed), "synth", "--out-dir", str(out_dir), "--users", str(wl.users)] + [
        "--separation", SEPARATION
    ]


def command_args(wl: Workload, corpus: Path, out: Path) -> list[str]:
    return [a.format(corpus=corpus, out=out) for a in wl.args]


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def must(child: Child, what: str) -> Child:
    if child.rc != 0:
        raise RuntimeError(f"{what} exited with {child.rc}")
    return child


def setup(wl: Workload, seed: int, work: Path, first: int) -> list[float]:
    """Write the corpus SETUP_REPEATS times; every copy must equal setup0/corpus.csv."""
    walls = []
    corpus = work / "setup0" / "corpus.csv"
    for i in range(first, first + SETUP_REPEATS):
        synth = keydyn(synth_args(wl, fresh(work / f"setup{i}")))
        walls.append(must(run_child(synth, work / f"setup{i}.log", seed), "synth").wall_s)
        if i == 0:
            continue
        if not filecmp.cmp(corpus, work / f"setup{i}" / "corpus.csv", shallow=False):
            raise RuntimeError("keydyn synth wrote different corpora for one seed")
        shutil.rmtree(work / f"setup{i}")
    return walls


def count_events(corpus: Path) -> int:
    with open(corpus, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1


def check(wl: Workload, corpus: Path, out: Path, stdout: str, seed: int) -> bool:
    fails, notes = reference.CHECKS[wl.check](corpus, out, stdout, seed)
    for line in notes:
        print(line)
    for line in fails[:20]:
        print(f"CHECK FAILED: {line}")
    return not fails


def run_ops(wl: Workload, corpus: Path, seconds: float, seed: int, work: Path) -> list[Child]:
    """Run the command while another run still fits in ``seconds`` (at least once)."""
    runs: list[Child] = []
    start = time.perf_counter()
    while True:
        child = run_child(keydyn(command_args(wl, corpus, fresh(work / "out"))), work / "op.log", seed)
        runs.append(child)
        print(f"op {len(runs)}: rc {child.rc}  wall {child.wall_s:.3f} s  cpu {child.cpu_s:.3f} s  "
              f"rss {child.rss_mb:.1f} MB")
        if time.perf_counter() - start + statistics.median(r.wall_s for r in runs) > seconds:
            return runs


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    setup_walls = setup(wl, seed, work, 0)
    corpus = work / "setup0" / "corpus.csv"
    events = count_events(corpus)
    runs = run_ops(wl, corpus, seconds, seed, work)
    setup_walls += setup(wl, seed, work, SETUP_REPEATS)
    ok = [r for r in runs if r.rc == 0]
    if not ok:
        raise RuntimeError(f"every run of the command failed (exit {runs[-1].rc})")
    correct = runs[-1].rc == 0 and check(wl, corpus, work / "out", runs[-1].stdout, seed)
    wall = statistics.median(r.wall_s for r in ok)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in ok),
        "events_per_s": events / wall,
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "setup_s": statistics.median(setup_walls),
    }
    print(f"events {events}  setup runs {', '.join(f'{w:.3f}' for w in setup_walls)} s")
    return {"correct": correct, "attempted": len(runs), "failed": len(runs) - len(ok), "metrics": metrics}


def trace(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    fresh(work / "setup0")
    synth = keydyn(synth_args(wl, work / "setup0"), work / "setup.spans")
    must(run_child(synth, work / "setup.log", seed), "traced synth")
    corpus = work / "setup0" / "corpus.csv"
    setup_metrics, _ = tracer.layer_metrics(json.loads((work / "setup.spans").read_text(encoding="utf-8")))

    runs = run_ops(wl, corpus, seconds, seed, work)
    plain_wall = statistics.median(r.wall_s for r in runs)
    traced_out = fresh(work / "out_traced")
    command = keydyn(command_args(wl, corpus, traced_out), work / "op.spans")
    traced = must(run_child(command, work / "op_traced.log", seed), "traced command")
    failed = sum(r.rc != 0 for r in runs)
    correct = not failed and check(wl, corpus, work / "out", runs[-1].stdout, seed)
    same = same_tree(work / "out", traced_out)
    if not same:
        print("CHECK FAILED: traced outputs differ from untraced outputs")
    doc = json.loads((work / "op.spans").read_text(encoding="utf-8"))
    metrics, absent = tracer.layer_metrics(doc)
    metrics["synth.generate_s"] = setup_metrics["synth.generate_s"]
    metrics["ingest.serialize_s"] = setup_metrics["ingest.serialize_s"]
    sessions = metrics.get("ingest.sessions", 0)
    metrics["ingest.pairings_per_session"] = metrics["ingest.pair_calls"] / sessions if sessions else 0.0
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain_wall
    print_layers(metrics, absent, doc["missing"], plain_wall)
    return {
        "correct": correct and same,
        "attempted": len(runs) + 1,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in BENCH["per_layer"]},
    }


def same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


def print_layers(metrics: dict, absent: list[str], missing: list[str], untraced_wall: float) -> None:
    """Self time per layer as a share of the traced wall time, absent layers marked."""
    wall = metrics["trace.wall_s"]
    layers = [f"{layer}_s" for layer in tracer.LAYERS if layer not in ("synth.generate", "ingest.serialize")]
    accounted = 0.0
    print(f"{'layer':<28}{'self s':>10}{'share':>8}")
    for name in layers + ["cli.self_s", "cli.import_s"]:
        value = metrics[name]
        accounted += value
        mark = "  absent" if name[:-2] in absent else ""
        print(f"{name:<28}{value:>10.4f}{value / wall:>8.1%}{mark}")
    print(f"{'sum':<28}{accounted:>10.4f}{accounted / wall:>8.1%}  of traced wall {wall:.4f} s")
    print(f"untraced median wall {untraced_wall:.4f} s; tracing overhead {wall - untraced_wall:+.4f} s")
    if missing:
        print(f"missing functions (spans absent): {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "keydyn" / "cli.py").is_file():
        print(f"error: no keydyn sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = fresh(WORK / args.workload)
    try:
        result = trace(wl, args.seed, args.seconds, work) if args.trace else measure(wl, args.seed, args.seconds, work)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
