"""Reference figures quoted in benchmarks/README.md.

    python3 benchmarks/figures.py

1. A traced run of every workload: layer self times, how much of the traced
   wall time they account for, the tracing overhead, and the make-up of the
   workload's input.
2. ``keydyn score`` on cross:F:I at 52 and 104 users, to show the per-pair
   growth of scoring.
3. ``keydyn evaluate`` on the evaluate-paper corpus with ``--jobs 1`` and
   ``--jobs 2``; the process pool is kept out of the workloads.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1  # PYTHONHASHSEED of every child, and the synth seed of the scaling corpora
sys.path.insert(0, str(HERE))
from run import (  # noqa: E402
    BENCH, ROOT, SEPARATION, WORK, WORKLOADS, command_args, count_events, fresh, keydyn, must, run_child, synth_args,
)


def traced(seed: int) -> None:
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(BENCH["run_seconds"]), "--trace", "1"]
        lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
        print(f"\n## {name} (traced, seed {seed})")
        print("\n".join(lines[:-1]))  # all but the JSON result line
    print(f"\n## inputs (seed {seed}): F, I, T x 6 sessions, separation 3.0")
    for name, wl in WORKLOADS.items():
        corpus = WORK / name / "setup0" / "corpus.csv"
        print(f"{name}: {wl.users} users, {wl.users * 18} sessions, {count_events(corpus)} events, "
              f"{corpus.stat().st_size} bytes, synth seed {wl.synth_seed}")


def scaling(seed: int) -> None:
    work = fresh(WORK / "figures")
    print(f"\n## score cross:F:I, all 7 scorers, --jobs 1, synth seed {seed}")
    for users in (52, 104):
        corpus_dir = work / f"c{users}"
        synth = ["--seed", str(seed), "synth", "--out-dir", str(corpus_dir), "--users", str(users)]
        synth += ["--separation", SEPARATION]
        must(run_child(keydyn(synth), work / "synth.log", seed), "synth")
        args = ["score", str(corpus_dir / "corpus.csv"), "--scenario", "cross:F:I", "--out", str(fresh(work / "out"))]
        args += ["--similarity-mode", "corrected"]
        child = must(run_child(keydyn(args), work / "score.log", seed), "score")
        pairs = users * users
        print(f"{users} users: wall {child.wall_s:.2f} s  cpu {child.cpu_s:.2f} s  peak RSS {child.rss_mb:.0f} MB  "
              f"{pairs} pairs  {1e3 * child.wall_s / pairs:.2f} ms per pair (3 verifiers)")


def jobs(seed: int) -> None:
    work = fresh(WORK / "figures")
    wl = WORKLOADS["evaluate-paper"]
    must(run_child(keydyn(synth_args(wl, work)), work / "synth.log", seed), "synth")
    print(f"\n## evaluate-paper corpus (seed {seed}), keydyn evaluate")
    for n in (1, 2):
        args = command_args(wl, work / "corpus.csv", fresh(work / "out"))
        cmd = [sys.executable, "-m", "keydyn.cli", "--jobs", str(n), *args]
        child = must(run_child(cmd, work / "evaluate.log", seed), "evaluate")
        print(f"--jobs {n}: wall {child.wall_s:.2f} s  cpu incl. workers {child.cpu_s:.2f} s")


def main() -> int:
    traced(SEED)
    scaling(SEED)
    jobs(SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
