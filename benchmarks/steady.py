"""Steadiness check: every workload in two separate batches of runs.

    python3 benchmarks/steady.py --runs 5

Batch A runs seeds 1..N and batch B seeds N+1..2N, each batch cycling
through the workloads seed by seed, so slow drift of the machine lands in
both batches. For every workload and end-to-end metric it prints the median
and quartiles of each batch, the spread (interquartile range over median) of
each batch and of all 2N runs, and how far batch B's median lies from batch
A's, next to the metric's bound in BENCHMARK.json. FLAG marks what the bound
does not cover: a batch spread above the bound, a batch difference above it in
either direction, or a different share of failed runs. A spread above a third of the
bound is marked ``>b/3``. The table is also written to .bench_work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per workload per batch")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for batch, first in (("A", 1), ("B", args.runs + 1)):
        for seed in range(first, first + args.runs):
            for workload in workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                results[workload][batch].append(result)
                values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"batch {batch} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)

    summary = {}
    flagged = 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"{'metric':<14}{'bound':>6}{'A median':>12}{'A q1..q3':>22}{'B median':>12}{'B q1..q3':>22}"
              f"{'A spr':>7}{'B spr':>7}{'all spr':>8}{'B vs A':>8}")
        batches = results[workload]
        shares = {b: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for b, rs in batches.items()}
        correct = all(r["correct"] for rs in batches.values() for r in rs)
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in batches["A"]]
            b = [r["metrics"][name]["value"] for r in batches["B"]]
            q1, _, q3 = statistics.quantiles(a, n=4)
            b1, _, b3 = statistics.quantiles(b, n=4)
            worse = statistics.median(b) / statistics.median(a) - 1
            if metric["better"] == "higher":
                worse = -worse
            row = {
                "bound": bound, "a_median": statistics.median(a), "a_q1": q1, "a_q3": q3,
                "b_median": statistics.median(b), "b_q1": b1, "b_q3": b3,
                "a_spread": spread(a), "b_spread": spread(b), "all_spread": spread(a + b), "b_worse_than_a": worse,
            }  # fmt: skip
            widest = max(row["a_spread"], row["b_spread"])
            bad = widest > bound or abs(worse) > bound
            flagged += bad
            rows[name] = row
            mark = "  FLAG" if bad else "  >b/3" if widest > bound / 3 else ""
            print(f"{name:<14}{bound:>6.2f}{row['a_median']:>12.5g}{f'{q1:.5g}..{q3:.5g}':>22}"
                  f"{row['b_median']:>12.5g}{f'{b1:.5g}..{b3:.5g}':>22}"
                  f"{row['a_spread']:>7.1%}{row['b_spread']:>7.1%}{row['all_spread']:>8.1%}{worse:>+8.1%}{mark}")
        print(f"failed share A {shares['A']:.4f}  B {shares['B']:.4f}; all outputs correct: {correct}")
        flagged += shares["A"] != shares["B"] or not correct
        summary[workload] = {"metrics": rows, "failed_share": shares, "correct": correct}
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    doc = {"runs_per_batch": args.runs, "seconds": bench["run_seconds"], "workloads": summary}
    out.write_text(json.dumps(doc, indent=1))
    print(f"\n{flagged} flag(s); table written to {out.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
