"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from scipy.stats import binom

from keydyn.cli import main
from keydyn.evaluation import BenchmarkConfig, k_rank_accuracy, run_benchmark
from keydyn.matrix import FusionMethod, ScoreMatrix, build_score_matrix, fuse
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import SimilarityMode, Verifier

from columns import digraph_key, unigraph_key
from conftest import absolute_score, itad_score, random_profile, similarity_score
from oracles import oracle_absolute, oracle_itad, oracle_similarity

U, D = unigraph_key, digraph_key
PUB, CORR = SimilarityMode.AS_PUBLISHED, SimilarityMode.CORRECTED

HIGH_SEPARATION = 3.0
BENCH_USERS = 26
SEEDS = (0, 1, 2, 3, 4)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: oracle equivalence -------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b = random_profile(rng), random_profile(rng)
        checks = (
            (similarity_score(a, b, PUB), oracle_similarity(a, b)),
            (similarity_score(a, b, CORR), oracle_similarity(a, b, corrected=True)),
            (absolute_score(a, b), oracle_absolute(a, b)),
            (itad_score(a, b), oracle_itad(a, b)),
        )
        worst = max(worst, max(abs(got - want) for got, want in checks))
    elapsed = time.perf_counter() - start
    _verdict(
        "1 verifier-oracle-equivalence",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |diff|={worst:.2e} over 1000 pairs in {elapsed:.2f}s",
    )


# -- criterion 2: hand-traced fixtures ------------------------------------------


def test_criterion_2_hand_traced_fixtures():
    from keydyn.features import extract_digraphs

    from columns import keystrokes

    a3 = {U("a"): [100.0, 110.0, 120.0]}
    checks = [
        similarity_score(a3, {U("a"): [105.0, 115.0]}, PUB) == 0.0,
        similarity_score(a3, {U("a"): [105.0, 115.0]}, CORR) == 1.0,
        similarity_score(a3, {U("a"): [150.0]}, PUB) == 1.0,
        similarity_score(a3, {U("a"): [150.0]}, CORR) == 0.0,
        absolute_score({U("a"): [100.0], U("b"): [200.0]}, {U("a"): [140.0], U("b"): [350.0]}) == 0.5,
        itad_score({U("a"): [100.0, 200.0]}, {U("a"): [150.0]}) == 0.5,
        itad_score({U("a"): [100.0]}, {U("a"): [100.0]}) == 1.0,
        extract_digraphs(keystrokes([("a", 0.0, 50.0), ("b", 120.0, 160.0)])) == {D("a", "b"): [70.0]},
        extract_digraphs(keystrokes([("a", 0.0, 60.0), ("b", 30.0, 90.0)])) == {D("a", "b"): [-30.0]},
    ]
    _verdict("2 hand-traced-fixtures", all(checks), f"{sum(checks)}/{len(checks)} fixtures exact")


# -- criterion 3: algebraic invariants -------------------------------------------


def test_criterion_3_algebraic_invariants():
    rng = np.random.default_rng(777)
    failures = []

    for trial in range(200):
        a, b = random_profile(rng), random_profile(rng)
        scores = (
            similarity_score(a, b, PUB),
            similarity_score(a, b, CORR),
            absolute_score(a, b),
            itad_score(a, b),
        )
        if not all(0.0 <= s <= 1.0 for s in scores):
            failures.append(f"range violated at trial {trial}")
        if set(a) & set(b):
            if scores[0] + scores[1] != 1.0:
                failures.append(f"mode complement violated at trial {trial}")
        if set(a) and absolute_score(a, a) != 1.0:
            failures.append(f"absolute identity violated at trial {trial}")
        if absolute_score(a, b) != absolute_score(b, a):
            failures.append(f"absolute symmetry violated at trial {trial}")
        scale = float(rng.choice([0.25, 0.5, 2.0, 8.0, 1024.0]))
        sa = {k: [scale * v for v in vs] for k, vs in a.items()}
        sb = {k: [scale * v for v in vs] for k, vs in b.items()}
        if absolute_score(sa, sb) != absolute_score(a, b):
            failures.append(f"absolute timescale invariance violated at trial {trial}")
        if similarity_score(sa, sb, PUB) != similarity_score(a, b, PUB):
            failures.append(f"similarity timescale invariance violated at trial {trial}")

    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = ScoreMatrix(tuple(f"u{i}" for i in range(n)), rng.uniform(0, 1, (n, n)))
        accs = [k_rank_accuracy(m, k) for k in range(1, n + 1)]
        if accs != sorted(accs) or accs[-1] != 1.0:
            failures.append(f"k-rank monotonicity violated at trial {trial}")
        if any(abs(acc * n - round(acc * n)) > 1e-9 for acc in accs):
            failures.append(f"k-rank quantization violated at trial {trial}")

    for trial in range(200):
        n = int(rng.integers(1, 5))
        ms = [
            ScoreMatrix(tuple(f"u{i}" for i in range(n)), rng.uniform(0, 1, (n, n)))
            for _ in range(3)
        ]
        for method in FusionMethod:
            reference = fuse(ms, method).values
            if not (reference.min() >= 0.0 and reference.max() <= 1.0):
                failures.append(f"fusion range violated at trial {trial}")
            for perm in itertools.permutations(ms):
                if not np.array_equal(fuse(list(perm), method).values, reference):
                    failures.append(f"fusion permutation invariance violated at trial {trial}")

    _verdict("3 algebraic-invariants", not failures, failures[0] if failures else "200+ instances per invariant")


# -- criteria 4 and 5: synthetic benchmark ----------------------------------------


def _same_platform_rank1(corpus, scorers):
    """rank-1 per scorer over the same-platform scenarios (fusion uses CORRECTED)."""
    config = BenchmarkConfig(scorers=scorers, similarity_mode=CORR, scenario_kinds=("same",), k_max=1)
    report = run_benchmark(corpus, config)
    out: dict[str, list[float]] = {s: [] for s in scorers}
    for row in report.rows:
        if row.k == 1:
            out[row.scorer].append(row.accuracy)
    return out


@pytest.fixture(scope="module")
def full_benchmark():
    corpus = generate_corpus(SynthSpec(seed=SEEDS[0], n_users=BENCH_USERS, separation=HIGH_SEPARATION))
    config = BenchmarkConfig(similarity_mode=CORR)
    start = time.perf_counter()
    report = run_benchmark(corpus, config)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_4_synthetic_separability(full_benchmark):
    scorers = ("itad", "fmean")

    high = {s: [] for s in scorers}
    for seed in SEEDS:
        corpus = generate_corpus(SynthSpec(seed=seed, n_users=BENCH_USERS, separation=HIGH_SEPARATION))
        for scorer, accs in _same_platform_rank1(corpus, scorers).items():
            high[scorer].extend(accs)
    high_means = {s: float(np.mean(v)) for s, v in high.items()}

    chance_hits = {s: 0 for s in scorers}
    trials = 0
    for seed in SEEDS:
        corpus = generate_corpus(SynthSpec(seed=seed, n_users=BENCH_USERS, separation=0.0))
        for scorer, accs in _same_platform_rank1(corpus, scorers).items():
            chance_hits[scorer] += int(round(sum(acc * BENCH_USERS for acc in accs)))
        trials += 3 * BENCH_USERS  # three same-platform scenarios per corpus
    lo = int(binom.ppf(0.005, trials, 1 / BENCH_USERS))
    hi = int(binom.ppf(0.995, trials, 1 / BENCH_USERS))

    _, elapsed = full_benchmark

    ok_high = all(high_means[s] >= 0.90 for s in scorers)
    ok_chance = all(lo <= chance_hits[s] <= hi for s in scorers)
    ok_time = elapsed < 60.0
    _verdict(
        "4 synthetic-separability",
        ok_high and ok_chance and ok_time,
        f"rank-1 at separation {HIGH_SEPARATION}: itad={high_means['itad']:.3f} "
        f"fmean={high_means['fmean']:.3f} (gate 0.90); chance hits itad={chance_hits['itad']} "
        f"fmean={chance_hits['fmean']} in 99% band [{lo}, {hi}] of {trials} trials; "
        f"full 12x7 benchmark {elapsed:.1f}s (gate 60s)",
    )


def test_criterion_5_fusion_utility(full_benchmark):
    report, _ = full_benchmark
    rank1: dict[str, dict[str, float]] = {}
    for row in report.rows:
        if row.k == 1:
            rank1.setdefault(row.scenario, {})[row.scorer] = row.accuracy
    margins = {
        scenario: d["fmean"] - (max(d["sim"], d["abs"], d["itad"]) - 0.05)
        for scenario, d in rank1.items()
    }
    worst_scenario = min(margins, key=margins.get)
    _verdict(
        "5 fusion-utility",
        all(m >= 0.0 for m in margins.values()),
        f"12 scenarios; worst margin {margins[worst_scenario]:+.3f} at {worst_scenario}",
    )


# -- criterion 7: end-to-end determinism ------------------------------------------


def test_criterion_7_cli_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["--seed", "2", "synth", "--out-dir", str(corpus_dir), "--users", "6",
                 "--separation", "2.0"]) == 0

    blobs = []
    for name, jobs in (("run1", "1"), ("run2", "1"), ("run8", "8")):
        out = tmp_path / name
        code = main(["--jobs", jobs, "evaluate", str(corpus_dir), "--out", str(out),
                     "--similarity-mode", "corrected"])
        assert code == 0
        blobs.append((out / "report.json").read_bytes() + (out / "report.csv").read_bytes())
    _verdict(
        "7 end-to-end-determinism",
        blobs[0] == blobs[1] == blobs[2],
        f"report bytes identical across two --jobs 1 runs and one --jobs 8 run ({len(blobs[0])} bytes)",
    )
