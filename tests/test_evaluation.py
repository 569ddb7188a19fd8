from __future__ import annotations

import numpy as np
import pytest

from keydyn.errors import (
    KOutOfRangeError,
    NoEligibleUsersError,
    OverlappingPlatformsError,
    SamePlatformError,
)
from keydyn.evaluation import (
    ALL_SCORERS,
    BenchmarkConfig,
    EvaluationReport,
    build_combined_cross,
    build_cross_platform,
    enumerate_scenarios,
    k_rank_accuracy,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_benchmark,
    split_same_platform,
)
from keydyn.ingest import Action, Corpus, KeyEvent, SessionLog
from keydyn.matrix import ScoreMatrix
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import SimilarityMode


def tiny_corpus(users=("u1", "u2"), platforms=("F", "T"), sessions=range(1, 7), drop=()):
    """Hand corpus: two keystrokes per session, hold times vary per user."""
    logs = []
    for ui, user in enumerate(users):
        for platform in platforms:
            for session in sessions:
                if (user, platform, session) in drop:
                    continue
                hold = 50.0 + 40.0 * ui + session  # user-distinct, session-jittered
                events = [
                    KeyEvent("a", Action.PRESS, 0.0),
                    KeyEvent("a", Action.RELEASE, hold),
                    KeyEvent("b", Action.PRESS, hold + 100.0),
                    KeyEvent("b", Action.RELEASE, hold + 100.0 + hold),
                ]
                logs.append(SessionLog(user, platform, session, events))
    return Corpus.from_logs(logs)


# -- scenario builders -----------------------------------------------------------


def test_same_platform_split_sessions():
    data = split_same_platform(tiny_corpus(), "F")
    assert set(data.enroll) == {"u1", "u2"}
    assert data.enroll["u1"].sessions == {1, 2, 3}
    assert data.probe["u1"].sessions == {4, 5, 6}
    assert data.enroll["u1"].platforms == {"F"}
    assert data.excluded == ()


def test_same_platform_excludes_incomplete_users():
    corpus = tiny_corpus(drop={("u2", "F", 5)})
    data = split_same_platform(corpus, "F")
    assert set(data.enroll) == {"u1"}
    assert data.excluded == ("u2",)


def test_same_platform_no_eligible_users():
    corpus = tiny_corpus(sessions=range(1, 3))  # nobody has sessions 3..6
    with pytest.raises(NoEligibleUsersError):
        split_same_platform(corpus, "F")


def test_cross_platform_uses_all_sessions():
    data = build_cross_platform(tiny_corpus(), "F", "T")
    assert data.scenario.name == "F-T"
    assert data.enroll["u1"].platforms == {"F"}
    assert data.enroll["u1"].sessions == {1, 2, 3, 4, 5, 6}
    assert data.probe["u1"].platforms == {"T"}


def test_cross_platform_rejects_same_platform():
    with pytest.raises(SamePlatformError):
        build_cross_platform(tiny_corpus(), "F", "F")


def test_combined_cross_merges_training_platforms():
    corpus = tiny_corpus(platforms=("F", "I", "T"))
    data = build_combined_cross(corpus, ("F", "I"), "T")
    assert data.scenario.name == "FI-T"
    assert data.enroll["u1"].platforms == {"F", "I"}
    assert data.probe["u1"].platforms == {"T"}


def test_combined_cross_rejects_overlap():
    with pytest.raises(OverlappingPlatformsError):
        build_combined_cross(tiny_corpus(), ("F", "T"), "T")
    with pytest.raises(ValueError):
        build_combined_cross(tiny_corpus(), ("F",), "T")


def test_enumerate_scenarios_counts():
    scenarios = enumerate_scenarios(("F", "I", "T"))
    by_kind = {}
    for s in scenarios:
        by_kind.setdefault(s.kind, []).append(s.name)
    assert len(by_kind["same"]) == 3
    assert len(by_kind["cross"]) == 6  # ordered pairs
    assert sorted(by_kind["cross"]) == ["F-I", "F-T", "I-F", "I-T", "T-F", "T-I"]
    assert sorted(by_kind["combined"]) == ["FI-T", "FT-I", "IT-F"]
    assert len(scenarios) == 12


# -- k-rank accuracy -------------------------------------------------------------


def matrix_of(values):
    values = np.asarray(values, dtype=np.float64)
    return ScoreMatrix(tuple(f"u{i}" for i in range(values.shape[0])), values)


def test_k_rank_diagonal_dominant():
    m = matrix_of([[0.9, 0.1, 0.2], [0.0, 0.8, 0.3], [0.1, 0.2, 0.7]])
    assert k_rank_accuracy(m, 1) == 1.0


def test_k_rank_genuine_strictly_second():
    m = matrix_of([[0.5, 0.9, 0.1], [0.9, 0.5, 0.1], [0.1, 0.9, 0.5]])
    assert k_rank_accuracy(m, 1) == 0.0
    assert k_rank_accuracy(m, 2) == 1.0


def test_k_rank_ties_break_by_roster_index():
    m = matrix_of(np.full((3, 3), 0.5))
    # probe u2's genuine column ranks third among equals
    assert k_rank_accuracy(m, 1) == pytest.approx(1 / 3)
    assert k_rank_accuracy(m, 2) == pytest.approx(2 / 3)
    assert k_rank_accuracy(m, 3) == 1.0


def test_k_rank_out_of_range():
    m = matrix_of([[1.0]])
    with pytest.raises(KOutOfRangeError):
        k_rank_accuracy(m, 0)
    with pytest.raises(KOutOfRangeError):
        k_rank_accuracy(m, 2)


def test_k_rank_invariants_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = matrix_of(rng.uniform(0, 1, (n, n)))
        accs = [k_rank_accuracy(m, k) for k in range(1, n + 1)]
        assert accs == sorted(accs)  # non-decreasing in k
        assert accs[-1] == 1.0  # k = n catches everyone
        for acc in accs:
            assert (acc * n) == pytest.approx(round(acc * n))  # multiples of 1/n


def test_k_rank_invariant_under_relabeling(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        values = rng.uniform(0, 1, (n, n))
        m = matrix_of(values)
        perm = rng.permutation(n)
        permuted = ScoreMatrix(
            tuple(f"u{i}" for i in range(n)), values[np.ix_(perm, perm)]
        )
        for k in range(1, n + 1):
            assert k_rank_accuracy(m, k) == k_rank_accuracy(permuted, k)


# -- benchmark driver -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_synth_corpus():
    return generate_corpus(SynthSpec(seed=3, n_users=5, separation=2.5))


def test_run_benchmark_full_grid(small_synth_corpus):
    report = run_benchmark(small_synth_corpus, BenchmarkConfig(k_max=5))
    assert len(report.scenarios) == 12
    assert {s.kind for s in report.scenarios} == {"same", "cross", "combined"}
    # 12 scenarios x 7 scorers x 5 ranks
    assert len(report.rows) == 12 * 7 * 5
    assert report.dataset["users"] == 5
    assert report.dataset["sessions"] == 5 * 3 * 6
    for row in report.rows:
        assert 0.0 <= row.accuracy <= 1.0


def test_run_benchmark_scorer_subset(small_synth_corpus):
    report = run_benchmark(small_synth_corpus, BenchmarkConfig(scorers=("itad",)))
    assert {row.scorer for row in report.rows} == {"itad"}


def test_run_benchmark_scenario_subset(small_synth_corpus):
    report = run_benchmark(
        small_synth_corpus, BenchmarkConfig(scorers=("abs",), scenario_kinds=("same",))
    )
    assert {s.kind for s in report.scenarios} == {"same"}
    assert len(report.scenarios) == 3


def test_run_benchmark_empty_corpus():
    with pytest.raises(NoEligibleUsersError):
        run_benchmark(Corpus(sessions={}))


def test_run_benchmark_deterministic(small_synth_corpus):
    cfg = BenchmarkConfig(scorers=("itad", "fmean"), scenario_kinds=("same",))
    first = run_benchmark(small_synth_corpus, cfg)
    second = run_benchmark(small_synth_corpus, cfg)
    assert report_to_json(first) == report_to_json(second)


def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(scorers=("bogus",))
    with pytest.raises(ValueError):
        BenchmarkConfig(scorers=())
    with pytest.raises(ValueError):
        BenchmarkConfig(threshold=0.9)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max"):
            BenchmarkConfig(k_max=k_max)
    with pytest.raises(ValueError, match=r"overlap: \[3\]"):
        BenchmarkConfig(enroll_sessions=(1, 2, 3), probe_sessions=(3, 4))
    BenchmarkConfig(k_max=1, enroll_sessions=(1, 2), probe_sessions=(3, 4))


def test_report_round_trip_and_csv(small_synth_corpus):
    report = run_benchmark(
        small_synth_corpus,
        BenchmarkConfig(scorers=("itad",), scenario_kinds=("same",), similarity_mode=SimilarityMode.CORRECTED),
    )
    back = report_from_json(report_to_json(report))
    assert back.rows == report.rows
    assert back.config == report.config
    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "scenario,kind,scorer,k,accuracy"
    assert len(lines) == 1 + len(report.rows)
    # canonical row ordering: sorted by scenario, scorer, k
    keys = [(r.scenario, r.scorer, r.k) for r in report.rows]
    assert keys == sorted(keys)
    assert report.accuracy("F", "itad", 1) == report.rows[0].accuracy
