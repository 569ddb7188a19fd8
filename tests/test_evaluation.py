from __future__ import annotations

import sys
import weakref

import numpy as np
import pytest

from keydyn import evaluation
from keydyn.errors import (
    DuplicateScenarioError,
    KOutOfRangeError,
    NoEligibleUsersError,
    OverlappingPlatformsError,
    SamePlatformError,
)
from keydyn.evaluation import (
    ALL_SCORERS,
    BenchmarkConfig,
    EvaluationReport,
    build_scenario_data,
    combined_cross_scenario,
    cross_platform_scenario,
    enumerate_scenarios,
    k_rank_accuracy,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_benchmark,
    same_platform_scenario,
)
from keydyn.features import Kind, session_features
from keydyn.ingest import Corpus, parse_log, serialize_corpus
from keydyn.matrix import ScoreMatrix, score_matrices
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import SimilarityMode, prepare_profile, session_runs

from columns import session_log
from oracles import oracle_k_rank


def tiny_corpus(users=("u1", "u2"), platforms=("F", "T"), sessions=range(1, 7), drop=()):
    """Hand corpus: two keystrokes per session, hold times vary per user."""
    logs = []
    for ui, user in enumerate(users):
        for pi, platform in enumerate(platforms):
            for session in sessions:
                if (user, platform, session) in drop:
                    continue
                hold = 50.0 + 40.0 * ui + 0.25 * pi + session  # user-distinct, platform- and session-jittered
                events = [
                    ("a", "P", 0.0),
                    ("a", "R", hold),
                    ("b", "P", hold + 100.0),
                    ("b", "R", hold + 100.0 + hold),
                ]
                logs.append(session_log(events, user, platform, session))
    return Corpus.from_logs(logs)


# -- scenario builders -----------------------------------------------------------


def assert_pools(profile, corpus, user, cells):
    """``profile`` pools exactly the sessions ``cells`` of ``user``, bit for bit.

    Every session of the hand corpus holds the same four features, so any
    vocabulary over its sessions gives them the same ids.
    """
    parts = [session_features(corpus.sessions[user, platform, session]) for platform, session in cells]
    want = prepare_profile(session_runs(parts)[0])
    for got, expected in zip(profile, want):
        assert got.tobytes() == expected.tobytes()


def test_same_platform_split_sessions():
    corpus = tiny_corpus()
    [data] = build_scenario_data(corpus, [same_platform_scenario("F")])
    assert set(data.enroll) == {"u1", "u2"}
    assert_pools(data.enroll["u1"], corpus, "u1", [("F", 1), ("F", 2), ("F", 3)])
    assert_pools(data.probe["u1"], corpus, "u1", [("F", 4), ("F", 5), ("F", 6)])
    assert_pools(data.enroll["u2"], corpus, "u2", [("F", 1), ("F", 2), ("F", 3)])
    assert data.excluded == ()


def test_same_platform_excludes_incomplete_users():
    corpus = tiny_corpus(drop={("u2", "F", 5)})
    [data] = build_scenario_data(corpus, [same_platform_scenario("F")])
    assert set(data.enroll) == {"u1"}
    assert data.excluded == ("u2",)


def test_same_platform_no_eligible_users():
    corpus = tiny_corpus(sessions=range(1, 3))  # nobody has sessions 3..6
    with pytest.raises(NoEligibleUsersError):
        build_scenario_data(corpus, [same_platform_scenario("F")])


def test_cross_platform_uses_all_sessions():
    corpus = tiny_corpus()
    [data] = build_scenario_data(corpus, [cross_platform_scenario("F", "T")])
    assert data.scenario.name == "F-T"
    assert_pools(data.enroll["u1"], corpus, "u1", [("F", s) for s in range(1, 7)])
    assert_pools(data.probe["u1"], corpus, "u1", [("T", s) for s in range(1, 7)])


def test_cross_platform_rejects_same_platform():
    with pytest.raises(SamePlatformError):
        build_scenario_data(tiny_corpus(), [cross_platform_scenario("F", "F")])


def test_combined_cross_merges_training_platforms():
    corpus = tiny_corpus(platforms=("F", "I", "T"))
    [data] = build_scenario_data(corpus, [combined_cross_scenario(("F", "I"), "T")])
    assert data.scenario.name == "FI-T"
    assert_pools(data.enroll["u1"], corpus, "u1", [(p, s) for p in "FI" for s in range(1, 7)])
    assert_pools(data.probe["u1"], corpus, "u1", [("T", s) for s in range(1, 7)])


def test_combined_cross_rejects_overlap():
    with pytest.raises(OverlappingPlatformsError):
        build_scenario_data(tiny_corpus(), [combined_cross_scenario(("F", "T"), "T")])
    with pytest.raises(ValueError):
        build_scenario_data(tiny_corpus(), [combined_cross_scenario(("F",), "T")])


def test_sides_shared_across_scenarios_are_one_profile():
    corpus = tiny_corpus(platforms=("F", "I", "T"))
    f_i, i_f = build_scenario_data(corpus, [cross_platform_scenario("F", "I"), cross_platform_scenario("I", "F")])
    assert f_i.enroll["u1"] is i_f.probe["u1"]
    assert f_i.probe["u2"] is i_f.enroll["u2"]


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


def test_enumerate_scenarios_order():
    names = [s.name for s in enumerate_scenarios(("T", "F", "I"))]
    assert names == ["F", "I", "T", "F-I", "F-T", "I-F", "I-T", "T-F", "T-I", "FI-T", "FT-I", "IT-F"]


ALL_SIX = range(1, 7)


@pytest.mark.parametrize(
    "scenario, kind, name, enroll, probe",
    [
        (same_platform_scenario("F"), "same", "F", [("F", s) for s in (1, 2, 3)], [("F", s) for s in (4, 5, 6)]),
        (cross_platform_scenario("I", "F"), "cross", "I-F", [("I", s) for s in ALL_SIX], [("F", s) for s in ALL_SIX]),
        (
            combined_cross_scenario(("T", "F"), "I"),
            "combined",
            "FT-I",
            [(p, s) for p in "FT" for s in ALL_SIX],
            [("I", s) for s in ALL_SIX],
        ),
    ],
)
def test_scenario_name_and_cells_follow_from_kind_and_platforms(scenario, kind, name, enroll, probe):
    # the paper's split: same-platform scenarios enroll on sessions 1-3 and probe on 4-6, the others use 1-6
    assert (scenario.kind, scenario.name) == (kind, name)
    assert scenario.cells == (tuple(enroll), tuple(probe))
    assert (list(scenario.train), scenario.test) == (sorted({p for p, _ in enroll}), probe[0][0])


def test_score_scenarios_scores_each_scenario_as_configured():
    corpus = tiny_corpus(platforms=("F", "I", "T"), drop={("u2", "T", 2)})
    scenarios = [same_platform_scenario("F"), cross_platform_scenario("F", "T")]
    scorers, mode = ("abs", "fmin"), SimilarityMode.CORRECTED
    scored = list(evaluation.score_scenarios(corpus, scenarios, BenchmarkConfig(scorers, mode, threshold=1.5)))
    for (data, matrices), want in zip(scored, build_scenario_data(corpus, scenarios), strict=True):
        assert (data.scenario, data.excluded) == (want.scenario, want.excluded)
        name = want.scenario.name
        expected = score_matrices(want.enroll, want.probe, scorers, mode=mode, threshold=1.5, scenario=name)
        assert list(matrices) == list(scorers)
        for label, m in matrices.items():
            assert (m.roster, m.scenario) == (expected[label].roster, expected[label].scenario)
            assert m.values.tobytes() == expected[label].values.tobytes()
    assert [data.excluded for data, _ in scored] == [(), ("u2",)]


@pytest.mark.parametrize(
    "platforms, message",
    [
        (
            ["A-B", "C", "A", "B-C"],
            "the cross scenario enrolling on ['A'] and probing on ['B-C'] and "
            "the cross scenario enrolling on ['A-B'] and probing on ['C'] share the name 'A-B-C'",
        ),
        (
            ["A", "AB", "BC", "C", "D"],
            "the combined scenario enrolling on ['A', 'BC'] and probing on ['D'] and "
            "the combined scenario enrolling on ['AB', 'C'] and probing on ['D'] share the name 'ABC-D'",
        ),
    ],
)
def test_scenarios_sharing_a_name_are_rejected(platforms, message):
    # their report rows collided on the scenario name, and keydyn report merged their cells
    with pytest.raises(DuplicateScenarioError) as exc:
        enumerate_scenarios(platforms)
    assert str(exc.value) == message


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


def test_k_rank_matches_row_loop_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 9))
        values = rng.integers(0, 4, (n, n)) / 3  # few levels: many ties, some on the genuine cell
        for k in range(1, n + 1):
            assert k_rank_accuracy(matrix_of(values), k) == oracle_k_rank(values.tolist(), k)


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


def parsed_corpus() -> tuple[Corpus, weakref.ref]:
    """A synth corpus read back through the parse, and a weak reference to the columns its sessions view."""
    result = parse_log(serialize_corpus(generate_corpus(SynthSpec(seed=3, n_users=4, separation=3.0))))
    return Corpus.from_logs(result.sessions), weakref.ref(result.sessions[0].times.base)


def alive_at_scoring(monkeypatch, columns: weakref.ref) -> list[bool]:
    """Whether ``columns`` was alive at each scenario's scoring, recorded as it is scored."""
    alive = []

    def scoring(*args, **kwargs):
        alive.append(columns() is not None)
        return score_matrices(*args, **kwargs)

    monkeypatch.setattr(evaluation, "score_matrices", scoring)
    return alive


def test_score_scenarios_lets_the_corpus_go_before_scoring(monkeypatch):
    corpus, columns = parsed_corpus()
    alive = alive_at_scoring(monkeypatch, columns)
    scored = evaluation.score_scenarios(corpus, [cross_platform_scenario("F", "I")], BenchmarkConfig())
    del corpus
    data, _ = next(scored)
    assert columns() is None and alive == [False]
    assert len(data.enroll) == 4


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a caller holds its call's arguments to its end")
def test_run_benchmark_lets_the_corpus_go_before_scoring(monkeypatch):
    corpus, columns = parsed_corpus()
    alive = alive_at_scoring(monkeypatch, columns)
    held = [corpus]
    del corpus
    report = run_benchmark(held.pop(), BenchmarkConfig(scorers=("abs",), k_max=1))
    # the dataset block is read before the corpus goes
    assert report.dataset["users"] == 4 and len(report.scenarios) == len(alive) == 12
    assert not any(alive)


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
    with pytest.raises(ValueError, match="repeated scorers"):
        BenchmarkConfig(scorers=("sim", "itad", "sim"))
    with pytest.raises(ValueError, match="feature kind"):
        BenchmarkConfig(kinds=())
    with pytest.raises(ValueError):
        BenchmarkConfig(threshold=0.9)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="k_max"):
            BenchmarkConfig(k_max=k_max)
    with pytest.raises(ValueError, match="unknown scenario kinds"):
        BenchmarkConfig(scenario_kinds=("same", "sam"))
    with pytest.raises(ValueError, match="repeated feature kinds"):
        BenchmarkConfig(kinds=(Kind.UNIGRAPH, Kind.DIGRAPH, Kind.UNIGRAPH))
    with pytest.raises(ValueError, match="repeated scenario kinds"):
        BenchmarkConfig(scenario_kinds=("same", "same"))
    with pytest.raises(ValueError, match="repeated scenario kinds"):
        BenchmarkConfig(scenario_kinds=("cross", "same", "cross"))
    # a kind is a Kind member: its letter alone is not one
    for kinds in (("X",), ("U",), (Kind.UNIGRAPH, "D")):
        with pytest.raises(ValueError, match="unknown feature kinds"):
            BenchmarkConfig(kinds=kinds)
    BenchmarkConfig(k_max=1)


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


@pytest.fixture
def extracted(monkeypatch):
    """Session keys in the order ``build_scenario_data`` extracts them."""
    keys = []

    def counting_extract(log, kinds):
        keys.append(log.session_key)
        return session_features(log, kinds)

    monkeypatch.setattr(evaluation, "session_features", counting_extract)
    return keys


def test_run_benchmark_prepares_each_side_once(small_synth_corpus, monkeypatch, extracted):
    prepared = []

    def counting_prepare(runs):
        prepared.append(len(runs))
        return prepare_profile(runs)

    monkeypatch.setattr(evaluation, "prepare_profile", counting_prepare)
    run_benchmark(small_synth_corpus, BenchmarkConfig(scorers=("abs",), k_max=1))
    # per user: 3 same-platform enroll and 3 probe sides, 3 one-platform sides of
    # all six sessions (each serves two cross scenarios) and 3 two-platform sides
    assert len(prepared) == 12 * 5
    assert sorted(prepared) == [3] * 30 + [6] * 15 + [12] * 15
    assert len(extracted) == len(set(extracted)) == len(small_synth_corpus.sessions)


def test_one_scenario_extracts_only_its_sessions(small_synth_corpus, extracted):
    build_scenario_data(small_synth_corpus, [cross_platform_scenario("F", "I")])
    assert sorted(extracted) == sorted(key for key in small_synth_corpus.sessions if key[1] in "FI")


def test_scenario_built_alone_equals_whole_run(small_synth_corpus):
    scenarios = enumerate_scenarios(small_synth_corpus.platforms)
    batch = build_scenario_data(small_synth_corpus, scenarios)
    for scenario, together in zip(scenarios, batch):
        [alone] = build_scenario_data(small_synth_corpus, [scenario])
        assert together.scenario == alone.scenario and together.excluded == alone.excluded
        for mode in SimilarityMode:
            want = score_matrices(alone.enroll, alone.probe, ALL_SCORERS, mode=mode)
            got = score_matrices(together.enroll, together.probe, ALL_SCORERS, mode=mode)
            for label in ALL_SCORERS:
                assert got[label].roster == want[label].roster
                assert got[label].values.tobytes() == want[label].values.tobytes(), (scenario.name, mode, label)


# -- accuracy against synth separation ---------------------------------------------

SEPARATIONS = (0.0, 0.5, 0.75, 1.0, 1.5)
# from here up, published-mode Similarity ranks the genuine user first less
# often than corrected mode, at or below chance
INVERTED_FROM = 0.75


@pytest.fixture(scope="module")
def rank1_by_separation():
    """Mean same-platform rank-1 over synth seeds 1 and 2 at 26 users, per (mode, scorer), then separation."""
    means: dict[tuple[SimilarityMode, str], dict[float, float]] = {}
    for separation in SEPARATIONS:
        corpora = [generate_corpus(SynthSpec(seed=seed, n_users=26, separation=separation)) for seed in (1, 2)]
        runs = [(SimilarityMode.CORRECTED, ("sim", "abs", "itad"))]
        if separation >= INVERTED_FROM:
            runs.append((SimilarityMode.AS_PUBLISHED, ("sim",)))
        for mode, scorers in runs:
            config = BenchmarkConfig(scorers=scorers, similarity_mode=mode, scenario_kinds=("same",), k_max=1)
            rows = [row for corpus in corpora for row in run_benchmark(corpus, config).rows]
            for scorer in scorers:
                accuracies = [row.accuracy for row in rows if row.scorer == scorer]
                means.setdefault((mode, scorer), {})[separation] = float(np.mean(accuracies))
    return means


@pytest.mark.parametrize("scorer", ["sim", "abs", "itad"])
def test_corrected_rank1_does_not_fall_as_separation_rises(rank1_by_separation, scorer):
    rank1 = [rank1_by_separation[SimilarityMode.CORRECTED, scorer][s] for s in SEPARATIONS]
    assert rank1 == sorted(rank1), dict(zip(SEPARATIONS, rank1))


def test_published_similarity_ranks_below_corrected_once_users_separate(rank1_by_separation):
    published = rank1_by_separation[SimilarityMode.AS_PUBLISHED, "sim"]
    corrected = rank1_by_separation[SimilarityMode.CORRECTED, "sim"]
    for separation in published:
        assert published[separation] < corrected[separation], (separation, published[separation])
