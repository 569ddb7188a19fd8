"""Platform scenarios, k-rank accuracy, and the benchmark driver."""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import (
    KOutOfRangeError,
    NoEligibleUsersError,
    OverlappingPlatformsError,
    SamePlatformError,
)
from .features import ALL_KINDS, FeatureDictionary, Kind, merge, session_features
from .ingest import Corpus
from .matrix import FusionMethod, ScoreMatrix, score_matrices
from .verifiers import ScorerSpec, SimilarityMode, Verifier

# (platform, session ids) cells required from each user for one side
SideSpec = tuple[tuple[str, tuple[int, ...]], ...]

DEFAULT_ENROLL_SESSIONS = (1, 2, 3)
DEFAULT_PROBE_SESSIONS = (4, 5, 6)

BASE_SCORERS = (Verifier.SIMILARITY.value, Verifier.ABSOLUTE.value, Verifier.ITAD.value)
FUSION_SCORERS = tuple(m.value for m in FusionMethod)
ALL_SCORERS = BASE_SCORERS + FUSION_SCORERS


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "same" | "cross" | "combined"
    enroll_spec: SideSpec
    probe_spec: SideSpec


@dataclass
class ScenarioData:
    scenario: Scenario
    enroll: dict[str, FeatureDictionary]
    probe: dict[str, FeatureDictionary]
    excluded: tuple[str, ...]


def _required_cells(spec: SideSpec) -> list[tuple[str, int]]:
    return [(platform, session) for platform, sessions in spec for session in sessions]


def _eligible_users(corpus: Corpus, scenario: Scenario) -> tuple[list[str], list[str]]:
    cells = _required_cells(scenario.enroll_spec) + _required_cells(scenario.probe_spec)
    eligible, excluded = [], []
    for user in corpus.roster:
        if all((user, platform, session) in corpus.sessions for platform, session in cells):
            eligible.append(user)
        else:
            excluded.append(user)
    if not eligible:
        raise NoEligibleUsersError(f"no user has every required session for scenario {scenario.name!r}")
    return eligible, excluded


def _merged_profile(
    corpus: Corpus,
    user: str,
    spec: SideSpec,
    kinds: tuple[Kind, ...],
    session_cache: dict[tuple[str, str, int], FeatureDictionary],
) -> FeatureDictionary:
    parts = []
    for platform, sessions in spec:
        for session in sessions:
            key = (user, platform, session)
            if key not in session_cache:
                session_cache[key] = session_features(corpus.sessions[key], kinds)
            parts.append(session_cache[key])
    return merge(parts)


def build_scenario_data(
    corpus: Corpus,
    scenario: Scenario,
    *,
    kinds: tuple[Kind, ...] = ALL_KINDS,
    session_cache: dict | None = None,
) -> ScenarioData:
    """Materialize per-user enrollment and probe profiles for one scenario.

    Users missing any required (platform, session) cell are excluded from
    the scenario; the roster must leave at least one eligible user.
    """
    cache = session_cache if session_cache is not None else {}
    eligible, excluded = _eligible_users(corpus, scenario)
    enroll = {u: _merged_profile(corpus, u, scenario.enroll_spec, kinds, cache) for u in eligible}
    probe = {u: _merged_profile(corpus, u, scenario.probe_spec, kinds, cache) for u in eligible}
    return ScenarioData(scenario, enroll, probe, tuple(excluded))


def same_platform_scenario(
    platform: str,
    enroll_sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS,
    probe_sessions: tuple[int, ...] = DEFAULT_PROBE_SESSIONS,
) -> Scenario:
    return Scenario(
        platform,
        "same",
        ((platform, tuple(enroll_sessions)),),
        ((platform, tuple(probe_sessions)),),
    )


def cross_platform_scenario(
    train_platform: str,
    test_platform: str,
    sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS + DEFAULT_PROBE_SESSIONS,
) -> Scenario:
    if train_platform == test_platform:
        raise SamePlatformError(f"cross-platform scenario needs two distinct platforms, got {train_platform!r} twice")
    return Scenario(
        f"{train_platform}-{test_platform}",
        "cross",
        ((train_platform, tuple(sessions)),),
        ((test_platform, tuple(sessions)),),
    )


def combined_cross_scenario(
    train_platforms: Iterable[str],
    test_platform: str,
    sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS + DEFAULT_PROBE_SESSIONS,
) -> Scenario:
    train = sorted(set(train_platforms))
    if len(train) != 2:
        raise ValueError(f"combined-cross training set must hold two distinct platforms, got {train}")
    if test_platform in train:
        raise OverlappingPlatformsError(f"test platform {test_platform!r} overlaps training platforms {train}")
    sessions = tuple(sessions)
    return Scenario(
        f"{''.join(train)}-{test_platform}",
        "combined",
        tuple((p, sessions) for p in train),
        ((test_platform, sessions),),
    )


def split_same_platform(
    corpus: Corpus,
    platform: str,
    *,
    enroll_sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS,
    probe_sessions: tuple[int, ...] = DEFAULT_PROBE_SESSIONS,
    kinds: tuple[Kind, ...] = ALL_KINDS,
) -> ScenarioData:
    """Enroll on the first sessions of one platform, probe on the rest."""
    scenario = same_platform_scenario(platform, enroll_sessions, probe_sessions)
    return build_scenario_data(corpus, scenario, kinds=kinds)


def build_cross_platform(
    corpus: Corpus,
    train_platform: str,
    test_platform: str,
    *,
    sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS + DEFAULT_PROBE_SESSIONS,
    kinds: tuple[Kind, ...] = ALL_KINDS,
) -> ScenarioData:
    """Enroll on all sessions of one platform, probe on another's."""
    scenario = cross_platform_scenario(train_platform, test_platform, sessions)
    return build_scenario_data(corpus, scenario, kinds=kinds)


def build_combined_cross(
    corpus: Corpus,
    train_platforms: Iterable[str],
    test_platform: str,
    *,
    sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS + DEFAULT_PROBE_SESSIONS,
    kinds: tuple[Kind, ...] = ALL_KINDS,
) -> ScenarioData:
    """Enroll on two platforms' merged sessions, probe on a third platform."""
    scenario = combined_cross_scenario(train_platforms, test_platform, sessions)
    return build_scenario_data(corpus, scenario, kinds=kinds)


def enumerate_scenarios(
    platforms: Iterable[str],
    scenario_kinds: tuple[str, ...] = ("same", "cross", "combined"),
    enroll_sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS,
    probe_sessions: tuple[int, ...] = DEFAULT_PROBE_SESSIONS,
) -> list[Scenario]:
    """All scenarios the benchmark runs: per platform, per ordered pair, per
    two-platform training set against the remaining platform."""
    platforms = sorted(set(platforms))
    all_sessions = tuple(sorted(set(enroll_sessions) | set(probe_sessions)))
    scenarios: list[Scenario] = []
    if "same" in scenario_kinds:
        scenarios.extend(same_platform_scenario(p, enroll_sessions, probe_sessions) for p in platforms)
    if "cross" in scenario_kinds:
        scenarios.extend(
            cross_platform_scenario(p1, p2, all_sessions)
            for p1 in platforms
            for p2 in platforms
            if p1 != p2
        )
    if "combined" in scenario_kinds:
        scenarios.extend(
            combined_cross_scenario(pair, p3, all_sessions)
            for pair in combinations(platforms, 2)
            for p3 in platforms
            if p3 not in pair
        )
    return scenarios


def k_rank_accuracy(matrix: ScoreMatrix, k: int) -> float:
    """Fraction of probes whose genuine enrollment ranks in the top k.

    Columns are ranked by descending score; ties break toward the lower
    enrollment roster index.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside 1..{n}")
    correct = 0
    for i, row in enumerate(matrix.values):
        genuine = row[i]
        better = int(np.count_nonzero(row > genuine))
        tied_before = int(np.count_nonzero(row[:i] == genuine))
        if better + tied_before < k:
            correct += 1
    return correct / n


@dataclass(frozen=True)
class BenchmarkConfig:
    scorers: tuple[str, ...] = ALL_SCORERS
    similarity_mode: SimilarityMode = SimilarityMode.AS_PUBLISHED
    threshold: float = 1.5
    k_max: int = 5
    enroll_sessions: tuple[int, ...] = DEFAULT_ENROLL_SESSIONS
    probe_sessions: tuple[int, ...] = DEFAULT_PROBE_SESSIONS
    kinds: tuple[Kind, ...] = ALL_KINDS
    scenario_kinds: tuple[str, ...] = ("same", "cross", "combined")

    def __post_init__(self) -> None:
        unknown = [s for s in self.scorers if s not in ALL_SCORERS]
        if unknown:
            raise ValueError(f"unknown scorers {unknown}; choose from {list(ALL_SCORERS)}")
        if not self.scorers:
            raise ValueError("at least one scorer must be selected")
        if not self.scenario_kinds:
            raise ValueError("at least one scenario kind must be selected")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        overlap = sorted(set(self.enroll_sessions) & set(self.probe_sessions))
        if overlap:
            raise ValueError(f"enroll and probe sessions overlap: {overlap}")
        ScorerSpec(Verifier.ABSOLUTE, self.similarity_mode, self.threshold)  # validates the threshold

    def describe(self) -> dict:
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        doc["similarity_mode"] = self.similarity_mode.value
        doc["kinds"] = [k.value for k in self.kinds]
        return doc


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    kind: str
    scorer: str
    k: int
    accuracy: float


@dataclass
class ScenarioSummary:
    name: str
    kind: str
    n_users: int
    excluded: tuple[str, ...]


@dataclass
class EvaluationReport:
    config: dict
    dataset: dict
    scenarios: list[ScenarioSummary] = field(default_factory=list)
    rows: list[ResultRow] = field(default_factory=list)

    def accuracy(self, scenario: str, scorer: str, k: int) -> float:
        for row in self.rows:
            if (row.scenario, row.scorer, row.k) == (scenario, scorer, k):
                return row.accuracy
        raise KeyError((scenario, scorer, k))


def _dataset_summary(corpus: Corpus) -> dict:
    return {
        "users": len(corpus.roster),
        "platforms": corpus.platforms,
        "sessions": len(corpus.sessions),
        "events": sum(len(log.events) for log in corpus.sessions.values()),
    }


def run_benchmark(corpus: Corpus, config: BenchmarkConfig = BenchmarkConfig()) -> EvaluationReport:
    """Run every configured scenario x scorer and collect k-rank accuracies.

    Deterministic for a given corpus and config.
    """
    if not corpus.sessions:
        raise NoEligibleUsersError("corpus holds no sessions")
    scenarios = enumerate_scenarios(
        corpus.platforms, config.scenario_kinds, config.enroll_sessions, config.probe_sessions
    )
    report = EvaluationReport(config=config.describe(), dataset=_dataset_summary(corpus))

    session_cache: dict[tuple[str, str, int], FeatureDictionary] = {}
    for scenario in scenarios:
        data = build_scenario_data(corpus, scenario, kinds=config.kinds, session_cache=session_cache)
        n = len(data.enroll)
        report.scenarios.append(ScenarioSummary(scenario.name, scenario.kind, n, data.excluded))
        matrices = score_matrices(
            data.enroll,
            data.probe,
            config.scorers,
            mode=config.similarity_mode,
            threshold=config.threshold,
            scenario=scenario.name,
        )
        for scorer in config.scorers:
            for k in range(1, min(config.k_max, n) + 1):
                accuracy = k_rank_accuracy(matrices[scorer], k)
                report.rows.append(ResultRow(scenario.name, scenario.kind, scorer, k, accuracy))

    report.rows.sort(key=lambda r: (r.scenario, r.scorer, r.k))
    return report


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "config": report.config,
        "dataset": report.dataset,
        "scenarios": [asdict(s) for s in report.scenarios],
        "results": [asdict(r) for r in report.rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> EvaluationReport:
    doc = json.loads(text)
    report = EvaluationReport(config=doc["config"], dataset=doc["dataset"])
    report.scenarios = [
        ScenarioSummary(s["name"], s["kind"], s["n_users"], tuple(s["excluded"]))
        for s in doc["scenarios"]
    ]
    report.rows = [
        ResultRow(r["scenario"], r["kind"], r["scorer"], r["k"], r["accuracy"])
        for r in doc["results"]
    ]
    return report


def report_to_csv(report: EvaluationReport) -> str:
    """Long-form CSV (scenario, kind, scorer, k, accuracy), plot-ready."""
    out = io.StringIO()
    out.write("scenario,kind,scorer,k,accuracy\n")
    for row in report.rows:
        out.write(f"{row.scenario},{row.kind},{row.scorer},{row.k},{row.accuracy!r}\n")
    return out.getvalue()
