"""Platform scenarios, k-rank accuracy, and the benchmark driver.

A :class:`Scenario` is its kind, training platforms and test platform; its
name and the (platform, session) cells each side needs follow from those.
:func:`build_scenario_data` serves every scenario of a run at once: it
extracts each needed session once and turns it into its run of (feature id,
value) with :func:`keydyn.verifiers.session_runs`, over one vocabulary of
those sessions' feature names, and pools each distinct (user, side) profile
from those runs once, so scenarios that share a side share its prepared
profile. :func:`score_scenarios` yields each scenario's data with its
matrices, the per-scenario result that every command and metric reads.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateScenarioError,
    KOutOfRangeError,
    MalformedReportError,
    NoEligibleUsersError,
    OverlappingPlatformsError,
    SamePlatformError,
)
from .features import ALL_KINDS, Kind, session_features
from .ingest import Corpus, check_platform_label
from .matrix import ALL_SCORERS, ScoreMatrix, check_scorers, score_matrices
from .verifiers import (
    DEFAULT_ABSOLUTE_THRESHOLD,
    PreparedProfile,
    SimilarityMode,
    check_choices,
    check_threshold,
    prepare_profile,
    session_runs,
)

# the paper's split: same-platform scenarios enroll on sessions 1-3 and probe
# on 4-6; cross and combined scenarios use all six on both sides
ENROLL_SESSIONS = (1, 2, 3)
PROBE_SESSIONS = (4, 5, 6)
ALL_SESSIONS = ENROLL_SESSIONS + PROBE_SESSIONS

SCENARIO_KINDS = ("same", "cross", "combined")


@dataclass(frozen=True)
class Scenario:
    kind: str  # "same" | "cross" | "combined"
    train: tuple[str, ...]  # the enrollment platforms, sorted
    test: str  # the probe platform

    @property
    def name(self) -> str:
        """``F`` for a same-platform scenario, else the training platforms joined, ``-`` and the test one."""
        return self.test if self.kind == "same" else f"{''.join(self.train)}-{self.test}"

    @property
    def cells(self) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
        """The (platform, session) cells each user needs, for enrollment and for probing."""
        enroll, probe = (ENROLL_SESSIONS, PROBE_SESSIONS) if self.kind == "same" else (ALL_SESSIONS, ALL_SESSIONS)
        return tuple((p, s) for p in self.train for s in enroll), tuple((self.test, s) for s in probe)


@dataclass
class ScenarioData:
    scenario: Scenario
    enroll: dict[str, PreparedProfile]
    probe: dict[str, PreparedProfile]
    excluded: tuple[str, ...]


def _eligible_users(corpus: Corpus, scenario: Scenario) -> tuple[list[str], list[str]]:
    enroll, probe = scenario.cells
    eligible, excluded = [], []
    for user in corpus.roster:
        if all((user, platform, session) in corpus.sessions for platform, session in enroll + probe):
            eligible.append(user)
        else:
            excluded.append(user)
    if not eligible:
        raise NoEligibleUsersError(f"no user has every required session for scenario {scenario.name!r}")
    return eligible, excluded


def build_scenario_data(
    corpus: Corpus,
    scenarios: Sequence[Scenario],
    *,
    kinds: tuple[Kind, ...] = ALL_KINDS,
) -> list[ScenarioData]:
    """Prepared enrollment and probe profiles per user, for each of ``scenarios``.

    Users missing any required (platform, session) cell are excluded from a
    scenario; each scenario must leave at least one eligible user. Each
    needed session is extracted into its run once, and each distinct (user,
    side) profile is pooled from those runs once, over one
    :func:`~keydyn.verifiers.session_runs` vocabulary of the needed sessions'
    feature names.
    """
    rosters = [_eligible_users(corpus, scenario) for scenario in scenarios]
    sides = {
        (user, cells): [(user, platform, session) for platform, session in cells]
        for scenario, (eligible, _) in zip(scenarios, rosters)
        for cells in scenario.cells
        for user in eligible
    }
    needed = dict.fromkeys(cell for cells in sides.values() for cell in cells)
    # a generator, so each session's feature map dies as soon as it is a run
    runs, _ = session_runs(
        (session_features(corpus.sessions[cell], kinds) for cell in needed), (f"session {cell}" for cell in needed)
    )
    by_cell = dict(zip(needed, runs))
    prepared = {side: prepare_profile([by_cell[cell] for cell in cells]) for side, cells in sides.items()}
    return [
        ScenarioData(
            scenario, *({user: prepared[user, cells] for user in eligible} for cells in scenario.cells), tuple(excluded)
        )
        for scenario, (eligible, excluded) in zip(scenarios, rosters)
    ]


def same_platform_scenario(platform: str) -> Scenario:
    return Scenario("same", (check_platform_label(platform),), platform)


def cross_platform_scenario(train_platform: str, test_platform: str) -> Scenario:
    check_platform_label(train_platform)
    check_platform_label(test_platform)
    if train_platform == test_platform:
        raise SamePlatformError(f"cross-platform scenario needs two distinct platforms, got {train_platform!r} twice")
    return Scenario("cross", (train_platform,), test_platform)


def combined_cross_scenario(train_platforms: Iterable[str], test_platform: str) -> Scenario:
    train = sorted(set(map(check_platform_label, train_platforms)))
    check_platform_label(test_platform)
    if len(train) != 2:
        raise ValueError(f"combined-cross training set must hold two distinct platforms, got {train}")
    if test_platform in train:
        raise OverlappingPlatformsError(f"test platform {test_platform!r} overlaps training platforms {train}")
    return Scenario("combined", tuple(train), test_platform)


def _described(scenario: Scenario) -> str:
    return f"{scenario.kind} scenario enrolling on {list(scenario.train)} and probing on {[scenario.test]}"


def enumerate_scenarios(platforms: Iterable[str], scenario_kinds: tuple[str, ...] = SCENARIO_KINDS) -> list[Scenario]:
    """All scenarios the benchmark runs: per platform, per ordered pair, per
    two-platform training set against the remaining platform.

    A name joins platform labels with ``-``, so labels that hold ``-`` can give
    two scenarios one name: :class:`DuplicateScenarioError`.
    """
    platforms = sorted(set(platforms))
    scenarios: list[Scenario] = []
    if "same" in scenario_kinds:
        scenarios.extend(same_platform_scenario(p) for p in platforms)
    if "cross" in scenario_kinds:
        scenarios.extend(
            cross_platform_scenario(p1, p2)
            for p1 in platforms
            for p2 in platforms
            if p1 != p2
        )
    if "combined" in scenario_kinds:
        scenarios.extend(
            combined_cross_scenario(pair, p3)
            for pair in combinations(platforms, 2)
            for p3 in platforms
            if p3 not in pair
        )
    named: dict[str, Scenario] = {}
    for scenario in scenarios:
        if (other := named.setdefault(scenario.name, scenario)) is not scenario:
            raise DuplicateScenarioError(
                f"the {_described(other)} and the {_described(scenario)} share the name {scenario.name!r}"
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
    values = matrix.values
    genuine = np.diag(values)[:, None]
    # a probe's rank: cells above its genuine one, plus ties at a lower roster index
    rank = np.count_nonzero(values > genuine, axis=1) + np.count_nonzero(np.tril(values == genuine, -1), axis=1)
    return int(np.count_nonzero(rank < k)) / n


@dataclass(frozen=True)
class BenchmarkConfig:
    scorers: tuple[str, ...] = ALL_SCORERS
    similarity_mode: SimilarityMode = SimilarityMode.AS_PUBLISHED
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD
    k_max: int = 5
    kinds: tuple[Kind, ...] = ALL_KINDS
    scenario_kinds: tuple[str, ...] = SCENARIO_KINDS

    def __post_init__(self) -> None:
        check_scorers(self.scorers)
        check_choices(self.kinds, ALL_KINDS, "feature kind")
        check_choices(self.scenario_kinds, SCENARIO_KINDS, "scenario kind")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        check_threshold(self.threshold)

    def describe(self) -> dict:
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        doc["similarity_mode"] = self.similarity_mode.value
        doc["kinds"] = [k.value for k in self.kinds]
        # the split is fixed, and a report still records which sessions it used
        doc["enroll_sessions"] = list(ENROLL_SESSIONS)
        doc["probe_sessions"] = list(PROBE_SESSIONS)
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


def score_scenarios(
    corpus: Corpus, scenarios: Sequence[Scenario], config: BenchmarkConfig
) -> Iterator[tuple[ScenarioData, dict[str, ScoreMatrix]]]:
    """Each scenario's :class:`ScenarioData` with its matrices, keyed by scorer label, scored as ``config`` says.

    The scenarios' profiles are built at once by :func:`build_scenario_data`;
    each scenario is scored only when it is reached, so its matrices can die
    before the next one is scored. Scoring reads only the profiles, so the
    generator lets ``corpus`` go once they are built: a caller that keeps
    no reference to it, nor to any of its sessions, has it freed before the
    first scenario is scored.
    """
    built = build_scenario_data(corpus, scenarios, kinds=config.kinds)
    del corpus
    for data in built:
        yield data, score_matrices(
            data.enroll,
            data.probe,
            config.scorers,
            mode=config.similarity_mode,
            threshold=config.threshold,
            scenario=data.scenario.name,
        )


def run_benchmark(corpus: Corpus, config: BenchmarkConfig = BenchmarkConfig()) -> EvaluationReport:
    """Run every configured scenario x scorer and collect k-rank accuracies.

    Deterministic for a given corpus and config. NoEligibleUsersError when the corpus
    holds no session or its platforms form no scenario of the configured kinds.
    The report's ``dataset`` block is read first; then the corpus is let go
    as :func:`score_scenarios` lets it go, so it is freed before scoring
    unless the caller holds it.
    """
    if not corpus.sessions:
        raise NoEligibleUsersError("corpus holds no sessions")
    scenarios = enumerate_scenarios(corpus.platforms, config.scenario_kinds)
    if not scenarios:
        raise NoEligibleUsersError(
            f"scenario kinds {list(config.scenario_kinds)} form no scenario on platforms {corpus.platforms}"
        )
    report = EvaluationReport(config=config.describe(), dataset=corpus.summary())
    scored = score_scenarios(corpus, scenarios, config)
    del corpus
    for data, matrices in scored:
        scenario = data.scenario
        n = len(data.enroll)
        report.scenarios.append(ScenarioSummary(scenario.name, scenario.kind, n, data.excluded))
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


def _typed(value: Any, kind: type | tuple[type, ...], name: str) -> Any:
    """``value`` if it is a ``kind``, else TypeError; a JSON true or false is no number here."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} has the wrong type: {value!r}")
    return value


def _field(value: Any, name: str) -> str:
    """``value`` if it is text that one CSV field carries unchanged: no comma or line break."""
    if "," in _typed(value, str, name) or value.splitlines() not in ([], [value]):
        raise ValueError(f"{name} holds a comma or a line break: {value!r}")
    return value


def _within(value: Any, kind: type | tuple[type, ...], name: str, low: float, high: float = math.inf) -> Any:
    """``value`` if it is a ``kind`` within [``low``, ``high``]; NaN is not."""
    if not low <= _typed(value, kind, name) <= high:
        raise ValueError(f"{name} must be within [{low}, {high}], got {value!r}")
    return value


def _result(doc: dict, listed: dict[str, ScenarioSummary]) -> ResultRow:
    """A result of a ``listed`` scenario, with that scenario's kind and a k within its users."""
    scenario = listed[check_choices([doc["scenario"]], tuple(listed), "listed scenario")[0]]
    if doc["kind"] != scenario.kind:
        raise ValueError(f"a result of the {scenario.kind} scenario {scenario.name!r} has kind {doc['kind']!r}")
    return ResultRow(
        scenario.name,
        scenario.kind,
        check_choices([doc["scorer"]], ALL_SCORERS, "scorer")[0],
        _within(doc["k"], int, "k", 1, scenario.n_users),
        _within(doc["accuracy"], (int, float), "accuracy", 0, 1),
    )


def report_from_json(text: str | bytes) -> EvaluationReport:
    """Read back a :func:`report_to_json` document, as text or UTF-8 bytes; MalformedReportError if it is not one."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        report = EvaluationReport(config=doc["config"], dataset=doc["dataset"])
        report.scenarios = [
            ScenarioSummary(
                _field(s["name"], "name"),
                check_choices([s["kind"]], SCENARIO_KINDS, "scenario kind")[0],
                _within(s["n_users"], int, "n_users", 1),
                tuple(_field(user, "an excluded user") for user in _typed(s["excluded"], list, "excluded")),
            )
            for s in doc["scenarios"]
        ]
        listed = {s.name: s for s in report.scenarios}
        if len(listed) < len(report.scenarios):
            raise ValueError("a scenario is listed twice")
        report.rows = [_result(r, listed) for r in doc["results"]]
        if len({(r.scenario, r.scorer, r.k) for r in report.rows}) < len(report.rows):
            raise ValueError("a (scenario, scorer, k) result is repeated")
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedReportError(f"not an evaluation report: {exc.__class__.__name__}: {exc}") from None
    return report


def report_to_csv(report: EvaluationReport) -> str:
    """Long-form CSV (scenario, kind, scorer, k, accuracy), plot-ready."""
    out = io.StringIO()
    out.write("scenario,kind,scorer,k,accuracy\n")
    for row in report.rows:
        out.write(f"{row.scenario},{row.kind},{row.scorer},{row.k},{row.accuracy!r}\n")
    return out.getvalue()
