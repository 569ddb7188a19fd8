"""Score matrices over a user roster, and score-level fusion."""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import NonFiniteScoreError, RosterMismatchError, ShapeMismatchError
from .verifiers import (
    DEFAULT_ABSOLUTE_THRESHOLD,
    PreparedProfile,
    ProfileLike,
    Roster,
    SimilarityMode,
    Verifier,
    absolute_from_prepared,
    check_threshold,
    itad_from_prepared,
    prepare_profile,
    session_runs,
    similarity_from_prepared,
)


class FusionMethod(str, Enum):
    MEAN = "fmean"
    MEDIAN = "fmedian"
    MIN = "fmin"
    MAX = "fmax"


ALL_SCORERS = tuple(v.value for v in Verifier) + tuple(m.value for m in FusionMethod)


def check_scorers(labels: Sequence[str]) -> Sequence[str]:
    """Return the scorer ``labels``; ValueError unless there is at least one, each known and none repeated."""
    if unknown := [s for s in labels if s not in ALL_SCORERS]:
        raise ValueError(f"unknown scorers {unknown}; choose from {list(ALL_SCORERS)}")
    if not labels:
        raise ValueError("at least one scorer must be selected")
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated scorers in {list(labels)}")
    return labels


@dataclass
class ScoreMatrix:
    """n x n match scores; rows index probe users, columns enrollment users."""

    roster: tuple[str, ...]
    values: np.ndarray
    scorer: str = ""
    scenario: str = ""

    @property
    def n(self) -> int:
        return len(self.roster)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.roster), len(self.roster)):
            raise ShapeMismatchError(
                f"values shape {self.values.shape} does not match roster of {len(self.roster)}"
            )
        if not np.isfinite(self.values).all():
            raise NonFiniteScoreError(f"score matrix {self.scorer!r} holds a non-finite value")


def score_matrices(
    enroll: Mapping[str, PreparedProfile],
    probe: Mapping[str, PreparedProfile],
    scorers: Sequence[str],
    *,
    mode: SimilarityMode = SimilarityMode.AS_PUBLISHED,
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
    scenario: str = "",
) -> dict[str, ScoreMatrix]:
    """One scenario's matrices for the given scorer labels, keyed by label.

    ``values[i][j]`` of each matrix is the score of probe ``roster[i]``
    against enrollment ``roster[j]``, the roster being the sorted user ids.
    Both sides must be prepared with one vocabulary. Base verifier labels are
    ``sim``, ``abs`` and ``itad``; a fusion label (``fmean``...) fuses all
    three, which are then built even when not requested. ``mode`` applies to
    Similarity and ``threshold`` to Absolute, but every scorer requires a
    valid threshold; :func:`check_scorers` checks the labels.
    """
    check_scorers(scorers)
    check_threshold(threshold)
    if set(enroll) != set(probe):
        raise RosterMismatchError(f"enroll/probe user sets differ: {sorted(set(enroll) ^ set(probe))}")
    users = tuple(sorted(enroll))
    if not users:
        return {label: ScoreMatrix((), np.zeros((0, 0)), label, scenario) for label in scorers}
    roster = Roster([enroll[u] for u in users], [probe[u] for u in users])
    kernels = {
        Verifier.SIMILARITY: lambda: similarity_from_prepared(roster, mode),
        Verifier.ABSOLUTE: lambda: absolute_from_prepared(roster, threshold),
        Verifier.ITAD: lambda: itad_from_prepared(roster),
    }
    fusions = [method for method in FusionMethod if method.value in scorers]
    matrices: dict[str, ScoreMatrix] = {}
    for verifier, kernel in kernels.items():
        if verifier.value in scorers or fusions:
            matrices[verifier.value] = ScoreMatrix(users, kernel(), verifier.value, scenario)
    for method in fusions:
        matrices[method.value] = fuse([matrices[v.value] for v in Verifier], method)
    return {label: matrices[label] for label in scorers}


def build_score_matrix(
    enroll: Mapping[str, ProfileLike],
    probe: Mapping[str, ProfileLike],
    verifier: Verifier,
    *,
    mode: SimilarityMode = SimilarityMode.AS_PUBLISHED,
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
    scenario: str = "",
) -> ScoreMatrix:
    """Build one verifier's score matrix from plain profile maps, one per user and side."""
    runs, _ = session_runs(itertools.chain(enroll.values(), probe.values()))
    enroll_prep = {u: prepare_profile([run]) for u, run in zip(enroll, runs)}
    probe_prep = {u: prepare_profile([run]) for u, run in zip(probe, runs[len(enroll) :])}
    label = verifier.value
    return score_matrices(enroll_prep, probe_prep, (label,), mode=mode, threshold=threshold, scenario=scenario)[label]


def fuse(matrices: Sequence[ScoreMatrix], method: FusionMethod) -> ScoreMatrix:
    """Element-wise fusion of score matrices from different verifiers."""
    if len(matrices) < 2:
        raise ValueError("fusion needs at least two matrices")
    first = matrices[0]
    for m in matrices[1:]:
        if m.roster != first.roster:
            raise RosterMismatchError(f"rosters differ: {m.roster} vs {first.roster}")
        if m.values.shape != first.values.shape:
            raise ShapeMismatchError(f"shapes differ: {m.values.shape} vs {first.values.shape}")
    # sorting per cell makes mean accumulation order-independent bit-for-bit
    stacked = np.sort(np.stack([m.values for m in matrices]), axis=0)
    if method is FusionMethod.MEAN:
        # clip shaves the ulp-level float excursions past the input range
        fused = np.clip(stacked.mean(axis=0), 0.0, 1.0)
    elif method is FusionMethod.MEDIAN:
        mid = len(matrices) // 2
        if len(matrices) % 2 == 1:
            fused = stacked[mid]
        else:
            fused = np.clip((stacked[mid - 1] + stacked[mid]) / 2, 0.0, 1.0)
    elif method is FusionMethod.MIN:
        fused = stacked[0]
    else:
        fused = stacked[-1]
    return ScoreMatrix(first.roster, fused, method.value, first.scenario)


def matrix_to_csv(matrix: ScoreMatrix) -> str:
    out = io.StringIO()
    out.write("probe," + ",".join(matrix.roster) + "\n")
    for user, row in zip(matrix.roster, matrix.values):
        out.write(user + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def matrix_to_json(matrix: ScoreMatrix) -> str:
    doc = {
        "scorer": matrix.scorer,
        "scenario": matrix.scenario,
        "roster": list(matrix.roster),
        "values": [[float(v) for v in row] for row in matrix.values],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

