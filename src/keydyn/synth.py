"""Reproducible synthetic typist corpora with controllable user separation.

Hold times are log-normal per key, flight times normal per key pair
(negative flights = rollover typing). Every user-level parameter deviation
is scaled by ``separation``: zero separation yields identical typist models,
larger values spread users apart. All randomness derives from the spec seed
through independent per-(user, platform, session) streams, so generation
order never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ingest import Action, Corpus, KeyEvent, SessionLog

SPACE = "SPACE"
ENTER = "ENTER"

# rank-weighted common words; double letters exercise same-key digraphs
DEFAULT_VOCABULARY = (
    "the", "and", "you", "that", "was", "for", "are", "with", "they",
    "this", "have", "from", "one", "had", "not", "what", "all", "were",
    "when", "your", "can", "said", "there", "each", "which", "she", "how",
    "their", "will", "other", "about", "out", "many", "then", "them",
    "these", "some", "her", "would", "make", "like", "him", "into", "time",
    "has", "look", "two", "more", "see", "way",
)

# expected keystrokes per session; Facebook posts run longest
DEFAULT_VERBOSITY = {"F": 190.0, "I": 130.0, "T": 85.0}
FALLBACK_VERBOSITY = 120.0

_HOLD_LOG_LOC = math.log(92.0)  # median hold ~92 ms
_HOLD_LOG_SCALE = 0.19
_FLIGHT_BASE = 140.0  # ms
_FLIGHT_STD = 28.0

# population-level per-key spread (shared by all users)
_POP_HOLD_KEY_STD = 0.12
_POP_FLIGHT_KEY_STD = 12.0

# per-user deviations, multiplied by `separation`
_USER_HOLD_SHIFT_STD = 0.17
_USER_HOLD_KEY_STD = 0.10
_USER_HOLD_SCALE_LOGSTD = 0.10
_USER_FLIGHT_SHIFT_STD = 26.0
_USER_FLIGHT_KEY_STD = 11.0
_USER_FLIGHT_STD_LOGSTD = 0.10
_USER_CHATTINESS_LOGSTD = 0.15

_POP_STREAM, _MODEL_STREAM, _EVENT_STREAM = 0, 1, 2


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    n_users: int = 26
    platforms: tuple[str, ...] = ("F", "I", "T")
    sessions_per_platform: int = 6
    separation: float = 1.0
    vocabulary: tuple[str, ...] = DEFAULT_VOCABULARY
    verbosity: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_VERBOSITY))

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.sessions_per_platform < 1:
            raise ValueError("sessions_per_platform must be >= 1")
        if self.separation < 0:
            raise ValueError("separation must be >= 0")


@dataclass(frozen=True)
class TypistModel:
    user_id: str
    hold_log_loc: dict[str, float]
    hold_log_scale: float
    flight_base: float
    flight_out: dict[str, float]
    flight_in: dict[str, float]
    flight_std: float
    vocabulary: tuple[str, ...]
    word_weights: tuple[float, ...]
    verbosity: dict[str, float]


def _key_universe(vocabulary: Iterable[str]) -> list[str]:
    return sorted(set("".join(vocabulary))) + [SPACE, ENTER]


def _rng(spec: SynthSpec, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((spec.seed,) + stream))


def sample_models(spec: SynthSpec) -> list[TypistModel]:
    """Draw one typist model per user from the population distributions."""
    keys = _key_universe(spec.vocabulary)
    pop = _rng(spec, _POP_STREAM)
    pop_hold = {k: pop.normal(0.0, _POP_HOLD_KEY_STD) for k in keys}
    pop_out = {k: pop.normal(0.0, _POP_FLIGHT_KEY_STD) for k in keys}
    pop_in = {k: pop.normal(0.0, _POP_FLIGHT_KEY_STD) for k in keys}

    ranks = np.arange(1, len(spec.vocabulary) + 1, dtype=np.float64)
    weights = (1.0 / ranks) / (1.0 / ranks).sum()

    width = len(str(spec.n_users))
    sep = spec.separation
    models = []
    for index in range(spec.n_users):
        rng = _rng(spec, _MODEL_STREAM, index)
        hold_shift = sep * rng.normal(0.0, _USER_HOLD_SHIFT_STD)
        hold_keys = {k: sep * rng.normal(0.0, _USER_HOLD_KEY_STD) for k in keys}
        hold_scale = _HOLD_LOG_SCALE * math.exp(sep * rng.normal(0.0, _USER_HOLD_SCALE_LOGSTD))
        flight_shift = sep * rng.normal(0.0, _USER_FLIGHT_SHIFT_STD)
        flight_out = {k: pop_out[k] + sep * rng.normal(0.0, _USER_FLIGHT_KEY_STD) for k in keys}
        flight_in = {k: pop_in[k] + sep * rng.normal(0.0, _USER_FLIGHT_KEY_STD) for k in keys}
        flight_std = _FLIGHT_STD * math.exp(sep * rng.normal(0.0, _USER_FLIGHT_STD_LOGSTD))
        chattiness = math.exp(sep * rng.normal(0.0, _USER_CHATTINESS_LOGSTD))
        models.append(
            TypistModel(
                user_id=f"u{index + 1:0{width}d}",
                hold_log_loc={k: _HOLD_LOG_LOC + pop_hold[k] + hold_shift + hold_keys[k] for k in keys},
                hold_log_scale=hold_scale,
                flight_base=_FLIGHT_BASE + flight_shift,
                flight_out=flight_out,
                flight_in=flight_in,
                flight_std=flight_std,
                vocabulary=tuple(spec.vocabulary),
                word_weights=tuple(weights),
                verbosity={
                    p: spec.verbosity.get(p, FALLBACK_VERBOSITY) * chattiness
                    for p in spec.platforms
                },
            )
        )
    return models


def _session_events(model: TypistModel, platform: str, rng: np.random.Generator) -> list[KeyEvent]:
    expected = model.verbosity.get(platform, FALLBACK_VERBOSITY)
    target = max(4, int(round(rng.normal(expected, 0.12 * expected))))

    word_ids = np.arange(len(model.vocabulary))
    times: list[tuple[str, float, float]] = []
    prev_key: str | None = None
    prev_press = 0.0
    prev_release = 0.0

    def strike(key: str) -> None:
        nonlocal prev_key, prev_press, prev_release
        hold = rng.lognormal(model.hold_log_loc[key], model.hold_log_scale)
        if prev_key is None:
            press = rng.uniform(20.0, 80.0)
        else:
            flight = rng.normal(
                model.flight_base + model.flight_out[prev_key] + model.flight_in[key],
                model.flight_std,
            )
            press = prev_release + flight
            floor = prev_press + 1.0
            if key == prev_key:
                # same key again before its release would read as auto-repeat
                floor = max(floor, prev_release + 0.5)
            press = max(press, floor)
        release = press + hold
        times.append((key, press, release))
        prev_key, prev_press, prev_release = key, press, release

    emitted = 0
    while emitted < target:
        word = model.vocabulary[rng.choice(word_ids, p=model.word_weights)]
        for char in word:
            strike(char)
        strike(SPACE)
        emitted += len(word) + 1
    strike(ENTER)

    events = [KeyEvent(key, Action.PRESS, press) for key, press, _ in times]
    events += [KeyEvent(key, Action.RELEASE, release) for key, _, release in times]
    events.sort(key=lambda e: e.time_ms)
    return events


def generate_corpus(spec: SynthSpec) -> Corpus:
    """Generate a full corpus of session logs for the spec's population."""
    models = sample_models(spec)
    logs = []
    for user_index, model in enumerate(models):
        for platform_index, platform in enumerate(spec.platforms):
            for session_id in range(1, spec.sessions_per_platform + 1):
                rng = _rng(spec, _EVENT_STREAM, user_index, platform_index, session_id)
                events = _session_events(model, platform, rng)
                logs.append(SessionLog(model.user_id, platform, session_id, events))
    return Corpus.from_logs(logs)
