"""Reproducible synthetic typist corpora with controllable user separation.

Every user types one rank-weighted word list, and each platform has a fixed
expected session length. Hold times are log-normal per key, flight times
normal per key pair (negative flights = rollover typing). Every user-level
parameter deviation is scaled by ``separation``: zero separation yields
identical typist models, larger values spread users apart. All randomness
derives from the spec seed through independent per-(user, platform,
session) streams, so generation order never changes the output.

The corpus bytes depend on the order in which a session consumes its stream:
one normal for the session length, then per word one uniform double that
picks the word, followed by a hold normal and a flight normal for each of
the word's strikes. A word's strikes count its trailing SPACE and, after the
last word, the session's closing ENTER. The session's first strike has no
flight: its hold comes from ``lognormal`` and its press from
``uniform(20, 80)``. A hold is ``exp(loc + scale * z)`` and a flight
``mu + std * z``, as numpy's ``lognormal`` and ``normal`` compute them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .ingest import Corpus, SessionLog, check_platform_label

SPACE = "SPACE"
ENTER = "ENTER"

# rank-weighted common words; double letters exercise same-key digraphs
VOCABULARY = (
    "the", "and", "you", "that", "was", "for", "are", "with", "they",
    "this", "have", "from", "one", "had", "not", "what", "all", "were",
    "when", "your", "can", "said", "there", "each", "which", "she", "how",
    "their", "will", "other", "about", "out", "many", "then", "them",
    "these", "some", "her", "would", "make", "like", "him", "into", "time",
    "has", "look", "two", "more", "see", "way",
)
_KEYS = tuple(sorted(set("".join(VOCABULARY)))) + (SPACE, ENTER)
_KEY_INDEX = {key: i for i, key in enumerate(_KEYS)}

# a word draw searches one double in this cdf, built as Generator.choice builds it from p
_RANK_WEIGHTS = 1.0 / np.arange(1, len(VOCABULARY) + 1)
_WORD_CDF = (_RANK_WEIGHTS / _RANK_WEIGHTS.sum()).cumsum()
_WORD_CDF = (_WORD_CDF / _WORD_CDF[-1]).tolist()
_WORD_STRIKES = tuple((*word, SPACE) for word in VOCABULARY)  # the keys one word strikes

# expected keystrokes per session; Facebook posts run longest
VERBOSITY = {"F": 190.0, "I": 130.0, "T": 85.0}
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

# The largest separation. A user's session length scales by
# exp(separation * N(0, 0.15)): at 10 the chattiest of 50 users types a few
# dozen times the platform's length, and far beyond it lengths explode.
MAX_SEPARATION = 10.0

_POP_STREAM, _MODEL_STREAM, _EVENT_STREAM = 0, 1, 2


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    n_users: int = 26
    platforms: tuple[str, ...] = ("F", "I", "T")
    sessions_per_platform: int = 6
    separation: float = 1.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.sessions_per_platform < 1:
            raise ValueError("sessions_per_platform must be >= 1")
        if not 0.0 <= self.separation <= MAX_SEPARATION:  # NaN fails too
            raise ValueError(f"separation must be finite, >= 0 and <= {MAX_SEPARATION}, got {self.separation!r}")
        if not self.platforms or len(set(self.platforms)) != len(self.platforms):
            raise ValueError(f"platforms must be distinct and at least one, got {list(self.platforms)}")
        for label in self.platforms:
            check_platform_label(label)


@dataclass(frozen=True)
class TypistModel:
    user_id: str
    hold_log_loc: dict[str, float]
    hold_log_scale: float
    flight_base: float
    flight_out: dict[str, float]
    flight_in: dict[str, float]
    flight_std: float
    verbosity: dict[str, float]


def _rng(spec: SynthSpec, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((spec.seed,) + stream))


def sample_models(spec: SynthSpec) -> list[TypistModel]:
    """Draw one typist model per user from the population distributions."""
    pop = _rng(spec, _POP_STREAM)
    pop_hold = {k: pop.normal(0.0, _POP_HOLD_KEY_STD) for k in _KEYS}
    pop_out = {k: pop.normal(0.0, _POP_FLIGHT_KEY_STD) for k in _KEYS}
    pop_in = {k: pop.normal(0.0, _POP_FLIGHT_KEY_STD) for k in _KEYS}

    width = len(str(spec.n_users))
    sep = spec.separation
    models = []
    for index in range(spec.n_users):
        rng = _rng(spec, _MODEL_STREAM, index)
        hold_shift = sep * rng.normal(0.0, _USER_HOLD_SHIFT_STD)
        hold_keys = {k: sep * rng.normal(0.0, _USER_HOLD_KEY_STD) for k in _KEYS}
        hold_scale = _HOLD_LOG_SCALE * math.exp(sep * rng.normal(0.0, _USER_HOLD_SCALE_LOGSTD))
        flight_shift = sep * rng.normal(0.0, _USER_FLIGHT_SHIFT_STD)
        flight_out = {k: pop_out[k] + sep * rng.normal(0.0, _USER_FLIGHT_KEY_STD) for k in _KEYS}
        flight_in = {k: pop_in[k] + sep * rng.normal(0.0, _USER_FLIGHT_KEY_STD) for k in _KEYS}
        flight_std = _FLIGHT_STD * math.exp(sep * rng.normal(0.0, _USER_FLIGHT_STD_LOGSTD))
        chattiness = math.exp(sep * rng.normal(0.0, _USER_CHATTINESS_LOGSTD))
        models.append(
            TypistModel(
                user_id=f"u{index + 1:0{width}d}",
                hold_log_loc={k: _HOLD_LOG_LOC + pop_hold[k] + hold_shift + hold_keys[k] for k in _KEYS},
                hold_log_scale=hold_scale,
                flight_base=_FLIGHT_BASE + flight_shift,
                flight_out=flight_out,
                flight_in=flight_in,
                flight_std=flight_std,
                verbosity={
                    p: VERBOSITY.get(p, FALLBACK_VERBOSITY) * chattiness
                    for p in spec.platforms
                },
            )
        )
    return models


def _session_log(model: TypistModel, platform: str, session_id: int, rng: np.random.Generator) -> SessionLog:
    expected = model.verbosity[platform]
    target = max(4, int(round(rng.normal(expected, 0.12 * expected))))

    strikes: list[str] = []  # the key of each strike
    presses: list[float] = []
    releases: list[float] = []
    released = dict.fromkeys(_KEYS, -math.inf)  # each key's last release

    emitted = 0
    while emitted < target:
        word = _WORD_STRIKES[bisect.bisect_right(_WORD_CDF, rng.random())]
        emitted += len(word)
        if emitted >= target:
            word += (ENTER,)  # the closing ENTER draws with the last word
        if not strikes:  # the session's first strike has no flight: its press is drawn uniformly
            key, word = word[0], word[1:]
            hold = rng.lognormal(model.hold_log_loc[key], model.hold_log_scale)
            prev_key, prev_press = key, rng.uniform(20.0, 80.0)
            prev_release = released[key] = prev_press + hold
            strikes.append(key)
            presses.append(prev_press)
            releases.append(prev_release)
        z = rng.standard_normal(2 * len(word)).tolist()
        for key, hold_z, flight_z in zip(word, z[0::2], z[1::2]):
            # numpy's lognormal and normal, computed from the same draws
            hold = math.exp(model.hold_log_loc[key] + model.hold_log_scale * hold_z)
            flight = model.flight_base + model.flight_out[prev_key] + model.flight_in[key] + model.flight_std * flight_z
            # max(after the flight, 1 ms after the last press, 0.5 ms after this key's own
            # release: a key pressed again while held would read as auto-repeat), spelled
            # out, as a call to max per strike is a tenth of the generator's time
            press = prev_release + flight
            if press < prev_press + 1.0:
                press = prev_press + 1.0
            if press < released[key] + 0.5:
                press = released[key] + 0.5
            release = press + hold
            presses.append(press)
            releases.append(release)
            released[key] = release
            prev_key, prev_press, prev_release = key, press, release
        strikes += word

    # every press, then every release, in one stable sort by time
    times = np.array(presses + releases)
    order = np.argsort(times, kind="stable")
    keys = np.array(list(map(_KEY_INDEX.__getitem__, strikes * 2)), np.int32)[order]
    return SessionLog(model.user_id, platform, session_id, _KEYS, keys, order < len(presses), times[order])


def generate_corpus(spec: SynthSpec) -> Corpus:
    """Generate a full corpus of session logs for the spec's population."""
    models = sample_models(spec)
    logs = []
    for user_index, model in enumerate(models):
        for platform_index, platform in enumerate(spec.platforms):
            for session_id in range(1, spec.sessions_per_platform + 1):
                rng = _rng(spec, _EVENT_STREAM, user_index, platform_index, session_id)
                logs.append(_session_log(model, platform, session_id, rng))
    return Corpus.from_logs(logs)
