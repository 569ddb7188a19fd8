"""Timing-feature extraction: unigraphs, digraphs, word holds, and profiles.

Each extractor maps paired keystrokes of ONE session to a feature dictionary:
an associative map from feature key to the list of observed durations (ms) in
occurrence order. The three kinds live in one dictionary with kind-disjoint
keys, so verifiers see a single common-feature set.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import MixedUserError
from .ingest import PairedKeystroke, SessionLog, pair_events


class Kind(str, Enum):
    UNIGRAPH = "U"
    DIGRAPH = "D"
    WORDHOLD = "W"


ALL_KINDS = (Kind.UNIGRAPH, Kind.DIGRAPH, Kind.WORDHOLD)


class FeatureKey(NamedTuple):
    kind: Kind
    label: str | tuple[str, str]

    def to_string(self) -> str:
        if self.kind is Kind.DIGRAPH:
            return f"D:{self.label[0]}|{self.label[1]}"
        return f"{self.kind.value}:{self.label}"


def unigraph_key(key: str) -> FeatureKey:
    return FeatureKey(Kind.UNIGRAPH, key)


def digraph_key(first: str, second: str) -> FeatureKey:
    return FeatureKey(Kind.DIGRAPH, (first, second))


def wordhold_key(word: str) -> FeatureKey:
    return FeatureKey(Kind.WORDHOLD, word)


@dataclass
class FeatureDictionary(Mapping[FeatureKey, "list[float]"]):
    """Feature key -> duration list, tagged with its provenance.

    Implements the Mapping protocol over ``entries`` so scoring code can
    treat it like a plain dict.
    """

    entries: dict[FeatureKey, list[float]] = field(default_factory=dict)
    user_id: str = ""
    platforms: frozenset[str] = frozenset()
    sessions: frozenset[int] = frozenset()

    def __getitem__(self, key: FeatureKey) -> list[float]:
        return self.entries[key]

    def __iter__(self) -> Iterator[FeatureKey]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def value_count(self) -> int:
        return sum(len(v) for v in self.entries.values())


def _keyed(kind: Kind, grouped: dict) -> FeatureDictionary:
    """Wrap each raw label of ``grouped`` in its feature key once, in insertion order."""
    return FeatureDictionary({FeatureKey(kind, label): values for label, values in grouped.items()})


def extract_unigraphs(pairs: Sequence[PairedKeystroke]) -> FeatureDictionary:
    """Key hold times: release minus press per occurrence of each key."""
    grouped: defaultdict[str, list[float]] = defaultdict(list)
    for key, press_ms, release_ms in pairs:
        grouped[key].append(release_ms - press_ms)
    return _keyed(Kind.UNIGRAPH, grouped)


def extract_digraphs(pairs: Sequence[PairedKeystroke]) -> FeatureDictionary:
    """Key interval times between consecutive keystrokes of one session.

    The latency is press(next) - release(previous); rollover typing makes
    negative values legitimate and they are retained. No pause filtering.
    """
    grouped: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    for (first, _, release_ms), (second, press_ms, _) in zip(pairs, pairs[1:]):
        grouped[first, second].append(press_ms - release_ms)
    return _keyed(Kind.DIGRAPH, grouped)


def _is_word_char(key: str) -> bool:
    return len(key) == 1 and not key.isspace()


def extract_wordholds(pairs: Sequence[PairedKeystroke]) -> FeatureDictionary:
    """Word hold times: release of a word's last key minus press of its first.

    A word is a maximal run of character keystrokes; any non-character key
    (SPACE, ENTER, TAB, BACKSPACE, modifiers...) terminates it. BACKSPACE does
    not edit retroactively: the word as typed so far is emitted. A trailing
    word at end of session is emitted without a terminator.
    """
    grouped: defaultdict[str, list[float]] = defaultdict(list)
    word: list[str] = []
    first_press = last_release = 0.0
    for key, press_ms, release_ms in pairs:
        if _is_word_char(key):
            if not word:
                first_press = press_ms
            word.append(key)
            last_release = release_ms
        elif word:
            grouped["".join(word)].append(last_release - first_press)
            word = []
    if word:
        grouped["".join(word)].append(last_release - first_press)
    return _keyed(Kind.WORDHOLD, grouped)


_EXTRACTORS = {
    Kind.UNIGRAPH: extract_unigraphs,
    Kind.DIGRAPH: extract_digraphs,
    Kind.WORDHOLD: extract_wordholds,
}


def extract_features(pairs: Sequence[PairedKeystroke], kinds: Sequence[Kind] = ALL_KINDS) -> FeatureDictionary:
    """Run the requested extractors over one session's pairs, merged."""
    merged: dict[FeatureKey, list[float]] = {}
    for kind in kinds:
        merged.update(_EXTRACTORS[kind](pairs).entries)
    return FeatureDictionary(merged)


def session_features(
    log: SessionLog,
    kinds: Sequence[Kind] = ALL_KINDS,
    pairs: Sequence[PairedKeystroke] | None = None,
) -> FeatureDictionary:
    """Extract one session's feature dictionary from its paired keystrokes.

    ``pairs`` is the session's pairing when the caller already holds it;
    without it the session's events are paired here.
    """
    if pairs is None:
        pairs = pair_events(log).pairs
    fd = extract_features(pairs, kinds)
    return replace(
        fd,
        user_id=log.user_id,
        platforms=frozenset({log.platform}),
        sessions=frozenset({log.session_id}),
    )


def merge(dicts: Sequence[FeatureDictionary]) -> FeatureDictionary:
    """Concatenate value lists per feature key, in input order.

    All inputs must belong to one user; provenance is the union.
    """
    if not dicts:
        raise ValueError("merge needs at least one dictionary")
    users = {d.user_id for d in dicts}
    if len(users) > 1:
        raise MixedUserError(f"cannot merge dictionaries from users {sorted(users)}")
    entries: dict[FeatureKey, list[float]] = {}
    platforms: set[str] = set()
    sessions: set[int] = set()
    for d in dicts:
        for key, values in d.entries.items():
            entries.setdefault(key, []).extend(values)
        platforms.update(d.platforms)
        sessions.update(d.sessions)
    return FeatureDictionary(entries, dicts[0].user_id, frozenset(platforms), frozenset(sessions))


def profile_to_json(profile: FeatureDictionary) -> str:
    doc = {
        "user": profile.user_id,
        "platforms": sorted(profile.platforms),
        "sessions": sorted(profile.sessions),
        "features": {
            key.to_string(): list(values)
            for key, values in sorted(profile.entries.items(), key=lambda kv: kv[0].to_string())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

