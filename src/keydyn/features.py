"""Timing-feature extraction: unigraphs, digraphs and word holds per session.

Each extractor maps paired keystrokes of ONE session to a plain dict from
feature key to the list of observed durations (ms) in occurrence order. The
three kinds live in one dict with kind-disjoint keys, so verifiers see a
single common-feature set. A user's enrollment or probe profile pools the
dicts of several sessions; :func:`keydyn.verifiers.prepare_profile` does the
pooling, so no digraph or word ever spans two sessions.
"""

from __future__ import annotations

import json
from collections import defaultdict
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

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


class FeatureMap(dict):
    """Feature key -> duration list: a plain dict, returned by each extractor.

    ``entries`` is the map itself, so code that reads an extractor's result
    through ``.entries`` sees the same values.
    """

    @property
    def entries(self) -> dict[FeatureKey, list[float]]:
        return self


def _keyed(kind: Kind, grouped: dict) -> FeatureMap:
    """Wrap each raw label of ``grouped`` in its feature key once, in insertion order."""
    return FeatureMap({FeatureKey(kind, label): values for label, values in grouped.items()})


def extract_unigraphs(pairs: Sequence[PairedKeystroke]) -> FeatureMap:
    """Key hold times: release minus press per occurrence of each key."""
    grouped: defaultdict[str, list[float]] = defaultdict(list)
    for key, press_ms, release_ms in pairs:
        grouped[key].append(release_ms - press_ms)
    return _keyed(Kind.UNIGRAPH, grouped)


def extract_digraphs(pairs: Sequence[PairedKeystroke]) -> FeatureMap:
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


def extract_wordholds(pairs: Sequence[PairedKeystroke]) -> FeatureMap:
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


def extract_features(
    pairs: Sequence[PairedKeystroke], kinds: Sequence[Kind] = ALL_KINDS
) -> dict[FeatureKey, list[float]]:
    """Run the requested extractors over one session's pairs, merged."""
    merged: dict[FeatureKey, list[float]] = {}
    for kind in kinds:
        merged.update(_EXTRACTORS[kind](pairs))
    return merged


def session_features(
    log: SessionLog,
    kinds: Sequence[Kind] = ALL_KINDS,
    pairs: Sequence[PairedKeystroke] | None = None,
) -> dict[FeatureKey, list[float]]:
    """Extract one session's features from its paired keystrokes.

    ``pairs`` is the session's pairing when the caller already holds it;
    without it the session's events are paired here.
    """
    if pairs is None:
        pairs = pair_events(log).pairs
    return extract_features(pairs, kinds)


def profile_to_json(log: SessionLog, features: Mapping[FeatureKey, Sequence[float]]) -> str:
    """One session's profile document: its provenance from ``log``, then ``features``."""
    doc = {
        "user": log.user_id,
        "platforms": [log.platform],
        "sessions": [log.session_id],
        "features": {
            key.to_string(): list(values)
            for key, values in sorted(features.items(), key=lambda kv: kv[0].to_string())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
