"""Timing-feature extraction: unigraphs, digraphs and word holds per session.

Each extractor maps paired keystrokes of ONE session to a plain dict from
feature key to the list of observed durations (ms) in occurrence order. The
three kinds live in one dict with kind-disjoint keys, so verifiers see a
single common-feature set. A user's enrollment or probe profile pools the
dicts of several sessions; :func:`keydyn.verifiers.session_runs` and
:func:`~keydyn.verifiers.prepare_profile` do the pooling, so no digraph or
word ever spans two sessions.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ingest import Keystrokes, SessionLog, pair_events


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


def _keyed(kind: Kind, labels: Iterable, values: Iterable[float]) -> dict[FeatureKey, list[float]]:
    """Each label's values in occurrence order, keyed by its feature key; labels in order of first occurrence."""
    grouped: defaultdict[object, list[float]] = defaultdict(list)
    for label, value in zip(labels, values):
        grouped[label].append(value)
    # tuple.__new__ builds each key as FeatureKey(kind, label) would, without a Python-level call
    return dict(zip(map(tuple.__new__, repeat(FeatureKey), zip(repeat(kind), grouped)), grouped.values()))


def extract_unigraphs(pairs: Keystrokes) -> dict[FeatureKey, list[float]]:
    """Key hold times: release minus press per occurrence of each key."""
    keys = map(pairs.key_names.__getitem__, pairs.keys.tolist())
    return _keyed(Kind.UNIGRAPH, keys, (pairs.release_ms - pairs.press_ms).tolist())


def extract_digraphs(pairs: Keystrokes) -> dict[FeatureKey, list[float]]:
    """Key interval times between consecutive keystrokes of one session.

    The latency is press(next) - release(previous); rollover typing makes
    negative values legitimate and they are retained. No pause filtering.
    """
    keys = list(map(pairs.key_names.__getitem__, pairs.keys.tolist()))
    return _keyed(Kind.DIGRAPH, zip(keys, keys[1:]), (pairs.press_ms[1:] - pairs.release_ms[:-1]).tolist())


def _is_word_char(key: str) -> bool:
    return len(key) == 1 and not key.isspace()


def extract_wordholds(pairs: Keystrokes) -> dict[FeatureKey, list[float]]:
    """Word hold times: release of a word's last key minus press of its first.

    A word is a maximal run of character keystrokes; any non-character key
    (SPACE, ENTER, TAB, BACKSPACE, modifiers...) terminates it. BACKSPACE does
    not edit retroactively: the word as typed so far is emitted. A trailing
    word at end of session is emitted without a terminator.
    """
    names = pairs.key_names
    in_word = np.zeros(pairs.keys.size + 2, np.int8)
    in_word[1:-1] = np.array([_is_word_char(key) for key in names], bool)[pairs.keys]
    edges = in_word[1:] - in_word[:-1]
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    keys = list(map(names.__getitem__, pairs.keys.tolist()))
    words = map("".join, map(keys.__getitem__, map(slice, starts.tolist(), ends.tolist())))
    return _keyed(Kind.WORDHOLD, words, (pairs.release_ms[ends - 1] - pairs.press_ms[starts]).tolist())


_EXTRACTORS = {
    Kind.UNIGRAPH: extract_unigraphs,
    Kind.DIGRAPH: extract_digraphs,
    Kind.WORDHOLD: extract_wordholds,
}


def extract_features(pairs: Keystrokes, kinds: Sequence[Kind] = ALL_KINDS) -> dict[FeatureKey, list[float]]:
    """Run the requested extractors over one session's pairs, merged."""
    merged: dict[FeatureKey, list[float]] = {}
    for kind in kinds:
        merged.update(_EXTRACTORS[kind](pairs))
    return merged


def session_features(
    log: SessionLog,
    kinds: Sequence[Kind] = ALL_KINDS,
    pairs: Keystrokes | None = None,
) -> dict[FeatureKey, list[float]]:
    """Extract one session's features from its paired keystrokes.

    ``pairs`` is the session's pairing when the caller already holds it;
    without it the session's events are paired here.
    """
    if pairs is None:
        pairs = pair_events(log).pairs
    return extract_features(pairs, kinds)


def _json_values(values: Sequence[float]) -> str:
    text = ",\n      ".join(map(float.__repr__, values))
    return "[\n      " + text + "\n    ]" if text else "[]"


def profile_to_json(log: SessionLog, features: Mapping[FeatureKey, Sequence[float]]) -> str:
    """One session's profile document: its provenance from ``log``, then ``features``.

    The text is that of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, written directly: ``indent`` would force the pure-Python
    encoder. Names are quoted as JSON quotes them and values, which are
    floats, are written as ``float.__repr__`` writes them.
    """
    named = {key.to_string(): values for key, values in features.items()}
    entries = ",\n".join(f"    {_quote(name)}: {_json_values(values)}" for name, values in sorted(named.items()))
    body = "{\n" + entries + "\n  }" if entries else "{}"
    return (
        "{\n"
        f'  "features": {body},\n'
        f'  "platforms": [\n    {_quote(log.platform)}\n  ],\n'
        f'  "sessions": [\n    {log.session_id!r}\n  ],\n'
        f'  "user": {_quote(log.user_id)}\n'
        "}\n"
    )
