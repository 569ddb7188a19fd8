"""Timing-feature extraction: unigraphs, digraphs and word holds per session.

A feature is its name: ``U:<key>`` (hold times), ``D:<first>|<second>``
(intervals between consecutive keystrokes) or ``W:<word>`` (word holds).
Each extractor maps paired keystrokes of ONE session to a plain dict from
feature name to the observed durations (ms) in occurrence order; the
prefixes keep the kinds apart in one dict, and a profile JSON is keyed by
the same names. Two digraphs with one name (keys ``1``, ``2|3`` and ``1|2``,
``3`` both give ``D:1|2|3``) are one feature. A user's enrollment or probe
profile pools the dicts of several sessions; :func:`keydyn.verifiers.session_runs`
and :func:`~keydyn.verifiers.prepare_profile` do the pooling, so no digraph
or word ever spans two sessions.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import Keystrokes, SessionLog, pair_events


class Kind(str, Enum):
    UNIGRAPH = "U"
    DIGRAPH = "D"
    WORDHOLD = "W"


ALL_KINDS = (Kind.UNIGRAPH, Kind.DIGRAPH, Kind.WORDHOLD)


def _keyed(kind: Kind, labels: Iterable[str], values: Iterable[float]) -> dict[str, list[float]]:
    """Each label's values in occurrence order, keyed by its feature name; labels in order of first occurrence."""
    grouped: defaultdict[str, list[float]] = defaultdict(list)
    for label, value in zip(labels, values):
        grouped[label].append(value)
    prefix = kind.value + ":"
    return {prefix + label: values for label, values in grouped.items()}


def extract_unigraphs(pairs: Keystrokes) -> dict[str, list[float]]:
    """Key hold times: release minus press per occurrence of each key."""
    keys = map(pairs.key_names.__getitem__, pairs.keys.tolist())
    return _keyed(Kind.UNIGRAPH, keys, (pairs.release_ms - pairs.press_ms).tolist())


def extract_digraphs(pairs: Keystrokes) -> dict[str, list[float]]:
    """Key interval times between consecutive keystrokes of one session.

    The latency is press(next) - release(previous); rollover typing makes
    negative values legitimate and they are retained. No pause filtering.
    """
    keys = list(map(pairs.key_names.__getitem__, pairs.keys.tolist()))
    labels = map("|".join, zip(keys, keys[1:]))
    return _keyed(Kind.DIGRAPH, labels, (pairs.press_ms[1:] - pairs.release_ms[:-1]).tolist())


def _is_word_char(key: str) -> bool:
    return len(key) == 1 and not key.isspace()


def extract_wordholds(pairs: Keystrokes) -> dict[str, list[float]]:
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


def extract_features(pairs: Keystrokes, kinds: Sequence[Kind] = ALL_KINDS) -> dict[str, list[float]]:
    """Run the requested extractors over one session's pairs, merged."""
    merged: dict[str, list[float]] = {}
    for kind in kinds:
        merged.update(_EXTRACTORS[kind](pairs))
    return merged


def session_features(
    log: SessionLog,
    kinds: Sequence[Kind] = ALL_KINDS,
    pairs: Keystrokes | None = None,
) -> dict[str, list[float]]:
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


def profile_to_json(log: SessionLog, features: Mapping[str, Sequence[float]]) -> str:
    """One session's profile document: its provenance from ``log``, then ``features``.

    The text is that of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, written directly: ``indent`` would force the pure-Python
    encoder. Names are quoted as JSON quotes them and values, which are
    floats, are written as ``float.__repr__`` writes them.
    """
    entries = ",\n".join(f"    {_quote(name)}: {_json_values(features[name])}" for name in sorted(features))
    body = "{\n" + entries + "\n  }" if entries else "{}"
    return (
        "{\n"
        f'  "features": {body},\n'
        f'  "platforms": [\n    {_quote(log.platform)}\n  ],\n'
        f'  "sessions": [\n    {log.session_id!r}\n  ],\n'
        f'  "user": {_quote(log.user_id)}\n'
        "}\n"
    )
