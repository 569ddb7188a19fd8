"""Timing-feature extraction: unigraphs, digraphs and word holds, a batch of sessions at a time.

A feature is its name: ``U:<key>`` (hold times), ``D:<first>|<second>``
(intervals between consecutive keystrokes) or ``W:<word>`` (word holds).
Extraction works on the paired keystrokes of a batch of whole sessions in
one numpy pass. Each kind emits (session, label code, value) columns in
occurrence order: a unigraph's code is its key code, a digraph's is
``first * len(key_names) + second``, masked where the two keystrokes are of
two sessions, and a word is a run of word keys that also ends at a session
bound, interned once per batch by its key codes. So no digraph or word ever
spans two sessions. Each distinct code is named once per batch, and the
names map to ids through one name dict, so two digraphs with one name (keys
``1``, ``2|3`` and ``1|2``, ``3`` both give ``D:1|2|3``) are one feature.

The result is a :class:`Features`: the batch's values, grouped by session
and, within a session, by feature in name order, the key order of a profile
JSON. :func:`keydyn.verifiers.session_runs` turns each of its sessions into
a run, and :func:`profile_to_json` writes each session's profile from it. A
:class:`Features` also reads as a mapping from feature name to its values in
occurrence order, pooled over the batch; for one session that is the
session's profile, as a profile JSON holds it.
"""

from __future__ import annotations

import itertools
from collections import abc
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ingest import Keystrokes, PairingResult, SessionLog, pair_events, stable_order


class Kind(str, Enum):
    UNIGRAPH = "U"
    DIGRAPH = "D"
    WORDHOLD = "W"


ALL_KINDS = (Kind.UNIGRAPH, Kind.DIGRAPH, Kind.WORDHOLD)

# about this many events are paired and extracted in one pass: a pass costs a few
# dozen numpy calls, too many for one session of ~150 keystrokes, and its columns,
# strings and names are held until the next pass
_BATCH_EVENTS = 1 << 12

_VALUES_SEP = ",\n      "
# the text after a feature's values: by whether it has none, then whether it is the session's last
_CLOSES = ("\n    ],\n", "],\n", "\n    ]\n  }", "]\n  }")


class Features(abc.Mapping):
    """The feature values of a batch of sessions, as columns.

    ``names`` ascend. Group ``g`` is feature ``names[fid[g]]`` of one
    session, with values ``durations[edges[g]:edges[g + 1]]`` in occurrence
    order; session ``s`` holds groups ``groups[s]:groups[s + 1]``, in
    ascending ``fid``. ``first`` orders a session's groups as the mapping
    form lists them: by kind, then by first occurrence.

    As a mapping, each name maps to its values pooled over the batch's
    sessions in order, names in order of first occurrence; one session's
    mapping is :meth:`session`.
    """

    def __init__(self, names, fid, edges, first, groups, durations) -> None:
        self.names: Sequence[str] = names
        self.fid: np.ndarray = fid  # intp per group
        self.edges: np.ndarray = edges  # intp, one more than the groups
        self.first: np.ndarray = first  # intp per group
        self.groups: np.ndarray = groups  # intp, one more than the sessions
        self.durations: np.ndarray = durations  # float64, ms

    @classmethod
    def of(cls, features: Mapping[str, Iterable[float]]) -> "Features":
        """One session's ``features``, a map from name to values, as columns; a value list may be empty."""
        names = sorted(features)
        lists = [list(features[name]) for name in names]
        counts = np.fromiter(map(len, lists), np.intp, len(lists))
        edges = np.concatenate([[0], np.cumsum(counts)])
        values = np.fromiter(itertools.chain.from_iterable(lists), np.float64, int(edges[-1]))
        position = {name: i for i, name in enumerate(features)}
        first = np.fromiter(map(position.__getitem__, names), np.intp, len(names))
        return cls(names, np.arange(len(names)), edges, first, np.array([0, len(names)]), values)

    @property
    def sessions(self) -> int:
        return self.groups.size - 1

    def bounds(self) -> np.ndarray:
        """Session ``s`` holds ``durations[bounds[s]:bounds[s + 1]]``."""
        return self.edges[self.groups]

    def session(self, s: int) -> "Features":
        """Session ``s`` alone, as columns over the same names."""
        a, b = self.groups[s], self.groups[s + 1]
        edges = self.edges[a : b + 1]
        durations = self.durations[edges[0] : edges[-1]]
        return Features(self.names, self.fid[a:b], edges - edges[0], self.first[a:b], np.array([0, b - a]), durations)

    @cached_property
    def _pooled(self) -> dict[str, list[float]]:
        pooled: dict[str, list[float]] = {}
        values, edges, fid = self.durations.tolist(), self.edges.tolist(), self.fid.tolist()
        for g in np.argsort(self.first, kind="stable").tolist():
            pooled.setdefault(self.names[fid[g]], []).extend(values[edges[g] : edges[g + 1]])
        return pooled

    def __getitem__(self, name: str) -> list[float]:
        return self._pooled[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._pooled)

    def __len__(self) -> int:
        return len(self._pooled)

    @cached_property
    def _layout(self) -> tuple[list, ...]:
        """What :meth:`json` reads, as lists: per name, what opens its feature with values and
        without; per group, its opening, its close in ``_CLOSES`` and its values' place among
        its session's; per session, its groups and its values."""
        quoted = [f"    {_quote(name)}: [" for name in self.names]
        opens = [lead + "\n      " for lead in quoted] + quoted
        empty = self.edges[1:] == self.edges[:-1]
        last = np.zeros(empty.size, bool)
        last[self.groups[1:][self.groups[1:] > self.groups[:-1]] - 1] = True
        bounds = self.bounds()
        start = self.edges[:-1] - np.repeat(bounds[:-1], np.diff(self.groups))
        end = start + np.diff(self.edges)
        columns = (self.fid + len(self.names) * empty, empty + 2 * last, start, end, self.groups, bounds)
        return (opens, *(column.tolist() for column in columns))

    def json(self, s: int) -> str:
        """Session ``s``'s features as a profile JSON writes them, names in order and values as ``float.__repr__`` writes them."""
        opens, open_at, close_at, start, end, groups, bounds = self._layout
        a, b = groups[s], groups[s + 1]
        if a == b:
            return "{}"
        text = list(map(float.__repr__, self.durations[bounds[s] : bounds[s + 1]].tolist()))
        parts = [""] * (3 * (b - a))
        parts[0::3] = map(opens.__getitem__, open_at[a:b])
        parts[1::3] = map(_VALUES_SEP.join, map(text.__getitem__, map(slice, start[a:b], end[a:b])))
        parts[2::3] = map(_CLOSES.__getitem__, close_at[a:b])
        return "{\n" + "".join(parts)


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative ``codes``, ascending, and each code's index among them (np.unique imports numpy.ma)."""
    ordered = np.sort(codes)
    distinct = ordered[np.diff(ordered, prepend=-1) != 0]
    return distinct, np.searchsorted(distinct, codes)


# each kind's emitter: the names of its labels, and per value its session, label index and value
Emitted = tuple[list[str], np.ndarray, np.ndarray, np.ndarray]


def _unigraphs(pairs: Keystrokes, session: np.ndarray) -> Emitted:
    """Key hold times: release minus press per occurrence of each key."""
    distinct, label = _distinct(pairs.keys)
    names = [f"U:{pairs.key_names[code]}" for code in distinct.tolist()]
    return names, session, label, pairs.release_ms - pairs.press_ms


def _digraphs(pairs: Keystrokes, session: np.ndarray) -> Emitted:
    """Key interval times between consecutive keystrokes of one session.

    The latency is press(next) - release(previous); rollover typing makes
    negative values legitimate and they are retained. No pause filtering.
    """
    within = session[1:] == session[:-1]
    width = len(pairs.key_names)
    distinct, label = _distinct((pairs.keys[:-1].astype(np.int64) * width + pairs.keys[1:])[within])
    key = pairs.key_names
    names = [f"D:{key[code // width]}|{key[code % width]}" for code in distinct.tolist()]
    return names, session[1:][within], label, (pairs.press_ms[1:] - pairs.release_ms[:-1])[within]


def _is_word_char(key: str) -> bool:
    return len(key) == 1 and not key.isspace()


def _wordholds(pairs: Keystrokes, session: np.ndarray) -> Emitted:
    """Word hold times: release of a word's last key minus press of its first.

    A word is a maximal run of character keystrokes of one session; any
    non-character key (SPACE, ENTER, TAB, BACKSPACE, modifiers...) terminates
    it. BACKSPACE does not edit retroactively: the word as typed so far is
    emitted. A trailing word at end of session is emitted without a
    terminator.
    """
    n = len(pairs)
    in_word = np.array([_is_word_char(key) for key in pairs.key_names], bool)[pairs.keys]
    cut = np.ones(n + 1, bool)  # a word cannot run on from keystroke i - 1 to i
    cut[1:-1] = (session[1:] != session[:-1]) | ~in_word[:-1] | ~in_word[1:]
    starts = np.flatnonzero(in_word & cut[:-1])
    ends = np.flatnonzero(in_word & cut[1:]) + 1
    # each word as the bytes of its 32-bit key codes, interned; only a distinct word's keys are joined
    codes = pairs.keys.astype(np.uint32).tobytes()
    words = list(map(codes.__getitem__, map(slice, (4 * starts).tolist(), (4 * ends).tolist())))
    index = {word: i for i, word in enumerate(dict.fromkeys(words))}
    label = np.fromiter(map(index.__getitem__, words), np.intp, len(words))
    key = pairs.key_names.__getitem__
    names = ["W:" + "".join(map(key, memoryview(word).cast("I"))) for word in index]
    return names, session[starts], label, pairs.release_ms[ends - 1] - pairs.press_ms[starts]


_EMITTERS = {
    Kind.UNIGRAPH: _unigraphs,
    Kind.DIGRAPH: _digraphs,
    Kind.WORDHOLD: _wordholds,
}


def _columns(pairs: Keystrokes, emitters: Iterable) -> Features:
    """The features the ``emitters`` emit from ``pairs``, grouped by session, then name."""
    session = pairs.session_index()
    emitted = [emit(pairs, session) for emit in emitters]
    labels = [name for names, *_ in emitted for name in names]
    names = sorted(set(labels))
    rank = {name: i for i, name in enumerate(names)}
    fid_of = np.fromiter(map(rank.__getitem__, labels), np.intp, len(labels))
    offsets = itertools.accumulate((len(part[0]) for part in emitted), initial=0)
    fid = np.concatenate([fid_of[offset + label] for offset, (_, _, label, _) in zip(offsets, emitted)])
    width = max(len(names), 1)
    key = np.concatenate([owner for _, owner, _, _ in emitted]) * width + fid
    sessions = 1 if pairs.bounds is None else pairs.bounds.size - 1
    order = stable_order(key, sessions * width)  # by session, then name; each name's values in occurrence order
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    values = np.concatenate([value for *_, value in emitted])[order]
    groups = np.searchsorted(key[starts] // width, np.arange(sessions + 1))
    return Features(names, key[starts] % width, np.append(starts, key.size), order[starts], groups, values)


def extract_unigraphs(pairs: Keystrokes) -> Features:
    """Key hold times: release minus press per occurrence of each key."""
    return _columns(pairs, [_unigraphs])


def extract_digraphs(pairs: Keystrokes) -> Features:
    """Key interval times between consecutive keystrokes of one session: press(next) - release(previous)."""
    return _columns(pairs, [_digraphs])


def extract_wordholds(pairs: Keystrokes) -> Features:
    """Word hold times, a word being a maximal run of character keystrokes of one session."""
    return _columns(pairs, [_wordholds])


def extract_features(pairs: Keystrokes, kinds: Sequence[Kind] = ALL_KINDS) -> Features:
    """The requested kinds of features of ``pairs``, in one set of columns."""
    return _columns(pairs, [_EMITTERS[kind] for kind in kinds])


def session_features(*logs: SessionLog, kinds: Sequence[Kind] = ALL_KINDS, pairs: Keystrokes | None = None) -> Features:
    """Extract the features of ``logs``, a batch of sessions, from their paired keystrokes.

    ``pairs`` is the batch's pairing when the caller already holds it;
    without it the sessions' events are paired here.
    """
    if pairs is None:
        pairs = pair_events(*logs).pairs
    return extract_features(pairs, kinds)


def _batches(logs: Iterable[SessionLog]) -> Iterator[list[SessionLog]]:
    """``logs`` in runs of consecutive whole sessions of about ``_BATCH_EVENTS`` events."""
    batch: list[SessionLog] = []
    events = 0
    for log in logs:
        batch.append(log)
        events += log.times.size
        if events >= _BATCH_EVENTS:
            yield batch
            batch, events = [], 0
    if batch:
        yield batch


def extract_batches(
    logs: Iterable[SessionLog], kinds: Sequence[Kind] = ALL_KINDS
) -> Iterator[tuple[list[SessionLog], PairingResult, Features]]:
    """``logs`` in batches of consecutive whole sessions, each with its pairing and its features.

    A batch holds about ``_BATCH_EVENTS`` events, and is paired and
    extracted only when it is read.
    """
    for batch in _batches(logs):
        pairing = pair_events(*batch)
        yield batch, pairing, session_features(*batch, kinds=kinds, pairs=pairing.pairs)


def profile_to_json(log: SessionLog, features: Mapping[str, Iterable[float]], session: int = 0) -> str:
    """One session's profile document: its provenance from ``log``, then its features.

    ``features`` is a batch's :class:`Features` and ``session`` the index of
    ``log``'s session in it, or one session's map from name to values. The
    text is that of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, written directly: ``indent`` would force the pure-Python
    encoder. Names are quoted as JSON quotes them and values, which are
    floats, are written as ``float.__repr__`` writes them.
    """
    columns = features if isinstance(features, Features) else Features.of(features)
    return (
        "{\n"
        f'  "features": {columns.json(session)},\n'
        f'  "platforms": [\n    {_quote(log.platform)}\n  ],\n'
        f'  "sessions": [\n    {log.session_id!r}\n  ],\n'
        f'  "user": {_quote(log.user_id)}\n'
        "}\n"
    )
