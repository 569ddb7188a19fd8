"""Parsing and normalization of raw key-event logs.

The canonical interchange format is CSV with header
``user_id,platform,session_id,key,action,time_ms``, action ``P`` or ``R``,
UTF-8, LF line endings; one leading byte-order mark is ignored. Fields never
contain commas: a literal comma key is spelled ``COMMA``.

``KeyEvent`` and ``PairedKeystroke`` are named tuples: a corpus holds one per
row, so they cost no more than a plain tuple to build and to unpack.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import gt, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DuplicateSessionError, EmptyInputError, MalformedRowError

CSV_HEADER = "user_id,platform,session_id,key,action,time_ms"

# Fixed uppercase names for non-character keys. Dotted logger names
# ("Key.space") are collapsed to the part after the dot; left/right modifier
# variants fold onto one label.
_SPECIAL_ALIASES = {
    "space": "SPACE",
    "spacebar": "SPACE",
    "enter": "ENTER",
    "return": "ENTER",
    "tab": "TAB",
    "backspace": "BACKSPACE",
    "delete": "DELETE",
    "shift": "SHIFT",
    "shift_l": "SHIFT",
    "shift_r": "SHIFT",
    "ctrl": "CTRL",
    "control": "CTRL",
    "ctrl_l": "CTRL",
    "ctrl_r": "CTRL",
    "alt": "ALT",
    "alt_l": "ALT",
    "alt_r": "ALT",
    "alt_gr": "ALT",
    "meta": "META",
    "cmd": "META",
    "cmd_l": "META",
    "cmd_r": "META",
    "super": "META",
    "win": "META",
}


class Action(str, Enum):
    PRESS = "P"
    RELEASE = "R"


_WHITESPACE_KEYS = {" ": "SPACE", "\t": "TAB", "\n": "ENTER", "\r": "ENTER"}


def canonicalize_key(label: str) -> str:
    """Map a raw key label to its canonical form.

    Character keys are lowercased (so ``a`` and ``A`` share one feature);
    whitespace and modifier keys get fixed uppercase names. A literal comma
    becomes ``COMMA`` because the CSV format forbids commas inside fields.
    """
    if label in _WHITESPACE_KEYS:
        return _WHITESPACE_KEYS[label]
    label = label.strip()
    if not label:
        raise ValueError("empty key label")
    if "." in label and len(label) > 1:
        label = label.rsplit(".", 1)[1] or label
    if len(label) == 1:
        if label == ",":
            return "COMMA"
        return label.lower()
    return _SPECIAL_ALIASES.get(label.lower(), label.upper())


class KeyEvent(NamedTuple):
    key: str
    action: Action
    time_ms: float


@dataclass
class SessionLog:
    """All key events of one (user, platform, session), sorted by time."""

    user_id: str
    platform: str
    session_id: int
    events: list[KeyEvent] = field(default_factory=list)

    @property
    def session_key(self) -> tuple[str, str, int]:
        return (self.user_id, self.platform, self.session_id)


class PairedKeystroke(NamedTuple):
    key: str
    press_ms: float
    release_ms: float


@dataclass
class Corpus:
    """Session logs keyed by (user_id, platform, session_id)."""

    sessions: dict[tuple[str, str, int], SessionLog]

    @classmethod
    def from_logs(cls, logs: Iterable[SessionLog]) -> "Corpus":
        sessions: dict[tuple[str, str, int], SessionLog] = {}
        for log in logs:
            if log.session_key in sessions:
                raise DuplicateSessionError(f"duplicate session {log.session_key}")
            sessions[log.session_key] = log
        return cls(sessions)

    @property
    def roster(self) -> list[str]:
        return sorted({key[0] for key in self.sessions})

    @property
    def platforms(self) -> list[str]:
        return sorted({key[1] for key in self.sessions})

    def summary(self) -> dict:
        """Users, platforms, sessions and events: the dataset block of a report."""
        return {
            "users": len(self.roster),
            "platforms": self.platforms,
            "sessions": len(self.sessions),
            "events": sum(len(log.events) for log in self.sessions.values()),
        }

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[SessionLog]:
        return iter(self.sessions[key] for key in sorted(self.sessions))


@dataclass
class ParseResult:
    sessions: list[SessionLog]
    warnings: list[str] = field(default_factory=list)
    rows_total: int = 0
    rows_rejected: int = 0
    resorted_sessions: int = 0


_ACTIONS = {"P": Action.PRESS, "R": Action.RELEASE}
_EMPTY_FIELD = "empty user_id, platform, or key"
_INF = float("inf")
_time_ms = itemgetter(2)


def _session_head(
    head: str, grouped: dict[tuple[str, str, int], list[KeyEvent]]
) -> list[KeyEvent] | tuple[str, bool]:
    """Validate one raw ``user_id,platform,session_id`` row head.

    Returns the event list of the session it names (shared by every head
    that names the same session), or ``(reason, late)`` when the head
    rejects its rows. A late reason, a malformed session id, gives way to
    an empty key, which a row checks first.
    """
    fields = head.split(",")
    if len(fields) != 3:
        return f"expected 6 fields, got {len(fields) + 3}", False
    user_id, platform, session_raw = (f.strip() for f in fields)
    if not user_id or not platform:
        return _EMPTY_FIELD, False
    try:
        session_id = int(session_raw)
    except ValueError:
        return f"malformed session_id {session_raw!r}", True
    return grouped.setdefault((user_id, platform, session_id), [])


def parse_log(data: bytes | str, *, strict: bool = True, source: str | None = None) -> ParseResult:
    """Parse canonical CSV into session logs.

    Rows with an unknown action, malformed timestamp, negative or non-finite
    time, or the wrong field count are rejected: in strict mode the first one raises
    :class:`MalformedRowError`, otherwise each is recorded as a warning and
    skipped. Duplicate rows are kept. Events are sorted by time (stable), and
    sessions whose rows arrived out of order are counted in
    ``resorted_sessions``. Bytes that are not valid UTF-8 raise
    :class:`MalformedRowError` in either mode.

    Each distinct row head (``user_id,platform,session_id``) is validated
    once and each distinct key label canonicalized once; every row still
    gets every check, in the order above.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise MalformedRowError(row, f"invalid UTF-8 at byte {exc.start}", source) from None
    else:
        text = data
    if text.startswith("\ufeff"):
        text = text[1:]
    lines = text.splitlines()
    if not lines:
        raise EmptyInputError("empty input" + (f": {source}" if source else ""))
    if lines[0].strip() != CSV_HEADER:
        raise MalformedRowError(1, f"bad header (expected {CSV_HEADER!r})", source)

    result = ParseResult(sessions=[])
    grouped: dict[tuple[str, str, int], list[KeyEvent]] = {}
    heads: dict[str, list[KeyEvent] | tuple[str, bool]] = {}
    keys: dict[str, str] = {}  # raw key field -> canonical key, "" when blank

    def reject(row: int, reason: str) -> None:
        if strict:
            raise MalformedRowError(row, reason, source)
        result.rows_rejected += 1
        result.warnings.append(f"row {row}: {reason} (skipped)")

    rows_total = 0
    for row_no, line in enumerate(islice(lines, 1, None), start=2):
        if not line or line.isspace():
            continue
        rows_total += 1
        fields = line.rsplit(",", 3)
        if len(fields) != 4:
            reject(row_no, f"expected 6 fields, got {len(fields)}")
            continue
        head, key_raw, action_raw, time_raw = fields
        events = heads.get(head)
        if events is None:
            events = heads[head] = _session_head(head, grouped)
        key = keys.get(key_raw)
        if key is None:
            key = key_raw.strip()
            key = keys[key_raw] = canonicalize_key(key) if key else ""
        if events.__class__ is tuple:
            reason, late = events
            reject(row_no, _EMPTY_FIELD if late and not key else reason)
            continue
        if not key:
            reject(row_no, _EMPTY_FIELD)
            continue
        action = _ACTIONS.get(action_raw)
        if action is None:
            action = _ACTIONS.get(action_raw.strip())
            if action is None:
                reject(row_no, f"unknown action {action_raw.strip()!r}")
                continue
        try:
            time_ms = float(time_raw)  # float() ignores the padding strip() would remove
        except ValueError:
            reject(row_no, f"malformed timestamp {time_raw.strip()!r}")
            continue
        if not 0.0 <= time_ms < _INF:  # also false for NaN
            reject(row_no, f"negative or non-finite timestamp {time_raw.strip()!r}")
            continue
        events.append(KeyEvent(key, action, time_ms))
    result.rows_total = rows_total

    if rows_total == 0:
        raise EmptyInputError("no data rows" + (f": {source}" if source else ""))

    for key in sorted(grouped):
        events = grouped[key]
        if not events:  # every row of the session was rejected
            continue
        times = list(map(_time_ms, events))
        if any(map(gt, times, islice(times, 1, None))):
            events = sorted(events, key=_time_ms)
            result.resorted_sessions += 1
            result.warnings.append(f"session {key}: out-of-order timestamps, re-sorted")
        user_id, platform, session_id = key
        result.sessions.append(SessionLog(user_id, platform, session_id, events))
    return result


def serialize_corpus(corpus: Corpus) -> str:
    """Emit the canonical CSV for a corpus; inverse of :func:`parse_log`."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for key in sorted(corpus.sessions):
        log = corpus.sessions[key]
        for event in log.events:
            out.write(
                f"{log.user_id},{log.platform},{log.session_id},"
                f"{event.key},{event.action.value},{event.time_ms!r}\n"
            )
    return out.getvalue()


def read_corpus(
    paths: str | os.PathLike | Iterable[str | os.PathLike], *, strict: bool = True
) -> tuple[Corpus, ParseResult]:
    """Load CSV input into one corpus.

    ``paths`` is one path or several; each names a CSV file or a directory
    whose ``*.csv`` files are read in name order. The returned
    :class:`ParseResult` holds every file's sessions in read order and sums
    their warnings and row counts.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    combined = ParseResult(sessions=[])
    for path in map(Path, paths):
        if path.is_dir():
            files = sorted(path.glob("*.csv"))
            if not files:
                raise EmptyInputError(f"no .csv files in {path}")
        else:
            files = [path]
        for file in files:
            res = parse_log(file.read_bytes(), strict=strict, source=str(file))
            combined.sessions.extend(res.sessions)
            combined.warnings.extend(res.warnings)
            combined.rows_total += res.rows_total
            combined.rows_rejected += res.rows_rejected
            combined.resorted_sessions += res.resorted_sessions
    return Corpus.from_logs(combined.sessions), combined


@dataclass
class PairingResult:
    pairs: list[PairedKeystroke]
    dropped_repeats: int = 0
    dropped_orphan_releases: int = 0
    dropped_unreleased: int = 0

    @property
    def dropped_total(self) -> int:
        return self.dropped_repeats + self.dropped_orphan_releases + self.dropped_unreleased


_press_ms = itemgetter(1)


def pair_events(log: SessionLog) -> PairingResult:
    """Match each PRESS to the next RELEASE of the same key.

    A second PRESS of a key already held is OS auto-repeat and is dropped; a
    RELEASE with no pending PRESS is dropped; presses never released within
    the session are dropped. Output is ordered by press time (stable).
    """
    pairs: list[PairedKeystroke] = []
    pending: dict[str, float] = {}
    repeats = orphans = 0
    press = Action.PRESS
    for key, action, time_ms in log.events:
        if action is press:
            if key in pending:
                repeats += 1
            else:
                pending[key] = time_ms
        else:
            press_ms = pending.pop(key, None)
            if press_ms is None:
                orphans += 1
            else:
                pairs.append(PairedKeystroke(key, press_ms, time_ms))
    pairs.sort(key=_press_ms)
    return PairingResult(pairs, repeats, orphans, len(pending))
