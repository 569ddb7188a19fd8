"""Parsing and normalization of raw key-event logs.

The canonical interchange format is CSV with header
``user_id,platform,session_id,key,action,time_ms``, action ``P`` or ``R``,
UTF-8, LF line endings; one leading byte-order mark is ignored. Fields never
contain commas: a literal comma key is spelled ``COMMA``.

A session's events and its paired keystrokes are numpy columns, each key a
code into the session's ``key_names``, so no Python object is made per event
or keystroke.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

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


def check_platform_label(label: str) -> str:
    """Return ``label``; ValueError unless a CSV field carries it unchanged.

    The parse splits rows at line breaks and fields at commas, and strips
    each field, so a label must be non-empty, with no surrounding space,
    comma or line break. The CSV is UTF-8, so a lone surrogate, which is how
    Python reads undecodable bytes of a command line, cannot be written.
    """
    if label.splitlines() != [label] or label != label.strip() or "," in label:
        raise ValueError(
            f"platform labels must be non-empty, with no surrounding space, comma or line break, got {label!r}"
        )
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"platform labels must be text that UTF-8 can encode, got {label!r}") from None
    return label


_ACTION_TEXT = ("R", "P")  # indexed by a press flag


@dataclass(eq=False)
class SessionLog:
    """All key events of one (user, platform, session), sorted by time, as columns.

    Event ``i`` is a press (``presses[i]``) or a release of key
    ``key_names[keys[i]]`` at ``times[i]`` ms. ``key_names`` may name keys
    the session never uses: the sessions of one parse share it.
    """

    user_id: str
    platform: str
    session_id: int
    key_names: tuple[str, ...]
    keys: np.ndarray  # intp, index into key_names
    presses: np.ndarray  # bool
    times: np.ndarray  # float64, ms

    @property
    def session_key(self) -> tuple[str, str, int]:
        return (self.user_id, self.platform, self.session_id)

    def __eq__(self, other: object) -> bool:
        """Same session key and the same events: key names, press flags and times, event by event."""
        if not isinstance(other, SessionLog):
            return NotImplemented
        return (
            self.session_key == other.session_key
            and list(map(self.key_names.__getitem__, self.keys.tolist()))
            == list(map(other.key_names.__getitem__, other.keys.tolist()))
            and np.array_equal(self.presses, other.presses)
            and np.array_equal(self.times, other.times)
        )


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
            "events": sum(log.times.size for log in self.sessions.values()),
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


_ACTIONS = {"P": 1, "R": 0}  # action -> press flag
_EMPTY_FIELD = "empty user_id, platform, or key"
_BLOCK_SIZE = 1 << 16  # bytes per read; smaller blocks cost wall time, larger ones memory


def _session_head(head: tuple[str, str, str], sessions: dict[tuple[str, str, int], int]) -> int:
    """The index in ``sessions`` of the session a raw (user_id, platform, session_id) names; -1 if it is malformed."""
    user_id, platform, session_raw = (f.strip() for f in head)
    if not user_id or not platform:
        return -1
    try:
        session_id = int(session_raw)
    except ValueError:
        return -1
    return sessions.setdefault((user_id, platform, session_id), len(sessions))


def _row_reason(line: str) -> str:
    """Why a row that failed a bulk check is rejected: its first failing check, in the order of the parse."""
    commas = line.count(",")
    if commas != 5:
        return f"expected 6 fields, got {commas + 1}"
    user_id, platform, session_raw, key_raw, action_raw, time_raw = line.split(",")
    # a malformed session id gives way to an empty key
    if not user_id.strip() or not platform.strip() or not key_raw.strip():
        return _EMPTY_FIELD
    try:
        int(session_raw.strip())
    except ValueError:
        return f"malformed session_id {session_raw.strip()!r}"
    if action_raw.strip() not in _ACTIONS:
        return f"unknown action {action_raw.strip()!r}"
    try:
        float(time_raw)
    except ValueError:
        return f"malformed timestamp {time_raw.strip()!r}"
    return f"negative or non-finite timestamp {time_raw.strip()!r}"


def _blocks(stream: BinaryIO) -> Iterator[bytes]:
    """What ``stream`` holds from where it stands, in blocks that each end after a ``\\n`` (the last may not).

    ``_BLOCK_SIZE`` is read at a time and cut after its last line feed; the
    rest starts the next block, so no block splits a line, a ``\\r\\n`` or a
    UTF-8 character. A read with no line feed joins the next one, so a file
    whose lines all end in a lone ``\\r`` is one block.
    """
    parts = []
    while chunk := stream.read(_BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            parts.append(chunk[:cut])
            yield b"".join(parts)
            parts = []
        parts.append(chunk[cut:])
    if rest := b"".join(parts):
        yield rest


def _text_blocks(stream: BinaryIO, source: str | None) -> Iterator[str]:
    """The text of :func:`_blocks`, decoded as UTF-8 one block at a time."""
    offset = row = 0  # the bytes and the line feeds before the block
    for block in _blocks(stream):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            row += block.count(b"\n", 0, exc.start) + 1
            raise MalformedRowError(row, f"invalid UTF-8 at byte {offset + exc.start}", source) from None
        offset, row = offset + len(block), row + block.count(b"\n")
        yield text


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` as one array; the list is emptied, so each part dies once the whole exists."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def parse_log(data: bytes | str | BinaryIO, *, source: str | None = None) -> ParseResult:
    """Parse canonical CSV into session logs.

    ``data`` is the CSV as bytes or text, or a readable binary stream, which
    is read once from where it stands and not closed. Text is parsed as its
    UTF-8 bytes, so text with a lone surrogate, which UTF-8 cannot carry,
    fails as those bytes would. Rows with an unknown action, malformed
    timestamp, negative or non-finite time, or the wrong field count are
    skipped, each recorded as the warning ``row N: <reason> (skipped)``.
    Duplicate rows are kept. Events are sorted by time (stable), and sessions
    whose rows arrived out of order are counted in ``resorted_sessions``.
    Only bytes that are not valid UTF-8 and a bad header raise
    :class:`MalformedRowError`; invalid UTF-8 anywhere in the input outranks
    a bad header.

    Input is read a block of ``_BLOCK_SIZE`` at a time, and rows are checked
    in bulk, a block at a time: each distinct row head
    (``user_id,platform,session_id``), key and action spelling once, and
    every timestamp in one pass. Only a row that fails a check is looked at
    alone, to name its first failing check in the order above. Memory is the
    parsed columns plus one block.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    blocks = _text_blocks(data, source)
    text = next(blocks, "")
    lines = (text[1:] if text.startswith("\ufeff") else text).splitlines()
    if not lines:
        raise EmptyInputError("empty input" + (f": {source}" if source else ""))
    if lines[0].strip() != CSV_HEADER:
        for _ in blocks:  # invalid UTF-8 further on outranks the header
            pass
        raise MalformedRowError(1, f"bad header (expected {CSV_HEADER!r})", source)

    result = ParseResult(sessions=[])
    sessions: dict[tuple[str, str, int], int] = {}  # session key -> index, in order of first sight
    heads: dict[tuple[str, str, str], int] = {}  # raw head fields -> session index, -1 if malformed
    names: dict[str, int] = {}  # canonical key -> code
    codes: dict[str, int] = {}  # raw key field -> code, -1 if blank
    actions: dict[str, int] = {}  # raw action field -> press flag, -1 if unknown
    parsed = ([], [], [], [])  # per block, the session index, key code, press flag and time of each good row

    row = 1  # the number of the line before the block; the header is row 1
    for block in itertools.chain([lines[1:]], map(str.splitlines, blocks)):
        first, row = row + 1, row + len(block)
        commas = np.fromiter(map(str.count, block, itertools.repeat(",")), np.intp, len(block))
        whole = np.flatnonzero(commas == 5)
        rows = block if whole.size == len(block) else [block[i] for i in whole.tolist()]
        fields = ",".join(rows).split(",")
        n = len(rows)
        head = fields[0::6], fields[1::6], fields[2::6]
        key_raw, action_raw, time_raw = fields[3::6], fields[4::6], fields[5::6]
        del fields
        for raw in dict.fromkeys(zip(*head)).keys() - heads.keys():
            heads[raw] = _session_head(raw, sessions)
        for raw in set(key_raw) - codes.keys():
            key = raw.strip()
            codes[raw] = names.setdefault(canonicalize_key(key), len(names)) if key else -1
        for raw in set(action_raw) - actions.keys():
            actions[raw] = _ACTIONS.get(raw.strip(), -1)
        session = np.fromiter(map(heads.__getitem__, zip(*head)), np.intp, n)
        key = np.fromiter(map(codes.__getitem__, key_raw), np.intp, n)
        press = np.fromiter(map(actions.__getitem__, action_raw), np.int8, n)
        try:
            times = np.fromiter(map(float, time_raw), np.float64, n)
        except ValueError:
            times = np.fromiter(map(_float_or_nan, time_raw), np.float64, n)
        good = (session >= 0) & (key >= 0) & (press >= 0) & (times >= 0.0) & (times < math.inf)  # NaN fails

        blank = 0
        for i in np.union1d(np.flatnonzero(commas != 5), whole[~good]).tolist():
            line = block[i]
            if not line or line.isspace():
                blank += 1
                continue
            result.rows_rejected += 1
            result.warnings.append(f"row {first + i}: {_row_reason(line)} (skipped)")
        result.rows_total += len(block) - blank
        for parts, column in zip(parsed, (session, key, press == 1, times)):
            parts.append(column[good])

    if result.rows_total == 0:
        raise EmptyInputError("no data rows" + (f": {source}" if source else ""))
    del text, lines, block

    session, key, press, times = map(_join, parsed)
    session_keys = sorted(sessions)
    rank = np.empty(len(sessions), np.intp)
    rank[[sessions[k] for k in session_keys]] = np.arange(len(sessions))
    session = rank[session]  # now ascending with the session keys
    # group the rows by session; a session keeps file order unless its times fall somewhere.
    # Rows written by serialize_corpus arrive grouped and in time order, and are not moved
    order = None if np.all(session[1:] >= session[:-1]) else np.argsort(session, kind="stable")
    grouped, grouped_times = (session, times) if order is None else (session[order], times[order])
    late = (grouped_times[1:] < grouped_times[:-1]) & (grouped[1:] == grouped[:-1])
    resorted = np.unique(grouped[1:][late]).tolist()
    del grouped_times, late
    if resorted:
        order = np.lexsort((times, session))  # each session by time; ties keep file order
    if order is not None:
        key, press, times = key[order], press[order], times[order]
    session = grouped
    key_names = tuple(names)
    starts = np.flatnonzero(np.diff(session, prepend=-1))
    ends = np.append(starts[1:], session.size)
    for index, a, b in zip(session[starts].tolist(), starts.tolist(), ends.tolist()):
        user_id, platform, session_id = session_keys[index]
        result.sessions.append(SessionLog(user_id, platform, session_id, key_names, key[a:b], press[a:b], times[a:b]))
    for index in resorted:
        result.resorted_sessions += 1
        result.warnings.append(f"session {session_keys[index]}: out-of-order timestamps, re-sorted")
    return result


def serialize_corpus(corpus: Corpus) -> str:
    """Emit the canonical CSV for a corpus; inverse of :func:`parse_log`."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for key in sorted(corpus.sessions):
        log = corpus.sessions[key]
        head = f"{log.user_id},{log.platform},{log.session_id},"
        keys = map(log.key_names.__getitem__, log.keys.tolist())
        actions = map(_ACTION_TEXT.__getitem__, log.presses.tolist())
        out.writelines(f"{head}{k},{a},{t!r}\n" for k, a, t in zip(keys, actions, log.times.tolist()))
    return out.getvalue()


def read_corpus(paths: str | os.PathLike | Iterable[str | os.PathLike]) -> tuple[Corpus, ParseResult]:
    """Load CSV input into one corpus.

    ``paths`` is one path or several; each names a CSV file or a directory
    whose ``*.csv`` files are read in name order. Each file is streamed once
    through :func:`parse_log`, so bad rows are skipped with a warning. The
    returned :class:`ParseResult` holds every file's sessions in read order
    and sums their warnings and row counts.
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
            with file.open("rb") as stream:
                res = parse_log(stream, source=str(file))
            combined.sessions.extend(res.sessions)
            combined.warnings.extend(res.warnings)
            combined.rows_total += res.rows_total
            combined.rows_rejected += res.rows_rejected
            combined.resorted_sessions += res.resorted_sessions
    return Corpus.from_logs(combined.sessions), combined


@dataclass(frozen=True, eq=False)
class Keystrokes:
    """One session's paired keystrokes as columns, in press order; ties keep release order.

    Keystroke ``i`` holds key ``key_names[keys[i]]`` from ``press_ms[i]`` to
    ``release_ms[i]``.
    """

    key_names: tuple[str, ...]
    keys: np.ndarray  # intp, index into key_names
    press_ms: np.ndarray  # float64
    release_ms: np.ndarray  # float64

    def __len__(self) -> int:
        return self.keys.size


@dataclass
class PairingResult:
    pairs: Keystrokes
    dropped_repeats: int = 0
    dropped_orphan_releases: int = 0
    dropped_unreleased: int = 0

    @property
    def dropped_total(self) -> int:
        return self.dropped_repeats + self.dropped_orphan_releases + self.dropped_unreleased


def pair_events(log: SessionLog) -> PairingResult:
    """Match each PRESS to the next RELEASE of the same key.

    A second PRESS of a key already held is OS auto-repeat and is dropped; a
    RELEASE with no pending PRESS is dropped; presses never released within
    the session are dropped. Output is ordered by press time; keystrokes
    pressed at one time keep the order of their releases.
    """
    n = log.keys.size
    by_key = np.argsort(log.keys, kind="stable")  # each key's events in time order
    key, press, times = log.keys[by_key], log.presses[by_key], log.times[by_key]
    # an event that follows a press of its own key: a press there repeats, a release closes
    held = np.zeros(n, bool)
    held[1:] = press[:-1] & (key[1:] == key[:-1])
    opens = press & ~held
    close = np.flatnonzero(~press & held)
    # the press a release closes is the last one that opened before it, which is of its key
    opener = np.maximum.accumulate(np.where(opens, np.arange(n), 0))[close]
    press_ms, release_ms = times[opener], times[close]
    order = np.lexsort((by_key[close], press_ms))
    pairs = Keystrokes(log.key_names, key[close][order], press_ms[order], release_ms[order])
    presses, opened = int(np.count_nonzero(press)), int(np.count_nonzero(opens))
    return PairingResult(pairs, presses - opened, n - presses - close.size, opened - close.size)
