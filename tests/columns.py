"""Sessions and keystrokes built from plain rows, and read back as rows; feature names.

keydyn holds a session's events (``SessionLog``) and its paired keystrokes
(``Keystrokes``) only as columns. Tests state their inputs and expectations
as rows: an event is ``(key, "P" | "R", time_ms)`` and a keystroke is
``(key, press_ms, release_ms)``. A feature is named by its kind's letter and
its label, as :mod:`keydyn.features` names it: ``U:a``, ``D:a|b``, ``W:ab``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from keydyn.ingest import Keystrokes, SessionLog

_ACTIONS = {"R": False, "P": True}


def _codes(keys: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ``keys`` in order of first sight, and each key's index among them."""
    names: dict[str, int] = {}
    codes = [names.setdefault(key, len(names)) for key in keys]
    return tuple(names), np.array(codes, np.int32)


def session_log(rows, user: str = "u1", platform: str = "F", session: int = 1) -> SessionLog:
    """A session of ``(key, "P" | "R", time_ms)`` event rows, kept in the order given."""
    rows = list(rows)
    key_names, keys = _codes(key for key, _, _ in rows)
    presses = np.array([_ACTIONS[action] for _, action, _ in rows], bool)
    times = np.array([time_ms for _, _, time_ms in rows], np.float64)
    return SessionLog(user, platform, session, key_names, keys, presses, times)


def event_rows(log: SessionLog) -> list[tuple[str, str, float]]:
    """A session's events as ``(key, "P" | "R", time_ms)`` rows."""
    keys = map(log.key_names.__getitem__, log.keys.tolist())
    actions = ("P" if press else "R" for press in log.presses.tolist())
    return list(zip(keys, actions, log.times.tolist()))


def keystrokes(rows) -> Keystrokes:
    """Keystrokes of ``(key, press_ms, release_ms)`` rows, kept in the order given."""
    rows = list(rows)
    key_names, keys = _codes(key for key, _, _ in rows)
    press = np.array([press_ms for _, press_ms, _ in rows], np.float64)
    release = np.array([release_ms for _, _, release_ms in rows], np.float64)
    return Keystrokes(key_names, keys, press, release)


def keystroke_rows(pairs: Keystrokes) -> list[tuple[str, float, float]]:
    """Keystrokes as ``(key, press_ms, release_ms)`` rows."""
    keys = map(pairs.key_names.__getitem__, pairs.keys.tolist())
    return list(zip(keys, pairs.press_ms.tolist(), pairs.release_ms.tolist()))


def unigraph_key(key: str) -> str:
    return f"U:{key}"


def digraph_key(first: str, second: str) -> str:
    return f"D:{first}|{second}"


def wordhold_key(word: str) -> str:
    return f"W:{word}"
