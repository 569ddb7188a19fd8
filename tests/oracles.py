"""Independent brute-force transcriptions of the three verifier algorithms,
of rank-k accuracy and of the log parser, and row-at-a-time copies of the
pairing and the three extractors.

Written against the algorithm definitions only, with plain loops and the
statistics module; the verifier oracles deliberately share no code with the
package so they can serve as the reference side of the equivalence checks.
The pairing and extractor oracles are the package's earlier loops over
named-tuple rows, kept as they were, that its columnar versions replace.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from operator import itemgetter


def oracle_similarity(a: dict, b: dict, corrected: bool = False) -> float:
    common = [f for f in a if f in b]
    if len(common) == 0:
        return 0.0
    k = 0
    t = 0
    for f in common:
        mid = statistics.median(a[f])
        if len(a[f]) >= 2:
            sigma = statistics.stdev(a[f])
        else:
            sigma = a[f][0] / 4
        v = 0
        u = 0
        for e in b[f]:
            if mid - sigma < e < mid + sigma:
                v += 1
            u += 1
        if v / u <= 0.5:
            k += 1
        t += 1
    return (t - k) / t if corrected else k / t


def oracle_absolute(a: dict, b: dict, threshold: float = 1.5) -> float:
    common = [f for f in a if f in b]
    if len(common) == 0:
        return 0.0
    m = 0
    for f in common:
        med_a = statistics.median(a[f])
        med_b = statistics.median(b[f])
        if med_a > 0 and med_b > 0:
            if max(med_a, med_b) / min(med_a, med_b) <= threshold:
                m += 1
        elif med_a == 0 and med_b == 0:
            m += 1
        elif med_a < 0 and med_b < 0:
            big = max(abs(med_a), abs(med_b))
            small = min(abs(med_a), abs(med_b))
            if big / small <= threshold:
                m += 1
        # opposite signs, or exactly one zero median: never a match
    return m / len(common)


def oracle_itad(a: dict, b: dict) -> float:
    common = sorted(f for f in a if f in b)
    if len(common) == 0:
        return 0.0
    q = []
    for f in common:
        x = a[f]
        mid = statistics.median(x)
        for y in b[f]:
            p = sum(1 for value in x if value <= y) / len(x)
            q.append(p if y <= mid else 1.0 - p)
    return sum(q) / len(q)


def oracle_k_rank(rows: list[list[float]], k: int) -> float:
    """Fraction of probes (rows) whose genuine cell ranks in the top k; ties go to the lower column."""
    correct = 0
    for i, row in enumerate(rows):
        better = sum(1 for v in row if v > row[i])
        tied_before = sum(1 for v in row[:i] if v == row[i])
        if better + tied_before < k:
            correct += 1
    return correct / len(rows)


def parse_log_oracle(data, source=None) -> dict:
    """Row-by-row transcription of ``parse_log``, on plain tuples.

    Reuses only the key canonicalization, the header constant and the error
    types of the package. Returns ``sessions`` as (user, platform, session,
    [(key, action, time_ms), ...]) in sorted session order, and the
    ``warnings``, ``rows_total``, ``rows_rejected`` and ``resorted_sessions``
    of the result.
    """
    from keydyn.errors import EmptyInputError, MalformedRowError
    from keydyn.ingest import CSV_HEADER, canonicalize_key

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

    out = {"sessions": [], "warnings": [], "rows_total": 0, "rows_rejected": 0, "resorted_sessions": 0}
    grouped = {}
    for row_no in range(2, len(lines) + 1):
        line = lines[row_no - 1]
        if line.strip() == "":
            continue
        out["rows_total"] += 1
        fields = line.split(",")
        reason = None
        if len(fields) != 6:
            reason = f"expected 6 fields, got {len(fields)}"
        else:
            user, platform, session_raw, key_raw, action, time_raw = [f.strip() for f in fields]
            if user == "" or platform == "" or key_raw == "":
                reason = "empty user_id, platform, or key"
            else:
                try:
                    session = int(session_raw)
                except ValueError:
                    reason = f"malformed session_id {session_raw!r}"
            if reason is None and action != "P" and action != "R":
                reason = f"unknown action {action!r}"
            if reason is None:
                try:
                    time_ms = float(time_raw)
                except ValueError:
                    reason = f"malformed timestamp {time_raw!r}"
                else:
                    if time_ms != time_ms or time_ms in (float("inf"), float("-inf")) or time_ms < 0:
                        reason = f"negative or non-finite timestamp {time_raw!r}"
        if reason is not None:
            out["rows_rejected"] += 1
            out["warnings"].append(f"row {row_no}: {reason} (skipped)")
            continue
        grouped.setdefault((user, platform, session), []).append((canonicalize_key(key_raw), action, time_ms))

    if out["rows_total"] == 0:
        raise EmptyInputError("no data rows" + (f": {source}" if source else ""))
    for key in sorted(grouped):
        events = grouped[key]
        in_order = all(events[i][2] <= events[i + 1][2] for i in range(len(events) - 1))
        if not in_order:
            events = sorted(events, key=lambda e: e[2])
            out["resorted_sessions"] += 1
            out["warnings"].append(f"session {key}: out-of-order timestamps, re-sorted")
        out["sessions"].append((key[0], key[1], key[2], events))
    return out


# -- row-at-a-time pairing and extraction ----------------------------------------

_press_ms = itemgetter(1)


def pair_events_oracle(events) -> tuple[list, int, int, int]:
    """Match each PRESS to the next RELEASE of the same key, one ``(key, "P" | "R", time_ms)`` row at a time.

    Returns the ``(key, press_ms, release_ms)`` rows ordered by press time
    (stable) and the counts of repeats, orphan releases and unreleased presses.
    """
    pairs = []
    pending: dict[str, float] = {}
    repeats = orphans = 0
    for key, action, time_ms in events:
        if action == "P":
            if key in pending:
                repeats += 1
            else:
                pending[key] = time_ms
        else:
            press_ms = pending.pop(key, None)
            if press_ms is None:
                orphans += 1
            else:
                pairs.append((key, press_ms, time_ms))
    pairs.sort(key=_press_ms)
    return pairs, repeats, orphans, len(pending)


def _keyed(kind, grouped: dict) -> dict:
    from keydyn.features import FeatureKey

    return {FeatureKey(kind, label): values for label, values in grouped.items()}


def extract_unigraphs_oracle(pairs) -> dict:
    from keydyn.features import Kind

    grouped: defaultdict[str, list[float]] = defaultdict(list)
    for key, press_ms, release_ms in pairs:
        grouped[key].append(release_ms - press_ms)
    return _keyed(Kind.UNIGRAPH, grouped)


def extract_digraphs_oracle(pairs) -> dict:
    from keydyn.features import Kind

    grouped: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
    for (first, _, release_ms), (second, press_ms, _) in zip(pairs, pairs[1:]):
        grouped[first, second].append(press_ms - release_ms)
    return _keyed(Kind.DIGRAPH, grouped)


def _is_word_char(key: str) -> bool:
    return len(key) == 1 and not key.isspace()


def extract_wordholds_oracle(pairs) -> dict:
    from keydyn.features import Kind

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
