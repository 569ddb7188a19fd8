"""The columnar pairing, extractors and parser against their row-at-a-time oracles, bit for bit,
and pairing and extraction a batch of sessions at a time against one session at a time."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keydyn import ingest
from keydyn.errors import EmptyInputError, MalformedRowError
from keydyn.features import extract_digraphs, extract_unigraphs, extract_wordholds, profile_to_json, session_features
from keydyn.ingest import Corpus, pair_events, parse_log, read_corpus, serialize_corpus
from keydyn.verifiers import session_runs

from columns import digraph_key as D
from columns import event_rows, keystroke_rows, keystrokes, session_log
from columns import unigraph_key as U
from columns import wordhold_key as W
from oracles import (
    extract_digraphs_oracle,
    extract_unigraphs_oracle,
    extract_wordholds_oracle,
    pair_events_oracle,
    parse_log_oracle,
)

EXTRACTORS = (
    (extract_unigraphs, extract_unigraphs_oracle),
    (extract_digraphs, extract_digraphs_oracle),
    (extract_wordholds, extract_wordholds_oracle),
)


def bits(values):
    """Floats as their exact bits, so -0.0 and 0.0 differ."""
    return [float.hex(float(v)) for v in values]


def exact_pairs(rows):
    return [(key, *bits((press_ms, release_ms))) for key, press_ms, release_ms in rows]


def exact_features(features):
    return [(key, bits(values)) for key, values in features.items()]


# few keys and few distinct times: equal timestamps, rollover, auto-repeat,
# orphan releases and unreleased presses are all common; " ", SPACE, ENTER
# and SHIFT end words, and a session of them alone has no word character
session_events = st.lists(
    st.tuples(
        st.sampled_from(("a", "b", "e", " ", "SPACE", "ENTER", "SHIFT")),
        st.sampled_from(("P", "R")),
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 2.5, 7.0, 1e300)),
    ),
    max_size=30,
)


def session(raw, in_time_order):
    if in_time_order:  # as parsed sessions are: stable by time, equal times in drawn order
        raw = sorted(raw, key=lambda e: e[2])
    return session_log(raw, "u", "F", 1)


@settings(max_examples=400, deadline=None)
@example([("a", "P", 0.0), ("a", "R", 1.0)], True)  # one keystroke
@example([("SPACE", "P", 0.0), ("SPACE", "R", 1.0), ("ENTER", "P", 1.0), ("ENTER", "R", 2.0)], True)
@example([("a", "P", -0.0), ("b", "P", 0.0), ("b", "R", 0.0), ("a", "R", -0.0)], True)
@example([("a", "R", 0.0), ("a", "P", 1.0), ("a", "P", 1.0), ("b", "P", 2.0), ("a", "R", 2.0)], True)
@given(session_events, st.booleans())
def test_pairing_matches_oracle(raw, in_time_order):
    log = session(raw, in_time_order)
    result = pair_events(log)
    pairs, repeats, orphans, unreleased = pair_events_oracle(event_rows(log))
    assert exact_pairs(keystroke_rows(result.pairs)) == exact_pairs(pairs)
    assert (result.dropped_repeats, result.dropped_orphan_releases, result.dropped_unreleased) == (
        repeats,
        orphans,
        unreleased,
    )


@settings(max_examples=400, deadline=None)
@example([("a", "P", 0.0), ("a", "R", 1.0)], True)
@example([("SPACE", "P", 0.0), ("SPACE", "R", 1.0)], True)
@example([("e", "P", 0.0), ("e", "R", -0.0)], True)  # a hold of -0.0
@given(session_events, st.booleans())
def test_extractors_match_oracles(raw, in_time_order):
    log = session(raw, in_time_order)
    columns = pair_events(log).pairs
    rows = pair_events_oracle(event_rows(log))[0]
    for extract, oracle in EXTRACTORS:
        want = exact_features(oracle(rows))
        assert exact_features(extract(columns)) == want  # keys in occurrence order, values too
        assert exact_features(extract(keystrokes(rows))) == want  # the oracle's pairs, as columns


# -- a batch of sessions at a time -------------------------------------------------

# tie-heavy sessions: "1", "2|3" and "1|2", "3" name one digraph, D:1|2|3; " " and
# SPACE end words, and -0.0 gives holds and latencies of -0.0
batch_events = st.lists(
    st.tuples(
        st.sampled_from(("1", "2|3", "1|2", "3", "a", " ", "SPACE")),
        st.sampled_from(("P", "R")),
        st.sampled_from((0.0, -0.0, 1.0, 2.0, 2.5, 7.0)),
    ),
    max_size=14,
)


def typed(*keys):
    return [(key, action, float(i)) for i, key in enumerate(keys) for action in "PR"]


def cuts(n):
    """Every way to cut ``range(n)`` into runs of consecutive indexes."""
    for mask in range(2 ** (n - 1)):
        edges = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        yield [range(a, b) for a, b in zip(edges, edges[1:])]


def oracle_features(log):
    pairs = pair_events_oracle(event_rows(log))[0]
    return {**extract_unigraphs_oracle(pairs), **extract_digraphs_oracle(pairs), **extract_wordholds_oracle(pairs)}


def oracle_profile(log):
    doc = {"features": oracle_features(log), "platforms": [log.platform], "sessions": [log.session_id], "user": log.user_id}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def batched(logs, cut):
    """The drops, runs and profile texts of ``logs``, paired and extracted in the batches ``cut`` makes."""
    drops, parts, texts = [], [], []
    for indexes in cut:
        batch = [logs[i] for i in indexes]
        pairing = pair_events(*batch)
        features = session_features(*batch, pairs=pairing.pairs)
        drops.extend(map(tuple, pairing.dropped.tolist()))
        parts.append(features)
        texts.extend(profile_to_json(log, features, i) for i, log in enumerate(batch))
    runs, names = session_runs(parts)
    return drops, [run.tobytes() for run in runs], names, texts


@settings(max_examples=60, deadline=None)
@example([typed("1", "2|3"), typed("1|2", "3")], False)
@example([typed("a", "1"), [("a", "P", 0.0), ("a", "R", -0.0), ("1", "R", 1.0), ("3", "P", 2.0), ("3", "P", 2.0)]], True)
@example([typed("a", "1"), [], typed("3", " ", "a")], True)
@given(st.lists(batch_events, min_size=2, max_size=6), st.booleans())
def test_any_cut_into_batches_gives_each_sessions_pairs_features_and_profile(raw, parsed):
    logs = [session_log(sorted(events, key=lambda e: e[2]), "u", "F", s) for s, events in enumerate(raw, 1)]
    if parsed and all(raw):  # sessions of one parse share its key names; a parse keeps no empty session
        logs = parse_log(serialize_corpus(Corpus.from_logs(logs))).sessions
    oracles = [pair_events_oracle(event_rows(log)) for log in logs]
    want_runs, want_names = session_runs([oracle_features(log) for log in logs])
    want = ([tuple(counts) for _, *counts in oracles], [run.tobytes() for run in want_runs], want_names)
    for cut in cuts(len(logs)):
        drops, runs, names, texts = batched(logs, cut)
        assert (drops, runs, names) == want, cut
        assert texts == [oracle_profile(log) for log in logs], cut


def test_no_digraph_or_word_spans_two_sessions_of_a_batch():
    # one batch: "a" ends session 1 and "b" starts session 2, as one keystroke run across the bound
    logs = [session_log(typed("x", "a"), session=1), session_log(typed("b", "y"), session=2)]
    features = session_features(*logs)
    assert D("a", "b") not in features and W("xaby") not in features
    assert [features.session(s)[W(word)] for s, word in ((0, "xa"), (1, "by"))] == [[1.0], [1.0]]
    assert [list(features.session(s)) for s in (0, 1)] == [
        [U("x"), U("a"), D("x", "a"), W("xa")],
        [U("b"), U("y"), D("b", "y"), W("by")],
    ]


# -- parsing across block edges ----------------------------------------------------

# length-preserving faults, so the blocks of a corpus keep their edges
FAULTS = (
    lambda row: row.replace(",P,", ",X,").replace(",R,", ",X,"),  # unknown action
    lambda row: row[:-1] + "x",  # malformed timestamp
    lambda row: row.replace(",", ";", 1),  # five fields
    lambda row: " " * len(row),  # a blank line: skipped, not counted
    lambda row: " " * row.index(",") + row[row.index(",") :],  # blank user id
)


def interleaved_rows(n_rows, seed=11):
    """Rows of 40 sessions, dealt out of order, each session's times mostly rising, many tied."""
    rng = np.random.default_rng(seed)
    rows = []
    clock = np.zeros(40)
    for owner in rng.integers(0, 40, n_rows).tolist():
        clock[owner] += rng.integers(-5, 120)  # steps back re-sort a session, steps of 0 tie
        key = "abcdefg"[int(rng.integers(0, 7))]
        user, session_id = divmod(owner, 4)
        rows.append(f"u{user:02d},F,{session_id + 1},{key},{'PR'[int(rng.integers(0, 2))]},{abs(clock[owner])}")
    return rows


def block_edges(text):
    """Index of the first row of each block after the first, as ``parse_log`` cuts ``text``:
    each read of ``ingest._BLOCK_SIZE`` bytes (characters of ASCII text) ends a block after the last
    line feed so far."""
    edges = []
    for end in range(ingest._BLOCK_SIZE, len(text), ingest._BLOCK_SIZE):
        cut = text.rfind("\n", 0, end) + 1
        edge = text.count("\n", 0, cut) - 1  # rows exclude the header
        if cut and edge not in edges[-1:]:
            edges.append(edge)
    return edges


def corpus_text(rows):
    return "\n".join([ingest.CSV_HEADER] + rows) + "\n"


def parse_outcome(parse, text):
    try:
        result = parse(text)
    except MalformedRowError as exc:
        return "malformed", (exc.row, str(exc))
    if isinstance(result, dict):
        return "ok", result
    return "ok", {
        "sessions": [
            (s.user_id, s.platform, s.session_id, event_rows(s))
            for s in result.sessions
        ],
        "warnings": result.warnings,
        "rows_total": result.rows_total,
        "rows_rejected": result.rows_rejected,
        "resorted_sessions": result.resorted_sessions,
    }


def test_parse_across_block_edges_matches_oracle():
    rows = interleaved_rows(100_000)
    edges = block_edges(corpus_text(rows))
    assert len(edges) >= 3
    faulty = list(rows)
    for n, edge in enumerate(edges):  # faults on both sides of every edge
        for offset in (-2, -1, 0, 1):
            faulty[edge + offset] = FAULTS[(n + offset) % len(FAULTS)](faulty[edge + offset])
    text = corpus_text(faulty)
    assert block_edges(text) == edges
    got = parse_outcome(parse_log, text)
    assert got == parse_outcome(parse_log_oracle, text)
    blank = sum(not row.strip() for row in faulty)
    assert (got[1]["rows_total"], got[1]["rows_rejected"]) == (len(rows) - blank, 4 * len(edges) - blank)
    assert got[1]["resorted_sessions"] > 0
    # each skipped row is named by its number, on either side of an edge (the header is row 1)
    skipped = [int(re.match(r"row (\d+): ", w)[1]) for w in got[1]["warnings"] if w.startswith("row ")]
    assert skipped == [i + 2 for i, row in enumerate(faulty) if row != rows[i] and row.strip()]


# -- streaming files ---------------------------------------------------------------


def read_outcome(parse, data, source):
    """``parse_outcome``, with an empty input as an outcome of its own."""
    try:
        return parse_outcome(lambda d: parse(d, source=source), data)
    except EmptyInputError as exc:
        return "empty", str(exc)


def in_turn(outcomes):
    """The outcome of parsing files one after another: the first error, or their results summed."""
    total = {"sessions": [], "warnings": [], "rows_total": 0, "rows_rejected": 0, "resorted_sessions": 0}
    for kind, got in outcomes:
        if kind != "ok":
            return kind, got
        for name, value in got.items():
            total[name] += value
    return "ok", total


def with_faults_at_edges(rows):
    """``rows`` with faults on both sides of every block edge of their corpus text."""
    faulty = list(rows)
    for n, edge in enumerate(block_edges(corpus_text(rows))):
        for offset in (-2, -1, 0, 1):
            faulty[edge + offset] = FAULTS[(n + offset) % len(FAULTS)](faulty[edge + offset])
    return faulty


def cut_through(piece, at):
    """A corpus with faulty rows around ``piece`` (bytes), whose byte ``at`` is the last of the first read."""
    rows = interleaved_rows(4_000, seed=3)
    rows[1_999], rows[2_000] = FAULTS[0](rows[1_999]), FAULTS[1](rows[2_000])
    head = corpus_text(rows[:2_000]).encode()
    pad = ingest._BLOCK_SIZE - 1 - len(head) - 1 - at  # a blank line, skipped
    data = head + b" " * pad + b"\n" + piece + "\n".join(rows[2_000:]).encode() + b"\n"
    assert pad >= 0 and data.index(piece) + at == ingest._BLOCK_SIZE - 1
    return data


def key_row(key):
    return b"u00,F,1," + key.encode() + b",P,5.0\n"


def stream_cases():
    """Each case: the bytes of one or more files."""
    rows = interleaved_rows(12_000, seed=5)
    assert len(block_edges(corpus_text(rows))) >= 3
    text = corpus_text(with_faults_at_edges(rows))
    other = corpus_text([row.replace(",F,", ",I,") for row in rows[:3_000]])
    third = corpus_text(rows[:5]).replace(",F,", ",T,")
    crlf = "\ufeff" + text.replace("\n", "\r\n")
    mixed = "".join(line + ("\n", "\r", "\r\n")[i % 3] for i, line in enumerate(text.splitlines()))
    bad_utf8 = "u00,F,1,\udcff,P,1"  # \udcff is written as the byte 0xff
    malformed_first = corpus_text(rows[:1] + [FAULTS[0](rows[1])] + rows[2:9_000] + [bad_utf8] + rows[9_000:])
    return [
        pytest.param([text.encode()], id="faults at block edges"),
        pytest.param([crlf.encode()], id="BOM and CRLF"),
        pytest.param([text.replace("\n", "\r").encode()], id="lone CR"),
        pytest.param([mixed.encode()], id="CR, LF and CRLF mixed"),
        pytest.param([cut_through(key_row("é"), 8)], id="2-byte key across a read"),
        pytest.param([cut_through(key_row("€"), 9)], id="3-byte key across a read"),
        pytest.param([cut_through(key_row("𝄞"), 10)], id="4-byte key across a read"),
        pytest.param([cut_through(key_row("€")[:10] + b",P,5.0\n", 8)], id="truncated key across a read"),
        pytest.param([cut_through(b"u00,F,1,a,P,5.0\r\n", 15)], id="CRLF across a read"),
        pytest.param([cut_through(b"u00,F,1,a,P,5.0\r", 15)], id="lone CR across a read"),
        pytest.param([malformed_first.encode(errors="surrogateescape")], id="bad UTF-8 after a malformed row"),
        pytest.param([b""], id="empty file"),
        pytest.param([b"\xef\xbb\xbf"], id="BOM only"),
        pytest.param([crlf.encode(), other.encode(), b"\xef\xbb\xbf" + third.encode()], id="several files"),
        pytest.param([other.encode(), b""], id="several files, the second empty"),
    ]


@pytest.mark.parametrize("contents", stream_cases())
def test_read_corpus_streams_each_file_as_parse_log_parses_its_bytes(tmp_path, contents):
    paths = []
    for i, data in enumerate(contents):
        paths.append(tmp_path / f"{i}.csv")
        paths[-1].write_bytes(data)
    got = read_outcome(lambda paths, source: read_corpus(paths)[1], paths, None)
    whole = in_turn(read_outcome(parse_log, path.read_bytes(), str(path)) for path in paths)
    assert got == whole
    assert got == in_turn(read_outcome(parse_log_oracle, path.read_bytes(), str(path)) for path in paths)


def test_invalid_utf8_outranks_an_earlier_malformed_row(tmp_path):
    rows = interleaved_rows(9_000, seed=5)
    path = tmp_path / "bad.csv"
    text = corpus_text(rows[:1] + [FAULTS[0](rows[1])] + rows[2:] + ["u00,F,1,\udcff,P,1"])
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    byte = path.read_bytes().index(b"\xff")
    assert byte > ingest._BLOCK_SIZE  # read blocks after the malformed row 3
    with pytest.raises(MalformedRowError, match=f"^{re.escape(str(path))}:9002: invalid UTF-8 at byte {byte}$"):
        read_corpus(path)
