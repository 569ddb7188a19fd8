from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from keydyn.errors import DuplicateSessionError, EmptyInputError, MalformedRowError
from keydyn.ingest import (
    Action,
    Corpus,
    KeyEvent,
    SessionLog,
    canonicalize_key,
    pair_events,
    parse_log,
    read_corpus,
    serialize_corpus,
)

HEADER = "user_id,platform,session_id,key,action,time_ms\n"


def make_log(events, user="u1", platform="F", session=1):
    return SessionLog(user, platform, session, [KeyEvent(k, Action(a), float(t)) for k, a, t in events])


def test_parse_four_rows_one_session():
    text = HEADER + (
        "u1,F,1,a,P,0\n"
        "u1,F,1,a,R,50\n"
        "u1,F,1,b,P,120\n"
        "u1,F,1,b,R,160\n"
    )
    result = parse_log(text)
    assert len(result.sessions) == 1
    log = result.sessions[0]
    assert log.session_key == ("u1", "F", 1)
    assert len(log.events) == 4
    assert [e.time_ms for e in log.events] == [0, 50, 120, 160]
    assert result.warnings == []


def test_parse_groups_by_session_triple():
    text = HEADER + (
        "u1,F,1,a,P,0\n"
        "u2,T,3,b,P,5\n"
        "u1,F,2,a,P,1\n"
        "u1,F,1,a,R,40\n"
    )
    result = parse_log(text)
    keys = [log.session_key for log in result.sessions]
    assert keys == [("u1", "F", 1), ("u1", "F", 2), ("u2", "T", 3)]


def test_parse_empty_input_errors():
    with pytest.raises(EmptyInputError):
        parse_log("")
    with pytest.raises(EmptyInputError):
        parse_log(HEADER)


def test_parse_bad_header_errors():
    with pytest.raises(MalformedRowError):
        parse_log("nope,nope\nu1,F,1,a,P,0\n")


def test_parse_out_of_order_rows_resorted():
    text = HEADER + (
        "u1,F,1,b,P,120\n"
        "u1,F,1,a,P,0\n"
        "u1,F,1,a,R,50\n"
        "u1,F,1,b,R,160\n"
    )
    result = parse_log(text)
    times = [e.time_ms for e in result.sessions[0].events]
    assert times == sorted(times) == [0, 50, 120, 160]
    assert result.resorted_sessions == 1
    assert any("re-sorted" in w for w in result.warnings)


@pytest.mark.parametrize(
    "row,reason_part",
    [
        ("u1,F,1,a,X,0", "action"),
        ("u1,F,1,a,P,abc", "timestamp"),
        ("u1,F,1,a,P,-5", "timestamp"),
        ("u1,F,1,a,R,inf", "timestamp"),
        ("u1,F,x,a,P,0", "session_id"),
        ("u1,F,1,a,P", "fields"),
        (",F,1,a,P,0", "empty"),
    ],
)
def test_parse_malformed_rows(row, reason_part):
    text = HEADER + "u1,F,1,a,P,0\n" + row + "\n"
    with pytest.raises(MalformedRowError) as exc:
        parse_log(text)
    assert exc.value.row == 3
    assert reason_part in str(exc.value)

    lenient = parse_log(text, strict=False)
    assert lenient.rows_rejected == 1
    assert any("row 3" in w for w in lenient.warnings)
    assert len(lenient.sessions[0].events) == 1


def test_parse_duplicate_rows_kept():
    text = HEADER + "u1,F,1,a,P,10\nu1,F,1,a,P,10\n"
    result = parse_log(text)
    assert len(result.sessions[0].events) == 2


def test_parse_keys_canonicalized():
    text = HEADER + "u1,F,1,A,P,0\nu1,F,1,Key.space,P,5\nu1,F,1,COMMA,P,9\n"
    events = parse_log(text).sessions[0].events
    assert [e.key for e in events] == ["a", "SPACE", "COMMA"]


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("A", "a"),
        ("z", "z"),
        (",", "COMMA"),
        (" ", "SPACE"),
        ("\t", "TAB"),
        ("Key.space", "SPACE"),
        ("Key.enter", "ENTER"),
        ("shift_r", "SHIFT"),
        ("Key.shift_l", "SHIFT"),
        ("cmd", "META"),
        ("Backspace", "BACKSPACE"),
        ("F1", "F1"),
        (".", "."),
    ],
)
def test_canonicalize_key(raw, expected):
    assert canonicalize_key(raw) == expected


def test_canonicalize_rejects_empty():
    with pytest.raises(ValueError):
        canonicalize_key("  ")


def test_serialize_parse_round_trip():
    corpus = Corpus.from_logs(
        [
            make_log([("a", "P", 0), ("a", "R", 50.5)], user="u1"),
            make_log([("SPACE", "P", 3), ("SPACE", "R", 33)], user="u2", platform="T", session=4),
        ]
    )
    text = serialize_corpus(corpus)
    assert text.startswith(HEADER)
    round_tripped = Corpus.from_logs(parse_log(text).sessions)
    assert round_tripped == corpus
    # serialization is canonical: a second trip is byte-identical
    assert serialize_corpus(round_tripped) == text


def test_corpus_roster_and_duplicate_detection():
    a = make_log([("a", "P", 0)], user="ub")
    b = make_log([("a", "P", 0)], user="ua")
    corpus = Corpus.from_logs([a, b])
    assert corpus.roster == ["ua", "ub"]
    with pytest.raises(DuplicateSessionError):
        Corpus.from_logs([a, a])


def test_read_corpus_directory(tmp_path):
    (tmp_path / "one.csv").write_text(HEADER + "u1,F,1,a,P,0\n")
    (tmp_path / "two.csv").write_text(HEADER + "u2,F,1,a,P,0\n")
    corpus, summary = read_corpus(tmp_path)
    assert corpus.roster == ["u1", "u2"]
    assert summary.rows_total == 2
    with pytest.raises(FileNotFoundError):
        read_corpus(tmp_path / "missing-dir")
    empty = tmp_path / "empty-dir"
    empty.mkdir()
    with pytest.raises(EmptyInputError):
        read_corpus(empty)


def test_pair_events_simple():
    log = make_log([("a", "P", 0), ("a", "R", 50)])
    result = pair_events(log)
    assert [(p.key, p.press_ms, p.release_ms) for p in result.pairs] == [("a", 0, 50)]
    assert result.dropped_total == 0


def test_pair_events_rollover_preserved():
    log = make_log([("a", "P", 0), ("b", "P", 30), ("a", "R", 60), ("b", "R", 90)])
    result = pair_events(log)
    assert [(p.key, p.press_ms, p.release_ms) for p in result.pairs] == [("a", 0, 60), ("b", 30, 90)]


def test_pair_events_drops_auto_repeat():
    log = make_log([("a", "P", 0), ("a", "P", 10), ("a", "R", 50)])
    result = pair_events(log)
    assert [(p.key, p.press_ms, p.release_ms) for p in result.pairs] == [("a", 0, 50)]
    assert result.dropped_repeats == 1


def test_pair_events_drops_orphans_and_unreleased():
    log = make_log([("b", "R", 5), ("a", "P", 10)])
    result = pair_events(log)
    assert result.pairs == []
    assert result.dropped_orphan_releases == 1
    assert result.dropped_unreleased == 1


def test_pair_events_output_ordered_by_press():
    # b releases before a, but a was pressed first
    log = make_log([("a", "P", 0), ("b", "P", 5), ("b", "R", 8), ("a", "R", 90)])
    result = pair_events(log)
    assert [p.key for p in result.pairs] == ["a", "b"]


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "SPACE"]),
        st.sampled_from(["P", "R"]),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=40,
)


@given(events_strategy)
def test_pairing_invariants(raw_events):
    ordered = sorted(raw_events, key=lambda e: e[2])
    log = make_log(ordered)
    result = pair_events(log)
    presses = sum(1 for e in log.events if e.action is Action.PRESS)
    assert len(result.pairs) <= presses
    assert all(p.release_ms >= p.press_ms for p in result.pairs)
    press_times = [p.press_ms for p in result.pairs]
    assert press_times == sorted(press_times)
    # accounting: every event is either paired or counted as dropped
    assert 2 * len(result.pairs) + result.dropped_total == len(log.events)


@given(events_strategy)
def test_pairing_deterministic(raw_events):
    ordered = sorted(raw_events, key=lambda e: e[2])
    log = make_log(ordered)
    assert pair_events(log).pairs == pair_events(log).pairs
