from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keydyn import ingest, synth
from keydyn.errors import DuplicateSessionError, EmptyInputError, KeydynError, MalformedRowError
from keydyn.ingest import (
    Corpus,
    SessionLog,
    canonicalize_key,
    pair_events,
    parse_log,
    read_corpus,
    serialize_corpus,
    write_corpus,
)

from columns import event_rows, keystroke_rows
from columns import session_log as make_log  # the name session_log is this module's hypothesis strategy
from oracles import parse_log_oracle, serialize_corpus_oracle

HEADER = "user_id,platform,session_id,key,action,time_ms\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with this checkout's package first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


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
    assert len(event_rows(log)) == 4
    assert [t for _, _, t in event_rows(log)] == [0, 50, 120, 160]
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


@pytest.mark.parametrize("as_bytes", [True, False])
def test_parse_accepts_one_leading_bom(as_bytes):
    text = HEADER + "u1,F,1,a,P,0\nu1,F,1,a,R,50\n"
    bom = "\ufeff"
    data = (bom + text).encode("utf-8") if as_bytes else bom + text
    assert Corpus.from_logs(parse_log(data).sessions) == Corpus.from_logs(parse_log(text).sessions)
    # only one mark is dropped: a second one is part of the header
    twice = (bom + bom + text).encode("utf-8") if as_bytes else bom + bom + text
    with pytest.raises(MalformedRowError, match="bad header"):
        parse_log(twice)


def test_parse_out_of_order_rows_resorted():
    text = HEADER + (
        "u1,F,1,b,P,120\n"
        "u1,F,1,a,P,0\n"
        "u1,F,1,a,R,50\n"
        "u1,F,1,b,R,160\n"
    )
    result = parse_log(text)
    times = [t for _, _, t in event_rows(result.sessions[0])]
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
    result = parse_log(text)
    assert result.rows_rejected == 1
    [warning] = result.warnings
    assert re.fullmatch(rf"row 3: .*{reason_part}.* \(skipped\)", warning)
    assert len(event_rows(result.sessions[0])) == 1


def test_parse_duplicate_rows_kept():
    text = HEADER + "u1,F,1,a,P,10\nu1,F,1,a,P,10\n"
    result = parse_log(text)
    assert len(event_rows(result.sessions[0])) == 2


def test_parse_keys_canonicalized():
    text = HEADER + "u1,F,1,A,P,0\nu1,F,1,Key.space,P,5\nu1,F,1,COMMA,P,9\n"
    events = event_rows(parse_log(text).sessions[0])
    assert [key for key, _, _ in events] == ["a", "SPACE", "COMMA"]


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


def test_session_logs_compare_by_events_not_codes():
    rows = [("a", "P", 0.0), ("b", "P", 5.0), ("a", "R", 40.0), ("b", "R", 60.0)]
    log = make_log(rows)
    # the same events coded against other key names: another order, and a name no event uses
    recoded = SessionLog("u1", "F", 1, ("z", "b", "a"), np.array([2, 1, 2, 1]), log.presses.copy(), log.times.copy())
    assert recoded.key_names != log.key_names
    assert recoded == log and log == recoded

    one_key = [("a", "P", 0.0), ("b", "P", 5.0), ("b", "R", 40.0), ("b", "R", 60.0)]
    one_press = [("a", "P", 0.0), ("b", "R", 5.0), ("a", "R", 40.0), ("b", "R", 60.0)]
    one_time = [("a", "P", 0.0), ("b", "P", 5.0), ("a", "R", 40.5), ("b", "R", 60.0)]
    for events in (one_key, one_press, one_time, rows[:-1], rows + [("a", "P", 70.0)]):
        assert make_log(events) != log and log != make_log(events)
    for head in (("u2", "F", 1), ("u1", "I", 1), ("u1", "F", 2)):
        assert make_log(rows, *head) != log
    assert log != rows


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


def test_text_parses_as_its_utf8_bytes():
    text = HEADER + "u1,F,1,é,P,0\nu1,F,1,é,R,5\n"
    assert plain(parse_log(text)) == plain(parse_log(text.encode()))
    # a lone surrogate has no UTF-8 bytes, so text holding one fails as invalid UTF-8
    with pytest.raises(MalformedRowError, match=r"^row 3: invalid UTF-8 at byte 67$"):
        parse_log(HEADER + "u1,F,1,a,P,0\nu1,F,1,\udcff,R,5\n")


class ReadOnly:
    """A binary stream that can only be read: no ``seek`` or ``tell``."""

    def __init__(self, data):
        self._stream = io.BytesIO(data)

    def read(self, size=-1):
        return self._stream.read(size)


def test_parse_reads_a_stream_once_without_seeking():
    corpus = synth.generate_corpus(synth.SynthSpec(seed=3, n_users=2, separation=1.0))
    data = serialize_corpus(corpus).encode()
    assert len(data) > 3 * ingest._BLOCK_SIZE
    stream = ReadOnly(data)
    assert plain(parse_log(stream)) == plain(parse_log(data))
    assert stream.read() == b""  # read to its end


def test_invalid_utf8_past_a_block_outranks_a_bad_header():
    rows = "".join(f"u1,F,1,a,{'PR'[i % 2]},{i}\n" for i in range(5_000))
    data = b"user_id,platform\n" + rows.encode() + b"u1,F,1,\xff,P,9\n"
    byte = data.index(b"\xff")
    assert byte > ingest._BLOCK_SIZE
    with pytest.raises(MalformedRowError, match=rf"^row 5002: invalid UTF-8 at byte {byte}$"):
        parse_log(data)
    with pytest.raises(MalformedRowError, match=r"^row 1: bad header"):
        parse_log(data.replace(b"\xff", b"b"))


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_rows_end_only_at_lf_crlf_or_lone_cr(char):
    # str.splitlines would also cut the first row at char: 4 rows, two of 3 fields, and the bad one numbered 5
    text = HEADER + f"u1,F,1,a{char}b,P,1.0\nu1,F,1,a,R,2.0\nu1,F,1,zz,Q,3.0\n"
    for data in (text, text.encode()):
        result = parse_log(data)
        assert (result.rows_total, result.rows_rejected) == (3, 1)
        assert result.warnings == ["row 4: unknown action 'Q' (skipped)"]
        assert [key for key, _, _ in event_rows(result.sessions[0])] == [canonicalize_key(f"a{char}b"), "a"]
        assert parse_log_oracle(data)["warnings"] == result.warnings


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_is_numbered_by_every_line_end(end):
    data = (HEADER + "u1,F,1,a,P,0\nu1,F,1,a,R,5\nu1,F,1,\xff,P,9\nu1,F,1,b,R,12\n").replace("\n", end)
    data = data.encode("latin-1")
    message = rf"^row 4: invalid UTF-8 at byte {data.index(255)}$"
    for parse in (parse_log, parse_log_oracle):
        with pytest.raises(MalformedRowError, match=message):
            parse(data)


def test_read_corpus_memory_is_bounded_by_its_columns(tmp_path):
    # the file streams through in blocks: reading the whole file and its whole text peaked at 5x its size
    path = tmp_path / "corpus.csv"
    corpus = synth.generate_corpus(synth.SynthSpec(seed=25, n_users=26, separation=3.0))
    path.write_text(serialize_corpus(corpus), encoding="utf-8")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        read, summary = read_corpus(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert read == corpus and summary.rows_total == 141_784
    # 17 bytes a row while parsing and 13 kept, plus one block, come to about 1.16x this file
    assert peak <= 1.4 * path.stat().st_size, f"{peak / 1e6:.1f} MB peak for a {path.stat().st_size / 1e6:.1f} MB file"


def test_key_codes_are_32_bit_from_parse_to_pairing(tmp_path):
    # the parse, the synthesizer and pairing agree on one key-code dtype, so ingest memory cannot widen unseen
    path = tmp_path / "corpus.csv"
    path.write_text(HEADER + "u1,F,1,a,P,0\nu1,F,1,a,R,50\nu2,I,2,b,P,5\nu2,I,2,b,R,9\nu1,F,1,b,P,3\n")
    corpus, _ = read_corpus(path)
    generated = synth.generate_corpus(synth.SynthSpec(seed=1, n_users=2, separation=3.0))
    for log in [*corpus, *generated]:
        assert log.keys.dtype == np.int32
        assert pair_events(log).pairs.keys.dtype == np.int32


# Linux counts the resident set a child had before exec in its peak, so each command is started
# from a small interpreter, which reads its peak RSS through os.wait4
PEAK_RSS_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def peak_rss_mib(command: list[str]) -> float:
    """The peak resident set of a child running ``command``, in MiB."""
    done = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, *command], env=child_env(), capture_output=True)
    code, kib = map(int, done.stdout.split())  # ru_maxrss is in KiB on Linux
    assert code == 0, done.stderr.decode()
    return kib / 1024


@pytest.mark.skipif(
    not hasattr(os, "wait4") or not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB through os.wait4"
)
def test_extract_peak_rss_is_bounded_by_the_file(tmp_path):
    # the parse sets extract's peak: its columns grow in place, with no per-block parts joined at the end
    path = tmp_path / "corpus.csv"
    with open(path, "w", encoding="utf-8") as out:
        write_corpus(synth.generate_corpus(synth.SynthSpec(seed=25, n_users=26, separation=3.0)), out)
    extract = [sys.executable, "-m", "keydyn.cli", "extract", str(path), "--out", str(tmp_path / "out")]
    rise = peak_rss_mib(extract) - peak_rss_mib([sys.executable, "-c", "import keydyn.cli"])
    mib = path.stat().st_size / 2**20
    # about 1.2x this file; per-block parts and their join took 1.9x
    assert rise <= 1.5 * mib, f"extract peaks {rise:.1f} MiB above import for a {mib:.1f} MiB file"


@pytest.mark.skipif(
    not hasattr(os, "wait4") or not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB through os.wait4"
)
def test_score_peak_rss_is_bounded_by_the_file(tmp_path):
    # scoring holds the prepared profiles only: the corpus is let go, the session runs share one
    # table freed whole, and ITAD keeps one float column per probe
    path = tmp_path / "corpus.csv"
    with open(path, "w", encoding="utf-8") as out:
        write_corpus(synth.generate_corpus(synth.SynthSpec(seed=25, n_users=26, separation=3.0)), out)
    score = [sys.executable, "-m", "keydyn.cli", "score", str(path), "--scenario", "cross:F:I", "--out", str(tmp_path)]
    rise = peak_rss_mib(score) - peak_rss_mib([sys.executable, "-c", "import keydyn.cli"])
    mib = path.stat().st_size / 2**20
    # about 2.2x this file; holding the corpus, scattered runs and ITAD's integer temporaries took 3.0x
    assert rise <= 2.6 * mib, f"score peaks {rise:.1f} MiB above import for a {mib:.1f} MiB file"


@pytest.mark.skipif(
    not hasattr(os, "wait4") or not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB through os.wait4"
)
def test_evaluate_peak_rss_is_bounded_by_the_file(tmp_path):
    # each side lives only while a scenario reads it, and the session runs only until the last
    # one-platform side is pooled; two-platform sides are merged from one-platform ones
    path = tmp_path / "corpus.csv"
    with open(path, "w", encoding="utf-8") as out:
        write_corpus(synth.generate_corpus(synth.SynthSpec(seed=25, n_users=26, separation=3.0)), out)
    evaluate = [sys.executable, "-m", "keydyn.cli", "evaluate", str(path), "--out", str(tmp_path / "out")]
    rise = peak_rss_mib([*evaluate, "--similarity-mode", "corrected"])
    rise -= peak_rss_mib([sys.executable, "-c", "import keydyn.cli"])
    mib = path.stat().st_size / 2**20
    # about 2.5x this file; every scenario's sides prepared up front, with the runs and the corpus, took 3.6x
    assert rise <= 3.0 * mib, f"evaluate peaks {rise:.1f} MiB above import for a {mib:.1f} MiB file"


HASH_SEED_CHILD = """
import json, sys
from keydyn.ingest import parse_log
result = parse_log(sys.stdin.buffer.read())
# the sessions share the parse's columns, each at the rows of its id
by_id = sorted(result.sessions, key=lambda log: log.times.ctypes.data)
print(json.dumps([result.sessions[0].key_names, [log.session_key for log in by_id]]))
"""


def test_parse_does_not_depend_on_the_hash_seed():
    # grouped rows of sessions that arrive out of key order, over more keys than any hash order keeps
    letters = "qwertyuiopasdfghjklzxcvbnm"
    heads = [("u2", "I", 3), ("u1", "F", 7), ("u3", "F", 1), ("u1", "F", 2)]
    rows = [
        f"{user},{platform},{session},{letters[(7 * i + j) % 26].upper()},{action},{10 * j + (action == 'R')}\n"
        for i, (user, platform, session) in enumerate(heads)
        for j in range(20)
        for action in "PR"
    ]
    data = (HEADER + "".join(rows)).encode()
    seen = [ingest.canonicalize_key(row.split(",")[3]) for row in rows]
    parsed = []
    for seed in ("1", "2"):
        command = [sys.executable, "-c", HASH_SEED_CHILD]
        done = subprocess.run(command, input=data, env=child_env(PYTHONHASHSEED=seed), capture_output=True, check=True)
        parsed.append(json.loads(done.stdout))
    assert parsed[0] == parsed[1]
    key_names, ids = parsed[0]
    assert key_names == list(dict.fromkeys(seen))  # first-sight order
    assert ids == [list(head) for head in heads]


def uneven_rows(first: str, rest: str) -> bytes:
    """A log whose first block holds only rows shaped like ``first``, and whose other rows are shaped like ``rest``.

    Rejected and blank rows follow each part, and the key ``é`` is two bytes
    but one character.
    """
    faults = "u1,F,1,a,Q,1\nu1,F,1,b,P,-4\nu2,F,x,a,P,3\n\n"
    head = HEADER + "".join(first.format(action="PR"[i % 2], time=i) for i in range(6_000)) + faults
    assert head.index("\n", ingest._BLOCK_SIZE) < head.index(faults)
    return (head + "".join(rest.format(action="PR"[i % 2], time=i) for i in range(6_000, 18_000)) + faults).encode()


SHORT_ROW = "u,F,1,é,{action},{time}\n"
LONG_ROW = "user_with_a_long_id,Facebook,12345,Key.shift_r,{action},{time}.123456789\n"
SIZING_LOGS = {
    "synth": lambda: serialize_corpus(synth.generate_corpus(synth.SynthSpec(seed=3, n_users=2))).encode(),
    # the first block predicts too many rows: the columns shrink once, at the end
    "short-first": lambda: uneven_rows(SHORT_ROW, LONG_ROW),
    # the first block predicts too few rows: the columns grow again
    "long-first": lambda: uneven_rows(LONG_ROW, SHORT_ROW),
}


@pytest.mark.parametrize(
    "log, given",
    [
        ("synth", "file"),
        ("synth", "bytes"),
        ("synth", "str"),
        ("synth", "file past a prefix"),
        ("synth", "read only"),  # no size to predict from: the columns double
        ("short-first", "file"),
        ("short-first", "read only"),
        ("long-first", "file"),
        ("long-first", "str"),
    ],
)
def test_parse_log_matches_oracle_on_every_sizing_path(tmp_path, log, given):
    data = SIZING_LOGS[log]()
    assert len(data) > 3 * ingest._BLOCK_SIZE
    prefix = b"not,part,of,the,log\n" * 1_000
    path = tmp_path / "log.csv"
    path.write_bytes(prefix + data if given == "file past a prefix" else data)
    if given in ("file", "file past a prefix"):
        with path.open("rb") as stream:
            if given == "file past a prefix":
                stream.seek(len(prefix))
            got = parse_log(stream)
    elif given == "read only":
        got = parse_log(ReadOnly(data))
    else:
        got = parse_log(data if given == "bytes" else data.decode())
    assert plain(got) == parse_log_oracle(data)


def test_read_corpus_sums_several_paths(tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "one.csv").write_text(HEADER + "u1,F,1,a,P,0\nu1,F,1,a,P,x\n")
    (tmp_path / "two.csv").write_text(HEADER + "u2,F,1,a,P,5\nu2,F,1,a,P,1\n")
    corpus, summary = read_corpus([tmp_path / "dir", str(tmp_path / "two.csv")])
    assert corpus.roster == ["u1", "u2"]
    assert [log.session_key for log in summary.sessions] == [("u1", "F", 1), ("u2", "F", 1)]
    assert (summary.rows_total, summary.rows_rejected, summary.resorted_sessions) == (4, 1, 1)
    assert summary.warnings == [
        "row 3: malformed timestamp 'x' (skipped)",
        "session ('u2', 'F', 1): out-of-order timestamps, re-sorted",
    ]
    with pytest.raises(DuplicateSessionError):
        read_corpus([tmp_path / "two.csv", tmp_path / "two.csv"])


def test_pair_events_simple():
    log = make_log([("a", "P", 0), ("a", "R", 50)])
    result = pair_events(log)
    assert keystroke_rows(result.pairs) == [("a", 0, 50)]
    assert result.dropped_total == 0


def test_pair_events_rollover_preserved():
    log = make_log([("a", "P", 0), ("b", "P", 30), ("a", "R", 60), ("b", "R", 90)])
    result = pair_events(log)
    assert keystroke_rows(result.pairs) == [("a", 0, 60), ("b", 30, 90)]


def test_pair_events_drops_auto_repeat():
    log = make_log([("a", "P", 0), ("a", "P", 10), ("a", "R", 50)])
    result = pair_events(log)
    assert keystroke_rows(result.pairs) == [("a", 0, 50)]
    assert result.dropped_repeats == 1


def test_pair_events_drops_orphans_and_unreleased():
    log = make_log([("b", "R", 5), ("a", "P", 10)])
    result = pair_events(log)
    assert keystroke_rows(result.pairs) == []
    assert result.dropped_orphan_releases == 1
    assert result.dropped_unreleased == 1


def test_pair_events_output_ordered_by_press():
    # b releases before a, but a was pressed first
    log = make_log([("a", "P", 0), ("b", "P", 5), ("b", "R", 8), ("a", "R", 90)])
    result = pair_events(log)
    assert [key for key, _, _ in keystroke_rows(result.pairs)] == ["a", "b"]


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
    presses = sum(1 for _, action, _ in event_rows(log) if action == "P")
    assert len(result.pairs) <= presses
    assert all(release_ms >= press_ms for _, press_ms, release_ms in keystroke_rows(result.pairs))
    press_times = [press_ms for _, press_ms, _ in keystroke_rows(result.pairs)]
    assert press_times == sorted(press_times)
    # accounting: every event is either paired or counted as dropped
    assert 2 * len(result.pairs) + result.dropped_total == len(event_rows(log))


@given(events_strategy)
def test_pairing_deterministic(raw_events):
    ordered = sorted(raw_events, key=lambda e: e[2])
    log = make_log(ordered)
    assert keystroke_rows(pair_events(log).pairs) == keystroke_rows(pair_events(log).pairs)


# -- differential parse oracle ---------------------------------------------------

# per field: well-formed spellings (padded, leading zeros, key aliases), then faults
FIELDS = (
    (("u1", " u1", "u1 ", "u2"), ("", "  ")),
    (("F", "F ", "\tF", "I"), ("",)),
    (("1", "01", " 1", "001 ", "2", "-1"), ("x", "")),
    (("a", "A", " b", "Key.space", "COMMA", "shift_r", "."), (" ", "")),
    (("P", "R", " R", "P "), ("X", "p", "")),
    (("0", "5", "10.5", " 7", "3 ", "120", "1e2", "-0"), ("x", "-5", "inf", "nan", "")),
)


@st.composite
def faulty_lines(draw, odds):
    """One line; each field is a fault with probability 1/odds."""
    shape = draw(st.sampled_from(("row",) * 6 + ("extra_comma", "missing_field", "blank")))
    if shape == "blank":
        return draw(st.sampled_from(("", " ", "\t", "   ")))
    fields = [
        draw(st.sampled_from(bad if draw(st.integers(1, odds)) == 1 else good)) for good, bad in FIELDS
    ]
    if shape == "extra_comma":
        at = draw(st.integers(0, len(fields)))
        fields.insert(at, draw(st.sampled_from(("", "z", " "))))
    elif shape == "missing_field":
        del fields[draw(st.integers(0, len(fields) - 1))]
    return ",".join(fields)


@st.composite
def faulty_csv(draw):
    lines = draw(st.lists(faulty_lines(draw(st.sampled_from((2, 12)))), max_size=12))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    body = newline.join([HEADER.rstrip("\n")] + lines) + (newline if draw(st.booleans()) else "")
    return draw(st.sampled_from(("", "\ufeff"))) + body


def plain(result):
    return {
        "sessions": [
            (s.user_id, s.platform, s.session_id, event_rows(s))
            for s in result.sessions
        ],
        "warnings": result.warnings,
        "rows_total": result.rows_total,
        "rows_rejected": result.rows_rejected,
        "resorted_sessions": result.resorted_sessions,
    }


def outcome(parse, text, source):
    try:
        return "ok", parse(text, source=source)
    except MalformedRowError as exc:
        return "malformed", (exc.row, str(exc))
    except EmptyInputError as exc:
        return "empty", str(exc)


@settings(max_examples=200, deadline=None)
@example(HEADER + "u1,F,1,a,P,5\nu1,F,1,b,P,3\nu1,F,1,c,P,7\n", None, False)  # 5 > 3 but not 5 > 7
@given(faulty_csv(), st.sampled_from((None, "log.csv")), st.booleans())
def test_parse_log_matches_oracle(text, source, as_bytes):
    data = text.encode("utf-8") if as_bytes else text
    got_kind, got = outcome(parse_log, data, source)
    want_kind, want = outcome(parse_log_oracle, data, source)
    assert got_kind == want_kind
    if got_kind == "ok":
        assert plain(got) == want
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parse_log_arbitrary_bytes_parse_or_raise_keydyn_error(data):
    for candidate in (data, HEADER.encode() + data):
        try:
            parse_log(candidate)
        except KeydynError:
            pass


label = st.text(alphabet="abcdefXYZ019_-", min_size=1, max_size=4)
session_log = st.builds(
    lambda user, platform, session, raw: make_log(sorted(raw, key=lambda e: e[2]), user, platform, session),
    label,
    label,
    st.integers(min_value=-5, max_value=10**6),
    st.lists(
        st.tuples(
            st.sampled_from(("a", "z", "7", ".", "SPACE", "COMMA", "SHIFT", "F1")),
            st.sampled_from(("P", "R")),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=10,
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(session_log, min_size=1, max_size=5, unique_by=lambda log: log.session_key))
def test_parse_inverts_serialize_on_generated_corpora(logs):
    corpus = Corpus.from_logs(logs)
    result = parse_log(serialize_corpus(corpus))
    assert result.warnings == [] and result.rows_rejected == 0 and result.resorted_sessions == 0
    assert Corpus.from_logs(result.sessions) == corpus


def shared_names_log(names, user, platform, session, events) -> SessionLog:
    """A session over the key ``names`` of a whole parse, from ``(key code, press, time_ms)`` events."""
    keys, presses, times = zip(*events)
    return SessionLog(user, platform, session, names, np.array(keys, np.int32), np.array(presses), np.array(times))


@st.composite
def shared_names_corpus(draw):
    """Sessions of several users and platforms over one tuple of key names, as the sessions of one
    parse share theirs: single and multi-character names, some that no event uses."""
    name = st.sampled_from(("a", "7", ".", "SPACE", "COMMA", "F1", "BACKSPACE"))
    names = tuple(draw(st.lists(name, min_size=1, unique=True)))
    event = st.tuples(
        st.integers(min_value=0, max_value=len(names) - 1),
        st.booleans(),
        st.one_of(st.sampled_from((-0.0, 0.0, 1e300)), st.floats(min_value=0.0, max_value=1e9)),
    )
    heads = st.tuples(label, label, st.integers(min_value=-5, max_value=10**6))
    logs = []
    for head in draw(st.lists(heads, min_size=1, max_size=6, unique=True)):
        events = sorted(draw(st.lists(event, min_size=1, max_size=8)), key=lambda e: e[2])
        logs.append(shared_names_log(names, *head, events))
    return Corpus.from_logs(logs)


def test_serialize_empty_corpus_writes_the_header():
    assert serialize_corpus(Corpus({})) == serialize_corpus_oracle(Corpus({})) == HEADER


NAMES = ("a", "SPACE", "F1")  # F1 is never struck


@settings(max_examples=200, deadline=None)
@example(
    Corpus.from_logs(
        [
            shared_names_log(NAMES, "u1", "F", 1, [(1, True, -0.0)]),
            shared_names_log(NAMES, "u1", "I", 2, [(0, True, 0.0), (0, False, 0.0), (1, True, 1e300)]),
            shared_names_log(NAMES, "u2", "F", 1, [(1, True, 3.5), (1, False, 1e300)]),
        ]
    )
)
@given(shared_names_corpus())
def test_serialize_corpus_matches_row_writer_and_parses_back(corpus):
    text = serialize_corpus(corpus)
    assert text == serialize_corpus_oracle(corpus)
    result = parse_log(text)
    assert result.warnings == [] and result.rows_rejected == 0 and result.resorted_sessions == 0
    round_tripped = Corpus.from_logs(result.sessions)
    assert round_tripped == corpus
    assert serialize_corpus(round_tripped) == text
