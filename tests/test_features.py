from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from keydyn import features as features_module
from keydyn.features import (
    Kind,
    extract_digraphs,
    extract_features,
    extract_unigraphs,
    extract_wordholds,
    extract_batches,
    profile_to_json,
    session_features,
)
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import prepare_profile, session_runs

from columns import digraph_key, keystrokes, unigraph_key, wordhold_key
from columns import session_log as make_session
from conftest import itad_score
from oracles import oracle_itad

U, D, W = unigraph_key, digraph_key, wordhold_key


def pairs_of(*triples):
    return keystrokes(triples)


def typed(*strokes):
    """A session of one press and one release per ``(key, press_ms, release_ms)`` stroke."""
    return make_session([event for k, p, r in strokes for event in ((k, "P", p), (k, "R", r))])


def value_count(features):
    return sum(len(values) for values in features.values())


# -- unigraphs ---------------------------------------------------------------


def test_unigraph_single():
    fd = extract_unigraphs(pairs_of(("a", 0, 50)))
    assert fd == {U("a"): [50.0]}


def test_unigraph_occurrence_order():
    fd = extract_unigraphs(pairs_of(("a", 0, 50), ("a", 100, 140)))
    assert fd == {U("a"): [50.0, 40.0]}


def test_unigraph_empty():
    assert extract_unigraphs(pairs_of()) == {}


def test_unigraph_value_count_matches_pairs(rng):
    pairs = pairs_of(*[("ab"[i % 2], i * 10, i * 10 + 5) for i in range(17)])
    fd = extract_unigraphs(pairs)
    assert value_count(fd) == len(pairs)


# -- digraphs ----------------------------------------------------------------


def test_digraph_basic_interval():
    fd = extract_digraphs(pairs_of(("a", 0, 50), ("b", 120, 160)))
    assert fd == {D("a", "b"): [70.0]}


def test_digraph_negative_rollover():
    fd = extract_digraphs(pairs_of(("a", 0, 60), ("b", 30, 90)))
    assert fd == {D("a", "b"): [-30.0]}


def test_digraph_single_keystroke_empty():
    assert extract_digraphs(pairs_of(("a", 0, 50))) == {}


def test_digraph_count_is_pairs_minus_one():
    pairs = pairs_of(*[("abc"[i % 3], i * 100, i * 100 + 60) for i in range(9)])
    fd = extract_digraphs(pairs)
    assert value_count(fd) == len(pairs) - 1


# -- word holds --------------------------------------------------------------


def test_wordhold_space_terminated():
    fd = extract_wordholds(pairs_of(("h", 0, 80), ("i", 100, 150), ("SPACE", 200, 230)))
    assert fd == {W("hi"): [150.0]}


def test_wordhold_single_letter_equals_unigraph():
    pairs = pairs_of(("a", 10, 60), ("ENTER", 80, 100))
    fd = extract_wordholds(pairs)
    assert fd == {W("a"): [50.0]}
    assert fd[W("a")] == extract_unigraphs(pairs_of(("a", 10, 60)))[U("a")]


def test_wordhold_trailing_word_emitted():
    fd = extract_wordholds(pairs_of(("h", 0, 40), ("i", 50, 90)))
    assert fd == {W("hi"): [90.0]}


def test_wordhold_backspace_terminates_without_editing():
    fd = extract_wordholds(
        pairs_of(("h", 0, 40), ("i", 50, 90), ("BACKSPACE", 95, 99), ("a", 110, 160))
    )
    assert fd == {W("hi"): [90.0], W("a"): [50.0]}


def test_wordhold_repeated_words_accumulate():
    fd = extract_wordholds(
        pairs_of(("a", 0, 30), ("SPACE", 40, 50), ("a", 60, 100), ("SPACE", 110, 120))
    )
    assert fd == {W("a"): [30.0, 40.0]}


def test_wordhold_values_non_negative(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        presses = sorted(float(t) for t in rng.uniform(0, 1000, n))
        pairs = keystrokes([("ab"[int(rng.integers(0, 2))], p, p + float(rng.uniform(0, 200))) for p in presses])
        fd = extract_wordholds(pairs)
        assert all(v >= 0 for values in fd.values() for v in values)


# -- per-session extraction ---------------------------------------------------


def test_session_features_provenance_and_kinds():
    log = make_session([("a", "P", 0), ("a", "R", 50), ("b", "P", 60), ("b", "R", 100)])
    fd = session_features(log)
    doc = json.loads(profile_to_json(log, fd))
    assert (doc["user"], doc["platforms"], doc["sessions"]) == ("u1", ["F"], [1])
    assert Counter(name[:2] for name in fd) == {"U:": 2, "D:": 1, "W:": 1}


def test_no_cross_session_digraphs_or_words():
    one = make_session([("a", "P", 0), ("a", "R", 50)], session=1)
    two = make_session([("b", "P", 0), ("b", "R", 40)], session=2)
    parts = [session_features(one), session_features(two)]
    runs, keys = session_runs(parts)
    pooled = prepare_profile(runs)
    assert set(keys) == {U("a"), U("b"), W("a"), W("b")}
    assert D("a", "b") not in keys
    assert W("ab") not in keys
    assert pooled.fids.tolist() == list(range(len(keys)))
    assert pooled.values.tolist() == [50.0, 40.0, 50.0, 40.0]  # U:a, U:b, W:a, W:b


def test_extract_features_kinds_subset():
    pairs = pairs_of(("a", 0, 50), ("b", 60, 100))
    fd = extract_features(pairs, (Kind.UNIGRAPH,))
    assert list(fd) == ["U:a", "U:b"]


def test_feature_ids_ascend_in_the_name_order_profiles_are_written_in():
    # F1 prefixes F10: as (first, second) tuples ("F1", "F10") < ("F1", "a") < ("F10", "F1"),
    # but as names D:F10|F1 < D:F1|F10 < D:F1|a, since "0" sorts before "|"
    enroll_log = typed(("F1", 0, 40), ("F10", 60, 90), ("F1", 100, 150), ("a", 170, 200), ("F10", 230, 260))
    probe_log = typed(("F10", 0, 35), ("F1", 55, 95), ("F10", 110, 170), ("F1", 180, 230), ("a", 240, 260))
    enroll, probe = session_features(enroll_log), session_features(probe_log)
    _, names = session_runs([enroll, probe])
    assert names == sorted({*enroll, *probe})
    assert names.index(D("F10", "F1")) < names.index(D("F1", "F10")) < names.index(D("F1", "a"))
    for log, fd in ((enroll_log, enroll), (probe_log, probe)):
        written = list(json.loads(profile_to_json(log, fd))["features"])
        assert written == session_runs([fd])[1] == [name for name in names if name in fd]
    assert abs(itad_score(enroll, probe) - oracle_itad(enroll, probe)) <= 1e-12


# -- a batch at a time ------------------------------------------------------

# a batch's pairing, features and one session's profile text, at most (about 130 measured)
BATCH_BYTES_PER_EVENT = 200


def test_a_batch_is_worked_in_memory_bounded_by_its_own_events():
    # the corpus is about ten batches: the columns of all its features at once take
    # about 380 bytes per event of the largest batch
    logs = list(generate_corpus(SynthSpec(seed=3, n_users=8)))
    assert sum(log.times.size for log in logs) >= 8 * features_module._BATCH_EVENTS
    largest = 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for batch, _, features in extract_batches(logs):
            largest = max(largest, sum(log.times.size for log in batch))
            for session, log in enumerate(batch):
                profile_to_json(log, features, session)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= BATCH_BYTES_PER_EVENT * largest, f"{peak / largest:.0f} bytes per event of the largest batch"


# -- serialization -----------------------------------------------------------


def test_profile_json_round_trip():
    log = make_session([], user="u1", platform="T", session=2)
    features = {U("a"): [50.0, 40.0], D("a", "b"): [-30.0], W("hi"): [150.0]}
    text = profile_to_json(log, features)
    doc = json.loads(text)
    assert doc == {
        "user": "u1",
        "platforms": ["T"],
        "sessions": [2],
        "features": {"D:a|b": [-30.0], "U:a": [50.0, 40.0], "W:hi": [150.0]},
    }
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert '\n    "D:a|b": [\n      -30.0\n    ],\n    "U:a": [\n      50.0,\n      40.0\n    ],' in text


@pytest.mark.parametrize(
    "user,platform,session,features",
    [
        ("u1", "F", 1, {}),  # an empty map
        ("u1", "F", 1, {U("a"): []}),  # an empty list
        (
            "u07",
            "T",
            -3,
            {
                D("a", "b"): [-30.0, -30.0, 0.0, -0.0, 0.0],
                U("a"): [1e300, -1e-300, 5e-324, 1.7976931348623157e308, 0.1, 2.0 / 3.0],
                W("hi"): [150.0, 150.0, 150.0],
                D("SPACE", "é"): [12.5],
            },
        ),
        ("ü\u2603", "Ï\tx", 10**12, {U("\u00e9"): [-1.5], U('"'): [2.0], U("\\"): [3.0], W("ab\x01"): [4.0]}),
    ],
)
def test_profile_json_bytes_are_those_of_json_dumps(user, platform, session, features):
    log = make_session([], user=user, platform=platform, session=session)
    doc = {
        "user": user,
        "platforms": [platform],
        "sessions": [session],
        "features": {name: list(values) for name, values in features.items()},
    }
    assert profile_to_json(log, features) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- determinism -------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 500), st.integers(0, 200)),
        max_size=25,
    )
)
def test_extractors_deterministic(raw):
    presses = sorted(raw, key=lambda r: r[1])
    pairs = keystrokes([(k, p, p + h) for k, p, h in presses])
    assert extract_features(pairs) == extract_features(pairs)
    total = value_count(extract_unigraphs(pairs))
    assert total == len(pairs)
    assert value_count(extract_digraphs(pairs)) == max(0, len(pairs) - 1)
