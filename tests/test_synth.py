from __future__ import annotations

import hashlib
import itertools
import math

import pytest

from keydyn.evaluation import build_scenario_data, k_rank_accuracy, same_platform_scenario
from keydyn.ingest import Corpus, pair_events, parse_log, serialize_corpus
from keydyn.matrix import score_matrices
from keydyn.synth import MAX_SEPARATION, SynthSpec, TypistModel, generate_corpus, sample_models

from columns import event_rows


def test_zero_separation_yields_identical_models():
    models = sample_models(SynthSpec(seed=7, n_users=5, separation=0.0))
    assert len(models) == 5
    reference = models[0]
    for model in models[1:]:
        assert model.hold_log_loc == reference.hold_log_loc
        assert model.hold_log_scale == reference.hold_log_scale
        assert model.flight_base == reference.flight_base
        assert model.flight_out == reference.flight_out
        assert model.flight_in == reference.flight_in
        assert model.verbosity == reference.verbosity


def test_same_seed_same_models():
    spec = SynthSpec(seed=11, n_users=4, separation=1.5)
    first = sample_models(spec)
    second = sample_models(spec)
    assert first == second


def model_distance(a: TypistModel, b: TypistModel) -> float:
    """L2 distance between the timing parameters of two typist models (flights scaled by 140 ms)."""
    keys = sorted(a.hold_log_loc)
    total = sum((a.hold_log_loc[k] - b.hold_log_loc[k]) ** 2 for k in keys)
    total += ((a.flight_base - b.flight_base) / 140.0) ** 2
    total += sum(((a.flight_out[k] - b.flight_out[k]) / 140.0) ** 2 for k in keys)
    total += sum(((a.flight_in[k] - b.flight_in[k]) / 140.0) ** 2 for k in keys)
    return math.sqrt(total)


def test_separation_scales_model_distance():
    def mean_pairwise(separation):
        models = sample_models(SynthSpec(seed=2, n_users=6, separation=separation))
        pairs = list(itertools.combinations(models, 2))
        return sum(model_distance(a, b) for a, b in pairs) / len(pairs)

    assert mean_pairwise(2.0) > mean_pairwise(0.5) > 0.0
    assert mean_pairwise(0.0) == 0.0


def test_corpus_shape_matches_spec():
    corpus = generate_corpus(SynthSpec(seed=0, n_users=26, platforms=("F", "I", "T"), sessions_per_platform=6))
    assert len(corpus) == 26 * 3 * 6 == 468
    assert corpus.platforms == ["F", "I", "T"]
    tiny = generate_corpus(SynthSpec(seed=0, n_users=1, platforms=("F",), sessions_per_platform=1))
    assert len(tiny) == 1


def test_events_release_after_press():
    corpus = generate_corpus(SynthSpec(seed=4, n_users=2, platforms=("F",), sessions_per_platform=2))
    for log in corpus:
        pressed = {}
        for key, action, time_ms in event_rows(log):
            if action == "P":
                pressed[key] = time_ms
            else:
                assert time_ms >= pressed[key]


def test_generated_corpus_is_clean_for_ingest():
    specs = (
        SynthSpec(seed=9, n_users=3, platforms=("F", "T"), sessions_per_platform=2),
        # rollover presses a key again while it is still held (X, Y, X) unless held back
        SynthSpec(seed=25, n_users=26, separation=3.0),
    )
    for spec in specs:
        corpus = generate_corpus(spec)
        for log in corpus:
            times = [t for _, _, t in event_rows(log)]
            assert times == sorted(times)
            assert all(t >= 0 for t in times)
            result = pair_events(log)
            assert result.dropped_total == 0, spec  # no auto-repeats, orphans, or unreleased keys

        parsed = parse_log(serialize_corpus(corpus))
        assert parsed.warnings == []
        assert parsed.resorted_sessions == 0
        assert Corpus.from_logs(parsed.sessions) == corpus


def test_generation_deterministic_and_byte_identical():
    spec = SynthSpec(seed=21, n_users=3, platforms=("F", "I"), sessions_per_platform=2, separation=1.2)
    assert serialize_corpus(generate_corpus(spec)) == serialize_corpus(generate_corpus(spec))


def test_evaluate_paper_corpus_bytes_are_pinned():
    # the evaluate-paper benchmark corpus; a generator change must not move a byte of it
    text = serialize_corpus(generate_corpus(SynthSpec(seed=25, n_users=26, separation=3.0)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "e6f80456c5187fe31aa88d8b15d5e3011a796d28d765eb54bfdd97972b7db716"
    )


@pytest.mark.parametrize(
    "spec, digest",
    [
        pytest.param(
            SynthSpec(seed=13, n_users=52, separation=3.0),
            "99382e033e7b2f3293284153fc5c515c05d54e095d07ada60443a64a2ac31ee8",
            id="score-wide",
        ),
        pytest.param(
            SynthSpec(seed=3, n_users=4, platforms=("F",), sessions_per_platform=2, separation=0.0),
            "d327cb2266ba3f4073292142f8539b6f74cc4982d3fb8d4424f6d0cfb4e2ee80",
            id="separation-0",
        ),
        pytest.param(
            SynthSpec(seed=4, n_users=4, platforms=("F",), sessions_per_platform=2, separation=MAX_SEPARATION),
            "5e99ceb2576d64b01a28695c1db856917e213baf91393501e0cb415c6f824ac3",
            id="separation-max",
        ),
        pytest.param(
            SynthSpec(seed=5, n_users=3, platforms=("A", "B"), sessions_per_platform=1),
            "e3af24eeae0a7d31233b85ba284b75fd2bb5f5d08654e32e1233d7e33f113bfb",
            id="fallback-platforms-1-session",
        ),
        pytest.param(
            SynthSpec(seed=6, n_users=3, platforms=("A", "B"), sessions_per_platform=3),
            "e0034eb186a689ab18c2f423e8565cdac59c458346acea3fa9221a0c5f2f48b4",
            id="fallback-platforms-3-sessions",
        ),
        pytest.param(
            SynthSpec(seed=7, n_users=11, platforms=("T",), sessions_per_platform=1, separation=0.5),
            "d99d7f14901abe9650c8111c9196b269817271297297c46ec0bd6098c9d51f2b",
            id="two-digit-users",
        ),
    ],
)
def test_corpus_bytes_are_pinned(spec, digest):
    # the score-wide and extract-wide benchmark corpus, and small corpora on the generator's uncommon
    # paths: no user spread, the widest one, platforms without a verbosity of their own, ids u01..u11
    text = serialize_corpus(generate_corpus(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_verbosity_ordering_mirrors_platforms():
    corpus = generate_corpus(SynthSpec(seed=6, n_users=4, separation=0.0))
    totals = {p: 0 for p in ("F", "I", "T")}
    for log in corpus:
        totals[log.platform] += len(event_rows(log))
    assert totals["F"] > totals["I"] > totals["T"]


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_users=0)
    with pytest.raises(ValueError):
        SynthSpec(separation=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(seed=-1)
    with pytest.raises(ValueError):
        SynthSpec(sessions_per_platform=0)
    with pytest.raises(ValueError):
        SynthSpec(platforms=())
    with pytest.raises(ValueError):
        SynthSpec(platforms=("F", "I", "F"))
    # only specs are made here: the generator must never run at these separations
    for separation in (math.nan, math.inf, -math.inf, 1e308, math.nextafter(MAX_SEPARATION, math.inf), 10.5):
        with pytest.raises(ValueError, match="separation must be finite"):
            SynthSpec(separation=separation)
    assert SynthSpec(separation=MAX_SEPARATION).separation == MAX_SEPARATION
    # labels the CSV cannot carry: it strips fields and splits at commas and line breaks
    for label in ("", " F", "F ", "F\n", "F\nX", "F\r", "F,X", "F\x1cX", "F\u2028X"):
        with pytest.raises(ValueError, match="platform labels"):
            SynthSpec(platforms=("I", label))
    assert SynthSpec(platforms=("F X", "I")).platforms == ("F X", "I")


def test_rank1_accuracy_monotone_in_separation():
    def mean_rank1(separation):
        accs = []
        for seed in (0, 1, 2):
            spec = SynthSpec(seed=seed, n_users=12, platforms=("F",), separation=separation)
            [data] = build_scenario_data(generate_corpus(spec), [same_platform_scenario("F")])
            matrix = score_matrices(data.enroll, data.probe, ["itad"])["itad"]
            accs.append(k_rank_accuracy(matrix, 1))
        return sum(accs) / len(accs)

    curve = [mean_rank1(sep) for sep in (0.0, 0.5, 3.0)]
    assert curve == sorted(curve)
    assert curve[0] < 0.35  # indistinguishable typists sit near chance (1/12)
    assert curve[-1] >= 0.9
