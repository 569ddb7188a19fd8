from __future__ import annotations

import itertools
import math

import pytest

from keydyn.evaluation import build_scenario_data, k_rank_accuracy, same_platform_scenario
from keydyn.ingest import Action, Corpus, pair_events, parse_log, serialize_corpus
from keydyn.matrix import score_matrices
from keydyn.synth import SynthSpec, TypistModel, generate_corpus, sample_models


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
        for event in log.events:
            if event.action is Action.PRESS:
                pressed[event.key] = event.time_ms
            else:
                assert event.time_ms >= pressed[event.key]


def test_generated_corpus_is_clean_for_ingest():
    corpus = generate_corpus(SynthSpec(seed=9, n_users=3, platforms=("F", "T"), sessions_per_platform=2))
    for log in corpus:
        times = [e.time_ms for e in log.events]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)
        result = pair_events(log)
        assert result.dropped_total == 0  # no auto-repeats, orphans, or unreleased keys

    parsed = parse_log(serialize_corpus(corpus))
    assert parsed.warnings == []
    assert parsed.resorted_sessions == 0
    assert Corpus.from_logs(parsed.sessions) == corpus


def test_generation_deterministic_and_byte_identical():
    spec = SynthSpec(seed=21, n_users=3, platforms=("F", "I"), sessions_per_platform=2, separation=1.2)
    assert serialize_corpus(generate_corpus(spec)) == serialize_corpus(generate_corpus(spec))


def test_verbosity_ordering_mirrors_platforms():
    corpus = generate_corpus(SynthSpec(seed=6, n_users=4, separation=0.0))
    totals = {p: 0 for p in ("F", "I", "T")}
    for log in corpus:
        totals[log.platform] += len(log.events)
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
