from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from keydyn.errors import KeydynError, RosterMismatchError, ShapeMismatchError
from keydyn.evaluation import k_rank_accuracy
from keydyn.features import unigraph_key, wordhold_key
from keydyn.matrix import (
    FusionMethod,
    ScoreMatrix,
    build_score_matrix,
    fuse,
    matrix_to_csv,
    matrix_to_json,
    score_matrices,
)
from keydyn.verifiers import SimilarityMode, Verifier

from conftest import FEATURE_POOL, random_profile
from oracles import oracle_absolute, oracle_itad, oracle_similarity

U = unigraph_key


def profiles(**holds):
    """One-unigraph profile per user from a center hold time."""
    return {user: {U("a"): [center - 5.0, center, center + 5.0]} for user, center in holds.items()}


def test_single_user_matrix():
    enroll = profiles(u1=100.0)
    m = build_score_matrix(enroll, enroll, Verifier.ABSOLUTE)
    assert m.roster == ("u1",)
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 1.0


def test_absolute_self_comparison_diagonal_is_one():
    maps = profiles(u1=80.0, u2=150.0, u3=400.0)
    m = build_score_matrix(maps, maps, Verifier.ABSOLUTE)
    assert np.array_equal(np.diag(m.values), np.ones(3))


def test_matrix_orientation_rows_are_probes():
    # enrollment and probe differ so orientation is observable:
    # probe u1 matches enrollment u2's band, not its own
    enroll = {"u1": {U("a"): [100.0, 110.0, 120.0]}, "u2": {U("a"): [300.0, 310.0, 320.0]}}
    probe = {"u1": {U("a"): [310.0]}, "u2": {U("a"): [110.0]}}
    m = build_score_matrix(enroll, probe, Verifier.SIMILARITY, mode=SimilarityMode.CORRECTED)
    # values[i][j] = verifier(enroll[user_j], probe[user_i])
    assert m.values[0, 1] == 1.0  # probe u1 vs enroll u2
    assert m.values[0, 0] == 0.0
    assert m.values[1, 0] == 1.0
    assert m.values[1, 1] == 0.0


def test_roster_mismatch_rejected():
    with pytest.raises(RosterMismatchError):
        build_score_matrix(profiles(u1=100.0), profiles(u2=100.0), Verifier.ITAD)


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatchError):
        ScoreMatrix(("u1", "u2"), np.zeros((3, 3)))


def test_matrix_rejects_non_finite_values():
    with pytest.raises(KeydynError):
        k_rank_accuracy(ScoreMatrix(("a", "b"), [[np.nan, 0.9], [0.1, np.nan]]), 1)
    with pytest.raises(KeydynError):
        ScoreMatrix(("a",), [[np.inf]])


# enrollment runs whose bands and medians land exactly on values below:
# (100, 120) from std 10; (82.5, 137.5) from a single 110; an inverted band
# from a single negative value; zero medians; an empty band from std 0
TIE_RUNS = ([100.0, 110.0, 120.0], [110.0], [-40.0], [0.0], [-5.0, 0.0, 5.0], [7.0, 7.0, 7.0, 7.0])
TIE_VALUES = (100.0, 110.0, 120.0, 82.5, 137.5, -40.0, -30.0, -50.0, 0.0, 5.0, 7.0)


def tie_heavy_profile(rng):
    profile = {}
    for index in rng.choice(len(FEATURE_POOL), size=int(rng.integers(0, 6)), replace=False):
        draw = rng.random()
        if draw < 0.4:
            values = list(TIE_RUNS[rng.integers(len(TIE_RUNS))])
        elif draw < 0.8:
            values = [float(v) for v in rng.choice(TIE_VALUES, size=int(rng.integers(1, 6)))]
        else:
            values = [float(v) for v in 10 * rng.integers(-3, 4, size=int(rng.integers(1, 8)))]
        profile[FEATURE_POOL[index]] = values
    return profile


def test_whole_matrices_match_oracles_cell_by_cell(rng):
    cases = (
        (Verifier.SIMILARITY, SimilarityMode.AS_PUBLISHED, oracle_similarity),
        (Verifier.SIMILARITY, SimilarityMode.CORRECTED, lambda a, b: oracle_similarity(a, b, corrected=True)),
        (Verifier.ABSOLUTE, SimilarityMode.AS_PUBLISHED, oracle_absolute),
        (Verifier.ITAD, SimilarityMode.AS_PUBLISHED, oracle_itad),
    )
    for trial in range(80):
        users = [f"u{i}" for i in range(1 if trial < 4 else int(rng.integers(2, 7)))]
        make = tie_heavy_profile if trial % 2 == 0 else random_profile
        enroll = {u: make(rng) for u in users}
        probe = {u: make(rng) for u in users}
        if trial % 5 == 0:
            enroll[users[-1]] = {wordhold_key("zzz"): [50.0]}  # no feature in common with any probe
        for verifier, mode, oracle in cases:
            m = build_score_matrix(enroll, probe, verifier, mode=mode)
            for i, probe_user in enumerate(m.roster):
                for j, enroll_user in enumerate(m.roster):
                    want = oracle(enroll[enroll_user], probe[probe_user])
                    assert abs(m.values[i, j] - want) <= 1e-12, (trial, verifier, mode, i, j)


def test_separated_synthetic_users_dominate_diagonal():
    from keydyn.evaluation import build_scenario_data, same_platform_scenario
    from keydyn.synth import SynthSpec, generate_corpus

    corpus = generate_corpus(SynthSpec(seed=5, n_users=3, platforms=("F",), separation=4.0))
    [data] = build_scenario_data(corpus, [same_platform_scenario("F")])
    m = score_matrices(data.enroll, data.probe, ["itad"])["itad"]
    for i in range(3):
        off = [m.values[i, j] for j in range(3) if j != i]
        assert m.values[i, i] > max(off)


# -- fusion --------------------------------------------------------------------


def matrix_of(values, scorer="x", scenario="s"):
    values = np.asarray(values, dtype=np.float64)
    roster = tuple(f"u{i}" for i in range(values.shape[0]))
    return ScoreMatrix(roster, values, scorer, scenario)


def test_fuse_mean_of_identical_is_identity():
    m = matrix_of([[0.3, 0.7], [0.2, 0.9]])
    fused = fuse([m, m, m], FusionMethod.MEAN)
    np.testing.assert_allclose(fused.values, m.values, rtol=0, atol=1e-15)
    assert fused.scorer == "fmean"
    assert fused.scenario == "s"


@pytest.mark.parametrize(
    "method,expected",
    [
        (FusionMethod.MEAN, 0.5),
        (FusionMethod.MEDIAN, 0.4),
        (FusionMethod.MIN, 0.2),
        (FusionMethod.MAX, 0.9),
    ],
)
def test_fuse_elementwise(method, expected):
    ms = [matrix_of([[v]]) for v in (0.2, 0.4, 0.9)]
    assert fuse(ms, method).values[0, 0] == pytest.approx(expected)


def test_fuse_validation():
    a = matrix_of([[0.1]])
    with pytest.raises(ValueError):
        fuse([a], FusionMethod.MEAN)
    b = ScoreMatrix(("other",), np.zeros((1, 1)))
    with pytest.raises(RosterMismatchError):
        fuse([a, b], FusionMethod.MEAN)


def test_fuse_permutation_invariant_bitwise(rng):
    ms = [matrix_of(rng.uniform(0, 1, (4, 4))) for _ in range(3)]
    for method in FusionMethod:
        reference = fuse(ms, method)
        for perm in itertools.permutations(ms):
            assert np.array_equal(fuse(list(perm), method).values, reference.values)


def test_fuse_stays_in_unit_interval(rng):
    for _ in range(50):
        ms = [matrix_of(rng.uniform(0, 1, (3, 3))) for _ in range(3)]
        for method in FusionMethod:
            fused = fuse(ms, method).values
            assert fused.min() >= 0.0 and fused.max() <= 1.0


# -- serialization ---------------------------------------------------------------


def test_matrix_csv_header_is_roster():
    m = matrix_of([[0.25, 1.0], [0.0, 0.5]], scorer="itad")
    text = matrix_to_csv(m)
    lines = text.strip().split("\n")
    assert lines[0] == "probe,u0,u1"
    assert lines[1] == "u0,0.25,1.0"


def test_matrix_json_round_trip():
    m = matrix_of([[0.25, 1.0], [0.0, 0.5]], scorer="itad", scenario="F")
    text = matrix_to_json(m)
    doc = json.loads(text)
    assert doc == {"roster": ["u0", "u1"], "scenario": "F", "scorer": "itad", "values": [[0.25, 1.0], [0.0, 0.5]]}
    assert np.array_equal(np.array(doc["values"], dtype=np.float64), m.values)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text.startswith('{\n  "roster": [\n    "u0",\n    "u1"\n  ],\n  "scenario": "F",\n  "scorer": "itad",')
