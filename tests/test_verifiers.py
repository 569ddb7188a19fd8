from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from keydyn.errors import EmptyListError
from keydyn.features import digraph_key, unigraph_key
from keydyn.verifiers import (
    SimilarityMode,
    Verifier,
    absolute_score,
    feature_ids,
    itad_score,
    prepare_profile,
    similarity_score,
)

from conftest import random_profile
from oracles import oracle_absolute, oracle_itad, oracle_similarity

U, D = unigraph_key, digraph_key
PUB, CORR = SimilarityMode.AS_PUBLISHED, SimilarityMode.CORRECTED
IDS = {U("a"): 0, U("b"): 1}


# -- helper statistics ---------------------------------------------------------


def test_median_conventions():
    def median(values):
        return float(prepare_profile([{U("a"): [float(v) for v in values]}], {U("a"): 0}).median[0])

    assert median([1, 2, 3]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    assert median([5]) == 5
    assert median([3, 1, 2]) == 2


def test_median_empty_rejected():
    with pytest.raises(EmptyListError, match="'b'"):
        prepare_profile([{U("a"): [1.0], U("b"): []}], IDS)
    with pytest.raises(EmptyListError, match="'b'"):
        prepare_profile([{U("a"): [1.0]}, {U("b"): []}], IDS)
    # a feature empty in one part but not in another pools to a non-empty run
    assert prepare_profile([{U("a"): []}, {U("a"): [2.0]}], IDS).values.tolist() == [2.0]


def test_sample_std():
    # the Similarity band is median +/- the sample std (n - 1): 110 +/- 10 holds 100.5;
    # the population std (8.16) would leave it outside
    a = {U("a"): [100.0, 110.0, 120.0]}
    assert similarity_score(a, {U("a"): [100.5]}, CORR) == 1.0
    assert similarity_score(a, {U("a"): [99.5]}, CORR) == 0.0
    # one sample: the band is value +/- value/4
    assert similarity_score({U("a"): [8.0]}, {U("a"): [9.9]}, CORR) == 1.0
    assert similarity_score({U("a"): [8.0]}, {U("a"): [10.0]}, CORR) == 0.0


def test_ecdf_counting():
    # ITAD reads the right-continuous ECDF, the fraction of enrollment values <= y
    a = {U("a"): [1.0, 2.0, 3.0]}
    assert itad_score(a, {U("a"): [2.0]}) == pytest.approx(2 / 3)
    assert itad_score(a, {U("a"): [0.0]}) == 0.0
    assert itad_score(a, {U("a"): [5.0]}) == 0.0  # above the median: 1 - ecdf(5) = 0


def test_prepare_profile_rejects_empty_lists():
    with pytest.raises(EmptyListError):
        prepare_profile([{U("a"): []}], IDS)


def test_pooled_profile_equals_concatenated_parts(rng):
    # tie-heavy parts: few distinct values, features present in one part only
    pool = [U("a"), U("b"), D("a", "b"), D("b", "a")]
    for _ in range(200):
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            keys = rng.choice(len(pool), size=int(rng.integers(0, len(pool) + 1)), replace=False)
            parts.append(
                {pool[i]: [float(v) for v in rng.integers(-2, 3, size=int(rng.integers(1, 5)))] for i in keys}
            )
        concatenated: dict = {}
        for part in parts:
            for key, values in part.items():
                concatenated.setdefault(key, []).extend(values)
        ids = feature_ids([{key: [] for key in pool}])
        pooled = prepare_profile(parts, ids)
        reference = prepare_profile([concatenated], ids)
        for got, want in zip(pooled, reference):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the order of the parts cannot change a bit
        assert all(a.tobytes() == b.tobytes() for a, b in zip(prepare_profile(parts[::-1], ids), pooled))



# -- similarity ----------------------------------------------------------------


def test_similarity_overlapping_probe():
    a = {U("a"): [100.0, 110.0, 120.0]}
    b = {U("a"): [105.0, 115.0]}
    # both probe values inside (100, 120): v/u = 1.0 > 0.5
    assert similarity_score(a, b, PUB) == 0.0
    assert similarity_score(a, b, CORR) == 1.0


def test_similarity_outlying_probe():
    a = {U("a"): [100.0, 110.0, 120.0]}
    b = {U("a"): [150.0]}
    assert similarity_score(a, b, PUB) == 1.0
    assert similarity_score(a, b, CORR) == 0.0


def test_similarity_disjoint_features():
    a = {U("a"): [100.0]}
    b = {U("b"): [100.0]}
    assert similarity_score(a, b, PUB) == 0.0
    assert similarity_score(a, b, CORR) == 0.0


def test_similarity_single_value_band_is_quarter():
    # single enrollment value 100: band (75, 125)
    a = {U("a"): [100.0]}
    assert similarity_score(a, {U("a"): [76.0, 124.0]}, CORR) == 1.0
    assert similarity_score(a, {U("a"): [75.0]}, CORR) == 0.0
    assert similarity_score(a, {U("a"): [125.0]}, CORR) == 0.0


def test_similarity_zero_std_band_is_empty():
    # identical enrollment values: std 0, open interval empty, v = 0
    a = {U("a"): [100.0, 100.0, 100.0]}
    b = {U("a"): [100.0]}
    assert similarity_score(a, b, PUB) == 1.0
    assert similarity_score(a, b, CORR) == 0.0


def test_similarity_negative_single_value_band_is_empty():
    # negative digraph with one sample: sigma = value/4 < 0, band inverted
    a = {D("a", "b"): [-40.0]}
    b = {D("a", "b"): [-40.0]}
    assert similarity_score(a, b, PUB) == 1.0


def test_similarity_mixed_features_fraction():
    a = {U("a"): [100.0, 110.0, 120.0], U("b"): [10.0, 20.0, 30.0]}
    b = {U("a"): [110.0], U("b"): [500.0]}
    assert similarity_score(a, b, CORR) == 0.5
    assert similarity_score(a, b, PUB) == 0.5


# -- absolute ------------------------------------------------------------------


def test_absolute_half_match():
    a = {U("a"): [100.0], U("b"): [200.0]}
    b = {U("a"): [140.0], U("b"): [350.0]}
    assert absolute_score(a, b) == 0.5


def test_absolute_identity_and_empty():
    a = {U("a"): [100.0], D("a", "b"): [-30.0], U("b"): [0.0]}
    assert absolute_score(a, a) == 1.0
    assert absolute_score(a, {U("zz"): [1.0]}) == 0.0


def test_absolute_threshold_boundary_inclusive():
    a = {U("a"): [100.0]}
    assert absolute_score(a, {U("a"): [150.0]}) == 1.0  # ratio exactly 1.5
    assert absolute_score(a, {U("a"): [150.1]}) == 0.0


def test_absolute_negative_medians_compare_by_magnitude():
    assert absolute_score({D("a", "b"): [-100.0]}, {D("a", "b"): [-140.0]}) == 1.0
    assert absolute_score({D("a", "b"): [-100.0]}, {D("a", "b"): [-200.0]}) == 0.0


def test_absolute_sign_rules():
    # opposite signs never match; zero matches only zero
    assert absolute_score({D("a", "b"): [-50.0]}, {D("a", "b"): [50.0]}) == 0.0
    assert absolute_score({D("a", "b"): [0.0]}, {D("a", "b"): [0.0]}) == 1.0
    assert absolute_score({D("a", "b"): [0.0]}, {D("a", "b"): [10.0]}) == 0.0
    assert absolute_score({D("a", "b"): [-10.0]}, {D("a", "b"): [0.0]}) == 0.0


def test_absolute_custom_threshold():
    a = {U("a"): [100.0]}
    b = {U("a"): [180.0]}
    assert absolute_score(a, b, threshold=2.0) == 1.0
    with pytest.raises(ValueError):
        absolute_score(a, b, threshold=1.0)


# -- itad ----------------------------------------------------------------------


def test_itad_half_at_median():
    assert itad_score({U("a"): [100.0, 200.0]}, {U("a"): [150.0]}) == 0.5


def test_itad_identity_single_value():
    assert itad_score({U("a"): [100.0]}, {U("a"): [100.0]}) == 1.0


def test_itad_empty_common():
    assert itad_score({U("a"): [1.0]}, {U("b"): [1.0]}) == 0.0


def test_itad_upper_tail_uses_complement():
    a = {U("a"): [10.0, 20.0, 30.0, 40.0]}
    # y=35 > median 25: s = 1 - ecdf = 1 - 3/4
    assert itad_score(a, {U("a"): [35.0]}) == 0.25
    # y=15 <= median: s = ecdf = 1/4
    assert itad_score(a, {U("a"): [15.0]}) == 0.25


def test_itad_flat_pooling_weighs_large_lists():
    a = {U("a"): [100.0], U("b"): [100.0]}
    b = {U("a"): [100.0, 100.0, 100.0], U("b"): [500.0]}
    # Q = [1, 1, 1, 0] pooled across features
    assert itad_score(a, b) == 0.75


# -- oracle equivalence (spot checks; the full sweep lives in acceptance) ------


def test_verifiers_match_oracles_on_random_pairs(rng):
    for _ in range(100):
        a, b = random_profile(rng), random_profile(rng)
        assert similarity_score(a, b, PUB) == pytest.approx(oracle_similarity(a, b), abs=1e-12)
        assert similarity_score(a, b, CORR) == pytest.approx(oracle_similarity(a, b, corrected=True), abs=1e-12)
        assert absolute_score(a, b) == pytest.approx(oracle_absolute(a, b), abs=1e-12)
        assert itad_score(a, b) == pytest.approx(oracle_itad(a, b), abs=1e-12)


# -- property tests -------------------------------------------------------------

values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)
profile_st = st.dictionaries(
    st.sampled_from([U("a"), U("b"), U("c"), D("a", "b"), D("b", "a")]),
    values_st,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(profile_st, profile_st)
def test_scores_bounded(a, b):
    for value in (
        similarity_score(a, b, PUB),
        similarity_score(a, b, CORR),
        absolute_score(a, b),
        itad_score(a, b),
    ):
        assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(profile_st, profile_st)
def test_similarity_modes_sum_to_one(a, b):
    common = set(a) & set(b)
    total = similarity_score(a, b, PUB) + similarity_score(a, b, CORR)
    assert total == (1.0 if common else 0.0)


@settings(max_examples=200, deadline=None)
@given(profile_st)
def test_absolute_identity_is_one(a):
    if set(a):
        assert absolute_score(a, a) == 1.0


@settings(max_examples=200, deadline=None)
@given(profile_st, profile_st)
def test_absolute_symmetry(a, b):
    assert absolute_score(a, b) == absolute_score(b, a)


@settings(max_examples=200, deadline=None)
@given(profile_st, profile_st, st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0]))
def test_common_timescale_invariance(a, b, scale):
    # power-of-two scales keep every float operation exact, so equality is exact
    sa = {k: [scale * v for v in vs] for k, vs in a.items()}
    sb = {k: [scale * v for v in vs] for k, vs in b.items()}
    assert absolute_score(sa, sb) == absolute_score(a, b)
    assert similarity_score(sa, sb, PUB) == similarity_score(a, b, PUB)
    assert similarity_score(sa, sb, CORR) == similarity_score(a, b, CORR)


@settings(max_examples=100, deadline=None)
@given(profile_st)
def test_itad_identity_on_single_values(a):
    singles = {k: vs[:1] for k, vs in a.items()}
    if singles:
        assert itad_score(singles, singles) == 1.0
