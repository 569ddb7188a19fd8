from __future__ import annotations

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keydyn.errors import EmptyListError, ValueOutOfRangeError
from keydyn.evaluation import build_scenario_data, enumerate_scenarios
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import (
    MAX_MAGNITUDE,
    Roster,
    SimilarityMode,
    Verifier,
    _pairs,
    _placed,
    itad_from_prepared,
    prepare_profile,
    profile_pairs,
    session_runs,
)

from columns import digraph_key, unigraph_key
from conftest import absolute_score, itad_score, random_profile, similarity_score
from oracles import oracle_absolute, oracle_itad, oracle_similarity

U, D = unigraph_key, digraph_key
PUB, CORR = SimilarityMode.AS_PUBLISHED, SimilarityMode.CORRECTED


# -- helper statistics ---------------------------------------------------------


def test_median_conventions():
    def median(values):
        runs, _ = session_runs([{U("a"): [float(v) for v in values]}])
        return float(prepare_profile(runs).median[0])

    assert median([1, 2, 3]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    assert median([5]) == 5
    assert median([3, 1, 2]) == 2


def test_median_empty_rejected():
    with pytest.raises(EmptyListError, match="feature U:b$"):
        session_runs([{U("a"): [1.0], U("b"): []}])
    with pytest.raises(EmptyListError, match="feature U:b$"):
        session_runs([{U("a"): [1.0]}, {U("b"): []}])
    # each map is checked as it is read, so an empty list is rejected even when
    # another map holds values of its feature
    with pytest.raises(EmptyListError, match="feature U:a$"):
        session_runs([{U("a"): []}, {U("a"): [2.0]}])


def test_faults_name_the_feature_and_the_map_that_holds_it():
    sources = ["session one", "session two"]
    with pytest.raises(EmptyListError, match="^empty value list for feature U:b in session two$"):
        session_runs([{U("a"): [1.0]}, {U("b"): []}], sources)
    with pytest.raises(ValueOutOfRangeError, match=r"^value inf of feature D:a\|b in session two is not within"):
        session_runs([{U("a"): [1.0]}, {U("a"): [1.0], D("a", "b"): [math.inf]}], sources)


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
        session_runs([{U("a"): []}])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, -1e308, math.nextafter(MAX_MAGNITUDE, 2e15)])
def test_values_beyond_bound_rejected(value):
    bad = {U("a"): [100.0, 110.0], D("a", "b"): [5.0, value]}
    with pytest.raises(ValueOutOfRangeError, match=r"feature D:a\|b is"):
        session_runs([{U("a"): [1.0]}, bad])
    for score in (similarity_score, absolute_score, itad_score):
        with pytest.raises(ValueOutOfRangeError):
            score(bad, {U("a"): [1.0]})
        with pytest.raises(ValueOutOfRangeError):
            score({U("a"): [1.0]}, bad)


def test_values_at_bound_score_as_the_oracles_do():
    # at the bound every median, std and band edge is finite (an overflow warning is an error
    # under the test configuration), so pairs still order exactly
    edge = {U("a"): [-MAX_MAGNITUDE, MAX_MAGNITUDE], U("b"): [MAX_MAGNITUDE], D("a", "b"): [-MAX_MAGNITUDE, 0.0, -0.0]}
    other = {U("a"): [0.0, MAX_MAGNITUDE], U("b"): [-MAX_MAGNITUDE, MAX_MAGNITUDE], D("a", "b"): [-MAX_MAGNITUDE]}
    for a, b in ((edge, edge), (edge, other), (other, edge)):
        for mode in (PUB, CORR):
            assert similarity_score(a, b, mode) == oracle_similarity(a, b, corrected=mode is CORR)
        assert absolute_score(a, b) == oracle_absolute(a, b)
        assert abs(itad_score(a, b) - oracle_itad(a, b)) <= 1e-12


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
        # the concatenation holds every key of the parts, so all share one vocabulary
        *runs, whole = session_runs([*parts, concatenated])[0]
        pooled = prepare_profile(runs)
        reference = prepare_profile([whole])
        for got, want in zip(pooled, reference):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the order of the parts cannot change a bit
        assert all(a.tobytes() == b.tobytes() for a, b in zip(prepare_profile(runs[::-1]), pooled))


def _lexsorted(parts, names):
    """The (feature id, value) columns of ``parts``, read in map order, ordered by ``np.lexsort``."""
    fids = np.array([names.index(key) for part in parts for key, values in part.items() for _ in values], np.int64)
    values = np.array([v for part in parts for values in part.values() for v in values], np.float64)
    order = np.lexsort((values, fids))
    return fids[order], values[order]


def test_runs_ascend_as_pairs_and_profiles_merge_them_as_lexsort_does(rng):
    # tie-heavy sessions: equal values within and across sessions, -0.0 next to 0.0, one-value
    # features, and lists longer than the 16 values below which numpy sorts stably anyway
    pool = [U("a"), U("b"), D("a", "b"), D("b", "a")]
    for _ in range(100):
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            keys = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False)
            lengths = rng.choice([1, 1, 3, 20], size=keys.size)
            part = {pool[i]: rng.choice([-1.0, -0.0, 0.0, 1.0], size=n).tolist() for i, n in zip(keys, lengths)}
            if rng.random() < 0.5:  # names and values in reversed order
                part = {key: values[::-1] for key, values in sorted(part.items(), reverse=True)}
            parts.append(part)
        runs, names = session_runs(parts)
        for part, run in zip(parts, runs):
            # each run ascends as pairs; tied pairs (-0.0 and 0.0 among them) keep map order
            fids, values = _lexsorted([part], names)
            assert run.dtype == np.complex128
            assert run.real.tobytes() == fids.astype(np.float64).tobytes()
            assert run.imag.tobytes() == values.tobytes()
        for side, side_runs in ((parts, runs), (parts[::-1], runs[::-1])):
            # the reference profile: one lexsort of the side's columns, concatenated in map order
            fids, values = _lexsorted(side, names)
            starts = np.flatnonzero(np.diff(fids, prepend=-1))
            count = np.diff(np.append(starts, fids.size))
            mid = starts + count // 2
            median = values[mid]
            even = count % 2 == 0
            median[even] = (values[mid[even] - 1] + values[mid[even]]) / 2
            for got, want in zip(prepare_profile(side_runs), (fids[starts], values, median, count)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def session_maps(pool):
    """Six tie-heavy session maps over ``pool``: zeros, -0.0 next to 0.0, repeated and one-value lists."""
    values = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]) | st.floats(-1e3, 1e3, allow_nan=False)
    session = st.dictionaries(st.sampled_from(pool), st.lists(values, min_size=1, max_size=20))
    return st.lists(session, min_size=6, max_size=6)


# U:a and D:a|b are typed on both platforms, U:b only on the first and U:c only on the second
@settings(max_examples=100, deadline=None)
@given(session_maps([U("a"), U("b"), D("a", "b")]), session_maps([U("a"), U("c"), D("a", "b")]))
@example(first=[{U("a"): [-0.0, 0.0]}] + [{}] * 5, second=[{U("a"): [0.0, -0.0], U("c"): [1.0]}] + [{}] * 5)
def test_two_platform_side_merged_from_its_halves_equals_its_session_runs_pooled(first, second):
    # build_scenario_data prepares a combined scenario's enrollment side from the pairs of its two
    # one-platform sides, first platform first; tied pairs must land as its twelve runs put them
    runs, _ = session_runs([*first, *second])
    halves = prepare_profile(runs[:6]), prepare_profile(runs[6:])
    merged = prepare_profile([profile_pairs(half) for half in halves])
    for got, want in zip(merged, prepare_profile(runs)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_placed_counts_the_own_pairs_below_each_pair(rng):
    # tie-heavy ascending pair arrays, empty ones among them, -0.0 next to 0.0
    for _ in range(300):
        ascending, own = (
            np.sort(_pairs(rng.integers(0, 3, n), rng.choice([-1.0, -0.0, 0.0, 1.0], n)))
            for n in rng.integers(0, 12, 2).tolist()
        )
        for side, below in (("right", np.less), ("left", np.less_equal)):
            want = [int(np.count_nonzero(below(own, pair))) for pair in ascending]
            assert _placed(ascending, own, side).tolist() == want
    with pytest.raises(ValueError, match="ascend"):
        _placed(_pairs(np.array([0, 1]), np.array([0.0, 0.0])), _pairs(np.array([1, 0]), np.array([0.0, 0.0])), "left")


def test_session_runs_keeps_maps_short_lived():
    # build_scenario_data's peak memory rests on each session map dying once it is a run
    class Map(dict):
        pass

    refs = []

    def maps():
        for i in range(6):
            # when map i is made, every map before map i - 1 is dead
            assert [ref() for ref in refs[:-1]] == [None] * max(i - 1, 0)
            part = Map({U("a"): [float(i)], D("a", "b"): [1.0, float(i)]})
            refs.append(weakref.ref(part))
            yield part

    runs, keys = session_runs(maps())
    assert len(refs) == len(runs) == 6
    assert keys == sorted([U("a"), D("a", "b")])
    assert [run.imag.tolist() for run in runs[:2]] == [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
    assert runs[0].real.tolist() == [keys.index(D("a", "b"))] * 2 + [keys.index(U("a"))]


def test_session_runs_are_consecutive_slices_of_one_table():
    # one block, so the runs go back whole when the last one dies, with no small arrays left behind
    maps = [{U("a"): [float(i)] * (i + 1), D("a", "b"): [2.0] * 5_000} for i in range(4)]
    runs, _ = session_runs(maps)
    table = runs[0].base
    assert all(run.base is table for run in runs) and table.size == sum(run.size for run in runs)
    assert [run.ctypes.data - table.ctypes.data for run in runs] == [16 * i * 5_000 + 8 * i * (i + 1) for i in range(4)]
    table = weakref.ref(table)
    del runs[:-1]
    assert table() is not None  # a run kept alive keeps the table
    del runs
    assert table() is None


@pytest.mark.parametrize("users, seed, name", [(26, 25, "FI-T"), (52, 13, "F-I")])
def test_itad_working_set_is_bounded_per_enrollment_value(users, seed, name):
    # the sorted pairs (16 bytes a value), their entries (8) and signs (1), and one float column per probe (8)
    corpus = generate_corpus(SynthSpec(seed=seed, n_users=users, separation=3.0))
    [data] = build_scenario_data(corpus, [s for s in enumerate_scenarios(corpus.platforms) if s.name == name])
    roster = Roster(list(data.enroll.values()), list(data.probe.values()))
    roster.probe_pairs  # laid out before the trace: Similarity shares it
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        itad_from_prepared(roster)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    values = int(roster.count.sum())
    # about 36-38 bytes a value; integer gaps and their gathers over every value took 43-45
    assert peak <= 40 * values, f"ITAD peaks at {peak / values:.1f} bytes per enrollment value"


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


# Below this magnitude a value, or a median, std, band edge or squared deviation made from it,
# can be subnormal, where scaling by a power of two rounds. At or above it every one is normal
TINY = 2.0**-400


@settings(max_examples=200, deadline=None)
@example(a={U("a"): [0.0]}, b={U("a"): [5e-324]}, scale=0.25)  # 0.25 * 5e-324 rounds to 0.0
@example(a={U("a"): [5e-324]}, b={U("a"): [5e-324]}, scale=8.0)  # 5e-324 / 4, a one-value std, is 0.0
@example(a={U("a"): [0.0, 2.490842647017263e-162]}, b={U("a"): [0.0]}, scale=2.0)  # its deviations square to 0.0
@given(profile_st, profile_st, st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0]))
def test_common_timescale_invariance(a, b, scale):
    # a power-of-two scale keeps every float operation of the scorers exact while no operand or result
    # is subnormal, so the drawn values below TINY, the only ones that can make one so, are read as 0.0
    a, b = ({k: [v if abs(v) >= TINY else 0.0 for v in vs] for k, vs in p.items()} for p in (a, b))
    sa, sb = ({k: [scale * v for v in vs] for k, vs in p.items()} for p in (a, b))
    assert absolute_score(sa, sb) == absolute_score(a, b)
    assert similarity_score(sa, sb, PUB) == similarity_score(a, b, PUB)
    assert similarity_score(sa, sb, CORR) == similarity_score(a, b, CORR)


@settings(max_examples=100, deadline=None)
@given(profile_st)
def test_itad_identity_on_single_values(a):
    singles = {k: vs[:1] for k, vs in a.items()}
    if singles:
        assert itad_score(singles, singles) == 1.0
