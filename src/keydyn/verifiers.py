"""Statistical keystroke verifiers: Similarity, Absolute, and ITAD.

All three compare an enrollment pattern A against a probe pattern B over
their common feature set and return a match score in [0, 1]. Profiles are
any Mapping from feature key to a non-empty sequence of durations;
:class:`~keydyn.features.FeatureDictionary` qualifies.

Scoring runs on a columnar form: :func:`feature_ids` interns the feature
keys of a roster to ints, :func:`prepare_profile` turns one profile into
sorted per-feature value runs with their medians, and each
``*_from_prepared`` kernel scores a whole probe x enrollment matrix, looping
over probe users only. The pair-level ``*_score`` functions are 1x1 calls
into the same kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyListError
from .features import FeatureKey


class Verifier(str, Enum):
    SIMILARITY = "sim"
    ABSOLUTE = "abs"
    ITAD = "itad"


class SimilarityMode(str, Enum):
    """Which direction the Similarity verifier counts a feature match.

    AS_PUBLISHED counts a feature when at most half of the probe values fall
    inside the enrollment band (median +/- std), which makes identical
    profiles score 0. CORRECTED counts the complement, so overlap raises the
    score. Both are exposed; AS_PUBLISHED is the default.
    """

    AS_PUBLISHED = "published"
    CORRECTED = "corrected"


DEFAULT_ABSOLUTE_THRESHOLD = 1.5


@dataclass(frozen=True)
class ScorerSpec:
    """A verifier plus its settings; identifies one score-matrix producer."""

    verifier: Verifier
    mode: SimilarityMode = SimilarityMode.AS_PUBLISHED
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD

    def __post_init__(self) -> None:
        if not self.threshold > 1:
            raise ValueError(f"threshold must be > 1, got {self.threshold}")

    @property
    def label(self) -> str:
        return self.verifier.value


@dataclass(frozen=True)
class MatchScore:
    value: float
    verifier: Verifier
    mode: SimilarityMode | None = None

    def __float__(self) -> float:
        return self.value


ProfileLike = Mapping[FeatureKey, Sequence[float]]


def median(values: Sequence[float]) -> float:
    """Middle of the sorted values; mean of the two middles for even length."""
    n = len(values)
    if n == 0:
        raise EmptyListError("median of empty list")
    ordered = sorted(values)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def sample_std(values: Sequence[float]) -> float | None:
    """Sample standard deviation (n-1 denominator); None when n < 2."""
    if len(values) < 2:
        return None
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))


def ecdf(values: Sequence[float], query: float) -> float:
    """Fraction of values <= query (right-continuous empirical CDF)."""
    if len(values) == 0:
        raise EmptyListError("ecdf of empty list")
    return sum(1 for v in values if v <= query) / len(values)


class PreparedProfile(NamedTuple):
    """One profile in columnar form, features in ascending id order.

    Feature ``i`` has id ``fids[i]`` and owns the run
    ``values[offsets[i]:offsets[i + 1]]``, sorted ascending.
    """

    fids: np.ndarray  # int64, ascending interned feature ids
    offsets: np.ndarray  # int64, CSR offsets into values, len(fids) + 1
    values: np.ndarray  # float64, ascending within each feature
    median: np.ndarray  # float64 per feature
    count: np.ndarray  # int64 per feature


def feature_ids(profiles: Iterable[ProfileLike]) -> dict[FeatureKey, int]:
    """Intern every feature key of the given profiles to an int, in sorted key order.

    Because ids ascend with the keys, kernels that walk features in id order
    walk them in sorted-key order, so a score does not depend on which other
    profiles shared the vocabulary.
    """
    keys: set[FeatureKey] = set()
    for profile in profiles:
        keys.update(profile.keys())
    return {key: i for i, key in enumerate(sorted(keys))}


def prepare_profile(profile: ProfileLike, ids: Mapping[FeatureKey, int] | None = None) -> PreparedProfile:
    """Sort one profile's values per feature and precompute the medians.

    ``ids`` must hold every key of ``profile``, and profiles scored against
    each other must share it (see :func:`feature_ids`); by default the
    profile's own keys are interned.
    """
    if ids is None:
        ids = feature_ids((profile,))
    runs = list(profile.values())
    count = np.fromiter(map(len, runs), np.int64, len(runs))
    if not count.all():
        key = next(k for k, v in profile.items() if len(v) == 0)
        raise EmptyListError(f"empty value list for feature {key}")
    fids = np.fromiter((ids[key] for key in profile), np.int64, len(runs))
    values = np.fromiter(itertools.chain.from_iterable(runs), np.float64, int(count.sum()))
    # one sort puts features in id order and values ascending within each
    values = values[np.lexsort((values, np.repeat(fids, count)))]
    order = np.argsort(fids)
    fids, count = fids[order], count[order]
    offsets = np.zeros(fids.size + 1, np.int64)
    np.cumsum(count, out=offsets[1:])
    starts = offsets[:-1]

    mid = starts + count // 2
    median = values[mid]
    even = np.flatnonzero(count % 2 == 0)
    median[even] = (values[mid[even] - 1] + values[mid[even]]) / 2
    return PreparedProfile(fids, offsets, values, median, count)


def _run_std(values: np.ndarray, starts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``np.std(run, ddof=1)`` of each run ``values[starts[i]:starts[i] + count[i]]``.

    nan where a run holds one value. Repeats the steps of ``np.std`` row-wise
    over the runs of each length; a row-wise reduction sums each row as the
    1-D call does, so every result is bit-identical to the per-run call.
    """
    std = np.full(count.size, np.nan)
    for n in set(count.tolist()) - {1}:
        rows = np.flatnonzero(count == n)
        runs = values[starts[rows, None] + np.arange(n)]
        runs -= np.add.reduce(runs, axis=1, keepdims=True) / n
        runs *= runs
        std[rows] = np.sqrt(np.add.reduce(runs, axis=1) / (n - 1))
    return std


class _Entries(NamedTuple):
    """The (enrollment user, feature) entries of a roster side, user-major."""

    user: np.ndarray  # roster index of each entry
    fid: np.ndarray  # ascending within each user
    count: np.ndarray
    median: np.ndarray


def _entries(profiles: Sequence[PreparedProfile]) -> _Entries:
    return _Entries(
        np.repeat(np.arange(len(profiles)), [p.fids.size for p in profiles]),
        np.concatenate([p.fids for p in profiles]),
        np.concatenate([p.count for p in profiles]),
        np.concatenate([p.median for p in profiles]),
    )


def _value_fids(profiles: Sequence[PreparedProfile]) -> np.ndarray:
    """Feature id of every value of the concatenated profiles."""
    return np.concatenate([np.repeat(p.fids, p.count) for p in profiles])


def _vocabulary_size(*fids: np.ndarray) -> int:
    return 1 + max((int(f.max()) for f in fids if f.size), default=-1)


def _joint_ranks(fids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank of each (fid, value) pair in lexicographic order, and that order.

    Equal pairs share a rank, so within one feature rank order is value
    order, ties included, and the ranks of different features never
    interleave. Integer ranks thus stand in exactly for the values in every
    comparison, unlike float offsets per feature, which would round.
    """
    # sort by value, then stably by feature; pairs that tie may land in any
    # order, as they share a rank. Feature ids that fit 16 bits get a radix sort.
    by_value = np.argsort(values)
    narrow = np.int16 if fids.size == 0 or fids.max() < 2**15 else np.int32
    order = by_value[np.argsort(fids[by_value].astype(narrow), kind="stable")]
    del by_value
    new = np.empty(order.size, bool)
    new[:1] = True
    sorted_fids = fids[order]
    np.not_equal(sorted_fids[1:], sorted_fids[:-1], out=new[1:])
    del sorted_fids
    sorted_values = values[order]
    new[1:] |= sorted_values[1:] != sorted_values[:-1]
    del sorted_values
    ranks = np.empty(order.size, np.int32 if order.size < 2**31 else np.int64)
    ranks[order] = np.cumsum(new, dtype=ranks.dtype)
    return ranks, order


def _divide_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per cell, 0.0 where den is 0 (no common feature)."""
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=den > 0)
    return out


def similarity_from_prepared(
    enroll: Sequence[PreparedProfile], probe: Sequence[PreparedProfile], mode: SimilarityMode
) -> np.ndarray:
    """Similarity of every probe (rows) against every enrollment (columns)."""
    scores = np.zeros((len(probe), len(enroll)))
    if not enroll or not probe:
        return scores
    e = _entries(enroll)
    values = np.concatenate([p.values for p in enroll])
    starts = np.cumsum(e.count) - e.count
    # std undefined for a single sample: fall back to that value / 4
    sigma = np.where(e.count >= 2, _run_std(values, starts, e.count), values[starts] / 4.0)
    del values
    probe_fids = _value_fids(probe)
    ranks, _ = _joint_ranks(
        np.concatenate([probe_fids, e.fid, e.fid]),
        np.concatenate([*(p.values for p in probe), e.median - sigma, e.median + sigma]),
    )
    n_values = probe_fids.size
    lo, hi = ranks[n_values : n_values + e.fid.size], ranks[n_values + e.fid.size :]

    probe_count = np.zeros(_vocabulary_size(e.fid, probe_fids), np.int64)
    at = 0
    for i, p in enumerate(probe):
        own = ranks[at : at + p.values.size]  # ascending: runs in id order, sorted within
        at += p.values.size
        probe_count[p.fids] = p.count
        u = probe_count[e.fid]
        probe_count[p.fids] = 0
        # probe values strictly inside (lo, hi); an inverted band gives v < 0, counted as none
        v = np.searchsorted(own, hi, side="left") - np.searchsorted(own, lo, side="right")
        common = u > 0
        t = np.bincount(e.user[common], minlength=len(enroll))
        # 2v <= u is v/u <= 0.5 without rounding
        k = np.bincount(e.user[common & (2 * v <= u)], minlength=len(enroll))
        # k/t + (t-k)/t == 1.0 holds exactly in binary floating point
        scores[i] = _divide_rows(k if mode is SimilarityMode.AS_PUBLISHED else t - k, t)
    return scores


def _medians_match(med_a: np.ndarray, med_b: np.ndarray, threshold: float) -> np.ndarray:
    """Element-wise Absolute agreement of two median arrays.

    Same-sign medians agree when the larger magnitude over the smaller is at
    most ``threshold``; two exact zeros agree; anything else does not.
    """
    abs_a, abs_b = np.abs(med_a), np.abs(med_b)
    same_sign = ((med_a > 0) & (med_b > 0)) | ((med_a < 0) & (med_b < 0))
    with np.errstate(all="ignore"):  # 0/0, x/0 and overflow only reach masked-out cells
        within = np.maximum(abs_a, abs_b) / np.minimum(abs_a, abs_b) <= threshold
    return (same_sign & within) | ((med_a == 0) & (med_b == 0))


def absolute_from_prepared(
    enroll: Sequence[PreparedProfile], probe: Sequence[PreparedProfile], threshold: float
) -> np.ndarray:
    """Absolute score of every probe (rows) against every enrollment (columns)."""
    scores = np.zeros((len(probe), len(enroll)))
    if not enroll or not probe:
        return scores
    e = _entries(enroll)
    size = _vocabulary_size(e.fid, *(p.fids for p in probe))
    present = np.zeros(size, bool)
    probe_median = np.zeros(size)
    for i, p in enumerate(probe):
        present[p.fids] = True
        probe_median[p.fids] = p.median
        common = np.flatnonzero(present[e.fid])
        present[p.fids] = False
        users = e.user[common]
        match = _medians_match(e.median[common], probe_median[e.fid[common]], threshold)
        t = np.bincount(users, minlength=len(enroll))
        scores[i] = _divide_rows(np.bincount(users[match], minlength=len(enroll)), t)
    return scores


def itad_from_prepared(enroll: Sequence[PreparedProfile], probe: Sequence[PreparedProfile]) -> np.ndarray:
    """ITAD score of every probe (rows) against every enrollment (columns).

    A probe value y of a common feature with n enrollment values, c of them
    <= y, contributes c/n when y is at most the enrollment median m and
    1 - c/n above it. Summed over the probe values of one feature, the
    numerators equal the sum over enrollment values x of
    |#{y < x} - #{y <= m}|, an exact integer; each feature adds that sum
    over n, and a pair adds its features in ascending id order.
    """
    scores = np.zeros((len(probe), len(enroll)))
    if not enroll or not probe:
        return scores
    e = _entries(enroll)
    probe_fids = _value_fids(probe)
    ranks, order = _joint_ranks(
        np.concatenate([_value_fids(enroll), probe_fids, e.fid]),
        np.concatenate([*(p.values for p in enroll), *(p.values for p in probe), e.median]),
    )
    n_values = int(e.count.sum())
    probe_ranks = ranks[n_values : n_values + probe_fids.size]
    median_rank = ranks[n_values + probe_fids.size :]
    # every enrollment value in (feature, value) order, with its rank and its entry
    order = order[order < n_values]
    value_rank = ranks[order]
    value_entry = np.repeat(np.arange(e.fid.size), e.count)[order]
    del ranks, order

    probe_count = np.zeros(_vocabulary_size(e.fid, probe_fids), np.int64)
    at = 0
    for i, p in enumerate(probe):
        own = probe_ranks[at : at + p.values.size]  # ascending: runs in id order, sorted within
        at += p.values.size
        probe_count[p.fids] = p.count
        n_probe = probe_count[e.fid]
        probe_count[p.fids] = 0
        # below[k]: probe values ranked under the k-th enrollment value
        below = np.bincount(np.searchsorted(value_rank, own, side="right"), minlength=n_values + 1)
        np.cumsum(below, out=below)
        gap = below[:n_values] - np.searchsorted(own, median_rank, side="right")[value_entry]
        tail = np.bincount(value_entry, weights=np.abs(gap, out=gap), minlength=e.fid.size)
        common = n_probe > 0
        users = e.user[common]
        # bincount adds in entry order: per pair, ascending feature id
        total = np.bincount(users, weights=tail[common] / e.count[common], minlength=len(enroll))
        scores[i] = _divide_rows(total, np.bincount(users, weights=n_probe[common], minlength=len(enroll)))
    return scores


def _prepare_pair(enroll: ProfileLike, probe: ProfileLike) -> tuple[list[PreparedProfile], list[PreparedProfile]]:
    """A one-user roster on each side, for scoring one pair as a 1x1 matrix."""
    ids = feature_ids((enroll, probe))
    return [prepare_profile(enroll, ids)], [prepare_profile(probe, ids)]


def similarity_score(
    enroll: ProfileLike,
    probe: ProfileLike,
    mode: SimilarityMode = SimilarityMode.AS_PUBLISHED,
) -> float:
    """Weighted similarity score of probe B against enrollment A.

    Per common feature: band = median(A[f]) +/- std(A[f]) (value/4 when A[f]
    has a single sample); v/u = fraction of B[f] strictly inside the band.
    AS_PUBLISHED counts the feature when v/u <= 0.5, CORRECTED when > 0.5;
    the score is counted features over total common features.
    """
    return float(similarity_from_prepared(*_prepare_pair(enroll, probe), mode)[0, 0])


def absolute_score(
    enroll: ProfileLike,
    probe: ProfileLike,
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
) -> float:
    """Absolute match score: fraction of common features whose medians agree.

    Two medians agree when the larger-to-smaller ratio is at most
    ``threshold``. Medians of opposite sign never agree; a zero median agrees
    only with another exact zero; negative pairs compare by magnitude.
    """
    spec = ScorerSpec(Verifier.ABSOLUTE, threshold=threshold)
    return float(absolute_from_prepared(*_prepare_pair(enroll, probe), spec.threshold)[0, 0])


def itad_score(enroll: ProfileLike, probe: ProfileLike) -> float:
    """Instance-based tail area density score.

    Every probe value y contributes the tail mass of the enrollment ECDF on
    y's side of the enrollment median; the score is the mean over one flat
    list across all common features, so values from large lists weigh more.
    """
    return float(itad_from_prepared(*_prepare_pair(enroll, probe))[0, 0])


def score_profiles(
    enroll: ProfileLike,
    probe: ProfileLike,
    verifier: Verifier,
    *,
    mode: SimilarityMode = SimilarityMode.AS_PUBLISHED,
    threshold: float = DEFAULT_ABSOLUTE_THRESHOLD,
) -> MatchScore:
    """Score one pair with the requested verifier, labeled with its settings."""
    if verifier is Verifier.SIMILARITY:
        return MatchScore(similarity_score(enroll, probe, mode), verifier, mode)
    if verifier is Verifier.ABSOLUTE:
        return MatchScore(absolute_score(enroll, probe, threshold), verifier)
    return MatchScore(itad_score(enroll, probe), verifier)
