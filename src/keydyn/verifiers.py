"""Statistical keystroke verifiers: Similarity, Absolute, and ITAD.

All three compare an enrollment pattern A against a probe pattern B over
their common feature set and return a match score in [0, 1]. Profiles are
any Mapping from feature name (``U:a``, ``D:a|b``, ``W:ab``) to a non-empty
sequence of durations; the per-session dicts of :mod:`keydyn.features`
qualify.

Scoring runs on a columnar form. Similarity and ITAD compare (feature id,
value) pairs exactly, as complex numbers that numpy orders by id, then
value. :func:`session_runs` turns each session map into its run: its pairs,
over one vocabulary of the maps' names, sorted once. :func:`prepare_profile`
merges the runs of one side into sorted per-feature values with their
medians, and a :class:`Roster` lays out a scenario's two sides once for all
three verifiers: each probe user's pairs are placed among the enrollment
side's sorted values, medians and band edges. Each ``*_from_prepared``
kernel scores a whole probe x enrollment matrix from the roster, looping
over probe users only.
The pair-level ``*_score`` functions are 1x1 calls into the same kernels.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyListError, ValueOutOfRangeError


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


def check_threshold(threshold: float) -> float:
    """Return the Absolute ratio threshold; ValueError unless it is finite and > 1."""
    if not 1 < threshold < math.inf:
        raise ValueError(f"threshold must be > 1 and finite, got {threshold}")
    return threshold


def check_choices(values: Sequence[Any], allowed: Sequence[Any], what: str) -> Sequence[Any]:
    """Return ``values``; ValueError unless there is at least one, each in ``allowed`` and none repeated.

    A value must match one of ``allowed`` in type too: the letter ``"U"`` is no
    :class:`~keydyn.features.Kind`. ``what`` names one value, e.g. ``"scorer"``.
    """
    if unknown := [v for v in values if not any(type(v) is type(a) and v == a for a in allowed)]:
        raise ValueError(f"unknown {what}s {unknown}; choose from {[getattr(a, 'value', a) for a in allowed]}")
    if not values:
        raise ValueError(f"at least one {what} must be selected")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated {what}s in {[getattr(v, 'value', v) for v in values]}")
    return values


# The largest magnitude of a profile value, in ms (about 31,700 years). Within
# it every median, std and band edge is finite, so pairs order exactly.
MAX_MAGNITUDE = 1e15


ProfileLike = Mapping[str, Sequence[float]]


class PreparedProfile(NamedTuple):
    """One profile in columnar form, features in ascending id order.

    Feature ``i`` has id ``fids[i]`` and the next ``count[i]`` of ``values``, ascending.
    """

    fids: np.ndarray  # int64, ascending interned feature ids
    values: np.ndarray  # float64, ascending within each feature
    median: np.ndarray  # float64 per feature
    count: np.ndarray  # int64 per feature


def session_runs(
    maps: Iterable[ProfileLike], sources: Iterable[str] | None = None
) -> tuple[list[np.ndarray], list[str]]:
    """The run of each of ``maps``, over one vocabulary ``names``: id ``i`` is feature ``names[i]``.

    A run is a map's :func:`_pairs`, ascending, tied pairs in map order. The
    maps are read one at a time and none is kept, so a generator of session
    maps holds at most two alive. Ids go out in order of first sight, then
    are renumbered to ascend with the sorted names, the key order of a
    profile JSON, so a score does not depend on which other maps shared the
    vocabulary. A feature with an empty value list raises EmptyListError,
    and a value that is not finite or whose magnitude exceeds
    :data:`MAX_MAGNITUDE` raises ValueOutOfRangeError; the message names the
    feature and, when ``sources`` names each map, its map.
    """
    ids: dict[str, int] = {}
    # every name read draws a number and a new name keeps it, so first-sight
    # ids are unique and rising, with gaps, at the cost of one C-level pass
    numbers = itertools.count()
    runs = []
    for part, source in zip(maps, itertools.repeat("") if sources is None else sources):
        where = f" in {source}" if source else ""
        lists = list(part.values())
        counts = np.fromiter(map(len, lists), np.int64, len(lists))
        if not counts.all():
            name = list(part)[counts.argmin()]
            raise EmptyListError(f"empty value list for feature {name}{where}")
        fids = np.repeat(np.fromiter(map(ids.setdefault, part, numbers), np.int64, len(lists)), counts)
        values = np.fromiter(itertools.chain.from_iterable(lists), np.float64, fids.size)
        out = ~(np.abs(values) <= MAX_MAGNITUDE)  # NaN is out too
        if out.any():
            first = out.argmax()
            name = list(part)[np.searchsorted(np.cumsum(counts), first, side="right")]
            value = float(values[first])
            raise ValueOutOfRangeError(f"value {value!r} of feature {name}{where} is not within +/-{MAX_MAGNITUDE:g} ms")
        runs.append(_pairs(fids, values))
    names = sorted(ids)
    renumber = np.empty(next(numbers), np.int64)
    renumber[[ids[name] for name in names]] = np.arange(len(names))
    for run in runs:  # in place, so no second copy of the runs is ever made
        run.real = renumber[run.real.astype(np.int64)]
        run.sort(kind="stable")
    return runs, names


def prepare_profile(runs: Sequence[np.ndarray]) -> PreparedProfile:
    """Merge ``runs`` into one profile: each feature's pooled values, ascending, and their median.

    ``runs`` are the session runs of one side of one user, from one
    :func:`session_runs` vocabulary shared by every profile it is scored
    against. The order of the runs changes no score.
    """
    pairs = np.concatenate(runs or [np.empty(0, np.complex128)])
    pairs.sort(kind="stable")  # merges the ascending runs; tied pairs keep run order, then map order
    starts = np.flatnonzero(np.diff(pairs.real, prepend=-1))
    fids = pairs.real[starts].astype(np.int64)
    count = np.diff(np.append(starts, pairs.size))
    values = pairs.imag.copy()

    mid = starts + count // 2
    median = values[mid]
    even = np.flatnonzero(count % 2 == 0)
    median[even] = (values[mid[even] - 1] + values[mid[even]]) / 2
    return PreparedProfile(fids, values, median, count)


def _run_std(values: np.ndarray, starts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``np.std(run, ddof=1)`` of each run ``values[starts[i]:starts[i] + count[i]]``.

    std is undefined for a single sample, so a run of one value gets that
    value / 4. Repeats the steps of ``np.std`` row-wise over the runs of each
    length; a row-wise reduction sums each row as the 1-D call does, so every
    result is bit-identical to the per-run call.
    """
    std = values[starts] / 4.0
    for n in set(count.tolist()) - {1}:
        rows = np.flatnonzero(count == n)
        runs = values[starts[rows, None] + np.arange(n)]
        runs -= np.add.reduce(runs, axis=1, keepdims=True) / n
        runs *= runs
        std[rows] = np.sqrt(np.add.reduce(runs, axis=1) / (n - 1))
    return std


def _pairs(fids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each (feature id, value) pair as one complex number, which numpy orders by id, then value.

    The parts are filled in place, as ``fids + 1j * values`` would turn an
    infinite value's real part into NaN. Comparisons stay exact, -0.0 equals
    0.0, and only a NaN would sort out of its feature; :func:`session_runs`
    admits none.
    """
    pairs = np.empty(values.size, np.complex128)
    pairs.real, pairs.imag = fids, values
    return pairs


def _placed(ascending: np.ndarray, own: np.ndarray, side: str) -> np.ndarray:
    """For each of the ``ascending`` pairs, how many ``own`` pairs lie below it
    (``side="right"``) or at or below it (``side="left"``)."""
    below = np.bincount(np.searchsorted(ascending, own, side=side), minlength=ascending.size + 1)
    np.cumsum(below, out=below)
    return below[:-1]


class Roster:
    """One scenario's profiles, laid out once for all three verifiers.

    Enrollment (user, feature) entries run user-major, ascending in feature id
    within each user. Similarity and ITAD compare (feature id, value) pairs:
    :attr:`probe_pairs`, :attr:`thresholds` and :attr:`values` are each laid
    out on first use, so Absolute lays out none of them.
    """

    def __init__(self, enroll: Sequence[PreparedProfile], probe: Sequence[PreparedProfile]) -> None:
        self.enroll, self.probe = enroll, probe
        self.user = np.repeat(np.arange(len(enroll)), [p.fids.size for p in enroll])
        self.fid = np.concatenate([p.fids for p in enroll])
        self.count = np.concatenate([p.count for p in enroll])
        self.median = np.concatenate([p.median for p in enroll])

    @cached_property
    def probe_pairs(self) -> list[np.ndarray]:
        """Per probe user, its pairs, ascending as its profile holds them."""
        return [_pairs(np.repeat(p.fids, p.count), p.values) for p in self.probe]

    @cached_property
    def thresholds(self) -> tuple[np.ndarray, np.ndarray]:
        """Every entry's median, median - std and median + std as pairs, in one
        ascending array, and the position of each in it: rows median, low, high."""
        values = np.concatenate([p.values for p in self.enroll])
        sigma = _run_std(values, np.cumsum(self.count) - self.count, self.count)
        pairs = _pairs(np.tile(self.fid, 3), np.concatenate([self.median, self.median - sigma, self.median + sigma]))
        order = np.argsort(pairs)
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        return pairs[order], at.reshape(3, -1)

    @cached_property
    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """Every enrollment value as a pair, ascending, and the entry each belongs to."""
        entry = np.repeat(np.arange(self.fid.size), self.count)
        pairs = _pairs(self.fid[entry], np.concatenate([p.values for p in self.enroll]))
        # each entry's values already ascend, so a stable sort merges runs
        order = np.argsort(pairs, kind="stable")
        return pairs[order], entry[order]

    def probes(self) -> Iterator[tuple[int, PreparedProfile, np.ndarray, np.ndarray]]:
        """Per probe user: its row, its profile, the enrollment entries whose
        feature it holds, and the index of each of those features in the profile."""
        fids = np.concatenate([self.fid, *(p.fids for p in self.probe)])
        slot = np.zeros(fids.max(initial=-1) + 1, np.int64)
        for row, p in enumerate(self.probe):
            slot[p.fids] = np.arange(1, p.fids.size + 1)
            pick = slot[self.fid]
            slot[p.fids] = 0
            common = pick > 0
            yield row, p, common, pick[common] - 1

    def by_user(self, common: np.ndarray, num: np.ndarray, den: np.ndarray | None = None) -> np.ndarray:
        """Per enrollment user: ``num`` over ``den`` (or 1s), each summed over its ``common`` entries; 0 if none."""
        users = self.user[common]
        total = np.bincount(users, den, len(self.enroll))
        out = np.zeros(len(self.enroll))
        np.divide(np.bincount(users, num, len(self.enroll)), total, out=out, where=total > 0)
        return out


def similarity_from_prepared(roster: Roster, mode: SimilarityMode) -> np.ndarray:
    """Similarity of every probe (rows) against every enrollment (columns)."""
    ascending, (_, low, high) = roster.thresholds
    scores = np.zeros((len(roster.probe), len(roster.enroll)))
    for row, p, common, pick in roster.probes():
        own = roster.probe_pairs[row]
        # probe values strictly inside (low, high); an inverted band gives v < 0, counted as none
        v = _placed(ascending, own, "right")[high[common]] - _placed(ascending, own, "left")[low[common]]
        # 2v <= u is v/u <= 0.5 without rounding, u the probe's value count; k/t + (t-k)/t == 1.0 holds exactly
        published = 2 * v <= p.count[pick]
        scores[row] = roster.by_user(common, published if mode is SimilarityMode.AS_PUBLISHED else ~published)
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


def absolute_from_prepared(roster: Roster, threshold: float) -> np.ndarray:
    """Absolute score of every probe (rows) against every enrollment (columns)."""
    scores = np.zeros((len(roster.probe), len(roster.enroll)))
    for row, p, common, pick in roster.probes():
        scores[row] = roster.by_user(common, _medians_match(roster.median[common], p.median[pick], threshold))
    return scores


def itad_from_prepared(roster: Roster) -> np.ndarray:
    """ITAD score of every probe (rows) against every enrollment (columns).

    A probe value y of a common feature with n enrollment values, c of them
    <= y, contributes c/n when y is at most the enrollment median m and
    1 - c/n above it. Summed over the probe values of one feature, the
    numerators equal the sum over enrollment values x of
    |#{y < x} - #{y <= m}|, an exact integer; each feature adds that sum
    over n, and a pair adds its features in ascending id order.
    """
    ascending, (median, _, _) = roster.thresholds
    values, entry = roster.values
    scores = np.zeros((len(roster.probe), len(roster.enroll)))
    for row, p, common, pick in roster.probes():
        own = roster.probe_pairs[row]
        # per enrollment value x of entry e: #{y < x} - #{y <= median of e}
        gap = _placed(values, own, "right")
        gap -= _placed(ascending, own, "left")[median][entry]
        tail = np.bincount(entry, weights=np.abs(gap, out=gap), minlength=roster.fid.size)
        # bincount adds in entry order: per pair, ascending feature id
        scores[row] = roster.by_user(common, tail[common] / roster.count[common], p.count[pick])
    return scores


def _prepare_pair(enroll: ProfileLike, probe: ProfileLike) -> Roster:
    """A one-user roster on each side, for scoring one pair as a 1x1 matrix."""
    (enroll_run, probe_run), _ = session_runs((enroll, probe))
    return Roster([prepare_profile([enroll_run])], [prepare_profile([probe_run])])


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
    return float(similarity_from_prepared(_prepare_pair(enroll, probe), mode)[0, 0])


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
    return float(absolute_from_prepared(_prepare_pair(enroll, probe), check_threshold(threshold))[0, 0])


def itad_score(enroll: ProfileLike, probe: ProfileLike) -> float:
    """Instance-based tail area density score.

    Every probe value y contributes the tail mass of the enrollment ECDF on
    y's side of the enrollment median; the score is the mean over one flat
    list across all common features, so values from large lists weigh more.
    """
    return float(itad_from_prepared(_prepare_pair(enroll, probe))[0, 0])

