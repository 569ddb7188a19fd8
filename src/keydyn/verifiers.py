"""Statistical keystroke verifiers: Similarity, Absolute, and ITAD.

All three compare an enrollment pattern A against a probe pattern B over
their common feature set and return a match score in [0, 1]. A session's
features enter as a map from feature name (``U:a``, ``D:a|b``, ``W:ab``) to
a non-empty sequence of durations, as :mod:`keydyn.features` produces them.

Scoring runs on a columnar form. Similarity and ITAD compare (feature id,
value) pairs exactly, as complex numbers that numpy orders by id, then
value. :func:`session_runs` turns each session map into its run: its pairs,
over one vocabulary of the maps' names, sorted once, each run a slice of one
table. :func:`prepare_profile` merges the runs of one side into sorted
per-feature values with their medians; a profile's :func:`profile_pairs`
are a run again, so two prepared sides merge into a third. A
:class:`Roster` holds what the kernels share: the enrollment side's columns
and each probe user's pairs. Each ``*_from_prepared`` kernel sorts the
pairs only it reads, scores a whole probe x enrollment matrix from the
roster and loops over probe users only.
:func:`keydyn.matrix.score_matrices` builds the roster and calls the kernels.
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

    The runs are consecutive slices of one table, which grows in place as
    the maps are read, so the runs are one block of memory and no small
    array is left behind when they die. A run kept alive keeps the whole
    table alive.
    """
    ids: dict[str, int] = {}
    # every name read draws a number and a new name keeps it, so first-sight
    # ids are unique and rising, with gaps, at the cost of one C-level pass
    numbers = itertools.count()
    table = np.empty(0, np.complex128)  # the pairs of every map read; from bounds[-1] on, spare capacity
    bounds = [0]
    for part, source in zip(maps, itertools.repeat("") if sources is None else sources):
        where = f" in {source}" if source else ""
        lists = list(part.values())
        counts = np.fromiter(map(len, lists), np.int64, len(lists))
        if not counts.all():
            name = list(part)[counts.argmin()]
            raise EmptyListError(f"empty value list for feature {name}{where}")
        fids = np.fromiter(map(ids.setdefault, part, numbers), np.int64, len(lists))
        start, end = bounds[-1], bounds[-1] + int(counts.sum())
        values = np.fromiter(itertools.chain.from_iterable(lists), np.float64, end - start)
        out = ~(np.abs(values) <= MAX_MAGNITUDE)  # NaN is out too
        if out.any():
            first = out.argmax()
            name = list(part)[np.searchsorted(np.cumsum(counts), first, side="right")]
            value = float(values[first])
            raise ValueOutOfRangeError(f"value {value!r} of feature {name}{where} is not within +/-{MAX_MAGNITUDE:g} ms")
        if end > table.size:
            # resize zero-fills the new tail, so the table grows by a quarter, not twofold
            table.resize(end + end // 4 + 4096, refcheck=False)  # no view of the table exists while it grows
        table.real[start:end], table.imag[start:end] = np.repeat(fids, counts), values
        bounds.append(end)
    table.resize(bounds[-1], refcheck=False)
    names = sorted(ids)
    renumber = np.empty(next(numbers), np.int64)
    renumber[[ids[name] for name in names]] = np.arange(len(names))
    runs = [table[a:b] for a, b in itertools.pairwise(bounds)]
    for run in runs:  # in place, so no second copy of the runs is ever made
        run.real = renumber[run.real.astype(np.int64)]
        run.sort(kind="stable")
    return runs, names


def prepare_profile(runs: Sequence[np.ndarray]) -> PreparedProfile:
    """Merge ``runs`` into one profile: each feature's pooled values, ascending, and their median.

    ``runs`` are ascending pairs of one side of one user, from one
    :func:`session_runs` vocabulary shared by every profile it is scored
    against: session runs, or the :func:`profile_pairs` of profiles
    prepared before. The order of the runs changes no score, and tied
    pairs keep run order, so merging the pairs of two profiles gives the
    bytes that merging their session runs in the same order gives.
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


def profile_pairs(profile: PreparedProfile) -> np.ndarray:
    """The pairs of ``profile``, ascending as it holds them: a run that :func:`prepare_profile` merges."""
    return _pairs(np.repeat(profile.fids, profile.count), profile.values)


def _placed(ascending: np.ndarray, own: np.ndarray, side: str) -> np.ndarray:
    """For each of the ``ascending`` pairs, how many ``own`` pairs lie below it
    (``side="right"``) or at or below it (``side="left"``), as exact float64 counts.

    ``own`` must ascend too, as every probe's pairs in :attr:`Roster.probe_pairs`
    do: then its positions in ``ascending`` ascend, and the counts are filled
    run by run between them. A descending step gives a negative run and raises.
    """
    at = np.searchsorted(ascending, own, side=side)
    runs = np.diff(at, prepend=0, append=ascending.size)
    if runs.min() < 0:
        raise ValueError("own pairs must ascend")
    return np.repeat(np.arange(own.size + 1, dtype=np.float64), runs)


def _ascending(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` in ascending order, and the position of each in it."""
    order = np.argsort(pairs)
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    return pairs[order], at


class Roster:
    """One scenario's profiles, in the columns all three verifiers read.

    Enrollment (user, feature) entries run user-major, ascending in feature id
    within each user. :attr:`probe_pairs`, which Similarity and ITAD read, is
    laid out on first use, so Absolute never lays it out; each kernel sorts
    the enrollment pairs only it reads.
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
        return [profile_pairs(p) for p in self.probe]

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
    """Similarity of every probe (rows) against every enrollment (columns).

    Per common feature f: the band is median(A[f]) +/- std(A[f]) (value/4
    when A[f] has a single sample), and v/u is the fraction of the probe
    values B[f] strictly inside it. AS_PUBLISHED counts f when v/u <= 0.5,
    CORRECTED when v/u > 0.5; a pair scores its counted features over its
    common features.
    """
    # every entry's band edges, median - std and median + std, as pairs in one ascending array
    values = np.concatenate([p.values for p in roster.enroll])
    sigma = _run_std(values, np.cumsum(roster.count) - roster.count, roster.count)
    edges = _pairs(np.tile(roster.fid, 2), np.concatenate([roster.median - sigma, roster.median + sigma]))
    ascending, at = _ascending(edges)
    low, high = at.reshape(2, -1)
    del values, edges  # freed before the probe loop, which reads only the sorted edges
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
    """Element-wise agreement of two median arrays, by the rule of :func:`absolute_from_prepared`."""
    abs_a, abs_b = np.abs(med_a), np.abs(med_b)
    same_sign = ((med_a > 0) & (med_b > 0)) | ((med_a < 0) & (med_b < 0))
    with np.errstate(all="ignore"):  # 0/0, x/0 and overflow only reach masked-out cells
        within = np.maximum(abs_a, abs_b) / np.minimum(abs_a, abs_b) <= threshold
    return (same_sign & within) | ((med_a == 0) & (med_b == 0))


def absolute_from_prepared(roster: Roster, threshold: float) -> np.ndarray:
    """Absolute score of every probe (rows) against every enrollment (columns).

    A pair scores the fraction of its common features whose medians agree:
    the larger-to-smaller ratio is at most ``threshold``. Medians of
    opposite sign never agree; a zero median agrees only with another exact
    zero; negative medians compare by magnitude.
    """
    scores = np.zeros((len(roster.probe), len(roster.enroll)))
    for row, p, common, pick in roster.probes():
        scores[row] = roster.by_user(common, _medians_match(roster.median[common], p.median[pick], threshold))
    return scores


def itad_from_prepared(roster: Roster) -> np.ndarray:
    """ITAD score of every probe (rows) against every enrollment (columns).

    A pair scores the mean over one flat list of its probe values across all
    common features, so features with more values weigh more. A probe value
    y of a common feature with n enrollment values, c of them <= y, adds the
    enrollment ECDF's tail mass on y's side of the enrollment median m: c/n
    when y <= m and 1 - c/n above it. Summed over the probe values of one
    feature, the numerators equal the sum over enrollment values x of
    |#{y < x} - #{y <= m}|, an exact integer; each feature adds that sum
    over n, and a pair adds its features in ascending id order.

    The difference is at most 0 exactly when x <= m, so with s = -1 for x
    at or below m and +1 above it, the sum is sum(s * #{y < x}) minus
    #{y <= m} * sum(s). Each probe then needs one float column of counts,
    scaled in place by the signs, and no gather over the enrollment values;
    every term is an exact integer, so the sum is the same to the bit.
    """
    ascending, median = _ascending(_pairs(roster.fid, roster.median))
    pairs = _pairs(np.repeat(roster.fid, roster.count), np.concatenate([p.values for p in roster.enroll]))
    # each entry's values already ascend, so a stable sort merges runs; the pairs sort in place,
    # in the order that the same stable sort gives their entries
    order = np.argsort(pairs, kind="stable")
    entry = np.searchsorted(np.cumsum(roster.count), order, side="right")
    del order  # freed before the probe loop, which reads only the sorted pairs
    pairs.sort(kind="stable")
    sign = np.where(pairs.imag > roster.median[entry], np.int8(1), np.int8(-1))  # s of each value
    net = np.bincount(entry, sign, roster.fid.size)  # sum(s) per entry
    scores = np.zeros((len(roster.probe), len(roster.enroll)))
    for row, p, common, pick in roster.probes():
        own = roster.probe_pairs[row]
        # per enrollment value x of entry e: s * #{y < x}, summed per entry
        signed = _placed(pairs, own, "right")
        signed *= sign
        # bincount adds in entry order: per pair, ascending feature id
        tail = np.bincount(entry, signed, roster.fid.size) - _placed(ascending, own, "left")[median] * net
        del signed  # freed before the next probe's column is made
        scores[row] = roster.by_user(common, tail[common] / roster.count[common], p.count[pick])
    return scores
