"""Reference checks for the outputs of the benchmark's keydyn commands.

Shares no code with keydyn. It has its own CSV reader, press/release pairing
and unigraph/digraph/word-hold extraction, and brute-force Similarity
(corrected mode), Absolute and ITAD scores written from the definitions with
plain loops and ``statistics``, plus fusion and rank-k. Each ``check_*``
function returns ``(failures, notes)``: failure messages (empty means the
outputs are correct) and informational lines.
"""

from __future__ import annotations

import json
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

HEADER = "user_id,platform,session_id,key,action,time_ms"
MULTI_CHAR_KEYS = {"SPACE", "ENTER", "TAB", "BACKSPACE", "DELETE", "SHIFT", "CTRL", "ALT", "META"}
BASE = ("sim", "abs", "itad")
FUSED = ("fmean", "fmedian", "fmin", "fmax")
SCORERS = BASE + FUSED
THRESHOLD = 1.5
TOL = 1e-12
K_MAX = 5
PAPER_GATE = 0.90
SAMPLED_CELLS = 24  # score-wide cells recomputed per run, 4 of them on the diagonal
SAMPLED_PROFILES = 40  # extract-wide profiles compared per run


# -- corpus ---------------------------------------------------------------------


@dataclass
class Session:
    events: list = field(default_factory=list)  # (time_ms, key, action) in file order
    pairs: list = field(default_factory=list)  # (key, press, release) by press time


def read_corpus(path: Path) -> dict[tuple[str, str, int], Session]:
    """Parse the canonical CSV strictly; the benchmark's inputs are all well formed."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    sessions: dict[tuple[str, str, int], Session] = {}
    for line in lines[1:]:
        if not line:
            continue
        user, platform, sid, key, action, time_ms = line.split(",")
        if len(key) == 1:
            key = key.lower()
        elif key not in MULTI_CHAR_KEYS:
            raise ValueError(f"{path}: key label {key!r} is outside the reference's alphabet")
        if action not in ("P", "R"):
            raise ValueError(f"{path}: action {action!r}")
        sessions.setdefault((user, platform, int(sid)), Session()).events.append((float(time_ms), key, action))
    for session in sessions.values():
        session.events.sort(key=lambda e: e[0])  # stable: equal times keep file order
        pending: dict[str, float] = {}
        for time_ms, key, action in session.events:
            # a press of a held key is auto-repeat; a release with no press is dropped
            if action == "P":
                pending.setdefault(key, time_ms)
            elif key in pending:
                session.pairs.append((key, pending.pop(key), time_ms))
        session.pairs.sort(key=lambda p: p[1])
    return sessions


def features(pairs: list) -> dict[str, list[float]]:
    """U:key hold times, D:a|b press(next) - release(prev), W:word first press to last release."""
    out: dict[str, list[float]] = {}
    for key, press, release in pairs:
        out.setdefault(f"U:{key}", []).append(release - press)
    for (k1, _, r1), (k2, p2, _) in zip(pairs, pairs[1:]):
        out.setdefault(f"D:{k1}|{k2}", []).append(p2 - r1)
    word: list = []
    for pair in pairs + [None]:
        if pair is not None and len(pair[0]) == 1 and not pair[0].isspace():
            word.append(pair)
            continue
        if word:
            out.setdefault("W:" + "".join(p[0] for p in word), []).append(word[-1][2] - word[0][1])
            word = []
    return out


def merged_profile(corpus, user: str, cells: list[tuple[str, int]], cache: dict) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for platform, sid in cells:
        key = (user, platform, sid)
        if key not in cache:
            cache[key] = features(corpus[key].pairs)
        for name, values in cache[key].items():
            merged.setdefault(name, []).extend(values)
    return merged


# -- scorers ----------------------------------------------------------------------


def similarity(a: dict, b: dict) -> float:
    """Corrected mode: share of common features with more than half of B strictly in A's band."""
    common = [f for f in a if f in b]
    if not common:
        return 0.0
    counted = 0
    for f in common:
        mid = statistics.median(a[f])
        sigma = statistics.stdev(a[f]) if len(a[f]) >= 2 else a[f][0] / 4
        inside = 0
        for y in b[f]:
            if mid - sigma < y < mid + sigma:
                inside += 1
        if inside / len(b[f]) > 0.5:
            counted += 1
    return counted / len(common)


def absolute(a: dict, b: dict) -> float:
    common = [f for f in a if f in b]
    if not common:
        return 0.0
    matches = 0
    for f in common:
        ma, mb = statistics.median(a[f]), statistics.median(b[f])
        if (ma > 0 and mb > 0) or (ma < 0 and mb < 0):
            if max(abs(ma), abs(mb)) / min(abs(ma), abs(mb)) <= THRESHOLD:
                matches += 1
        elif ma == 0 and mb == 0:
            matches += 1
    return matches / len(common)


def itad(a: dict, b: dict) -> float:
    common = sorted(f for f in a if f in b)
    if not common:
        return 0.0
    total = 0.0
    count = 0
    for f in common:
        x = a[f]
        mid = statistics.median(x)
        for y in b[f]:
            p = sum(1 for v in x if v <= y) / len(x)
            total += p if y <= mid else 1.0 - p
            count += 1
    return total / count


def fuse(scores: tuple[float, float, float]) -> dict[str, float]:
    s = sorted(scores)
    return {"fmean": min(1.0, max(0.0, (s[0] + s[1] + s[2]) / 3)), "fmedian": s[1], "fmin": s[0], "fmax": s[2]}


def score_all(enroll: dict, probe: dict) -> dict[str, float]:
    base = {"sim": similarity(enroll, probe), "abs": absolute(enroll, probe), "itad": itad(enroll, probe)}
    return {**base, **fuse((base["sim"], base["abs"], base["itad"]))}


def rank_hits(row: list[float], i: int, k: int) -> bool:
    """Genuine column i is in the top k; ties go to the lower roster index."""
    better = sum(1 for v in row if v > row[i])
    tied_before = sum(1 for v in row[:i] if v == row[i])
    return better + tied_before < k


# -- property checks ------------------------------------------------------------------


def report_properties(report: dict, n_scenarios: int) -> list[str]:
    fails = []
    rows = report["results"]
    users = {s["name"]: s["n_users"] for s in report["scenarios"]}
    want = n_scenarios * len(SCORERS) * K_MAX
    if len(rows) != want:
        fails.append(f"report.json holds {len(rows)} rows, expected {want}")
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for r in rows:
        n = users[r["scenario"]]
        acc = r["accuracy"]
        if not (0.0 <= acc <= 1.0 and acc == round(acc * n) / n):
            fails.append(f"accuracy {acc!r} of {r['scenario']}/{r['scorer']}/k={r['k']} is not a multiple of 1/{n}")
        series.setdefault((r["scenario"], r["scorer"]), []).append((r["k"], acc))
    for (scenario, scorer), points in series.items():
        accs = [acc for _, acc in sorted(points)]
        if any(b < a for a, b in zip(accs, accs[1:])):
            fails.append(f"accuracy of {scenario}/{scorer} decreases in k: {accs}")
    same = [s["name"] for s in report["scenarios"] if s["kind"] == "same"]
    for scorer in ("itad", "fmean"):
        rank1 = [r["accuracy"] for r in rows if r["scenario"] in same and r["scorer"] == scorer and r["k"] == 1]
        if not rank1 or statistics.fmean(rank1) < PAPER_GATE:
            fails.append(f"mean same-platform rank-1 of {scorer} is {rank1} (gate {PAPER_GATE})")
    return fails


def matrix_properties(matrices: dict[str, list[list[float]]]) -> list[str]:
    """Every cell finite, in [0, 1], fmin <= fmedian, fmean <= fmax, and each fused
    cell equal to the fusion of the three base cells."""
    fails = []
    for label, m in matrices.items():
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                    fails.append(f"{label}[{i}][{j}] = {v!r} is not a finite score in [0, 1]")
    n = len(matrices["sim"])
    for i in range(n):
        for j in range(n):
            lo, hi = matrices["fmin"][i][j], matrices["fmax"][i][j]
            if not (lo <= matrices["fmedian"][i][j] <= hi and lo <= matrices["fmean"][i][j] <= hi):
                fails.append(f"fusion order broken at [{i}][{j}]")
            want = fuse(tuple(matrices[b][i][j] for b in BASE))
            for label in FUSED:
                if not abs(matrices[label][i][j] - want[label]) <= TOL:
                    fails.append(f"{label}[{i}][{j}] = {matrices[label][i][j]!r} is not the fusion of the base cells")
    return fails


# -- per-workload checks ---------------------------------------------------------------


def _roster(corpus, cells: list[tuple[str, int]]) -> list[str]:
    users = sorted({u for u, _, _ in corpus})
    return [u for u in users if all((u, p, s) in corpus for p, s in cells)]


def check_evaluate(corpus_path: Path, out_dir: Path, stdout: str, seed: int) -> tuple[list[str], list[str]]:
    """Properties of report.json, plus the whole same:T scenario recomputed and its
    rank-1..5 rows for all seven scorers compared exactly."""
    corpus = read_corpus(corpus_path)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    platforms = sorted({p for _, p, _ in corpus})
    n_scenarios = len(platforms) ** 2 + len(platforms) * (len(platforms) - 1) * (len(platforms) - 2) // 2
    fails = report_properties(report, n_scenarios)
    events = sum(len(s.events) for s in corpus.values())
    if report["dataset"].get("events") != events:
        fails.append(f"report counts {report['dataset'].get('events')} events, the corpus holds {events}")

    enroll_cells, probe_cells = [("T", 1), ("T", 2), ("T", 3)], [("T", 4), ("T", 5), ("T", 6)]
    roster = _roster(corpus, enroll_cells + probe_cells)
    cache: dict = {}
    enroll = [merged_profile(corpus, u, enroll_cells, cache) for u in roster]
    probe = [merged_profile(corpus, u, probe_cells, cache) for u in roster]
    m = {label: [[0.0] * len(roster) for _ in roster] for label in SCORERS}
    for i, b in enumerate(probe):
        for j, a in enumerate(enroll):
            for label, v in score_all(a, b).items():
                m[label][i][j] = v
    got = {(r["scorer"], r["k"]): r["accuracy"] for r in report["results"] if r["scenario"] == "T"}
    near = 0
    for label in SCORERS:
        for i, row in enumerate(m[label]):
            near += sum(1 for j, v in enumerate(row) if j != i and abs(v - row[i]) <= TOL)
        for k in range(1, K_MAX + 1):
            want = sum(rank_hits(row, i, k) for i, row in enumerate(m[label])) / len(roster)
            if got.get((label, k)) != want:
                fails.append(f"T/{label}/k={k}: report {got.get((label, k))!r}, reference {want!r}")
    return fails, [f"reference: scenario T recomputed, {len(roster)} users x 7 scorers; ties within {TOL}: {near}"]


def check_score(corpus_path: Path, out_dir: Path, stdout: str, seed: int) -> tuple[list[str], list[str]]:
    """Properties of every cross:F:I matrix, plus a seeded sample of cells recomputed
    for all seven scorers within 1e-12."""
    corpus = read_corpus(corpus_path)
    sessions = [("F", s) for s in range(1, 7)], [("I", s) for s in range(1, 7)]
    roster = _roster(corpus, sessions[0] + sessions[1])
    matrices = {}
    fails = []
    for label in SCORERS:
        doc = json.loads((out_dir / f"F-I_{label}.json").read_text(encoding="utf-8"))
        if doc["roster"] != roster:
            fails.append(f"{label}: roster differs from the corpus's eligible users")
        matrices[label] = doc["values"]
    if fails:
        return fails, []
    fails += matrix_properties(matrices)
    rng = random.Random(seed)
    picks = [(i, i) for i in rng.sample(range(len(roster)), 4)]
    picks += [(rng.randrange(len(roster)), rng.randrange(len(roster))) for _ in range(SAMPLED_CELLS - len(picks))]
    cache: dict = {}
    worst = 0.0
    for i, j in picks:
        enroll = merged_profile(corpus, roster[j], sessions[0], cache)
        probe = merged_profile(corpus, roster[i], sessions[1], cache)
        for label, want in score_all(enroll, probe).items():
            diff = abs(matrices[label][i][j] - want)
            worst = max(worst, diff)
            if not diff <= TOL:
                fails.append(f"{label}[{i}][{j}] = {matrices[label][i][j]!r}, reference {want!r}")
    return fails, [f"reference: {len(picks)} cells x 7 scorers recomputed, max |diff| {worst:.3g}"]


def check_extract(corpus_path: Path, out_dir: Path, stdout: str, seed: int) -> tuple[list[str], list[str]]:
    """One profile per session, every value present, a seeded sample of profiles equal
    to the reference, and the printed totals equal to the reference's counts."""
    corpus = read_corpus(corpus_path)
    fails = []
    names = {f"{u}_{p}_s{s}.json": (u, p, s) for u, p, s in corpus}
    files = {path.name for path in out_dir.glob("*.json")}
    if files != set(names):
        fails.append(f"{len(files)} profile files for {len(names)} sessions ({len(files ^ set(names))} differ)")
        return fails, []
    want_values = sum(sum(len(v) for v in features(s.pairs).values()) for s in corpus.values())
    docs = {name: json.loads((out_dir / name).read_text(encoding="utf-8")) for name in sorted(files)}
    got_values = sum(len(v) for doc in docs.values() for v in doc["features"].values())
    if got_values != want_values:
        fails.append(f"profiles hold {got_values} values, reference {want_values}")
    sample = min(SAMPLED_PROFILES, len(names))
    for name in random.Random(seed).sample(sorted(names), sample):
        user, platform, sid = names[name]
        profile = features(corpus[names[name]].pairs)
        want = {"user": user, "platforms": [platform], "sessions": [sid], "features": profile}
        if docs[name] != want:
            fails.append(f"profile {name} differs from the reference")

    keystrokes: dict[str, int] = {}
    for (_, platform, _), s in corpus.items():
        keystrokes[platform] = keystrokes.get(platform, 0) + len(s.pairs)
    events = sum(len(s.events) for s in corpus.values())
    users = len({u for u, _, _ in corpus})
    printed = re.search(r"users: (\d+)\s+sessions: (\d+)\s+events: (\d+)", stdout)
    if not printed or tuple(map(int, printed.groups())) != (users, len(corpus), events):
        fails.append(f"printed totals {printed and printed.groups()} != reference {(users, len(corpus), events)}")
    per_platform = "  ".join(f"{p}={n}" for p, n in sorted(keystrokes.items()))
    if f"keystrokes: {sum(keystrokes.values())}  ({per_platform})" not in stdout:
        fails.append(f"printed keystrokes differ from reference {sum(keystrokes.values())} ({per_platform})")
    return fails, [f"reference: {sample} profiles compared, {want_values} values, {events} events"]


CHECKS = {"evaluate": check_evaluate, "score": check_score, "extract": check_extract}
