"""Command-line interface: extract | score | evaluate | synth | report.

Global flags: ``--config`` (key = value file), ``--jobs``, ``--seed``.
Command-line values win over config-file values, which win over defaults.
Exit codes: 0 success, 1 usage error, 2 data/IO error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from . import evaluation, matrix, synth
from .errors import KeydynError
from .features import ALL_KINDS, Kind, profile_to_json, session_features
from .ingest import Corpus, ParseResult, pair_events, read_corpus, serialize_corpus
from .verifiers import SimilarityMode


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Parse a key = value config file (quoted strings, ints, floats, bools)."""
    values: dict[str, Any] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{line_no}: expected key = value, got {line!r}")
        values[key.strip()] = _parse_scalar(raw.strip())
    return values


def _parse_scalar(raw: str) -> Any:
    if raw.startswith(('"', "'")) and raw.endswith(raw[0]) and len(raw) >= 2:
        return raw[1:-1]
    raw = raw.split("#", 1)[0].strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _pick(cli_value: Any, config: dict[str, Any], key: str, default: Any) -> Any:
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


def _csv_tuple(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    return tuple(value)


def _parse_kinds(value: Any) -> tuple[Kind, ...]:
    try:
        return tuple(Kind(v) for v in _csv_tuple(value))
    except ValueError as exc:
        raise UsageError(f"bad feature kind: {exc}") from None


def _parse_formats(value: Any, allowed: tuple[str, ...]) -> tuple[str, ...]:
    formats = _csv_tuple(value)
    unknown = [f for f in formats if f not in allowed]
    if unknown or not formats:
        raise UsageError(f"bad --formats {list(formats)}; choose from {list(allowed)}")
    return formats


def _parse_mode(value: Any) -> SimilarityMode:
    try:
        return SimilarityMode(str(value))
    except ValueError:
        raise UsageError(
            f"bad similarity mode {value!r}; choose from "
            f"{[m.value for m in SimilarityMode]}"
        ) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="keydyn", description="Keystroke-dynamics verification toolkit")
    parser.add_argument("--config", help="key = value config file supplying option defaults")
    parser.add_argument(
        "--jobs", type=int, help="accepted for compatibility, must be >= 1; scoring runs in one process"
    )
    parser.add_argument("--seed", type=int, help="seed for synthetic generation (default 0)")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("extract", help="parse logs and write per-session profile JSON documents")
    p.add_argument("inputs", nargs="+", help="CSV log file(s) or directories")
    p.add_argument("--out", help="output directory for profile documents")
    p.add_argument("--kinds", help="feature kinds to extract, e.g. U,D,W (default all)")

    p = sub.add_parser("score", help="build score matrices for one scenario")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--scenario", help="same:<P> | cross:<P1>:<P2> | combined:<P1>,<P2>:<P3>")
    p.add_argument("--out", help="output directory for matrix files")
    p.add_argument("--scorers", help="comma list from sim,abs,itad,fmean,fmedian,fmin,fmax")
    p.add_argument("--similarity-mode", dest="similarity_mode", help="published | corrected")
    p.add_argument("--threshold", type=float, help="absolute-verifier ratio threshold (default 1.5)")
    p.add_argument("--kinds")
    p.add_argument("--formats", help="comma list from csv,json (default both)")

    p = sub.add_parser("evaluate", help="run the full scenario benchmark and write reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="output directory for report files")
    p.add_argument("--scorers")
    p.add_argument("--k-max", dest="k_max", type=int, help="report ranks 1..k (default 5)")
    p.add_argument("--similarity-mode", dest="similarity_mode")
    p.add_argument("--threshold", type=float)
    p.add_argument("--scenarios", help="comma list from same,cross,combined (default all)")
    p.add_argument("--kinds")
    p.add_argument("--formats")

    p = sub.add_parser("synth", help="generate a synthetic corpus in canonical CSV")
    p.add_argument("--out-dir", dest="out_dir", help="directory for corpus.csv")
    p.add_argument("--users", type=int, help="number of synthetic users (default 26)")
    p.add_argument("--separation", type=float, help="inter-user spread multiplier (default 1.0)")
    p.add_argument("--platforms", help="comma list of platform labels (default F,I,T)")
    p.add_argument("--sessions", type=int, help="sessions per platform (default 6)")

    p = sub.add_parser("report", help="render an evaluation report")
    p.add_argument("report", help="report.json produced by evaluate")
    p.add_argument("--format", choices=("table", "csv"), default="table")

    return parser


def _require(value: Any, flag: str) -> Any:
    if value is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def _print_warnings(summary: ParseResult) -> None:
    for warning in summary.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _corpus_stats(corpus: Corpus, per_platform: Counter[str]) -> dict[str, Any]:
    """Corpus totals; ``per_platform`` holds the paired keystrokes of each platform."""
    return {
        "users": len(corpus.roster),
        "sessions": len(corpus.sessions),
        "events": sum(len(log.events) for log in corpus.sessions.values()),
        "keystrokes": sum(per_platform.values()),
        "per_platform": per_platform,
    }


def cmd_extract(args: argparse.Namespace, config: dict[str, Any]) -> int:
    out_dir = Path(_require(_pick(args.out, config, "out", None), "--out"))
    kinds = _parse_kinds(_pick(args.kinds, config, "kinds", None) or [k.value for k in ALL_KINDS])
    corpus, summary = read_corpus(args.inputs, strict=False)
    _print_warnings(summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    keystrokes: Counter[str] = Counter()
    for key in sorted(corpus.sessions):
        log = corpus.sessions[key]
        pairs = pair_events(log).pairs
        keystrokes[log.platform] += len(pairs)
        profile = session_features(log, kinds, pairs)
        name = f"{log.user_id}_{log.platform}_s{log.session_id}.json"
        (out_dir / name).write_text(profile_to_json(profile), encoding="utf-8")
    stats = _corpus_stats(corpus, keystrokes)
    print(f"profiles written: {len(corpus.sessions)} -> {out_dir}")
    print(f"users: {stats['users']}  sessions: {stats['sessions']}  events: {stats['events']}")
    platform_bits = "  ".join(f"{p}={n}" for p, n in sorted(stats["per_platform"].items()))
    print(f"keystrokes: {stats['keystrokes']}  ({platform_bits})")
    return 0


def _parse_scenario_text(text: str) -> evaluation.Scenario:
    parts = text.split(":")
    try:
        if parts[0] == "same" and len(parts) == 2:
            return evaluation.same_platform_scenario(parts[1])
        if parts[0] == "cross" and len(parts) == 3:
            return evaluation.cross_platform_scenario(parts[1], parts[2])
        if parts[0] == "combined" and len(parts) == 3:
            return evaluation.combined_cross_scenario(_csv_tuple(parts[1]), parts[2])
    except (KeydynError, ValueError) as exc:
        raise UsageError(f"bad --scenario {text!r}: {exc}") from None
    raise UsageError(f"bad --scenario {text!r}; expected same:<P>, cross:<P1>:<P2>, or combined:<P1>,<P2>:<P3>")


def cmd_score(args: argparse.Namespace, config: dict[str, Any]) -> int:
    out_dir = Path(_require(_pick(args.out, config, "out", None), "--out"))
    scenario = _parse_scenario_text(_require(_pick(args.scenario, config, "scenario", None), "--scenario"))
    scorers = _csv_tuple(_pick(args.scorers, config, "scorers", ",".join(evaluation.ALL_SCORERS)))
    mode = _parse_mode(_pick(args.similarity_mode, config, "similarity_mode", SimilarityMode.AS_PUBLISHED.value))
    kinds = _parse_kinds(_pick(args.kinds, config, "kinds", None) or [k.value for k in ALL_KINDS])
    formats = _parse_formats(_pick(args.formats, config, "formats", "csv,json"), ("csv", "json"))

    try:
        threshold = float(_pick(args.threshold, config, "threshold", 1.5))
        # validates the scorer labels and the threshold before any input is read
        evaluation.BenchmarkConfig(scorers=scorers, similarity_mode=mode, threshold=threshold)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    corpus, summary = read_corpus(args.inputs, strict=False)
    _print_warnings(summary)
    data = evaluation.build_scenario_data(corpus, scenario, kinds=kinds)
    matrices = matrix.score_matrices(
        data.enroll, data.probe, scorers, mode=mode, threshold=threshold, scenario=scenario.name
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    for label in scorers:
        m = matrices[label]
        stem = f"{scenario.name}_{label}"
        if "csv" in formats:
            (out_dir / f"{stem}.csv").write_text(matrix.matrix_to_csv(m), encoding="utf-8")
        if "json" in formats:
            (out_dir / f"{stem}.json").write_text(matrix.matrix_to_json(m), encoding="utf-8")
    if data.excluded:
        print(f"excluded users (missing sessions): {', '.join(data.excluded)}", file=sys.stderr)
    print(f"matrices written: {len(scorers)} x {len(data.enroll)} users -> {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace, config: dict[str, Any]) -> int:
    out_dir = Path(_require(_pick(args.out, config, "out", None), "--out"))
    try:
        bench = evaluation.BenchmarkConfig(
            scorers=_csv_tuple(_pick(args.scorers, config, "scorers", ",".join(evaluation.ALL_SCORERS))),
            similarity_mode=_parse_mode(
                _pick(args.similarity_mode, config, "similarity_mode", SimilarityMode.AS_PUBLISHED.value)
            ),
            threshold=float(_pick(args.threshold, config, "threshold", 1.5)),
            k_max=int(_pick(args.k_max, config, "k_max", 5)),
            scenario_kinds=_csv_tuple(_pick(args.scenarios, config, "scenarios", "same,cross,combined")),
            kinds=_parse_kinds(_pick(args.kinds, config, "kinds", None) or [k.value for k in ALL_KINDS]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    formats = _parse_formats(_pick(args.formats, config, "formats", "json,csv"), ("json", "csv"))

    corpus, summary = read_corpus(args.inputs, strict=False)
    _print_warnings(summary)
    report = evaluation.run_benchmark(corpus, bench)

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(evaluation.report_to_json(report), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        path = out_dir / "report.csv"
        path.write_text(evaluation.report_to_csv(report), encoding="utf-8")
        written.append(path)
    print(f"scenarios: {len(report.scenarios)}  result rows: {len(report.rows)}")
    for path in written:
        print(f"report written: {path}")
    return 0


def cmd_synth(args: argparse.Namespace, config: dict[str, Any], seed: int) -> int:
    out_dir = Path(_require(_pick(args.out_dir, config, "out_dir", None), "--out-dir"))
    try:
        spec = synth.SynthSpec(
            seed=seed,
            n_users=int(_pick(args.users, config, "users", 26)),
            platforms=_csv_tuple(_pick(args.platforms, config, "platforms", "F,I,T")),
            sessions_per_platform=int(_pick(args.sessions, config, "sessions", 6)),
            separation=float(_pick(args.separation, config, "separation", 1.0)),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    corpus = synth.generate_corpus(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.csv"
    path.write_text(serialize_corpus(corpus), encoding="utf-8")
    keystrokes: Counter[str] = Counter()
    for log in corpus.sessions.values():
        keystrokes[log.platform] += len(pair_events(log).pairs)
    stats = _corpus_stats(corpus, keystrokes)
    print(f"corpus written: {path}")
    print(
        f"users: {stats['users']}  sessions: {stats['sessions']}  "
        f"events: {stats['events']}  keystrokes: {stats['keystrokes']}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = evaluation.report_from_json(Path(args.report).read_text(encoding="utf-8"))
    if args.format == "csv":
        sys.stdout.write(evaluation.report_to_csv(report))
        return 0
    ks = sorted({row.k for row in report.rows})
    cells: dict[tuple[str, str], dict[int, float]] = {}
    kinds: dict[str, str] = {}
    for row in report.rows:
        cells.setdefault((row.scenario, row.scorer), {})[row.k] = row.accuracy
        kinds[row.scenario] = row.kind
    name_w = max([len("scenario")] + [len(s) for s, _ in cells])
    scorer_w = max([len("scorer")] + [len(sc) for _, sc in cells])
    header = f"{'scenario':<{name_w}}  {'kind':<8}  {'scorer':<{scorer_w}}  " + "  ".join(
        f"k={k}".ljust(6) for k in ks
    )
    print(header)
    print("-" * len(header))
    for (scenario, scorer), accs in sorted(cells.items()):
        values = "  ".join(
            (f"{accs[k]:.3f}" if k in accs else "-").ljust(6) for k in ks
        )
        print(f"{scenario:<{name_w}}  {kinds[scenario]:<8}  {scorer:<{scorer_w}}  {values}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config_file(args.config) if args.config else {}
        jobs = int(_pick(args.jobs, config, "jobs", 1))
        seed = int(_pick(args.seed, config, "seed", 0))
        if jobs < 1:
            raise UsageError("--jobs must be >= 1")

        if args.command == "extract":
            return cmd_extract(args, config)
        if args.command == "score":
            return cmd_score(args, config)
        if args.command == "evaluate":
            return cmd_evaluate(args, config)
        if args.command == "synth":
            return cmd_synth(args, config, seed)
        if args.command == "report":
            return cmd_report(args)
        raise UsageError("a command is required (extract | score | evaluate | synth | report)")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeydynError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
