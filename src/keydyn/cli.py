"""Command-line interface: extract | score | evaluate | synth | report.

Global flags: ``--config`` (key = value file), ``--jobs``, ``--seed``.
Command-line values win over config-file values, which win over defaults.
Exit codes: 0 success, 1 usage error, 2 data/IO error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import evaluation, matrix, synth
from .errors import KeydynError, OutputNameError
from .features import ALL_KINDS, extract_batches, profile_to_json
from .ingest import Corpus, read_corpus, split_lines, write_corpus
from .verifiers import DEFAULT_ABSOLUTE_THRESHOLD, SimilarityMode, check_choices


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # command name -> its parser, set by build_parser

    def error(self, message: str) -> None:  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a key = value config file into text values; each option's own type reads them."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # one leading byte-order mark is ignored
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(split_lines(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{line_no}: expected key = value, got {line!r}")
        text = _config_text(raw.strip())
        if text is None:
            raise UsageError(f"{path}:{line_no}: a quoted value must close its quote, with only a comment after it")
        values[key.strip()] = text
    return values


def _config_text(raw: str) -> str | None:
    """A value's text: unquoted, without a trailing ``#`` comment; None for a malformed quoted value."""
    if raw[:1] in ('"', "'"):
        end = raw.find(raw[0], 1)
        if end > 0 and raw[end + 1 :].lstrip()[:1] in ("", "#"):  # a comment may follow the quotes
            return raw[1:end]
        return None
    return raw.split("#", 1)[0].strip()


def _options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [action for action in parser._actions if action.option_strings and action.dest != "help"]


def _apply_config(parser: _Parser, args: argparse.Namespace, config: dict[str, str]) -> None:
    """Fill each option the command line left unset from the config file.

    A key must name an option of some command or a global flag, and its value
    must pass that option's type and choices, as on the command line; a value
    the type rejects is reported with the type's reason. Keys of another
    command are accepted and left unused, so one file can serve every command.
    """
    known = {action.dest for p in (parser, *parser.commands.values()) for action in _options(p)}
    for key in config:
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
    command = parser.commands.get(args.command)
    for action in _options(parser) + (_options(command) if command else []):
        if action.dest in config and getattr(args, action.dest) is None:
            raw = config[action.dest]
            try:
                value = action.type(raw) if action.type else raw
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {action.dest!r}: bad value {raw!r}: {exc}") from None
            if action.choices is not None and value not in action.choices:
                raise UsageError(f"config key {action.dest!r}: bad value {raw!r}; choose from {list(action.choices)}")
            setattr(args, action.dest, value)


def _csv_tuple(value: str) -> tuple[str, ...]:
    """The items of a comma list as typed, space included; a blank item is skipped."""
    return tuple(part for part in value.split(",") if part.strip())


def _choice_list(allowed: Sequence[Any], what: str) -> Callable[[str], tuple[Any, ...]]:
    """An argparse type: a comma list of ``allowed`` values, each written as its text (an enum member as its value)."""
    by_text = {getattr(a, "value", a): a for a in allowed}

    def parse(text: str) -> tuple[Any, ...]:
        try:
            return tuple(by_text[name] for name in check_choices(_csv_tuple(text), tuple(by_text), what))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _formats(*allowed: str) -> Callable[[str], tuple[str, ...]]:
    """An argparse type: output formats from a comma list; each message starts ``bad --formats [...]``."""

    def formats(text: str) -> tuple[str, ...]:
        listed = _csv_tuple(text)
        try:
            return check_choices(listed, allowed, "format")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad --formats {list(listed)}: {exc}") from None

    return formats


def _given(**options: Any) -> dict[str, Any]:
    """The options that are set, so the class they are passed to owns every default."""
    return {name: value for name, value in options.items() if value is not None}


_KINDS = _choice_list(ALL_KINDS, "feature kind")


def _add_scoring_options(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """The options ``score`` and ``evaluate`` share; ``formats`` are the command's outputs, all written by default."""
    scorers = matrix.ALL_SCORERS
    p.add_argument("--scorers", type=_choice_list(scorers, "scorer"), help=f"comma list from {','.join(scorers)}")
    p.add_argument("--similarity-mode", dest="similarity_mode", type=SimilarityMode, help="published | corrected")
    p.add_argument(
        "--threshold", type=float, help=f"absolute-verifier ratio threshold (default {DEFAULT_ABSOLUTE_THRESHOLD})"
    )
    p.add_argument("--kinds", type=_KINDS, help="feature kinds to score, e.g. U,D,W (default all)")
    p.add_argument("--formats", type=_formats(*formats), help=f"comma list from {','.join(formats)} (default both)")


def build_parser() -> _Parser:
    parser = _Parser(prog="keydyn", description="Keystroke-dynamics verification toolkit")
    parser.add_argument("--config", help="key = value config file supplying option defaults")
    parser.add_argument(
        "--jobs", type=int, help="accepted for compatibility, must be >= 1; scoring runs in one process"
    )
    parser.add_argument("--seed", type=int, help=f"seed for synthetic generation (default {synth.SynthSpec.seed})")
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices

    p = sub.add_parser("extract", help="parse logs and write per-session profile JSON documents")
    p.add_argument("inputs", nargs="+", help="CSV log file(s) or directories")
    p.add_argument("--out", help="output directory for profile documents")
    p.add_argument("--kinds", type=_KINDS, help="feature kinds to extract, e.g. U,D,W (default all)")

    p = sub.add_parser("score", help="build score matrices for one scenario")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--scenario", help="same:<P> | cross:<P1>:<P2> | combined:<P1>,<P2>:<P3>")
    p.add_argument("--out", help="output directory for matrix files")
    _add_scoring_options(p, ("csv", "json"))

    p = sub.add_parser("evaluate", help="run the full scenario benchmark and write reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="output directory for report files")
    k_max = evaluation.BenchmarkConfig.k_max
    p.add_argument("--k-max", dest="k_max", type=int, help=f"report ranks 1..k (default {k_max})")
    scenario_kinds = _choice_list(evaluation.SCENARIO_KINDS, "scenario kind")
    p.add_argument("--scenarios", type=scenario_kinds, help="comma list from same,cross,combined (default all)")
    _add_scoring_options(p, ("json", "csv"))

    p = sub.add_parser("synth", help="generate a synthetic corpus in canonical CSV")
    p.add_argument("--out-dir", dest="out_dir", help="directory for corpus.csv")
    spec = synth.SynthSpec
    p.add_argument("--users", type=int, help=f"number of synthetic users (default {spec.n_users})")
    p.add_argument(
        "--separation",
        type=float,
        help=f"inter-user spread multiplier, 0 to {synth.MAX_SEPARATION} (default {spec.separation})",
    )
    p.add_argument(
        "--platforms", type=_csv_tuple, help=f"comma list of platform labels (default {','.join(spec.platforms)})"
    )
    p.add_argument("--sessions", type=int, help=f"sessions per platform (default {spec.sessions_per_platform})")

    p = sub.add_parser("report", help="render an evaluation report")
    p.add_argument("report", help="report.json produced by evaluate")
    p.add_argument("--format", choices=("table", "csv"), help="table | csv (default table)")

    return parser


def _require(value: Any, flag: str) -> Any:
    if value is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def _read_corpus(inputs: Sequence[str]) -> Corpus:
    """The corpus ``inputs`` hold, once the parse's warnings are printed.

    The :class:`~keydyn.ingest.ParseResult` dies here, so its list of sessions, each a view
    of the parse's shared columns, keeps none of them alive.
    """
    corpus, summary = read_corpus(inputs)
    for warning in summary.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return corpus


_NAME_MAX = 255  # bytes in one file name on Linux file systems


def _output_name_fault(names: Iterable[tuple[str, str]]) -> str | None:
    """Why the (file name, owner) outputs cannot share one directory, or None.

    Each name must be a plain file name, with no path separator or NUL and
    not ``.`` or ``..``, at most ``_NAME_MAX`` bytes in UTF-8, and no two
    outputs may share one.
    """
    owners: dict[str, str] = {}
    for name, owner in names:
        if name in (".", "..") or "\0" in name or os.path.basename(name) != name:
            return f"{owner}: output name {name!r} is not a plain file name"
        if len(name.encode("utf-8", "surrogatepass")) > _NAME_MAX:
            return f"{owner}: output name {name!r} is longer than {_NAME_MAX} bytes"
        if name in owners:
            return f"{owners[name]} and {owner} share the output name {name!r}"
        owners[name] = owner
    return None


def cmd_extract(args: argparse.Namespace) -> int:
    out_dir = Path(_require(args.out, "--out"))
    kinds = args.kinds or ALL_KINDS
    corpus = _read_corpus(args.inputs)
    names = {(u, p, s): f"{u}_{p}_s{s}.json" for u, p, s in sorted(corpus.sessions)}
    if fault := _output_name_fault((name, f"session {key}") for key, name in names.items()):
        raise OutputNameError(fault)
    out_dir.mkdir(parents=True, exist_ok=True)
    keystrokes: Counter[str] = Counter()
    for logs, pairing, features in extract_batches(map(corpus.sessions.__getitem__, names), kinds):
        bounds = pairing.pairs.bounds.tolist()
        for session, log in enumerate(logs):
            keystrokes[log.platform] += bounds[session + 1] - bounds[session]
            (out_dir / names[log.session_key]).write_text(profile_to_json(log, features, session), encoding="utf-8")
    stats = corpus.summary()
    print(f"profiles written: {len(corpus.sessions)} -> {out_dir}")
    print(f"users: {stats['users']}  sessions: {stats['sessions']}  events: {stats['events']}")
    platform_bits = "  ".join(f"{p}={n}" for p, n in sorted(keystrokes.items()))
    print(f"keystrokes: {sum(keystrokes.values())}  ({platform_bits})")
    return 0


def _parse_scenario_text(text: str) -> evaluation.Scenario:
    """The scenario ``text`` names; it starts each matrix file's name, so even the longest must be a plain file name."""
    parts = text.split(":")
    try:
        if parts[0] == "same" and len(parts) == 2:
            scenario = evaluation.same_platform_scenario(parts[1])
        elif parts[0] == "cross" and len(parts) == 3:
            scenario = evaluation.cross_platform_scenario(parts[1], parts[2])
        elif parts[0] == "combined" and len(parts) == 3:
            scenario = evaluation.combined_cross_scenario(_csv_tuple(parts[1]), parts[2])
        else:
            raise UsageError(
                f"bad --scenario {text!r}; expected same:<P>, cross:<P1>:<P2>, or combined:<P1>,<P2>:<P3>"
            )
    except (KeydynError, ValueError) as exc:
        raise UsageError(f"bad --scenario {text!r}: {exc}") from None
    longest = f"{scenario.name}_{max(evaluation.ALL_SCORERS, key=len)}.json"
    if fault := _output_name_fault([(scenario.name, "scenario name"), (longest, "scenario name")]):
        raise UsageError(f"bad --scenario {text!r}: {fault}")
    return scenario


def _benchmark_config(args: argparse.Namespace, **options: Any) -> evaluation.BenchmarkConfig:
    """The scoring options of ``score`` and ``evaluate``; the config class owns the defaults."""
    try:
        return evaluation.BenchmarkConfig(
            **_given(
                scorers=args.scorers,
                similarity_mode=args.similarity_mode,
                threshold=args.threshold,
                kinds=args.kinds,
                **options,
            )
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_score(args: argparse.Namespace) -> int:
    out_dir = Path(_require(args.out, "--out"))
    scenario = _parse_scenario_text(_require(args.scenario, "--scenario"))
    # checks the threshold before any input is read
    bench = _benchmark_config(args)
    formats = args.formats or ("csv", "json")

    # no reference to the corpus is kept here, so scoring lets it go
    [(data, matrices)] = evaluation.score_scenarios(_read_corpus(args.inputs), [scenario], bench)

    out_dir.mkdir(parents=True, exist_ok=True)
    render = {"csv": matrix.matrix_to_csv, "json": matrix.matrix_to_json}
    for label in bench.scorers:
        for fmt in formats:
            (out_dir / f"{scenario.name}_{label}.{fmt}").write_text(render[fmt](matrices[label]), encoding="utf-8")
    if data.excluded:
        print(f"excluded users (missing sessions): {', '.join(data.excluded)}", file=sys.stderr)
    print(f"matrices written: {len(bench.scorers)} x {len(data.enroll)} users -> {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    out_dir = Path(_require(args.out, "--out"))
    bench = _benchmark_config(args, k_max=args.k_max, scenario_kinds=args.scenarios)
    formats = args.formats or ("json", "csv")

    # no reference to the corpus is kept here, so scoring lets it go
    report = evaluation.run_benchmark(_read_corpus(args.inputs), bench)

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt, render in (("json", evaluation.report_to_json), ("csv", evaluation.report_to_csv)):
        if fmt in formats:
            written.append(out_dir / f"report.{fmt}")
            written[-1].write_text(render(report), encoding="utf-8")
    print(f"scenarios: {len(report.scenarios)}  result rows: {len(report.rows)}")
    for path in written:
        print(f"report written: {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    try:
        spec = synth.SynthSpec(
            **_given(
                seed=args.seed,
                n_users=args.users,
                platforms=args.platforms,
                sessions_per_platform=args.sessions,
                separation=args.separation,
            )
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    corpus = synth.generate_corpus(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.csv"
    with open(path, "w", encoding="utf-8") as out:
        write_corpus(corpus, out)
    stats = corpus.summary()
    print(f"corpus written: {path}")
    # every generated keystroke is one press and one release, and they pair
    print(
        f"users: {stats['users']}  sessions: {stats['sessions']}  "
        f"events: {stats['events']}  keystrokes: {stats['events'] // 2}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = evaluation.report_from_json(Path(args.report).read_bytes())
    if args.format == "csv":
        sys.stdout.write(evaluation.report_to_csv(report))
        return 0
    ks = sorted({row.k for row in report.rows})
    cells: dict[tuple[str, str], dict[int, float]] = {}
    for row in report.rows:
        cells.setdefault((row.scenario, row.scorer), {})[row.k] = row.accuracy
    kinds = {s.name: s.kind for s in report.scenarios}
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


COMMANDS = {"extract": cmd_extract, "score": cmd_score, "evaluate": cmd_evaluate, "synth": cmd_synth, "report": cmd_report}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args, load_config_file(args.config) if args.config else {})
        if args.jobs is not None and args.jobs < 1:
            raise UsageError("--jobs must be >= 1")

        if args.command is None:
            raise UsageError(f"a command is required ({' | '.join(COMMANDS)})")
        return COMMANDS[args.command](args)
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
