from __future__ import annotations

import json
import subprocess
import sys

import pytest

from keydyn import cli, features
from keydyn.cli import load_config_file, main
from keydyn.ingest import CSV_HEADER, pair_events, read_corpus, serialize_corpus
from keydyn.matrix import ALL_SCORERS
from keydyn.synth import SynthSpec, generate_corpus
from keydyn.verifiers import session_runs

from test_cli_fuzz import INVALID, PARSER, VALID
from test_ingest import child_env


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["--seed", "1", "synth", "--out-dir", str(out), "--users", "4", "--separation", "2.0"])
    assert code == 0
    return out


def test_synth_writes_canonical_csv(corpus_dir, capsys):
    text = (corpus_dir / "corpus.csv").read_text()
    assert text.startswith(CSV_HEADER)
    assert text.endswith("\n")


def test_synth_writes_the_bytes_serialize_corpus_makes(corpus_dir):
    # the command writes a session at a time, through the writer serialize_corpus uses
    corpus = generate_corpus(SynthSpec(seed=1, n_users=4, separation=2.0))
    assert (corpus_dir / "corpus.csv").read_bytes() == serialize_corpus(corpus).encode("utf-8")


def test_synth_keystroke_total_is_what_the_corpus_pairs_to(tmp_path, capsys):
    # separation 4.0 rolls over far enough that a key is struck again while it is still held
    args = ["--seed", "5", "synth", "--out-dir", str(tmp_path), "--users", "3", "--platforms", "F", "--separation", "4.0"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    corpus, _ = read_corpus([tmp_path / "corpus.csv"])
    assert f"keystrokes: {sum(len(pair_events(log).pairs) for log in corpus)}\n" in printed


def test_score_and_evaluate_do_not_depend_on_the_hash_seed(corpus_dir, tmp_path):
    # feature names, sides and scenarios pass through dicts and sets on their way to the outputs
    commands = {
        "score": ["score", str(corpus_dir / "corpus.csv"), "--scenario", "combined:F,I:T"],
        "evaluate": ["evaluate", str(corpus_dir / "corpus.csv")],
    }
    written = []
    for seed in ("1", "2"):
        for name, args in commands.items():
            command = [sys.executable, "-m", "keydyn.cli", *args, "--out", str(tmp_path / seed / name)]
            subprocess.run(command, env=child_env(PYTHONHASHSEED=seed), capture_output=True, check=True)
        files = sorted(path for path in (tmp_path / seed).rglob("*") if path.is_file())
        written.append({path.relative_to(tmp_path / seed): path.read_bytes() for path in files})
    assert len(written[0]) == 2 * len(ALL_SCORERS) + 2
    assert written[0] == written[1]


@pytest.mark.parametrize("platforms", ["F,F", ",", " "])
def test_synth_empty_or_repeated_platforms_is_usage_error(tmp_path, capsys, platforms):
    out = tmp_path / "x"
    assert main(["synth", "--out-dir", str(out), "--users", "2", "--platforms", platforms]) == 1
    assert "platforms must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("separation", ["nan", "inf", "-inf", "1e308", "10.5"])
def test_synth_separation_out_of_range_is_usage_error(tmp_path, capsys, separation):
    out = tmp_path / "x"
    assert main(["synth", "--out-dir", str(out), "--users", "2", f"--separation={separation}"]) == 1
    assert "separation must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("platforms", ["F\nX,I", "F,I\rX", "F\x1cX", "F,\udcff"])
def test_synth_platform_label_the_csv_cannot_carry_is_usage_error(tmp_path, capsys, platforms):
    out = tmp_path / "x"
    assert main(["synth", "--out-dir", str(out), "--users", "2", "--platforms", platforms]) == 1
    assert "platform labels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["synth", "--users", "2", "--platforms", " F , I", "--out-dir"], "platform labels must be non-empty"),
        (["score", "--scenario", "combined: F , I:T", "--out"], "platform labels must be non-empty"),
        (["score", "--scenario", "same:F", "--kinds", "U, D", "--out"], "unknown feature kinds [' D']"),
    ],
    ids=["synth-platforms", "score-scenario", "score-kinds"],
)
def test_comma_list_items_are_taken_as_typed(corpus_dir, tmp_path, capsys, command, message):
    # the space around an item is kept, so " F " is no label and " D" no kind; the input exists, so only that fails
    out = tmp_path / "x"
    inputs = [str(corpus_dir)] if command[0] == "score" else []
    assert main([*command, str(out), *inputs]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_deterministic_given_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "9", "synth", "--out-dir", str(a), "--users", "2"]) == 0
    assert main(["--seed", "9", "synth", "--out-dir", str(b), "--users", "2"]) == 0
    assert (a / "corpus.csv").read_bytes() == (b / "corpus.csv").read_bytes()
    c = tmp_path / "c"
    assert main(["--seed", "10", "synth", "--out-dir", str(c), "--users", "2"]) == 0
    assert (a / "corpus.csv").read_bytes() != (c / "corpus.csv").read_bytes()


def test_extract_writes_profiles_and_summary(corpus_dir, tmp_path, capsys):
    out = tmp_path / "profiles"
    code = main(["extract", str(corpus_dir / "corpus.csv"), "--out", str(out)])
    assert code == 0
    files = sorted(out.glob("*.json"))
    assert len(files) == 4 * 3 * 6  # one profile per (user, platform, session)
    doc = json.loads(files[0].read_text())
    assert set(doc) == {"user", "platforms", "sessions", "features"}
    printed = capsys.readouterr().out
    assert "users: 4" in printed
    assert "keystrokes:" in printed


def test_extract_keeps_both_digraphs_that_share_a_name(tmp_path, capsys):
    # keys 1, 2|3, 1|2, 3: the digraphs (1, 2|3) and (1|2, 3) are both named D:1|2|3
    corpus = tmp_path / "bars.csv"
    strokes = [("1", 0, 50), ("2|3", 60, 100), ("1|2", 130, 170), ("3", 185, 220)]
    corpus.write_text(CSV_HEADER + "".join(f"\nu1,F,1,{k},P,{p}\nu1,F,1,{k},R,{r}" for k, p, r in strokes) + "\n")
    out = tmp_path / "profiles"
    assert main(["extract", str(corpus), "--out", str(out)]) == 0
    doc = json.loads((out / "u1_F_s1.json").read_text())
    assert doc["features"]["D:1|2|3"] == [10.0, 15.0]
    assert doc["features"]["D:2|3|1|2"] == [30.0]
    # scoring sees the one feature, with both values
    [log], _ = read_corpus([corpus])
    [run], names = session_runs([features.session_features(log)])
    assert names.count("D:1|2|3") == 1
    assert run.imag[run.real == names.index("D:1|2|3")].tolist() == [10.0, 15.0]


def test_extract_missing_input_is_io_error(tmp_path, capsys):
    code = main(["extract", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error [IO]" in capsys.readouterr().err


def test_extract_warns_on_malformed_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\nu1,F,1,a,P,0\nu1,F,1,a,R,junk\nu1,F,1,b,P,5\nu1,F,1,b,R,60\n")
    out = tmp_path / "profiles"
    code = main(["extract", str(bad), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "row 3" in err
    assert len(list(out.glob("*.json"))) == 1


def test_extract_invalid_utf8_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(CSV_HEADER.encode() + b"\nu1,F,1,a,P,0\nu1,F,1,\xff,R,60\n")
    code = main(["extract", str(bad), "--out", str(tmp_path / "profiles")])
    assert code == 2
    err = capsys.readouterr().err
    assert "MALFORMED_ROW" in err and ":3:" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "rows, fault",
    [
        # a user id with a path in it wrote evil_F_s1.json beside --out
        (
            ["../evil,F,1,a,P,0", "../evil,F,1,a,R,60"],
            "session ('../evil', 'F', 1): output name '../evil_F_s1.json' is not a plain file name",
        ),
        (["a\0b,F,1,a,P,0", "a\0b,F,1,a,R,60"], "output name 'a\\x00b_F_s1.json' is not a plain file name"),
        # two sessions named one file: the second overwrote the first, and the summary counted both
        (
            ["u1_F,x,1,a,P,0", "u1_F,x,1,a,R,60", "u1,F_x,1,a,P,0", "u1,F_x,1,a,R,60", "u2,F,1,a,P,0", "u2,F,1,a,R,9"],
            "session ('u1', 'F_x', 1) and session ('u1_F', 'x', 1) share the output name 'u1_F_x_s1.json'",
        ),
        # the profile of session ('a', 'F', 1) was written, then the long name failed with errno 36
        (
            ["a,F,1,a,P,0", "a,F,1,a,R,9", "u" * 300 + ",F,1,a,P,0", "u" * 300 + ",F,1,a,R,60"],
            f"output name '{'u' * 300}_F_s1.json' is longer than 255 bytes",
        ),
        (["é" * 125 + ",F,1,a,P,0", "é" * 125 + ",F,1,a,R,60"], "_F_s1.json' is longer than 255 bytes"),
    ],
    ids=["path", "nul", "shared", "long", "long in UTF-8"],
)
def test_extract_output_name_not_a_plain_unique_file_is_data_error(tmp_path, capsys, rows, fault):
    corpus = tmp_path / "in" / "corpus.csv"
    corpus.parent.mkdir()
    corpus.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    out = tmp_path / "in" / "profiles"
    assert main(["extract", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [BAD_OUTPUT_NAME]: ") and fault in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["corpus.csv", "in"]  # nothing written, no --out


def test_extract_pairs_each_session_once(corpus_dir, tmp_path, monkeypatch, capsys):
    paired = []

    def counting(real):
        return lambda log: paired.append(log.session_key) or real(log)

    monkeypatch.setattr(cli, "pair_events", counting(cli.pair_events))
    monkeypatch.setattr(features, "pair_events", counting(features.pair_events))
    assert main(["extract", str(corpus_dir / "corpus.csv"), "--out", str(tmp_path / "profiles")]) == 0
    assert len(paired) == len(set(paired)) == 4 * 3 * 6
    assert "keystrokes:" in capsys.readouterr().out


def test_evaluate_default_grid(corpus_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["evaluate", str(corpus_dir), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["scenarios"]) == 12
    assert len(report["results"]) == 12 * 7 * 4  # 4 users caps k at 4
    csv_lines = (out / "report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "scenario,kind,scorer,k,accuracy"
    assert len(csv_lines) == 1 + len(report["results"])


def test_evaluate_scorer_and_k_filters(corpus_dir, tmp_path):
    out = tmp_path / "r"
    code = main(["evaluate", str(corpus_dir), "--out", str(out), "--scorers", "itad", "--k-max", "3"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    scorers = {row["scorer"] for row in report["results"]}
    assert scorers == {"itad"}
    assert {row["k"] for row in report["results"]} == {1, 2, 3}


def test_evaluate_unknown_scorer_is_usage_error(corpus_dir, tmp_path, capsys):
    code = main(["evaluate", str(corpus_dir), "--out", str(tmp_path / "x"), "--scorers", "nope"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_evaluate_k_max_below_one_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--k-max", "0"]) == 1
    assert "k_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_unknown_format_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--formats", "json,xml"]) == 1
    assert "bad --formats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenarios", ["sam", "same,crosss"])
def test_evaluate_unknown_scenario_kind_is_usage_error(corpus_dir, tmp_path, capsys, scenarios):
    out = tmp_path / "x"
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--scenarios", scenarios]) == 1
    assert "unknown scenario kinds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("platforms, scenarios", [("F,I", "combined"), ("F", "cross,combined")])
def test_evaluate_scenario_kinds_the_platforms_form_none_of_is_data_error(tmp_path, capsys, platforms, scenarios):
    assert main(["synth", "--out-dir", str(tmp_path), "--users", "2", "--platforms", platforms]) == 0
    capsys.readouterr()
    out = tmp_path / "x"
    assert main(["evaluate", str(tmp_path / "corpus.csv"), "--out", str(out), "--scenarios", scenarios]) == 2
    err = capsys.readouterr().err
    assert "error [NO_ELIGIBLE_USERS]" in err
    assert f"{scenarios.split(',')}" in err and f"{platforms.split(',')}" in err
    assert not out.exists()


def test_score_scenario_matrices(corpus_dir, tmp_path):
    out = tmp_path / "mats"
    code = main(
        ["score", str(corpus_dir), "--scenario", "same:F", "--out", str(out),
         "--scorers", "itad,fmean", "--similarity-mode", "corrected"]
    )
    assert code == 0
    csv_text = (out / "F_itad.csv").read_text()
    assert csv_text.splitlines()[0] == "probe,u1,u2,u3,u4"
    doc = json.loads((out / "F_fmean.json").read_text())
    assert doc["scorer"] == "fmean"
    assert doc["scenario"] == "F"
    assert len(doc["values"]) == 4


def test_score_cross_and_combined_specs(corpus_dir, tmp_path):
    assert main(["score", str(corpus_dir), "--scenario", "cross:F:T", "--out", str(tmp_path / "a"),
                 "--scorers", "abs"]) == 0
    assert main(["score", str(corpus_dir), "--scenario", "combined:F,I:T", "--out", str(tmp_path / "b"),
                 "--scorers", "abs"]) == 0
    assert (tmp_path / "a" / "F-T_abs.csv").exists()
    assert (tmp_path / "b" / "FI-T_abs.csv").exists()


def test_score_names_the_users_it_excludes_and_leaves_them_out(corpus_dir, tmp_path, capsys):
    corpus = tmp_path / "gap.csv"
    rows = (corpus_dir / "corpus.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    corpus.write_text("".join(row for row in rows if not row.startswith("u2,F,5,")), encoding="utf-8")
    out = tmp_path / "mats"
    assert main(["score", str(corpus), "--scenario", "same:F", "--out", str(out), "--formats", "json"]) == 0
    captured = capsys.readouterr()
    assert "excluded users (missing sessions): u2\n" in captured.err
    assert "x 3 users" in captured.out
    rosters = [json.loads(path.read_text(encoding="utf-8"))["roster"] for path in sorted(out.iterdir())]
    assert len(rosters) == len(ALL_SCORERS) and all(roster == ["u1", "u3", "u4"] for roster in rosters)


SCORE = ["score", "--scenario", "same:F"]


@pytest.mark.parametrize("command", [["extract"], SCORE, ["evaluate"]])
@pytest.mark.parametrize("kinds", [",", " ", "config"])
def test_empty_kind_list_is_usage_error(corpus_dir, tmp_path, capsys, command, kinds):
    out = tmp_path / "x"
    args = [*command, str(corpus_dir), "--out", str(out)]
    if kinds == "config":
        cfg = tmp_path / "keydyn.cfg"
        cfg.write_text('kinds = ","\n')
        args = ["--config", str(cfg), *args]
    else:
        args += ["--kinds", kinds]
    assert main(args) == 1
    assert "at least one feature kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["extract"], SCORE, ["evaluate"]])
@pytest.mark.parametrize("kinds", ["U,U", "W,D,W", "config"])
def test_repeated_kind_is_usage_error(corpus_dir, tmp_path, capsys, command, kinds):
    out = tmp_path / "x"
    args = [*command, str(corpus_dir), "--out", str(out)]
    if kinds == "config":
        cfg = tmp_path / "keydyn.cfg"
        cfg.write_text("kinds = U,D,U\n")
        args = ["--config", str(cfg), *args]
    else:
        args += ["--kinds", kinds]
    assert main(args) == 1
    assert "repeated feature kinds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, scorers", [(["evaluate"], "sim,sim"), (SCORE, "itad,abs,itad")])
def test_repeated_scorer_is_usage_error(corpus_dir, tmp_path, capsys, command, scorers):
    out = tmp_path / "x"
    assert main([*command, str(corpus_dir), "--out", str(out), "--scorers", scorers]) == 1
    assert "repeated scorers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        (["evaluate"], "--formats", "json,json", "repeated formats"),
        (["evaluate"], "--formats", "csv,json,csv", "repeated formats"),
        (SCORE, "--formats", "csv,csv", "repeated formats"),
        (["evaluate"], "--scenarios", "same,same", "repeated scenario kinds"),
        (["evaluate"], "--scenarios", "cross,combined,cross", "repeated scenario kinds"),
    ],
)
def test_repeated_format_or_scenario_kind_is_usage_error(corpus_dir, tmp_path, capsys, command, option, value, message):
    out = tmp_path / "x"
    assert main([*command, str(corpus_dir), "--out", str(out), option, value]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_score_bad_scenario_is_usage_error(corpus_dir, tmp_path, capsys):
    assert main(["score", str(corpus_dir), "--scenario", "same:F:T", "--out", str(tmp_path / "x")]) == 1
    assert main(["score", str(corpus_dir), "--scenario", "cross:F:F", "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()


def test_score_threshold_not_above_one_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["score", str(corpus_dir), "--scenario", "same:F", "--out", str(out), "--threshold", "0.5"])
    assert code == 1
    assert "threshold must be > 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [SCORE, ["evaluate"]])
@pytest.mark.parametrize("threshold", ["inf", "1e309", "nan"])
def test_threshold_not_finite_is_usage_error(corpus_dir, tmp_path, capsys, command, threshold):
    # an infinite threshold reached report.json as the non-JSON token Infinity
    out = tmp_path / "x"
    assert main([*command, str(corpus_dir), "--out", str(out), "--threshold", threshold]) == 1
    assert "threshold must be > 1 and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["same:", "same: F", "cross::F", "combined:F,I:", "cross:F:I\nT", "same:\udcff"])
def test_score_scenario_label_the_csv_cannot_carry_is_usage_error(tmp_path, capsys, scenario):
    # rejected before any input is read, so an input that does not exist is never opened
    out = tmp_path / "x"
    assert main(["score", str(tmp_path / "missing.csv"), "--scenario", scenario, "--out", str(out)]) == 1
    assert "platform labels must" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_profile_value_beyond_bound_is_data_error(corpus_dir, tmp_path, capsys):
    # well-formed rows: key q held from 0 to 1.7e308 ms in a session that every F scenario reads;
    # the overflow warning it gave is an error under the test configuration
    corpus = tmp_path / "huge.csv"
    corpus.write_text((corpus_dir / "corpus.csv").read_text() + "u1,F,1,q,P,0\nu1,F,1,q,R,1.7e308\n")
    out = tmp_path / "x"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert "error [VALUE_OUT_OF_RANGE]: value 1.7e+308 of feature" in capsys.readouterr().err
    assert not out.exists()


def test_score_scenario_name_not_a_plain_file_name_is_usage_error(tmp_path, capsys):
    # same:../P wrote P_sim.csv into the parent of --out; rejected before any input is read
    out = tmp_path / "a" / "x"
    assert main(["score", str(tmp_path / "missing.csv"), "--scenario", "same:../P", "--out", str(out)]) == 1
    assert "scenario name: output name '../P' is not a plain file name" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_score_scenario_name_too_long_for_a_matrix_file_is_usage_error(tmp_path, capsys):
    # 250 bytes fit a file name, but same:P..._fmedian.json, the longest file written, does not
    out = tmp_path / "a" / "x"
    assert main(["score", str(tmp_path / "missing.csv"), "--scenario", "same:" + "P" * 250, "--out", str(out)]) == 1
    assert f"scenario name: output name '{'P' * 250}_fmedian.json' is longer than 255 bytes" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_evaluate_scenarios_sharing_a_name_is_data_error(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "in"), "--users", "2", "--platforms", "A-B,C,A,B-C"]) == 0
    out = tmp_path / "x"
    assert main(["evaluate", str(tmp_path / "in"), "--out", str(out)]) == 2
    assert "error [DUPLICATE_SCENARIO]: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["evaluate"], SCORE])
def test_profile_value_beyond_bound_names_feature_and_session(corpus_dir, tmp_path, capsys, command):
    corpus = tmp_path / "huge.csv"
    corpus.write_text((corpus_dir / "corpus.csv").read_text() + "u1,F,1,q,P,0\nu1,F,1,q,R,1.7e308\n")
    out = tmp_path / "x"
    assert main([*command, str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "value 1.7e+308 of feature U:q in session ('u1', 'F', 1) is not within" in err
    assert "FeatureKey" not in err
    assert not out.exists()


def test_score_unknown_format_is_usage_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["score", str(corpus_dir), "--scenario", "same:F", "--out", str(out), "--formats", "xml,jsn"])
    assert code == 1
    assert "bad --formats ['xml', 'jsn']" in capsys.readouterr().err
    assert not out.exists()


def test_report_rendering(corpus_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    main(["evaluate", str(corpus_dir), "--out", str(out), "--scorers", "itad", "--scenarios", "same"])
    capsys.readouterr()
    assert main(["report", str(out / "report.json")]) == 0
    table = capsys.readouterr().out
    assert "scenario" in table and "itad" in table
    assert main(["report", str(out / "report.json"), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("scenario,kind,scorer,k,accuracy")


def test_report_not_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("not json")
    assert main(["report", str(bad)]) == 2
    assert "error [MALFORMED_REPORT]" in capsys.readouterr().err
    bad.write_bytes(b"\xff{}")  # not UTF-8
    assert main(["report", str(bad)]) == 2
    assert "error [MALFORMED_REPORT]" in capsys.readouterr().err


def test_report_missing_dataset_is_data_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--scorers", "itad", "--scenarios", "same"]) == 0
    doc = json.loads((out / "report.json").read_text())
    del doc["dataset"]
    (out / "report.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(out / "report.json")]) == 2
    assert "error [MALFORMED_REPORT]" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_doc(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--scorers", "itad", "--scenarios", "same"]) == 0
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("results", "accuracy", "x"),
        ("results", "accuracy", None),
        ("results", "accuracy", float("nan")),
        ("results", "accuracy", float("inf")),
        pytest.param("results", "accuracy", 10**400, id="results-accuracy-huge"),
        ("results", "accuracy", True),
        ("results", "scenario", 3),
        ("results", "kind", None),
        ("results", "scorer", ["itad"]),
        ("results", "k", 1.0),
        ("results", "k", True),
        ("scenarios", "name", 3),
        ("scenarios", "kind", 1),
        ("scenarios", "n_users", "4"),
        ("scenarios", "n_users", False),
        ("scenarios", "excluded", "u1"),
        ("scenarios", "excluded", [1]),
        # text that one CSV field cannot carry: "F,x\ny" rendered as two lines, the first with an extra field
        ("results", "scenario", "F,x\ny"),
        ("results", "scenario", "F,x"),
        ("results", "kind", "same\r"),
        ("results", "scorer", "it\nad"),
        ("scenarios", "name", "F\u2028x"),
        ("scenarios", "kind", "same,cross"),
        ("scenarios", "excluded", ["u1,u2"]),
        ("scenarios", "excluded", ["u1\n"]),
        # values out of range: "F,same,abs,1,2.5" and "F,same,abs,-3,1.0" were rendered
        ("results", "accuracy", 2.5),
        ("results", "accuracy", -0.5),
        ("results", "k", 0),
        ("results", "k", -3),
        ("scenarios", "n_users", 0),
        ("scenarios", "n_users", -1),
        # results[1] is the first scenario's itad at k=2: a repeated (scenario, scorer, k) row
        ("results", "k", 2),
        ("results", "scenario", "nowhere"),
    ],
)
@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_report_wrong_field_type_is_data_error(report_doc, tmp_path, capsys, section, field, value, fmt):
    doc = json.loads(json.dumps(report_doc))
    doc[section][0][field] = value
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(bad), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "error [MALFORMED_REPORT]" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "edit",
    [
        # each rendered with exit 0 before: "F,cross,itad,1,1.0", "F,same,itad,99,1.0", "F,same,bogus,1,1.0"
        pytest.param(lambda doc: doc["results"][0].update(kind="cross"), id="result-kind-not-its-scenario-kind"),
        pytest.param(lambda doc: doc["results"][0].update(k=99), id="k-above-its-scenario-users"),
        pytest.param(lambda doc: doc["scenarios"].append({**doc["scenarios"][0], "n_users": 3}), id="scenario-twice"),
        pytest.param(lambda doc: doc["scenarios"][0].update(kind="bogus"), id="unknown-scenario-kind"),
        pytest.param(lambda doc: doc["results"][0].update(scorer="bogus"), id="unknown-scorer"),
    ],
)
@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_report_rows_must_agree_with_their_scenario(report_doc, tmp_path, capsys, edit, fmt):
    doc = json.loads(json.dumps(report_doc))
    edit(doc)
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(bad), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert "error [MALFORMED_REPORT]" in captured.err and captured.out == ""

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text('users = 2\nseparation = 0.5\nout_dir = "{}"\nseed = 5\n'.format(tmp_path / "from-config"))
    assert main(["--config", str(cfg), "synth"]) == 0
    assert (tmp_path / "from-config" / "corpus.csv").exists()
    printed = capsys.readouterr().out
    assert "users: 2" in printed
    # command line wins over the config file
    assert main(["--config", str(cfg), "synth", "--out-dir", str(tmp_path / "cli-wins"), "--users", "3"]) == 0
    assert "users: 3" in capsys.readouterr().out


def test_config_reaches_an_option_with_a_default(report_doc, tmp_path, capsys):
    # format = csv was ignored: --format defaulted to table, and only unset options took config values
    report = tmp_path / "report.json"
    report.write_text(json.dumps(report_doc))
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text("format = csv\n")
    capsys.readouterr()
    assert main(["--config", str(cfg), "report", str(report)]) == 0
    assert capsys.readouterr().out.startswith("scenario,kind,scorer,k,accuracy\n")
    # command line wins over the config file
    assert main(["--config", str(cfg), "report", str(report), "--format", "table"]) == 0
    assert capsys.readouterr().out.startswith("scenario  ")


def test_config_value_outside_choices_is_usage_error(report_doc, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(report_doc))
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text("format = xml\n")
    capsys.readouterr()
    assert main(["--config", str(cfg), "report", str(report)]) == 1
    captured = capsys.readouterr()
    assert "usage error: config key 'format': bad value 'xml'; choose from ['table', 'csv']" in captured.err
    assert captured.out == ""


def test_config_parser_types(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "# comment\n\njobs = 4\nthreshold = 1.5\nstrict = false\nname = \"quoted\"\nbare = value\n"
        "noted = \"abc\" # note\nplain = abc # note\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "jobs": "4", "threshold": "1.5", "strict": "false", "name": "quoted", "bare": "value",
        "noted": "abc", "plain": "abc",
    }


@pytest.mark.parametrize("name", ["007", "1_0", "true"])
def test_config_value_keeps_its_text(corpus_dir, tmp_path, monkeypatch, name):
    # a string option takes the value as written, not as a number or bool would print
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(f"out = {name}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "extract", str(corpus_dir / "corpus.csv")]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [name]
    assert len(list((tmp_path / name).glob("*.json"))) == 4 * 3 * 6


@pytest.mark.parametrize("line", ['out = "abc', "out = 'abc # c", 'out = "ab"c'])
def test_config_unclosed_quote_is_usage_error(corpus_dir, tmp_path, monkeypatch, capsys, line):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(line + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(cfg), "extract", str(corpus_dir / "corpus.csv")]) == 1
    assert "must close its quote" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["keydyn.cfg"]


def test_config_quoted_value_keeps_a_line_separator(tmp_path):
    # only LF, CRLF and a lone CR end a config line, as they end a CSV row
    out = tmp_path / "x\u2028y"
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(f'users = 2\nout_dir = "{out}"\n', encoding="utf-8")
    assert main(["--config", str(cfg), "synth"]) == 0
    assert (out / "corpus.csv").exists()


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text('# sizes\nusers 2\nout_dir = "{}"\n'.format(tmp_path / "out"))
    assert main(["--config", str(cfg), "synth"]) == 1
    assert f"usage error: {cfg}:2: expected key = value, got 'users 2'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["keydyn.cfg"]


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_bytes(b'users = 2\nout_dir = "\xff"\n')
    assert main(["--config", str(cfg), "synth"]) == 1
    assert f"usage error: {cfg}: config file is not UTF-8 text" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["keydyn.cfg"]


def test_config_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_bytes('\ufeffjobs = 1\nusers = 2\nout_dir = "{}"\n'.format(tmp_path / "out").encode("utf-8"))
    assert main(["--config", str(cfg), "synth"]) == 0
    assert "users: 2" in capsys.readouterr().out
    # only one, and only at the start of the file
    cfg.write_bytes('jobs = 1\n\ufeffusers = 2\n'.encode("utf-8"))
    assert main(["--config", str(cfg), "synth"]) == 1
    assert r"unknown config key '\ufeffusers'" in capsys.readouterr().err


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text('user = 2\nout_dir = "{}"\n'.format(tmp_path / "out"))
    assert main(["--config", str(cfg), "synth"]) == 1
    assert "unknown config key 'user'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_keys_of_other_commands_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(
        'users = 2\nout_dir = "{}"\nscenario = same:F\nk_max = 3\nformats = json\nkinds = U,D\n'
        .format(tmp_path / "out")
    )
    assert main(["--config", str(cfg), "synth"]) == 0
    assert "users: 2" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["jobs = many", "seed = 1.5", "users = two", "separation = wide"])
def test_config_value_rejected_by_option_type_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text('{}\nout_dir = "{}"\n'.format(line, tmp_path / "out"))
    assert main(["--config", str(cfg), "synth"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _option(dest):
    """The first command with the option ``dest`` (None for a global flag), and that option."""
    for command, parser in [(None, PARSER), *PARSER.commands.items()]:
        for action in cli._options(parser):
            if action.dest == dest:
                return command, action
    raise LookupError(dest)


def _argv(dest, *options):
    """An argv that runs the first command with ``dest``, with ``options`` in the place of that option."""
    command, _ = _option(dest)
    if command is None:
        return [*options, "synth"]
    return [command, *(["x"] if command in ("extract", "score", "evaluate") else []), *options]


@pytest.mark.parametrize(
    "dest, text", [(dest, text) for dest, texts in VALID.items() if _option(dest)[1].type for text in texts]
)
def test_config_value_is_read_as_the_command_line_reads_it(tmp_path, dest, text):
    _, action = _option(dest)
    parser = cli.build_parser()
    from_flag = getattr(parser.parse_args(_argv(dest, f"{action.option_strings[0]}={text}")), dest)
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(f'{dest} = "{text}"\n', encoding="utf-8")
    args = parser.parse_args(["--config", str(cfg), *_argv(dest)])
    cli._apply_config(parser, args, load_config_file(cfg))
    # repr tells a Kind from its letter and 2 from 2.0
    assert repr(getattr(args, dest)) == repr(from_flag)


# the platform list's type only splits it: SynthSpec checks the labels after parsing, on either path
@pytest.mark.parametrize("dest, text", [(dest, text) for dest in ("kinds", "scorers", "formats", "scenarios")
                                        for text in INVALID[dest]])
def test_config_error_gives_the_reason_the_command_line_gives(tmp_path, capsys, dest, text):
    flag = _option(dest)[1].option_strings[0]
    out = tmp_path / "out"
    assert main(_argv(dest, "--out", str(out), f"{flag}={text}")) == 1
    reason = capsys.readouterr().err.removeprefix(f"usage error: argument {flag}: ")
    cfg = tmp_path / "keydyn.cfg"
    cfg.write_text(f"{dest} = {text}\n", encoding="utf-8")
    assert main(["--config", str(cfg), *_argv(dest, "--out", str(out))]) == 1
    assert capsys.readouterr().err == f"usage error: config key {dest!r}: bad value {text!r}: {reason}"
    assert reason.strip() and not out.exists()

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["--jobs", "0", "synth", "--out-dir", "x"]) == 1
    capsys.readouterr()


def test_evaluate_byte_identical_across_jobs(corpus_dir, tmp_path):
    outputs = []
    for name, jobs in (("j1a", "1"), ("j1b", "1"), ("j8", "8")):
        out = tmp_path / name
        code = main(["--jobs", jobs, "evaluate", str(corpus_dir), "--out", str(out),
                     "--scorers", "itad,fmean", "--scenarios", "same"])
        assert code == 0
        outputs.append((out / "report.json").read_bytes() + (out / "report.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
