from __future__ import annotations

import json

import pytest

from keydyn import cli, features
from keydyn.cli import load_config_file, main
from keydyn.ingest import CSV_HEADER


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


def test_report_missing_dataset_is_data_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["evaluate", str(corpus_dir), "--out", str(out), "--scorers", "itad", "--scenarios", "same"]) == 0
    doc = json.loads((out / "report.json").read_text())
    del doc["dataset"]
    (out / "report.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(out / "report.json")]) == 2
    assert "error [MALFORMED_REPORT]" in capsys.readouterr().err


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


def test_config_parser_types(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "# comment\n\njobs = 4\nthreshold = 1.5\nstrict = false\nname = \"quoted\"\nbare = value\n"
        "noted = \"abc\" # note\nplain = abc # note\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "jobs": 4, "threshold": 1.5, "strict": False, "name": "quoted", "bare": "value",
        "noted": "abc", "plain": "abc",
    }


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
