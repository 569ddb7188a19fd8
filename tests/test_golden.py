"""Golden reports: ``keydyn evaluate`` output bytes pinned for a small fixed corpus.

The files under ``tests/golden/`` were written by

    keydyn --seed 7 synth --out-dir CORPUS --users 6 --separation 1.0
    keydyn evaluate CORPUS --out OUT --similarity-mode {published,corrected}

Any change to scoring, fusion, ranking or report formatting that moves a
byte shows up here; re-pin only after showing that every rank-k accuracy is
unchanged or that the change is intended.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from keydyn.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["--seed", "7", "synth", "--out-dir", str(out), "--users", "6", "--separation", "1.0"]) == 0
    return out


@pytest.mark.parametrize("mode", ["published", "corrected"])
def test_evaluate_reports_match_golden(golden_corpus, tmp_path, mode):
    out = tmp_path / mode
    assert main(["evaluate", str(golden_corpus), "--out", str(out), "--similarity-mode", mode]) == 0
    for name in ("report.json", "report.csv"):
        stem, ext = name.split(".")
        want = (GOLDEN / f"{stem}_{mode}.{ext}").read_bytes()
        assert (out / name).read_bytes() == want, f"{name} ({mode}) differs from the golden copy"
