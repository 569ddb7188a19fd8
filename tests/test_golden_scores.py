"""Golden score matrices: ``keydyn score`` output bytes pinned for the golden corpus.

The report goldens pin rank-k accuracies only, which can stay equal while
scores move. The files under ``tests/golden/score_<mode>/`` were written by

    keydyn --seed 7 synth --out-dir CORPUS --users 6 --separation 1.0
    keydyn score CORPUS --out OUT --scenario {same:F,combined:F,I:T} --similarity-mode {published,corrected}

Re-pin only after showing that the change of scores is intended.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from keydyn.cli import main
from keydyn.evaluation import ALL_SCORERS

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["--seed", "7", "synth", "--out-dir", str(out), "--users", "6", "--separation", "1.0"]) == 0
    return out


@pytest.mark.parametrize("mode", ["published", "corrected"])
@pytest.mark.parametrize("scenario, stem", [("same:F", "F"), ("combined:F,I:T", "FI-T")])
def test_score_matrices_match_golden(golden_corpus, tmp_path, mode, scenario, stem):
    out = tmp_path / "out"
    assert main(["score", str(golden_corpus), "--out", str(out), "--scenario", scenario, "--similarity-mode", mode]) == 0
    names = [f"{stem}_{scorer}.{ext}" for scorer in ALL_SCORERS for ext in ("csv", "json")]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        want = (GOLDEN / f"score_{mode}" / name).read_bytes()
        assert (out / name).read_bytes() == want, f"{name} ({mode}) differs from the golden copy"
