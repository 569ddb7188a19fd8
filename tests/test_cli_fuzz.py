"""The CLI contract under adversarial argv, derived from ``build_parser()``.

Every command, option and positional comes from the parser, so a new option
is fuzzed without a change here. Each argv holds at most one fault: an
option set to NaN, an infinity, ``1e308``, ``-0``, an empty or repeated list,
non-ASCII text or a platform label the CSV cannot carry; a malformed or
missing input; an unset output target; or a ``--config`` file that is not
UTF-8 or holds bad values. The contract: ``main`` returns 0, 1 or 2 and
raises nothing; a non-zero exit leaves the ``--out``/``--out-dir`` target
absent; a zero exit writes only strict JSON; and on the well-formed corpus
below, which holds every session any drawn scenario names, no command fails
with a data error. ``synth`` is never asked for more than 2 users or
2 sessions, or for a valid separation above 1.
"""

from __future__ import annotations

import itertools
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from keydyn import cli
from keydyn.cli import build_parser, main
from keydyn.ingest import CSV_HEADER

PARSER = build_parser()
PLATFORMS = ("F", "I", "T")

# values each option accepts; synth's sizes stay tiny
VALID = {
    "jobs": ("1", "2"),
    "seed": ("0", "7"),
    "kinds": ("U", "D,W", "U,D,W"),
    "scenario": ("same:F", "cross:F:I", "combined:F,I:T"),
    "scorers": ("sim", "itad,fmean", "abs,sim,fmax", "sim,abs,itad,fmean,fmedian,fmin,fmax"),
    "similarity_mode": ("published", "corrected"),
    "threshold": ("1.5", "2", "1e308"),
    "formats": ("csv", "json", "json,csv"),
    "k_max": ("1", "3"),
    "scenarios": ("same", "cross,combined"),
    "users": ("1", "2"),
    "separation": ("0", "0.5", "1"),
    "platforms": ("F", "F,I", "é,☃"),
    "sessions": ("1", "2"),
}
# values each option must reject, on top of ADVERSARIAL. None names a platform
# the corpus lacks, and none is a synth size above 2 or a separation above 1.
INVALID = {
    "jobs": ("0", "-1", "1e308"),
    "seed": ("-1", "1e308", "2.5"),
    "kinds": ("U,U", "W,D,W", "X"),
    "scenario": (
        "same:", "same: F", "cross::F", "combined:F,I:", "combined: I , F :T", "same:F\n", "cross:F:I\nT", "cross:F:F", "F"
    ),
    "scorers": ("sim,sim", "itad,abs,itad", "nope"),
    "similarity_mode": ("PUBLISHED", "corrected "),
    "threshold": ("1", "0.5", "1e309", "-1e308"),
    "formats": ("json,json", "xml"),
    "k_max": ("0", "-1", "1e308"),
    "scenarios": ("same,same", "sam", "same,crosss"),
    "users": ("0", "-1", "1e308", "2.5"),
    "separation": ("-1", "10.5", "1e308", "-1e308"),
    "platforms": ("F,F", " F", "F\nX,I", "F,I\rX"),
    "sessions": ("0", "-1", "1e308", "2.5"),
}
ADVERSARIAL = ("nan", "inf", "-inf", "-0", "", ",", " ", "é", "☃‮", "\udcff")
TARGETS = ("out", "out_dir")
REQUIRED = ("scenario", "users", "sessions")  # set unless faulted: score needs a scenario, synth stays tiny


def write_corpus(path):
    """Two users typing "the cat" in every session 1..6 of every platform, each at their own pace."""
    rows = [CSV_HEADER]
    for (n, user), platform, session in itertools.product(enumerate(("u1", "u2"), 1), PLATFORMS, range(1, 7)):
        t = 0.0
        for key in ("t", "h", "e", "SPACE", "c", "a", "t", "ENTER"):
            head = f"{user},{platform},{session},{key}"
            rows += [f"{head},P,{t}", f"{head},R,{t + 60 * n + session}"]
            t += 100.0 + 25 * n
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@st.composite
def invocations(draw, command, files):
    """An argv with at most one fault, and whether its only input is the well-formed corpus.

    Unfaulted options are set or not, to a value they accept; those of
    ``REQUIRED`` are always set. A faulted option gets a value it should
    reject, an input list or report path is malformed or missing, the output
    target goes unset (a config file may supply it), and ``--config`` names
    one of the files.
    """
    globals_ = cli._options(PARSER)
    slots = globals_ + [action for action in PARSER.commands[command]._actions if action.dest != "help"]
    fault = draw(st.sampled_from([None, *slots]))
    head, tail, inputs = [], [], []
    for action in slots:
        faulty = action is fault
        flag = action.option_strings[0] if action.option_strings else None
        out = head if action in globals_ else tail
        if action.dest == "inputs":
            inputs = files["inputs"][:1]
            if faulty:
                inputs = draw(st.lists(st.sampled_from(files["inputs"]), min_size=1, max_size=2))
            tail += inputs
        elif action.dest == "report":
            tail.append(draw(st.sampled_from(files["reports"][1:] if faulty else files["reports"][:1])))
        elif action.dest == "config":
            if faulty:
                head.append(f"--config={draw(st.sampled_from(files['configs']))}")
        elif action.dest in TARGETS:
            if not faulty:
                tail.append(f"{flag}={files['target']}")
        elif faulty:
            out.append(f"{flag}={draw(st.sampled_from(INVALID.get(action.dest, ()) + ADVERSARIAL))}")
        elif action.dest in REQUIRED or draw(st.booleans()):
            out.append(f"{flag}={draw(st.sampled_from(VALID.get(action.dest) or action.choices))}")
    return [*head, command, *tail], inputs == files["inputs"][:1]


def reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} written")


@pytest.mark.parametrize("command", sorted(PARSER.commands))
def test_cli_contract_under_adversarial_argv(tmp_path_factory, command):
    root = tmp_path_factory.mktemp("fuzz")
    good = root / "corpus.csv"
    write_corpus(good)
    (root / "dir").mkdir()
    (root / "dir" / "corpus.csv").write_bytes(good.read_bytes())
    (root / "latin1.csv").write_bytes(good.read_bytes().replace(b"u2", b"\xfc2"))
    (root / "empty.csv").write_bytes(b"")
    report = root / "report"
    assert main(["evaluate", str(good), "--out", str(report), "--scorers", "itad"]) == 0
    (root / "not-json.json").write_text("{", encoding="utf-8")
    target = root / "target"
    configs = []
    for name, text in (
        ("latin1.cfg", b'scorers = "sim"\nout = "\xff"\n'),
        ("bad.cfg", b"kinds = U,U\nk_max = -0\nseparation = nan\n"),
        ("inf.cfg", f"# fills unset options\nout = {target}\nout_dir = {target}\nthreshold = inf\n".encode()),
        ("unknown.cfg", b"user = 2\n"),
    ):
        (root / name).write_bytes(text)
        configs.append(str(root / name))
    files = {
        "inputs": [str(good), *(str(root / name) for name in ("dir", "latin1.csv", "empty.csv", "nope"))],
        "reports": [str(report / "report.json"), *(str(root / n) for n in ("not-json.json", "latin1.csv", "nope"))],
        "configs": configs,
        "target": target,
    }

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(invocations(command, files))
    def check(invocation):
        argv, clean = invocation
        shutil.rmtree(target, ignore_errors=True)
        code = main(argv)
        assert code in (0, 1, 2), argv
        if code:
            assert not target.exists(), argv
            assert not (clean and code == 2), argv  # the corpus is well-formed: a data error is a fault
        else:
            for path in target.rglob("*.json") if target.exists() else ():
                json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)

    check()
