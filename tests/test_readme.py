"""The README's CLI commands run on the package's own synthetic data.

Each command line of the README's CLI block goes through `cli.main`
with its file names moved into a temporary directory and short chains
or bootstraps appended, on `simulate --n 2840 --seed 2026` output and a
newdata file inside that study's covariate range. Each must exit 0 and
write an envelope with no null number and no negative fit penalty.
"""

import csv
import json
import os
import re
import shlex

import pytest

from rocinfer import cli

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_SHORT_MCMC = ["--nsave", "50", "--nburn", "20"]
_SHORT_BOOT = ["--B", "20"]


def _readme_commands() -> list:
    """The argv of each `rocinfer ...` line of the README's CLI block."""
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"One executable, five subcommands:\s*```\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rocinfer ")]


_COMMANDS = _readme_commands()


def test_readme_lists_five_subcommands():
    assert sorted(argv[0] for argv in _COMMANDS) == [
        "aroc", "croc", "pooled", "simulate", "threshold"]


def _relocated(argv, tmp) -> list:
    """argv with every CSV or JSON file name moved into tmp."""
    return [os.path.join(tmp, a) if re.fullmatch(r"[\w.]+\.(csv|json)", a) else a for a in argv]


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("readme"))
    simulate = next(argv for argv in _COMMANDS if argv[0] == "simulate")
    assert cli.main(_relocated(simulate, tmp)) == 0
    with open(os.path.join(tmp, "newdata.csv"), "w", encoding="utf-8") as fh:
        fh.write("gender,age\n" + "".join(
            "%s,%g\n" % (g, a) for g in ("Men", "Women") for a in (30, 45, 60)))
    return tmp


def _nulls(node, path="payload") -> list:
    if node is None:
        return [path]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _nulls(v, "%s.%s" % (path, k))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _nulls(v, "%s[%d]" % (path, i))]
    return []


@pytest.mark.parametrize("argv", [a for a in _COMMANDS if a[0] != "simulate"], ids=lambda a: a[0])
def test_readme_command_exits_0_with_finite_output(argv, study_dir, capsys):
    method = argv[argv.index("--method") + 1]
    argv = _relocated(argv, study_dir) + (_SHORT_MCMC if method in ("dpm", "bnp") else _SHORT_BOOT)
    assert cli.main(argv) == 0, capsys.readouterr().err
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        envelope = json.load(fh)
    assert _nulls(envelope["payload"]) == []
    for group in envelope["payload"].get("fit", {}).values():
        assert group["waic_penalty"] >= 0 and group["dic_penalty"] >= 0, group
    assert not [w for w in envelope["warnings"] if "DIC penalty" in w]


def test_readme_aroc_bnp_reports_extrapolation_in_age_units(study_dir):
    """The Bayesian adjusted curve fits on standardised covariates, but its
    extrapolation warnings give the age boundary and overshoot in years."""
    argv = _relocated(next(a for a in _COMMANDS if a[0] == "aroc"), study_dir)
    assert argv[argv.index("--method") + 1] == "bnp"
    out = os.path.join(study_dir, "aroc_extrapolation.json")
    argv[argv.index("--out") + 1] = out
    assert cli.main(argv + ["--nsave", "5", "--nburn", "5"]) == 0
    with open(out, encoding="utf-8") as fh:
        notes = json.load(fh)["warnings"]
    with open(os.path.join(study_dir, "study.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for gender in ("Men", "Women"):
        age = {s: [float(r["age"]) for r in rows if r["gender"] == gender and r["cvd_idf"] == s]
               for s in "01"}
        lo, hi = min(age["0"]), max(age["0"])
        past = [max(lo - a, a - hi) for a in age["1"] if not lo <= a <= hi]
        pattern = (r"(\d+) covariate value\(s\) of age where gender=%s outside the spline "
                   r"boundary \[(\S+), (\S+)\], up to (\S+) past it" % gender)
        found = [m for m in (re.match(pattern, note) for note in notes) if m]
        assert len(found) == 1, notes
        count, b_lo, b_hi, dist = found[0].groups()
        assert int(count) == len(past) > 0
        assert float(b_lo) == pytest.approx(lo, rel=1e-5)
        assert float(b_hi) == pytest.approx(hi, rel=1e-5)
        assert float(dist) == pytest.approx(max(past), rel=1e-5)
