"""End-to-end checks of the command line interface.

Every test drives ``rocinfer.cli.main`` in process and inspects the JSON
envelope, the text summary, or the exit code.
"""
import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from rocinfer import cli
from rocinfer.cli import (
    ResultEnvelope,
    RunConfig,
    _density_of,
    _jsonable,
    _mcmc_of,
    _merge_config,
    _override,
    _pauc_of,
    build_parser,
    main,
)
from rocinfer.mixtures import DdpPrior, DpmPrior, McmcControl
from rocinfer.pooled import DensityControl, PaucControl
from rocinfer.smoothing import silverman_bandwidth
from rocinfer.summaries import Interval

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    # small synthetic cohort shared by the read-only CLI runs below
    path = tmp_path_factory.mktemp("data") / "study.csv"
    rc = main(["simulate", "--n", "260", "--seed", "1", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def newdata_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "newdata.csv"
    path.write_text("age\n32.5\n51.0\n", encoding="utf-8")
    return str(path)


def _run_json(args, out_path):
    rc = main(args + ["--out", str(out_path)])
    assert rc == 0
    with open(out_path, "rb") as fh:
        return json.load(fh)


def _pooled_args(study_csv, extra=()):
    return ["pooled", "--data", study_csv, "--marker", "bmi", "--group",
            "cvd_idf", "--tag", "0", *extra]


def test_pooled_envelope_structure(study_csv, tmp_path):
    env = _run_json(_pooled_args(study_csv, ["--B", "25", "--seed", "7"]),
                    tmp_path / "out.json")
    assert set(env) == {"schema_version", "config", "timing", "warnings", "payload"}
    assert env["schema_version"] == 1
    assert env["timing"]["seconds"] >= 0.0
    assert isinstance(env["warnings"], list)

    pay = env["payload"]
    assert pay["kind"] == "pooled"
    assert pay["approach"] == "pooled"
    assert pay["method"] == "empirical"
    assert len(pay["p"]) == 101
    for key in ("est", "lo", "hi"):
        assert len(pay["roc"][key]) == 101
    assert set(pay["auc"]) == {"est", "lo", "hi"}
    assert 0.0 <= pay["auc"]["est"] <= 1.0
    sizes = pay["sample_sizes"]
    assert sizes["healthy"] + sizes["diseased"] == 260
    assert sizes["dropped_missing"] == 0

    # config echo keeps the effective settings, including defaults
    assert env["config"]["B"] == 25
    assert env["config"]["seed"] == 7
    assert env["config"]["workers"] == 1


def test_seed_default_in_config_echo(study_csv, tmp_path):
    env = _run_json(_pooled_args(study_csv, ["--B", "10"]), tmp_path / "out.json")
    assert env["config"]["seed"] == 2026


def test_summary_text(study_csv, tmp_path, capsys):
    rc = main(_pooled_args(study_csv, ["--B", "10", "--out",
                                       str(tmp_path / "out.json")]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "Approach: Pooled ROC curve (empirical)" in out
    assert re.search(r"AUC: \d\.\d{3} \(\d\.\d{3}, \d\.\d{3}\)", out)
    assert re.search(r"Sample sizes: healthy \d+, diseased \d+", out)


def test_curves_csv(study_csv, tmp_path):
    csv_path = tmp_path / "curves.csv"
    main(_pooled_args(study_csv, ["--B", "10", "--out", str(tmp_path / "o.json"),
                                  "--curves-csv", str(csv_path)]))
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "row,p,est,lo,hi"
    assert len(lines) == 1 + 101
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0

    # every family's rows are its payload's roc entries: one row block per newdata row
    newdata = tmp_path / "newdata.csv"
    newdata.write_text("age\n32.5\n45.0\n51.0\n", encoding="utf-8")
    common = ["--data", study_csv, "--marker", "bmi", "--group", "cvd_idf", "--tag", "0",
              "--B", "10", "--formula-h", "bmi ~ age"]
    for run, rows in ((_pooled_args(study_csv, ["--B", "10"]), 1),
                      (["croc", *common, "--formula-d", "bmi ~ age", "--newdata", str(newdata)], 3),
                      (["aroc", *common], 1)):
        pay = _run_json(run + ["--curves-csv", str(csv_path)], tmp_path / "o.json")["payload"]
        roc = {key: np.atleast_2d(pay["roc"][key]) for key in ("est", "lo", "hi")}
        assert roc["est"].shape == (rows, len(pay["p"]))
        want = ["row,p,est,lo,hi"] + [
            "%d,%.10g,%.10g,%.10g,%.10g" % (r, pj, roc["est"][r, j], roc["lo"][r, j], roc["hi"][r, j])
            for r in range(rows) for j, pj in enumerate(pay["p"])]
        assert csv_path.read_text(encoding="utf-8").split("\n") == want + [""]


def test_grid_length_flag(study_csv, tmp_path):
    env = _run_json(_pooled_args(study_csv, ["--B", "10", "--grid-length", "33"]),
                    tmp_path / "out.json")
    assert len(env["payload"]["p"]) == 33


def test_missing_tag_exits_2(study_csv, tmp_path, capsys):
    rc = main(["pooled", "--data", study_csv, "--marker", "bmi",
               "--group", "cvd_idf", "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rocinfer: ")


def test_bad_method_exits_2(study_csv, tmp_path):
    rc = main(_pooled_args(study_csv, ["--method", "bogus",
                                       "--out", str(tmp_path / "o.json")]))
    assert rc == 2


def test_bayesian_bootstrap_without_draws_exits_2(study_csv, tmp_path, capsys):
    rc = main(_pooled_args(study_csv, ["--method", "bb", "--B", "0",
                                       "--out", str(tmp_path / "o.json")]))
    assert rc == 2
    assert "S must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["emp", "kernel"])
def test_negative_bootstrap_count_exits_2(study_csv, tmp_path, capsys, method):
    rc = main(_pooled_args(study_csv, ["--method", method, "--B", "-5",
                                       "--out", str(tmp_path / "o.json")]))
    assert rc == 2
    assert "bootstrap count B must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exits_2(study_csv, tmp_path, capsys, workers):
    rc = main(_pooled_args(study_csv, ["--workers", workers,
                                       "--out", str(tmp_path / "o.json")]))
    assert rc == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


_DPM = ["--method", "dpm", "--nsave", "5", "--nburn", "2"]


@pytest.mark.parametrize("extra", [
    [*_DPM, "--prior", "a=abc"], [*_DPM, "--prior", "L=1.5"], [*_DPM, "--prior-h", "a=inf"],
    ["--grid-length", "-3"], ["--grid-length", "0"], ["--grid-length", "1"],
    [*_DPM, "--density", "--density-grid-length", "-1"],
    [*_DPM, "--density", "--density-grid-length", "0"],
    ["--seed", "-1"],
], ids=["prior-text", "prior-fractional-L", "prior-inf", "grid-negative", "grid-zero", "grid-one",
        "density-grid-negative", "density-grid-zero", "seed-negative"])
def test_bad_number_exits_2(study_csv, tmp_path, capsys, extra):
    rc = main(_pooled_args(study_csv, [*extra, "--out", str(tmp_path / "o.json")]))
    assert rc == 2
    assert capsys.readouterr().err.startswith("rocinfer: ")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("extra", [
    ["--param", "prevalence=abc"], ["--n", "-5"], ["--seed", "-1"],
], ids=["param-text", "n-negative", "seed-negative"])
def test_simulate_bad_number_exits_2(tmp_path, capsys, extra):
    rc = main(["simulate", "--n", "50", "--out", str(tmp_path / "d.csv"), *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rocinfer: ")
    assert not (tmp_path / "d.csv").exists()


_FORMULAS = ["--formula-h", "bmi ~ age", "--formula-d", "bmi ~ age"]


@pytest.mark.parametrize("subcommand,method,extra", [
    ("pooled", "emp", []), ("pooled", "kernel", []), ("pooled", "bb", []),
    ("pooled", "dpm", []), ("croc", "sp", _FORMULAS),
    ("croc", "kernel", ["--covariate", "age", "--bw", "srt"]), ("croc", "bnp", _FORMULAS),
    ("aroc", "sp", _FORMULAS[:2]), ("aroc", "kernel", ["--covariate", "age"]),
    ("aroc", "bnp", _FORMULAS[:2]),
])
def test_zero_width_tpf_partial_area_is_zero(study_csv, newdata_csv, tmp_path,
                                              subcommand, method, extra):
    # --pauc-value defaults to 1.0, so TPF focus asks for the area over [1, 1]
    args = [subcommand, "--data", study_csv, "--marker", "bmi", "--group", "cvd_idf",
            "--tag", "0", "--method", method, "--pauc", "--pauc-focus", "tpf",
            "--B", "3", "--nsave", "20", "--nburn", "10", *extra]
    if subcommand == "croc":
        args += ["--newdata", newdata_csv]
    pauc = _run_json(args, tmp_path / "out.json")["payload"]["pauc"]
    for row in pauc if isinstance(pauc, list) else [pauc]:
        assert (row["est"], row["lo"], row["hi"]) == (0.0, 0.0, 0.0)


def test_missing_data_file_exits_3(tmp_path, capsys):
    rc = main(["pooled", "--data", str(tmp_path / "nope.csv"), "--marker", "bmi",
               "--group", "cvd_idf", "--tag", "0",
               "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("rocinfer: ")


def test_bad_tag_exits_3(study_csv, tmp_path):
    rc = main(["pooled", "--data", study_csv, "--marker", "bmi",
               "--group", "cvd_idf", "--tag", "9",
               "--out", str(tmp_path / "o.json")])
    assert rc == 3


def test_rank_deficient_design_exits_4(study_csv, newdata_csv, tmp_path):
    rc = main(["croc", "--data", study_csv, "--marker", "bmi", "--group",
               "cvd_idf", "--tag", "0", "--method", "sp",
               "--formula-h", "bmi ~ age + age", "--formula-d", "bmi ~ age + age",
               "--newdata", newdata_csv, "--B", "10",
               "--out", str(tmp_path / "o.json")])
    assert rc == 4


def test_croc_payload_and_summary(study_csv, newdata_csv, tmp_path, capsys):
    env = _run_json(["croc", "--data", study_csv, "--marker", "bmi", "--group",
                     "cvd_idf", "--tag", "0", "--method", "sp",
                     "--formula-h", "bmi ~ age", "--formula-d", "bmi ~ age",
                     "--newdata", newdata_csv, "--B", "25", "--seed", "3"],
                    tmp_path / "out.json")
    pay = env["payload"]
    assert pay["approach"] == "croc"
    assert pay["method"] == "sp-normal"
    assert pay["newdata"]["age"] == [32.5, 51.0]
    assert len(pay["roc"]["est"]) == 2
    assert len(pay["roc"]["est"][0]) == 101
    assert len(pay["auc"]) == 2
    assert "induced" in pay["coefficients"]
    out = capsys.readouterr().out
    assert "AUC at row 0 (age=32.5):" in out


def test_kernel_payloads_report_their_bandwidths(tmp_path):
    """croc and aroc kernel payloads give each fitted group's mean and variance h and the
    rule, and under lscv whether each scan stopped at a grid edge. On the benchmark study
    (seed 2026) the healthy mean bandwidth stops at the edge, 20 x h_srt = 49.47."""
    study, newdata = tmp_path / "study.csv", tmp_path / "newdata.csv"
    assert main(["simulate", "--n", "2840", "--seed", "2026", "--out", str(study)]) == 0
    newdata.write_text("age\n30\n45\n60\n", encoding="utf-8")
    common = ["--data", str(study), "--marker", "bmi", "--group", "cvd_idf", "--tag", "0",
              "--method", "kernel", "--covariate", "age", "--B", "2"]
    croc = _run_json(["croc", *common, "--newdata", str(newdata)], tmp_path / "c.json")
    aroc = _run_json(["aroc", *common], tmp_path / "a.json")
    srt = _run_json(["aroc", *common, "--bw", "srt"], tmp_path / "s.json")
    bws = croc["payload"]["bandwidths"]
    assert set(bws) == {"rule", "healthy", "diseased"} and bws["rule"] == "lscv"
    for group in ("healthy", "diseased"):
        assert set(bws[group]) == {"mean", "variance", "mean_at_edge", "variance_at_edge"}
        assert all(math.isfinite(bws[group][h]) and bws[group][h] > 0
                   for h in ("mean", "variance"))
    assert round(bws["healthy"]["mean"], 2) == 49.47 and bws["healthy"]["mean_at_edge"] is True
    assert bws["healthy"]["variance_at_edge"] is False
    # aroc fits the healthy group alone, as croc does
    assert aroc["payload"]["bandwidths"] == {"rule": "lscv", "healthy": bws["healthy"]}
    h = srt["payload"]["bandwidths"]["healthy"]["mean"]
    assert srt["payload"]["bandwidths"] == {"rule": "srt", "healthy": {"mean": h, "variance": h}}
    assert all(_nulls(env["payload"]) == [] for env in (croc, aroc, srt))


@pytest.mark.parametrize("bw", ["srt", "lscv"])
def test_pooled_kernel_payload_reports_its_marker_bandwidths(study_csv, tmp_path, bw):
    """pooled kernel gives the rule and each group's marker h, and under lscv whether its
    cdf scan stopped at a grid edge; the srt h is the marker's Silverman bandwidth."""
    env = _run_json(_pooled_args(study_csv, ["--method", "kernel", "--bw", bw, "--B", "3"]),
                    tmp_path / "k.json")
    bws = env["payload"]["bandwidths"]
    assert set(bws) == {"rule", "healthy", "diseased"} and bws["rule"] == bw
    keys = {"marker", "at_edge"} if bw == "lscv" else {"marker"}
    with open(study_csv, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for group in ("healthy", "diseased"):
        assert set(bws[group]) == keys
        h = bws[group]["marker"]
        assert math.isfinite(h) and h > 0
        if bw == "lscv":
            assert isinstance(bws[group]["at_edge"], bool)
        else:
            y = [float(r["bmi"]) for r in rows if (r["cvd_idf"] == "0") == (group == "healthy")]
            assert h == silverman_bandwidth(np.array(y)).value
    assert _nulls(env["payload"]) == []


def test_aroc_payload_and_summary(study_csv, tmp_path, capsys):
    env = _run_json(["aroc", "--data", study_csv, "--marker", "bmi", "--group",
                     "cvd_idf", "--tag", "0", "--formula-h", "bmi ~ age",
                     "--B", "25", "--seed", "3"], tmp_path / "out.json")
    pay = env["payload"]
    assert pay["approach"] == "aroc"
    assert set(pay) >= {"p", "roc", "aauc", "yi", "p_star", "placements"}
    assert 0.0 <= pay["aauc"]["est"] <= 1.0
    assert len(pay["placements"]) == pay["sample_sizes"]["diseased"]
    out = capsys.readouterr().out
    assert "AAUC:" in out
    assert "Youden index:" in out


def test_threshold_pooled_fixed_fpf(study_csv, tmp_path, capsys):
    env = _run_json(["threshold", "--approach", "pooled", "--criterion", "fpf",
                     "--target-fpf", "0.3", "--data", study_csv, "--marker",
                     "bmi", "--group", "cvd_idf", "--tag", "0", "--B", "10"],
                    tmp_path / "out.json")
    pay = env["payload"]
    assert pay["kind"] == "threshold"
    assert pay["criterion"] == "fpf"
    assert pay["target_fpf"] == 0.3
    assert len(pay["threshold"]) == 1
    assert abs(pay["fpf"][0]["est"] - 0.3) < 0.05
    assert "Criterion: fixed FPF 0.300" in capsys.readouterr().out


def test_threshold_croc_rows_and_skip_note(study_csv, newdata_csv, tmp_path):
    env = _run_json(["threshold", "--approach", "croc", "--criterion", "yi",
                     "--data", study_csv, "--marker", "bmi", "--group",
                     "cvd_idf", "--tag", "0", "--method", "sp",
                     "--formula-h", "bmi ~ age", "--formula-d", "bmi ~ age",
                     "--newdata", newdata_csv, "--B", "10",
                     "--curves-csv", str(tmp_path / "skip.csv")],
                    tmp_path / "out.json")
    pay = env["payload"]
    assert pay["criterion"] == "yi"
    assert len(pay["threshold"]) == 2
    assert len(pay["yi"]) == 2
    assert pay["newdata"]["age"] == [32.5, 51.0]
    assert any("curves CSV skipped" in w for w in env["warnings"])
    assert not (tmp_path / "skip.csv").exists()


@pytest.mark.parametrize("approach", ["pooled", "croc"])
def test_threshold_echoes_target_fpf_only_for_fpf(study_csv, newdata_csv, tmp_path, approach):
    extra = (["--method", "sp", *_FORMULAS, "--newdata", newdata_csv]
             if approach == "croc" else [])
    for criterion, echoed in (("yi", False), ("fpf", True)):
        env = _run_json(["threshold", "--approach", approach, "--criterion", criterion,
                         "--target-fpf", "0.3", "--data", study_csv, "--marker", "bmi",
                         "--group", "cvd_idf", "--tag", "0", "--B", "5", *extra],
                        tmp_path / "out.json")
        assert ("target_fpf" in env["payload"]) is echoed
        if echoed:
            assert env["payload"]["target_fpf"] == 0.3


def test_ini_precedence(study_csv, tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text("[pooled]\nB = 40\nseed = 11\ngrid-length = 51\n",
                   encoding="utf-8")
    env = _run_json(_pooled_args(study_csv, ["--config", str(ini), "--B", "25"]),
                    tmp_path / "out.json")
    # CLI beats INI, INI beats the dataclass default
    assert env["config"]["B"] == 25
    assert env["config"]["seed"] == 11
    assert env["config"]["grid_length"] == 51
    assert len(env["payload"]["p"]) == 51


def test_unknown_ini_key_exits_2(study_csv, tmp_path, capsys):
    ini = tmp_path / "config.ini"
    ini.write_text("[pooled]\nbogus = 3\n", encoding="utf-8")
    rc = main(_pooled_args(study_csv, ["--config", str(ini),
                                       "--out", str(tmp_path / "o.json")]))
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("run, workers", [
    (["pooled", "--method", "bb", "--B", "200"], "8"),
    # bootstrap replicates are drawn and refit in blocks of 64: B = 130 is three blocks
    (["pooled", "--method", "emp", "--B", "130"], "2"),
    (["croc", "--method", "sp", "--est-cdf", "empirical", "--formula-h", "bmi ~ age",
      "--formula-d", "bmi ~ age", "--B", "130"], "2"),
    (["aroc", "--method", "sp", "--est-cdf", "empirical", "--formula-h", "bmi ~ gender + age",
      "--B", "130"], "2"),
], ids=["pooled_bb", "pooled_emp", "croc_sp", "aroc_sp"])
def test_worker_count_leaves_payload_identical(study_csv, newdata_csv, tmp_path, run, workers):
    extra = ["--newdata", newdata_csv] if run[0] == "croc" else []
    a, b = (_run_json([run[0], "--data", study_csv, "--marker", "bmi", "--group", "cvd_idf",
                       "--tag", "0", *run[1:], *extra, "--seed", "5", "--workers", w],
                      tmp_path / ("o%s.json" % w)) for w in ("1", workers))
    assert json.dumps(a["payload"], sort_keys=True) == \
        json.dumps(b["payload"], sort_keys=True)
    assert a["warnings"] == b["warnings"]


def test_simulate_determinism_and_params(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--n", "200", "--seed", "5", "--out", str(p1)]) == 0
    out = capsys.readouterr().out
    assert "wrote 200 rows to %s" % p1 in out
    assert main(["simulate", "--n", "200", "--seed", "5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    p3 = tmp_path / "c.csv"
    assert main(["simulate", "--n", "200", "--seed", "5", "--out", str(p3),
                 "--param", "prevalence=0.5"]) == 0
    rows = p3.read_text(encoding="utf-8").strip().split("\n")[1:]
    diseased = sum(r.rsplit(",", 1)[1] == "1" for r in rows)
    assert diseased == 100


def test_simulate_unknown_param_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--n", "50", "--out", str(tmp_path / "d.csv"),
               "--param", "nonsense=1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rocinfer: ")


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--n", "50"]) == 2


@pytest.mark.parametrize("args", [
    ["pooled", "--method", "dpm"],
    ["aroc", "--method", "bnp", "--formula-h", "bmi ~ gender + age"],
], ids=["pooled-dpm", "aroc-bnp"])
def test_one_component_one_draw_thinned_fit(study_csv, tmp_path, args):
    env = _run_json([*args, "--data", study_csv, "--marker", "bmi", "--group", "cvd_idf",
                     "--tag", "0", "--prior", "L=1", "--nsave", "1", "--nburn", "0",
                     "--nskip", "3"], tmp_path / "out.json")
    fit = env["payload"]["fit"]
    assert fit
    for group in fit.values():
        assert all(math.isfinite(val) for val in group.values())


def test_readme_prior_examples_parse():
    lines = [line.split("#")[0] for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("--prior")]
    assert lines
    base = ["croc", "--data", "s.csv", "--marker", "bmi", "--group", "g", "--tag", "0",
            "--method", "bnp", "--formula-h", "bmi ~ age", "--formula-d", "bmi ~ age",
            "--newdata", "n.csv"]
    y = np.linspace(18.0, 30.0, 12)
    for line in lines:
        cfg = _merge_config("croc", build_parser().parse_args(base + shlex.split(line)))
        for overrides in ({**cfg.prior, **cfg.prior_h}, {**cfg.prior, **cfg.prior_d}):
            if not overrides:
                continue
            assert _override(DdpPrior, overrides).resolved(y, 2) is not None
            if all(re.fullmatch(r"[-+.\deE]+", val) for val in overrides.values()):
                assert _override(DpmPrior, overrides).resolved(y) is not None


def _edge_study(tmp_path, kind: str) -> str:
    """A small study whose markers hit one edge case of the step estimators."""
    g = np.random.default_rng(5)
    n_h, n_d = 30, 1 if kind == "one_diseased" else 12
    age = g.uniform(20.0, 70.0, n_h + n_d)
    bmi = g.normal(25.0, 3.0, n_h + n_d)
    if kind == "all_tied":
        bmi[:] = 25.0
    elif kind == "constant_diseased":
        bmi[n_h:] = 31.0
    elif kind == "constant_healthy":
        bmi[:n_h] = 25.0
    path = tmp_path / (kind + ".csv")
    path.write_text("age,bmi,cvd_idf\n" + "".join(
        "%.1f,%.1f,%d\n" % (a, b, i >= n_h) for i, (a, b) in enumerate(zip(age, bmi))),
        encoding="utf-8")
    return str(path)


_PAUC = ([], ["--pauc", "--pauc-focus", "fpf", "--pauc-value", "0.3"],
         ["--pauc", "--pauc-focus", "tpf", "--pauc-value", "0.8"])
_STEP_RUNS = [
    *(["pooled", "--method", m, *pa] for m in ("emp", "bb") for pa in _PAUC),
    *(["threshold", "--approach", "pooled", "--method", m, "--criterion", *crit]
      for m in ("emp", "bb") for crit in (["yi"], ["fpf", "--target-fpf", "0.1"])),
    ["aroc", "--method", "sp", "--est-cdf", "empirical", "--formula-h", "bmi ~ age"],
]


def _nulls(node, at="payload") -> list:
    if node is None:
        return [at]
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return [where for key, child in items for where in _nulls(child, "%s.%s" % (at, key))]


@pytest.mark.parametrize("kind", ["one_diseased", "all_tied", "constant_diseased"])
@pytest.mark.parametrize("run", _STEP_RUNS,
                         ids=lambda run: "_".join(a.lstrip("-").replace(" ", "") for a in run))
def test_step_estimators_survive_degenerate_markers(tmp_path, capsys, kind, run):
    """n_d = 1, all-tied markers and a constant diseased marker: finite output, or
    exit 3 for aroc sp when the healthy marker is constant (all tied)."""
    args = [*run, "--data", _edge_study(tmp_path, kind), "--marker", "bmi", "--group",
            "cvd_idf", "--tag", "0", "--B", "20", "--out", str(tmp_path / "out.json")]
    if run[0] == "aroc" and kind == "all_tied":
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("rocinfer: ")
        return
    assert main(args) == 0
    with open(tmp_path / "out.json", "rb") as fh:
        payload = json.load(fh)["payload"]
    assert _nulls(payload) == []
    # bb cumulative weights end at 1 +- 2e-16: threshold probabilities stay clipped
    for name in ("fpf", "tpf", "yi") if run[0] == "threshold" else ():
        for iv in payload.get(name) or []:
            assert all(0.0 <= iv[end] <= 1.0 for end in ("est", "lo", "hi")), (name, iv)


@pytest.mark.parametrize("pauc", _PAUC, ids=["auc", "fpf", "tpf"])
def test_bb_areas_on_all_tied_markers_stay_in_the_unit_interval(tmp_path, pauc):
    """Dirichlet cumulative weights end at 1 +- 2e-16, so unclipped areas on an
    all-tied study land a rounding error below 0 (AUC -5.6e-18)."""
    out = tmp_path / "out.json"
    assert main(["pooled", "--method", "bb", *pauc, "--data", _edge_study(tmp_path, "all_tied"),
                 "--marker", "bmi", "--group", "cvd_idf", "--tag", "0",
                 "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        payload = json.load(fh)["payload"]
    for area in ("auc", "pauc") if pauc else ("auc",):
        for end in ("est", "lo", "hi"):
            assert 0.0 <= payload[area][end] <= 1.0, (area, end, payload[area][end])


def test_bb_youden_on_all_tied_markers_matches_emp(tmp_path):
    """Each bb draw's CDFs differ only by rounding on an all-tied study: no draw may pick a
    threshold or a sign from that noise, so bb reports emp's answer."""
    data = _edge_study(tmp_path, "all_tied")
    payloads = []
    for method in ("emp", "bb"):
        out = tmp_path / (method + ".json")
        assert main(["threshold", "--approach", "pooled", "--method", method, "--criterion", "yi",
                     "--B", "200", "--data", data, "--marker", "bmi", "--group", "cvd_idf",
                     "--tag", "0", "--out", str(out)]) == 0
        with open(out, "rb") as fh:
            payloads.append({k: v for k, v in json.load(fh)["payload"].items() if k != "method"})
    assert payloads[1] == payloads[0]
    assert payloads[0]["sign"] == [0]
    assert payloads[0]["threshold"] == [{"est": 24.0, "lo": 24.0, "hi": 24.0}]


def test_unset_flags_keep_the_library_defaults():
    cfg = RunConfig(subcommand="pooled")
    assert _mcmc_of(cfg) == McmcControl()
    assert _pauc_of(cfg) == PaucControl()
    assert _density_of(cfg) == DensityControl()
    cfg = RunConfig(subcommand="pooled", nburn=7, pauc_value=0.4, density=True)
    assert _mcmc_of(cfg) == McmcControl(nburn=7)
    assert _pauc_of(cfg) == PaucControl(compute=True, value=0.4)
    assert _density_of(cfg) == DensityControl(compute=True)


def test_aroc_sp_constant_healthy_marker_exits_3(tmp_path, capsys):
    rc = main(["aroc", "--method", "sp", "--est-cdf", "empirical", "--formula-h", "bmi ~ age",
               "--data", _edge_study(tmp_path, "constant_healthy"), "--marker", "bmi",
               "--group", "cvd_idf", "--tag", "0", "--B", "20",
               "--out", str(tmp_path / "out.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("rocinfer: ")
    assert not (tmp_path / "out.json").exists()


_CROC_SP = ["croc", "--method", "sp", "--formula-h", "bmi ~ age", "--formula-d", "bmi ~ age",
            "--B", "5"]


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
@pytest.mark.parametrize("where,run", [
    ("data", _CROC_SP),
    ("data", ["aroc", "--method", "kernel", "--covariate", "age", "--B", "5"]),
    ("newdata", ["croc", "--method", "bnp", "--formula-h", "bmi ~ age",
                 "--formula-d", "bmi ~ age", "--nsave", "5", "--nburn", "5"]),
    ("newdata", ["threshold", "--approach", "croc"] + _CROC_SP[1:]),
])
def test_non_finite_covariate_exits_3(study_csv, tmp_path, capsys, where, run, cell):
    """A non-finite age in the study or the prediction file is a data error that names
    the column and the file, raised before any fit."""
    study, new = tmp_path / "study.csv", tmp_path / "new.csv"
    lines = Path(study_csv).read_text(encoding="utf-8").splitlines()
    age = lines[0].split(",").index("age")
    if where == "data":
        cells = lines[5].split(",")
        cells[age] = cell
        lines[5] = ",".join(cells)
    study.write_text("\n".join(lines) + "\n", encoding="utf-8")
    new.write_text("age\n40\n%s\n" % (cell if where == "newdata" else "50"), encoding="utf-8")
    rc = main(run + ["--data", str(study), "--marker", "bmi", "--group", "cvd_idf", "--tag", "0",
                     "--newdata", str(new), "--out", str(tmp_path / "out.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("rocinfer: ") and "'age'" in err
    assert str(study if where == "data" else new) in err
    assert not (tmp_path / "out.json").exists()


def _one_column_value(study_csv, tmp_path, column, value) -> str:
    """The study with every cell of `column` set to `value`."""
    lines = Path(study_csv).read_text(encoding="utf-8").splitlines()
    at = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[at] = value
        out.append(",".join(cells))
    path = tmp_path / "study.csv"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return str(path)


_GENDER_AGE = "bmi ~ gender + age"
_BNP_SHORT = ["--nsave", "5", "--nburn", "5"]


@pytest.mark.parametrize("run", [
    ["croc", "--method", "sp", "--formula-h", _GENDER_AGE, "--formula-d", _GENDER_AGE, "--B", "5"],
    ["croc", "--method", "bnp", "--formula-h", _GENDER_AGE, "--formula-d", _GENDER_AGE,
     *_BNP_SHORT],
    ["aroc", "--method", "sp", "--formula-h", _GENDER_AGE, "--B", "5"],
    ["aroc", "--method", "bnp", "--formula-h", _GENDER_AGE, *_BNP_SHORT],
    ["threshold", "--approach", "aroc", "--method", "bnp", "--formula-h", _GENDER_AGE,
     *_BNP_SHORT],
    ["croc", "--method", "sp", "--formula-h", "bmi ~ gender:age", "--formula-d",
     "bmi ~ gender:age", "--B", "5"],
], ids=["croc-sp", "croc-bnp", "aroc-sp", "aroc-bnp", "threshold-aroc-bnp", "croc-sp-interaction"])
def test_single_level_factor_exits_3(study_csv, tmp_path, capsys, run):
    """A factor with one level has no contrasts: a data error naming it, raised at training."""
    study = _one_column_value(study_csv, tmp_path, "gender", "Men")
    new = tmp_path / "new.csv"
    new.write_text("gender,age\nMen,40\n", encoding="utf-8")
    rc = main(run + ["--data", study, "--marker", "bmi", "--group", "cvd_idf", "--tag", "0",
                     "--newdata", str(new), "--out", str(tmp_path / "out.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("rocinfer: ") and "'gender'" in err and "2 or more levels" in err
    assert not (tmp_path / "out.json").exists()


def test_every_row_dropped_is_named(study_csv, tmp_path, capsys):
    """With one used column all missing, the error says every row was dropped, not that the
    healthy tag is absent."""
    study = _one_column_value(study_csv, tmp_path, "age", "NA")
    new = tmp_path / "new.csv"
    new.write_text("gender,age\nMen,40\n", encoding="utf-8")
    rc = main(_CROC_SP[:3] + ["--formula-h", _GENDER_AGE, "--formula-d", _GENDER_AGE,
                              "--B", "5", "--data", study, "--marker", "bmi",
                              "--group", "cvd_idf", "--tag", "0", "--newdata", str(new)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("rocinfer: ") and "all 260 rows were dropped" in err


def test_ini_values_take_their_field_types(tmp_path):
    """INI text is typed by the RunConfig field's annotation: int, float, bool, dict or str."""
    ini = tmp_path / "config.ini"
    ini.write_text("[pooled]\nmethod = dpm\nnsave = 12\npauc-value = 0.25\ndensity = yes\n"
                   "standardise = off\nprior = L=3,aalpha=2\n", encoding="utf-8")
    cfg = _merge_config("pooled", build_parser().parse_args(
        ["pooled", "--config", str(ini), "--data", "d.csv", "--marker", "bmi",
         "--group", "cvd_idf", "--tag", "0", "--prior", "L=4"]))
    assert (cfg.method, cfg.nsave, cfg.pauc_value, cfg.density, cfg.standardise) == (
        "dpm", 12, 0.25, True, False)
    assert cfg.prior == {"L": "4", "aalpha": "2"}  # a flag's pairs update the file's


@pytest.mark.parametrize("line, message", [
    ("nsave = many", "key 'nsave' needs a number, got 'many'"),
    ("target-fpf = x", "key 'target_fpf' needs a number, got 'x'"),
    ("density = maybe", "key 'density' needs a boolean, got 'maybe'"),
])
def test_ini_value_of_the_wrong_type_exits_2(study_csv, tmp_path, capsys, line, message):
    ini = tmp_path / "config.ini"
    ini.write_text("[pooled]\n%s\n" % line, encoding="utf-8")
    assert main(_pooled_args(study_csv, ["--config", str(ini)])) == 2
    assert capsys.readouterr().err == "rocinfer: %s\n" % message


def _element_jsonable(x):
    """The envelope converter as it was: every array element by element."""
    if hasattr(x, "as_dict"):
        return _element_jsonable(x.as_dict())
    if isinstance(x, dict):
        return {str(k): _element_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_element_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _element_jsonable(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if math.isfinite(v) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def test_envelope_bytes_match_the_element_by_element_converter():
    """One conversion of the payload, whole arrays by tolist(), writes the same bytes as the
    element-by-element converter applied to the whole envelope: NaN and infinities become
    null in the same places."""
    payload = {
        "curve": np.linspace(0.0, 1.0, 7).reshape(1, 7),
        "holes": np.array([[0.5, np.nan], [np.inf, -np.inf]]),
        "counts": np.arange(4, dtype=np.int32), "flags": np.array([True, False]),
        "scalars": [np.float64(0.25), np.int64(3), np.bool_(True), float("nan"), -0.0],
        "intervals": [Interval(0.7, 0.6, 0.8), Interval(np.float64(np.nan), 0.1, np.inf)],
        "nested": {1: (np.float32(1.5), np.zeros((2, 0))), "s": "text", "none": None},
        "zero_d": np.array(2.5), "empty": np.array([]),
    }
    config = {"data": "study.csv", "B": 20, "seed": None, "grid": np.array([0.1, 0.2])}
    envelope = ResultEnvelope(schema_version=1, config=_jsonable(config),
                              timing={"seconds": 0.5}, warnings=["w"],
                              payload=_jsonable(payload))
    frozen = dict(envelope.as_dict(), config=config, payload=payload)
    assert envelope.to_json() == json.dumps(_element_jsonable(frozen), indent=2,
                                            allow_nan=False)


def _kernel_study(tmp_path, kind: str) -> str:
    """A small study for the kernel fits' failure paths: 8 rows in each group ("few"),
    a constant healthy age ("constant_age"), or ages rounded to tens ("tens")."""
    g = np.random.default_rng(5)
    n_h, n_d = (8, 8) if kind == "few" else (60, 30)
    age = g.uniform(20.0, 70.0, n_h + n_d)
    bmi = g.normal(25.0, 3.0, n_h + n_d) + 0.05 * age
    if kind == "constant_age":
        age[:n_h] = 45.0
    elif kind == "tens":
        age = np.round(age, -1)
    path = tmp_path / (kind + ".csv")
    path.write_text("age,bmi,cvd_idf\n" + "".join(
        "%.1f,%.2f,%d\n" % (a, b, i >= n_h) for i, (a, b) in enumerate(zip(age, bmi))),
        encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind, subcommand, bw, rc, message", [
    ("few", "croc", "lscv", 3, "cross-validation needs n >= 10"),
    ("few", "aroc", "lscv", 3, "cross-validation needs n >= 10"),
    ("few", "croc", "srt", 0, None),
    ("few", "aroc", "srt", 0, None),
    ("constant_age", "croc", "lscv", 3, "prediction points leave the healthy covariate range"),
    ("constant_age", "aroc", "lscv", 3, "sample has zero variance"),
    ("tens", "croc", "lscv", 0, None),
    ("tens", "aroc", "lscv", 0, None),
])
def test_kernel_failure_paths(tmp_path, capsys, kind, subcommand, bw, rc, message):
    """croc and aroc kernel on too few rows for cross-validation (the srt rule needs none),
    a constant healthy covariate, and heavily tied covariates: an exit 3 with its message,
    or a payload without nulls whose bandwidths are finite and positive."""
    newdata = tmp_path / "newdata.csv"
    newdata.write_text("age\n40\n45\n", encoding="utf-8")
    out = tmp_path / "out.json"
    args = [subcommand, "--data", _kernel_study(tmp_path, kind), "--marker", "bmi", "--group",
            "cvd_idf", "--tag", "0", "--method", "kernel", "--covariate", "age", "--bw", bw,
            "--B", "5", "--out", str(out)]
    assert main(args + (["--newdata", str(newdata)] if subcommand == "croc" else [])) == rc
    if rc:
        assert capsys.readouterr().err.startswith("rocinfer: " + message)
        assert not out.exists()
        return
    payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
    assert _nulls(payload) == []
    bws = payload["bandwidths"]
    assert bws["rule"] == bw and set(bws) == {"rule", "healthy"} | (
        {"diseased"} if subcommand == "croc" else set())
    assert all(math.isfinite(bws[g][h]) and bws[g][h] > 0 for g in set(bws) - {"rule"}
               for h in ("mean", "variance"))


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_run_fixes_malloc_thresholds_where_the_c_library_has_mallopt(monkeypatch, tmp_path,
                                                                     has_mallopt):
    """Each analysis sets glibc's mmap and trim thresholds to 32 and 64 MB through mallopt
    (parameters -3 and -1), and runs unchanged under a C library without mallopt."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    path = tmp_path / "d.csv"
    assert main(["simulate", "--n", "120", "--seed", "1", "--out", str(path)]) == 0
    lib = type("Lib", (), {"mallopt": staticmethod(mallopt)} if has_mallopt else {})()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lib)
    assert main(["pooled", "--data", str(path), "--marker", "bmi", "--group", "cvd_idf",
                 "--tag", "0", "--method", "emp", "--B", "5",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert calls == ([(-3, 32 << 20), (-1, 64 << 20)] if has_mallopt else [])
