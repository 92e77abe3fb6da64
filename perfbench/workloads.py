"""Benchmark inputs and the analysis list of each workload.

Every input is derived from the workload seed: the study CSV comes from
`rocinfer.generate.simulate_endosyn_like(n, seed)` and the newdata CSVs
are placed inside the covariate ranges of that study, so the same seed
always gives the same files and no timed analysis leaves the range its
spline or kernel fit supports.

Timed `aroc sp`/`croc sp` cases use linear formulas on purpose. The
README's spline formula `f(age, by=gender, K=(0,0))` fails on `aroc`
(diseased ages run past the healthy maximum, so the healthy basis is
evaluated out of range and the run exits 3), and spline bases with an
intercept are rank-deficient under least squares. The README commands
run as the untimed known-defect probe instead (`PROBES`).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

N_ROWS = 2840
TINY_ROWS = 400

SPLINE = "bmi ~ gender + f(age, by=gender, K=(0,0))"
LINEAR = "bmi ~ gender + age"
INTERACTION = "bmi ~ gender*age"

_COMMON = {"marker": "bmi", "group": "cvd_idf", "tag": "0", "workers": 1}


@dataclass(frozen=True)
class Case:
    """One analysis of a workload: a `RunConfig` minus data and output paths."""

    name: str                      # metric stem, e.g. "croc.bnp"
    fields: dict                   # RunConfig fields
    newdata: str | None = None     # key into Inputs.newdata
    warmup: dict = field(default_factory=dict)  # overrides for the set-up warm-up
    tiny: dict = field(default_factory=dict)    # overrides for smoke tests


def _case(name, newdata=None, warmup=None, tiny=None, **fields) -> Case:
    return Case(name, fields, newdata, warmup or {}, tiny or {})


_MCMC_WARM = {"nsave": 5, "nburn": 2}
_MCMC_TINY = {"nsave": 10, "nburn": 5}

WORKLOADS = {
    # Curve inversion dominates: per draw and newdata row, mixture
    # quantiles on the 101-point ROC grid and the 201-point AUC grid.
    "bnp_curves": [
        _case("croc.bnp", "bnp", subcommand="croc", method="bnp",
              formula_h=SPLINE, formula_d=SPLINE, nsave=100, nburn=40,
              warmup=_MCMC_WARM, tiny=_MCMC_TINY),
    ],
    # Gibbs sweeps and the saved-draw log-likelihood dominate; no
    # newdata inversion.
    "bnp_fit": [
        _case("pooled.dpm", subcommand="pooled", method="dpm", nsave=400, nburn=100,
              warmup={"nsave": 40, "nburn": 10}, tiny=_MCMC_TINY),
        _case("aroc.bnp", subcommand="aroc", method="bnp", formula_h=LINEAR,
              nsave=400, nburn=100, warmup=_MCMC_WARM, tiny=_MCMC_TINY),
    ],
    # Kernel smoothing two ways: kernel CDFs under bisection (pooled) and
    # the leave-one-out bandwidth search (croc). No mixtures code runs.
    "freq_kernel": [
        _case("pooled.kernel", subcommand="pooled", method="kernel", bw="srt", B=3,
              warmup={"B": 0}, tiny={"B": 2}),
        _case("croc.kernel", "kernel", subcommand="croc", method="kernel",
              covariate="age", bw="lscv", B=2,
              warmup={"bw": "srt", "B": 0}, tiny={"B": 1}),
    ],
    # Thousands of short replicates: per-replicate Python, RNG streams,
    # design matrices and the ECDF, placement and area helpers. No
    # bisection and no mixtures code runs.
    "freq_resample": [
        _case("pooled.emp", subcommand="pooled", method="emp", B=2000,
              pauc=True, pauc_focus="fpf", pauc_value=0.2,
              warmup={"B": 5}, tiny={"B": 20}),
        _case("pooled.bb", subcommand="pooled", method="bb", B=3000,
              pauc=True, pauc_focus="tpf", pauc_value=0.8,
              warmup={"B": 500}, tiny={"B": 500}),
        _case("croc.sp", "sp", subcommand="croc", method="sp",
              formula_h=INTERACTION, formula_d=INTERACTION, est_cdf="empirical", B=1000,
              warmup={"B": 5}, tiny={"B": 20}),
        _case("aroc.sp", subcommand="aroc", method="sp", formula_h=LINEAR,
              est_cdf="empirical", B=2000, warmup={"B": 5}, tiny={"B": 20}),
        _case("threshold.croc.sp", "bnp", subcommand="threshold", approach="croc",
              method="sp", formula_h=INTERACTION, formula_d=INTERACTION, B=400,
              warmup={"B": 5}, tiny={"B": 20}),
    ],
}

# The README's `aroc` commands; they exit 3 on simulate output today
# (healthy spline basis evaluated at diseased ages past its range).
PROBES = [
    _case("probe.aroc.sp", subcommand="aroc", method="sp", formula_h=SPLINE, B=5),
    _case("probe.aroc.bnp", subcommand="aroc", method="bnp", formula_h=SPLINE,
          nsave=5, nburn=5),
]

CASE_NAMES = [c.name for cases in WORKLOADS.values() for c in cases]


def design_checks(workload: str, metrics: dict, layers: dict, wall_s: float) -> dict:
    """Whether a traced run confirms what each workload was built to stress.

    `layers` maps a layer to its traced busy time and span count;
    `wall_s` is the untraced pass time of the same run.
    """
    def busy(layer):
        return layers.get(layer, {}).get("busy_s", 0.0)

    def spans(layer):
        return layers.get(layer, {}).get("spans", 0)

    return {
        "bnp_curves": {
            "mixtures.quantile >= wall_s/2": metrics["mixtures.quantile.busy_s"] >= wall_s / 2},
        "bnp_fit": {
            "mixtures.fit >= wall_s/2": metrics["mixtures.fit.busy_s"] >= wall_s / 2},
        "freq_kernel": {
            "smoothing >= wall_s/2": busy("smoothing") >= wall_s / 2,
            "no mixtures span": spans("mixtures") == 0},
        "freq_resample": {
            "no mixtures span": spans("mixtures") == 0,
            "no summaries.invert span": metrics["summaries.invert.calls"] == 0},
    }[workload]


@dataclass
class Inputs:
    """Generated files of one seed."""

    study: str
    newdata: dict          # key -> path
    sha256: dict           # file name -> hex digest
    healthy: np.ndarray    # marker values, for the Mann-Whitney check
    diseased: np.ndarray


def _age_grid(lo: float, hi: float, k: int) -> np.ndarray:
    """k ages spread over the middle 80% of [lo, hi]."""
    pad = 0.1 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, k)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_inputs(seed: int, directory: str, n: int = N_ROWS) -> Inputs:
    """Generate the study CSV and the newdata CSVs for one seed."""
    from rocinfer.generate import simulate_endosyn_like

    study_text = simulate_endosyn_like(n, seed)
    rows = [line.split(",") for line in study_text.splitlines()[1:]]
    gender = np.array([r[0] for r in rows])
    age = np.array([float(r[1]) for r in rows])
    bmi = np.array([float(r[2]) for r in rows])
    sick = np.array([r[3] == "1" for r in rows])

    # spline fits are per gender and per group, so newdata ages must sit
    # inside every (gender, group) cell's age range
    cells = [age[(gender == g) & (sick == s)] for g in ("Men", "Women") for s in (False, True)]
    lo = max(float(c.min()) for c in cells)
    hi = min(float(c.max()) for c in cells)

    def frame(genders, ages) -> str:
        if genders is None:
            return "age\n" + "".join("%.2f\n" % a for a in ages)
        return "gender,age\n" + "".join("%s,%.2f\n" % (g, a) for g in genders for a in ages)

    texts = {
        "bnp": frame(("Men", "Women"), _age_grid(lo, hi, 6)),       # 12 rows
        "kernel": frame(None, _age_grid(lo, hi, 6)),                # 6 rows
        "sp": frame(("Men", "Women"), _age_grid(lo, hi, 12)),       # 24 rows
    }
    sha = {"study.csv": _write(os.path.join(directory, "study.csv"), study_text)}
    paths = {}
    for key, text in texts.items():
        name = "newdata_%s.csv" % key
        paths[key] = os.path.join(directory, name)
        sha[name] = _write(paths[key], text)
    return Inputs(os.path.join(directory, "study.csv"), paths, sha,
                  healthy=bmi[~sick], diseased=bmi[sick])


def run_config(case: Case, inputs: Inputs, out_dir: str, seed: int, mode: str = "full"):
    """The `RunConfig` of one case; mode is "full", "warmup" or "tiny"."""
    from rocinfer.cli import RunConfig

    fields = dict(_COMMON, **case.fields)
    if mode == "warmup":
        fields.update(case.warmup)
    elif mode == "tiny":
        fields.update(case.tiny)
    stem = os.path.join(out_dir, case.name)
    cfg = RunConfig(data=inputs.study, seed=seed, out=stem + ".json", **fields)
    if case.newdata:
        cfg = replace(cfg, newdata=inputs.newdata[case.newdata])
    if cfg.subcommand != "threshold":
        cfg = replace(cfg, curves_csv=stem + ".csv")
    return cfg


def probe_argv(case: Case, inputs: Inputs, out_dir: str, seed: int) -> list:
    """The probe as a `rocinfer` command line, as the README writes it."""
    argv = [case.fields["subcommand"], "--data", inputs.study, "--seed", str(seed),
            "--out", os.path.join(out_dir, case.name + ".json")]
    for key, value in dict(_COMMON, **case.fields).items():
        if key != "subcommand":
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv
