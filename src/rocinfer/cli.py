"""Command line front-end: configuration, dispatch, JSON and CSV emission.

Subcommands
    pooled     marker-only ROC (methods: emp, kernel, bb, dpm)
    croc       covariate-specific ROC at newdata rows (sp, kernel, bnp)
    aroc       covariate-adjusted ROC (sp, kernel, bnp)
    threshold  optimal thresholds on top of any approach (--approach)
    simulate   synthetic study CSV

Config files are INI with one section per subcommand and the long flag
names (dashes or underscores) as keys; every flag given on the command
line overrides its file value. Categorical covariates take their levels
in first-appearance order, which drives dummy coding and per-level knot
vectors, so the row order of the data file is part of the input.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .adjusted import aroc_bnp, aroc_frequentist, aroc_threshold
from .conditional import croc_bnp, croc_kernel, croc_sp, croc_threshold
from .errors import ConfigError, RocinferError
from .generate import GeneratorParams, simulate_endosyn_like
from .ingest import ingest_csv, read_newdata
from .mixtures import DdpPrior, DpmPrior, McmcControl
from .pooled import (
    DensityControl,
    PaucControl,
    pooled_bb,
    pooled_dpm,
    pooled_empirical,
    pooled_kernel,
    pooled_threshold,
)
from .sample import FpfGrid

SCHEMA_VERSION = 1

_METHODS = {
    "pooled": ("emp", "kernel", "bb", "dpm"),
    "croc": ("sp", "kernel", "bnp"),
    "aroc": ("sp", "kernel", "bnp"),
}
_DEFAULT_METHOD = {"pooled": "emp", "croc": "sp", "aroc": "sp"}

_APPROACH_LINES = {
    ("pooled", "emp"): "Pooled ROC curve (empirical)",
    ("pooled", "kernel"): "Pooled ROC curve (kernel-smoothed)",
    ("pooled", "bb"): "Pooled ROC curve (Bayesian bootstrap)",
    ("pooled", "dpm"): "Pooled ROC curve (Dirichlet process mixture)",
    ("croc", "sp"): "Covariate-specific ROC curve (induced linear model)",
    ("croc", "kernel"): "Covariate-specific ROC curve (local linear kernel)",
    ("croc", "bnp"): "Covariate-specific ROC curve (dependent mixture)",
    ("aroc", "sp"): "Covariate-adjusted ROC curve (healthy-model placements)",
    ("aroc", "kernel"): "Covariate-adjusted ROC curve (kernel placements)",
    ("aroc", "bnp"): "Covariate-adjusted ROC curve (dependent mixture placements)",
}


@dataclass
class RunConfig:
    """One resolved run; every field mirrors a CLI flag or INI key."""

    subcommand: str
    method: str | None = None
    data: str | None = None
    marker: str | None = None
    group: str | None = None
    tag: str | None = None
    formula_h: str | None = None
    formula_d: str | None = None
    covariate: str | None = None
    newdata: str | None = None
    grid_length: int | None = None
    pauc: bool | None = None
    pauc_focus: str | None = None
    pauc_value: float | None = None
    density: bool | None = None
    density_grid_length: int | None = None
    prior: dict = field(default_factory=dict)
    prior_h: dict = field(default_factory=dict)
    prior_d: dict = field(default_factory=dict)
    nsave: int | None = None
    nburn: int | None = None
    nskip: int | None = None
    B: int | None = None
    bw: str | None = None
    est_cdf: str | None = None
    standardise: bool | None = None
    seed: int = 2026
    workers: int = 1
    out: str | None = None
    curves_csv: str | None = None
    approach: str | None = None
    criterion: str = "yi"
    target_fpf: float | None = None
    n: int | None = None
    params: dict = field(default_factory=dict)

    def family(self) -> str:
        if self.subcommand == "threshold":
            return self.approach or "pooled"
        return self.subcommand

    def resolved_method(self) -> str:
        return self.method or _DEFAULT_METHOD[self.family()]

    def validate(self):
        if self.workers < 1:
            raise ConfigError("--workers must be >= 1, got %d" % self.workers)
        if self.seed < 0:
            raise ConfigError("--seed must be >= 0, got %d" % self.seed)
        if self.subcommand == "simulate":
            if not self.out:
                raise ConfigError("simulate needs --out for the CSV")
            if self.n is not None and self.n < 0:
                raise ConfigError("--n must be >= 0, got %d" % self.n)
            return
        if self.grid_length is not None and self.grid_length < 2:
            raise ConfigError("--grid-length must be >= 2, got %d" % self.grid_length)
        if self.density_grid_length is not None and self.density_grid_length < 1:
            raise ConfigError("--density-grid-length must be >= 1, got %d" % self.density_grid_length)
        for name in ("data", "marker", "group"):
            if not getattr(self, name):
                raise ConfigError("--%s is required for %s" % (name, self.subcommand))
        if self.tag is None:
            raise ConfigError("--tag is required for %s" % self.subcommand)
        fam = self.family()
        if fam not in _METHODS:
            raise ConfigError("approach must be pooled, croc or aroc")
        method = self.resolved_method()
        if method not in _METHODS[fam]:
            raise ConfigError(
                "method %r not valid for %s (choose from %s)" % (method, fam, ", ".join(_METHODS[fam]))
            )
        if fam == "croc":
            if not self.newdata:
                raise ConfigError("croc needs --newdata with the covariate rows to evaluate")
            if method in ("sp", "bnp") and not (self.formula_h and self.formula_d):
                raise ConfigError("croc with method %s needs --formula-h and --formula-d" % method)
            if method == "kernel" and not self.covariate:
                raise ConfigError("croc with the kernel method needs --covariate")
        if fam == "aroc":
            if method in ("sp", "bnp") and not self.formula_h:
                raise ConfigError("aroc needs --formula-h for the healthy regression")
            if method == "kernel" and not self.covariate:
                raise ConfigError("aroc with the kernel method needs --covariate")
        if self.subcommand == "threshold":
            if self.criterion not in ("yi", "fpf"):
                raise ConfigError("criterion must be yi or fpf")
            if self.criterion == "fpf" and self.target_fpf is None:
                raise ConfigError("criterion fpf needs --target-fpf")
            if fam == "aroc":
                if method != "bnp":
                    raise ConfigError("adjusted thresholds need posterior draws; use --method bnp")
                if not self.newdata:
                    raise ConfigError("adjusted thresholds need --newdata covariate rows")
                if self.criterion == "fpf":
                    raise ConfigError("adjusted thresholds support only the yi criterion")


# -- config assembly ----------------------------------------------------------

# each field's value type, read off its annotation: int, float, bool, dict or str
_KINDS = {f.name: f.type.split(" |")[0] for f in dataclasses.fields(RunConfig)}


def _pairs(text_or_list) -> dict:
    """Parse 'k=v' items (a list of them, or one comma-joined string)."""
    items = text_or_list if isinstance(text_or_list, list) else [
        part for part in str(text_or_list).split(",") if part.strip()
    ]
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError("expected key=value, got %r" % item)
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _ini_section(path: str, section: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (the B flag)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    except configparser.Error as exc:
        raise ConfigError("bad config file %s: %s" % (path, exc)) from None
    if section not in parser:
        return {}
    valid = {f.name for f in dataclasses.fields(RunConfig)} - {"subcommand"}
    folded = {v.lower(): v for v in valid}
    out = {}
    for key, value in parser[section].items():
        name = key.strip().replace("-", "_")
        if name not in valid:
            name = folded.get(name.lower())
            if name is None:
                raise ConfigError("unknown key %r in [%s] of %s" % (key, section, path))
        out[name] = value
    return out


def _coerce(name: str, value):
    if not isinstance(value, str):
        return value
    kind = _KINDS[name]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError:
        raise ConfigError("key %r needs a number, got %r" % (name, value)) from None
    if kind == "bool":
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError("key %r needs a boolean, got %r" % (name, value))
    if kind == "dict":
        return _pairs(value)
    return value


def _merge_config(subcommand: str, args: argparse.Namespace) -> RunConfig:
    ini = _ini_section(args.config, subcommand) if getattr(args, "config", None) else {}
    cfg = RunConfig(subcommand=subcommand)
    for f in dataclasses.fields(RunConfig):
        if f.name == "subcommand":
            continue
        cli_val = getattr(args, f.name, None)
        if _KINDS[f.name] == "dict":
            merged = dict(_coerce(f.name, ini[f.name])) if f.name in ini else {}
            if cli_val:
                merged.update(_pairs(cli_val))
            setattr(cfg, f.name, merged)
            continue
        if cli_val is not None:
            setattr(cfg, f.name, cli_val)
        elif f.name in ini:
            setattr(cfg, f.name, _coerce(f.name, ini[f.name]))
    cfg.validate()
    return cfg


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", help="INI file; section [%s]" % sp.prog.split()[-1])
    sp.add_argument("--data", help="study CSV path")
    sp.add_argument("--marker", help="marker column name")
    sp.add_argument("--group", help="disease label column name")
    sp.add_argument("--tag", help="label of the nondiseased group (text match)")
    sp.add_argument("--method", help="estimator")
    sp.add_argument("--formula-h", dest="formula_h", help="healthy regression formula")
    sp.add_argument("--formula-d", dest="formula_d", help="diseased regression formula")
    sp.add_argument("--covariate", help="covariate column for kernel methods")
    sp.add_argument("--newdata", help="CSV of covariate rows to evaluate at")
    sp.add_argument("--grid-length", dest="grid_length", type=int, help="FPF grid length (default 101)")
    sp.add_argument("--pauc", action=argparse.BooleanOptionalAction, default=None,
                    help="compute a partial area")
    sp.add_argument("--pauc-focus", dest="pauc_focus", choices=("fpf", "tpf"))
    sp.add_argument("--pauc-value", dest="pauc_value", type=float,
                    help="FPF upper bound or TPF lower bound")
    sp.add_argument("--density", action=argparse.BooleanOptionalAction, default=None,
                    help="emit posterior marker densities (dpm/bnp)")
    sp.add_argument("--density-grid-length", dest="density_grid_length", type=int)
    sp.add_argument("--prior", action="append", metavar="KEY=VALUE",
                    help="prior override for both groups (repeatable)")
    sp.add_argument("--prior-h", dest="prior_h", action="append", metavar="KEY=VALUE")
    sp.add_argument("--prior-d", dest="prior_d", action="append", metavar="KEY=VALUE")
    sp.add_argument("--nsave", type=int, help="posterior draws kept")
    sp.add_argument("--nburn", type=int, help="burn-in sweeps")
    sp.add_argument("--nskip", type=int, help="thinning interval")
    sp.add_argument("--B", type=int, help="bootstrap replicates (or Bayesian bootstrap draws)")
    sp.add_argument("--bw", choices=("srt", "lscv"), help="bandwidth rule for kernel methods")
    sp.add_argument("--est-cdf", dest="est_cdf", choices=("normal", "empirical"),
                    help="residual CDF model for sp methods")
    sp.add_argument("--standardise", action=argparse.BooleanOptionalAction, default=None,
                    help="standardise the marker before Bayesian fits (default on)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 2026)")
    sp.add_argument("--workers", type=int, help="thread pool size (results do not depend on it)")
    sp.add_argument("--out", help="write the result envelope JSON here")
    sp.add_argument("--curves-csv", dest="curves_csv", help="also write tidy curve rows (row,p,est,lo,hi)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rocinfer",
        description="ROC curve inference: pooled, covariate-specific, and covariate-adjusted.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("pooled", "croc", "aroc"):
        _add_common(sub.add_parser(name))
    thr = sub.add_parser("threshold")
    _add_common(thr)
    thr.add_argument("--approach", choices=("pooled", "croc", "aroc"),
                     help="which fitted curve the threshold sits on (default pooled)")
    thr.add_argument("--criterion", choices=("yi", "fpf"), default=None,
                     help="maximise the Youden index, or fix the FPF")
    thr.add_argument("--target-fpf", dest="target_fpf", type=float)
    sim = sub.add_parser("simulate")
    sim.add_argument("--config", help="INI file; section [simulate]")
    sim.add_argument("--n", type=int, help="rows to generate (default 2840)")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--param", dest="params", action="append", metavar="KEY=VALUE",
                     help="generator constant override (repeatable)")
    sim.add_argument("--out", help="CSV output path")
    return parser


# -- estimator dispatch -------------------------------------------------------

_DIAGONAL = ("S0", "Psi")  # matrix fields, given by their diagonals


def _override(cls, overrides: dict):
    """cls(**overrides), or None without overrides, each value parsed by its field's kind.

    An int field takes an integer; an array field takes numbers separated
    by `;` or `,`, as a vector or, for S0/Psi, a matrix diagonal; every
    other field takes one finite float. Unknown keys and values that do
    not parse raise ConfigError.
    """
    if not overrides:
        return None
    kinds = {f.name: getattr(f.type, "__name__", str(f.type)) for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, text in overrides.items():
        if key not in kinds:
            raise ConfigError("unknown %s field %r (it has %s)"
                              % (cls.__name__, key, ", ".join(kinds)))
        whole, array = kinds[key] == "int", "ndarray" in kinds[key]
        parts = str(text).replace(";", ",").split(",") if array else [str(text)]
        try:
            nums = [int(x) if whole else float(x) for x in parts if x.strip()]
        except ValueError:
            nums = []
        if not nums or not all(math.isfinite(x) for x in nums):
            raise ConfigError("%s field %r needs %s, got %r" % (cls.__name__, key, (
                "an integer" if whole else "finite numbers" if array else "a finite number"), text))
        if array:
            kwargs[key] = np.diag(nums) if key in _DIAGONAL else np.array(nums)
        else:
            kwargs[key] = nums[0]
    return cls(**kwargs)


def _given(**flags) -> dict:
    """The flags the user set, as keywords: an unset (None) one keeps the library default."""
    return {k: v for k, v in flags.items() if v is not None}


def _mcmc_of(cfg: RunConfig) -> McmcControl:
    return McmcControl(**_given(nsave=cfg.nsave, nburn=cfg.nburn, nskip=cfg.nskip))


def _pauc_of(cfg: RunConfig) -> PaucControl:
    compute = cfg.pauc if cfg.pauc is not None else (
        cfg.pauc_focus is not None or cfg.pauc_value is not None
    )
    return PaucControl(compute=bool(compute), **_given(focus=cfg.pauc_focus, value=cfg.pauc_value))


def _density_of(cfg: RunConfig) -> DensityControl:
    return DensityControl(compute=bool(cfg.density), **_given(grid_length=cfg.density_grid_length))


def _dispatch(cfg: RunConfig):
    """Run the configured estimator; returns (sample, fit result)."""
    fam = cfg.family()
    method = cfg.resolved_method()
    covs = [] if fam == "pooled" else None  # pooled reads marker and group only
    sample = ingest_csv(cfg.data, cfg.marker, cfg.group, cfg.tag, covariates=covs)
    common = {"p": FpfGrid.default(cfg.grid_length).p if cfg.grid_length else None,
              "pauc": _pauc_of(cfg), "rng": cfg.seed}
    boot = {**common, **_given(B=cfg.B), "workers": cfg.workers}
    bayes = {**common, "mcmc": _mcmc_of(cfg), "workers": cfg.workers,
             **_given(standardise_marker=cfg.standardise)}

    if fam == "pooled":
        if method == "emp":
            res = pooled_empirical(sample, **boot)
        elif method == "kernel":
            res = pooled_kernel(sample, **boot, **_given(bw=cfg.bw))
        elif method == "bb":
            res = pooled_bb(sample, **common, **_given(S=cfg.B))
        else:
            res = pooled_dpm(sample, prior_h=_override(DpmPrior, {**cfg.prior, **cfg.prior_h}),
                             prior_d=_override(DpmPrior, {**cfg.prior, **cfg.prior_d}),
                             density=_density_of(cfg), **bayes)
        return sample, res

    if fam == "croc":
        newdata = read_newdata(cfg.newdata)
        if method == "sp":
            res = croc_sp(cfg.formula_h, cfg.formula_d, sample, newdata, **boot,
                          **_given(est_cdf=cfg.est_cdf))
        elif method == "kernel":
            res = croc_kernel(sample, cfg.covariate, newdata, **boot, **_given(bw=cfg.bw))
        else:
            res = croc_bnp(cfg.formula_h, cfg.formula_d, sample, newdata,
                           prior_h=_override(DdpPrior, {**cfg.prior, **cfg.prior_h}),
                           prior_d=_override(DdpPrior, {**cfg.prior, **cfg.prior_d}),
                           density=_density_of(cfg), **bayes)
        return sample, res

    if method == "sp":
        variant = "sp_empirical" if cfg.est_cdf == "empirical" else "sp_normal"
        res = aroc_frequentist(sample, formula=cfg.formula_h, variant=variant, **boot)
    elif method == "kernel":
        res = aroc_frequentist(sample, covariate=cfg.covariate, variant="kernel", **boot,
                               **_given(bw=cfg.bw))
    else:
        res = aroc_bnp(sample, cfg.formula_h,
                       prior=_override(DdpPrior, {**cfg.prior, **cfg.prior_h}), **bayes)
    return sample, res


def _threshold_of(cfg: RunConfig, fit):
    """Returns (ThresholdResult, covariate frame the rows refer to or None)."""
    fam = cfg.family()
    if fam == "pooled":
        return pooled_threshold(fit, criterion=cfg.criterion, target_fpf=cfg.target_fpf), None
    if fam == "croc":
        return croc_threshold(fit, criterion=cfg.criterion, target_fpf=cfg.target_fpf), fit.newdata
    frame = read_newdata(cfg.newdata)
    return aroc_threshold(fit, frame), frame


# -- serialisation ------------------------------------------------------------

def _jsonable(x):
    """JSON-safe copy: arrays to lists (a bool, integer or finite float array by one
    `tolist()`), NaN and infinities to null."""
    if hasattr(x, "as_dict"):
        return _jsonable(x.as_dict())
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biu" or (x.dtype.kind == "f" and np.isfinite(x).all()):
            return x.tolist()
        return _jsonable(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if math.isfinite(v) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _frame_echo(frame) -> dict:
    return {name: col.values.tolist() for name, col in frame.columns.items()}


def _payload_of(cfg: RunConfig, sample, fit, thr=None, thr_frame=None) -> dict:
    fam = cfg.family()
    out = {
        "kind": cfg.subcommand,
        "approach": fam,
        "method": fit.method,
        "sample_sizes": {
            "healthy": int(fit.sample_sizes[0]),
            "diseased": int(fit.sample_sizes[1]),
            "dropped_missing": int(sample.missing),
        },
    }
    if thr is not None:
        out["criterion"] = thr.criterion
        if thr.target_fpf is not None:
            out["target_fpf"] = thr.target_fpf
        if thr_frame is not None:
            out["newdata"] = _frame_echo(thr_frame)
        out["threshold"] = thr.threshold
        out["fpf"] = thr.fpf
        out["tpf"] = thr.tpf
        if thr.yi is not None:
            out["yi"] = thr.yi
        if thr.sign is not None:
            out["sign"] = thr.sign
        return out

    out["p"] = fit.p
    if fam == "croc":
        out["newdata"] = _frame_echo(fit.newdata)
    if fam == "aroc":
        out["roc"] = {"est": fit.aroc_est, "lo": fit.aroc_lo, "hi": fit.aroc_hi}
        out["aauc"] = fit.aauc
        out["yi"] = fit.yi
        out["p_star"] = fit.p_star
        out["placements"] = fit.placements
    else:
        out["roc"] = {"est": fit.roc_est, "lo": fit.roc_lo, "hi": fit.roc_hi}
        out["auc"] = fit.auc
    if getattr(fit, "coefficients", None) is not None:
        out["coefficients"] = fit.coefficients
    if fit.pauc is not None:
        out["pauc"] = fit.pauc
    if getattr(fit, "densities", None) is not None:
        out["densities"] = fit.densities
    if getattr(fit, "bandwidths", None) is not None:
        out["bandwidths"] = fit.bandwidths
    if fit.fit is not None:
        out["fit"] = fit.fit
    return out


# -- text summary -------------------------------------------------------------

def _fmt(iv) -> str:
    d = iv.as_dict() if hasattr(iv, "as_dict") else iv
    return "%.3f (%.3f, %.3f)" % (d["est"], d["lo"], d["hi"])


def _pauc_label(d: dict) -> str:
    if d["focus"] == "fpf":
        return "pAUC (FPF in [0, %.3f], normalised)" % d["bound"]
    return "pAUC (TPF in [%.3f, 1], normalised)" % d["bound"]


def _row_label(frame, r: int) -> str:
    parts = []
    for name, col in frame.columns.items():
        v = col.values[r]
        parts.append("%s=%g" % (name, v) if not col.is_categorical else "%s=%s" % (name, v))
    return ", ".join(parts)


def _criteria_lines(fit_block) -> list:
    d = fit_block.as_dict()
    groups = [g for g in ("healthy", "diseased") if g in d]
    rows = [("WAIC", "waic"), ("WAIC penalty", "waic_penalty"), ("DIC", "dic"),
            ("DIC penalty", "dic_penalty"), ("LPML", "lpml")]
    lines = ["Model selection criteria:"]
    lines.append("  %-14s" % "" + "".join("%14s" % g for g in groups))
    for label, key in rows:
        lines.append("  %-14s" % label + "".join("%14.3f" % d[g][key] for g in groups))
    return lines


def _summary_lines(cfg: RunConfig, sample, fit, thr=None, thr_frame=None) -> list:
    fam = cfg.family()
    lines = ["Approach: " + _APPROACH_LINES[(fam, cfg.resolved_method())]]
    if thr is not None:
        if thr.criterion == "yi":
            lines.append("Criterion: Youden index maximum")
        else:
            lines.append("Criterion: fixed FPF %.3f" % thr.target_fpf)
        for r in range(len(thr.threshold)):
            tag = "  row %d (%s): " % (r, _row_label(thr_frame, r)) if thr_frame is not None else "  "
            piece = "threshold %s, FPF %s, TPF %s" % (
                _fmt(thr.threshold[r]), _fmt(thr.fpf[r]), _fmt(thr.tpf[r]))
            if thr.yi is not None:
                piece += ", YI %s" % _fmt(thr.yi[r])
            lines.append(tag + piece)
    elif fam == "pooled":
        lines.append("AUC: " + _fmt(fit.auc))
        if fit.pauc is not None:
            lines.append("%s: %s" % (_pauc_label(fit.pauc.as_dict()), _fmt(fit.pauc)))
    elif fam == "croc":
        show = min(fit.newdata.n, 12)
        for r in range(show):
            line = "AUC at row %d (%s): %s" % (r, _row_label(fit.newdata, r), _fmt(fit.auc[r]))
            if fit.pauc is not None:
                line += "; %s: %s" % (_pauc_label(fit.pauc[r].as_dict()), _fmt(fit.pauc[r]))
            lines.append(line)
        if fit.newdata.n > show:
            lines.append("  ... %d further rows in the JSON payload" % (fit.newdata.n - show))
    else:
        lines.append("AAUC: " + _fmt(fit.aauc))
        if fit.pauc is not None:
            lines.append("%s: %s" % (_pauc_label(fit.pauc.as_dict()), _fmt(fit.pauc)))
        lines.append("Youden index: %s at FPF %s" % (_fmt(fit.yi), _fmt(fit.p_star)))
    if thr is None and fit.fit is not None:
        lines.extend(_criteria_lines(fit.fit))
    lines.append("Sample sizes: healthy %d, diseased %d (dropped %d rows with missing values)"
                 % (fit.sample_sizes[0], fit.sample_sizes[1], sample.missing))
    return lines


def _write_curves_csv(path: str, payload: dict):
    """Tidy curve rows (row, p, est, lo, hi) of a payload's `roc` block, one row per newdata
    row for croc and row 0 otherwise."""
    est, lo, hi = (np.atleast_2d(payload["roc"][key]) for key in ("est", "lo", "hi"))
    rows = ["row,p,est,lo,hi"] + ["%d,%.10g,%.10g,%.10g,%.10g" % (r, pj, *ends)
                                  for r in range(len(est))
                                  for pj, *ends in zip(payload["p"], est[r], lo[r], hi[r])]
    with open(path, "wb") as fh:
        fh.write(("\n".join(rows) + "\n").encode("utf-8"))


# -- envelope and entry points ------------------------------------------------

@dataclass
class ResultEnvelope:
    schema_version: int
    config: dict
    timing: dict
    warnings: list
    payload: dict

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "timing": self.timing,
            "warnings": self.warnings,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        """The envelope as JSON; `run` made its config and payload JSON-safe already."""
        return json.dumps(self.as_dict(), indent=2, allow_nan=False)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _keep_freed_memory():
    """Fix glibc's malloc thresholds at the values its own rule raises them to at most.

    A resampling walk allocates and frees the same 0.1-3 MB arrays once
    per 64-member block. glibc maps an allocation above its mmap
    threshold (128 KB at start) afresh, and returns a free heap top
    above its trim threshold to the kernel, so each block faults its
    pages in again: about 40,000 page faults in a `pooled --method emp
    --B 2000` fit. glibc raises both thresholds only after it frees a
    larger mapping, so a fit's speed also depended on what ran before it
    in the process. At 32 MB (the most that rule reaches) and 64 MB
    (twice that, as the rule sets it), the arrays stay in the heap.
    Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def run(cfg: RunConfig, echo: bool = True) -> ResultEnvelope:
    """Fit, package, and emit one configured analysis."""
    cfg.validate()
    _keep_freed_memory()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample, fit = _dispatch(cfg)
        thr, thr_frame = _threshold_of(cfg, fit) if cfg.subcommand == "threshold" else (None, None)
    elapsed = time.perf_counter() - start
    notes = sorted({str(w.message) for w in caught})
    if cfg.curves_csv and cfg.subcommand == "threshold":
        notes.append("curves CSV skipped: threshold results carry no curve")
    payload = _payload_of(cfg, sample, fit, thr, thr_frame)
    envelope = ResultEnvelope(
        schema_version=SCHEMA_VERSION,
        config=_jsonable(dataclasses.asdict(cfg)),
        timing={"seconds": elapsed},
        warnings=notes,
        payload=_jsonable(payload),
    )
    if cfg.out:
        with open(cfg.out, "wb") as fh:
            fh.write((envelope.to_json() + "\n").encode("utf-8"))
    if cfg.curves_csv and cfg.subcommand != "threshold":
        _write_curves_csv(cfg.curves_csv, payload)
    if echo:
        print("\n".join(_summary_lines(cfg, sample, fit, thr, thr_frame)))
    return envelope


def _run_simulate(cfg: RunConfig):
    n = cfg.n if cfg.n is not None else 2840
    text = simulate_endosyn_like(n, cfg.seed, _override(GeneratorParams, cfg.params))
    with open(cfg.out, "wb") as fh:
        fh.write(text.encode("utf-8"))
    print("wrote %d rows to %s" % (n, cfg.out))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.subcommand, args)
        if cfg.subcommand == "simulate":
            _run_simulate(cfg)
        else:
            run(cfg)
    except RocinferError as exc:
        print("rocinfer: %s" % exc, file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
