"""ROC curve inference: pooled, covariate-specific, and covariate-adjusted.

Estimators come in frequentist and Bayesian nonparametric flavours and
share one reporting vocabulary: curves on an FPF grid with pointwise
bands, areas (full and partial) with intervals, Youden-optimal
thresholds, and model-fit criteria for the Bayesian fits.
"""

from .adjusted import ArocResult, aroc_bnp, aroc_frequentist, aroc_threshold
from .conditional import CRocResult, croc_bnp, croc_kernel, croc_sp, croc_threshold, croc_tnf
from .design import build_design, parse_formula
from .diagnostics import (
    FitCriteria,
    criteria_from_draws,
    effective_sample_size,
    predictive_checks,
    quantile_residuals,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    RocinferError,
    RocinferWarning,
)
from .generate import GeneratorParams, simulate_endosyn_like
from .ingest import ingest_csv, read_newdata
from .mixtures import DdpPrior, DpmPrior, McmcControl, fit_ddp, fit_dpm
from .pooled import (
    DensityControl,
    PaucControl,
    RocResult,
    pooled_bb,
    pooled_dpm,
    pooled_empirical,
    pooled_kernel,
    pooled_threshold,
    pooled_tnf,
)
from .sample import Column, DiagnosticSample, FpfGrid, PredictionFrame, standardise
from .streams import RngStream
from .summaries import Interval, ThresholdResult, mw_auc

__version__ = "0.1.0"

__all__ = [
    "ArocResult",
    "CRocResult",
    "Column",
    "ConfigError",
    "DataError",
    "DdpPrior",
    "DensityControl",
    "DiagnosticSample",
    "DpmPrior",
    "FitCriteria",
    "FpfGrid",
    "GeneratorParams",
    "Interval",
    "McmcControl",
    "NumericError",
    "PaucControl",
    "PredictionFrame",
    "RngStream",
    "RocResult",
    "RocinferError",
    "RocinferWarning",
    "ThresholdResult",
    "aroc_bnp",
    "aroc_frequentist",
    "aroc_threshold",
    "build_design",
    "criteria_from_draws",
    "croc_bnp",
    "croc_kernel",
    "croc_sp",
    "croc_threshold",
    "croc_tnf",
    "effective_sample_size",
    "fit_ddp",
    "fit_dpm",
    "ingest_csv",
    "mw_auc",
    "parse_formula",
    "pooled_bb",
    "pooled_dpm",
    "pooled_empirical",
    "pooled_kernel",
    "pooled_threshold",
    "pooled_tnf",
    "predictive_checks",
    "quantile_residuals",
    "read_newdata",
    "simulate_endosyn_like",
    "standardise",
]
