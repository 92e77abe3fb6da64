"""Covariate-specific ROC curves.

The induced estimators share one transport pattern: model each group's
marker as mean(x) + scale(x) * error, then push healthy error quantiles
through the diseased error distribution,

    ROC(p | x) = 1 - F_D{ a(x) + b(x) Q_H(1 - p) }.

The linear engine fits ordinary least squares per group with normal or
empirical residual CDFs, the kernel engine fits local mean/variance
functions of one continuous covariate, and the Bayesian engine puts a
shared-weights normal-mixture posterior over regression surfaces. All
three report curves, AUC and optional partial areas per prediction row.

Each fit keeps one function from a prediction frame to (plug-in pair,
ensemble) fits, an ensemble being a list of healthy/diseased CDF stack
pairs (see `pooled`): location-scale stacks over a normal or
residual-step error law whose members end in a prediction-row axis for
the induced models (all rows in one fit, one pair per bootstrap block),
one pair of conditional mixture stacks per row for the Bayesian one (one
fit per row). Curves, areas, reverse curves and thresholds are all read
off those stacks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .design import build_design, parse_formula, spec_is_linear
from .diagnostics import FitCriteria, raw_scale_criteria
from .errors import (
    ConfigError,
    MissingColumnError,
    NoLocalDataError,
    RankDeficientError,
    RocinferWarning,
    TooFewPointsError,
    ZeroVarianceError,
)
from .mixtures import McmcControl, fit_ddp
from .pooled import (
    DensityControl,
    LocScaleStack,
    NormalStack,
    PaucControl,
    StepStack,
    _bootstrap_stream,
    _draw_counts,
    _fit_groups,
    _grid_of,
    _reverse_curve,
    _stream_of,
    _summarise_rows,
    _thresholds,
    case_bootstrap,
    mixture_stack,
)
from .sample import Column, DiagnosticSample, PredictionFrame, column_from_values, split_groups, standardise
from .smoothing import bandwidth_block, fit_by_rule, fit_location_scale
from .streams import parallel_map
from .summaries import (
    ThresholdResult,
    interval_from,
    intervals,
    mixture_auc_closed,
    plugin_first,
    summarise,
)

@dataclass
class CRocResult:
    """Conditional curve estimates, one block of summaries per prediction row."""

    method: str
    p: np.ndarray
    newdata: PredictionFrame
    roc_est: np.ndarray  # (rows, len(p))
    roc_lo: np.ndarray
    roc_hi: np.ndarray
    auc: list  # Interval per prediction row
    pauc: list | None
    coefficients: dict | None
    sample_sizes: tuple
    fit: FitCriteria | None = None
    densities: dict | None = None
    bandwidths: dict | None = None  # kernel fits: `smoothing.bandwidth_block`
    internals: dict = field(default_factory=dict, repr=False, compare=False)


def _frame_of(newdata) -> PredictionFrame:
    if isinstance(newdata, PredictionFrame):
        return newdata
    if isinstance(newdata, dict):
        cols = {
            k: (v if isinstance(v, Column) else column_from_values(v))
            for k, v in newdata.items()
        }
        return PredictionFrame(cols)
    raise ConfigError("newdata must be a PredictionFrame or a dict of columns")


def _spec_of(formula):
    return parse_formula(formula) if isinstance(formula, str) else formula


# -- induced location-scale transport -----------------------------------------

@dataclass(frozen=True)
class LinearFit:
    """Least-squares location-scale fit: mean z'beta, constant scale sigma.

    A block fit, and its `at`, have one row of each per bootstrap replicate.
    """

    beta: np.ndarray
    sigma: np.ndarray
    residuals: np.ndarray  # standardised, ascending
    cumw = None  # each residual weighs 1/n

    def at(self, Z):
        return (Z @ self.beta[..., None])[..., 0], self.sigma[..., None]


def _ols_fit(Z, y, idx=None) -> LinearFit:
    """Least-squares fit of y (n,) on the design Z, or one fit per row of a block (b, n).

    A block of responses y is one multi-right-hand-side solve on Z. A block of row indices
    idx fits each case resample (Z[i], y[i]) as Z weighted by the counts c = bincount(i):
    one stacked solve of the normal equations C = sum c_r z_r z_r'. A resample is rank
    deficient when a column of Z[i] is zero (it drew no row of a factor level) or when its C
    scaled to unit diagonal has an eigenvalue at or below n k eps. The residual scale counts
    as zero at or below n eps max|y|, the rounding noise of an exact fit.
    """
    n, k = Z.shape
    if n <= k:
        raise TooFewPointsError("need more observations than coefficients")
    if idx is None:
        beta, _, rank, _ = np.linalg.lstsq(Z, y.T, rcond=None)
        if rank < k:
            raise RankDeficientError("design matrix is rank deficient")
        beta = beta.T
        resid = y - (Z @ beta[..., None])[..., 0]
    else:
        counts = _draw_counts(idx)
        C = (counts @ (Z[:, :, None] * Z[:, None, :]).reshape(n, k * k)).reshape(-1, k, k)
        d = np.sqrt(np.diagonal(C, axis1=1, axis2=2))
        if np.any(d == 0.0) or np.any(np.linalg.eigvalsh(
                C / (d[:, :, None] * d[:, None, :]))[:, 0] <= n * k * np.finfo(float).eps):
            raise RankDeficientError("design matrix is rank deficient")
        beta = np.linalg.solve(C, (counts @ (Z * y[:, None]))[..., None])[..., 0]
        y = y[idx]
        resid = y - np.take_along_axis(beta @ Z.T, idx, axis=1)
    sigma = np.sqrt(np.vecdot(resid, resid) / (n - k))
    if np.any(sigma <= n * np.finfo(float).eps * np.abs(y).max(axis=-1)):
        raise ZeroVarianceError("regression residuals have zero scale")
    return LinearFit(beta, sigma, np.sort(resid / sigma[..., None], axis=-1))


def _coef_table(labels, coef, name, scale, plugin: bool) -> dict:
    """Per-label coefficient intervals plus a scale interval under `name`.

    coef has one row and scale one value per member. With plugin, member
    0 is the plug-in fit and members 1.. the bootstrap replicates;
    otherwise all are posterior draws (see `summarise`).
    """
    return {"labels": list(labels), "values": intervals(**plugin_first(coef, plugin)),
            name: interval_from(**plugin_first(scale, plugin))}


def _induced_tables(labels, coef_h, coef_d, sig_h, sig_d, plugin: bool, ind_map=None) -> dict:
    """The induced model's a = (beta_H - beta_D) / sigma_D and b = sigma_H / sigma_D,
    and the reverse curve's (-a / b, 1 / b); ind_map takes a to another design basis."""
    ind = (coef_h - coef_d) / sig_d[:, None]
    if ind_map is not None:
        ind = ind @ ind_map.T
    brat = sig_h / sig_d
    return {"induced": _coef_table(labels, ind, "b", brat, plugin),
            "induced_tnf": _coef_table(labels, -ind / brat[:, None], "b", 1.0 / brat, plugin)}


def _induced_model(groups, inputs_of, base, B: int, stream, workers: int):
    """Residual bootstrap and CDF stacks of an induced location-scale model.

    groups holds each group's (plug-in fit, training inputs, refit). A fit
    has ascending standardised `residuals` and `at(inputs) -> (mean,
    scale)`; refit(inputs, Y) fits the same model to each row of a block
    of responses Y (b, n), the fitted means plus the fitted scales times
    resampled residuals, as a block fit (one row per replicate). Returns
    the block fits (a tuple per block, blocks on `workers` threads) and
    stacks(frame): the plug-in pair and the ensemble, one stack pair per
    block (or None), over all prediction rows, whose inputs per group are
    inputs_of(frame). base(residuals) gives the error-law stack.
    """
    fitted = [(X, refit, *fit.at(X), fit.residuals) for fit, X, refit in groups]

    def replicate(*idx):
        return tuple(refit(X, mu + sd * e[i]) for (X, refit, mu, sd, e), i in zip(fitted, idx))

    boot = case_bootstrap(replicate, stream, B, [e.size for *_, e in fitted], workers)

    def pair(fits, inputs):
        """Both groups' stacks over a plug-in or block fit, members first."""
        return tuple(LocScaleStack(*fit.at(x), base(fit.residuals)) for fit, x in zip(fits, inputs))

    def stacks(frame):
        inputs = inputs_of(frame)
        return [(pair([fit for fit, _, _ in groups], inputs),
                 [pair(block, inputs) for block in boot] or None)]

    return boot, stacks


def _conditional_result(method, stacks, newdata, grid, ctrl, split, workers=1, fits=None,
                        aucs=None, coefficients=None, **extra) -> CRocResult:
    """A conditional fit's result on its prediction rows.

    fits, by default stacks(newdata), are (plug-in, ensemble) fits whose
    rows follow one another. Each is summarised by `_summarise_rows` on
    `workers` threads, with aucs[i], when given, as fit i's closed-form
    member AUCs, and the rows are concatenated. split gives the sample
    sizes and the marker values of the threshold grid.
    """
    fits = stacks(newdata) if fits is None else fits
    parts = parallel_map(lambda i: _summarise_rows(*fits[i], grid, ctrl, aucs and aucs[i])[0],
                         range(len(fits)), workers)
    fields = {key: np.concatenate([f[key] for f in parts])
              for key in ("roc_est", "roc_lo", "roc_hi")}
    fields["auc"] = [iv for f in parts for iv in f["auc"]]
    fields["pauc"] = [iv for f in parts for iv in f["pauc"]] if ctrl.compute else None
    return CRocResult(method=method, p=grid, newdata=newdata, **fields, coefficients=coefficients,
                      sample_sizes=(split.n_h, split.n_d),
                      internals={"stacks": stacks,
                                 "y": np.concatenate([split.healthy, split.diseased])}, **extra)


# -- linear induced model ------------------------------------------------------

def croc_sp(formula_h, formula_d, sample: DiagnosticSample, newdata,
            est_cdf: str = "normal", p=None, pauc: PaucControl | None = None,
            B: int = 500, rng=None, workers: int = 1) -> CRocResult:
    """Least-squares induced model, one fit per group.

    The error CDF is either the standard normal or the empirical CDF of
    the standardised residuals, used in both the quantile and the
    distribution role. Uncertainty comes from B residual-bootstrap
    replicates: standardised residuals are resampled within group, the
    responses rebuilt at the fitted means, and both fits repeated.
    """
    est_cdf = est_cdf.lower()
    if est_cdf not in ("normal", "empirical"):
        raise ConfigError("est_cdf must be 'normal' or 'empirical'")
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    ctrl = pauc or PaucControl()
    newdata = _frame_of(newdata)
    spec_h, spec_d = _spec_of(formula_h), _spec_of(formula_d)

    split = split_groups(sample)
    Zh, labels_h, fitted_h = build_design(split.healthy_cov, spec_h)
    Zd, labels_d, fitted_d = build_design(split.diseased_cov, spec_d)

    def design_rows(frame):
        return fitted_h.rows(frame), fitted_d.rows(frame)

    design_rows(newdata)  # reject unusable prediction rows before fitting
    fit_h, fit_d = _ols_fit(Zh, split.healthy), _ols_fit(Zd, split.diseased)
    base = StepStack if est_cdf == "empirical" else lambda _: NormalStack()
    boot, stacks = _induced_model(((fit_h, Zh, _ols_fit), (fit_d, Zd, _ols_fit)), design_rows,
                                  base, B, stream, workers)

    # row 0 is the plug-in fit, rows 1..B the bootstrap replicates
    fits = [(fit_h, fit_d)] + boot
    bh, bd = (np.concatenate([np.atleast_2d(f[g].beta) for f in fits]) for g in (0, 1))
    sh, sd_ = (np.concatenate([np.atleast_1d(f[g].sigma) for f in fits]) for g in (0, 1))

    coefficients = {
        "healthy": _coef_table(labels_h, bh, "sigma", sh, plugin=True),
        "diseased": _coef_table(labels_d, bd, "sigma", sd_, plugin=True),
        "scale_basis": "original",
    }
    if (spec_is_linear(spec_h) and spec_is_linear(spec_d)
            and list(labels_h) == list(labels_d)
            and fitted_h.levels == fitted_d.levels):
        coefficients.update(_induced_tables(labels_h, bh, bd, sh, sd_, plugin=True))

    return _conditional_result("sp-" + est_cdf, stacks, newdata, grid, ctrl, split,
                               coefficients=coefficients)


# -- kernel induced model ------------------------------------------------------

def croc_kernel(sample: DiagnosticSample, covariate: str, newdata,
                bw: str = "lscv", p=None, pauc: PaucControl | None = None,
                B: int = 500, rng=None, workers: int = 1) -> CRocResult:
    """Local-smoother induced model for a single continuous covariate.

    Sequential mean and variance fits per group give a(x) and b(x);
    the error CDFs are always the empirical CDFs of the standardised
    residuals. Bootstrap replicates keep the original bandwidths.
    Prediction points must sit inside both groups' covariate ranges.
    """
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    ctrl = pauc or PaucControl()
    newdata = _frame_of(newdata)

    if covariate not in sample.covariates:
        raise MissingColumnError("covariate %r not in the sample" % covariate)
    if sample.covariates[covariate].is_categorical:
        raise ConfigError("the kernel estimator needs one continuous covariate")
    split = split_groups(sample)
    x_h = np.asarray(split.healthy_cov[covariate].values, dtype=float)
    x_d = np.asarray(split.diseased_cov[covariate].values, dtype=float)

    def points(frame):
        """Covariate values of the prediction rows, inside both groups' ranges."""
        if covariate not in frame.columns:
            raise MissingColumnError("newdata lacks column %r" % covariate)
        x0 = np.asarray(frame.columns[covariate].values, dtype=float)
        for xg, name in ((x_h, "healthy"), (x_d, "diseased")):
            if x0.size and (x0.min() < xg.min() or x0.max() > xg.max()):
                raise NoLocalDataError(
                    "prediction points leave the %s covariate range [%g, %g]"
                    % (name, xg.min(), xg.max())
                )
        return x0

    points(newdata)  # reject unusable prediction rows before fitting
    fits = {name: fit_by_rule(x, y, bw, name)
            for name, x, y in (("healthy", x_h, split.healthy), ("diseased", x_d, split.diseased))}
    # each group's own x, at which its plug-in fit returns the mean and scale it kept
    groups = [(fit, fit.x, partial(fit_location_scale, bw_mean=fit.bw_mean, bw_var=fit.bw_var))
              for fit in fits.values()]
    _, stacks = _induced_model(groups, lambda frame: (points(frame),) * 2, StepStack,
                               B, stream, workers)

    return _conditional_result("kernel", stacks, newdata, grid, ctrl, split,
                               bandwidths=bandwidth_block(fits))


# -- Bayesian dependent-mixture model -------------------------------------------

def _destandardise_map(Z_raw, Z_std):
    """Matrix A with Z_std ~= Z_raw @ A, plus the worst reconstruction error."""
    A, _, _, _ = np.linalg.lstsq(Z_raw, Z_std, rcond=None)
    err = float(np.max(np.abs(Z_raw @ A - Z_std)))
    return A, err


def _bnp_coefficients(split_raw, std, fitted_h, fitted_d, Zh, Zd, draws_h, draws_d) -> dict:
    labels_h, labels_d = fitted_h.labels, fitted_d.labels
    beta_h, beta_d = draws_h.beta[:, 0, :], draws_d.beta[:, 0, :]
    sig_h, sig_d = np.sqrt(draws_h.sigma2[:, 0]), np.sqrt(draws_d.sigma2[:, 0])
    gam_h, gam_d, sraw_h, sraw_d, ind_map = beta_h, beta_d, sig_h, sig_d, None
    basis = "original"
    if std.enabled:
        Zraw_h = build_design(split_raw.healthy_cov, fitted_h.spec, fitted_h, scales={})[0]
        Zraw_d = build_design(split_raw.diseased_cov, fitted_d.spec, fitted_d, scales={})[0]
        A_h, err_h = _destandardise_map(Zraw_h, Zh)
        A_d, err_d = _destandardise_map(Zraw_d, Zd)
        if max(err_h, err_d) <= 1e-8:
            s_y, m_y = std.marker_sd, std.marker_mean
            gam_h = s_y * (beta_h @ A_h.T)
            gam_h[:, 0] += m_y
            gam_d = s_y * (beta_d @ A_d.T)
            gam_d[:, 0] += m_y
            sraw_h, sraw_d = s_y * sig_h, s_y * sig_d
            ind_map = A_h
        else:
            warnings.warn(
                "standardised design is not an affine image of the raw design; "
                "coefficient summaries stay on the standardised scale",
                RocinferWarning,
            )
            basis = "standardised"

    out = {
        "healthy": _coef_table(labels_h, gam_h, "sigma", sraw_h, plugin=False),
        "diseased": _coef_table(labels_d, gam_d, "sigma", sraw_d, plugin=False),
        "scale_basis": basis,
    }
    if list(labels_h) == list(labels_d) and fitted_h.levels == fitted_d.levels:
        out.update(_induced_tables(labels_h, beta_h, beta_d, sig_h, sig_d, False, ind_map))
    return out


def croc_bnp(formula_h, formula_d, sample: DiagnosticSample, newdata,
             prior_h=None, prior_d=None, mcmc: McmcControl | None = None,
             p=None, pauc: PaucControl | None = None,
             density: DensityControl | None = None, rng=None,
             standardise_marker: bool = True, workers: int = 1) -> CRocResult:
    """Shared-weights normal-mixture posterior per group.

    Marker and continuous covariates are standardised over the combined
    sample before fitting; curve inversion runs per draw and prediction
    row. Each draw's AUC is the closed-form double sum over the two
    conditional mixtures; partial areas use Simpson on each draw's
    curve. Fit criteria are reported on the original marker scale, and
    with one component and a purely linear design the coefficient
    summaries are mapped back to the original scales as well.
    """
    stream = _stream_of(rng)
    grid = _grid_of(p)
    ctrl = pauc or PaucControl()
    density = density or DensityControl()
    mcmc = mcmc or McmcControl()
    newdata = _frame_of(newdata)
    spec_h, spec_d = _spec_of(formula_h), _spec_of(formula_d)

    std_sample, std = standardise(sample, enable=standardise_marker)
    split_std, split_raw = split_groups(std_sample), split_groups(sample)
    Zh, _, fitted_h = build_design(split_raw.healthy_cov, spec_h, scales=std.covariates)
    Zd, _, fitted_d = build_design(split_raw.diseased_cov, spec_d, scales=std.covariates)
    zh, zd = fitted_h.rows(newdata), fitted_d.rows(newdata)  # rejects unusable rows before fitting
    draws = draws_h, draws_d = _fit_groups(fit_ddp, [((split_std.healthy, Zh), prior_h),
                                                     ((split_std.diseased, Zd), prior_d)],
                                           mcmc, stream, workers)

    def row_means(zh, zd):
        """Per prediction row, each group's (draws, components) conditional means."""
        return [(draws_h.conditional_means(a), draws_d.conditional_means(b))
                for a, b in zip(zh, zd)]

    def fits_of(means):
        """One fit per prediction row, which bounds the (draws, grid) arrays."""
        return [(None, [tuple(mixture_stack(d.weights, mu, d.sigma2, std)
                              for d, mu in zip(draws, m))]) for m in means]

    def stacks(frame):
        return fits_of(row_means(fitted_h.rows(frame), fitted_d.rows(frame)))

    means = row_means(zh, zd)
    fits = fits_of(means)
    # a shared location-scale map leaves the AUC unchanged, so the fitting-scale mixtures give it
    sd_h, sd_d = np.sqrt(draws_h.sigma2), np.sqrt(draws_d.sigma2)
    aucs = [mixture_auc_closed(draws_h.weights, mh, sd_h, draws_d.weights, md, sd_d)
            for mh, md in means]

    densities = None
    if density.compute:
        dens_grid = np.linspace(float(sample.marker.min()), float(sample.marker.max()),
                                density.grid_length)
        # per row, each group's marker density (est, lo, hi) on the density grid
        rows = parallel_map(lambda fit: [summarise(s.pdf(dens_grid)) for s in fit[1][0]],
                            fits, workers)
        densities = {"grid": dens_grid, **{
            name: dict(zip(("est", "lo", "hi"), map(np.stack, zip(*(r[g] for r in rows)))))
            for g, name in enumerate(("healthy", "diseased"))}}

    coefficients = None
    if (draws_h.prior.L == 1 and draws_d.prior.L == 1
            and spec_is_linear(spec_h) and spec_is_linear(spec_d)):
        coefficients = _bnp_coefficients(split_raw, std, fitted_h, fitted_d, Zh, Zd, *draws)

    return _conditional_result("bnp", stacks, newdata, grid, ctrl, split_raw, workers, fits=fits,
                               aucs=aucs, coefficients=coefficients, densities=densities,
                               fit=raw_scale_criteria(std, draws_h, draws_d))


# -- reverse-orientation curves and thresholds ----------------------------------

def croc_tnf(result: CRocResult, p=None) -> np.ndarray:
    """Point estimate of the reverse-orientation curve per prediction row.

    Plug-in fits give it directly; the Bayesian fit averages the draws.
    """
    return _reverse_curve(result, p, result.newdata).reshape(result.newdata.n, -1)


def croc_threshold(result: CRocResult, criterion: str = "yi",
                   target_fpf: float | None = None, newdata=None) -> ThresholdResult:
    """Optimal covariate-specific thresholds on the original marker scale.

    'yi' maximises |F_H(c|x) - F_D(c|x)| over a shared 500-point
    threshold grid per prediction row; 'fpf' returns the healthy
    conditional quantile at 1 - target_fpf with its attached TPF.
    Intervals reuse whatever ensemble the fit carries (bootstrap
    replicates or posterior draws).
    """
    frame = result.newdata if newdata is None else _frame_of(newdata)
    return _thresholds(result, criterion, target_fpf, frame)
