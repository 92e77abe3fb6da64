"""Covariate-adjusted ROC curves.

Three-step construction: model the marker in the healthy group as a
function of covariates, compute each diseased subject's placement value
(the healthy conditional survival at their marker),

    U_Dj = 1 - F_H(y_Dj | x_Dj),

then read the curve off the placement-value distribution,
AROC(p) = P{U_D <= p}. Frequentist variants plug in the linear or
kernel healthy fit with an empirical placement distribution; the
Bayesian variant pairs a healthy-group mixture posterior with
exchangeable Dirichlet weights over the diseased placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .conditional import _frame_of, _ols_fit, _spec_of
from .design import build_design
from .diagnostics import FitCriteria, raw_scale_criteria
from .errors import ConfigError, MissingColumnError, MissingDrawsError
from .mixtures import McmcControl, fit_ddp
from .pooled import (
    _CHAIN_H,
    _WEIGHTS_STREAM,
    MemberRows,
    PaucControl,
    PaucSummary,
    _bootstrap_stream,
    _draw_counts,
    _grid_of,
    _member_blocks,
    _stream_of,
    case_bootstrap,
    mixture_stack,
)
from .sample import DiagnosticSample, split_groups, standardise
from .smoothing import bandwidth_block, fit_by_rule, fit_location_scale
from .streams import dirichlet
from .summaries import (
    Interval,
    ThresholdResult,
    ecdf_eval,
    ecdf_quantile,
    interval_from,
    pauc_normalise,
    placement_areas,
    plugin_first,
    summarise,
)

_VARIANTS = ("sp_normal", "sp_empirical", "kernel")


@dataclass
class ArocResult:
    """Adjusted-curve estimates: one pooled-looking curve, placement-based."""

    method: str
    p: np.ndarray
    aroc_est: np.ndarray
    aroc_lo: np.ndarray
    aroc_hi: np.ndarray
    aauc: Interval
    pauc: PaucSummary | None
    yi: Interval
    p_star: Interval
    placements: np.ndarray  # one per diseased subject (posterior mean for bnp)
    sample_sizes: tuple
    fit: FitCriteria | None = None
    bandwidths: dict | None = None  # kernel variant: `smoothing.bandwidth_block`
    internals: dict = field(default_factory=dict, repr=False, compare=False)


def _placement_rows(U, q, grid, ctrl: PaucControl) -> dict:
    """Curve, aAUC, pAUC (or None), YI and p* for every row of placements, by those names.

    U holds one row of placements per member (plug-in, bootstrap
    replicate or posterior draw) and q the matching weight rows, or None
    for equal weights 1/n; a member's values read its own rows alone, so
    a block of members gets its rows of the whole stack's. The curve is
    the right-continuous AROC(p) = sum q 1[U <= p] with exact 0/1
    endpoints, the areas are the
    placement closed forms, and the Youden index max_p {AROC(p) - p}
    sits at a jump, clamped at 0. Rows sort by `np.sort` (tied placements
    are equal), weighted rows by a stable argsort that fixes their cumsums.
    """
    n = U.shape[1]
    if q is None:
        u_sorted, cum = np.sort(U, axis=1), np.arange(1, n + 1) / n
    else:
        order = np.argsort(U, axis=1, kind="stable")
        u_sorted = np.take_along_axis(U, order, axis=1)
        cum = np.cumsum(np.take_along_axis(q, order, axis=1), axis=1)
        del order

    curves = ecdf_eval(u_sorted, grid, cum)
    curves[:, grid == 0.0] = 0.0
    curves[:, grid == 1.0] = 1.0

    gaps = cum - u_sorted
    k = np.argmax(gaps, axis=1)[:, None]
    gap = np.take_along_axis(gaps, k, axis=1)[:, 0]
    yi = np.where(gap > 0.0, gap, 0.0)
    p_star = np.where(gap > 0.0, np.take_along_axis(u_sorted, k, axis=1)[:, 0], 0.0)
    del gaps

    # the adjusted curve has no reverse placements, so its TPF area stays here
    aauc, pauc = placement_areas(U, q, ctrl if ctrl.focus == "fpf" else None)
    if ctrl.compute and ctrl.focus == "tpf":
        v = ctrl.value
        # c = inf{p: AROC(p) >= v}; the area is sum q (1 - max(c, U)) - (1 - c) v
        c = ecdf_quantile(u_sorted, v, cum)[:, None]
        X = 1.0 - np.maximum(c, U) - (1.0 - c) * v
        raw = X.mean(axis=1) if q is None else np.einsum("rn,rn->r", q, X)
        pauc = pauc_normalise(raw, "tpf", v)
    return {"curves": curves, "aauc": aauc, "pauc": pauc, "yi": yi, "p_star": p_star}


def _summary_fields(rows: dict, ctrl: PaucControl, plugin: bool) -> dict:
    """ArocResult curve, aAUC, pAUC, YI and p* fields of the members' `_placement_rows`, by
    `summarise`.

    With plugin, member 0 is the plug-in fit; otherwise every member is
    a posterior draw.
    """
    est, lo, hi = summarise(**plugin_first(rows["curves"], plugin))
    aauc, pauc, yi, p_star = (None if v is None else interval_from(**plugin_first(v, plugin))
                              for v in map(rows.get, ("aauc", "pauc", "yi", "p_star")))
    return {"aroc_est": est, "aroc_lo": lo, "aroc_hi": hi, "aauc": aauc,
            "pauc": PaucSummary.of(pauc, ctrl) if ctrl.compute else None,
            "yi": yi, "p_star": p_star}


# -- frequentist, three healthy-model variants ---------------------------------

def aroc_frequentist(sample: DiagnosticSample, formula=None, covariate: str | None = None,
                     variant: str = "sp_normal", p=None, pauc: PaucControl | None = None,
                     B: int = 500, rng=None, workers: int = 1, bw: str = "lscv") -> ArocResult:
    """Placement-value curve with a frequentist healthy-group model.

    variant picks the healthy conditional CDF: 'sp_normal' (least
    squares, normal errors), 'sp_empirical' (least squares, empirical
    residual CDF), or 'kernel' (local mean/variance fits with empirical
    residuals; needs `covariate`, and its bandwidths follow the rule bw
    as in `croc_kernel`). Intervals come from B case-bootstrap
    replicates that resample both groups and refit the healthy model,
    one fit per block of 64 replicates: the least-squares variants solve
    the block's normal equations together, and the kernel variant weighs
    the original healthy rows by each replicate's draw counts under one
    set of kernel weights. A block's placements are summarised in its
    block function and dropped.
    """
    variant = variant.lower()
    if variant not in _VARIANTS:
        raise ConfigError("variant must be one of %s" % (_VARIANTS,))
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    ctrl = pauc or PaucControl()
    split = split_groups(sample)
    y_h, y_d = split.healthy, split.diseased

    def placements(fit, d_idx):
        """1 - F_H(y_D | x_D) under a healthy fit at every diseased row, read at the rows d_idx,
        or per replicate under a block fit, d_idx then holding one row per replicate."""
        mu, sd = fit.at(X_d)
        t = (y_d - mu) / sd
        if variant == "sp_normal":
            return np.take_along_axis(1.0 - ndtr(t), d_idx, axis=-1)
        by, U = np.argsort(t, axis=-1), np.empty_like(t)  # ascending keys search faster
        F = ecdf_eval(fit.residuals, np.take_along_axis(t, by, axis=-1), fit.cumw)
        np.put_along_axis(U, by, 1.0 - F, axis=-1)
        return np.take_along_axis(U, d_idx, axis=-1)

    bandwidths = None
    if variant in ("sp_normal", "sp_empirical"):
        if formula is None:
            raise ConfigError("the sp variants need a healthy-model formula")
        spec = _spec_of(formula)
        X_h, _, fitted = build_design(split.healthy_cov, spec)
        X_d = fitted.rows(split.diseased_cov)
        fit0 = _ols_fit(X_h, y_h)

        def block(h_idx, d_idx):  # the block's healthy refits solved together
            return placements(_ols_fit(X_h, y_h, h_idx, variant == "sp_empirical"), d_idx)
    else:
        if covariate is None:
            raise ConfigError("the kernel variant needs a covariate name")
        if covariate not in sample.covariates:
            raise MissingColumnError("covariate %r not in the sample" % covariate)
        if sample.covariates[covariate].is_categorical:
            raise ConfigError("the kernel variant needs one continuous covariate")
        X_h = np.asarray(split.healthy_cov[covariate].values, dtype=float)
        X_d = np.asarray(split.diseased_cov[covariate].values, dtype=float)
        fit0 = fit_by_rule(X_h, y_h, bw, "healthy")
        bandwidths = bandwidth_block({"healthy": fit0})

        def block(h_idx, d_idx):  # the block's healthy refits weighted by their draw counts
            return placements(fit_location_scale(X_h, y_h, bw_mean=fit0.bw_mean,
                                                 bw_var=fit0.bw_var, counts=_draw_counts(h_idx)),
                              d_idx)

    # member 0 is the plug-in fit, members 1..B the bootstrap replicates
    U0 = placements(fit0, np.arange(y_d.size))
    rows = MemberRows(B, plugin=True)
    rows.put(None, **_placement_rows(U0[None], None, grid, ctrl))

    def walked(members, h_idx, d_idx):
        rows.put(members, **_placement_rows(block(h_idx, d_idx), None, grid, ctrl))

    case_bootstrap(walked, stream, B, (y_h.size, y_d.size), workers)
    return ArocResult(
        method="aroc-" + variant.replace("_", "-"),
        p=grid,
        **_summary_fields(rows.arrays, ctrl, plugin=True),
        placements=U0,
        sample_sizes=(split.n_h, split.n_d),
        bandwidths=bandwidths,
    )


# -- Bayesian: healthy mixture posterior + exchangeable diseased weights --------

def aroc_bnp(sample: DiagnosticSample, formula, prior=None,
             mcmc: McmcControl | None = None, p=None,
             pauc: PaucControl | None = None, rng=None,
             standardise_marker: bool = True, workers: int = 1) -> ArocResult:
    """Mixture-posterior placement curve.

    Only the healthy group is modelled; each posterior draw yields
    placement values for the diseased subjects plus a flat Dirichlet
    weight vector over them, giving one weighted step curve per draw.
    Summaries are ensemble means with 2.5/97.5 percentile bands. Each
    block of draws takes its placements from `cdf_at` and its Dirichlet
    rows from stream 3 in turn (bitwise one (S, n_d) draw), and is
    summarised and dropped.
    """
    stream = _stream_of(rng)
    grid = _grid_of(p)
    ctrl = pauc or PaucControl()
    mcmc = mcmc or McmcControl()
    spec = _spec_of(formula)

    std_sample, std = standardise(sample, enable=standardise_marker)
    split_std, split_raw = split_groups(std_sample), split_groups(sample)
    Zh, _, fitted = build_design(split_raw.healthy_cov, spec, scales=std.covariates)
    zd_rows = fitted.rows(split_raw.diseased_cov)

    draws = fit_ddp(split_std.healthy, Zh, prior=prior, mcmc=mcmc,
                    rng=stream.stream(_CHAIN_H))
    S, n_d = draws.nsave, split_std.n_d
    gen = stream.stream(_WEIGHTS_STREAM).generator
    rows, total = MemberRows(S, plugin=False), np.zeros(n_d)
    for block in _member_blocks(S):
        U = 1.0 - draws.cdf_at(split_std.diseased, zd_rows, block)  # (block, n_d) placements
        q = dirichlet(np.ones(n_d), gen, size=U.shape[0])
        rows.put(block, **_placement_rows(U, q, grid, ctrl))
        # an axis-0 sum adds rows in order, so the running sum is the stacked one bitwise
        total = np.add.reduce(np.concatenate([total[None], U]), axis=0)

    return ArocResult(
        method="aroc-bnp",
        p=grid,
        **_summary_fields(rows.arrays, ctrl, plugin=False),
        placements=total / S,
        sample_sizes=(split_std.n_h, split_std.n_d),
        fit=raw_scale_criteria(std, draws),
        internals={"draws_h": draws, "std": std, "fitted": fitted,
                   "p_star_draws": rows.arrays["p_star"], "yi_draws": rows.arrays["yi"]},
    )


def aroc_threshold(result: ArocResult, newdata) -> ThresholdResult:
    """Covariate-specific thresholds attaining the adjusted-curve optimum.

    Per posterior draw the healthy conditional quantile at 1 - p* is
    inverted for each prediction row and mapped back to the original
    marker scale. Needs a Bayesian fit (the draws carry the healthy
    conditional model).
    """
    ints = result.internals
    if "draws_h" not in ints:
        raise MissingDrawsError("covariate-specific thresholds need a Bayesian fit")
    draws, std = ints["draws_h"], ints["std"]
    ps, yi = ints["p_star_draws"], ints["yi_draws"]
    q_levels = np.clip(1.0 - ps, 0.0, 1.0)[:, None]  # (S, 1)
    thresholds = [interval_from(None, mixture_stack(draws.weights, draws.conditional_means(z),
                                                    draws.sigma2, std).quantile(q_levels)[:, 0])
                  for z in ints["fitted"].rows(_frame_of(newdata))]

    n_rows = len(thresholds)
    return ThresholdResult(
        criterion="yi",
        threshold=thresholds,
        fpf=[interval_from(None, ps)] * n_rows,
        tpf=[interval_from(None, ps + yi)] * n_rows,
        yi=[interval_from(None, yi)] * n_rows,
        sign=[1] * n_rows,
    )
