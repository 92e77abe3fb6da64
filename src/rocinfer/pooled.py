"""Pooled (no-covariate) ROC estimation, and the CDF stacks behind every curve.

Every estimator in the package ends in a pair of healthy and diseased CDF
stacks: one CDF per plug-in fit, bootstrap replicate or posterior draw.
A stack has a member `shape` and two methods, `cdf(x)` and
`quantile(q)`, each returning one row of values per member (a plain
vector for a single plug-in CDF); `x` is shared by all members (1-d) or
holds one row per member. The ROC curve ROC(p) = 1 - F_D(F_H^{-1}(1-p)),
its reverse orientation, Simpson areas and optimal thresholds are
written once against that interface (`roc_rows`, `tnf_rows`,
`simpson_area`, `threshold_result`) and reused by the conditional and
adjusted estimators.

The four pooled estimators share one result shape: empirical step curves
with a within-group bootstrap, kernel-smoothed CDF plug-ins, the
Dirichlet-weight resampling scheme with closed-form areas, and
normal-mixture posteriors. Point estimates are plug-ins for the
frequentist methods and ensemble means for the Bayesian ones; bands are
2.5/97.5 percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .diagnostics import FitCriteria, raw_scale_criteria
from .errors import ConfigError, MissingDrawsError
from .mixtures import (
    DpmPrior,
    McmcControl,
    fit_dpm,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
)
from .sample import DiagnosticSample, FpfGrid, split_groups, standardise
from .smoothing import kernel_cdf, kernel_pdf, lscv_bandwidth, silverman_bandwidth
from .streams import RngStream, dirichlet, parallel_map
from .summaries import (
    Interval,
    ThresholdResult,
    band,
    ecdf_eval,
    ecdf_quantile,
    interval_from,
    invert_cdf,
    mixture_auc_closed,
    odd_grid,
    pauc_normalise,
    placement_areas,
    placements,
    simpson,
    weighted_ecdf_eval,
    weighted_ecdf_quantile,
    youden_grid,
    youden_rows,
)

_BOOT_STREAM_BASE = 100
_CHAIN_H, _CHAIN_D, _WEIGHTS_STREAM = 1, 2, 3


@dataclass(frozen=True)
class PaucControl:
    """Partial-area request: focus fpf restricts FPF <= value, tpf
    restricts TPF >= value. Emitted areas are normalised."""

    compute: bool = False
    focus: str = "fpf"
    value: float = 1.0

    def __post_init__(self):
        if self.focus.lower() not in ("fpf", "tpf"):
            raise ConfigError("pauc focus must be 'fpf' or 'tpf'")
        object.__setattr__(self, "focus", self.focus.lower())
        if not 0.0 < self.value <= 1.0:
            raise ConfigError("pauc value must be in (0, 1]")


@dataclass(frozen=True)
class DensityControl:
    compute: bool = False
    grid_length: int = 200


@dataclass(frozen=True)
class PaucSummary:
    est: float
    lo: float
    hi: float
    focus: str
    bound: float

    def as_dict(self) -> dict:
        return {
            "est": self.est, "lo": self.lo, "hi": self.hi,
            "focus": self.focus, "bound": self.bound, "normalised": True,
        }


@dataclass
class RocResult:
    method: str
    p: np.ndarray
    roc_est: np.ndarray
    roc_lo: np.ndarray
    roc_hi: np.ndarray
    auc: Interval
    pauc: PaucSummary | None
    sample_sizes: tuple
    ensemble: np.ndarray | None = None
    densities: dict | None = None
    fit: FitCriteria | None = None
    internals: dict = field(default_factory=dict, repr=False, compare=False)


def _stream_of(rng) -> RngStream:
    if rng is None:
        return RngStream(0)
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    raise ConfigError("rng must be an RngStream, an integer seed, or None")


def _bootstrap_stream(B: int, rng) -> RngStream:
    """The seed stream of a B-replicate bootstrap; B is checked before any fitting."""
    if B < 0:
        raise ConfigError("bootstrap count B must be >= 0")
    return _stream_of(rng)


def _grid_of(p) -> np.ndarray:
    if p is None:
        return FpfGrid.default().p
    if isinstance(p, FpfGrid):
        return p.p
    return FpfGrid(np.asarray(p, dtype=float)).p


def _pauc_summary(point, draws, ctrl: PaucControl) -> PaucSummary:
    iv = interval_from(point, draws)
    return PaucSummary(iv.est, iv.lo, iv.hi, ctrl.focus, ctrl.value)


def case_bootstrap(fn, stream: RngStream, B: int, sizes, workers: int = 1) -> list:
    """fn(*indices) for each of B bootstrap replicates, in replicate order.

    Replicate k draws one integers(0, n, n) index vector per n in sizes,
    in that order, from stream _BOOT_STREAM_BASE + k: this is the one
    place that builds a replicate's generator, so every frequentist
    bootstrap gives the same numbers for any worker count.
    """
    def one_rep(k: int):
        gen = stream.stream(_BOOT_STREAM_BASE + k).generator
        return fn(*[gen.integers(0, n, n) for n in sizes])

    return parallel_map(one_rep, range(B), workers)


# -- CDF stacks ----------------------------------------------------------------

def _per_member(fn, count: int, x) -> np.ndarray:
    """Stack fn(b, x_b) over members; x is shared (1-d) or one row per member."""
    x = np.asarray(x, dtype=float)
    return np.array([fn(b, x if x.ndim == 1 else x[b]) for b in range(count)])


class StepStack:
    """Right-continuous step CDFs with the inf-type inverse.

    values is one ascending sample (n,) or one per member (M, n). With
    cumw, each member is a Dirichlet-weighted step CDF over the shared
    ascending values, cumw (M, n) holding its cumulative weights;
    without, every value weighs 1/n.
    """

    def __init__(self, values, cumw=None):
        self.values, self.cumw = values, cumw
        self.shape = (values if cumw is None else cumw).shape[:-1]

    def cdf(self, x):
        if self.cumw is not None:
            return weighted_ecdf_eval(self.values, self.cumw, x)
        if not self.shape:
            return ecdf_eval(self.values, x)
        return _per_member(lambda b, xb: ecdf_eval(self.values[b], xb), self.shape[0], x)

    def quantile(self, q):
        if self.cumw is None:
            return ecdf_quantile(self.values, q)
        return _per_member(
            lambda b, qb: weighted_ecdf_quantile(self.values, self.cumw[b], qb), self.shape[0], q
        )


class KernelStack:
    """Gaussian-kernel CDFs with one bandwidth and closed-form densities.

    data is one sample (n,) or one resample per member (M, n); lo and hi
    bracket every quantile (scalars, or one per member). Quantiles are
    found by safeguarded Newton from the sample quantile.
    """

    def __init__(self, data, h, lo, hi):
        self.data, self.h, self.lo, self.hi = data, h, lo, hi
        self.shape = data.shape[:-1]

    def cdf(self, x):
        if not self.shape:
            return kernel_cdf(x, self.data, self.h)
        return _per_member(lambda b, xb: kernel_cdf(xb, self.data[b], self.h), self.shape[0], x)

    def pdf(self, x):
        if not self.shape:
            return kernel_pdf(x, self.data, self.h)
        return _per_member(lambda b, xb: kernel_pdf(xb, self.data[b], self.h), self.shape[0], x)

    def quantile(self, q):
        if not self.shape:
            return invert_cdf(lambda x, _: self.cdf(x), q, self.lo, self.hi,
                              pdf=lambda x, _: self.pdf(x), start=np.quantile(self.data, q))
        return np.array([KernelStack(self.data[b], self.h, self.lo[b], self.hi[b]).quantile(q)
                         for b in range(self.shape[0])])


class MixtureStack:
    """Normal-mixture CDFs, one per draw: weights and variances (S, L).

    means is (S, L), or (S, R, L) for mixtures conditional on R design
    rows; the members are then (S, R) and each row is evaluated apart.
    """

    def __init__(self, weights, means, sigma2):
        self.weights, self.means, self.sigma2 = weights, means, sigma2
        self.shape = means.shape[:-1]

    def _by_row(self, fn, x):
        if self.means.ndim == 2:
            return fn(self.weights, self.means, self.sigma2, x)
        x = np.asarray(x, dtype=float)
        return np.stack([fn(self.weights, self.means[:, r], self.sigma2,
                            x if x.ndim == 1 else x[:, r]) for r in range(self.shape[1])], axis=1)

    def cdf(self, x):
        return self._by_row(mixture_cdf, x)

    def pdf(self, x):
        return self._by_row(mixture_pdf, x)

    def quantile(self, q):
        return self._by_row(mixture_quantile, q)


class NormalStack:
    """The standard normal CDF: the error law of the normal induced model."""

    shape = ()

    def cdf(self, x):
        return ndtr(x)

    def quantile(self, q):
        return ndtri(q)


class LocScaleStack:
    """F(x) = G((x - loc) / scale) over a base stack G.

    This is the induced models' conditional CDF and the map from a fit
    on the standardised marker back to the raw scale. loc and scale are
    scalars, or arrays whose leading axes follow the base's members and
    whose extra trailing axes (prediction rows) share each member's base.
    """

    def __init__(self, loc, scale, base):
        self.loc, self.scale, self.base = np.asarray(loc), np.asarray(scale), base
        lead = np.broadcast_shapes(self.loc.shape, self.scale.shape)
        self._row_axes = len(lead) - len(base.shape)
        self.shape = lead if self._row_axes > 0 else base.shape

    def _std(self, x):
        return (np.asarray(x, dtype=float) - self.loc[..., None]) / self.scale[..., None]

    def cdf(self, x):
        return self.base.cdf(self._std(x))

    def pdf(self, x):
        return self.base.pdf(self._std(x)) / self.scale[..., None]

    def quantile(self, q):
        bq = self.base.quantile(q)
        if self._row_axes > 0:
            bq = bq.reshape(self.base.shape + (1,) * self._row_axes + bq.shape[-1:])
        return self.loc[..., None] + self.scale[..., None] * bq


class ChunkedStack:
    """One stack held as chunks along its leading member axis.

    roc_rows walks the chunks of a chunked pair together, which keeps
    the (members, rows, points) intermediates of a large bootstrap
    ensemble cache-sized; cdf takes points shared by all members.
    """

    def __init__(self, parts):
        self.parts = parts
        self.shape = (sum(part.shape[0] for part in parts),) + parts[0].shape[1:]

    def cdf(self, x):
        return np.concatenate([part.cdf(x) for part in self.parts])


def mixture_stack(weights, means, sigma2, std) -> MixtureStack | LocScaleStack:
    """Raw-marker-scale stack of mixtures fit on the (possibly) standardised marker."""
    stack = MixtureStack(weights, means, sigma2)
    return LocScaleStack(std.marker_mean, std.marker_sd, stack) if std.enabled else stack


# -- curves, areas and thresholds over stacks ------------------------------------

def roc_rows(H, D, p) -> np.ndarray:
    """ROC(p) = 1 - F_D(F_H^{-1}(1-p)) per member, exact 0/1 endpoints."""
    if isinstance(H, ChunkedStack):
        return np.concatenate([roc_rows(h, d, p) for h, d in zip(H.parts, D.parts)])
    p = np.asarray(p, dtype=float)
    out = np.empty(H.shape + p.shape)
    interior = (p > 0.0) & (p < 1.0)
    if np.any(interior):
        out[..., interior] = 1.0 - D.cdf(H.quantile(1.0 - p[interior]))
    out[..., p == 0.0] = 0.0
    out[..., p == 1.0] = 1.0
    return out


def tnf_rows(H, D, p) -> np.ndarray:
    """Reverse orientation F_H(F_D^{-1}(1-p)): the ROC curve with the groups swapped.

    Evaluates 1 at p=0 and 0 at p=1. Its integral over p is
    E[F_H(D)] = P(H <= D): the AUC for continuous CDFs, but on step
    stacks (emp, bb) cross-group ties count whole, so it exceeds their
    AUC (tie-halved for emp, strict for bb) by the tie mass they drop.
    """
    return 1.0 - roc_rows(D, H, p)


def simpson_area(H, D, pauc: PaucControl | None = None):
    """Simpson AUC per member on 201 points, or the normalised partial area.

    FPF focus integrates the curve over [0, value], TPF focus the reverse
    curve over [value, 1]. An empty range has area 0.
    """
    if pauc is None or pauc.focus == "fpf":
        g, curve = odd_grid(0.0, 1.0 if pauc is None else pauc.value, 201), roc_rows
    else:
        g, curve = odd_grid(pauc.value, 1.0, 201), tnf_rows
    raw = simpson(curve(H, D, g), g[1] - g[0]) if g[-1] > g[0] else np.zeros(H.shape)
    return raw if pauc is None else pauc_normalise(raw, pauc.focus, pauc.value)


def _check_criterion(criterion: str, target_fpf) -> str:
    criterion = criterion.lower()
    if criterion not in ("yi", "fpf"):
        raise ConfigError("criterion must be 'yi' or 'fpf'")
    if criterion == "fpf" and (target_fpf is None or not 0.0 < target_fpf < 1.0):
        raise ConfigError("target_fpf in (0,1) required for the fpf criterion")
    return criterion


def _criterion_rows(fh, fd, grid, criterion, target_fpf) -> tuple:
    """Per-member (yi, threshold, fpf, tpf, sign), or (threshold, fpf, tpf) at a fixed FPF.

    fh and fd hold F_H and F_D on the grid, one row per member.
    """
    if criterion == "yi":
        return youden_rows(fh, fd, grid)
    # c = F_H^{-1}(1 - target) on the grid, per member
    k = [min(int(np.searchsorted(row, 1.0 - target_fpf, side="left")), grid.size - 1)
         for row in fh]
    rows = np.arange(fh.shape[0])
    return grid[k], 1.0 - fh[rows, k], 1.0 - fd[rows, k]


def threshold_result(grid, criterion: str, target_fpf, pairs) -> ThresholdResult:
    """Optimal thresholds on a grid from (plug-in, ensemble) stack pairs.

    Stacks whose members end in a prediction-row axis give one entry
    per row, others one entry. 'yi' maximises |F_H - F_D| (smallest
    threshold on ties, sign reported); 'fpf' takes F_H^{-1}(1 -
    target_fpf) with its attached TPF. A plug-in pair gives the point
    estimates, else they are ensemble means; intervals need an ensemble
    of two or more members.
    """
    names = ("yi", "threshold", "fpf", "tpf", "sign") if criterion == "yi" else (
        "threshold", "fpf", "tpf")
    out = {name: [] for name in names}
    for plugin, ensemble in pairs:
        # F_H and F_D as (members, rows, grid)
        plug = plugin and [s.cdf(grid).reshape(1, -1, grid.size) for s in plugin]
        ens = [s.cdf(grid).reshape(s.shape[0], -1, grid.size) for s in ensemble] if ensemble else plug
        for r in range(ens[0].shape[1]):
            draws = _criterion_rows(ens[0][:, r], ens[1][:, r], grid, criterion, target_fpf)
            point = plug and _criterion_rows(plug[0][:, r], plug[1][:, r], grid, criterion,
                                             target_fpf)
            spread = len(draws[0]) > 1
            for name, vals, pt in zip(names, draws, point or draws):
                if name == "sign":
                    out[name].append(int(pt[0] if point else np.sign(vals.sum())))
                else:
                    est = float(pt[0] if point else vals.mean())
                    out[name].append(interval_from(est, vals if spread else None))
    return ThresholdResult(
        criterion=criterion, threshold=out["threshold"], fpf=out["fpf"], tpf=out["tpf"],
        yi=out.get("yi"), sign=out.get("sign"), target_fpf=target_fpf,
    )


# -- empirical ---------------------------------------------------------------

def pooled_empirical(sample: DiagnosticSample, p=None, pauc: PaucControl | None = None,
                     B: int = 500, rng=None, workers: int = 1) -> RocResult:
    """Step-function plug-in with a within-group case bootstrap.

    The curve uses right-continuous empirical CDFs and the inf-inverse;
    AUC is the tie-halved Mann-Whitney statistic and partial areas come
    from the matching placement-value closed forms.
    """
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    h_sorted = np.sort(split.healthy)
    d_sorted = np.sort(split.diseased)

    plugin = (StepStack(h_sorted), StepStack(d_sorted))
    est = roc_rows(*plugin, grid)
    tpf = pauc.compute and pauc.focus == "tpf"

    def replicate(h_idx, d_idx):
        h, d = np.sort(split.healthy[h_idx]), np.sort(split.diseased[d_idx])
        return h, d, placements(h, d), placements(d, h) if tpf else None

    reps = case_bootstrap(replicate, stream, B, (split.n_h, split.n_d), workers)
    ensemble = tuple(StepStack(np.array([r[g] for r in reps])) for g in (0, 1)) if reps else None
    curves = roc_rows(*ensemble, grid) if reps else None
    # row 0 is the plug-in, rows 1..B the bootstrap replicates
    U = np.array([placements(h_sorted, d_sorted)] + [r[2] for r in reps])
    U_rev = np.array([placements(d_sorted, h_sorted)] + [r[3] for r in reps]) if tpf else None
    aucs, paucs = placement_areas(U, None, pauc, U_rev)

    lo, hi = band(curves) if curves is not None else (est.copy(), est.copy())
    return RocResult(
        method="empirical",
        p=grid, roc_est=est, roc_lo=lo, roc_hi=hi,
        auc=interval_from(aucs[0], aucs[1:]),
        pauc=_pauc_summary(paucs[0], paucs[1:], pauc) if pauc.compute else None,
        sample_sizes=(split.n_h, split.n_d),
        ensemble=curves,
        internals={"plugin": plugin, "ensemble": ensemble,
                   "y": np.concatenate([h_sorted, d_sorted])},
    )


# -- kernel ------------------------------------------------------------------

def _kernel_stacks(y_h, y_d, h_h, h_d):
    """Kernel stacks of both groups, bracketed 10 bandwidths past either group's data."""
    lo = np.minimum(y_h.min(axis=-1) - 10 * h_h, y_d.min(axis=-1) - 10 * h_d)
    hi = np.maximum(y_h.max(axis=-1) + 10 * h_h, y_d.max(axis=-1) + 10 * h_d)
    return KernelStack(y_h, h_h, lo, hi), KernelStack(y_d, h_d, lo, hi)


def pooled_kernel(sample: DiagnosticSample, p=None, bw: str = "srt",
                  pauc: PaucControl | None = None, B: int = 500, rng=None,
                  workers: int = 1) -> RocResult:
    """Normal-kernel CDF plug-ins, quantiles by safeguarded Newton, areas by Simpson.

    bw picks the bandwidth rule per group: 'srt' (normal-reference) or
    'lscv' (leave-one-out CV on the integrated squared CDF error).
    Bootstrap replicates keep the original bandwidths.
    """
    if bw not in ("srt", "lscv"):
        raise ConfigError("bw must be 'srt' or 'lscv'")
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    y_h, y_d = split.healthy, split.diseased

    if bw == "srt":
        h_h = silverman_bandwidth(y_h).value
        h_d = silverman_bandwidth(y_d).value
    else:
        h_h = lscv_bandwidth(y_h, y_h, target="cdf").value
        h_d = lscv_bandwidth(y_d, y_d, target="cdf").value

    plugin = _kernel_stacks(y_h, y_d, h_h, h_d)
    est = roc_rows(*plugin, grid)

    reps = case_bootstrap(lambda h_idx, d_idx: (y_h[h_idx], y_d[d_idx]), stream, B,
                          (split.n_h, split.n_d), workers)
    ensemble = _kernel_stacks(*map(np.array, zip(*reps)), h_h, h_d) if reps else None
    curves = roc_rows(*ensemble, grid) if reps else None
    lo, hi = band(curves) if curves is not None else (est.copy(), est.copy())
    return RocResult(
        method="kernel",
        p=grid, roc_est=est, roc_lo=lo, roc_hi=hi,
        auc=interval_from(simpson_area(*plugin), simpson_area(*ensemble) if reps else None),
        pauc=(
            _pauc_summary(simpson_area(*plugin, pauc),
                          simpson_area(*ensemble, pauc) if reps else None, pauc)
            if pauc.compute else None
        ),
        sample_sizes=(split.n_h, split.n_d),
        ensemble=curves,
        internals={"plugin": plugin, "ensemble": ensemble, "y": np.concatenate([y_h, y_d])},
    )


# -- Dirichlet-weight resampling ---------------------------------------------

def pooled_bb(sample: DiagnosticSample, p=None, S: int = 1000,
              pauc: PaucControl | None = None, rng=None) -> RocResult:
    """Dirichlet-weight resampling with closed-form areas.

    Per iteration, both groups get flat Dirichlet weights; the curve is
    read off the two weighted step CDFs, and diseased placements against
    the weighted healthy CDF give the areas in closed form.
    """
    if S < 1:
        raise ConfigError("Bayesian bootstrap draw count S must be >= 1")
    stream = _stream_of(rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    gen = stream.stream(_WEIGHTS_STREAM).generator

    order_h = np.argsort(split.healthy, kind="stable")
    order_d = np.argsort(split.diseased, kind="stable")
    h_sorted = split.healthy[order_h]
    d_sorted = split.diseased[order_d]

    q1 = dirichlet(np.ones(split.n_h), gen, size=S)[:, order_h]
    q2 = dirichlet(np.ones(split.n_d), gen, size=S)[:, order_d]
    cum1 = np.cumsum(q1, axis=1)
    cum2 = np.cumsum(q2, axis=1)
    ensemble = (StepStack(h_sorted, cum1), StepStack(d_sorted, cum2))

    curves = roc_rows(*ensemble, grid)
    # placements with ties counted whole, so the AUC is P(H < D); the
    # reverse V_i = P_D(D > h_i) is strict like it
    U = placements(h_sorted, d_sorted, cum1, side="left")  # (S, n_d)
    U_rev = (placements(d_sorted, h_sorted, cum2, side="right")
             if pauc.compute and pauc.focus == "tpf" else None)
    aucs, paucs = placement_areas(U, q2, pauc, U_rev, q1)

    est = curves.mean(axis=0)
    lo, hi = band(curves)
    return RocResult(
        method="bb",
        p=grid, roc_est=est, roc_lo=lo, roc_hi=hi,
        auc=interval_from(float(aucs.mean()), aucs),
        pauc=_pauc_summary(float(paucs.mean()), paucs, pauc) if pauc.compute else None,
        sample_sizes=(split.n_h, split.n_d),
        ensemble=curves,
        internals={"plugin": None, "ensemble": ensemble,
                   "y": np.concatenate([h_sorted, d_sorted])},
    )


# -- normal-mixture posterior --------------------------------------------------

def _density_block(stack, y_raw: np.ndarray, grid_length: int) -> dict:
    grid_raw = np.linspace(float(y_raw.min()), float(y_raw.max()), int(grid_length))
    dens = stack.pdf(grid_raw)
    lo, hi = band(dens)
    return {
        "grid": grid_raw, "est": dens.mean(axis=0), "lo": lo, "hi": hi, "draws": dens,
    }


def pooled_dpm(sample: DiagnosticSample, p=None, prior_h: DpmPrior | None = None,
               prior_d: DpmPrior | None = None, mcmc: McmcControl | None = None,
               pauc: PaucControl | None = None, density: DensityControl | None = None,
               rng=None, standardise_marker: bool = True, workers: int = 1) -> RocResult:
    """Normal-mixture posteriors per group; curves by numeric inversion.

    The marker is standardised over the combined sample before fitting
    (auto priors then sit on a unit scale) and everything reported is
    mapped back. AUC uses the closed-form double sum per draw; partial
    areas use Simpson on each draw's curve. Fit criteria are computed on
    the raw marker scale.
    """
    stream = _stream_of(rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    density = density or DensityControl()
    mcmc = mcmc or McmcControl()

    std_sample, std = standardise(sample, enable=standardise_marker)
    split_raw = split_groups(sample)
    split = split_groups(std_sample)

    def fit_group(args):
        y, prior, sid = args
        return fit_dpm(y, prior=prior, mcmc=mcmc, rng=stream.stream(sid))

    draws_h, draws_d = parallel_map(
        fit_group,
        [(split.healthy, prior_h, _CHAIN_H), (split.diseased, prior_d, _CHAIN_D)],
        workers=min(workers, 2),
    )
    ensemble = tuple(mixture_stack(d.weights, d.means, d.sigma2, std) for d in (draws_h, draws_d))

    curves = roc_rows(*ensemble, grid)
    aucs = mixture_auc_closed(
        draws_h.weights, draws_h.means, np.sqrt(draws_h.sigma2),
        draws_d.weights, draws_d.means, np.sqrt(draws_d.sigma2),
    )
    aucs = np.atleast_1d(aucs)

    paucs = simpson_area(*ensemble, pauc) if pauc.compute else None

    crit = raw_scale_criteria(std, draws_h, draws_d)

    densities = None
    if density.compute:
        densities = {
            "healthy": _density_block(ensemble[0], split_raw.healthy, density.grid_length),
            "diseased": _density_block(ensemble[1], split_raw.diseased, density.grid_length),
        }

    est = curves.mean(axis=0)
    lo, hi = band(curves)
    return RocResult(
        method="dpm",
        p=grid, roc_est=est, roc_lo=lo, roc_hi=hi,
        auc=interval_from(float(aucs.mean()), aucs),
        pauc=_pauc_summary(float(paucs.mean()), paucs, pauc) if pauc.compute else None,
        sample_sizes=(split.n_h, split.n_d),
        ensemble=curves,
        densities=densities,
        fit=crit,
        internals={"plugin": None, "ensemble": ensemble, "draws_h": draws_h, "draws_d": draws_d,
                   "y": np.concatenate([split_raw.healthy, split_raw.diseased])},
    )


# -- reverse-orientation curve and thresholds ---------------------------------

def _stacks_of(result) -> tuple:
    if not result.internals:
        raise MissingDrawsError("result carries no fitted internals")
    return result.internals["plugin"], result.internals["ensemble"]


def pooled_tnf(result: RocResult, p=None) -> np.ndarray:
    """Reverse-orientation curve F_H(F_D^{-1}(1-p)) from the fitted CDFs.

    Evaluates 1 at p=0 and 0 at p=1; its integral over p is P(H <= D),
    which equals the AUC except on the step CDFs of emp and bb, where
    cross-group ties count whole (see `tnf_rows`). Uses the plug-in fit
    for the frequentist methods and the ensemble mean for the Bayesian
    ones.
    """
    grid = _grid_of(p) if p is not None else result.p
    plugin, ensemble = _stacks_of(result)
    return tnf_rows(*plugin, grid) if plugin else tnf_rows(*ensemble, grid).mean(axis=0)


def pooled_threshold(result: RocResult, criterion: str = "yi",
                     target_fpf: float | None = None) -> ThresholdResult:
    """Optimal threshold for a pooled fit.

    criterion 'yi' maximises |F_H - F_D| over the shared 500-point grid
    (smallest threshold on ties, sign reported); 'fpf' returns
    F_H^{-1}(1 - target_fpf) with its attached TPF. Interval sources:
    bootstrap replicates or posterior draws, whichever the fit carries.
    """
    criterion = _check_criterion(criterion, target_fpf)
    pair = _stacks_of(result)
    grid = youden_grid(result.internals["y"])
    return threshold_result(grid, criterion, target_fpf if criterion == "fpf" else None, [pair])
