"""Fit criteria, posterior predictive checks, residuals, and chain ESS."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import ndtri

from .errors import MissingDrawsError
from .mixtures import DdpDraws, DpmDraws, LoglikFold
from .streams import _gen


@dataclass(frozen=True)
class GroupCriteria:
    """Information criteria for one fitted group."""

    waic: float
    waic_penalty: float
    dic: float
    dic_penalty: float
    lpml: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FitCriteria:
    healthy: GroupCriteria | None = None
    diseased: GroupCriteria | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _folded(ll) -> LoglikFold:
    """ll's fold: a LoglikFold as it is, a draws-by-observations matrix folded by rows."""
    fold = ll if isinstance(ll, LoglikFold) else LoglikFold.of(ll)
    if not fold.finite:
        raise MissingDrawsError("log-likelihood matrix has non-finite entries")
    return fold


def waic(ll) -> tuple:
    """Widely applicable information criterion from per-draw log densities.

    ll is a LoglikFold or an (S, n) matrix. lppd uses a log-sum-exp
    stabilised Monte Carlo average; the penalty is the sum over
    observations of the across-draw variance.
    """
    fold = _folded(ll)
    S = fold.count
    lppd = float(np.sum(fold.lse - np.log(S)))
    penalty = float(np.sum(fold.m2 / (S - 1))) if S > 1 else 0.0
    return -2.0 * (lppd - penalty), penalty


def dic(ll) -> tuple:
    """Deviance information criterion with the posterior mean density as plug-in.

    ll is a LoglikFold or an (S, n) matrix. The plug-in density at y_i is
    (1/S) sum_s p(y_i | theta_s), the DIC_3 of Celeux, Forbes, Robert and
    Titterington (2006, Bayesian Analysis 1(4)), which no relabelling of
    mixture components moves. Its deviance is -2 lppd; the penalty, mean
    deviance minus it, sums 2 (log mean_s p - mean_s log p) over
    observations, each term nonnegative by Jensen's inequality.
    """
    fold = _folded(ll)
    log_mean_p = fold.lse - np.log(fold.count)
    penalty = 2.0 * float(np.sum(log_mean_p - fold.mean))
    return -2.0 * float(np.sum(log_mean_p)) + 2.0 * penalty, penalty


def lpml(ll) -> tuple:
    """Log pseudo marginal likelihood and per-observation CPOs.

    CPO_i is the harmonic mean of the per-draw densities, computed through
    a shifted log-sum-exp so extreme draws cannot overflow.
    """
    fold = _folded(ll)
    # log CPO_i = -log mean_s exp(-ll_si)
    log_cpo = -(fold.lse_neg - np.log(fold.count))
    return float(np.sum(log_cpo)), np.exp(log_cpo)


def criteria_from_draws(draws) -> GroupCriteria:
    """Bundle WAIC, DIC, and LPML for one group's saved draws, all read off its fold."""
    w, wp = waic(draws.fold)
    d, dp = dic(draws.fold)
    lp, _ = lpml(draws.fold)
    return GroupCriteria(waic=w, waic_penalty=wp, dic=d, dic_penalty=dp, lpml=lp)


def raw_scale_criteria(std, draws_h, draws_d=None) -> FitCriteria:
    """Each fitted group's criteria on the raw marker scale.

    Draws fit to the marker divided by std.marker_sd (when std.enabled)
    have per-observation log-densities log(marker_sd) above the raw
    ones. The criteria are affine in that shift, so they are taken on
    the fitting scale and moved: WAIC and DIC by +2n log s, LPML by
    -n log s; the penalties do not change.
    """
    log_s = math.log(std.marker_sd) if std.enabled else 0.0

    def group(draws):
        if draws is None:
            return None
        crit = criteria_from_draws(draws)
        shift = draws.y.size * log_s
        return replace(crit, waic=crit.waic + 2.0 * shift, dic=crit.dic + 2.0 * shift,
                       lpml=crit.lpml - shift)

    return FitCriteria(healthy=group(draws_h), diseased=group(draws_d))


def _standard_moment(x, k: int) -> float:
    """m_k / m2^(k/2) of the sample x (0 when it is constant)."""
    x = np.asarray(x, dtype=float)
    m = x.mean()
    m2 = np.mean((x - m) ** 2)
    return 0.0 if m2 == 0 else float(np.mean((x - m) ** k) / m2 ** (k / 2))


def moment_skewness(x) -> float:
    return _standard_moment(x, 3)


def moment_kurtosis(x) -> float:
    """m4/m2^2 (normal reference value 3, not excess)."""
    return _standard_moment(x, 4)


_STAT_FUNCS = {"skewness": moment_skewness, "kurtosis": moment_kurtosis}


@dataclass(frozen=True)
class PredictiveCheck:
    observed: dict
    replicated: dict  # statistic name -> (S,) array
    density_replicates: np.ndarray  # (R, n) posterior predictive datasets
    density_indices: np.ndarray


def _simulate_replicates(draws, rng) -> np.ndarray:
    """One posterior predictive dataset per saved draw, shape (S, n)."""
    gen = _gen(rng)
    S, n = draws.nsave, draws.y.size
    out = np.empty((S, n))
    for s in range(S):
        w = draws.weights[s]
        cum = np.cumsum(w)
        cum /= cum[-1]
        z = np.searchsorted(cum, gen.random(n), side="right")
        z = np.minimum(z, w.size - 1)
        if isinstance(draws, DdpDraws):
            mean = np.einsum("ij,ij->i", draws.Z, draws.beta[s][z])
        else:
            mean = draws.means[s][z]
        out[s] = mean + np.sqrt(draws.sigma2[s][z]) * gen.standard_normal(n)
    return out


def predictive_checks(draws, observed, statistics=("skewness", "kurtosis"),
                      n_rep_densities: int = 500, rng=None) -> PredictiveCheck:
    """Posterior predictive datasets scored by moment statistics.

    Simulates one replicate per saved draw, computes the requested
    statistics on each, and keeps up to n_rep_densities randomly chosen
    replicates for density overlays.
    """
    observed = np.asarray(observed, dtype=float)
    for name in statistics:
        if name not in _STAT_FUNCS:
            raise MissingDrawsError("unknown predictive statistic %r" % name)
    gen = _gen(rng)
    reps = _simulate_replicates(draws, gen)
    obs_stats = {name: _STAT_FUNCS[name](observed) for name in statistics}
    rep_stats = {
        name: np.array([_STAT_FUNCS[name](row) for row in reps]) for name in statistics
    }
    S = reps.shape[0]
    keep = min(n_rep_densities, S)
    idx = np.sort(gen.choice(S, size=keep, replace=False))
    return PredictiveCheck(
        observed=obs_stats,
        replicated=rep_stats,
        density_replicates=reps[idx],
        density_indices=idx,
    )


def ppoints(n: int) -> np.ndarray:
    """Plotting positions: (j-0.5)/n for n>10, else (j-3/8)/(n+1/4)."""
    j = np.arange(1, n + 1)
    if n > 10:
        return (j - 0.5) / n
    return (j - 3.0 / 8.0) / (n + 0.25)


@dataclass(frozen=True)
class QuantileResiduals:
    residuals: np.ndarray  # (S, n), each row sorted
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    theoretical: np.ndarray


def quantile_residuals(draws, y=None) -> QuantileResiduals:
    """Normal quantile residuals per draw, with pointwise bands.

    draws may be DpmDraws/DdpDraws (y defaults to the fitted data) or an
    (S, n) matrix of CDF values. Each draw's residuals are sorted before
    summarising so the bands live on the QQ ordinates.
    """
    if isinstance(draws, (DpmDraws, DdpDraws)):
        yy = draws.y if y is None else np.asarray(y, dtype=float)
        F = draws.cdf(yy) if isinstance(draws, DpmDraws) else draws.cdf_at(yy, draws.Z)
    else:
        F = np.asarray(draws, dtype=float)
        if F.ndim != 2:
            raise MissingDrawsError("need an (S, n) matrix of CDF values")
    F = np.clip(F, 1e-12, 1.0 - 1e-12)
    res = np.sort(ndtri(F), axis=1)
    n = res.shape[1]
    return QuantileResiduals(
        residuals=res,
        mean=res.mean(axis=0),
        lo=np.percentile(res, 2.5, axis=0),
        hi=np.percentile(res, 97.5, axis=0),
        theoretical=ndtri(ppoints(n)),
    )


def effective_sample_size(chain) -> float:
    """ESS with Geyer's initial monotone positive sequence truncation.

    A constant chain returns its length (autocorrelation undefined there).
    No upper cap: slightly antithetic chains can exceed the raw size.
    """
    x = np.asarray(chain, dtype=float).ravel()
    S = x.size
    if S < 2:
        return float(S)
    x = x - x.mean()
    var0 = float(x @ x) / S
    if var0 == 0 or not np.isfinite(var0):
        return float(S)
    # autocovariances via FFT (biased 1/S normalisation)
    nfft = int(2 ** np.ceil(np.log2(2 * S)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:S].real / S
    rho = acov / acov[0]
    # pair sums of consecutive autocorrelations, truncated at the first
    # nonpositive pair, then forced nonincreasing
    tau = 0.0
    prev = np.inf
    m = 0
    while 2 * m + 1 < S:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
        m += 1
    tau = max(2.0 * tau - 1.0, 1e-10)
    return float(S / tau)
