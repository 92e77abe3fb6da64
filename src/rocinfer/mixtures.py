"""Truncated stick-breaking normal mixtures fit by blocked Gibbs sampling.

Two samplers: a location-scale normal mixture for a single sample
(fit_dpm), and its regression extension where component means are linear
in a design matrix while the stick weights are shared across covariates
(fit_ddp). Both save weights, atoms, the concentration parameter, and a
per-observation log-likelihood matrix for the fit criteria, read off the
allocation step's log-densities at each saved state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ConfigError,
    DimMismatchError,
    NumericalCollapseError,
    TooFewPointsError,
)
from .streams import (
    _gen,
    check_shape_rate,
    gamma_shape_rate,
    stick_breaking,
    wishart,
)
from .summaries import invert_cdf

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DpmPrior:
    """Normal-gamma base measure plus a gamma prior on the concentration.

    None fields are resolved from the data: m0 = mean(y), S0 = 10 var(y),
    b = a var(y). On a standardised sample this reduces to m0=0, S0=10,
    b=2 (with the default a=2).
    """

    m0: float | None = None
    S0: float | None = None
    a: float = 2.0
    b: float | None = None
    a_alpha: float = 2.0
    b_alpha: float = 2.0
    L: int = 10

    def resolved(self, y) -> "DpmPrior":
        y = np.asarray(y, dtype=float)
        var = float(np.var(y, ddof=1)) if y.size > 1 else 1.0
        var = max(var, 1e-12)
        out = self
        if out.m0 is None:
            out = replace(out, m0=float(np.mean(y)))
        if out.S0 is None:
            out = replace(out, S0=10.0 * var)
        if out.b is None:
            out = replace(out, b=out.a * var)
        out.validate()
        return out

    def validate(self):
        if self.L < 1:
            raise ConfigError("L must be at least 1")
        for name in ("S0", "a", "b", "a_alpha", "b_alpha"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ConfigError("%s must be positive" % name)


@dataclass(frozen=True)
class DdpPrior:
    """Regression base measure with conjugate hyperpriors on (m, S).

    None fields resolve from the data: m0 = (mean(y), 0, ..., 0),
    S0 = 10 var(y) I, Psi = var(y) I, b = a var(y), nu = q + 2.
    """

    m0: np.ndarray | None = None
    S0: np.ndarray | None = None
    nu: float | None = None
    Psi: np.ndarray | None = None
    a: float = 2.0
    b: float | None = None
    a_alpha: float = 2.0
    b_alpha: float = 2.0
    L: int = 10

    def resolved(self, y, q: int) -> "DdpPrior":
        y = np.asarray(y, dtype=float)
        var = float(np.var(y, ddof=1)) if y.size > 1 else 1.0
        var = max(var, 1e-12)
        out = self
        if out.m0 is None:
            m0 = np.zeros(q)
            m0[0] = float(np.mean(y))
            out = replace(out, m0=m0)
        if out.S0 is None:
            out = replace(out, S0=10.0 * var * np.eye(q))
        if out.nu is None:
            out = replace(out, nu=q + 2.0)
        if out.Psi is None:
            out = replace(out, Psi=var * np.eye(q))
        if out.b is None:
            out = replace(out, b=out.a * var)
        out.validate(q)
        return out

    def validate(self, q: int):
        if self.L < 1:
            raise ConfigError("L must be at least 1")
        for name in ("a", "b", "a_alpha", "b_alpha"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ConfigError("%s must be positive" % name)
        m0 = np.asarray(self.m0, dtype=float)
        S0 = np.asarray(self.S0, dtype=float)
        Psi = np.asarray(self.Psi, dtype=float)
        if m0.shape != (q,) or S0.shape != (q, q) or Psi.shape != (q, q):
            raise DimMismatchError("prior dimensions do not match the design matrix")
        if not self.nu > q - 1:
            raise ConfigError("nu must exceed q - 1")


@dataclass(frozen=True)
class McmcControl:
    nsave: int = 8000
    nburn: int = 2000
    nskip: int = 1

    def __post_init__(self):
        if self.nsave < 1 or self.nburn < 0 or self.nskip < 1:
            raise ConfigError("need nsave >= 1, nburn >= 0, nskip >= 1")


@dataclass(frozen=True)
class DpmDraws:
    """Saved Gibbs output for the no-covariate mixture.

    loglik[s, i] is log f_s(y_i), the column log-sum-exp of the allocation
    log-densities the sampler evaluates at saved state s.
    """

    weights: np.ndarray  # (S, L)
    means: np.ndarray    # (S, L)
    sigma2: np.ndarray   # (S, L)
    alpha: np.ndarray    # (S,)
    loglik: np.ndarray   # (S, n), on the scale y was fit on
    y: np.ndarray
    prior: DpmPrior
    mcmc: McmcControl

    @property
    def nsave(self) -> int:
        return self.weights.shape[0]

    def cdf(self, y0) -> np.ndarray:
        return mixture_cdf(self.weights, self.means, self.sigma2, y0)


@dataclass(frozen=True)
class DdpDraws:
    """Saved Gibbs output for the shared-weights regression mixture.

    loglik[s, i] is log f_s(y_i | z_i), read off the allocation step as in
    DpmDraws.
    """

    weights: np.ndarray  # (S, L)
    beta: np.ndarray     # (S, L, q)
    sigma2: np.ndarray   # (S, L)
    alpha: np.ndarray    # (S,)
    loglik: np.ndarray   # (S, n)
    y: np.ndarray
    Z: np.ndarray
    prior: DdpPrior
    mcmc: McmcControl

    @property
    def nsave(self) -> int:
        return self.weights.shape[0]

    def conditional_means(self, zrow) -> np.ndarray:
        """Per-draw component means z'beta_l, shape (S, L)."""
        z = np.asarray(zrow, dtype=float)
        return self.beta @ z

    def cdf_at(self, y, Z) -> np.ndarray:
        """(S, n) matrix of F^(s)(y_i | z_i), each point under its own design row.

        Evaluated in chunks of draws so the (draws, points, components)
        intermediate stays near 4e6 elements.
        """
        S, L, _ = self.beta.shape
        out = np.empty((S, y.size))
        sd = np.sqrt(self.sigma2)
        chunk = max(1, int(4_000_000 / max(1, y.size * L)))
        for start in range(0, S, chunk):
            stop = min(S, start + chunk)
            means = np.einsum("slq,nq->snl", self.beta[start:stop], Z)
            zs = (y[None, :, None] - means) / sd[start:stop, None, :]
            out[start:stop] = np.einsum("snl,sl->sn", ndtr(zs), self.weights[start:stop])
        return out


def _as_sl(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return a


def mixture_cdf(weights, means, sigma2, y0) -> np.ndarray:
    """F(y0) of a normal mixture, evaluated per draw.

    weights/means/sigma2 are (S, L) (a single (L,) draw is promoted);
    y0 may be scalar, a vector shared by all draws, or an (S, m) matrix
    with one row of points per draw. Returns (S, m), or (m,) for a
    single draw, or a scalar for a single draw and scalar y0.
    """
    return _per_draw(lambda z, s2: ndtr(z), weights, means, sigma2, y0)


def mixture_pdf(weights, means, sigma2, y0) -> np.ndarray:
    """Density counterpart of mixture_cdf, same shape conventions."""
    return _per_draw(lambda z, s2: np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * s2),
                     weights, means, sigma2, y0)


def _per_draw(kernel, weights, means, sigma2, y0):
    """sum_l w_l kernel(z, sigma2_l), z = (y0 - mean_l) / sd_l, per draw and point."""
    w, mu, s2 = _as_sl(weights), _as_sl(means), _as_sl(sigma2)
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    rows = y if y.ndim == 2 else y[None, :]
    z = (rows[:, :, None] - mu[:, None, :]) / np.sqrt(s2)[:, None, :]
    out = np.einsum("sml,sl->sm", kernel(z, s2[:, None, :]), w)
    if np.ndim(weights) == 1:
        out = out[0]
        if np.ndim(y0) == 0:
            return float(out[0])
    return out


def mixture_mean_variance(weights, means, sigma2):
    """Mean and variance of the mixture, per draw (law of total variance)."""
    w, mu, s2 = _as_sl(weights), _as_sl(means), _as_sl(sigma2)
    scalar_draw = np.asarray(weights).ndim == 1
    m = np.einsum("sl,sl->s", w, mu)
    v = np.einsum("sl,sl->s", w, s2) + np.einsum("sl,sl->s", w, mu * mu) - m * m
    if scalar_draw:
        return float(m[0]), float(v[0])
    return m, v


def _component_logdens(y, weights, means, sigma2) -> np.ndarray:
    """(L, n) matrix of log w_l + log N(y_i; mean_li, sigma2_l).

    means is (L,) for the location mixture or (L, n) for the regression
    mixture (one row of z_i'beta_l per component). Component-major, so
    the reductions over components run down contiguous columns.
    """
    lead = np.log(np.maximum(weights, 1e-300)) - 0.5 * (_LOG_2PI + np.log(sigma2))
    lp = y - np.reshape(means, (sigma2.size, -1))
    np.square(lp, out=lp)
    lp *= 0.5
    lp /= sigma2[:, None]
    return np.subtract(lead[:, None], lp, out=lp)


def _allocation_cdf(lp):
    """Cumulative component masses down each column of an (L, n) log-density
    matrix (in place, max-shifted), and each column's log-sum-exp: the
    observation's mixture log-likelihood."""
    top = lp.max(axis=0)
    lp -= top
    cum = np.exp(lp, out=lp)
    for l in range(1, cum.shape[0]):  # row adds: cumsum down axis 0 is slower
        cum[l] += cum[l - 1]
    return cum, top + np.log(cum[-1])


def _allocate(cum, gen):
    """Column i takes the first component whose mass reaches u_i times the total."""
    u = gen.random(cum.shape[1])
    return np.minimum((cum < u * cum[-1]).sum(axis=0), cum.shape[0] - 1)


def loglik_at_posterior_mean(draws, y=None, Z=None) -> np.ndarray:
    """Per-observation log-likelihood at componentwise posterior means.

    Plug-in used by the deviance criterion: average weights, atoms, and
    variances over draws, then evaluate the mixture once.
    """
    yy = draws.y if y is None else np.asarray(y, dtype=float)
    if isinstance(draws, DdpDraws):
        zmat = draws.Z if Z is None else np.asarray(Z, dtype=float)
        means = draws.beta.mean(axis=0) @ zmat.T  # (L, n)
    else:
        means = draws.means.mean(axis=0)
    lp = _component_logdens(yy, draws.weights.mean(axis=0), means, draws.sigma2.mean(axis=0))
    return _allocation_cdf(lp)[1]


def sample_atoms_prior(prior: DpmPrior, size: int, rng):
    """(mu, sigma2) draws from the base measure, used for empty components."""
    gen = _gen(rng)
    mu = prior.m0 + math.sqrt(prior.S0) * gen.standard_normal(size)
    prec = gamma_shape_rate(prior.a, prior.b, gen, size=size)
    return mu, 1.0 / np.asarray(prec, dtype=float)


def _check_state(sigma2):
    if not np.all(np.isfinite(sigma2)) or np.any(sigma2 <= 0):
        raise NumericalCollapseError("a component variance left the feasible range")


def _update_sticks(counts, alpha, gen):
    L = counts.size
    if L == 1:
        return np.ones(1)
    tail = counts.sum() - np.cumsum(counts)
    v = gen.beta(1.0 + counts[: L - 1], alpha + tail[: L - 1])
    v = np.clip(v, 1e-12, 1.0 - 1e-12)
    return np.concatenate([v, [1.0]])


def _update_alpha(v, prior_a, prior_b, gen):
    L = v.size
    if L == 1:
        return float(gamma_shape_rate(prior_a, prior_b, gen))
    rate = prior_b - np.sum(np.log1p(-v[: L - 1]))
    if not rate > 0:
        raise NumericalCollapseError("concentration update produced a nonpositive rate")
    return float(gamma_shape_rate(prior_a + L - 1, rate, gen))


def _update_components(Z, y, z, counts, ZZ, Zy, S_inv, m, sigma2, a, b, gen):
    """Conjugate draws of all regression components' (beta_l, sigma2_l) at once.

    Z_l'Z_l and Z_l'y come from one-hot sums of the row outer products ZZ
    (n, q*q) and Z*y; one batched Cholesky and two batched solves follow.
    Draws keep the per-component order (q normals, then a standard gamma
    scaled by 1/rate, as gamma(shape, 1/rate) does). Returns beta (L, q),
    sigma2 (L,), the posterior means and the precisions' Cholesky factors.
    """
    L, q = sigma2.size, Z.shape[1]
    onehot = (z == np.arange(L)[:, None]).astype(float)
    prec = S_inv + (onehot @ ZZ).reshape(L, q, q) / sigma2[:, None, None]
    rhs = S_inv @ m + (onehot @ Zy) / sigma2[:, None]
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericalCollapseError("component precision lost definiteness") from exc
    shape = a + 0.5 * counts
    eps, g = np.empty((L, q, 1)), np.empty(L)
    for l in range(L):
        eps[l, :, 0] = gen.standard_normal(q)
        g[l] = gen.standard_gamma(shape[l])
    half = np.linalg.solve(chol, rhs[:, :, None])
    both = np.linalg.solve(np.swapaxes(chol, 1, 2), np.concatenate([half, half + eps], axis=2))
    mean, beta = both[:, :, 0], both[:, :, 1]
    resid = y - np.einsum("ij,ij->i", Z, beta[z])
    rate = b + 0.5 * np.bincount(z, weights=resid * resid, minlength=L)
    check_shape_rate(shape, rate)
    return beta, 1.0 / ((1.0 / rate) * g), mean, chol


def _collect(mcmc: McmcControl, sweeps) -> list:
    """Stack every nskip-th state after nburn of an endless sweep generator."""
    out = None
    for saved in range(mcmc.nsave):
        for _ in range(mcmc.nskip if saved else mcmc.nburn + mcmc.nskip):
            state = next(sweeps)
        out = out or [np.empty((mcmc.nsave,) + np.shape(a)) for a in state]
        for o, a in zip(out, state):
            o[saved] = a
    return out


def fit_dpm(y, prior: DpmPrior | None = None, mcmc: McmcControl | None = None,
            rng=None) -> DpmDraws:
    """Blocked Gibbs for the truncated stick-breaking normal mixture.

    Sweep order: allocations, sticks, atoms (mu given sigma2, then sigma2
    given the new mu), concentration. Empty components are refreshed from
    the base measure. Draws are saved every nskip sweeps after nburn.
    Each sweep ends by evaluating the next allocation step's log-densities
    at its new state; their column log-sum-exps are the saved draw's
    log-likelihood row.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise TooFewPointsError("need at least two observations")
    if not np.all(np.isfinite(y)):
        raise TooFewPointsError("observations must be finite")
    prior = (prior or DpmPrior()).resolved(y)
    mcmc = mcmc or McmcControl()
    w, mu, s2, alpha, ll = _collect(mcmc, _dpm_sweeps(y, prior, _gen(rng)))
    return DpmDraws(weights=w, means=mu, sigma2=s2, alpha=alpha, loglik=ll,
                    y=y.copy(), prior=prior, mcmc=mcmc)


def _dpm_sweeps(y, prior: DpmPrior, gen):
    """Yield (w, mu, sigma2, alpha, loglik) after every sweep of fit_dpm."""
    L = prior.L
    alpha = prior.a_alpha / prior.b_alpha
    mu, sigma2 = sample_atoms_prior(prior, L, gen)
    w = stick_breaking(_update_sticks(np.zeros(L, dtype=int), alpha, gen))
    cum, _ = _allocation_cdf(_component_logdens(y, w, mu, sigma2))
    while True:
        # (i) allocations
        z = _allocate(cum, gen)
        counts = np.bincount(z, minlength=L)

        # (ii) sticks and weights
        v = _update_sticks(counts, alpha, gen)
        w = stick_breaking(v)

        # (iii) atoms
        sum_y = np.bincount(z, weights=y, minlength=L)
        post_prec = 1.0 / prior.S0 + counts / sigma2
        post_mean = (prior.m0 / prior.S0 + sum_y / sigma2) / post_prec
        mu = post_mean + gen.standard_normal(L) / np.sqrt(post_prec)
        ss = np.bincount(z, weights=(y - mu[z]) ** 2, minlength=L)
        shape = prior.a + 0.5 * counts
        rate = prior.b + 0.5 * ss
        sigma2 = 1.0 / np.asarray(gamma_shape_rate(shape, rate, gen), dtype=float)
        empty = counts == 0
        if np.any(empty):
            mu_e, s2_e = sample_atoms_prior(prior, int(empty.sum()), gen)
            mu[empty] = mu_e
            sigma2[empty] = s2_e
        _check_state(sigma2)

        # (iv) concentration
        alpha = _update_alpha(v, prior.a_alpha, prior.b_alpha, gen)

        cum, ll = _allocation_cdf(_component_logdens(y, w, mu, sigma2))
        yield w, mu, sigma2, alpha, ll


def fit_ddp(y, Z, prior: DdpPrior | None = None, mcmc: McmcControl | None = None,
            rng=None) -> DdpDraws:
    """Blocked Gibbs for the shared-weights regression mixture.

    Component means are z'beta_l; the weights do not depend on covariates.
    beta_l and sigma2_l get conjugate updates (_update_components); the
    base-measure mean m and covariance S get normal and Wishart updates.
    Saved log-likelihood rows come from the allocation step, as in fit_dpm.
    """
    y = np.asarray(y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.size:
        raise DimMismatchError("design matrix rows must match the response length")
    if y.size < 2:
        raise TooFewPointsError("need at least two observations")
    prior = (prior or DdpPrior()).resolved(y, Z.shape[1])
    mcmc = mcmc or McmcControl()
    w, beta, s2, alpha, ll = _collect(mcmc, _ddp_sweeps(y, Z, prior, _gen(rng)))
    return DdpDraws(weights=w, beta=beta, sigma2=s2, alpha=alpha, loglik=ll,
                    y=y.copy(), Z=Z.copy(), prior=prior, mcmc=mcmc)


def _ddp_sweeps(y, Z, prior: DdpPrior, gen):
    """Yield (w, beta, sigma2, alpha, loglik) after every sweep of fit_ddp."""
    (n, q), L = Z.shape, prior.L
    m0 = np.asarray(prior.m0, dtype=float)
    S0_inv = np.linalg.inv(np.asarray(prior.S0, dtype=float))
    nu, Psi = float(prior.nu), np.asarray(prior.Psi, dtype=float)
    nuPsi = nu * Psi
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(n, q * q)
    Zy = Z * y[:, None]

    alpha = prior.a_alpha / prior.b_alpha
    m = m0.copy()
    S_inv = np.linalg.inv(Psi)  # E[S^-1] under the Wishart prior
    S_chol = np.linalg.cholesky(np.linalg.inv(S_inv))
    beta = m[None, :] + (S_chol @ gen.standard_normal((q, L))).T
    sigma2 = 1.0 / np.asarray(gamma_shape_rate(prior.a, prior.b, gen, size=L), dtype=float)
    w = stick_breaking(_update_sticks(np.zeros(L, dtype=int), alpha, gen))
    cum, _ = _allocation_cdf(_component_logdens(y, w, beta @ Z.T, sigma2))
    while True:
        z = _allocate(cum, gen)
        counts = np.bincount(z, minlength=L)

        v = _update_sticks(counts, alpha, gen)
        w = stick_breaking(v)

        beta, sigma2 = _update_components(
            Z, y, z, counts, ZZ, Zy, S_inv, m, sigma2, prior.a, prior.b, gen
        )[:2]
        _check_state(sigma2)

        # base-measure mean
        chol_m = np.linalg.cholesky(S0_inv + L * S_inv)
        half = np.linalg.solve(chol_m, S0_inv @ m0 + S_inv @ beta.sum(axis=0))
        m = np.linalg.solve(chol_m.T, half + gen.standard_normal(q))

        # base-measure covariance (precision is Wishart-conjugate)
        dev = beta - m[None, :]
        scale = np.linalg.inv(nuPsi + dev.T @ dev)
        scale = 0.5 * (scale + scale.T)
        S_inv = wishart(nu + L, scale, gen)

        alpha = _update_alpha(v, prior.a_alpha, prior.b_alpha, gen)

        cum, ll = _allocation_cdf(_component_logdens(y, w, beta @ Z.T, sigma2))
        yield w, beta, sigma2, alpha, ll


def _mixture_callbacks(weights, means, sd, m: int):
    """invert_cdf callbacks (cdf, pdf) over draws with m points each.

    Flat position pos belongs to draw pos // m; each call gathers only
    its points' draws and works in place, so a chunk's peak memory stays
    near two (points, components) arrays.
    """
    w_sd = weights / (sd * math.sqrt(2.0 * math.pi))

    def z_of(x, d):
        z = np.subtract(x[:, None], np.take(means, d, axis=0))
        z /= np.take(sd, d, axis=0)
        return z

    def cdf(x, pos):
        d = pos // m
        z = z_of(x, d)
        return np.einsum("al,al->a", ndtr(z, out=z), np.take(weights, d, axis=0))

    def pdf(x, pos):
        d = pos // m
        z = z_of(x, d)
        z *= z
        z *= -0.5
        return np.einsum("al,al->a", np.exp(z, out=z), np.take(w_sd, d, axis=0))

    return cdf, pdf


def mixture_quantile(weights, means, sigma2, q) -> np.ndarray:
    """Per-draw quantiles of normal mixtures by safeguarded Newton (`invert_cdf`).

    weights/means/sigma2 are (S, L); q is (m,) shared across draws or
    (S, m). Returns (S, m). Brackets span all components +-10 sd, so any
    q strictly inside (0, 1) is straddled; q is clipped to [1e-12, 1-1e-12].
    Each quantile starts from the moment-matched normal quantile
    m + sqrt(v) Phi^{-1}(q) and takes Newton steps on the closed-form
    mixture density. Draws are inverted in chunks of about 4e6
    (point, component) elements.
    """
    w, mu, s2 = _as_sl(weights), _as_sl(means), _as_sl(sigma2)
    sd = np.sqrt(s2)
    S = w.shape[0]
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = np.broadcast_to(q, (S, q.size))
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    if w.shape[1] == 1:
        return mu[:, :1] + sd[:, :1] * ndtri(q)
    m = q.shape[1]
    out = np.empty((S, m))
    chunk = max(1, int(4_000_000 / max(1, m * w.shape[1])))
    for start in range(0, S, chunk):
        rows = slice(start, min(S, start + chunk))
        cdf, pdf = _mixture_callbacks(w[rows], mu[rows], sd[rows], m)
        mean, var = mixture_mean_variance(w[rows], mu[rows], s2[rows])
        out[rows] = invert_cdf(
            cdf, q[rows],
            (mu[rows] - 10.0 * sd[rows]).min(axis=1)[:, None],
            (mu[rows] + 10.0 * sd[rows]).max(axis=1)[:, None],
            pdf=pdf, start=mean[:, None] + np.sqrt(var)[:, None] * ndtri(q[rows]),
        )
    return out
