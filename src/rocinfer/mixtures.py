"""Truncated stick-breaking normal mixtures fit by blocked Gibbs sampling.

Two samplers: a location-scale normal mixture for a single sample
(fit_dpm), and its regression extension where component means are linear
in a design matrix while the stick weights are shared across covariates
(fit_ddp). Both run the one sweep loop `_gibbs_sweeps` with their own
atom updates, and save weights, atoms, the concentration parameter, and a
per-observation log-likelihood matrix for the fit criteria, read off the
allocation step's log-densities at each saved state. The mixture helpers
take (S, L) arrays of draws.
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
        return _resolved(self, y)


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
        out = _resolved(self, y, q)
        if (np.shape(out.m0), np.shape(out.S0), np.shape(out.Psi)) != ((q,), (q, q), (q, q)):
            raise DimMismatchError("prior dimensions do not match the design matrix")
        if not out.nu > q - 1:
            raise ConfigError("nu must exceed q - 1")
        return out


def _resolved(prior, y, q: int | None = None):
    """The prior with its None fields filled from the sample y, then checked.

    The fills are m0 = mean(y), S0 = 10 var(y) and b = a var(y); with a
    design of q columns m0 is (mean(y), 0, ..., 0), S0 is 10 var(y) I,
    Psi = var(y) I and nu = q + 2. L must be at least 1 and every scalar
    scale or shape field positive.
    """
    y = np.asarray(y, dtype=float)
    var = max(float(np.var(y, ddof=1)) if y.size > 1 else 1.0, 1e-12)
    mean = float(np.mean(y))
    fills = {"m0": mean, "S0": 10.0 * var, "b": prior.a * var}
    if q is not None:
        fills.update(m0=np.r_[mean, np.zeros(q - 1)], S0=10.0 * var * np.eye(q),
                     nu=q + 2.0, Psi=var * np.eye(q))
    out = replace(prior, **{k: v for k, v in fills.items() if getattr(prior, k) is None})
    if out.L < 1:
        raise ConfigError("L must be at least 1")
    for name in ("S0", "a", "b", "a_alpha", "b_alpha"):
        val = getattr(out, name)
        if np.ndim(val) == 0 and not val > 0:
            raise ConfigError("%s must be positive" % name)
    return out


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


def mixture_cdf(weights, means, sigma2, y0) -> np.ndarray:
    """F(y0) of a normal mixture, evaluated per draw.

    weights/means/sigma2 are (S, L); y0 may be scalar, a vector shared by
    all draws, or an (S, m) matrix with one row of points per draw.
    Returns (S, m).
    """
    return _per_draw(lambda z, s2: ndtr(z), weights, means, sigma2, y0)


def mixture_pdf(weights, means, sigma2, y0) -> np.ndarray:
    """Density counterpart of mixture_cdf, same shape conventions."""
    return _per_draw(lambda z, s2: np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * s2),
                     weights, means, sigma2, y0)


def _per_draw(kernel, weights, means, sigma2, y0):
    """sum_l w_l kernel(z, sigma2_l), z = (y0 - mean_l) / sd_l, per draw and point."""
    w, mu, s2 = (np.asarray(a, dtype=float) for a in (weights, means, sigma2))
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    rows = y if y.ndim == 2 else y[None, :]
    z = (rows[:, :, None] - mu[:, None, :]) / np.sqrt(s2)[:, None, :]
    return np.einsum("sml,sl->sm", kernel(z, s2[:, None, :]), w)


def mixture_mean_variance(weights, means, sigma2):
    """Mean and variance of the mixture per draw of (S, L) arrays (law of total variance)."""
    m = np.einsum("sl,sl->s", weights, means)
    v = (np.einsum("sl,sl->s", weights, sigma2)
         + np.einsum("sl,sl->s", weights, means * means) - m * m)
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


def _update_sticks(counts, alpha, gen):
    """Stick proportions given the allocation counts; the last is 1 (none to draw when L = 1)."""
    tail = counts.sum() - np.cumsum(counts)
    v = np.clip(gen.beta(1.0 + counts[:-1], alpha + tail[:-1]), 1e-12, 1.0 - 1e-12)
    return np.concatenate([v, [1.0]])


def _update_alpha(v, prior_a, prior_b, gen):
    """Concentration given the stick proportions (its gamma prior when L = 1)."""
    rate = prior_b - np.sum(np.log1p(-v[:-1]))
    if not rate > 0:
        raise NumericalCollapseError("concentration update produced a nonpositive rate")
    return float(gamma_shape_rate(prior_a + v.size - 1, rate, gen))


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


def _observations(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise TooFewPointsError("need at least two observations")
    if not np.all(np.isfinite(y)):
        raise TooFewPointsError("observations must be finite")
    return y


def _gibbs_sweeps(y, prior, gen, atoms, update, means):
    """Yield (w, *atoms, alpha, loglik) after every blocked Gibbs sweep.

    This is the blocked Gibbs sampler for truncated stick-breaking priors
    (Ishwaran and James 2001, JASA). atoms holds the component parameters
    drawn from the base measure, variances last; means(atoms[0]) gives
    the component means, (L,) or (L, n). Sweep order: allocations,
    sticks, atoms by update(z, counts, atoms), concentration. The initial
    sticks are drawn after the atoms. Each sweep ends by evaluating the
    next allocation step's log-densities at its new state; their column
    log-sum-exps are the sweep's log-likelihood row.
    """
    L = prior.L
    alpha = prior.a_alpha / prior.b_alpha
    w = stick_breaking(_update_sticks(np.zeros(L, dtype=int), alpha, gen))
    cum, _ = _allocation_cdf(_component_logdens(y, w, means(atoms[0]), atoms[-1]))
    while True:
        z = _allocate(cum, gen)
        counts = np.bincount(z, minlength=L)
        v = _update_sticks(counts, alpha, gen)
        w = stick_breaking(v)
        atoms = update(z, counts, atoms)
        if not np.all(np.isfinite(atoms[-1])) or np.any(atoms[-1] <= 0):
            raise NumericalCollapseError("a component variance left the feasible range")
        alpha = _update_alpha(v, prior.a_alpha, prior.b_alpha, gen)
        cum, ll = _allocation_cdf(_component_logdens(y, w, means(atoms[0]), atoms[-1]))
        yield (w, *atoms, alpha, ll)


def fit_dpm(y, prior: DpmPrior | None = None, mcmc: McmcControl | None = None,
            rng=None) -> DpmDraws:
    """Blocked Gibbs for the truncated stick-breaking normal mixture (`_gibbs_sweeps`).

    The atom update draws mu given sigma2, then sigma2 given the new mu;
    empty components are refreshed from the base measure. Draws are
    saved every nskip sweeps after nburn.
    """
    y = _observations(y)
    prior = (prior or DpmPrior()).resolved(y)
    mcmc = mcmc or McmcControl()
    gen = _gen(rng)

    def update(z, counts, atoms):
        sigma2 = atoms[1]
        sum_y = np.bincount(z, weights=y, minlength=prior.L)
        post_prec = 1.0 / prior.S0 + counts / sigma2
        post_mean = (prior.m0 / prior.S0 + sum_y / sigma2) / post_prec
        mu = post_mean + gen.standard_normal(prior.L) / np.sqrt(post_prec)
        ss = np.bincount(z, weights=(y - mu[z]) ** 2, minlength=prior.L)
        rate = prior.b + 0.5 * ss
        sigma2 = 1.0 / np.asarray(gamma_shape_rate(prior.a + 0.5 * counts, rate, gen), dtype=float)
        empty = counts == 0
        if np.any(empty):
            mu[empty], sigma2[empty] = sample_atoms_prior(prior, int(empty.sum()), gen)
        return mu, sigma2

    sweeps = _gibbs_sweeps(y, prior, gen, sample_atoms_prior(prior, prior.L, gen), update,
                           lambda mu: mu)
    w, mu, s2, alpha, ll = _collect(mcmc, sweeps)
    return DpmDraws(weights=w, means=mu, sigma2=s2, alpha=alpha, loglik=ll,
                    y=y.copy(), prior=prior, mcmc=mcmc)


def fit_ddp(y, Z, prior: DdpPrior | None = None, mcmc: McmcControl | None = None,
            rng=None) -> DdpDraws:
    """Blocked Gibbs for the shared-weights regression mixture (`_gibbs_sweeps`).

    Component means are z'beta_l; the weights do not depend on covariates.
    The atom update draws beta_l and sigma2_l by conjugate updates
    (_update_components), then the base-measure mean m and precision
    S^-1 by normal and Wishart updates.
    """
    y = np.asarray(y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.size:
        raise DimMismatchError("design matrix rows must match the response length")
    y = _observations(y)
    prior = (prior or DdpPrior()).resolved(y, Z.shape[1])
    mcmc = mcmc or McmcControl()
    gen = _gen(rng)
    (n, q), L = Z.shape, prior.L
    m0 = np.asarray(prior.m0, dtype=float)
    S0_inv = np.linalg.inv(np.asarray(prior.S0, dtype=float))
    nu, Psi = float(prior.nu), np.asarray(prior.Psi, dtype=float)
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(n, q * q)
    Zy = Z * y[:, None]
    m, S_inv = m0.copy(), np.linalg.inv(Psi)  # E[S^-1] under the Wishart prior

    def update(z, counts, atoms):
        nonlocal m, S_inv
        beta, sigma2 = _update_components(Z, y, z, counts, ZZ, Zy, S_inv, m, atoms[1],
                                          prior.a, prior.b, gen)[:2]
        chol_m = np.linalg.cholesky(S0_inv + L * S_inv)
        half = np.linalg.solve(chol_m, S0_inv @ m0 + S_inv @ beta.sum(axis=0))
        m = np.linalg.solve(chol_m.T, half + gen.standard_normal(q))
        dev = beta - m[None, :]
        scale = np.linalg.inv(nu * Psi + dev.T @ dev)
        S_inv = wishart(nu + L, 0.5 * (scale + scale.T), gen)
        return beta, sigma2

    beta = m[None, :] + (np.linalg.cholesky(np.linalg.inv(S_inv)) @ gen.standard_normal((q, L))).T
    sigma2 = 1.0 / np.asarray(gamma_shape_rate(prior.a, prior.b, gen, size=L), dtype=float)
    sweeps = _gibbs_sweeps(y, prior, gen, (beta, sigma2), update, lambda beta: beta @ Z.T)
    w, beta, s2, alpha, ll = _collect(mcmc, sweeps)
    return DdpDraws(weights=w, beta=beta, sigma2=s2, alpha=alpha, loglik=ll,
                    y=y.copy(), Z=Z.copy(), prior=prior, mcmc=mcmc)


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
    w, mu, s2 = (np.asarray(a, dtype=float) for a in (weights, means, sigma2))
    sd = np.sqrt(s2)
    S = w.shape[0]
    q = np.asarray(q, dtype=float)
    q = np.clip(np.broadcast_to(q, (S, q.shape[-1])), 1e-12, 1.0 - 1e-12)
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
