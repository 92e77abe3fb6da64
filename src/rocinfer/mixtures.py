"""Truncated stick-breaking normal mixtures fit by blocked Gibbs sampling.

Two samplers: a location-scale normal mixture for a single sample
(fit_dpm), and its regression extension where component means are linear
in a design matrix while the stick weights are shared across covariates
(fit_ddp). Both run the one sweep loop `_gibbs_sweeps` with their own
atom updates, and save weights, atoms and the concentration parameter;
each saved per-observation log-likelihood row is folded into O(n) sums for
the fit criteria (`LoglikFold`). The mixture helpers take (S, L) arrays of
draws in blocks of about _BLOCK_ELEMENTS temporaries (`_draw_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ConfigError,
    DimMismatchError,
    MissingDrawsError,
    NumericalCollapseError,
    TooFewPointsError,
)
from .streams import (
    _gen,
    _stick_weights,
    stick_breaking,
    wishart,
)
from .summaries import invert_cdf

_LOG_2PI = math.log(2.0 * math.pi)
_BLOCK_ELEMENTS = 1 << 20


def _draw_blocks(S: int, per_draw: int) -> list:
    """Slices of S draws, each holding about _BLOCK_ELEMENTS elements at per_draw a draw."""
    step = max(1, _BLOCK_ELEMENTS // max(1, per_draw))
    return [slice(start, min(S, start + step)) for start in range(0, S, step)]


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


class LoglikFold:
    """Running sums over the rows of an (S, n) log-likelihood matrix, in O(n) memory.

    merge() folds a block of rows: their sums extend the (S,) chain sums; down
    each column, their max-shifted log-sum-exps of ll and -ll join lse and
    lse_neg by logaddexp, and their means and squared deviations join mean and
    m2 by Chan, Golub and LeVeque's pairwise update of Welford's recurrence.
    After a non-finite entry (finite is then False) only sums grows."""

    def __init__(self, n: int):
        self.n, self.count, self.finite, self.sums = n, 0, True, np.empty(0)
        self.lse, self.lse_neg = np.full(n, -np.inf), np.full(n, -np.inf)
        self.mean, self.m2 = np.zeros(n), np.zeros(n)

    @classmethod
    def of(cls, ll) -> "LoglikFold":
        """The fold of a draws-by-observations matrix, 64 rows at a time."""
        ll = np.asarray(ll, dtype=float)
        if ll.ndim != 2 or ll.size == 0:
            raise MissingDrawsError("need a draws-by-observations log-likelihood matrix")
        fold = cls(ll.shape[1])
        for start in range(0, ll.shape[0], 64):
            fold.merge(ll[start:start + 64])
        return fold

    def merge(self, b) -> None:
        self.finite = self.finite and bool(np.isfinite(b).all())
        with np.errstate(invalid="ignore"):
            self.sums = np.concatenate([self.sums, b.sum(axis=1)])
        if not self.finite:
            return
        k, top, low, mean = b.shape[0], b.max(axis=0), b.min(axis=0), b.mean(axis=0)
        t = np.exp(b - top)
        self.lse = np.logaddexp(self.lse, top + np.log(t.sum(axis=0)))
        t = np.exp(np.subtract(low, b, out=t), out=t)
        self.lse_neg = np.logaddexp(self.lse_neg, np.log(t.sum(axis=0)) - low)
        t = np.square(np.subtract(b, mean, out=t), out=t)
        delta, total = mean - self.mean, self.count + k
        self.m2 += t.sum(axis=0) + delta * delta * (self.count * k / total)
        self.mean += delta * (k / total)
        self.count = total


class _SavedDraws:
    """Saved Gibbs output. fold holds the running sums of the saved log-likelihood
    rows, log f_s(y_i) on the scale y was fit on; loglik rebuilds that (S, n)
    matrix from the draws in blocks, bitwise the rows the sampler folded."""

    @property
    def nsave(self) -> int:
        return self.weights.shape[0]

    @property
    def loglik(self) -> np.ndarray:
        out = np.empty((self.nsave, self.y.size))
        for b in _draw_blocks(self.nsave, self.weights[0].size * self.y.size):
            lp = _component_logdens(self.y, self.weights[b], self._means(b), self.sigma2[b])
            out[b] = _allocation_cdf(lp)[1]
        return out


@dataclass(frozen=True)
class DpmDraws(_SavedDraws):
    """Saved Gibbs output for the no-covariate mixture."""

    weights: np.ndarray  # (S, L)
    means: np.ndarray    # (S, L)
    sigma2: np.ndarray   # (S, L)
    alpha: np.ndarray    # (S,)
    fold: LoglikFold
    y: np.ndarray
    prior: DpmPrior
    mcmc: McmcControl

    def _means(self, b):
        return self.means[b]

    def cdf(self, y0) -> np.ndarray:
        return mixture_cdf(self.weights, self.means, self.sigma2, y0)


@dataclass(frozen=True)
class DdpDraws(_SavedDraws):
    """Saved Gibbs output for the shared-weights regression mixture (rows log f_s(y_i | z_i))."""

    weights: np.ndarray  # (S, L)
    beta: np.ndarray     # (S, L, q)
    sigma2: np.ndarray   # (S, L)
    alpha: np.ndarray    # (S,)
    fold: LoglikFold
    y: np.ndarray
    Z: np.ndarray
    prior: DdpPrior
    mcmc: McmcControl

    def _means(self, b):
        return self.beta[b] @ self.Z.T

    def conditional_means(self, zrow) -> np.ndarray:
        """Per-draw component means z'beta_l, shape (S, L)."""
        z = np.asarray(zrow, dtype=float)
        return self.beta @ z

    def cdf_at(self, y, Z, draws=slice(None)) -> np.ndarray:
        """(S, n) matrix of F^(s)(y_i | z_i), each point under its own design row, for the
        draws selected (by default all S)."""
        Z, beta = np.asarray(Z, dtype=float), self.beta[draws]
        return mixture_cdf(self.weights[draws], lambda b: _point_means(beta[b], Z),
                           self.sigma2[draws], y)


def _point_means(beta, Z) -> np.ndarray:
    """(B, n, L) component means z_i'beta_l of B draws' (B, L, q) coefficients at n design
    rows, as one batched matmul (within an ulp or so of the per-term einsum sums)."""
    return Z @ np.swapaxes(beta, 1, 2)


def mixture_cdf(weights, means, sigma2, y0) -> np.ndarray:
    """F(y0) of a normal mixture, evaluated per draw.

    weights/means/sigma2 are (S, L); y0 may be scalar, a vector shared by
    all draws, or an (S, m) matrix with one row of points per draw.
    Returns (S, m).
    """
    return _per_draw(lambda z, s2: ndtr(z, out=z), weights, means, sigma2, y0)


def mixture_pdf(weights, means, sigma2, y0) -> np.ndarray:
    """Density counterpart of mixture_cdf, same shape conventions."""
    return _per_draw(lambda z, s2: np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * s2),
                     weights, means, sigma2, y0)


def _per_draw(kernel, weights, means, sigma2, y0):
    """sum_l w_l kernel(z, sigma2_l), z = (y0 - mean_l) / sd_l, per draw and point, by blocks;
    means is (S, L), or a function of a block b of draws giving its (B, m, L) means."""
    w, s2 = np.asarray(weights, dtype=float), np.asarray(sigma2, dtype=float)
    mu = None if callable(means) else np.asarray(means, dtype=float)
    mean_of = means if mu is None else (lambda b: mu[b, None, :])
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    rows = np.broadcast_to(y, (w.shape[0], y.shape[-1]))
    out = np.empty(rows.shape)
    for b in _draw_blocks(w.shape[0], w.shape[1] * rows.shape[1]):
        z = np.subtract(rows[b, :, None], mean_of(b))
        z /= np.sqrt(s2[b])[:, None, :]
        np.einsum("sml,sl->sm", kernel(z, s2[b, None, :]), w[b], out=out[b])
        del z  # before the next block's
    return out


def mixture_mean_variance(weights, means, sigma2):
    """Mean and variance of the mixture per draw of (S, L) arrays (law of total variance)."""
    m = np.einsum("sl,sl->s", weights, means)
    v = (np.einsum("sl,sl->s", weights, sigma2)
         + np.einsum("sl,sl->s", weights, means * means) - m * m)
    return m, v


def _component_logdens(y, weights, means, sigma2) -> np.ndarray:
    """(L, n) matrix of log w_l + log N(y_i; mean_li, sigma2_l); (B, L, n) for B draws.

    means is (L,) for the location mixture or (L, n) for the regression
    mixture (one row of z_i'beta_l per component). Component-major, so
    the reductions over components run down contiguous columns.
    """
    lead = np.log(np.maximum(weights, 1e-300)) - 0.5 * (_LOG_2PI + np.log(sigma2))
    lp = y - np.reshape(means, sigma2.shape + (-1,))
    np.square(lp, out=lp)
    lp *= 0.5
    lp /= sigma2[..., None]
    return np.subtract(lead[..., None], lp, out=lp)


def _allocation_cdf(lp):
    """Cumulative component masses down each column of an (L, n) log-density
    matrix (in place, max-shifted), and each column's log-sum-exp: the
    observation's mixture log-likelihood. A (B, L, n) block works per draw."""
    top = lp.max(axis=-2)
    lp -= top[..., None, :]
    cum = np.exp(lp, out=lp)
    for l in range(1, cum.shape[-2]):  # row adds: cumsum down the component axis is slower
        cum[..., l, :] += cum[..., l - 1, :]
    return cum, top + np.log(cum[..., -1, :])


def _allocate(cum, gen):
    """Column i takes the first component whose mass reaches u_i times the total."""
    L = cum.shape[0]
    u = gen.random(cum.shape[1])
    # a uint8 count (faster than the default int64 one) is exact only up to 255 components
    below = (cum < u * cum[-1]).sum(axis=0, dtype=np.uint8 if L <= 255 else np.intp)
    return np.minimum(below, L - 1).astype(np.intp, copy=False)


def sample_atoms_prior(prior: DpmPrior, size: int, rng):
    """(mu, sigma2) draws from the base measure, used for empty components."""
    gen = _gen(rng)
    mu = prior.m0 + math.sqrt(prior.S0) * gen.standard_normal(size)
    return mu, 1.0 / gen.gamma(prior.a, 1.0 / prior.b, size=size)


def _update_sticks(counts, alpha, gen):
    """Stick proportions given the allocation counts; the last is 1 (none to draw when L = 1)."""
    tail = counts.sum() - np.cumsum(counts)
    v = np.minimum(np.maximum(gen.beta(1.0 + counts[:-1], alpha + tail[:-1]), 1e-12), 1.0 - 1e-12)
    return np.concatenate([v, [1.0]])


def _update_alpha(v, prior_a, prior_b, gen):
    """Concentration given the stick proportions (its gamma prior when L = 1)."""
    rate = prior_b - np.sum(np.log1p(-v[:-1]))
    if not rate > 0:
        raise NumericalCollapseError("concentration update produced a nonpositive rate")
    return float(gen.gamma(prior_a + v.size - 1, 1.0 / rate))  # the shape is at least a_alpha > 0


def _update_components(Z, y, z, counts, ZZ, Zy, S_inv, m, sigma2, a, b, gen):
    """Conjugate draws of all regression components' (beta_l, sigma2_l) at once.

    Z_l'Z_l and Z_l'y are the products of the (L, n) one-hot allocation
    matrix with the row outer products ZZ (n, q*q) and with Z*y; one
    batched Cholesky and two batched solves follow.
    Draws keep the per-component order (q normals, then a standard gamma
    scaled by 1/rate, as gamma(shape, 1/rate) does). Returns beta (L, q),
    sigma2 (L,), the posterior means and the precisions' Cholesky factors.
    """
    L, q = sigma2.size, Z.shape[1]
    onehot = np.zeros((L, z.size))
    onehot[z, np.arange(z.size)] = 1.0
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
    resid = y - np.einsum("ij,ij->i", Z, np.take(beta, z, axis=0))
    rate = b + 0.5 * np.bincount(z, weights=resid * resid, minlength=L)  # positive as b > 0
    return beta, 1.0 / ((1.0 / rate) * g), mean, chol


def _collect(mcmc: McmcControl, sweeps) -> list:
    """Stack every nskip-th state after nburn of an endless sweep generator, but
    fold the last element, the log-likelihood row, 64 rows at a time (`LoglikFold`)."""
    out, fold, rows = None, None, []
    for saved in range(mcmc.nsave):
        for _ in range(mcmc.nskip if saved else mcmc.nburn + mcmc.nskip):
            state = next(sweeps)
        out = out or [np.empty((mcmc.nsave,) + np.shape(a)) for a in state[:-1]]
        fold = fold or LoglikFold(np.size(state[-1]))
        for o, a in zip(out, state):
            o[saved] = a
        rows.append(state[-1])
        if len(rows) == 64 or saved == mcmc.nsave - 1:
            fold.merge(np.array(rows))
            rows = []
    return out + [fold]


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
        w = _stick_weights(v)  # v is clamped into [1e-12, 1 - 1e-12] and ends in 1
        atoms = update(z, counts, atoms)
        if not (np.isfinite(atoms[-1]) & (atoms[-1] > 0)).all():
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
        ss = np.bincount(z, weights=(y - np.take(mu, z)) ** 2, minlength=prior.L)
        rate = prior.b + 0.5 * ss
        sigma2 = 1.0 / gen.gamma(prior.a + 0.5 * counts, 1.0 / rate)  # positive as a, b > 0
        empty = counts == 0
        if empty.any():
            mu[empty], sigma2[empty] = sample_atoms_prior(prior, int(empty.sum()), gen)
        return mu, sigma2

    sweeps = _gibbs_sweeps(y, prior, gen, sample_atoms_prior(prior, prior.L, gen), update,
                           lambda mu: mu)
    w, mu, s2, alpha, fold = _collect(mcmc, sweeps)
    return DpmDraws(weights=w, means=mu, sigma2=s2, alpha=alpha, fold=fold,
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
    sigma2 = 1.0 / gen.gamma(prior.a, 1.0 / prior.b, size=L)
    sweeps = _gibbs_sweeps(y, prior, gen, (beta, sigma2), update, lambda beta: beta @ Z.T)
    w, beta, s2, alpha, fold = _collect(mcmc, sweeps)
    return DdpDraws(weights=w, beta=beta, sigma2=s2, alpha=alpha, fold=fold,
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
    mixture density. Draws are inverted in blocks (`_draw_blocks`); a
    point holds L elements in the callbacks and about 20 in the inverter.
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
    for rows in _draw_blocks(S, m * (w.shape[1] + 20)):
        cdf, pdf = _mixture_callbacks(w[rows], mu[rows], sd[rows], m)
        mean, var = mixture_mean_variance(w[rows], mu[rows], s2[rows])
        out[rows] = invert_cdf(
            cdf, q[rows],
            (mu[rows] - 10.0 * sd[rows]).min(axis=1)[:, None],
            (mu[rows] + 10.0 * sd[rows]).max(axis=1)[:, None],
            pdf=pdf, start=mean[:, None] + np.sqrt(var)[:, None] * ndtri(q[rows]),
        )
    return out
