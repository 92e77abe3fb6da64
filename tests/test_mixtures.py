import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import logsumexp, ndtr, ndtri

from rocinfer.design import build_design, parse_formula
from rocinfer.diagnostics import effective_sample_size
from rocinfer import mixtures
from rocinfer.errors import (
    ConfigError,
    DimMismatchError,
    NumericalCollapseError,
    RocinferWarning,
    TooFewPointsError,
)
from rocinfer.generate import simulate_endosyn_like
from rocinfer.ingest import ingest_csv
from rocinfer.mixtures import (
    DdpPrior,
    DpmPrior,
    LoglikFold,
    McmcControl,
    _allocate,
    _allocation_cdf,
    _update_components,
    fit_ddp,
    fit_dpm,
    mixture_cdf,
    mixture_mean_variance,
    mixture_pdf,
    mixture_quantile,
    sample_atoms_prior,
)
from rocinfer.sample import split_groups, standardise
from rocinfer.streams import RngStream, stick_breaking
from rocinfer.summaries import mixture_auc_closed


def test_dpm_prior_resolves_from_data():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    p = DpmPrior().resolved(y)
    assert p.m0 == pytest.approx(3.0)
    assert p.S0 == pytest.approx(25.0)  # 10 * var(ddof=1)
    assert p.b == pytest.approx(5.0)
    assert p.a == 2.0 and p.L == 10
    # explicit fields survive resolution
    q = DpmPrior(m0=0.0, S0=1.0, b=9.0, L=3).resolved(y)
    assert (q.m0, q.S0, q.b, q.L) == (0.0, 1.0, 9.0, 3)


def test_prior_and_control_validation():
    with pytest.raises(ConfigError):
        DpmPrior(L=0).resolved(np.arange(5.0))
    with pytest.raises(ConfigError):
        DpmPrior(S0=-1.0).resolved(np.arange(5.0))
    with pytest.raises(ConfigError):
        McmcControl(nsave=0)
    with pytest.raises(ConfigError):
        McmcControl(nskip=0)
    McmcControl(nburn=0)  # zero burn-in is allowed


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("field", ["a", "b", "a_alpha", "b_alpha"])
def test_gamma_shape_and_rate_fields_must_be_positive(field, value):
    # a, b, a_alpha and b_alpha feed gen.gamma(shape, 1 / rate) directly,
    # so resolution is the only check that keeps those draws well defined.
    y = np.arange(10.0)
    with pytest.raises(ConfigError, match=field):
        DpmPrior(**{field: value}).resolved(y)
    with pytest.raises(ConfigError, match=field):
        DdpPrior(**{field: value}).resolved(y, q=2)


def test_sample_atoms_prior_precision_is_shape_rate_gamma():
    # precision 1/sigma2 ~ Gamma(shape a, rate b): mean a/b, variance a/b^2
    prior = DpmPrior(m0=0.0, S0=1.0, a=4.0, b=2.0)
    _, s2 = sample_atoms_prior(prior, 20000, RngStream(2, 0))
    prec = 1.0 / s2
    assert prec.mean() == pytest.approx(2.0, abs=0.05)
    assert prec.var() == pytest.approx(1.0, rel=0.06)


def test_ddp_prior_resolves_shapes():
    y = np.arange(10.0)
    p = DdpPrior().resolved(y, q=3)
    var = np.var(y, ddof=1)
    assert p.m0.shape == (3,) and p.m0[0] == pytest.approx(y.mean())
    assert np.allclose(p.S0, 10.0 * var * np.eye(3))
    assert np.allclose(p.Psi, var * np.eye(3))
    assert p.nu == 5.0
    with pytest.raises(DimMismatchError):
        DdpPrior(m0=np.zeros(2)).resolved(y, q=3)


def test_sample_atoms_prior_moments():
    prior = DpmPrior(m0=1.0, S0=4.0, a=3.0, b=6.0)
    mu, s2 = sample_atoms_prior(prior, 20000, RngStream(11, 0))
    assert mu.mean() == pytest.approx(1.0, abs=0.05)
    assert mu.var() == pytest.approx(4.0, rel=0.05)
    # sigma2 is inverse gamma: mean b/(a-1) = 3
    assert s2.mean() == pytest.approx(3.0, abs=0.12)
    assert np.all(s2 > 0)


def test_mixture_cdf_single_component_is_normal():
    val = mixture_cdf(np.array([[1.0]]), np.array([[0.5]]), np.array([[4.0]]),
                      np.array([0.5, 2.5]))
    assert np.allclose(val, ndtr(np.array([[0.0, 1.0]])))
    one = np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]])
    dens = mixture_pdf(*one, np.array([0.0]))
    assert dens[0, 0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
    assert mixture_cdf(*one, 0.0)[0, 0] == pytest.approx(0.5)


def test_mixture_mean_variance_hand_case():
    m, v = mixture_mean_variance(np.array([[0.5, 0.5]]), np.array([[0.0, 2.0]]),
                                 np.array([[1.0, 1.0]]))
    assert m[0] == pytest.approx(1.0) and v[0] == pytest.approx(2.0)


def test_mixture_quantile_single_component_fast_path():
    q = np.array([0.1, 0.5, 0.9])
    out = mixture_quantile(np.array([[1.0]]), np.array([[2.0]]), np.array([[9.0]]), q)
    assert np.allclose(out[0], 2.0 + 3.0 * ndtri(q), atol=1e-12)


def test_mixture_quantile_roundtrips_through_cdf():
    w = np.array([[0.2, 0.5, 0.3]])
    mu = np.array([[-1.0, 0.0, 3.0]])
    s2 = np.array([[0.5, 2.0, 1.0]])
    q = np.linspace(0.01, 0.99, 25)
    x = mixture_quantile(w, mu, s2, q)
    back = mixture_cdf(w, mu, s2, x[0])  # (1, 25): draw 0 at each quantile
    assert np.allclose(back[0], q, atol=1e-6)
    assert np.all(np.diff(x[0]) > 0)


def _bisection_quantile(weights, means, sigma2, q):
    """The former mixture_quantile: global 200-step bisection, kept as the oracle."""
    w, mu, s2 = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (weights, means, sigma2))
    sd = np.sqrt(s2)
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = np.broadcast_to(q, (w.shape[0], q.size))
    q = np.clip(q, 1e-12, 1.0 - 1e-12)
    if w.shape[1] == 1:
        return mu[:, :1] + sd[:, :1] * ndtri(q)
    lo = np.broadcast_to((mu - 10.0 * sd).min(axis=1)[:, None], q.shape).copy()
    hi = np.broadcast_to((mu + 10.0 * sd).max(axis=1)[:, None], q.shape).copy()
    width_floor = 1e-10 * max(1.0, float(np.max(hi - lo)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = np.einsum("sml,sl->sm", ndtr((mid[:, :, None] - mu[:, None, :]) / sd[:, None, :]), w)
        go_right = f < q
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        if np.all((np.abs(f - q) <= 1e-8) | (hi - lo <= width_floor)):
            break
    return 0.5 * (lo + hi)


def _inverter_cases():
    gen = RngStream(2027, 0).generator
    ends = [1e-12, 1.0 - 1e-12]
    grid = np.sort(np.concatenate([ends, np.linspace(0.005, 0.995, 199), [1e-6, 1.0 - 1e-6]]))
    post_w = gen.dirichlet(np.full(10, 0.5), 30)
    post = (post_w, gen.normal(0.0, 1.0, (30, 10)), gen.gamma(2.0, 0.1, (30, 10)))
    return {
        # pdf ~ 1e-190 between the modes: Newton steps leave the bracket
        "far_modes": ([[0.5, 0.5]], [[0.0, 60.0]], [[1.0, 1.0]], grid),
        "weight_1e-300": ([[1.0, 1e-300, 0.0]], [[0.0, 5.0, -3.0]], [[1.0, 4.0, 0.25]], grid),
        "one_component": ([[1.0]], [[2.0]], [[9.0]], grid),
        "sd_1e-3_to_1e3": ([[0.3, 0.4, 0.3]], [[0.0, 1.0, -2.0]], [[1e-6, 1.0, 1e6]], grid),
        "posterior_like": post + (grid,),
        "per_draw_q": post + (np.sort(np.concatenate(
            [gen.uniform(0.0, 1.0, (30, 40)), np.tile(ends, (30, 1))], axis=1), axis=1),),
    }


@pytest.mark.parametrize("name", list(_inverter_cases()))
def test_mixture_quantile_meets_the_stopping_rule_and_matches_bisection(name):
    w, mu, s2, q = (np.asarray(a, dtype=float) for a in _inverter_cases()[name])
    c = mixture_quantile(w, mu, s2, q)
    old = _bisection_quantile(w, mu, s2, q)
    qq = np.clip(np.broadcast_to(q, c.shape), 1e-12, 1.0 - 1e-12)
    sd = np.sqrt(s2)
    width = (mu + 10.0 * sd).max(axis=1) - (mu - 10.0 * sd).min(axis=1)
    floor = 1e-10 * max(1.0, float(width.max()))
    for s in range(c.shape[0]):
        one = slice(s, s + 1)

        def F(x, one=one):
            return mixture_cdf(w[one], mu[one], s2[one], x)[0]

        # |F(c) - q| <= 1e-8, or c lies within the width floor of the root
        hit = np.abs(F(c[s]) - qq[s]) <= 1e-8
        near = (F(c[s] - floor) <= qq[s] + 1e-12) & (F(c[s] + floor) >= qq[s] - 1e-12)
        assert np.all(hit | near), (name, s, np.flatnonzero(~(hit | near)))
        assert np.all(np.diff(c[s]) >= 0.0)
        # both inverters meet the rule, so they agree in probability; in x
        # they must agree wherever the rule pins the quantile: where
        # 1e-8 / pdf is small next to the bracket (not in a gap between
        # modes or far in a tail, where F is flat to within 1e-8)
        assert np.all(np.abs(F(c[s]) - F(old[s])) <= 2e-8 + np.abs(F(c[s] + floor) - F(c[s] - floor)))
        pdf = mixture_pdf(w[one], mu[one], s2[one], old[s])[0]
        narrow = 1e-8 / np.maximum(pdf, 1e-300) <= 1e-7 * width[s]
        assert np.all(np.abs(c[s] - old[s])[narrow] <= 1e-6 * width[s]), (name, s)


def _mixture_means_per_draw(draws):
    m, _ = mixture_mean_variance(draws.weights, draws.means, draws.sigma2)
    return m


def test_dpm_single_component_interval_covers_truth():
    """Scaled-down coverage check: 20 standard-normal datasets, the
    central 95% interval for the mixture mean should cover 0 nearly
    always under a one-component fit."""
    mcmc = McmcControl(nsave=150, nburn=100)
    hits = 0
    for rep in range(20):
        y = RngStream(500 + rep, 0).generator.standard_normal(60)
        draws = fit_dpm(y, prior=DpmPrior(L=1), mcmc=mcmc, rng=RngStream(500 + rep, 1))
        m = _mixture_means_per_draw(draws)
        lo, hi = np.percentile(m, [2.5, 97.5])
        hits += int(lo <= 0.0 <= hi)
    assert hits >= 17


def test_dpm_recovers_location_and_scale():
    y = 2.0 + 0.5 * RngStream(42, 0).generator.standard_normal(200)
    draws = fit_dpm(y, prior=DpmPrior(L=1), mcmc=McmcControl(nsave=300, nburn=200),
                    rng=RngStream(42, 1))
    m = _mixture_means_per_draw(draws)
    _, v = mixture_mean_variance(draws.weights, draws.means, draws.sigma2)
    assert m.mean() == pytest.approx(2.0, abs=0.15)
    assert np.mean(v) == pytest.approx(0.25, rel=0.4)
    assert draws.weights.shape == (300, 1)
    assert np.allclose(draws.weights.sum(axis=1), 1.0)
    assert draws.loglik.shape == (300, 200)


def test_dpm_bimodal_functional_mixes():
    # Label switching is irrelevant for permutation-invariant functionals;
    # the mixture cdf at the trough should mix reasonably well.
    gen = RngStream(77, 0).generator
    y = np.concatenate([-2.0 + 0.5 * gen.standard_normal(60),
                        2.0 + 0.5 * gen.standard_normal(60)])
    draws = fit_dpm(y, prior=DpmPrior(L=10),
                    mcmc=McmcControl(nsave=400, nburn=200), rng=RngStream(77, 1))
    chain = draws.cdf(np.array([0.0]))[:, 0]
    assert chain.mean() == pytest.approx(0.5, abs=0.1)
    assert effective_sample_size(chain) > 40.0


def test_dpm_same_stream_is_deterministic():
    y = RngStream(9, 0).generator.standard_normal(50)
    kw = dict(prior=DpmPrior(L=4), mcmc=McmcControl(nsave=50, nburn=20))
    a = fit_dpm(y, rng=RngStream(9, 1), **kw)
    b = fit_dpm(y, rng=RngStream(9, 1), **kw)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.sigma2, b.sigma2)
    assert np.array_equal(a.alpha, b.alpha)


def test_dpm_rejects_degenerate_input():
    with pytest.raises(Exception):
        fit_dpm(np.array([1.0]))


def test_ddp_recovers_linear_regression():
    gen = RngStream(123, 0).generator
    x = gen.uniform(0.0, 1.0, 150)
    y = 1.0 + 2.0 * x + 0.3 * gen.standard_normal(150)
    Z = np.column_stack([np.ones_like(x), x])
    draws = fit_ddp(y, Z, prior=DdpPrior(L=5),
                    mcmc=McmcControl(nsave=250, nburn=150), rng=RngStream(123, 1))
    assert draws.beta.shape == (250, 5, 2)
    assert np.allclose(draws.weights.sum(axis=1), 1.0, atol=1e-12)
    # conditional mean at x = 0 and x = 1, permutation invariant
    at0 = np.einsum("sl,sl->s", draws.weights, draws.conditional_means([1.0, 0.0]))
    at1 = np.einsum("sl,sl->s", draws.weights, draws.conditional_means([1.0, 1.0]))
    assert at0.mean() == pytest.approx(1.0, abs=0.3)
    assert at1.mean() == pytest.approx(3.0, abs=0.3)
    assert draws.conditional_means([1.0, 0.5]).shape == (250, 5)


def test_ddp_rejects_mismatched_design():
    y = np.arange(5.0)
    with pytest.raises(DimMismatchError):
        fit_ddp(y, np.ones((4, 2)))


def test_allocate_handles_unnormalised_columns():
    cols = np.array([[2.0, 0.0], [0.0, 5.0], [1.0, 1.0]]).T
    with np.errstate(divide="ignore"):
        idx = _allocate(_allocation_cdf(np.log(cols))[0], RngStream(5).generator)
    assert idx.shape == (3,)
    assert idx[0] == 0 and idx[1] == 1


def _component_loop(Z, y, z, counts, S_inv, m, sigma2, a, b, gen):
    """Reference for _update_components: one conjugate update per component."""
    L, q = sigma2.size, Z.shape[1]
    beta, s2 = np.empty((L, q)), sigma2.copy()
    means, chols = np.empty((L, q)), np.empty((L, q, q))
    for l in range(L):
        Zl, yl = Z[z == l], y[z == l]
        prec = S_inv + (Zl.T @ Zl) / sigma2[l]
        rhs = S_inv @ m + (Zl.T @ yl) / sigma2[l]
        chols[l] = scipy.linalg.cholesky(prec, lower=True)
        means[l] = scipy.linalg.cho_solve((chols[l], True), rhs)
        beta[l] = means[l] + scipy.linalg.solve_triangular(
            chols[l].T, gen.standard_normal(q), lower=False
        )
        resid = yl - Zl @ beta[l]
        rate = b + 0.5 * float(resid @ resid)
        s2[l] = 1.0 / float(gen.gamma(a + 0.5 * counts[l], 1.0 / rate))
    return beta, s2, means, chols


def _component_state():
    """A fixed DDP state: component 0 empty, 1 holds one point, 2 holds
    three points with collinear design rows (rank-deficient Z_l), 3 the rest."""
    gen = RngStream(31, 0).generator
    n, q, L = 40, 3, 4
    x = gen.uniform(0.0, 1.0, n)
    Z = np.column_stack([np.ones(n), x, x ** 2])
    z = np.full(n, 3)
    z[0] = 1
    z[1:4] = 2
    Z[1:4] = Z[1]
    y = Z @ np.array([1.0, -2.0, 0.5]) + 0.3 * gen.standard_normal(n)
    counts = np.bincount(z, minlength=L)
    S_inv = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    return Z, y, z, counts, S_inv, np.array([0.5, 0.0, 0.1]), np.array([0.4, 1.3, 0.2, 0.9])


def test_batched_component_update_matches_per_component_loop():
    Z, y, z, counts, S_inv, m, sigma2 = _component_state()
    assert list(counts) == [0, 1, 3, 36]
    assert np.linalg.matrix_rank(Z[z == 2]) == 1
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(Z.shape[0], -1)
    ref_gen, gen = RngStream(8, 2).generator, RngStream(8, 2).generator
    ref = _component_loop(Z, y, z, counts, S_inv, m, sigma2, 2.0, 1.5, ref_gen)
    out = _update_components(Z, y, z, counts, ZZ, Z * y[:, None], S_inv, m, sigma2,
                             2.0, 1.5, gen)
    for name, got, want in zip(("beta", "sigma2", "mean", "chol"), out, ref):
        assert got.shape == want.shape, name
        assert np.allclose(got, want, rtol=0, atol=1e-10), name
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_batched_component_update_raises_on_lost_definiteness():
    Z, y, z, counts, S_inv, m, sigma2 = _component_state()
    ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(Z.shape[0], -1)
    with pytest.raises(NumericalCollapseError):
        _update_components(Z, y, z, counts, ZZ, Z * y[:, None], -S_inv, m, sigma2,
                           2.0, 1.5, RngStream(8, 2).generator)


def _normal_logpdf(y, mean, sigma2):
    return -0.5 * np.log(2.0 * np.pi * sigma2) - 0.5 * (y - mean) ** 2 / sigma2


@pytest.mark.parametrize("nskip", [1, 3])
@pytest.mark.parametrize("nsave,L", [(4, 3), (1, 3), (4, 1)])
def test_saved_loglik_is_the_saved_draws_log_sum_exp(nskip, nsave, L):
    gen = RngStream(66, 0).generator
    x = gen.uniform(0.0, 1.0, 30)
    y = 1.0 + x + 0.4 * gen.standard_normal(30)
    mcmc = McmcControl(nsave=nsave, nburn=2, nskip=nskip)
    dpm = fit_dpm(y, prior=DpmPrior(L=L), mcmc=mcmc, rng=RngStream(66, 1))
    Z = np.column_stack([np.ones_like(x), x])
    ddp = fit_ddp(y, Z, prior=DdpPrior(L=L), mcmc=mcmc, rng=RngStream(66, 2))
    assert dpm.loglik.shape == ddp.loglik.shape == (nsave, 30)
    for s in range(nsave):
        want = logsumexp(np.log(dpm.weights[s])[:, None]
                         + _normal_logpdf(y, dpm.means[s][:, None], dpm.sigma2[s][:, None]),
                         axis=0)
        assert np.allclose(dpm.loglik[s], want, rtol=0, atol=1e-12)
        want = logsumexp(np.log(ddp.weights[s])[:, None]
                         + _normal_logpdf(y, ddp.beta[s] @ Z.T, ddp.sigma2[s][:, None]),
                         axis=0)
        assert np.allclose(ddp.loglik[s], want, rtol=0, atol=1e-12)


# -- the two samplers' sweep loops before they shared `_gibbs_sweeps`, kept as the oracle --
# The oracle runs its own frozen copies of the sweep helpers (their bodies before the
# sweeps were sped up), so a rewrite of a package helper that moves a bit fails here.

_LOG_2PI = math.log(2.0 * math.pi)


def _frozen_component_logdens(y, weights, means, sigma2):
    lead = np.log(np.maximum(weights, 1e-300)) - 0.5 * (_LOG_2PI + np.log(sigma2))
    lp = y - np.reshape(means, sigma2.shape + (-1,))
    np.square(lp, out=lp)
    lp *= 0.5
    lp /= sigma2[..., None]
    return np.subtract(lead[..., None], lp, out=lp)


def _frozen_allocation_cdf(lp):
    top = lp.max(axis=-2)
    lp -= top[..., None, :]
    cum = np.exp(lp, out=lp)
    for l in range(1, cum.shape[-2]):
        cum[..., l, :] += cum[..., l - 1, :]
    return cum, top + np.log(cum[..., -1, :])


def _frozen_allocate(cum, gen):
    u = gen.random(cum.shape[1])
    return np.minimum((cum < u * cum[-1]).sum(axis=0), cum.shape[0] - 1)


def _frozen_update_sticks(counts, alpha, gen):
    tail = counts.sum() - np.cumsum(counts)
    v = np.clip(gen.beta(1.0 + counts[:-1], alpha + tail[:-1]), 1e-12, 1.0 - 1e-12)
    return np.concatenate([v, [1.0]])


def _frozen_update_alpha(v, prior_a, prior_b, gen):
    rate = prior_b - np.sum(np.log1p(-v[:-1]))
    if not rate > 0:
        raise NumericalCollapseError("concentration update produced a nonpositive rate")
    return float(gen.gamma(prior_a + v.size - 1, 1.0 / rate))


def _frozen_update_components(Z, y, z, counts, ZZ, Zy, S_inv, m, sigma2, a, b, gen):
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
    return beta, 1.0 / ((1.0 / rate) * g), mean, chol


def _frozen_wishart(nu, scale, gen):
    """Bartlett draw of `streams.wishart`, its input checks left out."""
    d = scale.shape[0]
    lower = np.linalg.cholesky(scale)
    bart = np.zeros((d, d))
    dof = nu - np.arange(d)
    bart[np.diag_indices(d)] = np.sqrt(gen.gamma(dof / 2.0, 2.0))
    if d > 1:
        idx = np.tril_indices(d, -1)
        bart[idx] = gen.standard_normal(len(idx[0]))
    root = lower @ bart
    return root @ root.T


def _check_state(sigma2):
    if not np.all(np.isfinite(sigma2)) or np.any(sigma2 <= 0):
        raise NumericalCollapseError("a component variance left the feasible range")


def _reference_dpm_sweeps(y, prior, gen):
    """Yield (w, mu, sigma2, alpha, loglik) after every sweep of fit_dpm."""
    L = prior.L
    alpha = prior.a_alpha / prior.b_alpha
    mu, sigma2 = sample_atoms_prior(prior, L, gen)
    w = stick_breaking(_frozen_update_sticks(np.zeros(L, dtype=int), alpha, gen))
    cum, _ = _frozen_allocation_cdf(_frozen_component_logdens(y, w, mu, sigma2))
    while True:
        z = _frozen_allocate(cum, gen)
        counts = np.bincount(z, minlength=L)
        v = _frozen_update_sticks(counts, alpha, gen)
        w = stick_breaking(v)
        sum_y = np.bincount(z, weights=y, minlength=L)
        post_prec = 1.0 / prior.S0 + counts / sigma2
        post_mean = (prior.m0 / prior.S0 + sum_y / sigma2) / post_prec
        mu = post_mean + gen.standard_normal(L) / np.sqrt(post_prec)
        ss = np.bincount(z, weights=(y - mu[z]) ** 2, minlength=L)
        shape = prior.a + 0.5 * counts
        rate = prior.b + 0.5 * ss
        sigma2 = 1.0 / gen.gamma(shape, 1.0 / rate)
        empty = counts == 0
        if np.any(empty):
            mu_e, s2_e = sample_atoms_prior(prior, int(empty.sum()), gen)
            mu[empty] = mu_e
            sigma2[empty] = s2_e
        _check_state(sigma2)
        alpha = _frozen_update_alpha(v, prior.a_alpha, prior.b_alpha, gen)
        cum, ll = _frozen_allocation_cdf(_frozen_component_logdens(y, w, mu, sigma2))
        yield w, mu, sigma2, alpha, ll


def _reference_ddp_sweeps(y, Z, prior, gen):
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
    S_inv = np.linalg.inv(Psi)
    S_chol = np.linalg.cholesky(np.linalg.inv(S_inv))
    beta = m[None, :] + (S_chol @ gen.standard_normal((q, L))).T
    sigma2 = 1.0 / gen.gamma(prior.a, 1.0 / prior.b, size=L)
    w = stick_breaking(_frozen_update_sticks(np.zeros(L, dtype=int), alpha, gen))
    cum, _ = _frozen_allocation_cdf(_frozen_component_logdens(y, w, beta @ Z.T, sigma2))
    while True:
        z = _frozen_allocate(cum, gen)
        counts = np.bincount(z, minlength=L)
        v = _frozen_update_sticks(counts, alpha, gen)
        w = stick_breaking(v)
        beta, sigma2 = _frozen_update_components(
            Z, y, z, counts, ZZ, Zy, S_inv, m, sigma2, prior.a, prior.b, gen
        )[:2]
        _check_state(sigma2)
        chol_m = np.linalg.cholesky(S0_inv + L * S_inv)
        half = np.linalg.solve(chol_m, S0_inv @ m0 + S_inv @ beta.sum(axis=0))
        m = np.linalg.solve(chol_m.T, half + gen.standard_normal(q))
        dev = beta - m[None, :]
        scale = np.linalg.inv(nuPsi + dev.T @ dev)
        scale = 0.5 * (scale + scale.T)
        S_inv = _frozen_wishart(nu + L, scale, gen)
        alpha = _frozen_update_alpha(v, prior.a_alpha, prior.b_alpha, gen)
        cum, ll = _frozen_allocation_cdf(_frozen_component_logdens(y, w, beta @ Z.T, sigma2))
        yield w, beta, sigma2, alpha, ll


def _stacked(mcmc, sweeps):
    """Every nskip-th state after nburn of the sweep generator, each element stacked."""
    kept = []
    for saved in range(mcmc.nsave):
        for _ in range(mcmc.nskip if saved else mcmc.nburn + mcmc.nskip):
            state = next(sweeps)
        kept.append([np.array(a) for a in state])
    return [np.array(col) for col in zip(*kept)]


def _assert_same_fold(got, want):
    for name in ("sums", "lse", "lse_neg", "mean", "m2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.n, got.count, got.finite) == (want.n, want.count, want.finite)


def _oracle_data(q):
    gen = RngStream(808, 0).generator
    x = gen.uniform(0.0, 1.0, 40)
    y = np.where(x < 0.5, -1.0, 2.0) + x + 0.3 * gen.standard_normal(40)
    return y, np.column_stack([np.ones_like(x), x, x ** 2])[:, :q]


@pytest.mark.parametrize("nskip", [1, 2])
@pytest.mark.parametrize("L", [1, 10])
def test_dpm_sweeps_match_the_reference_loop_bitwise(L, nskip, monkeypatch):
    y, _ = _oracle_data(1)
    calls = []

    def counted(prior, size, rng):
        calls.append(size)
        return sample_atoms_prior(prior, size, rng)

    monkeypatch.setattr(mixtures, "sample_atoms_prior", counted)
    mcmc = McmcControl(nsave=6, nburn=4, nskip=nskip)
    got = fit_dpm(y, prior=DpmPrior(L=L), mcmc=mcmc, rng=RngStream(808, 1))
    var = float(np.var(y, ddof=1))
    assert (got.prior.m0, got.prior.S0, got.prior.b) == (float(np.mean(y)), 10.0 * var, 2.0 * var)
    want = _stacked(mcmc, _reference_dpm_sweeps(y, got.prior, RngStream(808, 1).generator))
    for name, a in zip(("weights", "means", "sigma2", "alpha", "loglik"), want):
        assert np.array_equal(getattr(got, name), a), name
    _assert_same_fold(got.fold, LoglikFold.of(want[-1]))
    # the initial atoms, then (L = 10) empty components refreshed from the base measure
    assert calls[0] == L and (len(calls) > 1) == (L == 10)


@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("nskip", [1, 2])
@pytest.mark.parametrize("L", [1, 10])
def test_ddp_sweeps_match_the_reference_loop_bitwise(L, nskip, q):
    y, Z = _oracle_data(q)
    mcmc = McmcControl(nsave=6, nburn=4, nskip=nskip)
    got = fit_ddp(y, Z, prior=DdpPrior(L=L), mcmc=mcmc, rng=RngStream(808, 2))
    var = float(np.var(y, ddof=1))
    assert np.array_equal(got.prior.m0, np.r_[np.mean(y), np.zeros(q - 1)])
    assert np.array_equal(got.prior.S0, 10.0 * var * np.eye(q))
    assert np.array_equal(got.prior.Psi, var * np.eye(q)) and got.prior.nu == q + 2.0
    want = _stacked(mcmc, _reference_ddp_sweeps(y, Z, got.prior, RngStream(808, 2).generator))
    for name, a in zip(("weights", "beta", "sigma2", "alpha", "loglik"), want):
        assert np.array_equal(getattr(got, name), a), name
    _assert_same_fold(got.fold, LoglikFold.of(want[-1]))


@pytest.fixture(scope="module")
def benchmark_study(tmp_path_factory):
    """The healthy group of `simulate --n 2840 --seed 2026`, standardised as aroc_bnp fits it,
    with its linear (q = 3) and README spline designs."""
    path = tmp_path_factory.mktemp("study") / "study.csv"
    path.write_text(simulate_endosyn_like(2840, 2026))
    sample = ingest_csv(path, "bmi", "cvd_idf", "0", covariates=["gender", "age"])
    std_sample, std = standardise(sample)
    split_std, split_raw = split_groups(std_sample), split_groups(sample)
    designs = {}
    for name, formula in (("linear", "bmi ~ gender + age"),
                          ("spline", "bmi ~ gender + f(age, by=gender, K=(0,0))")):
        with warnings.catch_warnings():  # the spline basis is collinear and extrapolates
            warnings.simplefilter("ignore", RocinferWarning)
            designs[name] = build_design(split_raw.healthy_cov, parse_formula(formula),
                                         scales=std.covariates)[0]
    return split_std.healthy, designs


def _assert_matches_oracle(y, Z, L, seed):
    """fit_dpm (Z None) or fit_ddp against the frozen reference loop: every saved draw, the
    rebuilt log-likelihood rows and the fold, bitwise."""
    mcmc = McmcControl(nsave=15, nburn=5)
    if Z is None:
        got = fit_dpm(y, prior=DpmPrior(L=L), mcmc=mcmc, rng=RngStream(seed, 1))
        want = _stacked(mcmc, _reference_dpm_sweeps(y, got.prior, RngStream(seed, 1).generator))
    else:
        got = fit_ddp(y, Z, prior=DdpPrior(L=L), mcmc=mcmc, rng=RngStream(seed, 1))
        want = _stacked(mcmc, _reference_ddp_sweeps(y, Z, got.prior, RngStream(seed, 1).generator))
    atoms = "means" if Z is None else "beta"
    for name, a in zip(("weights", atoms, "sigma2", "alpha", "loglik"), want):
        assert np.array_equal(getattr(got, name), a), name
    _assert_same_fold(got.fold, LoglikFold.of(want[-1]))


@pytest.mark.parametrize("design", [None, "linear", "spline"])
def test_sweeps_match_the_reference_loop_bitwise_at_benchmark_size(benchmark_study, design):
    y, designs = benchmark_study
    Z = designs.get(design)
    assert y.size == 2149 and (Z is None or Z.shape[1] == {"linear": 3, "spline": 10}[design])
    _assert_matches_oracle(y, Z, 10, 2026)


def test_allocate_counts_past_255_components():
    # mass on components 256 and up, where a uint8 count would wrap
    L, n = 300, 500
    gen = RngStream(12, 0).generator
    lp = np.full((L, n), -50.0)
    lp[250:] = gen.normal(0.0, 1.0, (L - 250, n))
    got = _allocate(_allocation_cdf(lp.copy())[0], RngStream(12, 1).generator)
    want = _frozen_allocate(_frozen_allocation_cdf(lp.copy())[0], RngStream(12, 1).generator)
    assert np.array_equal(got, want) and got.dtype == want.dtype
    assert got.max() > 255


@pytest.mark.parametrize("L", [255, 256, 300])
@pytest.mark.parametrize("sampler", ["dpm", "ddp"])
def test_sweeps_match_the_reference_loop_bitwise_past_255_components(L, sampler):
    y, Z = _oracle_data(3)
    _assert_matches_oracle(y, Z if sampler == "ddp" else None, L, 808)


def test_conditional_cdfs_match_the_einsum_means():
    y, Z = _oracle_data(3)
    ddp = fit_ddp(y, Z, prior=DdpPrior(L=6), mcmc=McmcControl(nsave=50, nburn=5),
                  rng=RngStream(808, 3))
    pts, rows = np.linspace(-3.0, 4.0, 40), RngStream(808, 4).generator.uniform(0.0, 1.0, (40, 3))
    ref_means = np.einsum("slq,nq->snl", ddp.beta, rows)
    assert np.allclose(mixtures._point_means(ddp.beta, rows), ref_means, rtol=0, atol=1e-12)
    want = mixture_cdf(ddp.weights, lambda b: ref_means[b], ddp.sigma2, pts)
    assert np.allclose(ddp.cdf_at(pts, rows), want, rtol=0, atol=1e-12)


def test_ddp_rejects_non_finite_observations():
    y, Z = _oracle_data(2)
    y[3] = np.nan
    with pytest.raises(TooFewPointsError, match="finite"):
        fit_ddp(y, Z, mcmc=McmcControl(nsave=2, nburn=0))


@pytest.mark.parametrize("budget", [1, 300])
def test_blocked_draws_match_one_block(budget, monkeypatch):
    # 130 draws, L = 4: the default budget takes them in one block; 1 gives a
    # block per draw, 300 blocks of 3 draws (or 1, where a draw's points outgrow it)
    gen = RngStream(91, 0).generator
    y, Z = _oracle_data(2)
    mcmc = McmcControl(nsave=130, nburn=5)
    dpm = fit_dpm(y, prior=DpmPrior(L=4), mcmc=mcmc, rng=RngStream(91, 1))
    ddp = fit_ddp(y, Z, prior=DdpPrior(L=4), mcmc=mcmc, rng=RngStream(91, 2))
    w, mu, s2 = dpm.weights, dpm.means, dpm.sigma2
    pts, rows = np.linspace(-3.0, 4.0, 23), gen.normal(0.5, 2.0, (130, 23))
    q = gen.uniform(0.01, 0.99, (130, 11))
    run = lambda: [mixture_cdf(w, mu, s2, pts), mixture_cdf(w, mu, s2, rows),
                   mixture_pdf(w, mu, s2, pts), mixture_pdf(w, mu, s2, rows),
                   ddp.cdf_at(y, Z), mixture_quantile(w, mu, s2, q),
                   mixture_quantile(w, mu, s2, q[0]),
                   mixture_auc_closed(w, mu, np.sqrt(s2), ddp.weights, ddp.beta[:, :, 0],
                                      np.sqrt(ddp.sigma2)),
                   dpm.loglik, ddp.loglik]
    whole = run()
    # the samplers folded, 64 rows at a time, exactly the rows loglik rebuilds
    _assert_same_fold(dpm.fold, LoglikFold.of(whole[-2]))
    _assert_same_fold(ddp.fold, LoglikFold.of(whole[-1]))
    monkeypatch.setattr(mixtures, "_BLOCK_ELEMENTS", budget)
    for got, want in zip(run(), whole):
        assert np.array_equal(got, want)
