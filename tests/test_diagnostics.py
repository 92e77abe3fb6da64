import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import logsumexp, ndtr

from rocinfer import mixtures

from rocinfer.diagnostics import (
    criteria_from_draws,
    dic,
    effective_sample_size,
    lpml,
    moment_kurtosis,
    moment_skewness,
    ppoints,
    predictive_checks,
    quantile_residuals,
    waic,
)
from rocinfer.errors import MissingDrawsError
from rocinfer.mixtures import DpmDraws, DpmPrior, LoglikFold, McmcControl
from rocinfer.streams import RngStream

# three draws, two observations; reference values computed by hand
LL = np.array([[-1.2, -0.7], [-0.9, -1.1], [-1.4, -0.5]])


def test_waic_matches_hand_computation():
    val, penalty = waic(LL)
    assert penalty == pytest.approx(0.15666666666666668, abs=1e-12)
    assert val == pytest.approx(4.077504476285036, abs=1e-12)


def test_dic_matches_hand_computation():
    val, penalty = dic(LL)
    assert penalty == pytest.approx(0.10249552371496451, abs=1e-12)
    assert val == pytest.approx(3.969162190381631, abs=1e-12)


def test_lpml_matches_hand_computation():
    total, cpo = lpml(LL)
    assert np.allclose(cpo, [0.3050355264480882, 0.4500017998642989], atol=1e-12)
    assert total == pytest.approx(-1.9858307255276746, abs=1e-12)


def test_criteria_ignore_draw_order():
    perm = LL[[2, 0, 1]]
    assert waic(perm) == pytest.approx(waic(LL))
    assert lpml(perm)[0] == pytest.approx(lpml(LL)[0])
    assert dic(perm) == pytest.approx(dic(LL))


def test_ll_matrix_validation():
    with pytest.raises(MissingDrawsError):
        waic(np.array([-1.0, -2.0]))
    with pytest.raises(MissingDrawsError):
        waic(np.array([[-1.0, np.inf]]))


@given(
    st.lists(
        st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=3, max_size=3),
        min_size=2,
        max_size=8,
    )
)
def test_lpml_never_exceeds_lppd(rows):
    # harmonic mean <= arithmetic mean, observation by observation
    ll = np.array(rows)
    S = ll.shape[0]
    lppd = float(np.sum(np.log(np.mean(np.exp(ll), axis=0))))
    assert lpml(ll)[0] <= lppd + 1e-9


@given(
    st.integers(min_value=1, max_value=5).flatmap(lambda n: st.lists(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=n, max_size=n),
        min_size=1,
        max_size=8,
    ))
)
def test_dic_penalty_is_nonnegative(rows):
    # log of the mean density >= mean of the log densities, observation by observation
    ll = np.array(rows)
    for got in (LoglikFold.of(ll), ll):
        assert dic(got)[1] >= -1e-9 * ll.shape[1]


def test_dic_ignores_component_labels():
    # two draws of one mixture; in the second its components trade labels
    y = RngStream(12, 0).generator.standard_normal(30)
    w, mu, s2 = np.array([0.3, 0.7]), np.array([-1.0, 1.5]), np.array([0.5, 2.0])

    def criteria(order):
        weights, means, sigma2 = (np.stack([a, a[order]]) for a in (w, mu, s2))
        draws = DpmDraws(weights=weights, means=means, sigma2=sigma2, alpha=np.ones(2),
                         fold=LoglikFold(y.size), y=y, prior=DpmPrior().resolved(y),
                         mcmc=McmcControl(nsave=2, nburn=0))
        return criteria_from_draws(replace(draws, fold=LoglikFold.of(draws.loglik)))

    same, swapped = criteria([0, 1]), criteria([1, 0])
    assert swapped.dic == pytest.approx(same.dic, rel=1e-12)
    assert swapped.dic_penalty == pytest.approx(same.dic_penalty, abs=1e-12)


def test_moment_statistics_hand_values():
    x = [1.0, 2.0, 4.0, 8.0]
    assert moment_skewness(x) == pytest.approx(0.6568077344996993, abs=1e-12)
    assert moment_kurtosis(x) == pytest.approx(1.9010207939508506, abs=1e-12)
    assert moment_skewness([3.0, 3.0, 3.0]) == 0.0
    assert moment_kurtosis([3.0, 3.0, 3.0]) == 0.0


def test_ppoints_conventions():
    assert np.allclose(ppoints(20), (np.arange(1, 21) - 0.5) / 20.0)
    assert np.allclose(ppoints(5), (np.arange(1, 6) - 0.375) / 5.25)


def test_ess_iid_near_sample_size():
    x = RngStream(31, 0).generator.standard_normal(20000)
    ess = effective_sample_size(x)
    assert 0.7 * 20000 < ess < 1.3 * 20000


def test_ess_ar1_matches_theory():
    phi = 0.9
    gen = RngStream(32, 0).generator
    n = 40000
    e = gen.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    expected = n * (1.0 - phi) / (1.0 + phi)
    ess = effective_sample_size(x)
    assert 0.7 * expected < ess < 1.3 * expected


def test_ess_degenerate_chains():
    assert effective_sample_size(np.full(50, 2.5)) == 50.0
    assert effective_sample_size(np.array([1.0])) == 1.0


def _toy_draws(S=40, n=60, seed=5):
    gen = RngStream(seed, 0).generator
    y = gen.standard_normal(n)
    means = np.column_stack([-1.0 + 0.05 * gen.standard_normal(S),
                             1.0 + 0.05 * gen.standard_normal(S)])
    weights = np.full((S, 2), 0.5)
    sigma2 = np.ones((S, 2))
    return DpmDraws(
        weights=weights,
        means=means,
        sigma2=sigma2,
        alpha=np.ones(S),
        fold=LoglikFold.of(np.zeros((S, n))),
        y=y,
        prior=DpmPrior().resolved(y),
        mcmc=McmcControl(nsave=S, nburn=0),
    )


def test_predictive_checks_shapes_and_determinism():
    draws = _toy_draws()
    a = predictive_checks(draws, draws.y, n_rep_densities=10, rng=RngStream(6, 0))
    b = predictive_checks(draws, draws.y, n_rep_densities=10, rng=RngStream(6, 0))
    assert set(a.observed) == {"skewness", "kurtosis"}
    assert a.replicated["skewness"].shape == (40,)
    assert a.density_replicates.shape == (10, 60)
    assert np.array_equal(a.density_replicates, b.density_replicates)
    assert a.observed["skewness"] == pytest.approx(moment_skewness(draws.y))
    with pytest.raises(MissingDrawsError):
        predictive_checks(draws, draws.y, statistics=("median",))


def test_quantile_residuals_well_specified():
    y = RngStream(8, 0).generator.standard_normal(200)
    F = np.tile(ndtr(y), (3, 1))  # the true model, three identical draws
    out = quantile_residuals(F)
    assert out.residuals.shape == (3, 200)
    assert np.allclose(out.mean, np.sort(y), atol=1e-7)
    corr = np.corrcoef(out.mean, out.theoretical)[0, 1]
    assert corr > 0.995
    assert np.all(out.lo <= out.hi)
    assert np.allclose(out.theoretical, np.array(ndtri_points(200)))


def ndtri_points(n):
    from scipy.special import ndtri

    return ndtri(ppoints(n))


def test_quantile_residuals_rejects_vectors():
    with pytest.raises(MissingDrawsError):
        quantile_residuals(np.array([0.1, 0.2, 0.3]))


def test_criteria_from_draws_bundles_the_three():
    draws = _toy_draws()
    ll = -0.5 * np.log(2 * np.pi) - 0.5 * (draws.y[None, :] - 0.1) ** 2
    ll = np.repeat(ll, 40, axis=0) + 0.01 * RngStream(9, 0).generator.standard_normal(
        (40, draws.y.size)
    )
    crit = criteria_from_draws(replace(draws, fold=LoglikFold.of(ll)))
    assert crit.waic == pytest.approx(waic(ll)[0])
    assert crit.dic == pytest.approx(dic(ll)[0])
    assert crit.lpml == pytest.approx(lpml(ll)[0])
    d = crit.as_dict()
    assert set(d) == {"waic", "waic_penalty", "dic", "dic_penalty", "lpml"}


def test_criteria_reduce_over_column_blocks(monkeypatch):
    # 1000 draws x 2000 observations (16 MB) in blocks of 64 columns
    monkeypatch.setattr(mixtures, "_BLOCK_ELEMENTS", 1 << 16)
    ll = -1.0 - RngStream(4, 0).generator.gamma(2.0, 1.0, size=(1000, 2000))
    S = ll.shape[0]
    lppd = np.sum(logsumexp(ll, axis=0) - np.log(S))
    penalty = np.sum(np.var(ll, axis=0, ddof=1))
    log_cpo = -(logsumexp(-ll, axis=0) - np.log(S))
    tracemalloc.start()
    try:
        val, pen = waic(ll)
        total, cpo = lpml(ll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ll.nbytes / 4
    assert pen == pytest.approx(penalty, rel=1e-12)
    assert val == pytest.approx(-2.0 * (lppd - penalty), rel=1e-12)
    assert total == pytest.approx(np.sum(log_cpo), rel=1e-12)
    assert np.allclose(cpo, np.exp(log_cpo), rtol=1e-12, atol=0)
    ll[700, 1999] = np.nan
    with pytest.raises(MissingDrawsError):
        waic(ll)


def _matrix_criteria(ll):
    """WAIC, DIC and LPML straight from the (S, n) matrix (the formulas the fold replaced)."""
    S = ll.shape[0]
    lppd = np.sum(logsumexp(ll, axis=0) - np.log(S))
    waic_pen = np.sum(np.var(ll, axis=0, ddof=1)) if S > 1 else 0.0
    dbar, dhat = np.mean(-2.0 * np.sum(ll, axis=1)), -2.0 * lppd
    log_cpo = -(logsumexp(-ll, axis=0) - np.log(S))
    return ((-2.0 * (lppd - waic_pen), waic_pen), (dhat + 2.0 * (dbar - dhat), dbar - dhat),
            (np.sum(log_cpo), np.exp(log_cpo)))


@pytest.mark.parametrize("S", [1, 2, 63, 64, 65, 130])
def test_fold_matches_the_matrix_formulas(S):
    # rows spanning about +-700: exp(ll) and exp(-ll) overflow without the max shift
    g = RngStream(40 + S, 0).generator
    ll = 700.0 * g.uniform(-1.0, 1.0, (S, 37)) + g.normal(0.0, 3.0, 37)
    fold = LoglikFold.of(ll)
    assert fold.count == S and np.array_equal(fold.sums, ll.sum(axis=1))
    want_waic, want_dic, want_lpml = _matrix_criteria(ll)
    for got in (fold, ll):
        np.testing.assert_allclose(waic(got), want_waic, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dic(got), want_dic, rtol=1e-12, atol=0)
        total, cpo = lpml(got)
        np.testing.assert_allclose(total, want_lpml[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(cpo, want_lpml[1], rtol=1e-12, atol=0)
    if S == 1:
        assert waic(fold)[1] == 0.0
    ll[S // 2, 5] = np.inf
    for bad in (ll, LoglikFold.of(ll)):
        for criterion in (waic, dic, lpml):
            with pytest.raises(MissingDrawsError, match="non-finite entries"):
                criterion(bad)
