import re
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from rocinfer import conditional
from rocinfer.conditional import (
    _frame_of,
    _ols_fit,
    croc_bnp,
    croc_kernel,
    croc_sp,
    croc_threshold,
    croc_tnf,
)
from rocinfer.errors import (
    DegenerateGridWarning,
    MissingColumnError,
    NoLocalDataError,
    RankDeficientError,
    ZeroVarianceError,
)
from rocinfer.mixtures import DdpPrior, McmcControl
from rocinfer.pooled import (
    PaucControl,
    PaucSummary,
    _summarise_rows,
    pooled_bb,
    pooled_dpm,
    pooled_threshold,
    roc_rows,
    simpson_area,
)
from rocinfer.sample import Column, DiagnosticSample, FpfGrid
from rocinfer.smoothing import fit_location_scale
from rocinfer.summaries import intervals, mixture_auc_closed, odd_grid, simpson, summarise

from conftest import binormal_sample, covariate_sample

AUC_SHIFT15 = float(ndtr(1.5 / np.sqrt(2.0)))
NEW = {"x": np.array([0.25, 0.5, 0.75])}


def test_sp_normal_recovers_conditional_auc():
    s = covariate_sample(n_h=400, n_d=400, seed=30)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=40, rng=31)
    assert res.roc_est.shape == (3, 101)
    for iv in res.auc:
        assert iv.est == pytest.approx(AUC_SHIFT15, abs=0.05)
        assert iv.lo < iv.est < iv.hi
    assert res.sample_sizes == (400, 400)


def test_sp_curve_rebuilds_from_reported_coefficients():
    s = covariate_sample(n_h=150, n_d=150, seed=32)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=0)
    ind = res.coefficients["induced"]
    assert ind["labels"] == ["(Intercept)", "x"]
    a_coef = np.array([v.est for v in ind["values"]])
    b = ind["b"].est
    p = res.p
    for r, x in enumerate(NEW["x"]):
        z = np.array([1.0, x])
        rebuilt = 1.0 - ndtr(float(z @ a_coef) + b * ndtri(1.0 - p[1:-1]))
        assert np.allclose(res.roc_est[r, 1:-1], rebuilt, atol=1e-10)
    # reverse-orientation coefficients are the stated transform of the forward ones
    tnf = res.coefficients["induced_tnf"]
    assert np.allclose(
        [v.est for v in tnf["values"]], -a_coef / b, atol=1e-10)
    assert tnf["b"].est == pytest.approx(1.0 / b, abs=1e-10)


def _affine(s, a, b):
    return DiagnosticSample(
        marker=a * s.marker + b, disease=s.disease, nondiseased_tag=0,
        covariates=s.covariates,
    )


@pytest.mark.parametrize("est_cdf", ["normal", "empirical"])
def test_sp_location_scale_invariance(est_cdf):
    s = covariate_sample(n_h=120, n_d=120, seed=33)
    t = _affine(s, 3.0, 7.0)
    r1 = croc_sp("y ~ x", "y ~ x", s, NEW, est_cdf=est_cdf, B=30, rng=34)
    r2 = croc_sp("y ~ x", "y ~ x", t, NEW, est_cdf=est_cdf, B=30, rng=34)
    assert np.allclose(r1.roc_est, r2.roc_est, atol=1e-8)
    assert np.allclose(r1.roc_lo, r2.roc_lo, atol=1e-8)
    for i1, i2 in zip(r1.auc, r2.auc):
        assert i1.est == pytest.approx(i2.est, abs=1e-8)
    t1 = croc_threshold(r1)
    t2 = croc_threshold(r2)
    for a, b in zip(t1.threshold, t2.threshold):
        assert b.est == pytest.approx(3.0 * a.est + 7.0, abs=1e-8)
    for a, b in zip(t1.yi, t2.yi):
        assert b.est == pytest.approx(a.est, abs=1e-8)


@pytest.mark.parametrize("est_cdf", ["normal", "empirical"])
def test_sp_reverse_curve_integrates_to_auc(est_cdf):
    # step-CDF quadrature needs the sample size of the stated identity;
    # both sides use the same 201-point Simpson rule as the area code
    s = covariate_sample(n_h=500, n_d=500, seed=35)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, est_cdf=est_cdf, B=0)
    grid = odd_grid(0.0, 1.0, 201)
    tnf = croc_tnf(res, grid)
    for r in range(3):
        integral = float(simpson(tnf[r], grid[1] - grid[0]))
        assert integral == pytest.approx(res.auc[r].est, abs=1e-3)


def test_sp_empirical_curves_are_proper():
    s = covariate_sample(n_h=150, n_d=150, seed=36)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, est_cdf="empirical", B=0)
    for r in range(3):
        row = res.roc_est[r]
        assert row[0] == 0.0 and row[-1] == 1.0
        assert np.all(np.diff(row) >= -1e-9)
        assert np.all((row >= 0.0) & (row <= 1.0))


def test_sp_rejects_collinear_spline_design():
    s = covariate_sample(n_h=80, n_d=80, seed=37)
    with pytest.warns(Warning):
        with pytest.raises(RankDeficientError):
            croc_sp("y ~ f(x, K=3)", "y ~ x", s, NEW, B=0)


def test_sp_b_zero_degenerates_bands():
    s = covariate_sample(n_h=100, n_d=100, seed=38)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=0)
    assert np.array_equal(res.roc_lo, res.roc_est)
    for iv in res.auc:
        assert iv.lo == iv.est == iv.hi


def test_kernel_recovers_conditional_auc():
    s = covariate_sample(n_h=350, n_d=350, seed=39)
    res = croc_kernel(s, "x", NEW, bw="srt", B=25, rng=40)
    for iv in res.auc:
        assert iv.est == pytest.approx(AUC_SHIFT15, abs=0.07)
    assert res.coefficients is None
    for r in range(3):
        assert np.all(np.diff(res.roc_est[r]) >= -1e-9)
    grid = odd_grid(0.0, 1.0, 2001)
    tnf = croc_tnf(res, grid)
    for r in range(3):
        integral = float(simpson(tnf[r], grid[1] - grid[0]))
        assert integral == pytest.approx(res.auc[r].est, abs=1e-3)


def test_kernel_validation():
    s = covariate_sample(n_h=80, n_d=80, seed=41)
    with pytest.raises(NoLocalDataError):
        croc_kernel(s, "x", {"x": [5.0]}, bw="srt", B=0)
    with pytest.raises(MissingColumnError):
        croc_kernel(s, "age", NEW, bw="srt", B=0)
    with pytest.raises(MissingColumnError):
        croc_kernel(s, "x", {"z": [0.5]}, bw="srt", B=0)
    cat = DiagnosticSample(
        marker=s.marker, disease=s.disease, nondiseased_tag=0,
        covariates={"g": Column(np.array(["a", "b"] * 80), levels=("a", "b"))},
    )
    with pytest.raises(Exception):
        croc_kernel(cat, "g", {"g": ["a"]}, B=0)


def test_kernel_lscv_warnings_name_their_group():
    # a near-linear mean in both groups: each regression scan stops at the grid edge
    g = np.random.default_rng(0)
    x = g.uniform(0.0, 1.0, 600)
    y = 1.0 + 2.0 * x + (0.1 + 0.9 * x) * g.normal(size=600)
    y[300:] += 1.0
    s = DiagnosticSample(marker=y, disease=np.repeat([0, 1], 300), nondiseased_tag=0,
                         covariates={"x": Column(x)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        croc_kernel(s, "x", {"x": [0.5]}, B=0)
    edge = [re.fullmatch(r"LSCV regression bandwidth stopped at the grid edge: "
                         r"h = \S+ = 20 x h_srt \((\w+) group\)", str(w.message))
            for w in caught if issubclass(w.category, DegenerateGridWarning)]
    assert len(edge) == 2 and all(edge)
    assert sorted(m.group(1) for m in edge) == ["diseased", "healthy"]


def _ols(Z, y):
    return np.linalg.lstsq(Z, y, rcond=None)[0]


def test_bnp_single_component_matches_least_squares():
    s = covariate_sample(n_h=200, n_d=200, seed=42)
    res = croc_bnp(
        "y ~ x", "y ~ x", s, NEW,
        prior_h=DdpPrior(L=1), prior_d=DdpPrior(L=1),
        mcmc=McmcControl(nsave=200, nburn=150), rng=43,
    )
    assert res.roc_est.shape == (3, 101)
    for iv in res.auc:
        assert iv.est == pytest.approx(AUC_SHIFT15, abs=0.06)
    coef = res.coefficients
    assert coef is not None
    h_mask = s.disease == 0
    x = s.covariates["x"].values
    for group, mask in (("healthy", h_mask), ("diseased", ~h_mask)):
        Z = np.column_stack([np.ones(mask.sum()), x[mask]])
        beta = _ols(Z, s.marker[mask])
        got = np.array([v.est for v in coef[group]["values"]])
        assert np.allclose(got, beta, atol=0.15)
    crit = res.fit.as_dict()
    for group in ("healthy", "diseased"):
        assert all(np.isfinite(v) for v in crit[group].values())


def test_bnp_reverse_curve_integrates_to_auc():
    s = covariate_sample(n_h=120, n_d=120, seed=44)
    res = croc_bnp(
        "y ~ x", "y ~ x", s, {"x": [0.5]},
        prior_h=DdpPrior(L=1), prior_d=DdpPrior(L=1),
        mcmc=McmcControl(nsave=80, nburn=80), rng=45,
    )
    grid = odd_grid(0.0, 1.0, 1001)
    tnf = croc_tnf(res, grid)
    integral = float(simpson(tnf[0], grid[1] - grid[0]))
    assert integral == pytest.approx(res.auc[0].est, abs=1e-3)


@pytest.mark.parametrize("standardise", [True, False])
def test_bnp_closed_form_auc_matches_simpson_per_draw(standardise):
    s = covariate_sample(n_h=150, n_d=150, seed=46)
    res = croc_bnp(
        "y ~ x", "y ~ x", s, {"x": [0.2, 0.8]},
        prior_h=DdpPrior(L=10), prior_d=DdpPrior(L=10),
        mcmc=McmcControl(nsave=60, nburn=60), rng=47, standardise_marker=standardise,
    )
    grid = odd_grid(0.0, 1.0, 2001)
    for r, (_, [(H, D)]) in enumerate(res.internals["stacks"](res.newdata)):
        # the raw-scale stacks' Simpson areas against the fitting-scale closed form
        fine = simpson(roc_rows(H, D, grid), grid[1] - grid[0])
        h, d = (getattr(st, "base", st) for st in (H, D))
        closed = mixture_auc_closed(h.weights, h.means, np.sqrt(h.sigma2),
                                    d.weights, d.means, np.sqrt(d.sigma2))
        assert np.max(np.abs(closed - fine)) <= 1e-5
        lo, hi = np.percentile(closed, [2.5, 97.5])
        assert (res.auc[r].est, res.auc[r].lo, res.auc[r].hi) == pytest.approx(
            (closed.mean(), lo, hi), abs=1e-12)
    tnf = croc_tnf(res, odd_grid(0.0, 1.0, 1001))
    for r in range(2):
        assert float(simpson(tnf[r], 1e-3)) == pytest.approx(res.auc[r].est, abs=1e-3)


def test_threshold_youden_tracks_the_covariate():
    s = covariate_sample(n_h=500, n_d=500, seed=46)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=30, rng=47)
    thr = croc_threshold(res)
    # optimal cut sits halfway between the group means x and x + 1.5
    for x, iv in zip(NEW["x"], thr.threshold):
        assert iv.est == pytest.approx(x + 0.75, abs=0.12)
    assert all(sgn == 1 for sgn in thr.sign)
    fpf = croc_threshold(res, criterion="fpf", target_fpf=0.3)
    for x, iv in zip(NEW["x"], fpf.threshold):
        assert iv.est == pytest.approx(x + ndtri(0.7), abs=0.12)
    for iv in fpf.fpf:
        assert iv.est == pytest.approx(0.3, abs=0.03)


def test_threshold_accepts_fresh_newdata():
    s = covariate_sample(n_h=200, n_d=200, seed=48)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=0)
    thr = croc_threshold(res, newdata={"x": [0.1, 0.9]})
    assert len(thr.threshold) == 2
    assert thr.threshold[1].est > thr.threshold[0].est


@pytest.mark.parametrize("method", ["sp", "kernel"])
def test_workers_do_not_change_results(method):
    s = covariate_sample(n_h=120, n_d=120, seed=49)
    if method == "sp":
        a, b = (croc_sp("y ~ x", "y ~ x", s, NEW, B=40, rng=50, workers=w) for w in (1, 4))
    else:
        a, b = (croc_kernel(s, "x", NEW, bw="srt", B=8, rng=50, workers=w) for w in (1, 4))
    assert np.array_equal(a.roc_lo, b.roc_lo)
    assert np.array_equal(a.roc_hi, b.roc_hi)
    for i1, i2 in zip(a.auc, b.auc):
        assert i1 == i2


class _ReplicateFits:
    """The per-replicate reference of a kernel block refit: one 1-d fit per response row."""

    def __init__(self, x, Y, **bandwidths):
        self.fits = [fit_location_scale(x, y, **bandwidths) for y in Y]
        self.residuals = np.array([f.residuals for f in self.fits])

    def at(self, x0):
        return tuple(np.array(a) for a in zip(*(f.at(x0) for f in self.fits)))


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_block_refits_match_each_replicate_fit_alone(monkeypatch, workers):
    """B = 70 is one full block of 64 replicates and a partial one of 6."""
    s = covariate_sample(n_h=150, n_d=120, seed=51)
    kw = dict(bw="srt", B=70, rng=52, workers=workers, pauc=PaucControl(True, "tpf", 0.7))
    block = croc_kernel(s, "x", NEW, **kw)
    monkeypatch.setattr(conditional, "fit_location_scale", _ReplicateFits)
    alone = croc_kernel(s, "x", NEW, **kw)
    for name in ("roc_est", "roc_lo", "roc_hi"):
        np.testing.assert_allclose(getattr(block, name), getattr(alone, name), rtol=1e-12, atol=0)
    for got, want in zip(block.auc + block.pauc, alone.auc + alone.pauc):
        np.testing.assert_allclose([got.est, got.lo, got.hi], [want.est, want.lo, want.hi],
                                   rtol=1e-12, atol=0)
    thr = [croc_threshold(r, "yi") for r in (block, alone)]
    for got, want in zip(*(t.threshold + t.yi for t in thr)):
        np.testing.assert_allclose([got.est, got.lo, got.hi], [want.est, want.lo, want.hi],
                                   rtol=1e-12, atol=0)


def test_block_refits_match_each_replicate_fit_alone():
    """One solve per block of replicates: the residual bootstrap's multi-right-hand-side
    lstsq and the case bootstrap's normal equations, against `_ols_fit` per replicate."""
    g = np.random.default_rng(40)
    n = 300
    age, sex = g.uniform(20.0, 80.0, n), g.integers(0, 2, n).astype(float)
    Z = np.column_stack([np.ones(n), sex, age, sex * age])
    y = 20.0 + 2.0 * sex + 0.1 * age + g.normal(0.0, 3.0, n)
    idx = g.integers(0, n, (65, n))
    fit = _ols_fit(Z, y)
    Y = Z @ fit.beta + fit.sigma * fit.residuals[idx]
    for block, alone in ((_ols_fit(Z, Y), [_ols_fit(Z, row) for row in Y]),
                         (_ols_fit(Z, y, idx), [_ols_fit(Z[i], y[i]) for i in idx])):
        for name in ("beta", "sigma", "residuals"):
            want = np.array([getattr(f, name) for f in alone])
            err = np.abs(getattr(block, name) - want)
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=-1, keepdims=True)), name


@pytest.mark.parametrize("interaction", [False, True], ids=["level", "collinear"])
def test_case_resample_losing_a_column_is_rank_deficient(interaction):
    """Rows 0 and 1 hold the only level-1 markers. A resample without either has a zero
    level column; with row 0 alone, the level-by-age column is a multiple of it."""
    g = np.random.default_rng(41)
    n = 40
    level, age = (np.arange(n) < 2).astype(float), g.uniform(20.0, 80.0, n)
    Z = np.column_stack([np.ones(n), level, age] + ([level * age] if interaction else []))
    y = g.normal(25.0, 3.0, n)
    keeps = np.column_stack([np.zeros(3, int), np.ones(3, int), g.integers(0, n, (3, n - 2))])
    loses = keeps.copy()
    loses[1] = np.where(loses[1] == 1, 0, loses[1]) if interaction else g.integers(2, n, n)
    _ols_fit(Z, y, keeps)
    with pytest.raises(RankDeficientError):
        _ols_fit(Z[loses[1]], y[loses[1]])
    with pytest.raises(RankDeficientError):
        _ols_fit(Z, y, loses)


def test_exact_fit_has_zero_scale_for_either_solver():
    """A constant marker is fitted exactly: its residuals are rounding noise, about 1e-15 and
    exactly 0 only by chance, and that counts as zero scale for lstsq and for case blocks."""
    g = np.random.default_rng(43)
    Z = np.column_stack([np.ones(30), np.round(g.uniform(20.0, 70.0, 30), 1)])
    y = np.full(30, 25.0)
    with pytest.raises(ZeroVarianceError):
        _ols_fit(Z, y)
    with pytest.raises(ZeroVarianceError):
        _ols_fit(Z, y, g.integers(0, 30, (4, 30)))


def test_partial_area_rows_have_bounds():
    s = covariate_sample(n_h=150, n_d=150, seed=51)
    res = croc_sp("y ~ x", "y ~ x", s, NEW, B=20, rng=52,
                  pauc=PaucControl(compute=True, focus="fpf", value=0.3))
    assert len(res.pauc) == 3
    for pa in res.pauc:
        assert 0.0 <= pa.est <= 1.0
        assert pa.focus == "fpf" and pa.bound == 0.3
        assert pa.lo <= pa.est <= pa.hi


def _threshold_of(estimator, criterion, fresh):
    kw = {"criterion": criterion, "target_fpf": 0.2 if criterion == "fpf" else None}
    mcmc = McmcControl(nsave=60, nburn=40)
    if estimator in ("bb", "dpm"):
        s = binormal_sample(n_h=150, n_d=150, seed=53)
        fit = (pooled_bb(s, S=200, rng=54) if estimator == "bb"
               else pooled_dpm(s, mcmc=mcmc, rng=54))
        return pooled_threshold(fit, **kw)
    s = covariate_sample(n_h=150, n_d=150, seed=55)
    if estimator == "kernel":
        fit = croc_kernel(s, "x", NEW, bw="srt", B=10, rng=56)
    elif estimator == "bnp":
        fit = croc_bnp("y ~ x", "y ~ x", s, NEW, mcmc=mcmc, rng=56)
    else:
        fit = croc_sp("y ~ x", "y ~ x", s, NEW, est_cdf="empirical", B=30, rng=56)
    return croc_threshold(fit, newdata={"x": [0.3, 0.6]} if fresh else None, **kw)


@pytest.mark.parametrize("estimator,criterion,fresh", [
    ("bb", "yi", False), ("bb", "fpf", False), ("dpm", "yi", False), ("dpm", "fpf", False),
    ("kernel", "yi", False), ("kernel", "fpf", False), ("kernel", "yi", True),
    ("kernel", "fpf", True), ("bnp", "yi", False), ("bnp", "fpf", False),
    ("bnp", "yi", True), ("bnp", "fpf", True), ("sp-empirical", "fpf", False),
])
def test_threshold_intervals_are_finite_and_ordered(estimator, criterion, fresh):
    thr = _threshold_of(estimator, criterion, fresh)
    n_rows = 2 if fresh else 1 if estimator in ("bb", "dpm") else len(NEW["x"])
    for ivs in [thr.threshold, thr.fpf, thr.tpf] + ([thr.yi] if criterion == "yi" else []):
        assert len(ivs) == n_rows
        for iv in ivs:
            assert np.all(np.isfinite([iv.est, iv.lo, iv.hi]))
            assert iv.lo <= iv.hi
    if criterion == "fpf":
        for iv in thr.fpf:
            assert iv.est == pytest.approx(0.2, abs=0.05)


def _simpson_auc(H, D):
    g = odd_grid(0.0, 1.0, 201)
    return simpson(roc_rows(H, D, g), g[1] - g[0])


def _separate_passes(plugin, ensemble, grid, ctrl):
    """Curve bands, AUCs and partial areas from separate curve passes per stack pair: one on
    grid, one on the 201-point Simpson grid for the AUC (as `_summarise_rows` did before the
    two shared one) and one per partial area; last, the members' curves on grid."""
    point = roc_rows(*plugin, grid).reshape(-1, grid.size)
    curves = None if not ensemble else np.concatenate(
        [roc_rows(H, D, grid) for H, D in ensemble]).reshape(-1, len(point), grid.size)

    def areas(area):
        draws = None if not ensemble else np.concatenate(
            [area(H, D) for H, D in ensemble]).reshape(curves.shape[:2])
        return intervals(draws, np.reshape(area(*plugin), -1))

    return (summarise(curves, point), areas(_simpson_auc),
            areas(lambda H, D: simpson_area(H, D, ctrl)), curves)


@pytest.mark.parametrize("length, B", [(101, 70), (50, 70), (101, 0)])
@pytest.mark.parametrize("fit", ["sp-normal", "sp-empirical", "kernel"])
def test_one_curve_pass_gives_the_separate_curves_and_simpson_aucs_bitwise(fit, length, B):
    """Croc sp and croc kernel read their curves and Simpson AUCs off one `roc_rows` pass on
    the union of the report grid and the 201-point Simpson grid. At the default 101 points
    the union is the Simpson grid; at 50 points, 48 of them off it, Simpson integrates a
    contiguous gather of the union's Simpson points. Both are held to separate `roc_rows`
    and `simpson` calls at tolerance 0. B = 70 is a full block of 64 replicates and a
    partial one of 6; B = 0 is the plug-in alone. The returned member curves are the
    blocks' curves in ensemble order."""
    assert np.array_equal(FpfGrid.default(101).p, odd_grid(0.0, 1.0, 201)[::2])
    s = covariate_sample(n_h=150, n_d=120, seed=57)
    grid, ctrl = FpfGrid.default(length).p, PaucControl(True, "fpf", 0.3)
    kw = dict(p=grid, pauc=ctrl, B=B, rng=58)
    res = (croc_kernel(s, "x", NEW, bw="srt", **kw) if fit == "kernel"
           else croc_sp("y ~ x", "y ~ x", s, NEW, est_cdf=fit[3:], **kw))
    (plugin, ensemble), = res.internals["stacks"](_frame_of(NEW))
    assert (ensemble is None) == (B == 0)
    (est, lo, hi), aucs, paucs, curves = _separate_passes(plugin, ensemble, grid, ctrl)
    for got, want in ((res.roc_est, est), (res.roc_lo, lo), (res.roc_hi, hi)):
        assert np.array_equal(got, want)
    assert res.auc == aucs
    assert res.pauc == [PaucSummary.of(iv, ctrl) for iv in paucs]
    fields, stack = _summarise_rows(plugin, ensemble, grid, PaucControl())
    assert fields["auc"] == aucs and fields["pauc"] is None
    # the member curves, block by block in ensemble order
    assert stack is curves is None or np.array_equal(stack, curves)
