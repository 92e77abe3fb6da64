import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from rocinfer import adjusted
from rocinfer.adjusted import (
    _placement_rows,
    _summary_fields,
    aroc_bnp,
    aroc_frequentist,
    aroc_threshold,
)
from rocinfer.errors import ConfigError, MissingColumnError, MissingDrawsError
from rocinfer.conditional import _ols_fit
from rocinfer.design import build_design, parse_formula
from rocinfer.mixtures import DdpPrior, McmcControl, fit_ddp
from rocinfer.pooled import PaucControl, _draw_counts
from rocinfer.sample import Column, DiagnosticSample, split_groups, standardise
from rocinfer.smoothing import fit_by_rule, fit_location_scale, silverman_bandwidth
from rocinfer.streams import RngStream, dirichlet
from rocinfer.summaries import (
    ecdf_eval,
    ecdf_quantile,
    odd_grid,
    pauc_normalise,
    placement_areas,
    simpson,
)

from conftest import covariate_sample, replicate_blocks, study_sample

AUC_SHIFT15 = float(ndtr(1.5 / np.sqrt(2.0)))


def _null_sample(n=200, seed=60):
    return covariate_sample(n_h=n, n_d=n, shift=0.0, seed=seed)


@pytest.mark.parametrize("variant", ["sp_normal", "sp_empirical", "kernel"])
def test_null_adjusted_area_near_half(variant):
    s = _null_sample()
    kw = {"covariate": "x"} if variant == "kernel" else {"formula": "y ~ x"}
    res = aroc_frequentist(s, variant=variant, B=0, **kw)
    assert res.aauc.est == pytest.approx(0.5, abs=0.06)
    assert res.aroc_est[0] == 0.0 and res.aroc_est[-1] == 1.0
    assert np.all(np.diff(res.aroc_est) >= -1e-9)


def test_null_adjusted_area_near_half_bnp():
    res = aroc_bnp(
        _null_sample(n=150, seed=61), "y ~ x",
        prior=DdpPrior(L=1), mcmc=McmcControl(nsave=150, nburn=100), rng=62,
    )
    assert res.aauc.est == pytest.approx(0.5, abs=0.06)
    assert res.aroc_est[0] == 0.0 and res.aroc_est[-1] == 1.0


def test_aauc_is_one_minus_mean_placement():
    s = covariate_sample(n_h=180, n_d=180, seed=63)
    res = aroc_frequentist(s, formula="y ~ x", B=0)
    assert res.aauc.est == pytest.approx(1.0 - res.placements.mean(), abs=1e-12)
    assert res.placements.shape == (180,)
    assert np.all((res.placements >= 0.0) & (res.placements <= 1.0))


def test_full_range_partial_area_equals_aauc():
    s = covariate_sample(n_h=150, n_d=150, seed=64)
    ctrl = PaucControl(compute=True, focus="fpf", value=1.0)
    res = aroc_frequentist(s, formula="y ~ x", pauc=ctrl, B=0)
    assert res.pauc.est == pytest.approx(res.aauc.est, abs=1e-12)


def test_step_curve_integrates_to_aauc():
    s = covariate_sample(n_h=250, n_d=250, seed=65)
    res = aroc_frequentist(s, formula="y ~ x", B=0)
    grid = odd_grid(0.0, 1.0, 2001)
    curve = aroc_frequentist(s, formula="y ~ x", p=grid, B=0).aroc_est
    integral = float(simpson(curve, grid[1] - grid[0]))
    assert integral == pytest.approx(res.aauc.est, abs=2.0 / 250.0)


def test_tpf_partial_area_matches_direct_quadrature():
    s = covariate_sample(n_h=200, n_d=200, seed=66)
    v1 = 0.6
    ctrl = PaucControl(compute=True, focus="tpf", value=v1)
    res = aroc_frequentist(s, formula="y ~ x", pauc=ctrl, B=0)
    u = np.sort(res.placements)
    n = u.size
    # inf{p : AROC(p) >= v1}, then the stated area formula on a dense grid
    c = u[int(np.ceil(v1 * n)) - 1]
    g = np.linspace(c, 1.0, 20001)
    vals = np.searchsorted(u, g, side="right") / n
    raw = float(np.trapezoid(vals, g)) - (1.0 - c) * v1
    assert res.pauc.est == pytest.approx(raw / (1.0 - v1), abs=2.0 / n)
    assert res.pauc.focus == "tpf" and res.pauc.bound == v1


def test_tpf_partial_area_is_exact():
    s = covariate_sample(n_h=200, n_d=200, seed=66)
    v1 = 0.6
    ctrl = PaucControl(compute=True, focus="tpf", value=v1)
    res = aroc_frequentist(s, formula="y ~ x", pauc=ctrl, B=0)
    u = np.sort(res.placements)
    # the area between the step curve and TPF = v1 where the curve lies above it
    g = np.linspace(0.0, 1.0, 400001)
    above = np.maximum(np.searchsorted(u, g, side="right") / u.size - v1, 0.0)
    assert res.pauc.est == pytest.approx(np.trapezoid(above, g) / (1.0 - v1), abs=1e-5)


def test_youden_hand_case_and_clamp():
    grid = np.linspace(0.0, 1.0, 11)
    _, _, _, yi, p_star = _placement_rows(
        np.array([[0.1, 0.2, 0.9], [0.5, 0.9, 1.0]]), None, grid, PaucControl()
    ).values()
    assert yi[0] == pytest.approx(7.0 / 15.0, abs=1e-12)
    assert p_star[0] == pytest.approx(0.2, abs=1e-12)
    assert yi[1] == 0.0 and p_star[1] == 0.0  # useless marker clamps at zero


_GRID = np.linspace(0.0, 1.0, 41)
# grid points (ties, placements exactly on the grid, 0 and 1) or anywhere in [0, 1]
_PLACEMENT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
_PAUC = st.sampled_from([None, ("fpf", 0.25), ("fpf", 1.0), ("tpf", 0.6), ("tpf", 1.0)])


def _aroc_oracle(U, q, p):
    """sum_j q_j 1[U_j <= p] per row, straight from the definition.

    p is one set of points for every row, or one row of points per row.
    """
    return np.sum(q[:, None, :] * (U[:, None, :] <= p[..., None]), axis=-1)


@settings(max_examples=80, deadline=None)
@given(
    U=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(_PLACEMENT, min_size=n, max_size=n), min_size=1, max_size=3)
    ),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    pauc=_PAUC,
)
@example(U=[[1.0]], weighted=False, seed=0, pauc=("tpf", 0.6))  # n = 1
# these weights sum to 1 - 1.1e-16, so every jump lies below the diagonal
@example(U=[[1.0, 1.0, 1.0]], weighted=True, seed=0, pauc=None)  # YI clamp
@example(U=[[0.5, 0.5, 0.25, 0.0], [1.0, 1.0, 0.5, 0.5]], weighted=True, seed=1,
         pauc=("fpf", 0.25))  # ties on grid points, Dirichlet weights
def test_placement_rows_match_definitions(U, weighted, seed, pauc):
    U = np.asarray(U, dtype=float)
    R, n = U.shape
    q = np.random.default_rng(seed).dirichlet(np.ones(n), size=R) if weighted else None
    qq = q if weighted else np.full((R, n), 1.0 / n)
    ctrl = PaucControl() if pauc is None else PaucControl(True, *pauc)
    curves, aauc, pauc_v, yi, p_star = _placement_rows(U, q, _GRID, ctrl).values()

    # right-continuous curve with exact endpoints
    want = _aroc_oracle(U, qq, _GRID)
    assert np.allclose(curves[:, 1:-1], want[:, 1:-1], rtol=0.0, atol=1e-12)
    assert np.all(curves[:, 0] == 0.0) and np.all(curves[:, -1] == 1.0)

    # Youden index: the largest AROC(u) - u over the jumps, clamped at 0
    yi_want = np.maximum((_aroc_oracle(U, qq, U) - U).max(axis=1), 0.0)
    assert np.allclose(yi, yi_want, rtol=0.0, atol=1e-12) and np.all(yi >= 0.0)
    hit = yi > 0.0
    assert np.all(p_star[~hit] == 0.0)
    assert all(p_star[r] in U[r] for r in np.flatnonzero(hit))
    gain = _aroc_oracle(U, qq, p_star[:, None])[:, 0] - p_star
    assert np.allclose(gain[hit], yi[hit], rtol=0.0, atol=1e-12)

    # areas against dense trapezoid integrals of the step curve
    dense = np.linspace(0.0, 1.0, 40001)
    curve = _aroc_oracle(U, qq, dense)
    assert np.allclose(aauc, np.trapezoid(curve, dense, axis=1), rtol=0.0, atol=1e-4)
    if pauc is None:
        assert pauc_v is None
    elif ctrl.focus == "fpf":
        part = np.linspace(0.0, ctrl.value, 40001)
        raw = np.trapezoid(_aroc_oracle(U, qq, part), part, axis=1)
        assert np.allclose(pauc_v, raw / ctrl.value, rtol=0.0, atol=1e-4)
    else:
        raw = np.trapezoid(np.maximum(curve - ctrl.value, 0.0), dense, axis=1)
        norm = 1.0 - ctrl.value if ctrl.value < 1.0 else 1.0
        assert np.allclose(pauc_v, raw / norm, rtol=0.0, atol=1e-4)


def test_adjusted_area_recovers_shared_conditional_auc():
    s = covariate_sample(n_h=400, n_d=400, seed=67)
    res = aroc_frequentist(s, formula="y ~ x", B=40, rng=68)
    assert res.aauc.est == pytest.approx(AUC_SHIFT15, abs=0.04)
    assert res.aauc.lo < res.aauc.est < res.aauc.hi
    assert res.yi.est > 0.3
    assert 0.0 <= res.p_star.est <= 1.0


def test_bnp_agrees_with_frequentist():
    s = covariate_sample(n_h=200, n_d=200, seed=69)
    freq = aroc_frequentist(s, formula="y ~ x", B=0)
    bnp = aroc_bnp(
        s, "y ~ x", prior=DdpPrior(L=1),
        mcmc=McmcControl(nsave=200, nburn=150), rng=70,
    )
    assert bnp.aauc.est == pytest.approx(freq.aauc.est, abs=0.07)
    assert bnp.fit.diseased is None
    assert all(np.isfinite(v) for v in bnp.fit.as_dict()["healthy"].values())
    assert bnp.sample_sizes == (200, 200)


def test_bnp_fit_and_placements_memory_stay_below_one_loglik_matrix():
    """aroc_bnp's healthy fit and diseased placements (`cdf_at`) at S = 2330 draws
    over 2149 + 691 markers: the healthy (S, n_h) log-likelihood matrix alone
    would be 40 MB; the fit folds it and `cdf_at` walks the draws in blocks."""
    g = np.random.default_rng(34)
    x = g.uniform(0.0, 1.0, 2840)
    y = x + g.normal(size=2840) + np.r_[np.zeros(2149), np.full(691, 1.5)]
    Z = np.column_stack([np.ones_like(x), x])
    S = 2330
    tracemalloc.start()
    try:
        draws = fit_ddp(y[:2149], Z[:2149], prior=DdpPrior(L=2),
                        mcmc=McmcControl(nsave=S, nburn=0), rng=RngStream(35, 0))
        U = 1.0 - draws.cdf_at(y[2149:], Z[2149:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * 2149 * 8
    assert U.shape == (S, 691) and draws.fold.count == S


def test_bnp_threshold_rows_follow_the_covariate():
    s = covariate_sample(n_h=250, n_d=250, seed=71)
    res = aroc_bnp(
        s, "y ~ x", prior=DdpPrior(L=1),
        mcmc=McmcControl(nsave=200, nburn=150), rng=72,
    )
    thr = aroc_threshold(res, {"x": [0.25, 0.75]})
    assert len(thr.threshold) == 2
    assert thr.threshold[1].est > thr.threshold[0].est
    # healthy model is y = x + noise, so the cut tracks x one-for-one
    gap = thr.threshold[1].est - thr.threshold[0].est
    assert gap == pytest.approx(0.5, abs=0.2)
    assert thr.tpf[0].est - thr.fpf[0].est == pytest.approx(thr.yi[0].est, abs=1e-12)
    assert thr.criterion == "yi" and thr.sign == [1, 1]


def test_threshold_requires_bayesian_fit():
    s = covariate_sample(n_h=100, n_d=100, seed=73)
    res = aroc_frequentist(s, formula="y ~ x", B=0)
    with pytest.raises(MissingDrawsError):
        aroc_threshold(res, {"x": [0.5]})


def test_kernel_bw_srt_uses_the_silverman_bandwidth_for_both_fits():
    s = covariate_sample(n_h=150, n_d=120, seed=77)
    srt, lscv = (aroc_frequentist(s, covariate="x", variant="kernel", bw=bw, B=3, rng=78)
                 for bw in ("srt", "lscv"))
    assert not np.array_equal(srt.placements, lscv.placements)
    assert srt.aauc != lscv.aauc
    # the plug-in placements of a healthy fit given those bandwidths explicitly
    x, y = s.covariates["x"].values, s.marker
    h = silverman_bandwidth(x[:150])
    fit = fit_location_scale(x[:150], y[:150], bw_mean=h, bw_var=h)
    mu, sd = fit.at(x[150:])
    assert np.array_equal(srt.placements, 1.0 - ecdf_eval(fit.residuals, (y[150:] - mu) / sd))
    with pytest.raises(ConfigError):
        aroc_frequentist(s, covariate="x", variant="kernel", bw="nrd", B=0)


def test_validation_errors():
    s = covariate_sample(n_h=80, n_d=80, seed=74)
    with pytest.raises(ConfigError):
        aroc_frequentist(s, variant="sp_normal", B=0)  # no formula
    with pytest.raises(ConfigError):
        aroc_frequentist(s, variant="kernel", formula="y ~ x", B=0)  # no covariate
    with pytest.raises(MissingColumnError):
        aroc_frequentist(s, variant="kernel", covariate="age", B=0)
    with pytest.raises(ConfigError):
        aroc_frequentist(s, formula="y ~ x", variant="magic", B=0)


@pytest.mark.parametrize("variant", ["sp_normal", "sp_empirical", "kernel"])
def test_workers_do_not_change_results(variant):
    s = covariate_sample(n_h=120, n_d=120, seed=75)
    B = 8 if variant == "kernel" else 40
    a, b = (aroc_frequentist(s, formula="y ~ x", covariate="x", variant=variant, B=B, rng=76,
                             workers=w) for w in (1, 4))
    assert np.array_equal(a.aroc_lo, b.aroc_lo)
    assert np.array_equal(a.aroc_hi, b.aroc_hi)
    assert a.aauc == b.aauc and a.yi == b.yi


class _ReplicateFits:
    """The per-replicate reference of a count-weighted kernel block fit: each count row's
    case resample (data point j repeated c_j times) fitted alone."""

    def __init__(self, x, y, counts, **bandwidths):
        rows = [np.repeat(np.arange(x.size), c.astype(int)) for c in counts]
        self.fits = [fit_location_scale(x[i], y[i], **bandwidths) for i in rows]
        self.residuals, self.cumw = np.array([f.residuals for f in self.fits]), None

    def at(self, x0):
        return tuple(np.array(a) for a in zip(*(f.at(x0) for f in self.fits)))


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_block_fits_match_each_replicate_fit_alone(monkeypatch, workers):
    """B = 70 is one full block of 64 replicates and a partial one of 6."""
    s = covariate_sample(n_h=150, n_d=120, seed=79)
    kw = dict(covariate="x", variant="kernel", bw="srt", B=70, rng=80, workers=workers,
              pauc=PaucControl(True, "tpf", 0.7))
    block = aroc_frequentist(s, **kw)
    monkeypatch.setattr(adjusted, "fit_location_scale", _ReplicateFits)
    alone = aroc_frequentist(s, **kw)
    for name in ("aroc_est", "aroc_lo", "aroc_hi", "placements"):
        np.testing.assert_allclose(getattr(block, name), getattr(alone, name), rtol=0,
                                   atol=1e-12)
    for name in ("aauc", "pauc", "yi", "p_star"):
        got, want = getattr(block, name), getattr(alone, name)
        np.testing.assert_allclose([got.est, got.lo, got.hi], [want.est, want.lo, want.hi],
                                   rtol=0, atol=1e-12)


def _placement_rows_by_argsort(U, grid, ctrl):
    """`_placement_rows` with equal weights as it was before `np.sort`: a stable argsort of
    each row and a gather (frozen copy)."""
    n = U.shape[1]
    order = np.argsort(U, axis=1, kind="stable")
    u_sorted = np.take_along_axis(U, order, axis=1)
    cum = np.arange(1, n + 1) / n
    del order
    curves = ecdf_eval(u_sorted, grid, cum)
    curves[:, grid == 0.0] = 0.0
    curves[:, grid == 1.0] = 1.0
    gaps = cum - u_sorted
    k = np.argmax(gaps, axis=1)[:, None]
    gap = np.take_along_axis(gaps, k, axis=1)[:, 0]
    yi = np.where(gap > 0.0, gap, 0.0)
    p_star = np.where(gap > 0.0, np.take_along_axis(u_sorted, k, axis=1)[:, 0], 0.0)
    aauc, pauc = placement_areas(U, None, ctrl if ctrl.focus == "fpf" else None)
    if ctrl.compute and ctrl.focus == "tpf":
        v = ctrl.value
        c = ecdf_quantile(u_sorted, v, cum)[:, None]
        X = 1.0 - np.maximum(c, U) - (1.0 - c) * v
        pauc = pauc_normalise(X.mean(axis=1), "tpf", v)
    return curves, aauc, pauc, yi, p_star


@pytest.mark.parametrize("pauc", [None, ("fpf", 0.3), ("tpf", 0.7)])
def test_equal_weight_placement_rows_sort_like_the_stable_argsort(pauc):
    """`np.sort` in place of the stable argsort and gather: all five outputs bitwise, on
    placement rows full of ties (multiples of 1/16, with 0 and 1) and on untied rows."""
    g = np.random.default_rng(81)
    U = np.concatenate([np.floor(g.uniform(0.0, 17.0, (70, 90))) / 16.0, g.uniform(size=(5, 90))])
    U = np.minimum(U, 1.0)
    ctrl = PaucControl() if pauc is None else PaucControl(True, *pauc)
    for got, want in zip(_placement_rows(U, None, _GRID, ctrl).values(),
                         _placement_rows_by_argsort(U, _GRID, ctrl)):
        assert (got is None and want is None) or np.array_equal(got, want)


class _KeysAsTheyCome:
    """numpy with an identity argsort: the bootstrap placements then search each row of keys
    in its own order, the direct `ecdf_eval` that the sorted search replaced."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(a, axis=-1, **kw):
        return np.broadcast_to(np.arange(a.shape[axis]), a.shape)


@pytest.mark.parametrize("variant", ["sp_empirical", "kernel"])
def test_sorted_key_placements_equal_the_direct_search_bitwise(variant, monkeypatch):
    """Each replicate's placements U = 1 - F(t) searched as ascending keys and scattered back
    equal the direct search of the keys as they come, bitwise: U rows, curves and areas.
    The kernel variant's residual CDFs are count-weighted (`cumw`). Markers and covariates
    on coarse grids give tied keys; B = 70 is a full block of 64 replicates and a partial
    one of 6."""
    s = covariate_sample(n_h=150, n_d=120, seed=82)
    s = type(s)(marker=np.round(2.0 * s.marker) / 2.0, disease=s.disease, nondiseased_tag=0,
                covariates={"x": Column(np.round(4.0 * s.covariates["x"].values) / 4.0)})
    rows = []
    placement_rows = adjusted._placement_rows
    monkeypatch.setattr(adjusted, "_placement_rows",
                        lambda U, *a: rows.append(U.copy()) or placement_rows(U, *a))
    kw = {"covariate": "x", "bw": "srt"} if variant == "kernel" else {"formula": "y ~ x"}
    kw.update(variant=variant, B=70, rng=83, pauc=PaucControl(True, "tpf", 0.7))
    sorted_keys = aroc_frequentist(s, **kw)
    monkeypatch.setattr(adjusted, "np", _KeysAsTheyCome())
    direct = aroc_frequentist(s, **kw)
    assert np.unique(rows[0][0]).size < rows[0].shape[1]  # tied plug-in keys
    # the plug-in row and then one call per block of 64 replicates, in each fit
    assert [len(U) for U in rows] == [1, 64, 6] * 2
    assert all(np.array_equal(a, b) for a, b in zip(rows[:3], rows[3:]))
    for name in ("aroc_est", "aroc_lo", "aroc_hi", "placements"):
        assert np.array_equal(getattr(sorted_keys, name), getattr(direct, name))
    for name in ("aauc", "pauc", "yi", "p_star"):
        assert getattr(sorted_keys, name) == getattr(direct, name)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("pauc", [PaucControl(), PaucControl(True, "fpf", 0.3),
                                  PaucControl(True, "tpf", 0.7)], ids=["none", "fpf", "tpf"])
def test_placement_rows_over_member_blocks_equal_the_whole_stack(weighted, pauc):
    """Every member's rows read its own placements and weights alone: blocks of 64, a partial
    block and a single member give their rows of the whole stack's, bitwise. Placements on a
    coarse grid tie."""
    g = np.random.default_rng(88)
    U = np.round(g.uniform(size=(130, 57)), 2)
    q = g.dirichlet(np.ones(57), size=130) if weighted else None
    whole = _placement_rows(U, q, _GRID, pauc)
    for rows in (slice(0, 64), slice(64, 128), slice(128, 130), slice(5, 6)):
        part = _placement_rows(U[rows], None if q is None else q[rows], _GRID, pauc)
        for name, v in whole.items():
            assert part[name] is v is None or np.array_equal(part[name], v[rows]), name


def _assert_same_result(res, want: dict):
    for name, v in want.items():
        got = getattr(res, name)
        assert np.array_equal(got, v) if isinstance(v, np.ndarray) else got == v, name


@pytest.mark.parametrize("B", [1, 64, 65, 130])
@pytest.mark.parametrize("variant", ["sp_normal", "sp_empirical", "kernel"])
def test_block_walk_equals_the_placement_stack_built_whole(variant, B):
    """The frequentist fit summarises each block's placements in its block function. Its
    fields equal `_placement_rows` of the whole (B + 1, n_d) stack refit here from streams
    100 + k, bitwise."""
    s = covariate_sample(n_h=150, n_d=120, seed=84)
    ctrl, split = PaucControl(True, "tpf", 0.7), split_groups(s)
    res = aroc_frequentist(s, formula="y ~ x", covariate="x", variant=variant, bw="srt", B=B,
                           rng=85, pauc=ctrl)
    y_h, y_d = split.healthy, split.diseased
    if variant == "kernel":
        x_h, X_d = (np.asarray(c["x"].values, dtype=float)
                    for c in (split.healthy_cov, split.diseased_cov))
        fit0 = fit_by_rule(x_h, y_h, "srt", "healthy")

        def refit(i):
            return fit_location_scale(x_h, y_h, bw_mean=fit0.bw_mean, bw_var=fit0.bw_var,
                                      counts=_draw_counts(i))
    else:
        X_h, _, fitted = build_design(split.healthy_cov, parse_formula("y ~ x"))
        X_d, fit0, refit = fitted.rows(split.diseased_cov), _ols_fit(X_h, y_h), partial(
            _ols_fit, X_h, y_h)

    def placements(fit):
        mu, sd = fit.at(X_d)
        t = (y_d - mu) / sd
        return 1.0 - (ndtr(t) if variant == "sp_normal" else ecdf_eval(fit.residuals, t, fit.cumw))

    U = np.concatenate([placements(fit0)[None]] + [
        np.take_along_axis(placements(refit(h_idx)), d_idx, axis=1)
        for h_idx, d_idx in replicate_blocks(85, B, (y_h.size, y_d.size))])
    _assert_same_result(res, _summary_fields(_placement_rows(U, None, res.p, ctrl), ctrl, True))
    assert np.array_equal(res.placements, U[0])


def test_bnp_block_walk_equals_the_placement_stack_built_whole():
    """Aroc bnp walks its 130 draws in blocks of 64: placements from `cdf_at` on each block
    of draws, Dirichlet rows drawn block by block from stream 3 and a running sum for the mean
    placement. All of it equals the whole (S, n_d) stacks, bitwise."""
    s = covariate_sample(n_h=150, n_d=120, seed=86)
    ctrl = PaucControl(True, "fpf", 0.3)
    res = aroc_bnp(s, "y ~ x", prior=DdpPrior(L=3), mcmc=McmcControl(nsave=130, nburn=20),
                   pauc=ctrl, rng=87)
    ints, (std_sample, _) = res.internals, standardise(s)
    U = 1.0 - ints["draws_h"].cdf_at(split_groups(std_sample).diseased,
                                     ints["fitted"].rows(split_groups(s).diseased_cov))
    q = dirichlet(np.ones(U.shape[1]), RngStream(87, 3).generator, size=U.shape[0])
    _assert_same_result(res, _summary_fields(_placement_rows(U, q, res.p, ctrl), ctrl, False))
    assert np.array_equal(res.placements, U.mean(axis=0))


def test_sp_memory_holds_no_placement_stack(tmp_path):
    """Empirical aroc sp at B = 2000 on the benchmark's study: the (B + 1, 691) placement
    stack alone is 11 MB, and `_placement_rows` on it held several more (a 35 MB peak)."""
    s = study_sample(tmp_path)
    tracemalloc.start()
    try:
        res = aroc_frequentist(s, formula="bmi ~ gender + age", variant="sp_empirical", B=2000,
                               rng=2026)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert res.aauc.lo <= res.aauc.est <= res.aauc.hi


def test_bnp_memory_stays_below_one_placement_array():
    """Aroc bnp at S = 2330 draws over 2149 + 691 markers: one (S, n_d) float array is 12.9 MB,
    and the fit held its placements, Dirichlet weights and sorted rows whole (a 78 MB peak)."""
    g = np.random.default_rng(34)
    x = g.uniform(0.0, 1.0, 2840)
    y = x + g.normal(size=2840) + np.r_[np.zeros(2149), np.full(691, 1.5)]
    s = DiagnosticSample(marker=y, disease=np.array([0] * 2149 + [1] * 691), nondiseased_tag=0,
                         covariates={"x": Column(x)})
    S = 2330
    tracemalloc.start()
    try:
        res = aroc_bnp(s, "y ~ x", prior=DdpPrior(L=2), mcmc=McmcControl(nsave=S, nburn=0),
                       rng=35)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * 691 * 8
    assert res.internals["yi_draws"].shape == (S,)
