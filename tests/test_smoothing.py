import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from rocinfer import smoothing
from rocinfer.adjusted import aroc_frequentist
from rocinfer.cli import main
from rocinfer.conditional import croc_kernel
from rocinfer.errors import ClampWarning, DegenerateGridWarning
from rocinfer.generate import simulate_endosyn_like
from rocinfer.pooled import KernelStack, _kernel_grid
from rocinfer.smoothing import (
    _candidate_grid,
    _loo_cv_cdf,
    _loo_cv_regression,
    _scan_reach,
    fit_location_scale,
    local_poly_regression,
    lscv_bandwidth,
    silverman_bandwidth,
)
from rocinfer.summaries import ecdf_eval

from conftest import covariate_sample


def kernel_cdf(x, data, h):
    """The plug-in kernel CDF of data at x, from its `KernelStack`."""
    return KernelStack(np.sort(data), h, _kernel_grid(data, data, h, h)).cdf(x)


def _full_weights(x, x0, h):
    d = np.asarray(x0, dtype=float)[:, None] - np.asarray(x, dtype=float)[None, :]
    return np.exp(-0.5 * (d / h) ** 2), d


def _loo_score_reference(w, d, y, order):
    """Leave-one-out score of one candidate over its full n x n weights w and differences d
    (`_full_weights` of the sample against itself)."""
    diag = np.arange(y.size)
    s0 = w.sum(axis=1)
    t0 = w @ y
    wii = w[diag, diag]
    if order == 0:
        denom = s0 - wii
        if np.any(denom <= 1e-300):
            return np.inf
        est = (t0 - wii * y) / denom
    else:
        wd = w * d
        s1, s2, t1 = wd.sum(axis=1), (wd * d).sum(axis=1), wd @ y
        denom = (s0 - wii) * s2 - s1 * s1
        if np.any(denom <= 1e-300 * np.maximum(1.0, s2)):
            return np.inf
        est = (s2 * (t0 - wii * y) - s1 * t1) / denom
    return float(np.mean((y - est) ** 2))


def _scan_sample(kind, seed):
    g = np.random.default_rng(seed)
    if kind == "ties":
        x = np.round(g.uniform(20, 80, 400), 0)
    elif kind == "gap":
        # two clusters and a lone point far from both: the smallest
        # candidates leave that point with no neighbour weight
        x = np.concatenate([g.uniform(0, 10, 150), g.uniform(60, 70, 150), [35.0]])
    elif kind == "ages":
        # benchmark scale: 32 blocks, and windows from a few rows to all n
        x = np.round(g.uniform(18, 80, 2000), 2)
        y = 20.0 + 0.1 * x + 0.01 * (x - 50.0) ** 2 / 50.0 + 4.0 * g.normal(size=x.size)
        shuffle = g.permutation(x.size)
        return x[shuffle], y[shuffle]
    else:
        x = g.uniform(0, 5, 10)
    y = np.sin(x / 7.0) + (0.5 + x / 100.0) * g.normal(size=x.size)
    shuffle = g.permutation(x.size)
    return x[shuffle], y[shuffle]


def test_normal_reference_bandwidth_frozen_value():
    # 0.9 * min(sd, iqr/1.34) * n^(-1/5) on 1..5
    bw = silverman_bandwidth(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert bw.value == pytest.approx(0.9735846228506357, abs=1e-12)
    assert bw.method == "srt"


def test_kernel_cdf_single_point_is_normal_cdf():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(kernel_cdf(x, np.array([0.0]), 1.0), ndtr(x), atol=1e-12)


def test_kernel_cdf_is_monotone_and_proper():
    g = np.random.default_rng(0)
    y = g.normal(size=40)
    x = np.linspace(-6, 6, 101)
    f = kernel_cdf(x, y, 0.5)
    assert np.all(np.diff(f) >= 0)
    assert f[0] < 1e-6 and f[-1] > 1 - 1e-6


def test_lscv_returns_a_positive_tagged_bandwidth():
    g = np.random.default_rng(1)
    y = g.normal(size=60)
    bw = lscv_bandwidth(y, y, target="cdf")
    assert bw.value > 0
    assert bw.method == "lscv"
    # same order of magnitude as the normal-reference rule
    ref = silverman_bandwidth(y).value
    assert ref / 5 < bw.value < ref * 5


def test_nadaraya_watson_hand_value():
    """Gaussian-weighted mean at x0 = 1.25 with h = 0.8, direct formula."""
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    y = np.array([0.1, 0.3, 0.9, 2.0, 4.1, 6.2, 9.3])
    fit = fit_location_scale(x, y, order=0, bw_mean=0.8, bw_var=0.8)
    assert fit.mu(np.array([1.25]))[0] == pytest.approx(2.1434622456750603, abs=1e-10)


def test_local_linear_hand_value():
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    y = np.array([0.1, 0.3, 0.9, 2.0, 4.1, 6.2, 9.3])
    fit = fit_location_scale(x, y, order=1, bw_mean=0.8, bw_var=0.8)
    assert fit.mu(np.array([1.25]))[0] == pytest.approx(2.0322879021795965, abs=1e-10)


def test_local_linear_reproduces_lines_exactly():
    g = np.random.default_rng(2)
    x = np.sort(g.uniform(0, 4, 80))
    y = 2.0 + 3.0 * x
    fit = fit_location_scale(x, y, order=1, bw_mean=0.7, bw_var=0.7)
    x0 = np.array([0.5, 2.0, 3.5])
    np.testing.assert_allclose(fit.mu(x0), 2.0 + 3.0 * x0, atol=1e-8)


def test_variance_of_an_exact_line_is_clamped():
    x = np.linspace(0.0, 4.0, 40)
    fit = fit_location_scale(x, 2.0 + 3.0 * x, order=1, bw_mean=0.7, bw_var=0.7)
    with pytest.warns(ClampWarning, match="variance estimate clamped"):
        v = fit.sigma2(np.array([1.0, 3.0]))
    np.testing.assert_array_equal(v, smoothing._VAR_FLOOR)


def test_variance_function_tracks_heteroskedastic_noise():
    g = np.random.default_rng(3)
    x = np.sort(g.uniform(0, 1, 600))
    sd = 0.5 + 1.5 * x
    y = np.sin(2 * x) + sd * g.normal(size=600)
    fit = fit_location_scale(x, y)  # bandwidths by cross validation
    v = fit.sigma2(np.array([0.2, 0.8]))
    assert v[0] == pytest.approx((0.5 + 1.5 * 0.2) ** 2, rel=0.5)
    assert v[1] == pytest.approx((0.5 + 1.5 * 0.8) ** 2, rel=0.5)
    assert v[1] > v[0]


def _loo_margins(w, d):
    """Smallest leave-one-out kernel mass over rows, and the order-1 margin.

    Both come from the weight matrix w (with differences d, as in
    `_loo_score_reference`) with its diagonal zeroed, in place, so neither
    suffers the s0 - 1 cancellation of the scorers. The order-1 margin is
    the leave-one-out denominator written as a sum of squares, over
    max(1, s2).
    """
    np.fill_diagonal(w, 0.0)
    s0 = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        centre = (w * d).sum(axis=1) / s0
        spread = (w * (d - centre[:, None]) ** 2).sum(axis=1)
        margin = np.nan_to_num(s0 * spread / np.maximum(1.0, (w * d * d).sum(axis=1)))
    return s0.min(), margin.min()


@pytest.mark.parametrize("kind, seed", [(kind, seed) for seed in (0, 1, 2)
                                        for kind in ("ties", "gap", "n10")] + [("ages", 0)])
def test_blocked_lscv_scan_matches_full_matrix_scorer(kind, seed):
    """The blocked scan against the per-candidate n x n scorer.

    Both scorers take s0 - 1, which loses digits as a row's leave-one-out
    mass shrinks, so the comparison is split by that mass (computed
    without cancellation). Below 1e-17 s0 rounds to 1 in any summation
    order and both must score inf; where every row keeps a margin of
    1e-6 both must be finite and, from h_srt/10 up, agree to 1e-9. In
    between, the inf rule itself depends on summation order. The
    selected bandwidth must always agree. The `ages` sample runs both
    branches of the order-1 scan: its blocks span about 2 years, so
    candidates below about h = 1 take per-pair sums and the larger ones
    block-centred sums.
    """
    x, y = _scan_sample(kind, seed)
    h0 = silverman_bandwidth(x).value
    candidates = _candidate_grid(x)
    targets = (("regression", 1, y), ("regression", 0, y), ("variance", 0, (y - y.mean()) ** 2))
    refs, margins = np.empty((len(targets), candidates.size)), np.empty((candidates.size, 2))
    for k, h in enumerate(candidates):  # each candidate's n x n weights, formed once
        w, d = _full_weights(x, x, h)
        refs[:, k] = [_loo_score_reference(w, d, yy, order) for _, order, yy in targets]
        margins[k] = _loo_margins(w, d)  # after the scores: it zeroes w's diagonal
    sure_inf = margins[:, 0] < 1e-17
    if kind == "gap":
        assert sure_inf[0]
    for (target, order, yy), ref in zip(targets, refs):
        fast = _loo_cv_regression(x, yy, candidates, order)
        sure_finite = margins[:, 1 if order == 1 else 0] >= 1e-6
        assert np.isinf(ref[sure_inf]).all() and np.isinf(fast[sure_inf]).all()
        assert np.isfinite(ref[sure_finite]).all() and np.isfinite(fast[sure_finite]).all()
        scored = sure_finite & (candidates >= h0 / 10 * (1 - 1e-12))
        np.testing.assert_allclose(fast[scored], ref[scored], rtol=1e-9, atol=0)
        best = candidates[int(np.argmin(ref))]
        assert candidates[int(np.argmin(fast))] == best
        assert lscv_bandwidth(x, yy, target, order=order).value == best


def test_blocked_local_fits_match_full_matrix_formula():
    g = np.random.default_rng(5)
    x = np.round(g.uniform(0, 60, 700), 1)  # unsorted, with ties
    y = np.cos(x / 9.0) + g.normal(size=x.size)
    x0 = np.concatenate([g.choice(x, 300), [0.0, 60.0, 30.05]])
    for h in (0.05, 1.3, 40.0):
        w, d = _full_weights(x, x0, h)
        s0, s1, s2 = w.sum(axis=1), (w * d).sum(axis=1), (w * d * d).sum(axis=1)
        t0, t1 = w @ y, (w * d) @ y
        np.testing.assert_allclose(local_poly_regression(x, y, h, x0, order=0), t0 / s0,
                                   rtol=1e-12)
        np.testing.assert_allclose(local_poly_regression(x, y, h, x0, order=1),
                                   (s2 * t0 - s1 * t1) / (s0 * s2 - s1 * s1), rtol=1e-9)
    assert local_poly_regression(x, y, 1.3, 30.05) == pytest.approx(
        local_poly_regression(x, y, 1.3, np.array([30.05]))[0], rel=1e-15)


def _close_rows(block, rows):
    """Each row of a block fit within 1e-12 of the single fit, relative to that row's largest."""
    want = np.array(rows)
    assert block.shape == want.shape
    assert np.all(np.abs(block - want) <= 1e-12 * np.abs(want).max(axis=-1, keepdims=True))


def test_block_fits_match_each_response_fit_alone():
    """A (b, n) block of responses shares one set of kernel weights; each row must equal
    the 1-d fit of that response (to 1e-12, so a threaded BLAS may sum in another order)."""
    g = np.random.default_rng(8)
    x = np.round(g.uniform(0, 60, 500), 1)  # unsorted, with ties
    Y = np.cos(x / 9.0) + (0.5 + x / 60.0) * g.normal(size=(7, x.size))
    x0 = np.concatenate([g.choice(x, 150), [0.5, 59.5]])
    for order in (0, 1):
        _close_rows(local_poly_regression(x, Y, 2.5, x0, order=order),
                    [local_poly_regression(x, y, 2.5, x0, order=order) for y in Y])
        block = fit_location_scale(x, Y, order=order, bw_mean=2.5, bw_var=4.0)
        alone = [fit_location_scale(x, y, order=order, bw_mean=2.5, bw_var=4.0) for y in Y]
        for name in ("residuals", "sq_resid"):
            _close_rows(getattr(block, name), [getattr(f, name) for f in alone])
        _close_rows(block.mu(x0), [f.mu(x0) for f in alone])
        _close_rows(block.sigma2(x0), [f.sigma2(x0) for f in alone])
        for got, want in zip(block.at(x0), zip(*(f.at(x0) for f in alone))):
            _close_rows(got, want)


def test_count_row_fits_match_each_case_resample_fit_alone():
    """Count rows weigh the data by each case resample's draw counts under one set of kernel
    weights; each row must equal the fit to that resample's repeated data (to 1e-12), and
    its residual CDF under cumulative counts the resample's own step CDF."""
    g = np.random.default_rng(10)
    x = np.round(g.uniform(0, 60, 400), 1)  # unsorted, with ties
    y = np.cos(x / 9.0) + (0.5 + x / 60.0) * g.normal(size=x.size)
    idx = g.integers(0, x.size, (6, x.size))
    counts = np.array([np.bincount(i, minlength=x.size) for i in idx], dtype=float)
    x0 = np.concatenate([g.choice(x, 100), [0.5, 59.5]])
    t = np.linspace(-3.0, 3.0, 41)
    for order in (0, 1):
        _close_rows(local_poly_regression(x, y, 2.5, x0, order=order, counts=counts),
                    [local_poly_regression(x[i], y[i], 2.5, x0, order=order) for i in idx])
        block = fit_location_scale(x, y, order=order, bw_mean=2.5, bw_var=4.0, counts=counts)
        alone = [fit_location_scale(x[i], y[i], order=order, bw_mean=2.5, bw_var=4.0)
                 for i in idx]
        _close_rows(block.mu(x0), [f.mu(x0) for f in alone])
        _close_rows(block.sigma2(x0), [f.sigma2(x0) for f in alone])
        for got, want in zip(block.at(x0), zip(*(f.at(x0) for f in alone))):
            _close_rows(got, want)
        assert np.array_equal(ecdf_eval(block.residuals, np.tile(t, (6, 1)), block.cumw),
                              np.array([ecdf_eval(f.residuals, t) for f in alone]))
    assert local_poly_regression(x, y, 2.5, 30.0, counts=counts).shape == (6,)


def _at_data_sample(kind):
    """(x, y, Y, count rows): tied x on [0, 60] (n = 500), or n = 10 scattered points."""
    g = np.random.default_rng(12)
    n = 500 if kind == "ties" else 10
    x = np.round(g.uniform(0, 60, n), 1 if kind == "ties" else 6)
    y = np.cos(x / 9.0) + (0.5 + x / 60.0) * g.normal(size=n)
    Y = np.cos(x / 9.0) + (0.5 + x / 60.0) * g.normal(size=(7, n))
    counts = np.array([np.bincount(g.integers(0, n, n), minlength=n) for _ in range(6)], float)
    return x, y, Y, counts


@pytest.mark.parametrize("kind", ["ties", "n10"])
def test_fits_at_the_data_match_the_smoother_at_x(kind):
    """The pair-once walk's fits at the data equal `local_poly_regression` at x, row by row
    (1e-12 of the row's largest value), for one response, a (7, n) block and count rows,
    at the smallest and the largest LSCV candidate."""
    x, y, Y, counts = _at_data_sample(kind)
    candidates = _candidate_grid(x)
    for h in (candidates[0], candidates[-1]):
        for order in (0, 1):
            _close_rows(smoothing._fit_at_data(x, y, h, order)[None],
                        [local_poly_regression(x, y, h, x, order=order)])
            _close_rows(smoothing._fit_at_data(x, Y, h, order),
                        local_poly_regression(x, Y, h, x, order=order))
            _close_rows(smoothing._fit_at_data(x, y, h, order, counts),
                        local_poly_regression(x, y, h, x, order=order, counts=counts))


def test_count_row_fits_at_the_data_reach_past_a_gap():
    """A point with a zero own count, alone in a gap 15 h from its nearest neighbours (past
    R(n) h, inside _REACH h), keeps its tiny kernel mass from both sides: count rows take the
    exact-zero window, so its fit matches `local_poly_regression` at x. The gap point opens
    a block of the walk, so an R(n) window would drop every point left of it."""
    g = np.random.default_rng(13)
    h = 0.1
    x = np.concatenate([g.uniform(0, 10, 3 * 64), [11.5], g.uniform(13, 23, 200)])
    y = np.sin(x / 3.0) + g.normal(size=x.size)
    counts = np.array([np.bincount(g.integers(0, x.size, x.size), minlength=x.size)
                       for _ in range(5)], float)
    counts[0, 3 * 64] = 0.0  # the gap point draws no copy of itself in row 0
    assert 15 * h > _scan_reach(x.size) * h
    for order in (0, 1):
        _close_rows(smoothing._fit_at_data(x, y, h, order, counts),
                    local_poly_regression(x, y, h, x, order=order, counts=counts))


@pytest.mark.parametrize("bw", ["srt", "lscv"])
def test_kernel_runs_walk_the_data_once_per_group_target_and_fit(monkeypatch, bw):
    """At B = 70 (blocks of 64 and 6 replicates), croc kernel and aroc kernel walk each
    group's data once per target (mean, variance) for the plug-in fit and for each block,
    plus one LSCV scan per target under lscv; `_kernel_sums` runs only at points off the
    data: croc's prediction points and aroc's diseased covariates."""
    walks, off_data = [], []
    pair_sums, kernel_sums = smoothing._pair_sums, smoothing._kernel_sums

    def count_walk(xs, cols, hs, *args):
        walks.append(hs.size)
        return pair_sums(xs, cols, hs, *args)

    def record_points(x, y, h, x0, *args):
        off_data.append(np.asarray(x0))
        return kernel_sums(x, y, h, x0, *args)

    monkeypatch.setattr(smoothing, "_pair_sums", count_walk)
    monkeypatch.setattr(smoothing, "_kernel_sums", record_points)
    s = covariate_sample(n_h=150, n_d=120, seed=51)
    scans = [50] * (2 if bw == "lscv" else 0)
    x0 = np.array([0.25, 0.5, 0.75])
    croc_kernel(s, "x", {"x": x0}, bw=bw, B=70, rng=52)
    assert sorted(walks) == [1] * 12 + scans * 2
    assert len(off_data) == 12 and all(np.array_equal(p, x0) for p in off_data)
    walks.clear()
    off_data.clear()
    aroc_frequentist(s, covariate="x", variant="kernel", bw=bw, B=70, rng=52)
    assert sorted(walks) == [1] * 6 + scans
    x_d = s.covariates["x"].values[150:]
    assert len(off_data) == 6 and all(np.array_equal(p, x_d) for p in off_data)


def test_a_variance_clamped_at_the_data_warns_once(tmp_path):
    """The healthy marker is exactly linear on a dense cluster of ages far from its noisy
    ones, so its variance fit clamps at those data points but not at the prediction points:
    the plug-in scale kept at the data still raises the clamp warning, once in the run."""
    g = np.random.default_rng(3)
    xe, xn, xd = g.uniform(0, 1, 250), g.uniform(9, 10, 50), g.uniform(0, 10, 200)
    rows = [(2.0 + a, 0, a) for a in xe] + [(2.0 + a + g.normal(), 0, a) for a in xn]
    rows += [(4.0 + a + g.normal(), 1, a) for a in xd]
    study, newdata, out = tmp_path / "study.csv", tmp_path / "nd.csv", tmp_path / "out.json"
    study.write_text("y,g,x\n" + "".join("%r,%d,%r\n" % (float(y), t, float(a))
                                           for y, t, a in rows), encoding="utf-8")
    newdata.write_text("x\n9.3\n9.7\n", encoding="utf-8")
    assert main(["croc", "--data", str(study), "--marker", "y", "--group", "g", "--tag", "0",
                 "--method", "kernel", "--covariate", "x", "--bw", "srt", "--newdata",
                 str(newdata), "--B", "70", "--out", str(out)]) == 0
    notes = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    assert [w for w in notes if w.startswith("variance estimate clamped")] == \
        ["variance estimate clamped at 1e-10"]


def test_local_fits_keep_the_shape_of_x0():
    g = np.random.default_rng(9)
    x = g.uniform(0, 1, 80)
    y = x + g.normal(size=80)
    Y = np.stack([y, 2.0 * y, y - 1.0])
    for order in (0, 1):
        assert isinstance(local_poly_regression(x, y, 0.2, 0.5, order=order), float)
        assert local_poly_regression(x, y, 0.2, [0.5], order=order).shape == (1,)
        assert local_poly_regression(x, y, 0.2, np.ones((2, 3)) / 2, order=order).shape == (2, 3)
        assert local_poly_regression(x, Y, 0.2, 0.5, order=order).shape == (3,)
        assert local_poly_regression(x, Y, 0.2, [0.2, 0.5], order=order).shape == (3, 2)
    fit = fit_location_scale(x, y, bw_mean=0.2, bw_var=0.2)
    assert isinstance(fit.mu(0.5), float) and isinstance(fit.sigma2(0.5), float)
    assert [a.shape for a in fit.at(np.array([0.2, 0.5]))] == [(2,), (2,)]
    block = fit_location_scale(x, Y, bw_mean=0.2, bw_var=0.2)
    assert block.residuals.shape == (3, 80)
    assert [a.shape for a in block.at(np.array([0.2, 0.5]))] == [(3, 2), (3, 2)]
    assert [a.shape for a in block.at(0.5)] == [(3,), (3,)]


@pytest.mark.parametrize("n", [2, 10, 2149, 10**6])
def test_scan_reach_bounds_the_dropped_weights(n):
    """At most n - 1 weights past the reach sum to no more than 2^-54."""
    reach = _scan_reach(n)
    assert (n - 1) * math.exp(-0.5 * reach * reach) <= 2.0 ** -54
    assert reach < 40.0


def test_scan_in_candidate_groups_matches_one_group(monkeypatch):
    x, y = _scan_sample("ties", 0)
    candidates = _candidate_grid(x)
    whole = [_loo_cv_regression(x, y, candidates, order) for order in (0, 1)]
    # accumulators for 7 candidates at a time
    monkeypatch.setattr(smoothing, "_SCAN_BYTES", 7 * 5 * 8 * x.size)
    for order, expected in zip((0, 1), whole):
        np.testing.assert_array_equal(_loo_cv_regression(x, y, candidates, order), expected)


# -- the scans as they were before the block-centred order-1 sums, kept as the oracle --
# Frozen copies: a rewrite of a package scan that moves a score past rounding fails below.
# The regression scan is copied with all candidates in one group (the package's candidate
# groups are checked bitwise against one group above).

def _frozen_moments(w, d, cols, order):
    sums = (w @ cols).T
    if order == 0:
        return sums
    w *= d
    return np.concatenate([sums, (w @ cols).T, np.einsum("ij,ij->i", w, d)[None]])


def _frozen_loo_cv_regression(x, y, candidates, order):
    xs_order = np.argsort(x, kind="stable")
    xs, ys = x[xs_order], y[xs_order]
    n = xs.size
    cols = np.column_stack([np.ones(n), ys])
    reach = _scan_reach(n) * candidates
    sse = np.zeros(candidates.size)
    failed = np.zeros(candidates.size, dtype=bool)
    buf = np.empty((min(64, n), n))
    acc = np.zeros((candidates.size, 2 if order == 0 else 5, n))
    for start in range(0, n, 64):
        end = min(start + 64, n)
        r, yr, rows_t = xs[start:end], ys[start:end], cols[start:end].T
        hi = np.searchsorted(xs, r[-1] + reach, side="right")
        d = r[:, None] - xs[start:hi.max()]
        d2 = d * d
        for c in range(candidates.size):
            if failed[c]:
                continue
            h, b, past = candidates[c], hi[c] - start, acc[c, :, end:hi[c]]
            w = buf[:r.size, :b]
            np.multiply(d2[:, :b], -0.5 / (h * h), out=w)
            np.exp(w, out=w)
            past[:2] += rows_t @ w[:, r.size:]
            sums = acc[c, :, start:end]
            sums += _frozen_moments(w, d[:, :b], cols[start:hi[c]], order)
            if order == 0:
                s0, t0 = sums
                num, denom, floor = t0 - yr, s0 - 1.0, 1e-300
            else:
                past[2:4] -= rows_t @ w[:, r.size:]
                past[4] += np.einsum("ij,ij->j", w[:, r.size:], d[:, r.size:b])
                s0, t0, s1, t1, s2 = sums
                num = s2 * (t0 - yr) - s1 * t1
                denom, floor = (s0 - 1.0) * s2 - s1 * s1, 1e-300 * np.maximum(1.0, s2)
            failed[c] = np.any(denom <= floor)
            if not failed[c]:
                sse[c] += np.sum((yr - num / denom) ** 2)
    return np.where(failed, np.inf, sse / n)


def _frozen_loo_cv_cdf(y, h, grid):
    a = ndtr((grid[None, :] - y[:, None]) / h)
    n = y.size
    f_all = a.mean(axis=0)
    f_loo = (n * f_all[None, :] - a) / (n - 1.0)
    indic = (y[:, None] <= grid[None, :]).astype(float)
    err = (indic - f_loo) ** 2
    return float(np.mean(np.trapezoid(err, grid, axis=1)))


def _study_groups(seed):
    """(age, bmi) of the healthy and the diseased group of `simulate --n 2840 --seed seed`."""
    rows = list(csv.DictReader(io.StringIO(simulate_endosyn_like(2840, seed))))
    return [tuple(np.array([float(row[k]) for row in rows if row["cvd_idf"] == tag])
                  for k in ("age", "bmi")) for tag in ("0", "1")]


def _selected(scores):
    return int(np.argmin(np.where(np.isfinite(scores), scores, np.inf)))


@pytest.mark.parametrize("seed", [2026, 400, 700])
def test_scan_matches_the_frozen_scan_at_benchmark_size(seed):
    """Both groups' mean (order 1 and 0) and variance scans against the frozen scan: the
    same inf pattern, every finite score within 1e-13 relative, the same selection. The
    variance target smooths the squared residuals of the selected order-1 mean fit."""
    for x, y in _study_groups(seed):
        candidates = _candidate_grid(x)
        mean_scores = _frozen_loo_cv_regression(x, y, candidates, 1)
        h = candidates[_selected(mean_scores)]
        sq = (y - local_poly_regression(x, y, h, x, order=1)) ** 2
        for order, yy, want in ((1, y, mean_scores), (0, y, None), (0, sq, None)):
            got = _loo_cv_regression(x, yy, candidates, order)
            if want is None:
                want = _frozen_loo_cv_regression(x, yy, candidates, order)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0)
            assert _selected(got) == _selected(want)


# -- the block-centred scan as it was with each weight tile a strided view of its buffer --
# Laying the tiles out contiguously changes no operation or operand, so the scores must
# stay bit for bit the same. Copied with all candidates in one group.

def _frozen_recentre(m, v):
    m[4] += v * (v * m[0] - 2.0 * m[2])
    m[2:4] = v * m[:2] - m[2:4]
    return m


def _frozen_strided_tile_scan(x, y, candidates, order):
    xs_order = np.argsort(x, kind="stable")
    xs, ys = x[xs_order], y[xs_order]
    n = xs.size
    cols = np.column_stack([np.ones(n), ys])
    reach = _scan_reach(n) * candidates
    sse = np.zeros(candidates.size)
    failed = np.zeros(candidates.size, dtype=bool)
    buf = np.empty((min(64, n), n))
    acc = np.zeros((candidates.size, 2 if order == 0 else 5, n))
    for start in range(0, n, 64):
        end = min(start + 64, n)
        r, yr, rows_t = xs[start:end], ys[start:end], cols[start:end].T
        hi = np.searchsorted(xs, r[-1] + reach, side="right")
        stop = hi.max()
        d = r[:, None] - xs[start:stop]
        d2 = d * d
        if order == 1:
            u = xs[start:stop] - 0.5 * (r[0] + r[-1])
            about = np.column_stack([cols[start:stop], u, u * ys[start:stop], u * u])
            half = 0.5 * (r[-1] - r[0])
        for c in range(candidates.size):
            if failed[c]:
                continue
            h, b, past = candidates[c], hi[c] - start, acc[c, :, end:hi[c]]
            w = buf[:r.size, :b]
            np.multiply(d2[:, :b], -0.5 / (h * h), out=w)
            np.exp(w, out=w)
            sums = acc[c, :, start:end]
            if order == 1 and half <= h:
                sums += _frozen_recentre((w @ about[:b]).T, u[:r.size])
                past += _frozen_recentre(about[:r.size].T @ w[:, r.size:], u[r.size:b])
            else:
                past[:2] += rows_t @ w[:, r.size:]
                sums += _frozen_moments(w, d[:, :b], cols[start:hi[c]], order)
                if order == 1:
                    past[2:4] -= rows_t @ w[:, r.size:]
                    past[4] += np.einsum("ij,ij->j", w[:, r.size:], d[:, r.size:b])
        live = np.flatnonzero(~failed)
        sums = acc[live, :, start:end].transpose(1, 0, 2)
        if order == 0:
            s0, t0 = sums
            num, denom, floor = t0 - yr, s0 - 1.0, 1e-300
        else:
            s0, t0, s1, t1, s2 = sums
            num = s2 * (t0 - yr) - s1 * t1
            denom, floor = (s0 - 1.0) * s2 - s1 * s1, 1e-300 * np.maximum(1.0, s2)
        low = denom <= floor
        bad = np.any(low, axis=1)
        failed[live[bad]] = True
        err = (yr - num / np.where(low, 1.0, denom)) ** 2
        sse[live[~bad]] += np.sum(err[~bad], axis=1)
    return np.where(failed, np.inf, sse / n)


@pytest.mark.parametrize("seed", [2026, 400, 700])
def test_scan_equals_the_strided_tile_scan_bitwise(seed):
    """Both groups' mean (order 1 and 0) and variance scans equal the frozen strided-tile
    scan bit for bit, inf pattern included. The variance target smooths the squared
    residuals of the selected order-1 mean fit."""
    for x, y in _study_groups(seed):
        candidates = _candidate_grid(x)
        mean_scores = _loo_cv_regression(x, y, candidates, 1)
        assert np.array_equal(mean_scores, _frozen_strided_tile_scan(x, y, candidates, 1))
        h = candidates[_selected(mean_scores)]
        sq = (y - local_poly_regression(x, y, h, x, order=1)) ** 2
        for yy in (y, sq):
            assert np.array_equal(_loo_cv_regression(x, yy, candidates, 0),
                                  _frozen_strided_tile_scan(x, yy, candidates, 0))


def test_cdf_scan_matches_the_frozen_scan_bitwise():
    """The pooled-kernel LSCV scores, with the indicators built once for all candidates,
    equal the frozen per-candidate scan bit for bit (the healthy markers at seed 2026)."""
    y = _study_groups(2026)[0][1]
    candidates = _candidate_grid(y)
    grid = np.linspace(y.min() - 3 * candidates[-1], y.max() + 3 * candidates[-1], 201)
    indic = (y[:, None] <= grid[None, :]).astype(float)
    assert [_loo_cv_cdf(y, h, grid, indic) for h in candidates] == \
        [_frozen_loo_cv_cdf(y, h, grid) for h in candidates]


def test_lscv_warns_when_it_stops_at_a_grid_edge():
    g = np.random.default_rng(4)
    x = g.uniform(0, 1, 400)
    y = 1.0 + 2.0 * x + 0.3 * g.normal(size=x.size)
    with pytest.warns(DegenerateGridWarning, match=r"regression bandwidth stopped at the grid "
                                                  r"edge: h = \S+ = 20 x h_srt"):
        bw = lscv_bandwidth(x, y, "regression")
    assert bw.value == _candidate_grid(x)[-1]
    # the sample of test_variance_function_tracks_heteroskedastic_noise
    # has an interior optimum for both bandwidths
    g = np.random.default_rng(3)
    x = np.sort(g.uniform(0, 1, 600))
    y = np.sin(2 * x) + (0.5 + 1.5 * x) * g.normal(size=600)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateGridWarning)
        fit_location_scale(x, y)
