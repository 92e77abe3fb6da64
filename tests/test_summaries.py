import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr, ndtri

from rocinfer.errors import BadGridError, BracketFailError
from rocinfer.pooled import LocScaleStack, NormalStack, PaucControl, roc_rows, tnf_rows
from rocinfer.summaries import (
    band,
    ecdf_eval,
    ecdf_quantile,
    interval_from,
    invert_cdf,
    mixture_auc_closed,
    mw_auc,
    odd_grid,
    pauc_normalise,
    placement_areas,
    placements,
    simpson,
    youden,
    youden_grid,
    youden_rows,
)


def test_simpson_is_exact_for_cubics():
    grid = odd_grid(0.0, 1.0, 201)
    vals = grid**3
    assert abs(simpson(vals, grid[1] - grid[0]) - 0.25) < 1e-14


def test_mw_auc_halves_ties():
    # pairs: (0,1) win, (0,2) win, (1,1) tie, (1,2) win
    assert mw_auc([0.0, 1.0], [1.0, 2.0]) == pytest.approx(0.875, abs=1e-15)


def test_mw_auc_complement_under_group_swap():
    g = np.random.default_rng(1)
    a, b = g.normal(size=30), g.normal(1.0, 1.0, size=40)
    assert mw_auc(a, b) + mw_auc(b, a) == pytest.approx(1.0, abs=1e-12)


def test_weighted_auc_with_flat_weights_matches_plain():
    g = np.random.default_rng(2)
    a, b = g.normal(size=25), g.normal(size=25)
    w = np.full(25, 1.0 / 25)
    assert mw_auc(a, b, w, w) == pytest.approx(mw_auc(a, b), abs=1e-12)


@settings(max_examples=50)
@given(
    st.lists(st.integers(-500, 500), min_size=2, max_size=20),
    st.lists(st.integers(-500, 500), min_size=2, max_size=20),
)
def test_mw_auc_is_rank_based(h, d):
    """Strictly increasing transforms leave the statistic unchanged."""
    # tenths keep distinct values distinct through exp(x/25)
    h, d = np.array(h) / 10.0, np.array(d) / 10.0
    base = mw_auc(h, d)
    assert 0.0 <= base <= 1.0
    assert mw_auc(np.exp(h / 25), np.exp(d / 25)) == pytest.approx(base, abs=1e-12)


def test_single_normal_auc_closed_form():
    one = np.array([[1.0]])
    got = mixture_auc_closed(one, np.array([[0.0]]), one, one, one, one)
    assert got.shape == (1,) and got[0] == pytest.approx(0.7602499389065233, abs=1e-12)


def test_invert_cdf_matches_normal_quantiles():
    q = np.array([0.1, 0.5, 0.9])
    got = invert_cdf(lambda t, _: ndtr(t), q, -10.0, 10.0)
    np.testing.assert_allclose(got, ndtri(q), atol=1e-7)


def test_invert_cdf_rejects_a_bracket_that_misses_q():
    with pytest.raises(BracketFailError, match="does not straddle") as err:
        invert_cdf(lambda t, _: ndtr(t), 0.5, 1.0, 2.0)  # F(1) > 0.5 already
    assert err.value.exit_code == 4


def _binormal_stacks():
    """Healthy N(0, 1) and diseased N(2, 1) as normal location-scale stacks."""
    return LocScaleStack(0.0, 1.0, NormalStack()), LocScaleStack(2.0, 1.0, NormalStack())


def test_binormal_roc_curve_closed_form():
    p = np.linspace(0.0, 1.0, 11)
    got = roc_rows(*_binormal_stacks(), p)
    expect = np.where((p > 0) & (p < 1), ndtr(2.0 + ndtri(np.clip(p, 1e-12, 1 - 1e-12))), p)
    expect[p == 0.0] = 0.0
    expect[p == 1.0] = 1.0
    np.testing.assert_allclose(got, expect, atol=1e-6)


def test_tnf_curve_integrates_to_auc():
    p = odd_grid(0.0, 1.0, 401)
    vals = tnf_rows(*_binormal_stacks(), p)
    area = simpson(vals, p[1] - p[0])
    assert area == pytest.approx(0.9213503964748574, abs=1e-4)


def test_youden_binormal_shift_two():
    grid = np.linspace(-6.0, 8.0, 20001)
    pt = youden(lambda t: ndtr(t), lambda t: ndtr(t - 2.0), grid)
    assert pt.yi == pytest.approx(0.6826894921370859, abs=1e-6)
    assert pt.threshold == pytest.approx(1.0, abs=grid[1] - grid[0] + 1e-12)
    assert pt.sign == 1


def test_youden_counts_rounding_noise_as_no_separation():
    """Differences at or below the 2^-30 rounding bound of cumulative weights are 0: such a
    member has YI 0 and sign 0 at the first grid point, like exactly equal CDFs."""
    grid = np.linspace(24.0, 26.0, 5)
    fh = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]] * 3)
    fd = fh + np.array([[0.0, 0.0, 2e-16, -1e-16, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 2.0 ** -30, -2.0 ** -31, 0.0, 0.0]])
    yi, threshold, fpf, tpf, sign = youden_rows(fh, fd, grid)
    assert np.array_equal(yi, [0.0, 0.0, 0.0]) and np.array_equal(sign, [0, 0, 0])
    assert np.array_equal(threshold, [24.0] * 3)
    assert np.array_equal(fpf, [1.0] * 3) and np.array_equal(tpf, [1.0] * 3)
    # past the bound a difference still counts, with its sign
    fd[2, 3] = 1.0 - 2.0 ** -29
    yi, threshold, _, _, sign = youden_rows(fh, fd, grid)
    assert yi[2] == 2.0 ** -29 and threshold[2] == 25.5 and sign[2] == 1


def test_youden_grid_spans_the_data():
    g = youden_grid([0.0, 5.0])
    assert g[0] <= 0.0 and g[-1] >= 5.0
    assert len(g) == 500


def test_pauc_normalisation_conventions():
    assert pauc_normalise(0.05, "fpf", 0.1) == pytest.approx(0.5)
    assert pauc_normalise(0.1, "tpf", 0.8) == pytest.approx(0.5)
    assert pauc_normalise(0.3, "tpf", 1.0) == pytest.approx(0.3)
    with pytest.raises(BadGridError):
        pauc_normalise(0.1, "sideways", 0.5)


def test_odd_grid_bumps_even_counts():
    g = odd_grid(0.0, 1.0, 200)
    assert len(g) == 201
    assert g[0] == 0.0 and g[-1] == 1.0


def test_band_takes_central_95():
    draws = np.arange(1, 1002, dtype=float)
    lo, hi = band(draws)
    assert lo == pytest.approx(26.0, abs=1.0)
    assert hi == pytest.approx(976.0, abs=1.0)


@pytest.mark.parametrize("shape", [(1000, 24, 101), (1, 7), (3000,), (64, 1, 1)])
@pytest.mark.parametrize("tied", [False, True])
def test_band_equals_percentile_bitwise(shape, tied):
    """The chunk-sorted band reads the same order statistics as np.percentile's partition
    of the whole stack, so both ends are bitwise its band, in its shapes and types."""
    values = np.random.default_rng(3).normal(size=shape)
    if tied:
        values = np.round(values, 1)
    want = np.percentile(values, (2.5, 97.5), axis=0)
    for got, ref in zip(band(values), want):
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)


def test_interval_degenerates_without_draws():
    iv = interval_from(0.4, None)
    assert (iv.est, iv.lo, iv.hi) == (0.4, 0.4, 0.4)


def test_ecdf_conventions():
    y = np.array([1.0, 2.0, 3.0])
    assert ecdf_eval(y, 2.0) == pytest.approx(2.0 / 3.0)  # right continuous
    assert ecdf_eval(y, 0.5) == 0.0
    assert ecdf_eval(y, 2.0, side="left") == pytest.approx(1.0 / 3.0)  # left limit F(2-)
    assert ecdf_quantile(y, 0.5) == 2.0  # smallest y with F(y) >= q
    assert ecdf_quantile(y, 1.0) == 3.0


def test_weighted_ecdf_with_flat_weights_matches_plain():
    y = np.array([1.0, 2.0, 5.0])
    cumw = np.array([1 / 3, 2 / 3, 1.0])
    x = np.array([0.0, 1.5, 5.0])
    np.testing.assert_allclose(ecdf_eval(y, x, cumw), ecdf_eval(y, x))
    np.testing.assert_allclose(ecdf_eval(y, x, cumw, "left"), ecdf_eval(y, x, side="left"))
    q = np.array([0.2, 0.7, 1.0])
    np.testing.assert_allclose(ecdf_quantile(y, q, cumw), ecdf_quantile(y, q))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(["equal", "flat", "dirichlet"]),
    st.booleans(),
    st.sampled_from(["left", "right"]),
    st.lists(st.integers(-1, 6), min_size=1, max_size=6),
    st.integers(0, 2**16),
)
@example([2], 1, False, "equal", False, "right", [2], 0)  # n = 1
@example([1, 1, 1], 2, True, "dirichlet", True, "left", [1, 0, 2], 3)  # all tied
@example([0] * 7, 1, False, "flat", False, "right", [0], 0)  # 1 - 6/7 > 1/7
@example([0] * 10, 1, False, "equal", False, "right", [0], 0)  # 1 - 0.7 > 3/10
def test_step_views_match_their_definitions(values, M, per_member, weights, x_per_member,
                                            side, xs, seed):
    """ecdf_eval is the weight of the values <= x (< x on the left side);
    ecdf_quantile is the smallest value whose F reaches q, less 1e-12 under
    cumw or the 1e-9/n rounding slack of equal weights.

    Samples are shared or one per member; weights are equal, equal as one
    shared cumulative row (the adjusted curve's), or Dirichlet per member.
    Per-member values with per-member weights is the aroc bnp shape.
    """
    g = np.random.default_rng(seed)
    n = len(values)
    Y = np.sort(g.choice(values, size=(M, n)) if per_member else np.tile(values, (M, 1)), axis=1)
    W = g.dirichlet(np.ones(n), M) if weights == "dirichlet" else np.full((M, n), 1.0 / n)
    sorted_y = Y if per_member else Y[0]
    cumw = {"equal": None, "flat": np.arange(1, n + 1) / n,
            "dirichlet": np.cumsum(W, axis=1)}[weights]
    x = np.array(xs, dtype=float) / 2.0  # halves fall between and on the values
    X = g.permuted(np.tile(x, (M, 1)), axis=1) if x_per_member else np.tile(x, (M, 1))

    def weight(m, mask):  # of member m's values in mask; equal weights count exactly
        return W[m] @ mask if weights == "dirichlet" else mask.sum() / n

    below = np.less if side == "left" else np.less_equal
    want = np.array([[weight(m, below(Y[m], t)) for t in X[m]] for m in range(M)])
    got = ecdf_eval(sorted_y, X if x_per_member else x, cumw, side)
    np.testing.assert_allclose(np.broadcast_to(got, want.shape), want, rtol=0,
                               atol=1e-12 if weights == "dirichlet" else 0.0)

    # k/24, and 1 - k/n as roc_rows asks for it (an ulp above (n - k)/n for some n)
    q = np.concatenate([np.arange(25) / 24.0, 1.0 - np.arange(n + 1) / n])
    F = np.array([[weight(m, Y[m] <= y) for y in Y[m]] for m in range(M)])
    reach = F[:, :, None] >= q - (1e-9 / n if cumw is None else 1e-12)
    want = np.where(reach, Y[:, :, None], np.inf).min(axis=1)
    got = ecdf_quantile(sorted_y, q, cumw)
    np.testing.assert_array_equal(np.broadcast_to(got, want.shape), want)


def test_placements_half_tie_convention():
    # P(Y > 2) + 0.5 P(Y = 2) over ref {1, 2}
    assert placements(np.array([1.0, 2.0]), 2.0) == pytest.approx(0.25)
    assert placements(np.array([1.0, 2.0]), 0.0) == pytest.approx(1.0)
    # ties whole, not at all, and the same with flat cumulative weights
    assert placements(np.array([1.0, 2.0]), 2.0, side="left") == 0.5
    assert placements(np.array([1.0, 2.0]), 2.0, side="right") == 0.0
    cumw = np.array([[0.5, 1.0]])
    np.testing.assert_allclose(placements(np.array([1.0, 2.0]), [2.0], cumw), [[0.25]])


def test_full_range_placement_pauc_reduces_to_auc():
    g = np.random.default_rng(3)
    h = np.sort(g.normal(size=50))
    d = g.normal(1.0, 1.0, size=40)
    U = placements(h, d)
    w = np.full((1, 40), 1.0 / 40)
    ctrl = PaucControl(compute=True, focus="fpf", value=1.0)
    auc, full = placement_areas(U[None, :], w, ctrl)
    assert full[0] == pytest.approx(mw_auc(h, d), abs=1e-12)
    assert full[0] == pytest.approx(1.0 - U.mean(), abs=1e-12)
    assert auc[0] == pytest.approx(full[0], abs=1e-12)


_TIE_WEIGHT = {"left": 0.0, "right": 1.0, "half": 0.5}  # P(H = D) share of the AUC


def _dense_trapezoid(step, lo, hi, m=100_001):
    """Trapezoid of a step function on m points: off by at most jumps * width / m."""
    t = np.linspace(lo, hi, m)
    return float(np.trapezoid(step(t), t)) if hi > lo else 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
    st.sampled_from(["left", "right", "half"]),
    st.booleans(),
    st.sampled_from([0.05, 0.3, 0.8, 1.0]),
    st.integers(0, 2**16),
)
@example([3], [3], "half", False, 1.0, 0)  # n = 1 in both groups, one tie
@example([1, 2, 2], [2], "left", True, 1.0, 7)
@example([0, 4, 4, 5], [4, 4, 6], "right", True, 0.3, 11)
def test_placement_areas_match_definition_oracles(h, d, side, weighted, v, seed):
    """AUC against the pairwise double sum, partial areas against dense trapezoids."""
    h, d = np.array(h, dtype=float), np.array(d, dtype=float)
    g = np.random.default_rng(seed)
    M = 2
    wh = g.dirichlet(np.ones(h.size), M) if weighted else np.full((M, h.size), 1.0 / h.size)
    wd = g.dirichlet(np.ones(d.size), M) if weighted else np.full((M, d.size), 1.0 / d.size)
    oh, od = np.argsort(h, kind="stable"), np.argsort(d, kind="stable")
    hs, ds, wh, wd = h[oh], d[od], wh[:, oh], wd[:, od]
    if weighted:
        U = placements(hs, ds, np.cumsum(wh, axis=1), side=side)
        U_rev = placements(ds, hs, np.cumsum(wd, axis=1), side=side)
        q, q_rev = wd, wh
    else:
        U = np.tile(placements(hs, ds, side=side), (M, 1))
        U_rev = np.tile(placements(ds, hs, side=side), (M, 1))
        q = q_rev = None
    wins = (hs[:, None] < ds[None, :]) + _TIE_WEIGHT[side] * (hs[:, None] == ds[None, :])
    for focus in ("fpf", "tpf"):
        auc, pauc = placement_areas(U, q, PaucControl(True, focus, v), U_rev, q_rev)
        for m in range(M):
            np.testing.assert_allclose(auc[m], wh[m] @ wins @ wd[m], rtol=0, atol=1e-12)
            if focus == "fpf":  # int_0^v P(U <= p) dp
                raw = _dense_trapezoid(lambda t: wd[m] @ (U[m][:, None] <= t), 0.0, v)
            else:  # int_v^1 P(U_rev > t) dt
                raw = _dense_trapezoid(lambda t: wh[m] @ (U_rev[m][:, None] > t), v, 1.0)
            tol = (h.size + d.size) / 1e5
            np.testing.assert_allclose(pauc[m], pauc_normalise(raw, focus, v), rtol=0, atol=tol)
        if focus == "tpf" and v == 1.0:
            assert np.all(pauc == 0.0)
    # the placement layer read back through the public Mann-Whitney wrapper
    if side == "half" and not weighted:
        assert mw_auc(h, d) == pytest.approx(auc[0], abs=1e-12)
