import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from rocinfer import pooled
from rocinfer.adjusted import aroc_frequentist
from rocinfer.conditional import croc_sp
from rocinfer.mixtures import DpmPrior, McmcControl
from rocinfer.pooled import (
    _WEIGHTS_STREAM,
    DensityControl,
    MixtureStack,
    PaucControl,
    PaucSummary,
    KernelStack,
    StepStack,
    _draw_counts,
    _kernel_auc,
    _kernel_grid,
    case_bootstrap,
    pooled_bb,
    pooled_dpm,
    pooled_empirical,
    pooled_kernel,
    pooled_threshold,
    pooled_tnf,
    roc_rows,
    threshold_result,
    tnf_rows,
)
from rocinfer.sample import DiagnosticSample
from rocinfer.smoothing import silverman_bandwidth
from rocinfer.streams import RngStream, dirichlet
from rocinfer.summaries import (
    band,
    interval_from,
    mixture_auc_closed,
    mw_auc,
    odd_grid,
    pauc_normalise,
    placement_areas,
    placements,
    simpson,
    youden_grid,
)

from conftest import binormal_sample, covariate_sample, study_sample

AUC_SHIFT1 = float(ndtr(1.0 / np.sqrt(2.0)))
AUC_SHIFT2 = float(ndtr(2.0 / np.sqrt(2.0)))
YI_SHIFT2 = 0.6826894921370859  # 2 Phi(1) - 1


def _sample_with_ties(n=120, seed=3):
    g = np.random.default_rng(seed)
    y = np.round(np.concatenate([g.normal(0, 1, n), g.normal(1, 1, n)]), 1)
    lab = np.array([0] * n + [1] * n)
    return DiagnosticSample(marker=y, disease=lab, nondiseased_tag=0)


def _integral(curve, p):
    return float(np.trapezoid(curve, p))


def test_empirical_auc_equals_mann_whitney_with_ties():
    s = _sample_with_ties()
    res = pooled_empirical(s, B=0)
    h = s.marker[s.disease == 0]
    d = s.marker[s.disease != 0]
    assert res.auc.est == pytest.approx(mw_auc(h, d), abs=1e-15)
    assert res.auc.lo == res.auc.est == res.auc.hi  # B=0 degenerates the band
    assert np.array_equal(res.roc_lo, res.roc_est)


def test_empirical_curve_shape_and_endpoints():
    res = pooled_empirical(binormal_sample(seed=1), B=25, rng=7)
    assert res.p[0] == 0.0 and res.p[-1] == 1.0
    assert res.roc_est[0] == 0.0 and res.roc_est[-1] == 1.0
    assert np.all(np.diff(res.roc_est) >= -1e-9)
    assert np.all((res.roc_est >= 0.0) & (res.roc_est <= 1.0))
    assert np.all(res.roc_lo <= res.roc_hi)
    assert res.ensemble.shape == (25, res.p.size)
    assert res.sample_sizes == (200, 200)


def test_full_range_partial_area_equals_auc():
    s = binormal_sample(seed=2)
    ctrl = PaucControl(compute=True, focus="fpf", value=1.0)
    emp = pooled_empirical(s, pauc=ctrl, B=0)
    assert emp.pauc.est == pytest.approx(emp.auc.est, abs=1e-12)
    bb = pooled_bb(s, S=200, pauc=ctrl, rng=5)
    assert bb.pauc.est == pytest.approx(bb.auc.est, abs=1e-12)
    with pytest.raises(Exception):
        PaucControl(compute=True, focus="tpf", value=0.0)  # bound must sit in (0, 1]


def test_tpf_partial_area_matches_placement_oracle():
    from rocinfer.summaries import placements

    s = binormal_sample(seed=2)
    h = np.sort(s.marker[s.disease == 0])
    d = np.sort(s.marker[s.disease != 0])
    emp = pooled_empirical(s, pauc=PaucControl(compute=True, focus="tpf", value=0.2),
                           B=0)
    V = placements(d, h)  # healthy placed against the diseased survival law
    raw = float(np.mean(np.maximum(0.2, V))) - 0.2
    assert emp.pauc.est == pytest.approx(raw / 0.8, abs=1e-12)
    assert emp.pauc.focus == "tpf" and emp.pauc.bound == 0.2


def test_reverse_curve_integrates_to_auc_every_estimator():
    s = binormal_sample(n_h=150, n_d=150, shift=1.0, seed=4)
    grid = odd_grid(0.0, 1.0, 2001)
    results = [
        pooled_empirical(s, B=0),
        pooled_kernel(s, B=0),
        pooled_bb(s, S=150, rng=3),
        pooled_dpm(s, prior_h=DpmPrior(L=1), prior_d=DpmPrior(L=1),
                   mcmc=McmcControl(nsave=80, nburn=80), rng=3),
    ]
    for res in results:
        tnf = pooled_tnf(res, grid)
        integral = float(simpson(np.asarray(tnf, dtype=float), grid[1] - grid[0]))
        assert integral == pytest.approx(res.auc.est, abs=1e-3), res.method


def test_kernel_recovers_binormal_auc():
    res = pooled_kernel(binormal_sample(n_h=400, n_d=400, shift=2.0, seed=6),
                        B=30, rng=11)
    assert res.auc.est == pytest.approx(AUC_SHIFT2, abs=0.04)
    assert np.all(np.diff(res.roc_est) >= -1e-9)
    assert res.auc.lo < res.auc.est < res.auc.hi


def test_bb_centres_on_empirical_auc():
    s = binormal_sample(n_h=200, n_d=200, shift=1.0, seed=8)
    emp = pooled_empirical(s, B=0)
    bb = pooled_bb(s, S=800, rng=9)
    assert bb.auc.est == pytest.approx(emp.auc.est, abs=0.03)
    assert np.all(np.diff(bb.roc_est) >= -1e-9)


def test_dpm_single_component_matches_binormal():
    s = binormal_sample(n_h=300, n_d=300, shift=1.0, seed=25)
    res = pooled_dpm(
        s, prior_h=DpmPrior(L=1), prior_d=DpmPrior(L=1),
        mcmc=McmcControl(nsave=300, nburn=200),
        pauc=PaucControl(compute=True, focus="fpf", value=1.0),
        density=DensityControl(compute=True, grid_length=64),
        rng=12,
    )
    emp = pooled_empirical(s, B=0)
    assert res.auc.est == pytest.approx(emp.auc.est, abs=0.025)
    assert res.auc.est == pytest.approx(AUC_SHIFT1, abs=0.05)
    assert res.pauc.est == pytest.approx(res.auc.est, abs=2e-3)  # Simpson pauc
    for group in ("healthy", "diseased"):
        block = res.densities[group]
        assert block["grid"].shape == (64,)
        assert np.all(block["est"] >= 0.0)
        assert np.all(block["lo"] <= block["hi"])
    crit = res.fit.as_dict()
    for group in ("healthy", "diseased"):
        assert all(np.isfinite(v) for v in crit[group].values())


def test_dpm_closed_form_auc_agrees_with_quadrature():
    s = binormal_sample(n_h=150, n_d=150, shift=1.0, seed=13)
    res = pooled_dpm(s, prior_h=DpmPrior(L=3), prior_d=DpmPrior(L=3),
                     mcmc=McmcControl(nsave=60, nburn=60), rng=14)
    dh = res.internals["draws_h"]
    dd = res.internals["draws_d"]
    closed = mixture_auc_closed(
        dh.weights, dh.means, np.sqrt(dh.sigma2),
        dd.weights, dd.means, np.sqrt(dd.sigma2),
    )
    g = odd_grid(0.0, 1.0, 401)
    curves = roc_rows(MixtureStack(dh.weights, dh.means, dh.sigma2),
                      MixtureStack(dd.weights, dd.means, dd.sigma2), g)
    quad = simpson(curves, g[1] - g[0])
    assert np.max(np.abs(np.asarray(closed) - np.asarray(quad))) < 1e-3


def _affine_sample(s, a, b):
    return DiagnosticSample(marker=a * s.marker + b, disease=s.disease,
                            nondiseased_tag=0)


def test_location_scale_invariance_frequentist():
    s = binormal_sample(n_h=120, n_d=120, shift=1.0, seed=15)
    t = _affine_sample(s, 3.0, 7.0)
    for fit in (lambda x: pooled_empirical(x, B=40, rng=16),
                lambda x: pooled_kernel(x, B=0)):
        r1, r2 = fit(s), fit(t)
        assert np.allclose(r1.roc_est, r2.roc_est, atol=1e-8)
        assert r1.auc.est == pytest.approx(r2.auc.est, abs=1e-8)
        thr1 = pooled_threshold(r1)
        thr2 = pooled_threshold(r2)
        assert thr2.threshold[0].est == pytest.approx(
            3.0 * thr1.threshold[0].est + 7.0, abs=1e-8)
        assert thr2.yi[0].est == pytest.approx(thr1.yi[0].est, abs=1e-8)


# strictly increasing on the integer grid below, with distinct images for distinct values
_INCREASING = [lambda y: np.exp(y / 2.0), lambda y: y ** 3 + 2.0 * y, lambda y: 10.0 * y - 3.0,
               lambda y: np.log1p(y + 7.0)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=40),
       st.lists(st.integers(-6, 6), min_size=1, max_size=40),
       st.sampled_from(range(len(_INCREASING))), st.integers(0, 2 ** 16))
def test_step_estimators_are_rank_invariant(y_h, y_d, transform, seed):
    """Emp and bb read the markers only through their ranks: an increasing map of tied
    integer-grid markers keeps their curves, AUC and both partial areas bitwise."""
    y = np.array(y_h + y_d, dtype=float)
    lab = np.array([0] * len(y_h) + [1] * len(y_d))
    s, t = (DiagnosticSample(marker=m, disease=lab, nondiseased_tag=0)
            for m in (y, _INCREASING[transform](y)))
    for ctrl in (PaucControl(compute=True, focus="fpf", value=0.3),
                 PaucControl(compute=True, focus="tpf", value=0.7)):
        for fit in (lambda x: pooled_empirical(x, B=70, pauc=ctrl, rng=seed),
                    lambda x: pooled_bb(x, S=70, pauc=ctrl, rng=seed)):
            r1, r2 = fit(s), fit(t)
            for name in ("roc_est", "roc_lo", "roc_hi", "ensemble"):
                assert np.array_equal(getattr(r1, name), getattr(r2, name))
            assert r1.auc == r2.auc and r1.pauc == r2.pauc


def test_location_scale_invariance_dpm():
    s = binormal_sample(n_h=100, n_d=100, shift=1.0, seed=17)
    t = _affine_sample(s, 3.0, 7.0)
    kw = dict(prior_h=DpmPrior(L=3), prior_d=DpmPrior(L=3),
              mcmc=McmcControl(nsave=150, nburn=100))
    r1 = pooled_dpm(s, rng=18, **kw)
    r2 = pooled_dpm(t, rng=18, **kw)
    # standardising first makes both chains see the same data
    assert np.allclose(r1.roc_est, r2.roc_est, atol=1e-8)
    assert r1.auc.est == pytest.approx(r2.auc.est, abs=1e-8)


def test_threshold_fpf_criterion_hand_case():
    y = np.concatenate([np.arange(1.0, 11.0), np.arange(5.0, 15.0)])
    lab = np.array([0] * 10 + [1] * 10)
    s = DiagnosticSample(marker=y, disease=lab, nondiseased_tag=0)
    res = pooled_empirical(s, B=0)
    thr = pooled_threshold(res, criterion="fpf", target_fpf=0.3)
    step = 13.0 / 499.0
    assert 7.0 <= thr.threshold[0].est <= 7.0 + step + 1e-12
    assert thr.fpf[0].est == pytest.approx(0.3, abs=1e-12)
    assert thr.tpf[0].est == pytest.approx(0.7, abs=1e-12)
    assert thr.target_fpf == 0.3


def test_threshold_validation():
    res = pooled_empirical(binormal_sample(n_h=40, n_d=40), B=0)
    with pytest.raises(Exception):
        pooled_threshold(res, criterion="fpf")  # missing target
    with pytest.raises(Exception):
        pooled_threshold(res, criterion="nope")


def test_youden_threshold_binormal_shift_two():
    s = binormal_sample(n_h=1500, n_d=1500, shift=2.0, seed=19)
    res = pooled_kernel(s, B=30, rng=20)
    thr = pooled_threshold(res)
    assert thr.criterion == "yi"
    assert thr.threshold[0].est == pytest.approx(1.0, abs=0.15)
    assert thr.yi[0].est == pytest.approx(YI_SHIFT2, abs=0.04)
    assert thr.sign[0] == 1
    assert thr.threshold[0].lo <= thr.threshold[0].est <= thr.threshold[0].hi


def test_worker_count_does_not_change_results():
    s = binormal_sample(n_h=100, n_d=100, seed=21)
    a = pooled_empirical(s, B=50, rng=22, workers=1)
    b = pooled_empirical(s, B=50, rng=22, workers=4)
    assert np.array_equal(a.roc_lo, b.roc_lo)
    assert np.array_equal(a.roc_hi, b.roc_hi)
    assert a.auc == b.auc


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("B", [0, 1, 64, 65, 130])
def test_case_bootstrap_stream_layout(B, workers):
    # replicate k draws integers(0, n, n) per size, in order, from stream 100 + k;
    # block c holds replicates [64 c, 64 c + 64) as one (b, n) index array per size
    sizes = (7, 3, 5)
    blocks = case_bootstrap(lambda members, *idx: (members, idx), RngStream(31), B, sizes, workers)
    assert [members for members, _ in blocks] == [
        slice(c, min(c + 64, B)) for c in range(0, B, 64)]
    blocks = [idx for _, idx in blocks]
    assert [[idx.shape for idx in block] for block in blocks] == [
        [(min(64, B - c), n) for n in sizes] for c in range(0, B, 64)]
    rows = [row for block in blocks for row in zip(*block)]
    assert len(rows) == B
    for k, idx in enumerate(rows):
        gen = RngStream(31, 100 + k).generator
        for n, got in zip(sizes, idx):
            assert np.array_equal(got, gen.integers(0, n, n))


def test_bb_tpf_partial_area_matches_the_curve_integral_with_ties():
    # marker rounded to 0.1: many healthy and diseased values coincide
    s = _sample_with_ties(n=150, seed=12)
    ctrl = PaucControl(compute=True, focus="tpf", value=0.8)
    bb = pooled_bb(s, S=6, pauc=ctrl, rng=13)
    # the area between each draw's curve and TPF = value, where the curve lies above it
    g = odd_grid(0.0, 1.0, 200001)
    curves = np.concatenate([roc_rows(H, D, g) for H, D in bb.internals["ensemble"]])
    above = np.maximum(curves - ctrl.value, 0.0)
    ref = pauc_normalise(simpson(above, g[1] - g[0]), "tpf", ctrl.value)
    lo, hi = band(ref)
    assert bb.pauc.est == pytest.approx(float(ref.mean()), abs=1e-5)
    assert bb.pauc.lo == pytest.approx(float(lo), abs=1e-5)
    assert bb.pauc.hi == pytest.approx(float(hi), abs=1e-5)


def test_step_reverse_curve_integrates_to_p_h_le_d_with_ties():
    """On step stacks the reverse curve counts cross-group ties whole: its
    integral is P(H <= D) = 1 - E_q[P(H > d)], above the emp and bb AUCs."""
    s = _sample_with_ties(n=150, seed=12)
    h, d = np.sort(s.marker[s.disease == 0]), np.sort(s.marker[s.disease != 0])
    g = odd_grid(0.0, 1.0, 200001)
    emp = pooled_empirical(s, B=0)
    area = simpson(pooled_tnf(emp, g), g[1] - g[0])
    assert area == pytest.approx(1.0 - placements(h, d, side="right").mean(), abs=1e-5)
    assert area - emp.auc.est > 1e-3
    bb = pooled_bb(s, S=6, rng=13)
    pairs = bb.internals["ensemble"]
    # each draw's diseased weights and healthy cumulative weights, replayed block by block
    q = np.concatenate([D.draw()[0] for _, D in pairs])
    cum_h = np.concatenate([H.steps(H.draw()).cumw for H, _ in pairs])
    per_draw = 1.0 - np.einsum("sj,sj->s", q, placements(h, d, cum_h, side="right"))
    tnf = np.concatenate([tnf_rows(H, D, g) for H, D in pairs])
    np.testing.assert_allclose(simpson(tnf, g[1] - g[0]), per_draw, atol=1e-5)
    assert simpson(pooled_tnf(bb, g), g[1] - g[0]) == pytest.approx(per_draw.mean(), abs=1e-5)
    assert per_draw.mean() - bb.auc.est > 1e-3


class _GammaLog(RngStream):
    """An `RngStream` whose sibling streams' generators log the size of each
    `standard_gamma` call: every draw the fit makes from its own stream."""

    def __init__(self, seed, log):
        super().__init__(seed)
        self.log = log

    def stream(self, stream_id):
        sibling, log = super().stream(stream_id), self.log
        gen = sibling.generator

        class Logged:
            def __getattr__(self, name):
                return getattr(gen, name)

            def standard_gamma(self, shape, size):
                log.append(size)
                return gen.standard_gamma(shape, size)

        sibling.generator = Logged()
        return sibling


@pytest.mark.parametrize("S", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("focus", ["fpf", "tpf"])
def test_bb_blocks_replay_the_one_shot_weights_bitwise(S, focus, monkeypatch):
    """The block ensemble, its curves and its areas equal a stack built from
    one (S, n) Dirichlet draw per group off the same stream. The fit's first
    pass only advances the stream past each healthy block's gammas and saves
    the state a drawing pass leaves; it then draws each diseased block once
    and replays each healthy block once, and a query replays each block once."""
    rows, gammas = [], []

    def counted(alpha, rng, size):
        rows.append(size)
        return dirichlet(alpha, rng, size)

    monkeypatch.setattr(pooled, "dirichlet", counted)
    s = _sample_with_ties(n=90, seed=21)
    ctrl = PaucControl(compute=True, focus=focus, value=0.3 if focus == "fpf" else 0.8)
    res = pooled_bb(s, S=S, pauc=ctrl, rng=_GammaLog(22, gammas))
    assert sum(rows) == 2 * S
    pooled_threshold(res)
    assert sum(rows) == 4 * S

    y_h, y_d = s.marker[s.disease == 0], s.marker[s.disease != 0]
    o_h, o_d = np.argsort(y_h, kind="stable"), np.argsort(y_d, kind="stable")
    h, d = y_h[o_h], y_d[o_d]
    counts = [min(64, S - c) for c in range(0, S, 64)]
    # from the fit's stream: the healthy advance draws, then the diseased Dirichlet draws
    assert gammas == [(c, h.size) for c in counts] + [(c, d.size) for c in counts]
    gen = RngStream(22).stream(_WEIGHTS_STREAM).generator
    states = []
    for c, n in [(c, h.size) for c in counts] + [(c, d.size) for c in counts]:
        states.append(gen.bit_generator.state)
        dirichlet(np.ones(n), gen, size=c)  # a drawing pass, block by block
    pairs = res.internals["ensemble"]  # one (healthy, diseased) block pair per 64 draws
    assert [b.draw.args[0] for b in (H for H, _ in pairs)] == states[:len(counts)]
    assert [b.draw.args[0] for b in (D for _, D in pairs)] == states[len(counts):]

    gen = RngStream(22).stream(_WEIGHTS_STREAM).generator
    # C-ordered like the fit's own weight rows: einsum's summation order follows the layout
    q1 = np.take(dirichlet(np.ones(h.size), gen, size=S), o_h, axis=1)
    q2 = np.take(dirichlet(np.ones(d.size), gen, size=S), o_d, axis=1)
    ref = StepStack(h, np.cumsum(q1, axis=1)), StepStack(d, np.cumsum(q2, axis=1))

    assert [(H.shape, D.shape) for H, D in pairs] == [((c,),) * 2 for c in counts]
    x, q = np.linspace(-3.0, 4.0, 57), np.linspace(0.0, 1.0, 33)
    for g, want in enumerate(ref):
        assert np.array_equal(np.concatenate([pair[g].cdf(x) for pair in pairs]), want.cdf(x))
        assert np.array_equal(np.concatenate([pair[g].quantile(q) for pair in pairs]),
                              want.quantile(q))
    assert np.array_equal(np.concatenate([roc_rows(H, D, res.p) for H, D in pairs]),
                          roc_rows(*ref, res.p))
    assert np.array_equal(res.ensemble, roc_rows(*ref, res.p))
    grid = np.linspace(-3.0, 4.0, 41)
    for criterion, target in (("yi", None), ("fpf", 0.1)):
        assert (threshold_result(grid, criterion, target, [(None, pairs)])
                == threshold_result(grid, criterion, target, [(None, [ref])]))
    U = placements(h, d, ref[0].cumw, side="left")
    U_rev = placements(d, h, ref[1].cumw, side="right")
    aucs, paucs = placement_areas(U, q2, ctrl, U_rev, q1)
    assert res.auc == interval_from(None, aucs)
    assert res.pauc == PaucSummary.of(interval_from(None, paucs), ctrl)


@pytest.mark.parametrize("B", [1, 64, 65, 130])
@pytest.mark.parametrize("focus", ["fpf", "tpf"])
def test_emp_block_areas_equal_each_replicate_reduced_alone(B, focus, monkeypatch):
    """Emp's count blocks against the sorted value rows of each replicate (replicate k
    drawn from stream 100 + k and sorted): curves and thresholds bitwise, areas to
    summation order. Each block's areas equal its count rows reduced one at a time. The
    fit keeps no counts: a walk of its ensemble replays streams 100 .. 100 + B - 1."""
    s = _sample_with_ties(n=80, seed=23)
    ctrl = PaucControl(compute=True, focus=focus, value=0.3 if focus == "fpf" else 0.8)
    res = pooled_empirical(s, B=B, pauc=ctrl, rng=24)
    y_h, y_d = s.marker[s.disease == 0], s.marker[s.disease != 0]
    h, d = np.sort(y_h), np.sort(y_d)
    gens = [RngStream(24, 100 + k).generator for k in range(B)]
    idx = [(g.integers(0, y_h.size, y_h.size), g.integers(0, y_d.size, y_d.size)) for g in gens]
    ref = tuple(StepStack(np.sort(y[np.array(i)], axis=1)) for y, i in zip((y_h, y_d), zip(*idx)))

    pairs = res.internals["ensemble"]
    drawn, stream = [], RngStream.stream

    def recorded(self, stream_id):
        drawn.append(stream_id)
        return stream(self, stream_id)

    monkeypatch.setattr(RngStream, "stream", recorded)
    assert len(list(pairs)) == -(-B // 64) and drawn == list(range(100, 100 + B))
    assert np.array_equal(res.ensemble, roc_rows(*ref, res.p))
    assert np.array_equal(np.concatenate([roc_rows(H, D, res.p) for H, D in pairs]),
                          roc_rows(*ref, res.p))
    grid = youden_grid(res.internals["y"])
    for g, want in enumerate(ref):
        assert np.array_equal(np.concatenate([pair[g].cdf(grid) for pair in pairs]),
                              want.cdf(grid))
    for criterion, target in (("yi", None), ("fpf", 0.2)):
        assert (pooled_threshold(res, criterion, target)
                == threshold_result(grid, criterion, target, [(res.internals["plugin"], [ref])]))

    # the replayed blocks hold the int32 count rows of the whole bootstrap, drawn here at the
    # sorted positions, each summing to n, and draw() gives their weights c / n and
    # cumulative weights cumsum(c) / n; each member's areas are its count rows reduced alone
    ranks = [np.argsort(np.argsort(y, kind="stable")) for y in (y_h, y_d)]
    whole = [np.array([np.bincount(r[i], minlength=r.size) for i in col])
             for r, col in zip(ranks, zip(*idx))]
    for g, counts in enumerate(whole):
        assert np.array_equal(np.concatenate([pair[g].draw.args[0] for pair in pairs]), counts)
    one = [placement_areas(placements(h, d)[None], None, ctrl, placements(d, h)[None])]
    n_h, n_d = h.size, d.size
    for H, D in pairs:
        c_h, c_d = H.draw.args[0], D.draw.args[0]
        assert c_h.dtype == c_d.dtype == np.int32
        assert np.all(c_h.sum(axis=1) == n_h) and np.all(c_d.sum(axis=1) == n_d)
        for block, c, n in ((H, c_h, n_h), (D, c_d, n_d)):
            w, cumw = block.draw()
            assert np.array_equal(w, c / n) and np.array_equal(cumw, np.cumsum(c, axis=1) / n)
        for row_h, row_d in zip(c_h, c_d):
            U = placements(h, d, np.cumsum(row_h)[None] / n_h)
            U_rev = placements(d, h, np.cumsum(row_d)[None] / n_d)
            one.append(placement_areas(U, row_d[None] / n_d, ctrl, U_rev, row_h[None] / n_h))
    aucs, paucs = (np.concatenate(col) for col in zip(*one))
    assert res.auc == interval_from(aucs[0], aucs[1:])
    assert res.pauc == PaucSummary.of(interval_from(paucs[0], paucs[1:]), ctrl)

    # the value-row areas: a weighted sum replaces a mean, so only the summation order moves
    rows = [placement_areas(placements(hr, dr)[None], None, ctrl, placements(dr, hr)[None])
            for hr, dr in zip(ref[0].values, ref[1].values)]
    ref_aucs, ref_paucs = (np.concatenate(col) for col in zip(*rows))
    np.testing.assert_allclose(aucs[1:], ref_aucs, rtol=0, atol=1e-14)
    np.testing.assert_allclose(paucs[1:], ref_paucs, rtol=0, atol=1e-14)


def test_bb_fit_memory_does_not_grow_with_full_weight_arrays():
    """S = 3000 draws over 2149 + 691 markers: one (S, n_h) weight array alone
    is 52 MB, and the fit keeps none."""
    g = np.random.default_rng(30)
    s = DiagnosticSample(marker=np.concatenate([g.normal(0, 1, 2149), g.normal(1, 1, 691)]),
                         disease=np.array([0] * 2149 + [1] * 691), nondiseased_tag=0)
    tracemalloc.start()
    try:
        pooled_bb(s, S=3000, pauc=PaucControl(compute=True, focus="tpf", value=0.8), rng=31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_dpm_fit_memory_does_not_grow_with_the_loglik_matrix():
    """S = 2330 draws over 2149 + 691 markers: the healthy group's (S, n_h)
    log-likelihood matrix alone would be 40 MB, and the fit folds it instead."""
    g = np.random.default_rng(32)
    s = DiagnosticSample(marker=np.concatenate([g.normal(0, 1, 2149), g.normal(1, 1, 691)]),
                         disease=np.array([0] * 2149 + [1] * 691), nondiseased_tag=0)
    S = 2330
    tracemalloc.start()
    try:
        res = pooled_dpm(s, prior_h=DpmPrior(L=2), prior_d=DpmPrior(L=2),
                         mcmc=McmcControl(nsave=S, nburn=0), rng=33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S * 2149 * 8
    assert np.isfinite(res.fit.healthy.waic) and res.internals["draws_h"].fold.count == S


def test_dpm_without_standardisation_still_fits():
    s = binormal_sample(n_h=80, n_d=80, shift=1.0, seed=23)
    res = pooled_dpm(s, prior_h=DpmPrior(L=1), prior_d=DpmPrior(L=1),
                     mcmc=McmcControl(nsave=60, nburn=40), rng=24,
                     standardise_marker=False)
    assert np.all(np.diff(res.roc_est) >= -1e-9)
    assert 0.5 < res.auc.est < 1.0


def _kernel_cdf(x, sample, h):
    """The per-member reference: the kernel CDF of one resample, mean of Phi((x - y_i) / h)."""
    return ndtr((np.asarray(x)[..., None] - sample) / h).mean(axis=-1)


def _kernel_inverter_cases():
    """(name, sample) for a plug-in stack, or (name, (sample, index rows)) for count rows."""
    g = np.random.default_rng(11)
    for n in (2, 3, 10, 137, 3000):
        yield "normal-%d" % n, g.normal(size=n) * g.uniform(0.1, 10) + g.normal()
    yield "ties", np.round(g.normal(size=500), 0)
    yield "skew", g.lognormal(0.0, 1.5, size=400)
    base = g.normal(size=300)
    yield "bootstrap", (base, g.integers(0, base.size, (5, base.size)))
    yield "outlier", np.r_[g.normal(size=300), 1e6]


@pytest.mark.parametrize("name,data", list(_kernel_inverter_cases()))
def test_kernel_quantiles_meet_the_stopping_rule_and_are_monotone(name, data):
    """Every quantile meets |F_b(c) - q| <= 1e-8 under the exact kernel CDF of its
    resample, for the plug-in stack and for count-weighted members."""
    data, idx = data if isinstance(data, tuple) else (data, None)
    h = silverman_bandwidth(data).value
    order = np.argsort(data)
    stack = KernelStack(data[order], h, _kernel_grid(data, data, h, h),
                        None if idx is None else _draw_counts(idx)[:, order])
    area = odd_grid(0.0, 1.0, 201)
    q = np.sort(1.0 - area[1:-1])  # every interior point, ends 0.005 and 0.995 included
    c = np.atleast_2d(stack.quantile(q))
    members = [data] if idx is None else data[idx]
    assert c.shape == (len(members), q.size)
    for row, sample in zip(c, members):
        assert np.max(np.abs(_kernel_cdf(row, sample, h) - q)) <= 1e-8
        assert np.all(np.diff(row) >= 0.0)


@pytest.mark.parametrize("name,data", [(name, data) for name, data in _kernel_inverter_cases()
                                       if name in ("normal-2", "normal-3", "normal-137", "ties",
                                                   "skew", "outlier")])
def test_kernel_member_aucs_equal_the_pair_mean_of_each_resample(name, data):
    """The table AUC of each member is mean Phi((y_d - y_h) / sqrt(h_h^2 + h_d^2)) over the
    pairs of its resample, the plug-in and count-weighted members alike."""
    g = np.random.default_rng(12)
    y_h, y_d = data, 1.3 * g.permutation(data) + 0.5
    h_h, h_d = silverman_bandwidth(y_h).value, silverman_bandwidth(y_d).value
    grid = _kernel_grid(y_h, y_d, h_h, h_d)
    idx_h, idx_d = (g.integers(0, y.size, (4, y.size)) for y in (y_h, y_d))
    order_h, order_d = np.argsort(y_h), np.argsort(y_d)
    members = _kernel_auc(*(KernelStack(y[o], h, grid, _draw_counts(i)[:, o])
                            for y, h, i, o in ((y_h, h_h, idx_h, order_h),
                                               (y_d, h_d, idx_d, order_d))))
    plugin = _kernel_auc(KernelStack(np.sort(y_h), h_h, grid), KernelStack(np.sort(y_d), h_d, grid))
    s = np.hypot(h_h, h_d)
    want = [ndtr((yd[None, :] - yh[:, None]) / s).mean()
            for yh, yd in [(y_h, y_d)] + list(zip(y_h[idx_h], y_d[idx_d]))]
    np.testing.assert_allclose(np.concatenate([plugin, members]), want, rtol=0, atol=1e-12)


def test_pooled_kernel_aucs_are_the_closed_form_and_workers_do_not_change_results():
    """pooled_kernel's plug-in AUC is the pair probability, B = 70 spans a full and a partial
    block, and two workers give the same numbers bitwise."""
    s = binormal_sample(n_h=150, n_d=120, shift=1.0, seed=31)
    a, b = (pooled_kernel(s, B=70, rng=32, workers=w, pauc=PaucControl(True, "tpf", 0.6))
            for w in (1, 2))
    y_h, y_d = s.marker[s.disease == 0], s.marker[s.disease == 1]
    h = np.hypot(silverman_bandwidth(y_h).value, silverman_bandwidth(y_d).value)
    assert a.auc.est == pytest.approx(ndtr((y_d[None, :] - y_h[:, None]) / h).mean(), abs=1e-12)
    assert a.ensemble.shape == (70, a.p.size)
    for name in ("roc_est", "roc_lo", "roc_hi", "ensemble"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert (a.auc, a.pauc) == (b.auc, b.pauc)


def test_emp_memory_does_not_grow_with_the_replicates(tmp_path):
    """Emp on the benchmark's study: each block's count rows are drawn, summarised and dropped,
    so B = 2000 peaks within 1.25 times of B = 200; with the counts held (22.7 MB of int32
    rows at B = 2000) it peaked at 3.4 times."""
    s = study_sample(tmp_path)
    peaks = []
    for B in (200, 2000):
        tracemalloc.start()
        try:
            pooled_empirical(s, B=B, pauc=PaucControl(True, "fpf", 0.2), rng=2026)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def _same(a, b) -> bool:
    """Equal result fields: arrays bitwise, dataclasses field by field, everything else by ==."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_block_walks_on_many_threads_equal_one_thread():
    """Four workers on two cores, switching threads every microsecond: the blocks write their
    rows into arrays the walk shares, and every field equals the one-thread fit's."""
    s = covariate_sample(n_h=150, n_d=120, seed=89)
    ctrl = PaucControl(True, "tpf", 0.7)
    fits = [
        lambda w: croc_sp("y ~ x", "y ~ x", s, {"x": [0.3, 0.6]}, est_cdf="empirical",
                          pauc=ctrl, B=300, rng=90, workers=w),
        lambda w: aroc_frequentist(s, formula="y ~ x", variant="sp_empirical", pauc=ctrl, B=300,
                                   rng=90, workers=w),
        lambda w: pooled_empirical(s, pauc=ctrl, B=300, rng=90, workers=w),
    ]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        many = [fit(4) for fit in fits]
    finally:
        sys.setswitchinterval(interval)
    for fit, got in zip(fits, many):
        want = fit(1)
        for name, v in vars(want).items():
            assert name == "internals" or _same(getattr(got, name), v), name
