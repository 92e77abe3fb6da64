"""Every estimator reports under one rule (`summaries.summarise`).

The estimate is the plug-in for the bootstrap fits and the ensemble
mean for the Bayesian ones; bands and intervals are the ensemble's
2.5/97.5 percentiles, and collapse onto the estimate without an
ensemble (B = 0). With one replicate (B = 1) every band is that
replicate's value.
"""

import numpy as np
import pytest

from conftest import binormal_sample, covariate_sample
from rocinfer.adjusted import aroc_frequentist
from rocinfer.conditional import croc_kernel, croc_sp, croc_threshold
from rocinfer.mixtures import McmcControl
from rocinfer.pooled import (
    PaucControl,
    pooled_bb,
    pooled_dpm,
    pooled_empirical,
    pooled_kernel,
    pooled_threshold,
    roc_rows,
    threshold_result,
)
from rocinfer.summaries import youden_grid

NEW = {"x": [0.3, 0.7]}
CRITERIA = [("yi", None), ("fpf", 0.3)]


def _fit(family, method, B, pauc):
    if family == "pooled":
        fit = pooled_empirical if method == "emp" else pooled_kernel
        return fit(binormal_sample(n_h=60, n_d=50, seed=5), pauc=pauc, B=B, rng=3)
    s = covariate_sample(n_h=60, n_d=50, seed=5)
    if family == "croc" and method == "sp":
        return croc_sp("y ~ x", "y ~ x", s, NEW, pauc=pauc, B=B, rng=3)
    if family == "croc":
        return croc_kernel(s, "x", NEW, bw="srt", pauc=pauc, B=B, rng=3)
    if method == "sp":
        return aroc_frequentist(s, formula="y ~ x", pauc=pauc, B=B, rng=3)
    return aroc_frequentist(s, covariate="x", variant="kernel", pauc=pauc, B=B, rng=3)


def _reported(res) -> tuple:
    """The curve as (est, lo, hi), and every area, Youden and p* interval."""
    if hasattr(res, "aroc_est"):
        return (res.aroc_est, res.aroc_lo, res.aroc_hi), [res.aauc, res.pauc, res.yi, res.p_star]
    curve = (res.roc_est, res.roc_lo, res.roc_hi)
    if isinstance(res.auc, list):
        return curve, res.auc + res.pauc
    return curve, [res.auc, res.pauc]


def _thresholds(res, family) -> list:
    """Per criterion, (reported threshold result, the same from the ensemble alone)."""
    if family == "aroc":  # adjusted thresholds need posterior draws
        return []
    if family == "pooled":
        ensemble = res.internals["ensemble"]
        fit = pooled_threshold
    else:
        ensemble = res.internals["stacks"](res.newdata)[0][1]
        fit = croc_threshold
    grid = youden_grid(res.internals["y"])
    return [(fit(res, criterion=c, target_fpf=t),
             ensemble and threshold_result(grid, c, t, [(None, ensemble)])) for c, t in CRITERIA]


def _threshold_intervals(thr) -> list:
    return thr.threshold + thr.fpf + thr.tpf + (thr.yi or [])


@pytest.mark.parametrize("family,method", [
    ("pooled", "emp"), ("pooled", "kernel"), ("croc", "sp"), ("croc", "kernel"),
    ("aroc", "sp"), ("aroc", "kernel"),
])
@pytest.mark.parametrize("focus,value", [("fpf", 0.4), ("tpf", 0.7)])
def test_bands_collapse_without_replicates_and_follow_one_replicate(family, method, focus, value):
    pauc = PaucControl(compute=True, focus=focus, value=value)

    res = _fit(family, method, 0, pauc)
    (est, lo, hi), ivs = _reported(res)
    assert np.array_equal(lo, est) and np.array_equal(hi, est)
    for iv in ivs:
        assert iv.lo == iv.est == iv.hi
    for thr, _ in _thresholds(res, family):
        for iv in _threshold_intervals(thr):
            assert iv.lo == iv.est == iv.hi

    res = _fit(family, method, 1, pauc)
    (est, lo, hi), ivs = _reported(res)
    assert np.array_equal(lo, hi)
    if family == "pooled":
        assert np.array_equal(lo, res.ensemble[0])
    elif family == "croc":
        [(H, D)] = res.internals["stacks"](res.newdata)[0][1]  # one replicate, one block
        assert np.array_equal(lo, roc_rows(H, D, res.p)[0])
    for iv in ivs:
        assert iv.lo == iv.hi
    for thr, replicate in _thresholds(res, family):
        for iv, rep in zip(_threshold_intervals(thr), _threshold_intervals(replicate)):
            assert iv.lo == iv.hi == rep.est


@pytest.mark.parametrize("method", ["bb", "dpm"])
def test_bayesian_estimate_is_the_ensemble_mean(method):
    s = binormal_sample(n_h=60, n_d=50, seed=6)
    if method == "bb":
        res = pooled_bb(s, S=40, rng=4)
    else:
        res = pooled_dpm(s, mcmc=McmcControl(nsave=40, nburn=10), rng=4)
    assert np.array_equal(res.roc_est, res.ensemble.mean(axis=0))
    assert res.auc.lo <= res.auc.est <= res.auc.hi
