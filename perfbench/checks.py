"""Output checks for one analysis: envelope JSON, curves CSV and areas.

Each check returns a list of problems; an empty list means the analysis
passed. A problem counts the analysis as failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Pooled AUCs of the smoothed and Bayesian estimators must lie this close
# to the Mann-Whitney AUC of the same data; `emp` must equal it up to
# floating-point summation order. On n = 2840 the kernel AUC sits about
# 0.006 below it (smoothing) and bb and dpm within 0.0025 of it, so bb
# and dpm need a few hundred and a few dozen draws to pass.
MW_TOL = {"emp": 1e-12, "bb": 0.005, "kernel": 0.015, "dpm": 0.01}
_EPS = 1e-9  # slack for curve bounds, monotonicity and lo <= est <= hi

# lo <= est <= hi is checked only where it must hold. It does for the
# posterior-mean areas (bb, dpm, bnp) and the posterior-mean curves of
# smooth mixtures (pooled dpm, croc bnp). The mean of step-curve draws
# (bb, aroc bnp) can sit above the 97.5% point just past a jump, and the
# bootstrap methods report the plug-in estimate, which a percentile band
# of B replicates need not contain. lo <= hi is checked everywhere.
_MEAN_AREAS = ("bb", "dpm", "bnp")
_MEAN_CURVES = (("pooled", "dpm"), ("croc", "bnp"))


def mann_whitney_auc(healthy, diseased) -> float:
    """P(D > H) + P(D = H)/2, from sorted healthy values."""
    h = np.sort(np.asarray(healthy, dtype=float))
    d = np.asarray(diseased, dtype=float)
    below = np.searchsorted(h, d, side="left")
    upto = np.searchsorted(h, d, side="right")
    return float(np.sum(below + 0.5 * (upto - below)) / (h.size * d.size))


def _nulls(x, path="payload"):
    if x is None:
        yield path
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _nulls(v, "%s.%s" % (path, k))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _nulls(v, "%s[%d]" % (path, i))


def _interval(iv, label, inside, lo_bound=0.0, hi_bound=1.0) -> list:
    vals = [iv.get(k) for k in ("est", "lo", "hi")]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
        return ["%s is not a finite interval: %r" % (label, iv)]
    est, lo, hi = vals
    if min(vals) < lo_bound - _EPS or max(vals) > hi_bound + _EPS:
        return ["%s leaves [%g, %g]: %r" % (label, lo_bound, hi_bound, iv)]
    if lo > hi + _EPS or (inside and not lo - _EPS <= est <= hi + _EPS):
        return ["%s breaks lo <= est <= hi: %r" % (label, iv)]
    return []


def _curves(p, est, lo, hi, label, inside) -> list:
    """est/lo/hi are (rows, len(p)) arrays."""
    problems = []
    for name, c in (("est", est), ("lo", lo), ("hi", hi)):
        if c.shape[-1] != p.size or not np.all(np.isfinite(c)):
            return ["%s %s is not a finite curve on the grid" % (label, name)]
        if np.any(c < -_EPS) or np.any(c > 1 + _EPS):
            problems.append("%s %s leaves [0, 1]" % (label, name))
        if np.any(np.diff(c, axis=-1) < -_EPS):
            problems.append("%s %s decreases in p" % (label, name))
        if np.any(np.abs(c[:, 0]) > _EPS) or np.any(np.abs(c[:, -1] - 1) > _EPS):
            problems.append("%s %s endpoints are not 0 and 1" % (label, name))
    if np.any(lo > hi + _EPS) or (inside and (np.any(lo > est + _EPS) or np.any(est > hi + _EPS))):
        problems.append("%s breaks lo <= est <= hi" % label)
    return problems


def _read_curves_csv(path, rows, width) -> np.ndarray:
    """(4, rows, width) array of p, est, lo, hi from the tidy CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "row,p,est,lo,hi" or data.shape != (rows * width, 5):
        raise ValueError("curves CSV has header %r and shape %s" % (header, data.shape))
    if not np.array_equal(data[:, 0], np.repeat(np.arange(rows), width)):
        raise ValueError("curves CSV rows are out of order")
    return data[:, 1:].T.reshape(4, rows, width)


def check_analysis(cfg, mw_auc: float) -> list:
    """Check the envelope (and curves CSV) one `cli.run` call wrote."""
    try:
        with open(cfg.out, encoding="utf-8") as fh:
            env = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["envelope unreadable: %s" % exc]
    payload = env.get("payload")
    if not isinstance(payload, dict):
        return ["envelope has no payload"]
    problems = ["null at %s" % path for path in list(_nulls(payload))[:5]]
    if problems:
        return problems
    method = cfg.resolved_method()
    inside = method in _MEAN_AREAS

    if cfg.subcommand == "threshold":
        n_rows = len(payload.get("newdata", {}).get("age", []))
        for key in ("threshold", "fpf", "tpf", "yi"):
            ivs = payload.get(key)
            if not isinstance(ivs, list) or len(ivs) != n_rows or not n_rows:
                problems.append("threshold %s has %s entries for %d rows"
                                % (key, len(ivs) if isinstance(ivs, list) else None, n_rows))
                continue
            bounds = (-math.inf, math.inf) if key == "threshold" else (0.0, 1.0)
            for r, iv in enumerate(ivs):
                problems += _interval(iv, "%s[%d]" % (key, r), inside, *bounds)
        return problems

    p = np.asarray(payload["p"], dtype=float)
    est = np.atleast_2d(np.asarray(payload["roc"]["est"], dtype=float))
    lo = np.atleast_2d(np.asarray(payload["roc"]["lo"], dtype=float))
    hi = np.atleast_2d(np.asarray(payload["roc"]["hi"], dtype=float))
    if p.ndim != 1 or p[0] != 0.0 or p[-1] != 1.0 or np.any(np.diff(p) <= 0):
        problems.append("FPF grid is not increasing from 0 to 1")
    problems += _curves(p, est, lo, hi, "roc", (cfg.family(), method) in _MEAN_CURVES)

    if cfg.curves_csv:
        try:
            csv = _read_curves_csv(cfg.curves_csv, est.shape[0], p.size)
        except (OSError, ValueError) as exc:
            problems.append("curves CSV unreadable: %s" % exc)
        else:
            ref = np.stack([np.broadcast_to(p, est.shape), est, lo, hi])
            if not np.allclose(csv, ref, rtol=1e-8, atol=1e-12):
                problems.append("curves CSV disagrees with the envelope")

    area_key = "aauc" if cfg.subcommand == "aroc" else "auc"
    areas = payload.get(area_key)
    areas = areas if isinstance(areas, list) else [areas]
    if cfg.subcommand == "croc" and len(areas) != est.shape[0]:
        problems.append("%d AUC rows for %d curves" % (len(areas), est.shape[0]))
    for r, iv in enumerate(areas):
        problems += _interval(iv or {}, "%s[%d]" % (area_key, r), inside)
    pauc = payload.get("pauc")
    if cfg.pauc and not pauc:
        problems.append("pAUC requested but missing")
    for r, iv in enumerate(pauc if isinstance(pauc, list) else [pauc] if pauc else []):
        problems += _interval(iv, "pauc[%d]" % r, inside)

    if cfg.subcommand == "pooled" and not problems:
        gap = abs(areas[0]["est"] - mw_auc)
        if gap > MW_TOL[method]:
            problems.append("pooled %s AUC %.6f is %.2g from the Mann-Whitney AUC %.6f"
                            % (method, areas[0]["est"], gap, mw_auc))
    return problems
