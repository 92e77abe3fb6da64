"""Quadrature, CDF inversion, and AUC/partial-AUC/Youden machinery.

These primitives are shared by every estimator front-end. Conventions
that the estimators rely on:

- empirical CDFs are right-continuous with the inf-type inverse
  F^{-1}(q) = inf{y : F(y) >= q};
- ROC curves evaluate to 0 at p=0 and 1 at p=1, TNF curves to 1 at p=0
  and 0 at p=1 (the analytic limits, applied exactly);
- Youden scans use a shared 500-point threshold grid padded by one
  Silverman bandwidth, ties broken by the smallest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import BadGridError, BracketFailError


def simpson(values, spacing: float) -> np.ndarray | float:
    """Composite Simpson rule on a uniform grid (odd point count >= 3).

    Integrates the last axis; exact for cubics.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    if m < 3 or m % 2 == 0:
        raise BadGridError("Simpson needs an odd number of points >= 3, got %d" % m)
    if spacing <= 0:
        raise BadGridError("spacing must be positive")
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    out = values @ w * (spacing / 3.0)
    return float(out) if out.ndim == 0 else out


def _sorted_with_cumweights(y, weights=None):
    y = np.asarray(y, dtype=float)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    if weights is None:
        w = np.full(y.size, 1.0 / y.size)
    else:
        w = np.asarray(weights, dtype=float)[order]
        w = w / w.sum()
    cw = np.concatenate([[0.0], np.cumsum(w)])
    return ys, cw


def mw_auc(y_h, y_d, weights_h=None, weights_d=None) -> float:
    """Mann-Whitney AUC with ties counted one half, optionally weighted."""
    hs, cwh = _sorted_with_cumweights(y_h, weights_h)
    y_d = np.asarray(y_d, dtype=float)
    if weights_d is None:
        wd = np.full(y_d.size, 1.0 / y_d.size)
    else:
        wd = np.asarray(weights_d, dtype=float)
        wd = wd / wd.sum()
    below = cwh[np.searchsorted(hs, y_d, side="left")]
    upto = cwh[np.searchsorted(hs, y_d, side="right")]
    return float(np.sum(wd * (below + 0.5 * (upto - below))))


def mixture_auc_closed(w_h, mu_h, sd_h, w_d, mu_d, sd_d) -> np.ndarray | float:
    """Closed-form AUC between two normal mixtures.

    Accepts single mixtures (vectors) or batches (draw-by-component
    matrices); returns a scalar or a per-draw vector.
    """
    w_h, mu_h, sd_h, w_d, mu_d, sd_d = (
        np.atleast_2d(np.asarray(a, dtype=float)) for a in (w_h, mu_h, sd_h, w_d, mu_d, sd_d)
    )
    b = (mu_d[:, None, :] - mu_h[:, :, None]) / sd_d[:, None, :]
    a = sd_h[:, :, None] / sd_d[:, None, :]
    cell = ndtr(b / np.sqrt(1.0 + a * a))
    out = np.einsum("sk,sl,skl->s", w_h, w_d, cell)
    return float(out[0]) if out.size == 1 else out


def invert_cdf(cdf, q, lo: float, hi: float):
    """Invert a monotone CDF by bisection.

    Stops when |F(c) - q| <= 1e-8 or the bracket width falls below
    1e-10 (absolute, after scaling by the bracket size). cdf must accept
    arrays when q is an array.
    """
    q_arr = np.asarray(q, dtype=float)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), q_arr.shape).astype(float).copy()
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), q_arr.shape).astype(float).copy()
    f_lo = np.asarray(cdf(lo_arr), dtype=float)
    f_hi = np.asarray(cdf(hi_arr), dtype=float)
    bad = (f_lo - q_arr > 1e-8) | (f_hi - q_arr < -1e-8)
    if np.any(bad):
        raise BracketFailError(
            "bracket does not straddle the target quantile (q=%r)" % q_arr[bad][:3]
        )
    width_floor = 1e-10 * max(1.0, float(np.max(np.abs(hi_arr - lo_arr))))
    for _ in range(200):
        mid = 0.5 * (lo_arr + hi_arr)
        f_mid = np.asarray(cdf(mid), dtype=float)
        go_right = f_mid < q_arr
        lo_arr = np.where(go_right, mid, lo_arr)
        hi_arr = np.where(go_right, hi_arr, mid)
        if np.all((np.abs(f_mid - q_arr) <= 1e-8) | (hi_arr - lo_arr <= width_floor)):
            break
    out = 0.5 * (lo_arr + hi_arr)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class YoudenPoint:
    yi: float
    threshold: float
    sign: int
    fpf: float
    tpf: float


def youden_grid(y_all, n_points: int = 500) -> np.ndarray:
    """Shared threshold grid: marker range padded by one Silverman bandwidth."""
    from .smoothing import silverman_bandwidth

    y_all = np.asarray(y_all, dtype=float)
    try:
        h = silverman_bandwidth(y_all).value
    except Exception:
        h = 1.0 if np.ptp(y_all) == 0 else 0.05 * np.ptp(y_all)
    return np.linspace(y_all.min() - h, y_all.max() + h, int(n_points))


def youden(cdf_h, cdf_d, grid) -> YoudenPoint:
    """Maximise |F_H(c) - F_D(c)| over the grid; smallest c wins ties."""
    grid = np.asarray(grid, dtype=float)
    fh = np.asarray(cdf_h(grid), dtype=float)
    fd = np.asarray(cdf_d(grid), dtype=float)
    diff = fh - fd
    k = int(np.argmax(np.abs(diff)))  # argmax returns the first maximiser
    return YoudenPoint(
        yi=float(abs(diff[k])),
        threshold=float(grid[k]),
        sign=int(np.sign(diff[k])) if diff[k] != 0 else 0,
        fpf=float(1.0 - fh[k]),
        tpf=float(1.0 - fd[k]),
    )


def youden_rows(fh_rows: np.ndarray, fd_rows: np.ndarray, grid: np.ndarray):
    """Row-wise Youden scan over an ensemble of CDF evaluations.

    fh_rows/fd_rows hold F_H(grid) and F_D(grid) per ensemble member.
    Returns (yi, threshold, fpf, tpf, sign) vectors.
    """
    diff = fh_rows - fd_rows
    k = np.argmax(np.abs(diff), axis=1)
    rows = np.arange(diff.shape[0])
    dk = diff[rows, k]
    return (
        np.abs(dk),
        np.asarray(grid, dtype=float)[k],
        1.0 - fh_rows[rows, k],
        1.0 - fd_rows[rows, k],
        np.sign(dk).astype(int),
    )


def pauc_normalise(raw: float, focus: str, bound: float) -> float:
    """Normalise a raw partial area: /u1 for FPF focus, /(1-v1) for TPF."""
    if focus.lower() == "fpf":
        return raw / bound
    if focus.lower() == "tpf":
        return raw / (1.0 - bound) if bound < 1.0 else raw
    raise BadGridError("pauc focus must be 'fpf' or 'tpf', got %r" % focus)


def odd_grid(lo: float, hi: float, n: int = 201) -> np.ndarray:
    """Uniform grid with an odd point count (Simpson-ready)."""
    n = int(n)
    if n % 2 == 0:
        n += 1
    return np.linspace(lo, hi, n)


def band(values: np.ndarray, axis: int = 0):
    """2.5/97.5 percentile band along an axis."""
    lo = np.percentile(values, 2.5, axis=axis)
    hi = np.percentile(values, 97.5, axis=axis)
    return lo, hi


@dataclass(frozen=True)
class Interval:
    est: float
    lo: float
    hi: float

    def as_dict(self) -> dict:
        return {"est": self.est, "lo": self.lo, "hi": self.hi}


def interval_from(point: float, draws=None) -> Interval:
    if draws is None or len(draws) == 0:
        return Interval(float(point), float(point), float(point))
    lo, hi = band(np.asarray(draws, dtype=float))
    return Interval(float(point), float(lo), float(hi))


@dataclass(frozen=True)
class ThresholdResult:
    """Optimal thresholds with intervals, plus attached FPF/TPF (and YI)."""

    criterion: str  # "yi" or "fpf"
    threshold: list  # Interval per covariate row (one entry when pooled)
    fpf: list
    tpf: list
    yi: list | None = None
    sign: list | None = None
    target_fpf: float | None = None


# -- step-function (empirical / weighted-empirical) machinery ----------------

def ecdf_eval(sorted_y: np.ndarray, x) -> np.ndarray | float:
    """Right-continuous empirical CDF from an ascending sample."""
    n = sorted_y.size
    out = np.searchsorted(sorted_y, np.asarray(x, dtype=float), side="right") / n
    return float(out) if np.isscalar(x) else out


def ecdf_quantile(sorted_y: np.ndarray, q) -> np.ndarray | float:
    """inf{y: F(y) >= q}; q <= 1/n gives the smallest order statistic.

    sorted_y may hold one ascending sample of equal size per row.
    """
    n = sorted_y.shape[-1]
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    idx = np.ceil(q_arr * n - 1e-9).astype(int) - 1
    idx = np.clip(idx, 0, n - 1)
    out = sorted_y[..., idx]
    return float(out[0]) if np.isscalar(q) or np.asarray(q).ndim == 0 else out


def weighted_ecdf_eval(sorted_y: np.ndarray, cumw: np.ndarray, x) -> np.ndarray | float:
    """F(x) = total weight of sample values <= x; cumw aligns with sorted_y.

    cumw may hold one row of cumulative weights per member (M, n); x is
    then shared by all members (1-d) or holds one row per member.
    """
    idx = np.searchsorted(sorted_y, np.asarray(x, dtype=float), side="right")
    padded = np.concatenate([np.zeros(cumw.shape[:-1] + (1,)), cumw], axis=-1)
    out = np.take_along_axis(padded, idx, axis=-1) if idx.ndim == padded.ndim == 2 else padded[..., idx]
    return float(out) if np.isscalar(x) else out


def weighted_ecdf_quantile(sorted_y: np.ndarray, cumw: np.ndarray, q) -> np.ndarray | float:
    """inf{y: F(y) >= q} for a weighted step CDF."""
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    idx = np.searchsorted(cumw, q_arr - 1e-12, side="left")
    idx = np.clip(idx, 0, sorted_y.size - 1)
    out = sorted_y[idx]
    return float(out[0]) if np.isscalar(q) or np.asarray(q).ndim == 0 else out


def placements_half(ref_sorted: np.ndarray, query) -> np.ndarray:
    """U(y) = P_ref(Y > y) + 0.5 P_ref(Y = y), the tie-halved placement.

    1 - mean(U over a sample) reproduces the Mann-Whitney AUC exactly.
    """
    y = np.asarray(query, dtype=float)
    n = ref_sorted.size
    left = np.searchsorted(ref_sorted, y, side="left")
    right = np.searchsorted(ref_sorted, y, side="right")
    return (n - 0.5 * (left + right)) / n


def pauc_from_placements(U, weights, focus: str, bound: float) -> float:
    """Raw partial area from placement values via the closed forms.

    FPF focus: u1 - sum(w * min(u1, U_D)) with diseased-in-healthy
    placements. TPF focus: sum(w * max(U_H - v1, 0)) with reversed
    (healthy-in-diseased) placements, exactly 0 on the empty range
    v1 = 1. Normalise separately.
    """
    U = np.asarray(U, dtype=float)
    if weights is None:
        weights = np.full(U.size, 1.0 / U.size)
    w = np.asarray(weights, dtype=float)
    if focus.lower() == "fpf":
        return float(bound - np.sum(w * np.minimum(bound, U)))
    if focus.lower() == "tpf":
        return float(np.sum(w * np.maximum(U - bound, 0.0)))
    raise BadGridError("pauc focus must be 'fpf' or 'tpf', got %r" % focus)
