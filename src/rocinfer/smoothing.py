"""Gaussian-kernel local polynomial regression and bandwidths.

The location-scale machinery follows a sequential scheme: fit the
regression function first, then fit the variance function on squared
residuals with its own bandwidth. Mean and variance bandwidths are
selected independently by leave-one-out least squares cross-validation
over a fixed candidate grid, which keeps selection deterministic.

Local sums never form an n x n weight matrix. At the data, one block walk
(`_pair_sums`) serves the LSCV scores and the fits alike: the mean fit on y
and the variance fit on squared residuals, of one response, a (b, n) block
of responses on the same x (a bootstrap block's refits) or count rows. It
walks the x-sorted data in blocks of _BLOCK rows and forms each unordered
pair's weight once (w_ij = w_ji): a block's own rows take the row sums over
its window and the window's later rows the column sums. Each block's
distances serve every bandwidth, and each (block, bandwidth) weight tile
sits contiguously at the head of one flat buffer (as a strided view of a
(64, n) buffer its multiply and exp took about 1.6 times as long).

The window's reach follows the bound each case allows:
- responses: R(n) = sqrt(2 ln((n - 1) 2^54)) bandwidths (_scan_reach).
  A row drops at most n - 1 weights, each below 2^-54 / (n - 1), so s0
  moves by less than 2^-54, half an ulp of s0 >= 1 (the point's own
  weight), t0 by less than 2^-54 max|y|, s1 by 2^-54 R h and s2 by
  2^-54 (R h)^2; the scores' s0 - 1 moves by at most one rounding.
- count rows: a point's own count can be 0, so s0 has no floor. The
  window reaches _REACH = 40 bandwidths, past which every weight is
  exactly 0.0, so the sums are the full sums in another order.
Points off the data (newdata, diseased covariates, grids) take
`_kernel_sums`, which weighs blocks of sorted points against the data
within _REACH bandwidths on both sides, its sums exact in the same way.

The local-linear walk forms a block's five moment sums about the
block's centre c (the mid-point of its first and last x) wherever the
block's half-span is at most the bandwidth h: one product
w @ [1, y, u, u y, u^2] over the window's u = x_j - c gives the row
sums, one product [1, y, a, a y, a^2]' @ w over the block's
a = x_i - c the column sums, and s1, t1, s2 in d = a - u follow by the
binomial shifts of `_recentre`. A shift cancels terms of size
(|a| + |u|)^2 against d^2, so it adds about eps (h^2 s0 + s2) to s2
and eps (h s0 + sum w |d|) to s1 once |a| <= h; wider blocks (the
smallest candidates) and blocks of more than one response or count row
keep per-pair d products.
On the benchmark study, centring every candidate moved the smallest
candidates' scores by up to 1e-2 relative; with the switch, every finite
score stays within 2e-15 of the per-pair scan.
"""

from __future__ import annotations

import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    ClampWarning,
    ConfigError,
    DegenerateGridWarning,
    NoLocalDataError,
    TooFewPointsError,
    ZeroVarianceError,
)

_VAR_FLOOR = 1e-10
_BLOCK = 64  # evaluation rows per block of kernel weights
_REACH = 40.0  # in bandwidths; exp(-0.5 * 40**2) = exp(-800) is exactly 0.0
_SCAN_BYTES = 64e6  # accumulator memory past which the scan walks candidates in groups
_GROUP = ContextVar("lscv_group", default="")  # appended to each LSCV warning


def _in_group(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), each LSCV warning it issues ending "(<name> group)"."""
    token = _GROUP.set(" (%s group)" % name)
    try:
        return fn(*args, **kwargs)
    finally:
        _GROUP.reset(token)


@dataclass(frozen=True)
class Bandwidth:
    value: float
    method: str  # "srt" or "lscv"
    at_edge: bool = False  # LSCV picked the first or last candidate

    def __post_init__(self):
        if not (self.value > 0):
            raise ZeroVarianceError("bandwidth must be positive")


def _bw_value(h) -> float:
    return float(h.value) if isinstance(h, Bandwidth) else float(h)


def silverman_bandwidth(y) -> Bandwidth:
    """Rule-of-thumb bandwidth 0.9 * min(SD, IQR/1.34) * n^{-0.2}.

    This is Silverman's normal-reference rule (Density Estimation for
    Statistics and Data Analysis, 1986, eq. 3.31), the same as R's
    ``bw.nrd0``; the IQR divisor is 1.34, not 1.349.

    SD is the n-1 sample standard deviation and the IQR comes from
    type-7 quantiles. A zero IQR (heavy ties) falls back to the SD so
    the bandwidth stays positive.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise TooFewPointsError("need at least two points for a bandwidth")
    sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("sample has zero variance")
    q75, q25 = np.quantile(y, [0.75, 0.25])
    iqr_scale = (q75 - q25) / 1.34
    scale = min(sd, iqr_scale) if iqr_scale > 0 else sd
    return Bandwidth(0.9 * scale * y.size ** (-0.2), "srt")


def _moments(w, d, cols, order, mass=None):
    """Kernel moment sums of one block of rows: the rows s0, t0 and, for order 1, s1, t1, s2.

    w holds the block's weights (overwritten), d its distances x0 - x_j
    and cols the matching data columns [1, y_j], one y column per
    response, so t0 and t1 have one row per response. Under count rows
    the columns are [c_j, c_j y_j] with `mass` count columns first, and
    s0, s1 and s2 get one row per count row too.
    """
    sums = (w @ cols).T
    if order == 0:
        return sums
    w *= d
    s2 = np.einsum("ij,ij->i", w, d)[None] if mass is None else ((w * d) @ cols[:, :mass]).T
    return np.concatenate([sums, (w @ cols).T, s2])


def _columns(x, y, counts):
    """x's stable sort order, its sorted columns [c, c y] (c ones or the count rows), len(c)."""
    by = np.argsort(x, kind="stable")
    c = np.ones((1, x.size)) if counts is None else counts[:, by]
    return by, np.column_stack([c.T, (c * y[..., by]).T]), len(c)


def _split(sums, m, r, order):
    """Rows s0, t0 (and s1, t1, s2) of stacked moment sums over r data columns, m of them c."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    return (sums[:m], sums[m:r], sums[r:r + m], sums[r + m:2 * r], sums[2 * r:])[:2 + 3 * order]


def _kernel_sums(x, y, h, x0, order, counts=None):
    """Gaussian-kernel moment sums at each evaluation point x0, for responses y (n,) or (b, n).

    Returns s0 = sum w_j and the rows t0 = sum w_j y_j, plus
    s1 = sum w_j d_j, the rows t1 = sum w_j d_j y_j and s2 = sum w_j d_j^2
    for order 1, where d_j = x0 - x_j and w_j = exp(-d_j^2 / (2 h^2)):
    t0 and t1 one row per response, the others one row. Count rows
    counts (b, n) weigh point j by c_j in every sum, each of the five
    then having one row per count row: a block of case resamples summed
    under one set of kernel weights.
    """
    by, cols, m = _columns(x, y, counts)
    xs, r, mass = x[by], cols.shape[1], None if counts is None else m
    x0 = np.asarray(x0, dtype=float).ravel()
    rows = np.argsort(x0, kind="stable")
    sums = np.empty((x0.size, r if order == 0 else 2 * r + m))
    for start in range(0, x0.size, _BLOCK):
        idx = rows[start:start + _BLOCK]
        p = x0[idx]
        lo = np.searchsorted(xs, p[0] - _REACH * h, side="left")
        hi = np.searchsorted(xs, p[-1] + _REACH * h, side="right")
        d = p[:, None] - xs[lo:hi]
        sums[idx] = _moments(np.exp(d * d * (-0.5 / (h * h))), d, cols[lo:hi], order, mass).T
    return _split(sums.T, m, r, order)


def _ratio(s0, t0, *rest):
    """The local constant fit t0 / s0, or from order-1 sums the local linear fit."""
    if np.any(s0 <= 1e-300):
        raise NoLocalDataError("no kernel mass at some evaluation points")
    if not rest:
        return t0 / s0
    s1, t1, s2 = rest
    denom = s0 * s2 - s1 * s1
    # a degenerate local design (single support point) reduces to the
    # local constant estimate
    safe = denom > 1e-300 * np.maximum(1.0, s2)
    return np.where(safe, (s2 * t0 - s1 * t1) / np.where(safe, denom, 1.0), t0 / s0)


def local_poly_regression(x, y, h, x0, order: int = 1, counts=None) -> np.ndarray | float:
    """Local constant (order 0) or local linear (order 1) fit at x0.

    y is one response (n,) or a block of responses (b, n) on the same x;
    a block gives one row of fits per response, from one set of weights.
    Count rows counts (b, n) give one row of fits per count row.
    """
    y = np.asarray(y, dtype=float)
    out = _ratio(*_kernel_sums(np.asarray(x, dtype=float), y, _bw_value(h), x0, order, counts))
    out = out.reshape((y if counts is None else counts).shape[:-1] + np.shape(x0))
    return float(out) if out.ndim == 0 else out


def _fit_at_data(x, y, h, order, counts=None) -> np.ndarray:
    """local_poly_regression(x, y, h, x, order, counts) from one walk of `_pair_sums`."""
    by, cols, m = _columns(x, y, counts)
    r, reach = cols.shape[1], _scan_reach(max(x.size, 2)) if counts is None else _REACH
    sums = _pair_sums(x[by], cols, np.array([_bw_value(h)]), order, reach,
                      None if counts is None else m)[0]
    del cols  # before the ratio's temporaries
    fit = _ratio(*_split(sums, m, r, order))
    out = np.empty_like(fit)
    out[:, by] = fit
    return out.reshape((y if counts is None else counts).shape)


def _candidate_grid(scale_sample) -> np.ndarray:
    h0 = silverman_bandwidth(scale_sample).value
    return np.geomspace(h0 / 20.0, 20.0 * h0, 50)


def _scan_reach(n: int) -> float:
    """Half-width of the cross-validation window, in bandwidths, for n points.

    R(n) = sqrt(2 ln((n - 1) 2^54)), so each of a row's at most n - 1
    weights past R h is below exp(-R^2 / 2) = 2^-54 / (n - 1); it is
    raised by 1e-12 relative so that the bound survives rounding.
    """
    return math.sqrt(2.0 * math.log((n - 1) * 2.0 ** 54)) * (1.0 + 1e-12)


def _recentre(m, v):
    """Order-1 moment sums from sums about a centre, in place.

    m holds, per column, [sum w, sum w y, sum w u, sum w u y, sum w u^2]
    (w times c under a count row) over points at u = x - c0 from the centre
    c0, and v the column's own offset x0 - c0. With d = v - u: s1 = v s0 -
    sum w u, t1 = v t0 - sum w u y, s2 = v^2 s0 - 2 v sum w u + sum w u^2.
    """
    m[4] += v * (v * m[0] - 2.0 * m[2])
    m[2:4] = v * m[:2] - m[2:4]
    return m


def _pair_sums(xs, cols, hs, order, reach, mass=None) -> np.ndarray:
    """Moment sums at every data point under each bandwidth in hs, each pair's weight formed once.

    xs is the sorted data and cols its columns from `_columns`, `mass`
    count columns first (one column of ones when None). Returns (hs.size,
    k, n): per bandwidth, the rows of `_kernel_sums` at x0 = xs. Each block
    of _BLOCK rows is weighed against the columns from its first row to
    `reach` bandwidths past its last, the later ones taking the column
    sums with s1 and t1 negated (d_ji = -d_ij). Order 1 on two data
    columns takes the centred products (module docstring) where a block's
    half-span is at most h; other pairs, and wider column sets, whose
    products outweigh the per-pair work on the tile, take the per-pair d
    products of `_moments`.
    """
    n, r = cols.shape
    k = 1 if mass is None else mass
    acc = np.zeros((hs.size, r if order == 0 else 2 * r + k, n))
    scale = -0.5 / (hs * hs)
    buf = np.empty(min(_BLOCK, n) * n)  # each weight tile, laid out contiguously
    for start in range(0, n, _BLOCK):
        end = min(start + _BLOCK, n)
        nb, rows_t = end - start, cols[start:end].T
        hi = np.searchsorted(xs, xs[end - 1] + reach * hs, side="right")
        stop = hi.max()
        d = xs[start:end, None] - xs[start:stop]
        d2 = d * d if hs.size > 1 else None  # the squares all candidates' tiles share
        half = 0.5 * (xs[end - 1] - xs[start]) if order == 1 and r == 2 else np.inf
        if half < np.inf:
            # the window's columns [c, c y, c u, c u y, c u^2] about the block's centre
            u = xs[start:stop] - 0.5 * (xs[start] + xs[end - 1])
            window = cols[start:stop]
            about = np.column_stack([window, u[:, None] * window, u * u * window[:, 0]])
        for a, h in enumerate(hs):
            b, past = hi[a] - start, acc[a, :, end:hi[a]]
            w = buf[:nb * b].reshape(nb, b)
            if d2 is None:
                np.multiply(d[:, :b], d[:, :b], out=w)
                w *= scale[a]
            else:
                np.multiply(d2[:, :b], scale[a], out=w)
            np.exp(w, out=w)
            sums = acc[a, :, start:end]  # the block's rows
            if half <= h:
                sums += _recentre((w @ about[:b]).T, u[:nb])
                past += _recentre(about[:nb].T @ w[:, nb:], u[nb:b])
            else:
                for j in range(0, r, _BLOCK):  # products of at most _BLOCK rows
                    past[j:min(j + _BLOCK, r)] += rows_t[j:j + _BLOCK] @ w[:, nb:]
                sums += _moments(w, d[:, :b], cols[start:hi[a]], order, mass)
                if order == 1:
                    # _moments left w * d in w
                    for j in range(0, r, _BLOCK):
                        past[r + j:r + min(j + _BLOCK, r)] -= rows_t[j:j + _BLOCK] @ w[:, nb:]
                    if mass is None:
                        past[2 * r:] += np.einsum("ij,ij->j", w[:, nb:], d[:, nb:b])
                    else:
                        w[:, nb:] *= d[:, nb:b]
                        past[2 * r:] += rows_t[:k] @ w[:, nb:]
    return acc


def _loo_cv_regression(x, y, candidates, order):
    """Leave-one-out mean squared error of the local fit at each candidate.

    The row sums come from `_pair_sums` (in groups of candidates when all
    50 accumulators would pass _SCAN_BYTES). The i-th point has weight 1,
    so leaving it out takes s0 - 1 and t0 - y_i. A candidate scores inf
    when any row's leave-one-out design fails; squared errors are summed
    per block of _BLOCK rows, in walk order.
    """
    by, cols, _ = _columns(x, y, None)
    xs, ys, n = x[by], cols[:, 1], x.size
    group = max(1, int(_SCAN_BYTES // (8 * (2 if order == 0 else 5) * n)))
    scores = []
    for first in range(0, candidates.size, group):
        hs = candidates[first:first + group]
        sums = _pair_sums(xs, cols, hs, order, _scan_reach(n)).transpose(1, 0, 2)
        if order == 0:
            s0, t0 = sums
            num, denom, floor = t0 - ys, s0 - 1.0, 1e-300
        else:
            s0, t0, s1, t1, s2 = sums
            num = s2 * (t0 - ys) - s1 * t1
            denom, floor = (s0 - 1.0) * s2 - s1 * s1, 1e-300 * np.maximum(1.0, s2)
        low = denom <= floor
        err = (ys - num / np.where(low, 1.0, denom)) ** 2
        sse = np.zeros(hs.size)
        for start in range(0, n, _BLOCK):
            sse += np.sum(err[:, start:start + _BLOCK], axis=1)
        scores.append(np.where(np.any(low, axis=1), np.inf, sse / n))
    return np.concatenate(scores)


def _loo_cv_cdf(y, h, grid, indic):
    """Leave-one-out integrated squared error of the kernel CDF at bandwidth h.

    indic holds the candidate-free indicators (y_i <= grid_k) as floats.
    """
    a = ndtr((grid[None, :] - y[:, None]) / h)
    n = y.size
    f_all = a.mean(axis=0)
    f_loo = (n * f_all[None, :] - a) / (n - 1.0)
    err = (indic - f_loo) ** 2
    return float(np.mean(np.trapezoid(err, grid, axis=1)))


def lscv_bandwidth(x, y, target: str, order: int = 1) -> Bandwidth:
    """Least-squares cross-validated bandwidth.

    target 'regression' smooths y on x (local linear by default),
    'variance' smooths squared residuals on x (local constant), and
    'cdf' smooths the distribution of y (x is ignored). Candidates are
    50 log-spaced values in [h_srt/20, 20*h_srt]; the leave-one-out
    squared error is the normative objective here.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 10:
        raise TooFewPointsError("cross-validation needs n >= 10")
    if target == "cdf":
        candidates = _candidate_grid(y)
        hmax = candidates[-1]
        grid = np.linspace(y.min() - 3 * hmax, y.max() + 3 * hmax, 201)
        indic = (y[:, None] <= grid[None, :]).astype(float)
        scores = np.array([_loo_cv_cdf(y, h, grid, indic) for h in candidates])
        fallback = silverman_bandwidth(y)
    elif target in ("regression", "variance"):
        x = np.asarray(x, dtype=float)
        if x.shape != y.shape:
            raise TooFewPointsError("x and y must have equal length")
        use_order = 0 if target == "variance" else order
        candidates = _candidate_grid(x)
        scores = _loo_cv_regression(x, y, candidates, use_order)
        fallback = silverman_bandwidth(x)
    else:
        raise ValueError("target must be regression, variance, or cdf")
    finite = np.isfinite(scores)
    if not np.any(finite):
        warnings.warn("all LSCV candidates failed; using rule of thumb" + _GROUP.get(),
                      DegenerateGridWarning)
        return Bandwidth(fallback.value, "lscv")
    span = np.nanmax(scores[finite]) - np.nanmin(scores[finite])
    if span <= 1e-14 * max(1.0, abs(float(np.nanmax(scores[finite])))):
        warnings.warn("LSCV objective is flat; using rule of thumb" + _GROUP.get(),
                      DegenerateGridWarning)
        return Bandwidth(fallback.value, "lscv")
    best = int(np.nanargmin(np.where(finite, scores, np.inf)))
    at_edge = best in (0, candidates.size - 1)
    if at_edge:
        # the objective may still fall past the grid
        warnings.warn("LSCV %s bandwidth stopped at the grid edge: h = %g = %g x h_srt%s"
                      % (target, candidates[best], candidates[best] / fallback.value,
                         _GROUP.get()), DegenerateGridWarning)
    return Bandwidth(float(candidates[best]), "lscv", at_edge)


@dataclass(frozen=True)
class LocationScaleFit:
    """Sequential mean/variance kernel fit with standardised residuals.

    A block fit (y of shape (b, n), or count rows `counts`) has one row of each array, and
    of mu, sigma2 and `at`, per response or count row. A count-weighted fit's residual CDFs
    are `ecdf_eval(residuals, t, cumw)`. A one-response fit keeps its mean and variance
    at its own x, which mu, sigma2 and `at` return when given that same array."""

    x: np.ndarray
    y: np.ndarray
    bw_mean: Bandwidth
    bw_var: Bandwidth
    order: int
    sq_resid: np.ndarray  # squared mean-fit residuals, aligned with x
    residuals: np.ndarray  # (y - mu(x)) / sigma(x), sorted ascending
    counts: np.ndarray | None = None  # (b, n) draw counts of a count-weighted block fit
    cumw: np.ndarray | None = None  # cumulative counts / n, aligned with residuals
    fitted: tuple | None = None  # (mu, unclamped sigma2) at x of a one-response fit

    def mu(self, x0):
        if x0 is self.x and self.fitted is not None:
            return self.fitted[0]
        return local_poly_regression(self.x, self.y, self.bw_mean, x0, order=self.order,
                                     counts=self.counts)

    def sigma2(self, x0):
        """Nadaraya-Watson estimate of the variance function, clamped below."""
        est = np.asarray(self.fitted[1] if x0 is self.x and self.fitted is not None else
                         local_poly_regression(self.x, self.sq_resid, self.bw_var, x0, order=0,
                                               counts=self.counts))
        if np.any(est < _VAR_FLOOR):
            warnings.warn("variance estimate clamped at %g" % _VAR_FLOOR, ClampWarning)
            est = np.maximum(est, _VAR_FLOOR)
        return float(est) if est.ndim == 0 else est

    def at(self, x0):
        """(mu(x0), sqrt(sigma2(x0))) as arrays: the fit's location and scale."""
        return (np.asarray(self.mu(x0), dtype=float),
                np.sqrt(np.asarray(self.sigma2(x0), dtype=float)))


def fit_location_scale(x, y, order: int = 1, bw_mean: Bandwidth | None = None,
                       bw_var: Bandwidth | None = None, counts=None) -> LocationScaleFit:
    """Fit mu then sigma^2 (on squared residuals), both bandwidths by LSCV.

    Pre-selected bandwidths may be passed in (bootstrap replicates keep
    the original fit's bandwidths). y is one response (n,) or, with both
    bandwidths given, a block of responses (b, n) on the same x, fitted
    together as one block fit. Count rows counts (b, n), with both
    bandwidths, fit the case resamples that repeat point j c_kj times.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if bw_mean is None:
        bw_mean = lscv_bandwidth(x, y, "regression", order=order)
    mu_hat = _fit_at_data(x, y, bw_mean, order, counts)
    sq = (y - mu_hat) ** 2
    if bw_var is None:
        bw_var = lscv_bandwidth(x, sq, "variance")
    var_hat = _fit_at_data(x, sq, bw_var, 0, counts)
    resid, cumw = (y - mu_hat) / np.sqrt(np.maximum(var_hat, _VAR_FLOOR)), None
    if counts is None:
        resid = np.sort(resid)
    else:
        by = np.argsort(resid, axis=-1, kind="stable")
        resid = np.take_along_axis(resid, by, axis=-1)
        cumw = np.cumsum(np.take_along_axis(counts, by, axis=-1), axis=-1) / x.size
    return LocationScaleFit(x=x, y=y, bw_mean=bw_mean, bw_var=bw_var, order=order, sq_resid=sq,
                            residuals=resid, counts=counts, cumw=cumw,
                            fitted=(mu_hat, var_hat) if y.ndim == 1 and counts is None else None)


def fit_by_rule(x, y, bw: str, group: str) -> LocationScaleFit:
    """One group's plug-in fit under a bandwidth rule, its LSCV warnings naming the group.

    'lscv' selects the mean and variance bandwidths by LSCV; 'srt' uses
    the covariate's Silverman bandwidth for both.
    """
    bw = bw.lower()
    if bw not in ("lscv", "srt"):
        raise ConfigError("bw must be 'lscv' or 'srt'")
    h = silverman_bandwidth(x) if bw == "srt" else None
    return _in_group(group, fit_location_scale, x, y, bw_mean=h, bw_var=h)


def bandwidth_block(fits: dict) -> dict:
    """The payload's `bandwidths` block of plug-in fits {group name: LocationScaleFit}.

    Each group gives its mean and variance h; under the 'lscv' rule it
    also says whether each scan stopped at a grid edge.
    """
    rule = next(iter(fits.values())).bw_mean.method
    block = {"rule": rule}
    for name, fit in fits.items():
        block[name] = {"mean": fit.bw_mean.value, "variance": fit.bw_var.value}
        if rule == "lscv":
            block[name].update(mean_at_edge=fit.bw_mean.at_edge,
                               variance_at_edge=fit.bw_var.at_edge)
    return block
