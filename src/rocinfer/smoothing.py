"""Gaussian-kernel local polynomial regression and bandwidths.

The location-scale machinery follows a sequential scheme: fit the
regression function first, then fit the variance function on squared
residuals with its own bandwidth. Mean and variance bandwidths are
selected independently by leave-one-out least squares cross-validation
over a fixed candidate grid, which keeps selection deterministic.

Local fits never form an n x n weight matrix. They walk the x-sorted
evaluation points in blocks of _BLOCK rows and weigh each block only
against the sorted data within _REACH bandwidths of it (found by
`searchsorted`); every weight outside that window underflows to exactly
0.0, so the sums are the full sums taken in another order. A block of
responses (b, n) on the same x (a bootstrap block's refits) is fitted
in the same pass: each block of weights multiplies all b response
columns at once, and every response row gets the sums of its own fit.

The cross-validation scan walks the x-sorted data in the same blocks,
but its window reaches R(n) = sqrt(2 ln((n - 1) 2^54)) bandwidths
(_scan_reach): the at most n - 1 weights it drops from a row sum to less
than 2^-54, half an ulp of s0 >= 1, so the s0 - 1 each score divides by
moves by at most one rounding. It also forms each unordered pair's
weight once (w_ij = w_ji): a block is weighed against the columns from
its first row to its window's end, its own rows take the row sums and
the later rows the column sums. Each block's distances are computed
once for all 50 candidates. Each (block, candidate) weight tile is laid
out contiguously at the head of one flat buffer: as a strided view of a
(64, n) buffer its multiply and exp took about 1.6 times as long per
element, and the products that read it took a leading dimension of n.

The local-linear scan forms a block's five moment sums about the
block's centre c (the mid-point of its first and last x) wherever the
block's half-span is at most the candidate's h: one product
w @ [1, y, u, u y, u^2] over the window's u = x_j - c gives the row
sums, one product [1, y, a, a y, a^2]' @ w over the block's
a = x_i - c the column sums, and s1, t1, s2 in d = a - u follow by the
binomial shifts of `_recentre`. A shift cancels terms of size
(|a| + |u|)^2 against d^2, so it adds about eps (h^2 s0 + s2) to s2
and eps (h s0 + sum w |d|) to s1 once |a| <= h; wider blocks (the
smallest candidates, whose windows are narrow) keep per-pair d products.
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
    xs_order = np.argsort(x, kind="stable")
    xs = x[xs_order]
    c = np.ones((1, x.size)) if counts is None else counts[:, xs_order]
    cols = np.column_stack([c.T, (c * y[..., xs_order]).T])
    m, r, mass = len(c), cols.shape[1], None if counts is None else len(c)
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
    sums = sums.T
    return (sums[:m], sums[m:r], sums[r:r + m], sums[r + m:2 * r], sums[2 * r:])[:2 + 3 * order]


def local_poly_regression(x, y, h, x0, order: int = 1, counts=None) -> np.ndarray | float:
    """Local constant (order 0) or local linear (order 1) fit at x0.

    y is one response (n,) or a block of responses (b, n) on the same x;
    a block gives one row of fits per response, from one set of weights.
    Count rows counts (b, n) give one row of fits per count row.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    y = np.asarray(y, dtype=float)
    s0, t0, *rest = _kernel_sums(np.asarray(x, dtype=float), y, _bw_value(h), x0, order, counts)
    if np.any(s0 <= 1e-300):
        raise NoLocalDataError("no kernel mass at some evaluation points")
    if order == 0:
        out = t0 / s0
    else:
        s1, t1, s2 = rest
        denom = s0 * s2 - s1 * s1
        # a degenerate local design (single support point) reduces to the
        # local constant estimate
        safe = denom > 1e-300 * np.maximum(1.0, s2)
        out = np.where(safe, (s2 * t0 - s1 * t1) / np.where(safe, denom, 1.0), t0 / s0)
    out = out.reshape((y if counts is None else counts).shape[:-1] + np.shape(x0))
    return float(out) if out.ndim == 0 else out


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
    over points at u = x - c from the centre c, and v the column's own
    offset x0 - c. With d = x0 - x = v - u, s1 = v s0 - sum w u,
    t1 = v t0 - sum w u y and s2 = v^2 s0 - 2 v sum w u + sum w u^2.
    """
    m[4] += v * (v * m[0] - 2.0 * m[2])
    m[2:4] = v * m[:2] - m[2:4]
    return m


def _loo_cv_regression(x, y, candidates, order):
    """Leave-one-out mean squared error of the local fit at each candidate.

    One pass over the x-sorted data in blocks of _BLOCK rows (one pass
    per group of candidates, when all 50 accumulators would pass
    _SCAN_BYTES). Each block's distances are computed once for the
    group, and each candidate's weights are formed once per unordered
    pair, against the columns from the block's first row to
    _scan_reach(n) bandwidths past its last: the block's rows take the
    row sums, and the later rows in the window take the column sums into
    per-candidate accumulators, with s1 and t1 negated (d_ji = -d_ij). A
    block's rows are complete once the block is done, since every earlier
    column within reach was added by an earlier block. The weights left
    out of a row sum add up to less than 2^-54. The i-th point sits at
    distance zero with weight 1, so dropping it only touches the
    zeroth-order sums. A candidate scores inf when any row's
    leave-one-out design fails; each block's rows are scored under all
    live candidates at once.

    For order 1, a (block, candidate) pair whose block half-span is at
    most h takes the five sums from two products about the block's
    centre (see the module docstring), each extra rounding then below
    about eps (h^2 s0 + s2) in s2; other pairs form the per-pair d
    products of `_moments`. Which path a pair takes depends only on the
    data and h, never on the candidate groups.
    """
    xs_order = np.argsort(x, kind="stable")
    xs, ys = x[xs_order], y[xs_order]
    n = xs.size
    cols = np.column_stack([np.ones(n), ys])
    reach = _scan_reach(n) * candidates
    scale = -0.5 / (candidates * candidates)
    sse = np.zeros(candidates.size)
    failed = np.zeros(candidates.size, dtype=bool)
    buf = np.empty(min(_BLOCK, n) * n)  # each weight tile, laid out contiguously
    k = 2 if order == 0 else 5
    group = max(1, int(_SCAN_BYTES // (8 * k * n)))
    for first in range(0, candidates.size, group):
        cands = range(first, min(first + group, candidates.size))
        acc = np.zeros((len(cands), k, n))  # each row's sums over earlier blocks
        for start in range(0, n, _BLOCK):
            end = min(start + _BLOCK, n)
            r, yr, rows_t = xs[start:end], ys[start:end], cols[start:end].T
            hi = np.searchsorted(xs, r[-1] + reach[first:cands.stop], side="right")
            stop = hi.max()
            d = r[:, None] - xs[start:stop]
            d2 = d * d
            if order == 1:
                # the window's columns [1, y, u, u y, u^2] about the block's centre
                u = xs[start:stop] - 0.5 * (r[0] + r[-1])
                about = np.column_stack([cols[start:stop], u, u * ys[start:stop], u * u])
                half = 0.5 * (r[-1] - r[0])
            for a, c in enumerate(cands):
                if failed[c]:
                    continue
                h, b, past = candidates[c], hi[a] - start, acc[a, :, end:hi[a]]
                w = buf[:r.size * b].reshape(r.size, b)
                np.multiply(d2[:, :b], scale[c], out=w)
                np.exp(w, out=w)
                sums = acc[a, :, start:end]  # the block's rows
                if order == 1 and half <= h:
                    sums += _recentre((w @ about[:b]).T, u[:r.size])
                    past += _recentre(about[:r.size].T @ w[:, r.size:], u[r.size:b])
                else:
                    past[:2] += rows_t @ w[:, r.size:]
                    sums += _moments(w, d[:, :b], cols[start:hi[a]], order)
                    if order == 1:
                        # _moments left w * d in w
                        past[2:4] -= rows_t @ w[:, r.size:]
                        past[4] += np.einsum("ij,ij->j", w[:, r.size:], d[:, r.size:b])
            # score the block's rows under every live candidate at once
            live = np.flatnonzero(~failed[first:cands.stop])
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
            failed[first + live[bad]] = True
            err = (yr - num / np.where(low, 1.0, denom)) ** 2
            sse[first + live[~bad]] += np.sum(err[~bad], axis=1)
    return np.where(failed, np.inf, sse / n)


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
    are `ecdf_eval(residuals, t, cumw)`."""

    x: np.ndarray
    y: np.ndarray
    bw_mean: Bandwidth
    bw_var: Bandwidth
    order: int
    sq_resid: np.ndarray  # squared mean-fit residuals, aligned with x
    residuals: np.ndarray  # (y - mu(x)) / sigma(x), sorted ascending
    counts: np.ndarray | None = None  # (b, n) draw counts of a count-weighted block fit
    cumw: np.ndarray | None = None  # cumulative counts / n, aligned with residuals

    def mu(self, x0):
        return local_poly_regression(self.x, self.y, self.bw_mean, x0, order=self.order,
                                     counts=self.counts)

    def sigma2(self, x0):
        """Nadaraya-Watson estimate of the variance function, clamped below."""
        est = np.asarray(local_poly_regression(self.x, self.sq_resid, self.bw_var, x0, order=0,
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
    mu_hat = local_poly_regression(x, y, bw_mean, x, order=order, counts=counts)
    sq = (y - mu_hat) ** 2
    if bw_var is None:
        bw_var = lscv_bandwidth(x, sq, "variance")
    var_hat = np.maximum(
        np.asarray(local_poly_regression(x, sq, bw_var, x, order=0, counts=counts), dtype=float),
        _VAR_FLOOR,
    )
    resid, cumw = (y - mu_hat) / np.sqrt(var_hat), None
    if counts is None:
        resid = np.sort(resid)
    else:
        by = np.argsort(resid, axis=-1, kind="stable")
        resid = np.take_along_axis(resid, by, axis=-1)
        cumw = np.cumsum(np.take_along_axis(counts, by, axis=-1), axis=-1) / x.size
    return LocationScaleFit(x=x, y=y, bw_mean=bw_mean, bw_var=bw_var, order=order, sq_resid=sq,
                            residuals=resid, counts=counts, cumw=cumw)


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
