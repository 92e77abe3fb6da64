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

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import BadGridError, BracketFailError, TooFewPointsError, ZeroVarianceError


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


def mw_auc(y_h, y_d, weights_h=None, weights_d=None) -> float:
    """Mann-Whitney AUC with ties counted one half, optionally weighted."""
    y_h = np.asarray(y_h, dtype=float)
    order = np.argsort(y_h, kind="stable")
    wh, wd = (None if w is None else np.asarray(w, dtype=float)[None, :] / np.sum(w)
              for w in (weights_h, weights_d))
    U = placements(y_h[order], y_d, None if wh is None else np.cumsum(wh[:, order], axis=1))
    return float(placement_areas(U.reshape(1, -1), wd)[0][0])


def mixture_auc_closed(w_h, mu_h, sd_h, w_d, mu_d, sd_d) -> np.ndarray:
    """Closed-form AUC between two normal mixtures per draw of (S, L) arrays, by blocks: (S,)."""
    from .mixtures import _draw_blocks  # mixtures imports this module
    out = np.empty(w_h.shape[0])
    for s in _draw_blocks(w_h.shape[0], w_h.shape[1] * w_d.shape[1]):
        b = (mu_d[s, None, :] - mu_h[s, :, None]) / sd_d[s, None, :]
        a = sd_h[s, :, None] / sd_d[s, None, :]
        out[s] = np.einsum("sk,sl,skl->s", w_h[s], w_d[s], ndtr(b / np.sqrt(1.0 + a * a)))
    return out


def invert_cdf(cdf, q, lo, hi, pdf=None, start=None):
    """Invert a monotone CDF by safeguarded Newton, or by bisection.

    This is the bracketed Newton scheme ("rtsafe", Numerical Recipes
    9.4): each evaluation shrinks the bracket [lo, hi], and the next
    point is the Newton step c - (F(c) - q)/pdf(c) unless that leaves
    the bracket (or pdf is not given), in which case it is the bracket
    midpoint. The first point is start (clipped into the bracket), or
    the midpoint. Each quantile stops when |F(c) - q| <= 1e-8 or its
    bracket width falls below 1e-10 (absolute, after scaling by the
    bracket size).

    lo, hi and start broadcast against q. cdf and pdf are called as
    fn(x, pos) on 1-d arrays: pos holds the flat position in q that
    each point of x serves, so a callback with one CDF per group of
    positions evaluates just the positions still unconverged. The
    bracket ends are checked at the positions they stand for.
    """
    q_arr = np.asarray(q, dtype=float)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    pos = np.arange(q_arr.size).reshape(q_arr.shape)

    def ends(bound):
        """F at each distinct value of a bracket end, at the first position it serves."""
        b = np.asarray(bound, dtype=float)
        b = b.reshape((1,) * (q_arr.ndim - b.ndim) + b.shape)
        at = pos[tuple(slice(None) if n > 1 else slice(0, 1) for n in b.shape)]
        f = cdf(np.broadcast_to(b, at.shape).ravel(), at.ravel())
        return np.asarray(f, dtype=float).reshape(at.shape)

    bad = (ends(lo) - q_arr > 1e-8) | (ends(hi) - q_arr < -1e-8)
    if np.any(bad):
        raise BracketFailError(
            "bracket does not straddle the target quantile (q=%r)" % q_arr[bad][:3]
        )
    lo_arr = np.broadcast_to(lo, q_arr.shape).astype(float)
    hi_arr = np.broadcast_to(hi, q_arr.shape).astype(float)
    width_floor = 1e-10 * max(1.0, float(np.max(np.abs(hi_arr - lo_arr))))
    c = 0.5 * (lo_arr + hi_arr) if start is None else np.clip(start, lo_arr, hi_arr)
    # the unconverged positions, with their points, targets and brackets
    act = pos.ravel()
    c, qa, lo_a, hi_a = c.ravel(), q_arr.ravel(), lo_arr.ravel(), hi_arr.ravel()
    out = np.empty(q_arr.size)
    for _ in range(200):
        f = np.asarray(cdf(c, act), dtype=float)
        below = f < qa
        lo_a = np.where(below, c, lo_a)
        hi_a = np.where(below, hi_a, c)
        done = (np.abs(f - qa) <= 1e-8) | (hi_a - lo_a <= width_floor)
        out[act[done]] = c[done]
        keep = ~done
        if not np.any(keep):
            break
        act, c, f, qa, lo_a, hi_a = act[keep], c[keep], f[keep], qa[keep], lo_a[keep], hi_a[keep]
        mid = 0.5 * (lo_a + hi_a)
        if pdf is None:
            c = mid
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = c - (f - qa) / np.asarray(pdf(c, act), dtype=float)
            c = np.where((step > lo_a) & (step < hi_a), step, mid)
    else:
        out[act] = 0.5 * (lo_a + hi_a)
    out = out.reshape(q_arr.shape)
    return float(out[0]) if scalar else out


# The rounding bound of cumulative weights: a cumulative sum of n <= 2^22
# weights that add to 1 is off by at most n 2^-52 <= 2^-30 (about 9.3e-10).
_CDF_ROUNDING = 2.0 ** -30


def youden_grid(y_all, n_points: int = 500) -> np.ndarray:
    """Shared threshold grid: marker range padded by one Silverman bandwidth."""
    from .smoothing import silverman_bandwidth

    y_all = np.asarray(y_all, dtype=float)
    try:
        h = silverman_bandwidth(y_all).value
    except (TooFewPointsError, ZeroVarianceError):
        h = 1.0 if np.ptp(y_all) == 0 else 0.05 * np.ptp(y_all)
    return np.linspace(y_all.min() - h, y_all.max() + h, int(n_points))


def youden_rows(fh_rows: np.ndarray, fd_rows: np.ndarray, grid: np.ndarray):
    """Row-wise Youden scan over an ensemble of CDF evaluations: |F_H(c) - F_D(c)| maximised
    over the grid, the smallest c on ties.

    fh_rows/fd_rows hold F_H(grid) and F_D(grid) per ensemble member.
    Returns (yi, threshold, fpf, tpf, sign) vectors, yi, fpf and tpf clipped
    into [0, 1]: weighted cumulative sums can end a rounding error past 1.
    A difference |F_H - F_D| at or below _CDF_ROUNDING counts as 0, so a
    member whose CDFs differ only by rounding has YI 0 and sign 0 at the
    first grid point.
    """
    diff = fh_rows - fd_rows
    diff[np.abs(diff) <= _CDF_ROUNDING] = 0.0
    k = np.argmax(np.abs(diff), axis=1)
    rows = np.arange(diff.shape[0])
    dk = diff[rows, k]
    return (
        np.minimum(np.abs(dk), 1.0),
        np.asarray(grid, dtype=float)[k],
        np.clip(1.0 - fh_rows[rows, k], 0.0, 1.0),
        np.clip(1.0 - fd_rows[rows, k], 0.0, 1.0),
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


_BAND_CHUNK = 2 ** 18  # member values sorted at a time


class Band:
    """The 2.5/97.5 percentile band of count members, merged block by block.

    np.percentile's linear method reads, per cell, the two order
    statistics about the virtual index (count - 1) q and interpolates
    them (its `_lerp`, t >= 0.5 from the upper one). So of each cell
    only the k = floor(0.025 (count - 1)) + 2 smallest and k largest
    member values are kept, merged in by sorting column chunks of about
    _BAND_CHUNK values. Blocks may be added from any thread, in any
    order: the kept values are the same. `point`, when set, is the
    plug-in the band is reported around (see `summarise`).
    """

    def __init__(self, count: int):
        self.count, self.point, self.kept, self.at, last = count, None, None, [], count - 1
        for v in last * np.true_divide((2.5, 97.5), 100):
            i = -1 if v >= last else int(v)  # numpy's lower index; -1 reads the last member
            # per end: the lower and upper order statistics and the upper one's weight t
            self.at.append(((last, last) if i < 0 else (i, i + 1)) + (float(v - i),))
        # member i is kept when i < keep (lower tail) or i >= count - keep (upper tail)
        self.keep = min(count, max(self.at[0][1] + 1, count - self.at[1][0])) if count else 0
        self._lock = threading.Lock()

    def __len__(self):
        return self.count

    def add(self, values) -> "Band":
        """Merge a block of member values (b, ...) into the kept tails."""
        flat = np.reshape(values, (len(values), -1))
        with self._lock:
            old = flat[:0] if self.kept is None else self.kept
            n, k = len(old) + len(flat), self.keep
            if n <= 2 * k:
                self.kept = np.concatenate([old, flat])
            else:
                self.kept = np.empty((2 * k, flat.shape[1]))
                step = max(1, _BAND_CHUNK // n)
                for s in range(0, flat.shape[1], step):
                    pool = np.concatenate([old[:, s:s + step], flat[:, s:s + step]])
                    pool.sort(axis=0)
                    self.kept[:k, s:s + step], self.kept[k:, s:s + step] = pool[:k], pool[n - k:]
            self.shape = np.shape(values)[1:]
        return self

    def ends(self) -> tuple:
        """(lo, hi) per cell, bitwise np.percentile(members, (2.5, 97.5), axis=0)."""
        kept = np.sort(self.kept, axis=0)
        # member index i is kept row i in the lower tail, kept row i - count + rows in the upper
        rows = len(kept)
        ends = []
        for lo, hi, t in self.at:
            a, b = (kept[i if i < self.keep else i - self.count + rows] for i in (lo, hi))
            diff = b - a
            ends.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
        nan = np.isnan(kept[-1])  # NaN sorts last: np.percentile reports NaN for such cells
        return tuple(np.where(nan, np.nan, end).reshape(self.shape)[()] for end in ends)


def band(values: np.ndarray):
    """2.5/97.5 percentile band over the leading member axis: one block's `Band`."""
    return Band(len(values)).add(values).ends()


# -- the reporting rule --------------------------------------------------------

def estimate(draws, point=None) -> np.ndarray:
    """The point estimate: the plug-in when one is given, else the members' mean."""
    return np.asarray(draws, dtype=float).mean(axis=0) if point is None else np.asarray(point)


def summarise(draws, point=None) -> tuple:
    """(est, lo, hi) of every reported quantity, over the leading member axis.

    draws holds one value (or array of values) per member: bootstrap
    replicate or posterior draw. est is the plug-in `point` when one is
    given, else the members' mean; lo and hi are the members' 2.5/97.5
    percentile band, or est when there are no members (B = 0). draws may
    be a `Band` of them, and point must then be given.
    """
    est = estimate(draws, point)
    if draws is None or len(draws) == 0:
        return est, est.copy(), est.copy()
    lo, hi = draws.ends() if isinstance(draws, Band) else band(np.asarray(draws, dtype=float))
    return est, lo, hi


def plugin_first(values, plugin: bool) -> dict:
    """`summarise` keywords for member values whose member 0 is the plug-in when plugin is set."""
    return {"draws": values[1:], "point": values[0]} if plugin else {"draws": values, "point": None}


@dataclass(frozen=True)
class Interval:
    est: float
    lo: float
    hi: float

    def as_dict(self) -> dict:
        return {"est": self.est, "lo": self.lo, "hi": self.hi}


def interval_from(point, draws=None) -> Interval:
    """The scalar view of `summarise`; point None means the draws' mean."""
    return Interval(*(float(v) for v in summarise(draws, point)))


def intervals(draws, point=None) -> list:
    """`summarise` of members with one value per entry: one Interval per entry."""
    return [Interval(*(float(v) for v in ends)) for ends in zip(*summarise(draws, point))]


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


# -- step CDFs over sorted rows ------------------------------------------------

def _ranks(rows: np.ndarray, x, side: str) -> np.ndarray:
    """Rank of each x in ascending rows: one search for a shared row, one per member row.

    rows is one ascending row (n,) or one per member (M, n); x is shared
    by every row (0- or 1-d) or holds one row per member.
    """
    x = np.asarray(x, dtype=float)
    if rows.ndim == 1:
        return np.searchsorted(rows, x, side=side)
    return np.array([np.searchsorted(row, x if x.ndim < 2 else x[b], side=side)
                     for b, row in enumerate(rows)])


def _take(table: np.ndarray, i: np.ndarray) -> np.ndarray:
    """table at positions i: per member row when both hold one row per member, else shared.
    C-ordered, so a member's row sums alike in a block and alone (sums follow the layout)."""
    if table.ndim == 2 and i.ndim >= 2:
        return np.take_along_axis(table, i.reshape(i.shape[0], -1), axis=1).reshape(i.shape)
    return np.take(table, i, axis=-1)


def ecdf_eval(sorted_y: np.ndarray, x, cumw=None, side: str = "right") -> np.ndarray | float:
    """Step CDF F(x): the weight of sample values <= x (< x with side 'left').

    sorted_y is one ascending sample (n,) or one per member (M, n). Every
    value weighs 1/n, or cumw holds cumulative weights aligned with
    sorted_y: one shared row (n,) or one per member (M, n). x is shared
    by all members (0- or 1-d) or holds one row per member.
    """
    i = _ranks(sorted_y, x, side)
    if cumw is None:
        out = i / sorted_y.shape[-1]
    else:
        # the weight below rank i is cumw at i - 1, and 0 below the first value
        out = np.where(i > 0, _take(cumw, np.maximum(i - 1, 0)), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def ecdf_quantile(sorted_y: np.ndarray, q, cumw=None) -> np.ndarray | float:
    """The inf-type inverse inf{y: F(y) >= q} of `ecdf_eval`'s step CDF.

    With equal weights q <= 1/n gives the smallest order statistic; with
    cumw the search is for the first cumulative weight >= q - 1e-12.
    """
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    n = sorted_y.shape[-1]
    if cumw is None:
        i = np.ceil(q_arr * n - 1e-9).astype(int) - 1
    else:
        i = _ranks(cumw, q_arr - 1e-12, "left")
    out = _take(sorted_y, np.clip(i, 0, n - 1))
    out = out[..., 0] if np.ndim(q) == 0 else out
    return float(out) if out.ndim == 0 else out


def placements(ref_sorted: np.ndarray, query, cumw=None, side: str = "half") -> np.ndarray:
    """Placement values U(y) = P_ref(Y > y) of query points in an ascending sample.

    Ties with y count whole (side 'left'), not at all ('right') or one
    half ('half'). ref_sorted is one sample (n,) or one per member (M, n)
    with query rows (M, k). Every reference value weighs 1/n (U exact in
    k/n), or cumw (M, n) holds one row of cumulative weights per member,
    and U then has one row per member.
    """
    def below(s):  # reference count or weight below y, ties included on side 'right'
        return (_ranks(ref_sorted, query, s) if cumw is None
                else ecdf_eval(ref_sorted, query, cumw, s))

    mass = 0.5 * (below("left") + below("right")) if side == "half" else below(side)
    if cumw is None:
        return (ref_sorted.shape[-1] - mass) / ref_sorted.shape[-1]
    return np.subtract(1.0, mass, out=mass)  # mass is a fresh array


def placement_areas(U, q=None, ctrl=None, U_rev=None, q_rev=None):
    """Per row of placements U (weights q, None for 1/n): AUC 1 - sum q U.

    When ctrl (compute, focus, value) asks, also the normalised partial
    area: FPF v - sum q min(v, U), or TPF sum q_rev max(U_rev - v, 0) over
    the reverse (healthy-in-diseased) placements. Returns (auc, pauc or
    None), each clipped into [0, 1]: weighted cumulative sums can end at
    1 + 2e-16, which would put a tied study's areas a rounding error
    outside it.
    """
    def wsum(w, X):  # sum_j w_j X_j per row
        return X.mean(axis=1) if w is None else np.einsum("rn,rn->r", w, X)

    auc = np.clip(1.0 - wsum(q, U), 0.0, 1.0)
    if ctrl is None or not ctrl.compute:
        return auc, None
    v = ctrl.value
    if ctrl.focus == "fpf":
        raw = v - wsum(q, np.minimum(v, U))
    else:
        X = U_rev - v
        raw = wsum(q_rev, np.maximum(X, 0.0, out=X))
    return auc, np.clip(pauc_normalise(raw, ctrl.focus, v), 0.0, 1.0)
