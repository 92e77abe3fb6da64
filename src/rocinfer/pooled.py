"""Pooled (no-covariate) ROC estimation, and the CDF stacks behind every curve.

Every estimator in the package ends in a pair of healthy and diseased CDF
stacks: one CDF per plug-in fit, bootstrap replicate or posterior draw.
A stack has a member `shape` and two methods, `cdf(x)` and
`quantile(q)`, each returning one row of values per member (a plain
vector for a single plug-in CDF); `x` is shared by all members (1-d) or
holds one row per member. The ROC curve ROC(p) = 1 - F_D(F_H^{-1}(1-p)),
its reverse orientation, Simpson areas and optimal thresholds are
written once against that interface (`roc_rows`, `tnf_rows`,
`simpson_area`, `threshold_result`), summarised once per prediction row
(`_summarise_rows`, under the `summaries.summarise` rule) and reused by
the conditional and adjusted estimators. A step stack, plain or
weighted, is the two views `ecdf_eval` and `ecdf_quantile` of the one
rank search over sorted rows in `summaries`.

A fit's ensemble is a list of (healthy, diseased) stack pairs of at
most _MEMBER_BLOCK members each, walked pair by pair, or None. The
resampled step CDFs of emp and bb are `WeightBlock`s: the one sorted
sample under each member's weights, emp's bootstrap draw counts held as
integers, bb's Dirichlet weights redrawn from a saved generator state at
every query, so neither holds a resampled copy of the sample.

The four pooled estimators share one result shape: empirical step curves
with a within-group bootstrap, kernel-smoothed CDF plug-ins, the
Dirichlet-weight resampling scheme with closed-form areas, and
normal-mixture posteriors.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .diagnostics import FitCriteria, raw_scale_criteria
from .errors import ConfigError, MissingDrawsError
from .mixtures import (
    DpmPrior,
    McmcControl,
    fit_dpm,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
)
from .sample import DiagnosticSample, FpfGrid, split_groups, standardise
from .smoothing import _in_group, lscv_bandwidth, silverman_bandwidth
from .streams import RngStream, dirichlet, parallel_map
from .summaries import (
    Interval,
    ThresholdResult,
    _ranks,
    _take,
    ecdf_eval,
    ecdf_quantile,
    estimate,
    interval_from,
    intervals,
    invert_cdf,
    mixture_auc_closed,
    odd_grid,
    pauc_normalise,
    placement_areas,
    placements,
    plugin_first,
    simpson,
    summarise,
    youden_grid,
    youden_rows,
)

_BOOT_STREAM_BASE = 100
_MEMBER_BLOCK = 64  # members per ensemble pair: bootstrap replicates or Dirichlet draws
_KERNEL_TERMS = 1 << 18  # kernel terms per temporary block of a KernelStack's weighted sums
_TABLE_POINTS = 8193  # most points of a kernel table grid: h/8 spacing over 1,024 bandwidths
_CHAIN_H, _CHAIN_D, _WEIGHTS_STREAM = 1, 2, 3


@dataclass(frozen=True)
class PaucControl:
    """Partial-area request: focus fpf restricts FPF <= value, tpf
    restricts TPF >= value. Emitted areas are normalised."""

    compute: bool = False
    focus: str = "fpf"
    value: float = 1.0

    def __post_init__(self):
        if self.focus.lower() not in ("fpf", "tpf"):
            raise ConfigError("pauc focus must be 'fpf' or 'tpf'")
        object.__setattr__(self, "focus", self.focus.lower())
        if not 0.0 < self.value <= 1.0:
            raise ConfigError("pauc value must be in (0, 1]")


@dataclass(frozen=True)
class DensityControl:
    compute: bool = False
    grid_length: int = 200


@dataclass(frozen=True)
class PaucSummary:
    est: float
    lo: float
    hi: float
    focus: str
    bound: float

    @classmethod
    def of(cls, iv: Interval, ctrl: PaucControl) -> "PaucSummary":
        return cls(iv.est, iv.lo, iv.hi, ctrl.focus, ctrl.value)

    def as_dict(self) -> dict:
        return {
            "est": self.est, "lo": self.lo, "hi": self.hi,
            "focus": self.focus, "bound": self.bound, "normalised": True,
        }


@dataclass
class RocResult:
    method: str
    p: np.ndarray
    roc_est: np.ndarray
    roc_lo: np.ndarray
    roc_hi: np.ndarray
    auc: Interval
    pauc: PaucSummary | None
    sample_sizes: tuple
    ensemble: np.ndarray | None = None
    densities: dict | None = None
    fit: FitCriteria | None = None
    bandwidths: dict | None = None  # kernel: each group's marker h and the rule
    internals: dict = field(default_factory=dict, repr=False, compare=False)


def _stream_of(rng) -> RngStream:
    if rng is None:
        return RngStream(0)
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    raise ConfigError("rng must be an RngStream, an integer seed, or None")


def _bootstrap_stream(B: int, rng) -> RngStream:
    """The seed stream of a B-replicate bootstrap; B is checked before any fitting."""
    if B < 0:
        raise ConfigError("bootstrap count B must be >= 0")
    return _stream_of(rng)


def _grid_of(p) -> np.ndarray:
    if p is None:
        return FpfGrid.default().p
    if isinstance(p, FpfGrid):
        return p.p
    return FpfGrid(np.asarray(p, dtype=float)).p


def case_bootstrap(fn, stream: RngStream, B: int, sizes, workers: int = 1) -> list:
    """fn(*indices) for each block of B bootstrap replicates, in replicate order.

    Replicate k draws one integers(0, n, n) index vector per n in sizes,
    in that order, from stream _BOOT_STREAM_BASE + k: this is the one
    place that builds a replicate's generator. Blocks hold replicates
    [c, c + _MEMBER_BLOCK) for c = 0, 64, ...; fn gets one (b, n) index
    array per size, row j being replicate c + j. Blocks run on `workers`
    threads, and neither the partition nor any draw depends on them, so
    every frequentist bootstrap gives the same numbers for any worker
    count.
    """
    def one_block(start: int):
        gens = [stream.stream(_BOOT_STREAM_BASE + k).generator
                for k in range(start, min(start + _MEMBER_BLOCK, B))]
        return fn(*[np.array([g.integers(0, n, n) for g in gens]) for n in sizes])

    return parallel_map(one_block, range(0, B, _MEMBER_BLOCK), workers)


def _draw_counts(idx) -> np.ndarray:
    """Draw counts bincount(i) of each row i of a (b, n) index block, as int32: a case
    resample is the original sample with point j drawn c_j times."""
    b, n = idx.shape
    return np.bincount((idx + n * np.arange(b)[:, None]).ravel(),
                       minlength=b * n).reshape(b, n).astype(np.int32)


# -- CDF stacks ----------------------------------------------------------------


class StepStack:
    """Right-continuous step CDFs with the inf-type inverse (`ecdf_eval`, `ecdf_quantile`).

    values is one ascending sample (n,) or one per member (M, n). With
    cumw (M, n), each member is a weighted step CDF holding its
    cumulative weights; without, every value weighs 1/n.
    """

    def __init__(self, values, cumw=None):
        self.values, self.cumw = values, cumw
        self.shape = (values if cumw is None else cumw).shape[:-1]

    def cdf(self, x):
        return ecdf_eval(self.values, x, self.cumw)

    def quantile(self, q):
        return ecdf_quantile(self.values, q, self.cumw)


class WeightBlock:
    """Weighted step CDFs of one ascending sample, one member per weight row, drawn on demand.

    draw() returns the members' weight rows (count, n), aligned with
    values, and their cumulative sums: emp's from its held int32
    bootstrap draw counts (`_count_weights`), bb's flat Dirichlet weights
    replayed from a saved generator state. steps(drawn) is the block
    under one draw, a `StepStack` with those cumulative weights.
    """

    def __init__(self, values, draw, count):
        self.values, self.draw, self.shape = values, draw, (count,)

    def steps(self, drawn) -> StepStack:
        return StepStack(self.values, drawn[1])

    def cdf(self, x):
        return self.steps(self.draw()).cdf(x)

    def quantile(self, q):
        return self.steps(self.draw()).quantile(q)


class KernelStack:
    """Gaussian-kernel CDFs with bandwidth h over one sample, one member per row of counts.

    data is the sample in ascending order (ndtr is faster along monotone rows of kernel
    terms); counts (M, n) weighs it by each member's bootstrap draw counts, and None makes
    the sample itself the one member (shape ()). `F` and `f` tabulate every member's CDF and
    density on the grid, by one matmul of the counts against the Phi and phi tables of the
    sample. A quantile starts at the root of the cubic Hermite interpolant of F on its table
    cell and finishes in one `invert_cdf` call on the exact count-weighted CDF, bracketed by
    the grid's ends for the whole member. `part` views a run of members on the same tables.
    """

    def __init__(self, data, h, grid, counts=None):
        self.data, self.h, self.grid = data, h, grid
        self.shape = () if counts is None else counts.shape[:-1]
        self.counts = np.ones((1, data.size)) if counts is None else counts
        self.F, self.f = self._sums(ndtr, grid), self._sums(_gauss, grid) / h

    def part(self, start, stop=None) -> "KernelStack":
        """Members [start, stop) as a stack on the same tables, or member start alone with
        member shape () when stop is None."""
        part = copy.copy(self)
        rows = slice(start, start + 1 if stop is None else stop)
        part.counts, part.F, part.f = self.counts[rows], self.F[rows], self.f[rows]
        part.shape = () if stop is None else part.counts.shape[:-1]
        return part

    def _sums(self, fn, x, rows=None) -> np.ndarray:
        """sum_j c_j fn((x - y_j) / h) / n per member at shared points x, or with rows (like x)
        at each point under its member row, summed over the points that member drew."""
        n = self.data.size
        if rows is None:
            step = max(1, _KERNEL_TERMS // n)
            return np.concatenate([self.counts @ fn((x[s:s + step, None] - self.data) / self.h).T
                                   for s in range(0, x.size, step)], axis=1) / n
        out = np.empty(x.size)
        by = np.argsort(rows, kind="stable")
        for seg in np.split(by, np.flatnonzero(np.diff(rows[by])) + 1):  # one member each
            c = self.counts[rows[seg[0]]]
            drawn = np.flatnonzero(c)
            step = max(1, _KERNEL_TERMS // drawn.size)
            for at in (seg[s:s + step] for s in range(0, seg.size, step)):
                out[at] = fn((x[at, None] - self.data[drawn]) / self.h) @ c[drawn]
        return out / n

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.shape and x.ndim == 2:  # one row of points per member
            rows = np.repeat(np.arange(x.shape[0]), x.shape[1])
            return self._sums(ndtr, x.ravel(), rows).reshape(x.shape)
        out = self._sums(ndtr, x.ravel()).reshape((len(self.counts),) + x.shape)
        return out if self.shape else out[0]

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        M, P, G = len(self.counts), q.size, self.grid
        target = np.broadcast_to(q.ravel(), (M, P))
        # the Hermite cubic F0 + d0 t + a t^2 + b t^3 on the cell [G_k, G_k+1] with
        # F_k < q <= F_k+1, solved by Newton steps in t from the linear interpolant's root
        k = np.clip(_ranks(self.F, target, "left"), 1, G.size - 1) - 1
        dx = G[k + 1] - G[k]
        F0, F1, d0, d1 = (_take(self.F, k), _take(self.F, k + 1), dx * _take(self.f, k),
                          dx * _take(self.f, k + 1))
        a, b = 3.0 * (F1 - F0) - 2.0 * d0 - d1, d0 + d1 - 2.0 * (F1 - F0)
        t = np.clip((target - F0) / np.where(F1 > F0, F1 - F0, 1.0), 0.0, 1.0)
        for _ in range(3):
            slope = d0 + t * (2.0 * a + 3.0 * b * t)
            step = (F0 + t * (d0 + t * (a + b * t)) - target) / np.where(slope > 0, slope, np.inf)
            t = np.clip(t - step, 0.0, 1.0)

        c = invert_cdf(lambda x, pos: self._sums(ndtr, x, pos // P), target,
                       np.full((M, 1), G[0]), np.full((M, 1), G[-1]),
                       pdf=lambda x, pos: self._sums(_gauss, x, pos // P) / self.h,
                       start=G[k] + dx * t)
        return c.reshape((M,) + q.shape) if self.shape else c.reshape(q.shape)


class MixtureStack:
    """Normal-mixture CDFs, one per draw: weights, means and variances (S, L)."""

    def __init__(self, weights, means, sigma2):
        self.weights, self.means, self.sigma2 = weights, means, sigma2
        self.shape = means.shape[:-1]

    def cdf(self, x):
        return mixture_cdf(self.weights, self.means, self.sigma2, x)

    def pdf(self, x):
        return mixture_pdf(self.weights, self.means, self.sigma2, x)

    def quantile(self, q):
        return mixture_quantile(self.weights, self.means, self.sigma2, q)


class NormalStack:
    """The standard normal CDF: the error law of the normal induced model."""

    shape = ()

    def cdf(self, x):
        return ndtr(x)

    def quantile(self, q):
        return ndtri(q)


class LocScaleStack:
    """F(x) = G((x - loc) / scale) over a base stack G.

    This is the induced models' conditional CDF and the map from a fit
    on the standardised marker back to the raw scale. loc and scale are
    scalars, or arrays whose leading axes follow the base's members and
    whose extra trailing axes (prediction rows) share each member's base.
    """

    def __init__(self, loc, scale, base):
        self.loc, self.scale, self.base = np.asarray(loc), np.asarray(scale), base
        lead = np.broadcast_shapes(self.loc.shape, self.scale.shape)
        self._row_axes = len(lead) - len(base.shape)
        self.shape = lead if self._row_axes > 0 else base.shape

    def _std(self, x):
        return (np.asarray(x, dtype=float) - self.loc[..., None]) / self.scale[..., None]

    def cdf(self, x):
        return self.base.cdf(self._std(x))

    def pdf(self, x):
        return self.base.pdf(self._std(x)) / self.scale[..., None]

    def quantile(self, q):
        bq = self.base.quantile(q)
        if self._row_axes > 0:
            bq = bq.reshape(self.base.shape + (1,) * self._row_axes + bq.shape[-1:])
        return self.loc[..., None] + self.scale[..., None] * bq


def mixture_stack(weights, means, sigma2, std) -> MixtureStack | LocScaleStack:
    """Raw-marker-scale stack of mixtures fit on the (possibly) standardised marker."""
    stack = MixtureStack(weights, means, sigma2)
    return LocScaleStack(std.marker_mean, std.marker_sd, stack) if std.enabled else stack


# -- curves, areas and thresholds over stacks ------------------------------------

def roc_rows(H, D, p) -> np.ndarray:
    """ROC(p) = 1 - F_D(F_H^{-1}(1-p)) per member, exact 0/1 endpoints."""
    p = np.asarray(p, dtype=float)
    out = np.empty(H.shape + p.shape)
    interior = (p > 0.0) & (p < 1.0)
    if np.any(interior):
        out[..., interior] = 1.0 - D.cdf(H.quantile(1.0 - p[interior]))
    out[..., p == 0.0] = 0.0
    out[..., p == 1.0] = 1.0
    return out


def tnf_rows(H, D, p) -> np.ndarray:
    """Reverse orientation F_H(F_D^{-1}(1-p)): the ROC curve with the groups swapped.

    Evaluates 1 at p=0 and 0 at p=1. Its integral over p is
    E[F_H(D)] = P(H <= D): the AUC for continuous CDFs, but on step
    stacks (emp, bb) cross-group ties count whole, so it exceeds their
    AUC (tie-halved for emp, strict for bb) by the tie mass they drop.
    """
    return 1.0 - roc_rows(D, H, p)


def simpson_area(H, D, pauc: PaucControl):
    """The normalised partial area per member by Simpson's rule on 201 points: FPF focus
    integrates the curve over [0, value], TPF focus the reverse curve over [value, 1]. An
    empty range has area 0."""
    fpf = pauc.focus == "fpf"
    g = odd_grid(0.0, pauc.value, 201) if fpf else odd_grid(pauc.value, 1.0, 201)
    if g[-1] == g[0]:
        return np.zeros(H.shape)
    raw = simpson((roc_rows if fpf else tnf_rows)(H, D, g), g[1] - g[0])
    return pauc_normalise(raw, pauc.focus, pauc.value)


def _summarise_rows(plugin, ensemble, grid, ctrl: PaucControl, aucs=None, paucs=None,
                    curves=None):
    """Curve and area summaries of a fit per prediction row, by `summarise`.

    plugin is one stack pair and ensemble a list of them, either None.
    The rows are the stacks' last member axis; a stack without one
    counts as one row. aucs and paucs hold member areas known in closed
    form, (members[, rows]) with the plug-in at member 0 when there is
    one; the others are Simpson's on each member's curve, the AUC from
    the curve's own `roc_rows` pass on the union of grid and the 201-point
    Simpson grid (at the default 101 points the Simpson grid, integrated
    as evaluated: bitwise a separate pass's AUC). curves holds the
    ensemble's curves on grid when the fit has them already (with
    closed-form aucs). Returns the result fields (roc_est, roc_lo,
    roc_hi as (rows, points), auc and pauc with one entry per row) and
    the ensemble curves (members, rows, points), or None.
    """
    m, simp = grid.size, odd_grid(0.0, 1.0, 201)
    pts = grid if aucs is not None else np.union1d(grid, simp)

    def curve_pass(H, D):
        """A member pair's curves on grid and, when no AUC is closed, its Simpson AUCs."""
        vals = roc_rows(H, D, pts)
        if aucs is not None:
            return vals, None
        on_simp = vals if pts.size == simp.size else np.take(vals, np.searchsorted(pts, simp), -1)
        return np.take(vals, np.searchsorted(pts, grid), -1), simpson(on_simp, simp[1] - simp[0])

    point, simpson_aucs = None, []
    if plugin:
        point, auc = curve_pass(*plugin)
        point, simpson_aucs = point.reshape(-1, m), [auc]
    if ensemble and curves is None:
        # filled block by block: a list of blocks and its concatenation held the stack twice
        ends = np.cumsum([0] + [H.shape[0] for H, _ in ensemble])
        curves = np.empty((ends[-1], math.prod(ensemble[0][0].shape[1:]), m))
        for (H, D), a, b in zip(ensemble, ends, ends[1:]):
            block, auc = curve_pass(H, D)
            curves[a:b] = block.reshape(b - a, -1, m)
            simpson_aucs.append(auc)
    curves = None if curves is None else curves.reshape(len(curves), -1, m)
    rows = (point if curves is None else curves).shape[-2]

    def area(closed, parts) -> list:
        """One area's intervals per row: closed-form member values, else each pair's part."""
        v = np.concatenate([np.reshape(a, (-1, rows)) for a in parts]) if closed is None else closed
        return intervals(**plugin_first(v.reshape(len(v), -1), bool(plugin)))

    est, lo, hi = summarise(curves, point)
    fields = {"roc_est": est, "roc_lo": lo, "roc_hi": hi, "auc": area(aucs, simpson_aucs),
              "pauc": None}
    if ctrl.compute:
        parts = (simpson_area(H, D, ctrl) for H, D in [plugin] * bool(plugin) + (ensemble or []))
        fields["pauc"] = [PaucSummary.of(iv, ctrl) for iv in area(paucs, parts)]
    return fields, curves


def _pooled_result(method, split, grid, ctrl, plugin, ensemble, y, aucs=None, paucs=None,
                   curves=None, internals=None, **extra) -> RocResult:
    """A pooled fit's result: the one row of `_summarise_rows`."""
    fields, curves = _summarise_rows(plugin, ensemble, grid, ctrl, aucs, paucs, curves)
    return RocResult(
        method=method, p=grid, **{k: None if v is None else v[0] for k, v in fields.items()},
        sample_sizes=(split.n_h, split.n_d),
        ensemble=None if curves is None else curves[:, 0],
        internals={"plugin": plugin, "ensemble": ensemble, "y": y, **(internals or {})},
        **extra,
    )


def _check_criterion(criterion: str, target_fpf) -> str:
    criterion = criterion.lower()
    if criterion not in ("yi", "fpf"):
        raise ConfigError("criterion must be 'yi' or 'fpf'")
    if criterion == "fpf" and (target_fpf is None or not 0.0 < target_fpf < 1.0):
        raise ConfigError("target_fpf in (0,1) required for the fpf criterion")
    return criterion


def _criterion_rows(fh, fd, grid, criterion, target_fpf) -> tuple:
    """Per-member (yi, threshold, fpf, tpf, sign), or (threshold, fpf, tpf) at a fixed FPF.

    fh and fd hold F_H and F_D on the grid, one row per member.
    """
    if criterion == "yi":
        return youden_rows(fh, fd, grid)
    # c = F_H^{-1}(1 - target) on the grid, per member
    k = np.minimum(_ranks(fh, 1.0 - target_fpf, "left"), grid.size - 1)
    rows = np.arange(fh.shape[0])
    return grid[k], np.clip(1.0 - fh[rows, k], 0.0, 1.0), np.clip(1.0 - fd[rows, k], 0.0, 1.0)


def threshold_result(grid, criterion: str, target_fpf, pairs) -> ThresholdResult:
    """Optimal thresholds on a grid from (plug-in pair, ensemble list) fits.

    Stacks whose members end in a prediction-row axis give one entry
    per row, others one entry. 'yi' maximises |F_H - F_D| (smallest
    threshold on ties, sign reported); 'fpf' takes F_H^{-1}(1 -
    target_fpf) with its attached TPF. Intervals follow `summarise`: the
    plug-in (else the ensemble mean) with the ensemble's band; the sign
    is the plug-in's, else the sign of the members' summed signs.
    """
    names = ("yi", "threshold", "fpf", "tpf", "sign") if criterion == "yi" else (
        "threshold", "fpf", "tpf")
    out = {name: [] for name in names}

    def criterion_rows(ensemble, count=None):
        """Per prediction row, the criterion values of each member of a list of stack pairs,
        or None."""
        if not ensemble:
            return None
        parts = []
        for pair in ensemble:
            # F_H and F_D as (members, rows, grid)
            fh, fd = (s.cdf(grid).reshape(count or s.shape[0], -1, grid.size) for s in pair)
            parts.append([_criterion_rows(fh[:, r], fd[:, r], grid, criterion, target_fpf)
                          for r in range(fh.shape[1])])
        return [tuple(np.concatenate(col) for col in zip(*rows)) for rows in zip(*parts)]

    for plugin, ensemble in pairs:
        points, draws = criterion_rows(plugin and [plugin], 1), criterion_rows(ensemble)
        for r in range(len(points or draws)):
            for i, name in enumerate(names):
                pt = points[r][i][0] if points else None
                members = draws[r][i] if draws else None
                out[name].append(interval_from(pt, members) if name != "sign" else
                                 int(np.sign(members.sum()) if pt is None else pt))
    return ThresholdResult(
        criterion=criterion, threshold=out["threshold"], fpf=out["fpf"], tpf=out["tpf"],
        yi=out.get("yi"), sign=out.get("sign"), target_fpf=target_fpf,
    )


# -- weighted step estimators: empirical and Dirichlet-weight --------------------

def _counted_bootstrap(split, stream: RngStream, B: int, workers: int):
    """Each group's ascending sample, and its B bootstrap replicates as (healthy, diseased)
    blocks of int32 draw counts at the sorted positions."""
    groups = (split.healthy, split.diseased)
    order = [np.argsort(y, kind="stable") for y in groups]
    rank, ys = [np.argsort(o) for o in order], [y[o] for y, o in zip(groups, order)]

    def counted(*idx):
        return [_draw_counts(r[i]) for r, i in zip(rank, idx)]

    return ys, case_bootstrap(counted, stream, B, (split.n_h, split.n_d), workers)


def _count_weights(counts):
    """Weight rows c / n and cumulative weights cumsum(c) / n of int32 draw counts; the counts
    are summed as integers, so every step is k/n bitwise."""
    return counts / counts.shape[1], np.cumsum(counts, axis=1) / counts.shape[1]


def _step_result(method, split, grid, ctrl, plugin, pairs, sides) -> RocResult:
    """A step estimator's result from its `WeightBlock` pairs, walked one pair at a time.

    pairs yields each healthy and diseased block with the weights just
    drawn for it, ((h, drawn_h), (d, drawn_d)). The members' closed-form
    areas come from two placements: the diseased values in each healthy
    member (ties on sides[0]) and the healthy values in each diseased
    member (sides[1]). A plug-in pair, every value weighing 1/n, is
    member 0.
    """
    tpf = ctrl.compute and ctrl.focus == "tpf"
    ensemble, curves, rows = [], [], []
    if plugin:
        h, d = (s.values for s in plugin)
        rows.append(placement_areas(placements(h, d, side=sides[0])[None], None, ctrl,
                                    placements(d, h, side=sides[1])[None] if tpf else None))
    for (h, drawn_h), (d, drawn_d) in pairs:
        H, D = h.steps(drawn_h), d.steps(drawn_d)
        U = placements(h.values, d.values, H.cumw, sides[0])  # (block, n_d)
        U_rev = placements(d.values, h.values, D.cumw, sides[1]) if tpf else None
        curves.append(roc_rows(H, D, grid))
        rows.append(placement_areas(U, drawn_d[0], ctrl, U_rev, drawn_h[0]))
        ensemble.append((h, d))
    aucs, paucs = (None if col[0] is None else np.concatenate(col) for col in zip(*rows))
    return _pooled_result(method, split, grid, ctrl, plugin, ensemble or None,
                          np.concatenate([s.values for s in plugin or ensemble[0]]), aucs, paucs,
                          np.concatenate(curves) if curves else None)


def pooled_empirical(sample: DiagnosticSample, p=None, pauc: PaucControl | None = None,
                     B: int = 500, rng=None, workers: int = 1) -> RocResult:
    """Step-function plug-in with a within-group case bootstrap.

    The curve uses right-continuous empirical CDFs and the inf-inverse;
    AUC is the tie-halved Mann-Whitney statistic and partial areas come
    from the matching placement-value closed forms. Each replicate is
    the sorted sample under its int32 draw counts, walked one member
    block at a time, so no resampled values and no (B+1, n) placement
    stack are built.
    """
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    sorted_, counts = _counted_bootstrap(split, stream, B, workers)
    blocks = ([WeightBlock(y, partial(_count_weights, c), len(c)) for y, c in zip(sorted_, pair)]
              for pair in counts)
    pairs = ([(b, b.draw()) for b in pair] for pair in blocks)
    return _step_result("empirical", split, grid, pauc, tuple(map(StepStack, sorted_)), pairs,
                        ("half", "half"))


# -- kernel ------------------------------------------------------------------

def _gauss(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _kernel_grid(y_h, y_d, h_h, h_d) -> np.ndarray:
    """The table grid of a kernel stack pair: the points within 10 bandwidths of either
    group's data, one uniform piece per run of overlapping reaches (so a far outlier adds a
    piece, not a stretch of empty grid), at spacing at most min(h_h, h_d)/8, or coarser where
    that would pass _TABLE_POINTS points."""
    reach = np.concatenate([np.column_stack([y - 10 * h, y + 10 * h])
                            for y, h in ((y_h, h_h), (y_d, h_d))])
    reach = reach[np.argsort(reach[:, 0], kind="stable")]
    top = np.maximum.accumulate(reach[:, 1])
    first = np.flatnonzero(np.r_[True, reach[1:, 0] > top[:-1]])
    lo, hi = reach[first, 0], top[np.r_[first[1:] - 1, top.size - 1]]
    dx = max(min(h_h, h_d) / 8, np.sum(hi - lo) / max(1, _TABLE_POINTS - 2 * lo.size))
    return np.concatenate([np.linspace(a, b, int(np.ceil((b - a) / dx)) + 1)
                           for a, b in zip(lo, hi)])


def _kernel_auc(H, D) -> np.ndarray:
    """Each member's AUC: the trapezoid rule for the integral of F_H f_D on the table grid.

    The integral is the kernel pair probability, the mean of Phi((y_d - y_h) / sqrt(h_h^2 +
    h_d^2)) over the member's pairs. The integrand is a sum of Gaussians, so the rule's error
    falls like exp(-2 pi^2 (h / dx)^2) (Trefethen and Weideman 2014): 6e-12 at dx = h and
    rounding from h/2 on the seed-2026 study, so the AUC is the pair probability to rounding.
    """
    return np.trapezoid(H.F * D.f, H.grid, axis=-1)


def pooled_kernel(sample: DiagnosticSample, p=None, bw: str = "srt",
                  pauc: PaucControl | None = None, B: int = 500, rng=None,
                  workers: int = 1) -> RocResult:
    """Normal-kernel CDF plug-ins, exact pair-probability AUCs, partial areas by Simpson.

    bw picks the bandwidth rule per group: 'srt' (normal-reference) or
    'lscv' (leave-one-out CV on the integrated squared CDF error); the
    result's `bandwidths` reports each group's marker h, and under 'lscv'
    whether its scan stopped at a grid edge.
    Bootstrap replicates keep the original bandwidths; each is the
    original sample weighted by its draw counts, a member of the group's
    one `KernelStack`, and its AUC is the closed form `_kernel_auc`.
    Curves invert each member's kernel CDF by safeguarded Newton from its
    table, one block of members at a time.
    """
    if bw not in ("srt", "lscv"):
        raise ConfigError("bw must be 'srt' or 'lscv'")
    stream = _bootstrap_stream(B, rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    y_h, y_d = split.healthy, split.diseased

    bws = {g: silverman_bandwidth(y) if bw == "srt" else
           _in_group(g, lscv_bandwidth, y, y, target="cdf")
           for g, y in (("healthy", y_h), ("diseased", y_d))}
    h_h, h_d = (b.value for b in bws.values())
    table = _kernel_grid(y_h, y_d, h_h, h_d)
    sorted_, blocks = _counted_bootstrap(split, stream, B, workers)
    # one stack per group: member 0 the plug-in (every count 1), members 1..B the replicates
    counts = [np.concatenate([np.ones((1, y.size))] + [b[g] for b in blocks])
              for g, y in enumerate(sorted_)]
    del blocks  # before the tables are formed
    H, D = (KernelStack(y, h, table, c) for y, h, c in zip(sorted_, (h_h, h_d), counts))
    parts = [(H.part(a, a + _MEMBER_BLOCK), D.part(a, a + _MEMBER_BLOCK))
             for a in range(1, B + 1, _MEMBER_BLOCK)]
    curves = parallel_map(lambda pair: roc_rows(*pair, grid), parts, workers)
    return _pooled_result("kernel", split, grid, pauc, (H.part(0), D.part(0)), parts or None,
                          np.concatenate([y_h, y_d]), _kernel_auc(H, D),
                          curves=np.concatenate(curves) if parts else None,
                          bandwidths={"rule": bw, **{g: {"marker": b.value} | (
                              {"at_edge": b.at_edge} if bw == "lscv" else {})
                              for g, b in bws.items()}})


# -- Dirichlet-weight resampling ---------------------------------------------

def _dirichlet_blocks(y, gen, S: int, weights: bool = True):
    """S members' flat-Dirichlet `WeightBlock`s over the sample y, drawn from gen in turn.

    The weights are drawn in y's own order and aligned with y sorted. A
    block keeps the PCG64 state of its first draw, not its weights, and
    replays them from it; `Generator` fills draws in row-major order, so
    a replay is bitwise the original. Yields each block with the weights
    just drawn for it or, without weights, the block alone, gen advanced
    past its draws by the gammas that `streams.dirichlet` draws.
    """
    order = np.argsort(y, kind="stable")
    values = y[order]

    def draw(gen, count):
        w = np.take(dirichlet(np.ones(y.size), gen, size=count), order, axis=1)
        return w, np.cumsum(w, axis=1)

    def replay(state, count):
        gen = np.random.Generator(np.random.PCG64())
        gen.bit_generator.state = state
        return draw(gen, count)

    for start in range(0, S, _MEMBER_BLOCK):
        count = min(_MEMBER_BLOCK, S - start)
        block = WeightBlock(values, partial(replay, gen.bit_generator.state, count), count)
        drawn = draw(gen, count) if weights else gen.standard_gamma(1.0, size=(count, y.size))
        yield (block, drawn) if weights else block


def pooled_bb(sample: DiagnosticSample, p=None, S: int = 1000,
              pauc: PaucControl | None = None, rng=None) -> RocResult:
    """Dirichlet-weight resampling with closed-form areas.

    Per iteration, both groups get flat Dirichlet weights; the curve is
    read off the two weighted step CDFs, and diseased placements against
    the weighted healthy CDF give the areas in closed form. The weights
    are drawn in member blocks and never held whole: the ensemble keeps
    each block's generator state and redraws it at every query.
    """
    if S < 1:
        raise ConfigError("Bayesian bootstrap draw count S must be >= 1")
    stream = _stream_of(rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    split = split_groups(sample)
    gen = stream.stream(_WEIGHTS_STREAM).generator

    # all S healthy draws precede the diseased ones in the stream: the
    # first pass only saves the healthy blocks' states and draws past their
    # gammas, the second replays each healthy block beside its diseased block
    H = list(_dirichlet_blocks(split.healthy, gen, S, weights=False))
    pairs = (((h, h.draw()), d) for h, d in zip(H, _dirichlet_blocks(split.diseased, gen, S)))
    # placements with ties counted whole, so the AUC is P(H < D); the
    # reverse V_i = P_D(D > h_i) is strict like it
    return _step_result("bb", split, grid, pauc, None, pairs, ("left", "right"))


# -- normal-mixture posterior --------------------------------------------------

def _density_block(stack, y_raw: np.ndarray, grid_length: int) -> dict:
    grid_raw = np.linspace(float(y_raw.min()), float(y_raw.max()), int(grid_length))
    dens = stack.pdf(grid_raw)
    est, lo, hi = summarise(dens)
    return {"grid": grid_raw, "est": est, "lo": lo, "hi": hi, "draws": dens}


def _fit_groups(fit, groups, mcmc, stream: RngStream, workers: int) -> list:
    """Both groups' posterior draws: fit(*data, prior=prior) for the healthy and diseased
    (data, prior), on chains _CHAIN_H and _CHAIN_D, on up to two threads."""
    def one(job):
        (data, prior), chain = job
        return fit(*data, prior=prior, mcmc=mcmc, rng=stream.stream(chain))

    return parallel_map(one, zip(groups, (_CHAIN_H, _CHAIN_D)), workers=min(workers, 2))


def pooled_dpm(sample: DiagnosticSample, p=None, prior_h: DpmPrior | None = None,
               prior_d: DpmPrior | None = None, mcmc: McmcControl | None = None,
               pauc: PaucControl | None = None, density: DensityControl | None = None,
               rng=None, standardise_marker: bool = True, workers: int = 1) -> RocResult:
    """Normal-mixture posteriors per group; curves by numeric inversion.

    The marker is standardised over the combined sample before fitting
    (auto priors then sit on a unit scale) and everything reported is
    mapped back. AUC uses the closed-form double sum per draw; partial
    areas use Simpson on each draw's curve. Fit criteria are computed on
    the raw marker scale.
    """
    stream = _stream_of(rng)
    grid = _grid_of(p)
    pauc = pauc or PaucControl()
    density = density or DensityControl()
    mcmc = mcmc or McmcControl()

    std_sample, std = standardise(sample, enable=standardise_marker)
    split_raw = split_groups(sample)
    split = split_groups(std_sample)

    draws_h, draws_d = _fit_groups(fit_dpm, [((split.healthy,), prior_h),
                                             ((split.diseased,), prior_d)], mcmc, stream, workers)
    pair = tuple(mixture_stack(d.weights, d.means, d.sigma2, std) for d in (draws_h, draws_d))
    aucs = mixture_auc_closed(draws_h.weights, draws_h.means, np.sqrt(draws_h.sigma2),
                              draws_d.weights, draws_d.means, np.sqrt(draws_d.sigma2))

    densities = {name: _density_block(stack, y, density.grid_length) for name, stack, y in
                 zip(("healthy", "diseased"), pair, (split_raw.healthy, split_raw.diseased))
                 } if density.compute else None
    return _pooled_result("dpm", split, grid, pauc, None, [pair],
                          np.concatenate([split_raw.healthy, split_raw.diseased]), aucs,
                          densities=densities, fit=raw_scale_criteria(std, draws_h, draws_d),
                          internals={"draws_h": draws_h, "draws_d": draws_d})


# -- reverse-orientation curve and thresholds ---------------------------------

def _fit_pairs(result, frame=None) -> list:
    """A fit's (plug-in pair, ensemble list) fits; conditional fits give them for a frame."""
    if not result.internals:
        raise MissingDrawsError("result carries no fitted internals")
    ints = result.internals
    return [(ints["plugin"], ints["ensemble"])] if frame is None else ints["stacks"](frame)


def _reverse_curve(result, p=None, frame=None) -> np.ndarray:
    """The reverse curve's point estimate per stack pair, by `estimate`."""
    grid = _grid_of(p) if p is not None else result.p
    return np.concatenate([
        tnf_rows(*plugin, grid) if plugin
        else estimate(np.concatenate([tnf_rows(H, D, grid) for H, D in ensemble]))
        for plugin, ensemble in _fit_pairs(result, frame)
    ])


def _thresholds(result, criterion: str, target_fpf, frame=None) -> ThresholdResult:
    """Optimal thresholds of a fit's stack pairs on the grid of its marker values."""
    criterion = _check_criterion(criterion, target_fpf)
    pairs = _fit_pairs(result, frame)
    grid = youden_grid(result.internals["y"])
    return threshold_result(grid, criterion, target_fpf if criterion == "fpf" else None, pairs)


def pooled_tnf(result: RocResult, p=None) -> np.ndarray:
    """Reverse-orientation curve F_H(F_D^{-1}(1-p)) from the fitted CDFs.

    Evaluates 1 at p=0 and 0 at p=1; its integral over p is P(H <= D),
    which equals the AUC except on the step CDFs of emp and bb, where
    cross-group ties count whole (see `tnf_rows`). Uses the plug-in fit
    for the frequentist methods and the ensemble mean for the Bayesian
    ones.
    """
    return _reverse_curve(result, p)


def pooled_threshold(result: RocResult, criterion: str = "yi",
                     target_fpf: float | None = None) -> ThresholdResult:
    """Optimal threshold for a pooled fit.

    criterion 'yi' maximises |F_H - F_D| over the shared 500-point grid
    (smallest threshold on ties, sign reported); 'fpf' returns
    F_H^{-1}(1 - target_fpf) with its attached TPF. Interval sources:
    bootstrap replicates or posterior draws, whichever the fit carries.
    """
    return _thresholds(result, criterion, target_fpf)
