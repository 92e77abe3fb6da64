"""Cubic B-spline bases, formula parsing, and design-matrix assembly.

Formula grammar (EBNF):

    formula     = response "~" terms ;
    response    = name ;
    terms       = term { "+" term } ;
    term        = "1" | smooth | product | interaction | name ;
    product     = name "*" name ;          (* main effects plus interaction *)
    interaction = name ":" name ;          (* interaction columns only *)
    smooth      = "f(" name [ "," "by" "=" name ] [ "," "K" "=" kspec ] ")" ;
    kspec       = integer | "(" integer { "," integer } ")" ;
    name        = letter { letter | digit | "_" | "." } ;

The intercept is always included. Categorical terms use dummy coding
against the first level (levels keep first-appearance order). A smooth
with by= builds one basis block per factor level (level indicator times
basis), each with its own quantile-anchored interior knots; the K vector
is matched to the level order. Interior knots sit at quantile levels
j/(K+1) of the training covariate (type-7 interpolation). The knot
vector is open (clamped): boundary knots repeated degree+1 times.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    CollinearityWarning,
    ConfigError,
    DataError,
    ExtrapolationWarning,
    MissingColumnError,
    TooFewPointsError,
    UnknownLevelError,
)
from .sample import Column

_DEGREE = 3
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.]*$")


def quantile_knots(x, K: int) -> np.ndarray:
    """Interior knots at quantile levels j/(K+1), j=1..K, of x."""
    x = np.asarray(x, dtype=float)
    K = int(K)
    if K < 0:
        raise ConfigError("K must be nonnegative")
    if K == 0:
        return np.empty(0)
    if np.unique(x).size <= K or x.size <= K + 1:
        raise TooFewPointsError("need more than K distinct covariate values for K knots")
    levels = np.arange(1, K + 1) / (K + 1.0)
    return np.quantile(x, levels)


@dataclass(frozen=True)
class SplineSpec:
    """A cubic basis on [boundary] with K interior knots (dimension K+4)."""

    interior_knots: np.ndarray
    boundary: tuple

    def __post_init__(self):
        knots = np.asarray(self.interior_knots, dtype=float)
        lo, hi = self.boundary
        if knots.size and (np.any(np.diff(knots) <= 0)):
            raise TooFewPointsError("interior knots must be strictly increasing")
        if knots.size and (knots[0] <= lo or knots[-1] >= hi):
            raise TooFewPointsError("interior knots must lie strictly inside the boundary")
        if not hi > lo:
            raise TooFewPointsError("degenerate covariate range for a spline basis")
        object.__setattr__(self, "interior_knots", knots)
        object.__setattr__(self, "boundary", (float(lo), float(hi)))

    @property
    def dim(self) -> int:
        return self.interior_knots.size + _DEGREE + 1

    @property
    def knot_vector(self) -> np.ndarray:
        lo, hi = self.boundary
        return np.concatenate([[lo] * (_DEGREE + 1), self.interior_knots, [hi] * (_DEGREE + 1)])


def spline_spec_from_data(x, K: int) -> SplineSpec:
    x = np.asarray(x, dtype=float)
    return SplineSpec(quantile_knots(x, K), (float(x.min()), float(x.max())))


def bspline_design(x, spec: SplineSpec, name: str, scale: tuple) -> np.ndarray:
    """Evaluate the clamped cubic basis at x (Cox-de Boor recursion).

    Rows sum to one; each function is nonnegative with local support
    inside the boundary. Past either boundary knot each column continues
    linearly with its boundary value and slope (the natural-spline tail
    of R's splines::ns), and an ExtrapolationWarning says how many values
    of the covariate `name` fell outside and how far, in raw units:
    x was standardised as (raw - mean) / sd with scale = (mean, sd).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = spec.boundary
    outside = (x < lo) | (x > hi)
    inside = np.clip(x, lo, hi)
    dx, x = x - inside, inside  # dx: signed distance past the boundary, 0 inside
    t = spec.knot_vector
    nb = t.size - _DEGREE - 1
    # order zero: indicator of the half-open span, last span closed on the right
    b = np.zeros((x.size, t.size - 1))
    for i in range(t.size - 1):
        if t[i + 1] > t[i]:
            b[:, i] = (x >= t[i]) & (x < t[i + 1])
    b[x == hi, :] = 0.0
    last_span = np.max(np.nonzero(np.diff(t) > 0)[0])
    b[x == hi, last_span] = 1.0
    for k in range(1, _DEGREE + 1):
        nxt = np.zeros((x.size, t.size - 1 - k))
        for i in range(t.size - 1 - k):
            left_den = t[i + k] - t[i]
            right_den = t[i + k + 1] - t[i + 1]
            acc = 0.0
            if left_den > 0:
                acc = (x - t[i]) / left_den * b[:, i]
            if right_den > 0:
                acc = acc + (t[i + k + 1] - x) / right_den * b[:, i + 1]
            nxt[:, i] = acc
        b = nxt
    b = b[:, :nb]
    if np.any(outside):
        mean, sd = scale
        warnings.warn(
            "%d covariate value(s) of %s outside the spline boundary [%g, %g], up to %g past it; "
            "the basis continues linearly"
            % (outside.sum(), name, mean + sd * lo, mean + sd * hi, sd * np.abs(dx[outside]).max()),
            ExtrapolationWarning,
        )
        # only the two end columns have a slope at a clamped boundary
        left, right = np.minimum(dx, 0.0), np.maximum(dx, 0.0)
        slope_lo, slope_hi = 3.0 / (t[_DEGREE + 1] - lo), 3.0 / (hi - t[-_DEGREE - 2])
        b[:, 0] -= slope_lo * left
        b[:, 1] += slope_lo * left
        b[:, -2] -= slope_hi * right
        b[:, -1] += slope_hi * right
    return b


# -- formula parsing ---------------------------------------------------------

@dataclass(frozen=True)
class LinTerm:
    name: str


@dataclass(frozen=True)
class InterTerm:
    left: str
    right: str


@dataclass(frozen=True)
class SmoothTerm:
    name: str
    by: str | None = None
    K: tuple = (0,)


@dataclass(frozen=True)
class DesignSpec:
    response: str
    terms: tuple


def _split_top(text: str, sep: str) -> list:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_smooth(body: str) -> SmoothTerm:
    args = [a.strip() for a in _split_top(body, ",")]
    if not args or not _NAME_RE.match(args[0]):
        raise ConfigError("f(...) needs a covariate name first: f(%s)" % body)
    name, by, kspec = args[0], None, (0,)
    for arg in args[1:]:
        if "=" not in arg:
            raise ConfigError("unrecognised f(...) argument %r" % arg)
        key, _, val = arg.partition("=")
        key, val = key.strip(), val.strip()
        if key == "by":
            if not _NAME_RE.match(val):
                raise ConfigError("bad by= factor name %r" % val)
            by = val
        elif key == "K":
            if val.startswith("(") and val.endswith(")"):
                items = [v.strip() for v in val[1:-1].split(",") if v.strip()]
            else:
                items = [val]
            try:
                kspec = tuple(int(v) for v in items)
            except ValueError:
                raise ConfigError("bad K= value %r" % val) from None
        else:
            raise ConfigError("unrecognised f(...) argument %r" % key)
    return SmoothTerm(name=name, by=by, K=kspec)


def parse_formula(text: str) -> DesignSpec:
    """Parse 'response ~ term + term + ...' into a DesignSpec."""
    if "~" not in text:
        raise ConfigError("formula needs '~': %r" % text)
    lhs, _, rhs = text.partition("~")
    response = lhs.strip()
    if not _NAME_RE.match(response):
        raise ConfigError("bad response name %r" % response)
    terms: list = []
    for raw in _split_top(rhs, "+"):
        term = raw.strip()
        if not term:
            raise ConfigError("empty term in formula %r" % text)
        if term == "1":
            continue
        m = re.match(r"^f\((.*)\)$", term)
        if m:
            terms.append(_parse_smooth(m.group(1)))
            continue
        if "*" in term:
            a, _, b = term.partition("*")
            a, b = a.strip(), b.strip()
            if not (_NAME_RE.match(a) and _NAME_RE.match(b)):
                raise ConfigError("bad product term %r" % term)
            terms.extend([LinTerm(a), LinTerm(b), InterTerm(a, b)])
            continue
        if ":" in term:
            a, _, b = term.partition(":")
            a, b = a.strip(), b.strip()
            if not (_NAME_RE.match(a) and _NAME_RE.match(b)):
                raise ConfigError("bad interaction term %r" % term)
            terms.append(InterTerm(a, b))
            continue
        if not _NAME_RE.match(term):
            raise ConfigError("bad term %r" % term)
        terms.append(LinTerm(term))
    return DesignSpec(response=response, terms=tuple(terms))


def spec_is_linear(spec: DesignSpec) -> bool:
    """True when the design has no smooth blocks (coefficient summaries apply)."""
    return not any(isinstance(t, SmoothTerm) for t in spec.terms)


# -- design assembly ---------------------------------------------------------

@dataclass(frozen=True)
class FittedDesign:
    """Training-time encodings needed to rebuild the design for new data."""

    spec: DesignSpec
    levels: dict  # categorical name -> level tuple
    splines: dict  # smooth key -> list of (level or None, SplineSpec)
    labels: tuple = field(default=())
    scales: dict = field(default_factory=dict)  # standardised covariate -> (mean, sd)

    def rows(self, frame) -> np.ndarray:
        """The design of raw prediction rows: standardised and encoded as in training."""
        return build_design(frame, self.spec, self)[0]


def _get_column(frame: dict, name: str) -> Column:
    if name not in frame:
        raise MissingColumnError("column %r not found" % name)
    col = frame[name]
    if not isinstance(col, Column):
        col = Column(np.asarray(col, dtype=float))
    return col


def _encode_simple(frame, name, fitted_levels):
    """Columns and labels for one non-smooth variable (dummy or identity)."""
    col = _get_column(frame, name)
    if name in fitted_levels:
        levels = fitted_levels[name]
        if len(levels) < 2:
            raise DataError("factor %r has the one level %r; contrasts need 2 or more levels"
                            % (name, levels[0]))
        vals = col.values
        for v in vals:
            if str(v) not in levels:
                raise UnknownLevelError("level %r of %r unseen in training" % (v, name))
        cols = [(np.asarray(vals == lv, dtype=float)) for lv in levels[1:]]
        labels = ["%s%s" % (name, lv) for lv in levels[1:]]
        return cols, labels
    if col.is_categorical:
        raise UnknownLevelError("categorical column %r lacks training levels" % name)
    return [np.asarray(col.values, dtype=float)], [name]


def _smooth_key(term: SmoothTerm) -> str:
    return "f(%s|%s)" % (term.name, term.by or "")


def build_design(frame, spec: DesignSpec, fitted: FittedDesign | None = None,
                 scales: dict | None = None):
    """Assemble (Z, labels, fitted) for a covariate frame.

    When fitted is supplied (prediction), training levels, knots, and
    boundaries are reused, so a frame equal to a training row reproduces
    that design row exactly. scales (by default fitted's) maps each
    covariate to standardise to its (mean, sd): its continuous column
    enters as (x - mean) / sd, and extrapolation warnings give raw values.
    """
    if hasattr(frame, "columns"):
        frame = frame.columns
    if scales is None:
        scales = fitted.scales if fitted is not None else {}
    frame = dict(frame)
    for name, (mean, sd) in scales.items():
        if name in frame and not _get_column(frame, name).is_categorical:
            frame[name] = Column((_get_column(frame, name).values - mean) / sd)
    n = None
    for col in frame.values():
        n = len(col.values if isinstance(col, Column) else col)
        break
    if n is None:
        # intercept-only designs never look at the frame width
        raise DataError("cannot size an intercept-only design from an empty frame")

    training = fitted is None
    if training:
        levels = {}
        for term in spec.terms:
            names = []
            if isinstance(term, LinTerm):
                names = [term.name]
            elif isinstance(term, InterTerm):
                names = [term.left, term.right]
            elif isinstance(term, SmoothTerm):
                names = [term.name] + ([term.by] if term.by else [])
            for nm in names:
                col = _get_column(frame, nm)
                if col.is_categorical and nm not in levels:
                    levels[nm] = tuple(col.levels)
        splines = {}
    else:
        levels = fitted.levels
        splines = fitted.splines

    blocks = [np.ones((n, 1))]
    labels = ["(Intercept)"]

    for term in spec.terms:
        if isinstance(term, LinTerm):
            cols, labs = _encode_simple(frame, term.name, levels)
            blocks.append(np.column_stack(cols))
            labels.extend(labs)
        elif isinstance(term, InterTerm):
            lcols, llabs = _encode_simple(frame, term.left, levels)
            rcols, rlabs = _encode_simple(frame, term.right, levels)
            prod = [lc * rc for lc in lcols for rc in rcols]
            labs = ["%s:%s" % (ll, rl) for ll in llabs for rl in rlabs]
            blocks.append(np.column_stack(prod))
            labels.extend(labs)
        elif isinstance(term, SmoothTerm):
            xcol = _get_column(frame, term.name)
            if xcol.is_categorical:
                raise DataError("smooth term needs a continuous covariate: %r" % term.name)
            x = np.asarray(xcol.values, dtype=float)
            key = _smooth_key(term)
            scale = scales.get(term.name, (0.0, 1.0))
            if term.by is None:
                if training:
                    k = term.K[0] if len(term.K) else 0
                    splines[key] = [(None, spline_spec_from_data(x, k))]
                sspec = splines[key][0][1]
                basis = bspline_design(x, sspec, term.name, scale)
                blocks.append(basis)
                labels.extend(["f(%s):s%d" % (term.name, j + 1) for j in range(basis.shape[1])])
            else:
                bycol = _get_column(frame, term.by)
                if term.by not in levels:
                    raise DataError("by= factor %r must be categorical" % term.by)
                lvl = levels[term.by]
                if training:
                    ks = term.K if len(term.K) > 1 else term.K * len(lvl)
                    if len(ks) != len(lvl):
                        raise ConfigError(
                            "K vector length %d does not match the %d levels of %r"
                            % (len(ks), len(lvl), term.by)
                        )
                    fitted_list = []
                    for lv, k in zip(lvl, ks):
                        mask = bycol.values == lv
                        if not np.any(mask):
                            raise DataError("level %r of %r has no training rows" % (lv, term.by))
                        fitted_list.append((lv, spline_spec_from_data(x[mask], int(k))))
                    splines[key] = fitted_list
                for v in bycol.values:
                    if str(v) not in lvl:
                        raise UnknownLevelError("level %r of %r unseen in training" % (v, term.by))
                for lv, sspec in splines[key]:
                    mask = np.asarray(bycol.values == lv, dtype=float)
                    basis = np.zeros((n, sspec.dim))
                    rows = mask > 0
                    if np.any(rows):
                        basis[rows] = bspline_design(
                            x[rows], sspec, "%s where %s=%s" % (term.name, term.by, lv), scale)
                    blocks.append(basis)
                    labels.extend(
                        ["f(%s):%s%s:s%d" % (term.name, term.by, lv, j + 1) for j in range(sspec.dim)]
                    )
        else:
            raise ConfigError("unrecognised term %r" % (term,))

    z = np.column_stack(blocks) if blocks else np.ones((n, 1))
    if training and z.shape[0] >= z.shape[1]:
        r = scipy.linalg.qr(z, mode="r", pivoting=True)[0]
        diag = np.abs(np.diag(r))
        if diag.size and np.any(diag <= 1e-10 * diag[0]):
            warnings.warn(
                "design matrix has exactly collinear columns; kept as is", CollinearityWarning
            )
    out_fitted = FittedDesign(spec=spec, levels=levels, splines=splines, labels=tuple(labels),
                              scales=scales)
    return z, list(labels), out_fitted
