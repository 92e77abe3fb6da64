"""Canonical data model: samples, groups, grids, standardisation.

All containers are immutable after construction (arrays are frozen), so
they are safe to share across worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadGridError, DataError, EmptyGroupError, ZeroVarianceError


def _frozen(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Column:
    """One covariate column: continuous floats, or categorical with levels.

    Categorical levels keep first-appearance order; dummy coding and
    per-level smooth blocks follow that order.
    """

    values: np.ndarray
    levels: tuple | None = None

    def __post_init__(self):
        if self.levels is None:
            object.__setattr__(self, "values", _frozen(self.values, dtype=float))
        else:
            vals = _frozen(self.values, dtype=object)
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "levels", tuple(self.levels))
            known = set(self.levels)
            for v in vals:
                if v not in known:
                    raise DataError("categorical value %r not among declared levels" % (v,))

    @property
    def is_categorical(self) -> bool:
        return self.levels is not None

    def take(self, idx) -> "Column":
        return Column(self.values[idx], self.levels)


def column_from_values(values) -> Column:
    """Build a Column, inferring categorical levels in first-appearance order."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fiub":
        return Column(arr.astype(float))
    levels: list = []
    seen = set()
    for v in arr:
        s = str(v)
        if s not in seen:
            seen.add(s)
            levels.append(s)
    return Column(np.array([str(v) for v in arr], dtype=object), tuple(levels))


@dataclass(frozen=True)
class DiagnosticSample:
    """Marker values, disease labels, and covariates for both groups."""

    marker: np.ndarray
    disease: np.ndarray
    nondiseased_tag: object
    covariates: dict = field(default_factory=dict)
    missing: int = 0

    def __post_init__(self):
        marker = _frozen(self.marker, dtype=float)
        disease = _frozen(np.asarray(self.disease))
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "disease", disease)
        if marker.ndim != 1 or disease.shape != marker.shape:
            raise DataError("marker and disease must be equal-length vectors")
        if not np.all(np.isfinite(marker)):
            raise DataError("marker contains non-finite values after ingestion")
        labels = {v for v in disease.tolist()}
        others = labels - {self.nondiseased_tag}
        if len(others) > 1:
            raise DataError(
                "disease column must hold the tag plus one other value, got %r" % sorted(map(str, labels))
            )
        for name, col in self.covariates.items():
            if len(col.values) != marker.size:
                raise DataError("covariate %r length differs from marker" % name)

    @property
    def n(self) -> int:
        return int(self.marker.size)

    @property
    def is_healthy(self) -> np.ndarray:
        return _frozen(self.disease == self.nondiseased_tag, dtype=bool)


@dataclass(frozen=True)
class GroupSplit:
    healthy: np.ndarray
    diseased: np.ndarray
    healthy_cov: dict
    diseased_cov: dict
    n_h: int
    n_d: int


def split_groups(sample: DiagnosticSample) -> GroupSplit:
    """Partition marker and covariates by disease label, orders preserved."""
    mask = sample.is_healthy
    n_h = int(mask.sum())
    n_d = sample.n - n_h
    if n_h == 0 or n_d == 0:
        raise EmptyGroupError(
            "both groups must be nonempty (healthy %d, diseased %d)" % (n_h, n_d)
        )
    inv = ~mask
    healthy_cov = {k: c.take(mask) for k, c in sample.covariates.items()}
    diseased_cov = {k: c.take(inv) for k, c in sample.covariates.items()}
    return GroupSplit(
        healthy=_frozen(sample.marker[mask]),
        diseased=_frozen(sample.marker[inv]),
        healthy_cov=healthy_cov,
        diseased_cov=diseased_cov,
        n_h=n_h,
        n_d=n_d,
    )


@dataclass(frozen=True)
class StandardisationParams:
    """Affine maps used to put marker/covariates on a standardised scale.

    Statistics are computed over the combined sample (both groups) with
    the n-1 standard deviation. Every threshold, density grid, and
    coefficient summary is reported back on the original scale.
    """

    marker_mean: float = 0.0
    marker_sd: float = 1.0
    covariates: dict = field(default_factory=dict)  # name -> (mean, sd)
    enabled: bool = False


def standardise(sample: DiagnosticSample, enable: bool = True):
    """Centre/scale marker and continuous covariates over the combined sample.

    Returns the transformed sample and the parameters needed to map
    results back. With enable=False the identity transform is returned.
    """
    if not enable:
        return sample, StandardisationParams()
    mean = float(np.mean(sample.marker))
    sd = float(np.std(sample.marker, ddof=1)) if sample.n > 1 else 0.0
    if sd == 0.0:
        raise ZeroVarianceError("marker has zero variance; cannot standardise")
    cov_params = {}
    new_cov = {}
    for name, col in sample.covariates.items():
        if col.is_categorical:
            new_cov[name] = col
            continue
        m = float(np.mean(col.values))
        s = float(np.std(col.values, ddof=1)) if len(col.values) > 1 else 0.0
        if s == 0.0:
            raise ZeroVarianceError("covariate %r has zero variance" % name)
        cov_params[name] = (m, s)
        new_cov[name] = Column((col.values - m) / s)
    std_sample = DiagnosticSample(
        marker=(sample.marker - mean) / sd,
        disease=sample.disease,
        nondiseased_tag=sample.nondiseased_tag,
        covariates=new_cov,
        missing=sample.missing,
    )
    params = StandardisationParams(mean, sd, cov_params, enabled=True)
    return std_sample, params


@dataclass(frozen=True)
class FpfGrid:
    """Strictly increasing false positive fractions from 0 to 1."""

    p: np.ndarray

    def __post_init__(self):
        p = _frozen(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size < 2:
            raise BadGridError("grid needs at least two points")
        if p[0] != 0.0 or p[-1] != 1.0 or np.any(np.diff(p) <= 0):
            raise BadGridError("grid must increase strictly from 0 to 1")

    @classmethod
    def default(cls, length: int = 101) -> "FpfGrid":
        return cls(np.linspace(0.0, 1.0, int(length)))

    def __len__(self):
        return self.p.size


@dataclass(frozen=True)
class PredictionFrame:
    """Covariate rows at which conditional quantities are evaluated."""

    columns: dict

    def __post_init__(self):
        lengths = {len(c.values) for c in self.columns.values()}
        if len(lengths) > 1:
            raise DataError("prediction columns must share one length")

    @property
    def n(self) -> int:
        for c in self.columns.values():
            return len(c.values)
        return 0
