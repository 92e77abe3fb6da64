"""Seedable random streams and the samplers the Bayesian methods need.

A stream is identified by (seed, stream_id). Streams with distinct ids are
statistically independent and their draw sequences do not depend on how
many workers execute them, which is what makes parallel bootstrap and MCMC
runs reproducible: replicate k always uses stream_id k regardless of
scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
from .errors import BadAlphaError, BadStickError, DimMismatchError, NotSPDError


class RngStream:
    """A reproducible random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs give identical draw sequences on any
    platform; distinct stream_ids give independent streams (PCG64 seeded
    through SeedSequence spawn keys).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def stream(self, stream_id: int) -> "RngStream":
        """A sibling stream under the same seed."""
        return RngStream(self.seed, stream_id)

    def __repr__(self):
        return "RngStream(seed=%d, stream_id=%d)" % (self.seed, self.stream_id)


def _gen(rng) -> np.random.Generator:
    return rng.generator if isinstance(rng, RngStream) else rng


def parallel_map(fn, items, workers: int = 1) -> list:
    """Map fn over items, optionally on a thread pool.

    Results come back in item order, so reductions are deterministic no
    matter how many workers run. fn must not share mutable state between
    items beyond its own stream.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, items))


def dirichlet(alpha, rng, size: int | None = None) -> np.ndarray:
    """Flat Dirichlet draws via normalised gammas.

    alpha is a vector of one positive finite value repeated k times.
    Returns one probability vector, or a (size, k) matrix when size is
    given. Components are positive and each row sums to one. The gammas
    fill the matrix in row-major order, so `size` rows equal the same
    rows drawn in consecutive chunks.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0 or np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
        raise BadAlphaError("dirichlet needs a vector of positive finite alphas")
    if np.any(alpha != alpha[0]):
        raise BadAlphaError("dirichlet draws only a flat alpha")
    g = _gen(rng)
    shape = (alpha.size,) if size is None else (int(size), alpha.size)
    draws = g.standard_gamma(alpha[0], size=shape)
    total = draws.sum(axis=-1, keepdims=True)
    # all-zero rows cannot occur for alpha >= machine-scale; guard anyway
    bad = total[..., 0] == 0.0
    if np.any(bad):
        draws[bad] = 1.0
        total = draws.sum(axis=-1, keepdims=True)
    draws /= total
    return draws


def stick_breaking(v) -> np.ndarray:
    """Weights from stick-breaking proportions.

    v has the last entry forced to 1 so the weights telescope to sum one.
    Accepts a vector or a matrix of row-wise proportion vectors.
    """
    v = np.asarray(v, dtype=float)
    # fmin/fmax skip NaN as the elementwise comparisons do; a NaN or inf
    # last entry fails the distance test as np.allclose would
    if v.size == 0 or np.fmin.reduce(v, axis=None) < 0 or np.fmax.reduce(v, axis=None) > 1:
        raise BadStickError("stick proportions must lie in [0,1]")
    if not np.abs(v[..., -1] - 1.0).max() <= 1e-12:
        raise BadStickError("last stick proportion must equal 1")
    return _stick_weights(v)


def _stick_weights(v) -> np.ndarray:
    """stick_breaking's weights without its checks, for a float array v already in [0, 1]
    with last entries 1 (the Gibbs sweeps' own sticks)."""
    ones = np.ones(v.shape[:-1] + (1,))
    surv = np.cumprod(1.0 - v[..., :-1], axis=-1)
    return v * np.concatenate([ones, surv], axis=-1)


@lru_cache(maxsize=None)
def _strict_lower(d: int) -> tuple:
    """np.tril_indices(d, -1), built once per dimension (it costs a third of a q = 3 draw)."""
    return np.tril_indices(d, -1)


def wishart(nu: float, scale: np.ndarray, rng) -> np.ndarray:
    """Wishart draw by Bartlett decomposition; E[draw] = nu * scale."""
    scale = np.asarray(scale, dtype=float)
    if scale.ndim != 2 or scale.shape[0] != scale.shape[1]:
        raise DimMismatchError("scale must be a square matrix")
    d = scale.shape[0]
    if nu <= d - 1:
        raise NotSPDError("wishart needs nu > dim - 1")
    # mirrored entries must be equal (equal infinities included) or within 1e-10
    asym = scale != scale.T
    if not np.abs(scale[asym] - scale.T[asym]).max(initial=0.0) <= 1e-10:
        raise NotSPDError("scale must be symmetric")
    try:
        lower = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError:
        raise NotSPDError("scale must be positive definite") from None
    g = _gen(rng)
    bart = np.zeros((d, d))
    # diagonal: sqrt of chi-square with decreasing degrees of freedom
    dof = nu - np.arange(d)
    bart[np.diag_indices(d)] = np.sqrt(g.gamma(dof / 2.0, 2.0))
    if d > 1:
        idx = _strict_lower(d)
        bart[idx] = g.standard_normal(len(idx[0]))
    root = lower @ bart
    return root @ root.T

