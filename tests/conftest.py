import numpy as np
import pytest

from rocinfer.generate import simulate_endosyn_like
from rocinfer.ingest import ingest_csv
from rocinfer.sample import Column, DiagnosticSample
from rocinfer.streams import RngStream


def binormal_sample(n_h=200, n_d=200, shift=1.0, seed=0, scale=1.0):
    """Two-group normal marker with a mean shift; no covariates."""
    g = np.random.default_rng(seed)
    y = np.concatenate([g.normal(0, scale, n_h), g.normal(shift, scale, n_d)])
    lab = np.array([0] * n_h + [1] * n_d)
    return DiagnosticSample(marker=y, disease=lab, nondiseased_tag=0)


def covariate_sample(n_h=300, n_d=300, slope=1.0, shift=1.5, seed=0):
    """Marker = slope*x + noise, diseased shifted up; x ~ U(0,1) shared."""
    g = np.random.default_rng(seed)
    x = g.uniform(0.0, 1.0, n_h + n_d)
    eps = g.normal(0.0, 1.0, n_h + n_d)
    y = slope * x + eps
    y[n_h:] += shift
    lab = np.array([0] * n_h + [1] * n_d)
    return DiagnosticSample(
        marker=y, disease=lab, nondiseased_tag=0,
        covariates={"x": Column(x)},
    )


def study_sample(directory):
    """`rocinfer simulate --n 2840 --seed 2026` output (2149 healthy, 691 diseased), read from a
    CSV written under directory."""
    path = directory / "study.csv"
    path.write_text(simulate_endosyn_like(2840, 2026))
    return ingest_csv(str(path), marker="bmi", group="cvd_idf", tag="0")


def replicate_blocks(seed, B, sizes) -> list:
    """The index arrays of B case-bootstrap replicates in blocks of 64, one (b, n) array per n
    in sizes: replicate k draws one vector per size in turn from stream 100 + k."""
    blocks = []
    for c in range(0, B, 64):
        gens = [RngStream(seed, 100 + k).generator for k in range(c, min(c + 64, B))]
        blocks.append([np.array(col) for col in zip(*([g.integers(0, n, n) for n in sizes]
                                                       for g in gens))])
    return blocks


@pytest.fixture
def rng():
    return np.random.default_rng(42)
