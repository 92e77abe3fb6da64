import numpy as np
import pytest

from rocinfer.errors import BadGridError, DataError, EmptyGroupError, ZeroVarianceError
from rocinfer.sample import (
    Column,
    DiagnosticSample,
    FpfGrid,
    PredictionFrame,
    column_from_values,
    split_groups,
    standardise,
)


def test_numeric_values_become_a_continuous_column():
    col = column_from_values([1, 2, 3])
    assert not col.is_categorical
    assert col.values.dtype == float


def test_string_levels_keep_first_appearance_order():
    col = column_from_values(["b", "a", "b", "c"])
    assert col.levels == ("b", "a", "c")


def test_column_rejects_undeclared_level():
    with pytest.raises(DataError):
        Column(np.array(["a", "z"], dtype=object), levels=("a", "b"))


def test_sample_validates_shapes_and_labels():
    with pytest.raises(DataError):
        DiagnosticSample(marker=[1.0, 2.0], disease=[0], nondiseased_tag=0)
    with pytest.raises(DataError):
        DiagnosticSample(marker=[1.0, np.nan], disease=[0, 1], nondiseased_tag=0)
    with pytest.raises(DataError):
        DiagnosticSample(marker=[1.0, 2.0, 3.0], disease=[0, 1, 2], nondiseased_tag=0)


def test_split_groups_partitions_in_order():
    s = DiagnosticSample(marker=[5.0, 1.0, 7.0, 2.0], disease=[1, 0, 1, 0], nondiseased_tag=0,
                         covariates={"x": Column([10.0, 20.0, 30.0, 40.0])})
    sp = split_groups(s)
    assert sp.n_h == 2 and sp.n_d == 2
    np.testing.assert_array_equal(sp.healthy, [1.0, 2.0])
    np.testing.assert_array_equal(sp.diseased, [5.0, 7.0])
    np.testing.assert_array_equal(sp.healthy_cov["x"].values, [20.0, 40.0])


def test_split_groups_needs_both_groups():
    s = DiagnosticSample(marker=[1.0, 2.0], disease=[0, 0], nondiseased_tag=0)
    with pytest.raises(EmptyGroupError):
        split_groups(s)


def test_standardise_centres_the_combined_sample():
    s = DiagnosticSample(marker=[1.0, 2.0, 3.0, 10.0], disease=[0, 0, 1, 1], nondiseased_tag=0,
                         covariates={"x": Column([1.0, 2.0, 3.0, 4.0]),
                                     "g": column_from_values(["a", "b", "a", "b"])})
    std_s, params = standardise(s, enable=True)
    assert params.enabled
    assert abs(std_s.marker.mean()) < 1e-12
    assert abs(np.std(std_s.marker, ddof=1) - 1.0) < 1e-12
    # covariates: continuous rescaled, categorical untouched
    assert abs(std_s.covariates["x"].values.mean()) < 1e-12
    assert std_s.covariates["g"].levels == ("a", "b")
    # round trip
    np.testing.assert_allclose(std_s.marker * params.marker_sd + params.marker_mean, s.marker,
                               atol=1e-12)


def test_standardise_disabled_is_identity():
    s = DiagnosticSample(marker=[1.0, 2.0], disease=[0, 1], nondiseased_tag=0)
    std_s, params = standardise(s, enable=False)
    assert not params.enabled
    np.testing.assert_array_equal(std_s.marker, s.marker)


def test_standardise_rejects_constant_marker():
    s = DiagnosticSample(marker=[3.0, 3.0, 3.0], disease=[0, 1, 1], nondiseased_tag=0)
    with pytest.raises(ZeroVarianceError):
        standardise(s, enable=True)


def test_default_grid_runs_zero_to_one():
    grid = FpfGrid.default()
    assert len(grid) == 101
    assert grid.p[0] == 0.0 and grid.p[-1] == 1.0


@pytest.mark.parametrize("bad", [[0.0, 0.5], [0.1, 1.0], [0.0, 0.6, 0.5, 1.0]])
def test_grid_must_increase_from_zero_to_one(bad):
    with pytest.raises(BadGridError):
        FpfGrid(np.array(bad))


def test_prediction_frame_rows():
    f = PredictionFrame({"x": Column([1.0, 2.0]), "g": column_from_values(["a", "b"])})
    assert f.n == 2


def test_prediction_frame_rejects_ragged_columns():
    with pytest.raises(DataError):
        PredictionFrame({"x": Column([1.0]), "y": Column([1.0, 2.0])})
