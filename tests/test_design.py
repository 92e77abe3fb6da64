import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rocinfer.design import (
    build_design,
    parse_formula,
    quantile_knots,
    spec_is_linear,
)
from rocinfer.errors import (
    CollinearityWarning,
    ConfigError,
    DataError,
    ExtrapolationWarning,
    MissingColumnError,
    TooFewPointsError,
    UnknownLevelError,
)
from rocinfer.sample import Column, PredictionFrame, column_from_values


def _frame(n=60, seed=0):
    g = np.random.default_rng(seed)
    return {
        "x": Column(g.uniform(0.0, 10.0, n)),
        "z": Column(g.normal(size=n)),
        "g": column_from_values(np.where(g.uniform(size=n) < 0.5, "A", "B")),
    }


def test_quantile_knots_frozen_values():
    np.testing.assert_allclose(
        quantile_knots(np.arange(1.0, 101.0), 3), [25.75, 50.5, 75.25]
    )


def test_quantile_knots_need_enough_distinct_values():
    with pytest.raises(TooFewPointsError):
        quantile_knots(np.array([1.0, 1.0, 2.0]), 3)


def test_linear_formula_builds_intercept_dummy_and_slope():
    g = np.random.default_rng(0)
    frame = {"x": Column(g.uniform(0.0, 10.0, 20)),
             "g": column_from_values(["A", "B"] * 10)}
    Z, labels, fitted = build_design(frame, parse_formula("y ~ x + g"))
    assert list(labels) == ["(Intercept)", "x", "gB"]
    np.testing.assert_array_equal(Z[:, 0], 1.0)
    np.testing.assert_array_equal(Z[:, 1], frame["x"].values)
    np.testing.assert_array_equal(Z[:, 2], (frame["g"].values == "B").astype(float))


def test_reference_level_is_first_appearance():
    frame = {"g": column_from_values(["B", "A", "B", "A"])}
    Z, labels, _ = build_design(frame, parse_formula("y ~ g"))
    # B appeared first, so A gets the dummy
    assert list(labels) == ["(Intercept)", "gA"]
    np.testing.assert_array_equal(Z[:, 1], [0.0, 1.0, 0.0, 1.0])


def test_by_level_smooth_block_has_k_plus_four_columns_per_level():
    frame = _frame(n=120)
    Z, labels, _ = build_design(frame, parse_formula("y ~ g + f(x, by=g, K=(3,5))"))
    assert Z.shape[1] == 18  # 1 + 1 + (3+4) + (5+4)
    assert list(labels[:2]) == ["(Intercept)", "gB"]
    assert sum(lab.startswith("f(x):gA") for lab in labels) == 7
    assert sum(lab.startswith("f(x):gB") for lab in labels) == 9


def test_smooth_columns_sum_to_one_within_level():
    """Clamped cubic bases are a partition of unity on the data range."""
    frame = _frame(n=90, seed=3)
    with pytest.warns(CollinearityWarning):
        Z, labels, _ = build_design(frame, parse_formula("y ~ f(x, K=4)"))
    block = [j for j, lab in enumerate(labels) if lab.startswith("f(x)")]
    np.testing.assert_allclose(Z[:, block].sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6))
def test_partition_of_unity_for_random_draws(k):
    g = np.random.default_rng(k)
    frame = {"x": Column(np.sort(g.uniform(-3.0, 5.0, 40 + 10 * k)))}
    with pytest.warns(CollinearityWarning):
        Z, labels, _ = build_design(frame, parse_formula("y ~ f(x, K=%d)" % k))
    block = [j for j, lab in enumerate(labels) if lab.startswith("f(x)")]
    np.testing.assert_allclose(Z[:, block].sum(axis=1), 1.0, atol=1e-9)


def test_exact_duplicate_column_warns_but_stays():
    x = np.arange(10.0)
    frame = {"x": Column(x), "z": Column(x)}
    with pytest.warns(CollinearityWarning):
        Z, labels, _ = build_design(frame, parse_formula("y ~ x + z"))
    assert Z.shape[1] == 3


def test_prediction_reuses_training_encodings():
    frame = {"x": Column(np.linspace(0.0, 4.0, 20)),
             "g": column_from_values(["A", "B"] * 10)}
    spec = parse_formula("y ~ x + g")
    newdata = PredictionFrame({"x": Column([2.0]), "g": column_from_values(["B"])})
    for scales in (None, {"x": (1.5, 0.75)}):
        Z_train, _, fitted = build_design(frame, spec, scales=scales)
        assert fitted.scales == (scales or {})
        # the fitted design standardises raw rows as in training: its rows are the training design
        assert np.array_equal(fitted.rows(frame), Z_train)
        mean, sd = (scales or {"x": (0.0, 1.0)})["x"]
        np.testing.assert_array_equal(Z_train[:, 1], (frame["x"].values - mean) / sd)
        Z, labels, _ = build_design(newdata, spec, fitted=fitted)
        assert Z.shape == (1, 3)
        assert Z[0, 1] == (2.0 - mean) / sd
        assert Z[0, 2] == 1.0
        assert np.array_equal(fitted.rows(newdata), Z)


def test_unknown_level_in_prediction_is_rejected():
    frame = _frame(seed=2)
    spec = parse_formula("y ~ g")
    _, _, fitted = build_design(frame, spec)
    bad = PredictionFrame({"g": column_from_values(["C"])})
    with pytest.raises(UnknownLevelError):
        build_design(bad, spec, fitted=fitted)


def test_out_of_range_smooth_prediction_continues_linearly():
    g = np.random.default_rng(5)
    frame = {"x": Column(g.uniform(0.0, 1.0, 50))}
    spec = parse_formula("y ~ f(x, K=2)")
    with pytest.warns(CollinearityWarning):
        _, _, fitted = build_design(frame, spec)
    (_, sspec), = fitted.splines["f(x|)"]
    lo, hi = sspec.boundary
    t = sspec.knot_vector
    at = lambda x: build_design({"x": Column(np.atleast_1d(x))}, spec, fitted=fitted)[0]
    inside = at(np.array([lo, hi]))
    with pytest.warns(ExtrapolationWarning, match=r"2 covariate value\(s\).*up to 1\.5 past"):
        Z = at(np.array([lo - 0.5, hi + 1.5]))
    # intercept column, then the basis: only the two end columns move, by
    # their boundary slopes -+3/(t[4] - lo) and -+3/(hi - t[-5])
    step = np.zeros_like(inside)
    step[0, 1:3] = np.array([-1.0, 1.0]) * 3.0 / (t[4] - lo) * -0.5
    step[1, -2:] = np.array([-1.0, 1.0]) * 3.0 / (hi - t[-5]) * 1.5
    np.testing.assert_allclose(Z, inside + step, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Z[:, 1:].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # linear: the midpoint of two outside points is the mean of their rows
    with pytest.warns(ExtrapolationWarning, match="3 covariate"):
        far = at(np.array([hi + 1.0, hi + 3.0, hi + 2.0]))
    np.testing.assert_allclose(far[2], far[:2].mean(axis=0), rtol=0, atol=1e-12)


def test_missing_column_and_empty_frame_errors():
    spec = parse_formula("y ~ x")
    with pytest.raises(MissingColumnError):
        build_design({"z": Column([1.0, 2.0])}, spec)
    with pytest.raises(DataError):
        build_design({}, spec)


def test_formula_grammar_errors():
    for bad in ("y x", "y ~", "y ~ f(x, K=(3,))junk", "~ x"):
        with pytest.raises(ConfigError):
            parse_formula(bad)


def test_linearity_predicate():
    assert spec_is_linear(parse_formula("y ~ x + g"))
    assert not spec_is_linear(parse_formula("y ~ f(x, K=3)"))


def test_interaction_column():
    frame = _frame(n=40, seed=7)
    Z, labels, _ = build_design(frame, parse_formula("y ~ x + g + x:g"))
    j = list(labels).index("x:gB")
    mask = frame["g"].values == "B"
    np.testing.assert_array_equal(Z[:, j], frame["x"].values * mask)
