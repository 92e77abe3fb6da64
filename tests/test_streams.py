import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rocinfer.errors import BadAlphaError, BadStickError, NotSPDError
from rocinfer.streams import (
    RngStream,
    dirichlet,
    parallel_map,
    stick_breaking,
    wishart,
)


def test_same_seed_and_stream_reproduce_draws():
    a = RngStream(7, 3).generator.uniform(size=10)
    b = RngStream(7, 3).generator.uniform(size=10)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(7, 1).generator.uniform(size=10)
    b = RngStream(7, 2).generator.uniform(size=10)
    assert not np.array_equal(a, b)


def test_sibling_stream_matches_direct_construction():
    assert np.array_equal(
        RngStream(5).stream(9).generator.standard_normal(4),
        RngStream(5, 9).generator.standard_normal(4),
    )


def test_parallel_map_keeps_item_order_for_any_worker_count():
    items = list(range(40))
    expect = [i * i for i in items]
    assert parallel_map(lambda i: i * i, items, workers=1) == expect
    assert parallel_map(lambda i: i * i, items, workers=8) == expect


def test_dirichlet_rows_are_distributions():
    w = dirichlet(np.ones(5), RngStream(0), size=200)
    assert w.shape == (200, 5)
    assert np.all(w > 0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 2.5])
def test_flat_dirichlet_equals_the_per_element_gamma_draws(alpha):
    """A flat alpha takes one scalar-shape standard_gamma call: bitwise the
    per-element gamma(broadcast alpha, 1) draws, leaving the same state."""
    a, b = RngStream(8).generator, RngStream(8).generator
    got = dirichlet(np.full(37, alpha), a, size=23)
    draws = b.gamma(np.broadcast_to(np.full(37, alpha), (23, 37)), 1.0)
    assert np.array_equal(got, draws / draws.sum(axis=1, keepdims=True))
    assert a.bit_generator.state == b.bit_generator.state


def test_dirichlet_rows_equal_the_same_rows_drawn_in_chunks():
    whole = dirichlet(np.ones(41), RngStream(9), size=150)
    gen = RngStream(9).generator
    chunks = [dirichlet(np.ones(41), gen, size=k) for k in (64, 44, 1, 41)]
    assert np.array_equal(whole, np.concatenate(chunks))


def test_dirichlet_rejects_bad_alpha():
    with pytest.raises(BadAlphaError):
        dirichlet([1.0, 0.0], RngStream(0))
    with pytest.raises(BadAlphaError):
        dirichlet([], RngStream(0))
    with pytest.raises(BadAlphaError):
        dirichlet([1.0, 2.0], RngStream(0))


def test_stick_breaking_hand_case():
    # v = (1/2, 1/2, 1) telescopes to (1/2, 1/4, 1/4)
    np.testing.assert_allclose(stick_breaking([0.5, 0.5, 1.0]), [0.5, 0.25, 0.25])


def test_stick_breaking_needs_terminal_one():
    with pytest.raises(BadStickError):
        stick_breaking([0.5, 0.5])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
def test_stick_breaking_weights_form_a_distribution(v):
    w = stick_breaking(np.append(v, 1.0))
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-9


def test_wishart_mean_scales_with_dof():
    scale = np.array([[2.0, 0.3], [0.3, 1.0]])
    stream = RngStream(1)
    draws = np.mean([wishart(6.0, scale, stream) for _ in range(2500)], axis=0)
    np.testing.assert_allclose(draws, 6.0 * scale, atol=0.35)


def test_wishart_validates_inputs():
    with pytest.raises(NotSPDError):
        wishart(1.0, np.eye(3), RngStream(0))
    with pytest.raises(NotSPDError):
        wishart(5.0, np.array([[1.0, 2.0], [0.0, 1.0]]), RngStream(0))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("v", [
    [0.5, 1.0], [0.0, 1.0 - 5e-13], [0.5, 1.0 + 2e-12], [], [[0.2, 1.0], [0.3, 1.0]],
    [-0.1, 1.0], [1.5, 1.0], [_NAN, 1.0], [0.5, _NAN], [_NAN, _NAN], [-0.1, _NAN],
    [_INF, 1.0], [-_INF, 1.0], [0.5, _INF], [[0.2, 1.0], [0.3, _NAN]],
])
def test_stick_breaking_checks_edge_inputs(v):
    """The checks reject exactly the inputs the np.any/np.allclose forms rejected."""
    a = np.asarray(v, dtype=float)
    if a.size == 0 or np.any(a < 0) or np.any(a > 1):
        expected = "lie in"
    elif not np.allclose(a[..., -1], 1.0, rtol=0, atol=1e-12):
        expected = "must equal 1"
    else:
        expected = None
    if expected is None:
        with np.errstate(invalid="ignore"):
            stick_breaking(a)
    else:
        with pytest.raises(BadStickError, match=expected):
            stick_breaking(a)


@pytest.mark.parametrize("scale", [
    [[2.0, 0.5], [0.5, 2.0]], [[2.0, 0.5], [0.5 + 5e-11, 2.0]], [[2.0, 0.5], [0.5 + 2e-10, 2.0]],
    [[_NAN, 0.0], [0.0, 1.0]], [[1.0, _NAN], [_NAN, 1.0]], [[_INF, 0.0], [0.0, 1.0]],
    [[1.0, _INF], [_INF, 1.0]], [[1.0, _INF], [-_INF, 1.0]], [[1.0, _INF], [0.0, 1.0]],
])
def test_wishart_symmetry_check_edge_inputs(scale):
    a = np.asarray(scale, dtype=float)
    expected = not np.allclose(a, a.T, rtol=0, atol=1e-10)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            wishart(5.0, a, RngStream(0))
        except NotSPDError as exc:
            raised = "symmetric" in str(exc)
        else:
            raised = False
    assert raised == expected
