import numpy as np
import pytest

import tape_reference as tape
from rpg.errors import NonFiniteField
from rpg.metric import (MetricPoint, bilinear_form, inverse_apply,
                        metric_det, metric_matrix)
from rpg.rng import RngStream
from tape_reference import DiffGraph


def test_metric_matrix_zero_factor():
    assert np.array_equal(metric_matrix(MetricPoint(np.zeros(3))), np.eye(3))


def test_metric_matrix_example():
    m = metric_matrix(MetricPoint(np.array([1.0, 2.0])))
    assert np.array_equal(m, np.array([[2.0, 2.0], [2.0, 5.0]]))


def test_metric_dominates_euclidean_quadratic_form():
    rng = RngStream(1)
    u = rng.normal(size=8)
    g = metric_matrix(MetricPoint(u))
    for _ in range(100):
        x = rng.normal(size=8)
        assert x @ g @ x >= x @ x - 1e-12


def test_det_zero_factor():
    assert metric_det(MetricPoint(np.zeros(4))) == 1.0


def test_det_example():
    assert metric_det(MetricPoint(np.array([1.0, 2.0]))) == pytest.approx(6.0)


def test_det_matches_dense_oracle():
    rng = RngStream(2)
    for _ in range(10):
        u = rng.normal(size=12)
        mp = MetricPoint(u)
        dense = np.linalg.det(metric_matrix(mp))
        assert metric_det(mp) == pytest.approx(dense, rel=1e-10)


def test_inverse_apply_zero_factor_is_identity():
    x = np.array([0.3, -0.7, 2.0])
    out = inverse_apply(MetricPoint(np.zeros(3)), x)
    assert np.array_equal(out, x)  # bitwise: the correction term is exactly 0


def test_inverse_apply_closed_form():
    out = inverse_apply(MetricPoint(np.array([1.0, 0.0])), np.array([1.0, 0.0]))
    assert np.allclose(out, [0.5, 0.0], atol=0)


def test_inverse_apply_matches_numpy_inverse():
    rng = RngStream(3)
    for _ in range(10):
        u = rng.normal(size=16)
        x = rng.normal(size=16)
        mp = MetricPoint(u)
        dense = np.linalg.inv(metric_matrix(mp)) @ x
        assert np.max(np.abs(inverse_apply(mp, x) - dense)) <= 1e-10


def test_inverse_apply_round_trip():
    rng = RngStream(4)
    u = rng.normal(size=10)
    x = rng.normal(size=10)
    mp = MetricPoint(u)
    assert np.max(np.abs(inverse_apply(mp, metric_matrix(mp) @ x) - x)) <= 1e-10


def test_regularized_gradient_properties():
    """J = G^-1 grad, the metric-regularized gradient, via inverse_apply."""
    rng = RngStream(5)
    u = rng.normal(size=6)
    grad = rng.normal(size=6)
    mp = MetricPoint(u)
    j = inverse_apply(mp, grad)
    # Unique solution of G y = grad.
    assert np.max(np.abs(metric_matrix(mp) @ j - grad)) <= 1e-12
    # Perpendicular factor leaves the gradient untouched.
    u_perp = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    g_perp = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(
        inverse_apply(MetricPoint(u_perp), g_perp), g_perp)


def test_bilinear_form_examples():
    assert bilinear_form(MetricPoint(np.zeros(2)),
                         np.array([1.0, 2.0]),
                         np.array([3.0, 4.0])) == pytest.approx(11.0)
    e0 = np.array([1.0, 0.0])
    assert bilinear_form(MetricPoint(e0), e0, e0) == pytest.approx(2.0)


def test_bilinear_form_matches_dense():
    rng = RngStream(6)
    u = rng.normal(size=16)
    x = rng.normal(size=16)
    y = rng.normal(size=16)
    mp = MetricPoint(u)
    assert bilinear_form(mp, x, y) == pytest.approx(
        float(x @ metric_matrix(mp) @ y), rel=1e-12)


def test_batched_rows_match_single_points():
    rng = RngStream(7)
    us = rng.normal(size=(5, 6))
    xs = rng.normal(size=(5, 6))
    batched = inverse_apply(MetricPoint(us), xs)
    dets = metric_det(MetricPoint(us))
    forms = bilinear_form(MetricPoint(us), xs, xs)
    for k in range(5):
        mp = MetricPoint(us[k])
        assert np.allclose(batched[k], inverse_apply(mp, xs[k]), atol=1e-14)
        assert dets[k] == pytest.approx(metric_det(mp))
        assert forms[k] == pytest.approx(bilinear_form(mp, xs[k], xs[k]))


def test_non_finite_factor_rejected():
    with pytest.raises(NonFiniteField):
        MetricPoint(np.array([1.0, np.nan]))


def test_tape_gradient_through_inverse_apply():
    # d/du of (G^-1 x) . w matches finite differences, through the tape
    # form of inverse_apply that the reference loss is built on.
    rng = RngStream(8)
    u0 = rng.normal(size=5)
    x = rng.normal(size=5)
    w = rng.normal(size=5)

    def forward(u):
        return float(inverse_apply(MetricPoint(u), x) @ w)

    g = DiffGraph()
    u = g.leaf(u0)
    out = tape.reduce_sum(tape.mul(tape.inverse_apply(u, x), w))
    auto = g.leaf_gradients(out)[0]
    step = 1e-6
    numeric = np.zeros(5)
    for k in range(5):
        bump = np.zeros(5)
        bump[k] = step
        numeric[k] = (forward(u0 + bump) - forward(u0 - bump)) / (2 * step)
    assert np.max(np.abs(auto - numeric)) <= 1e-6
