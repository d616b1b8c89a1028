"""Tests for field-evaluation plumbing: batching, FD steps, probe rows."""

import numpy as np
import pytest

from helpers import probe_rows
from rpg.divergence import divergence_exact, divergence_report
from rpg.errors import BadDimensions, NonFiniteField
from rpg.fields import default_fd_step, eval_points, require_finite
from rpg.metricnet import LayerLayout, MetricNetConfig, init_params
from rpg.rng import RngStream, rademacher_matrix
from rpg.training import TrainConfig, regularize_step


def test_default_step_at_origin():
    assert default_fd_step(np.zeros(4)) == 1e-4


def test_default_step_scales_with_point():
    step = default_fd_step(np.array([1.0, -3.0, 0.5]))
    assert step == pytest.approx(4e-4)


def test_default_step_empty_point():
    assert default_fd_step(np.zeros(0)) == 1e-4


def test_eval_points_batch_capable():
    pts = np.arange(12.0).reshape(4, 3)
    out = eval_points(lambda p: 2.0 * p, pts)
    assert out.shape == (4, 3)
    assert np.array_equal(out, 2.0 * pts)


def test_eval_points_propagates_field_errors():
    """A field that only takes single rows fails; no row-by-row retry."""
    calls = []

    def rows_only(p):
        calls.append(p.shape)
        assert p.ndim == 1
        return np.sin(p)

    with pytest.raises(AssertionError):
        eval_points(rows_only, np.linspace(-1.0, 1.0, 15).reshape(5, 3))
    assert calls == [(5, 3)]


def test_eval_points_constant_field():
    """One vector for every row is not a (B, n) result."""
    const = np.array([0.5, -0.25])
    with pytest.raises(BadDimensions, match=r"\(2,\).*\(3, 2\)"):
        eval_points(lambda p: const, np.zeros((3, 2)))


def test_require_finite_passthrough():
    x = np.array([1.0, 2.0])
    assert require_finite(x, "x") is x


def test_require_finite_rejects_nan():
    with pytest.raises(NonFiniteField):
        require_finite(np.array([1.0, np.nan]), "field")


def test_evaluator_checks_gradients():
    """One infinite gradient row is enough to refuse the estimate."""
    def grad_fn(p):
        out = p.copy()
        out[0] = np.inf
        return out

    with pytest.raises(NonFiniteField):
        divergence_exact(grad_fn, np.zeros_like, np.ones(2))


def test_evaluator_factors_shape():
    """A u_fn whose rows are not shaped like its points is refused."""
    with pytest.raises(BadDimensions):
        divergence_report(lambda p: 0.1 * p[:, :-1],
                          probe_rows(lambda p: p, np.ones(3), 4),
                          np.zeros(3))


def test_probe_config_validation():
    """A probe count of 0 is refused by the config and by the probe draw."""
    with pytest.raises(ValueError):
        TrainConfig(probe_count=0)
    with pytest.raises(ValueError):
        rademacher_matrix(RngStream(0), 0, 4)


def test_probe_config_step_auto():
    """Probe rows sit at theta +- default_fd_step(theta) * v: the report's
    rows in the one field call of a frozen-metric J update."""
    theta = np.array([3.0, -1.0])
    seen = []

    def grad_fn(p):
        seen.append(p.copy())
        return p

    phi = init_params(RngStream(0), MetricNetConfig(m_tilde=1),
                      LayerLayout.from_vector(theta.size))
    regularize_step(theta, None, phi, TrainConfig(variant="J", probe_count=8,
                                                  freeze_phi=True),
                    grad_fn, 2)
    assert len(seen) == 1 and np.array_equal(seen[0][0], theta)
    eps = default_fd_step(theta)
    assert eps == pytest.approx(4e-4)
    probes = rademacher_matrix(RngStream(2), 8, theta.size)
    assert np.array_equal(seen[0][1:9], theta + eps * probes)
    assert np.array_equal(seen[0][9:], theta - eps * probes)
