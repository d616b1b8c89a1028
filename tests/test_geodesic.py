"""Geodesic direction tests: closed forms, component cross-checks, ODE oracle.

The matrix form is checked three independent ways: against a hand-derived
two-dimensional closed form, against the component-sum rebuild from dense
metric partials, and against an actual RK2 integration of the geodesic
equation whose Christoffel symbols come from their own finite-difference
oracle.
"""

import numpy as np
import pytest

from rpg.errors import BadDimensions
from rpg.geodesic import (ChristoffelTensor, christoffel_fd,
                          covariant_metric_residual, geodesic_gradient,
                          geodesic_gradient_component, geodesic_ode_direction)
from rpg.rng import RngStream


def zero_field(p):
    return np.zeros_like(p)


def tanh_field(mat, scale):
    return lambda p: scale * np.tanh(p @ mat.T)


def angle_between(a, b):
    cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def test_config_rejects_negative_kappa():
    """Both forms require kappa finite and >= 0."""
    for form in (geodesic_gradient, geodesic_gradient_component):
        for kappa in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="kappa"):
                form(zero_field, np.zeros(2), np.ones(2), kappa)


def test_flat_field_is_exact_passthrough():
    """u = 0 makes q constant, so the correction vanishes bitwise."""
    rng = RngStream(11)
    theta = rng.normal((5,))
    j = rng.normal((5,))
    out = geodesic_gradient(zero_field, theta, j, 0.3)
    assert np.array_equal(out, j)


def test_kappa_zero_passthrough():
    w = RngStream(12).normal((4, 4))
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    j = np.array([1.0, 2.0, -1.0, 0.5])
    out = geodesic_gradient(tanh_field(w, 0.5), theta, j, 0.0)
    assert np.array_equal(out, j)
    assert out is not j


def test_constant_field_passthrough():
    uc = np.array([0.7, -0.2])
    out = geodesic_gradient(lambda p: np.broadcast_to(uc, p.shape),
                            np.array([0.3, 0.9]), np.array([1.0, -1.0]),
                            0.5)
    assert np.array_equal(out, np.array([1.0, -1.0]))


def test_two_dim_closed_form():
    """u(theta) = theta, theta = (1, 0), J = (1, 0), kappa = 1.

    q(theta) = J^T (I + theta theta^T) J = 1 + theta_1^2, so grad q = (2, 0)
    at the base point, and G^-1 = diag(1/2, 1) gives T = (1,0) + (1,0) = (2,0).
    """
    out = geodesic_gradient(lambda p: p, np.array([1.0, 0.0]),
                            np.array([1.0, 0.0]), 1.0)
    assert np.allclose(out, [2.0, 0.0], atol=1e-6)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_matrix_vs_component_agreement(n):
    rng = RngStream(100 + n)
    w = rng.normal((n, n), scale=0.6)
    theta = rng.normal((n,), scale=0.5)
    j = rng.normal((n,), scale=0.5)
    a = geodesic_gradient(tanh_field(w, 0.5), theta, j, 0.25)
    b = geodesic_gradient_component(tanh_field(w, 0.5), theta, j, 0.25)
    assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, float(np.max(np.abs(a))))


def test_component_dimension_guard():
    with pytest.raises(BadDimensions):
        geodesic_gradient_component(zero_field, np.zeros(17), np.ones(17),
                                    0.1)


def test_christoffel_flat_is_zero():
    gamma = christoffel_fd(zero_field, np.zeros(3)).gamma
    assert gamma.shape == (3, 3, 3)
    assert np.array_equal(gamma, np.zeros((3, 3, 3)))


def test_christoffel_scalar_closed_form():
    """n = 1, u(theta) = theta: g = 1 + theta^2, Gamma = theta / (1 + theta^2)."""
    theta = np.array([0.7])
    gamma = christoffel_fd(lambda p: p, theta).gamma
    assert gamma.shape == (1, 1, 1)
    assert gamma[0, 0, 0] == pytest.approx(0.7 / 1.49, abs=1e-6)


def test_christoffel_symmetric_lower_pair():
    w = RngStream(21).normal((4, 4), scale=0.8)
    gamma = christoffel_fd(tanh_field(w, 0.6),
                           np.array([0.1, -0.4, 0.2, 0.5])).gamma
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-6


def test_christoffel_dimension_guard():
    with pytest.raises(BadDimensions):
        christoffel_fd(zero_field, np.zeros(9))


def test_contract_matches_einsum():
    gamma = RngStream(22).normal((3, 3, 3))
    w = np.array([1.0, -2.0, 0.5])
    out = ChristoffelTensor(gamma).contract(w)
    assert np.allclose(out, np.einsum("dmn,m,n->d", gamma, w, w), atol=1e-14)


def test_ode_zero_dt_returns_tangent():
    j = np.array([1.0, 2.0])
    out = geodesic_ode_direction(lambda p: p, np.array([0.5, 0.5]), j, 0.0)
    assert np.array_equal(out, j)
    assert out is not j


def test_ode_flat_space_keeps_direction():
    j = np.array([0.3, -0.7, 1.1])
    out = geodesic_ode_direction(zero_field, np.ones(3), j, 0.1)
    assert np.allclose(out, j, atol=1e-14)


def test_ode_matches_direction_at_small_dt():
    """At kappa = dt/2 the closed-form direction tracks one RK2 geodesic step.

    Both deviate from J at order dt, and their mutual angle is O(dt) as well;
    at dt = 1e-3 with moderate field scales it sits well under 1e-2 rad.
    """
    rng = RngStream(31)
    w = rng.normal((3, 3))
    theta = rng.normal((3,), scale=0.5)
    j = rng.normal((3,), scale=0.5)
    field = tanh_field(w, 0.5)
    dt = 1e-3
    direction = geodesic_gradient(field, theta, j, dt / 2)
    ode = geodesic_ode_direction(field, theta, j, dt)
    assert angle_between(direction, ode) <= 1e-2


def test_ode_angle_shrinks_with_dt():
    rng = RngStream(32)
    w = rng.normal((3, 3))
    theta = rng.normal((3,), scale=0.5)
    j = rng.normal((3,), scale=0.5)
    field = tanh_field(w, 0.5)
    angles = []
    for dt in (1e-2, 1e-3, 1e-4):
        direction = geodesic_gradient(field, theta, j, dt / 2)
        angles.append(angle_between(direction,
                                    geodesic_ode_direction(field, theta, j, dt)))
    assert angles[0] > angles[1] > angles[2]


def test_metric_compatibility_residual_smooth():
    """The FD connection is metric-compatible by construction up to rounding."""
    w = RngStream(33).normal((3, 3), scale=0.7)
    res = covariant_metric_residual(tanh_field(w, 0.5),
                                    np.array([0.2, -0.3, 0.5]))
    assert res <= 1e-9


def test_metric_compatibility_residual_flat():
    assert covariant_metric_residual(zero_field, np.zeros(4)) <= 1e-14
