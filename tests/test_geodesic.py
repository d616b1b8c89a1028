"""Geodesic direction tests: closed forms, component cross-checks, ODE oracle.

The production form takes grad q from one vector-Jacobian product of u.
It is checked four independent ways: against a hand-derived
two-dimensional closed form, against the finite-difference matrix form it
replaced (``helpers.fd_geodesic_gradient``), against the component-sum
rebuild from dense metric partials, and against an actual RK2 integration
of the geodesic equation whose Christoffel symbols come from their own
finite-difference oracle.
"""

import numpy as np
import pytest

from helpers import fd_geodesic_gradient, fd_pullback
from rpg.errors import BadDimensions, NonFiniteField
from rpg.geodesic import (ChristoffelTensor, christoffel_fd,
                          covariant_metric_residual, geodesic_gradient,
                          geodesic_gradient_component, geodesic_ode_direction)
from rpg.rng import RngStream
from rpg.suites import _tanh_field as tanh_field
from rpg.suites import _tanh_vjp as tanh_vjp


def zero_field(p):
    return np.zeros_like(p)


def zero_vjp(theta, cot):
    return np.zeros_like(theta), np.zeros_like(theta)


def identity_vjp(theta, cot):
    """u(theta) = theta."""
    return theta.copy(), cot.copy()


def angle_between(a, b):
    cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def suite_fixture(k):
    """The k-th of the 20 tanh fixtures of ``rpg.suites.suite_geodesic``."""
    n = 2 + (k % 7)
    rng = RngStream(500 + k)
    mat = rng.normal((n, n), scale=0.6)
    theta = rng.normal((n,), scale=0.5)
    j = rng.normal((n,), scale=0.5)
    return mat, theta, j


def test_config_rejects_negative_kappa():
    """Both forms require kappa finite and >= 0."""
    for form, field in ((geodesic_gradient, zero_vjp),
                        (geodesic_gradient_component, zero_field)):
        for kappa in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="kappa"):
                form(field, np.zeros(2), np.ones(2), kappa)


def test_non_finite_direction_is_a_typed_error():
    """A non-finite J raises NonFiniteField, the trainer's fallback cue."""
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteField, match="finite input direction"):
            geodesic_gradient(zero_vjp, np.zeros(3),
                              np.array([1.0, bad, 0.0]), 0.1)


def test_non_finite_product_is_a_typed_error():
    def blown_vjp(theta, cot):
        return np.ones_like(theta), np.full_like(theta, np.inf)
    with pytest.raises(NonFiniteField):
        geodesic_gradient(blown_vjp, np.zeros(3), np.ones(3), 0.1)


def test_flat_field_is_exact_passthrough():
    """u = 0 makes q constant, so the correction vanishes bitwise."""
    rng = RngStream(11)
    theta = rng.normal((5,))
    j = rng.normal((5,))
    out = geodesic_gradient(zero_vjp, theta, j, 0.3)
    assert np.array_equal(out, j)


def test_kappa_zero_passthrough():
    w = RngStream(12).normal((4, 4))
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    j = np.array([1.0, 2.0, -1.0, 0.5])
    out = geodesic_gradient(tanh_vjp(w, 0.5), theta, j, 0.0)
    assert np.array_equal(out, j)
    assert out is not j


def test_constant_field_passthrough():
    uc = np.array([0.7, -0.2])
    out = geodesic_gradient(lambda p, c: (uc, np.zeros_like(p)),
                            np.array([0.3, 0.9]), np.array([1.0, -1.0]),
                            0.5)
    assert np.array_equal(out, np.array([1.0, -1.0]))


def test_two_dim_closed_form():
    """u(theta) = theta, theta = (1, 0), J = (1, 0), kappa = 1.

    q(theta) = J^T (I + theta theta^T) J = 1 + theta_1^2, so grad q = (2, 0)
    at the base point, and G^-1 = diag(1/2, 1) gives T = (1,0) + (1,0) = (2,0).
    """
    out = geodesic_gradient(identity_vjp, np.array([1.0, 0.0]),
                            np.array([1.0, 0.0]), 1.0)
    assert np.array_equal(out, [2.0, 0.0])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_matrix_vs_component_agreement(n):
    rng = RngStream(100 + n)
    w = rng.normal((n, n), scale=0.6)
    theta = rng.normal((n,), scale=0.5)
    j = rng.normal((n,), scale=0.5)
    a = geodesic_gradient(tanh_vjp(w, 0.5), theta, j, 0.25)
    b = geodesic_gradient_component(tanh_field(w, 0.5), theta, j, 0.25)
    assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, float(np.max(np.abs(a))))


@pytest.mark.parametrize("k", range(20))
def test_vjp_form_matches_fd_reference_on_suite_fixtures(k):
    """The analytic tanh VJP and the direction built from it agree with
    central differences of u.c and with the FD matrix form to 1e-6."""
    mat, theta, j = suite_fixture(k)
    u, pullback = tanh_vjp(mat, 0.5)(theta, j)
    assert np.array_equal(u, tanh_field(mat, 0.5)(theta))
    want = fd_pullback(tanh_field(mat, 0.5), theta, j)
    assert np.max(np.abs(pullback - want)) <= 1e-6 * np.max(np.abs(want))
    got = geodesic_gradient(tanh_vjp(mat, 0.5), theta, j, 0.25)
    want = fd_geodesic_gradient(tanh_field(mat, 0.5), theta, j, 0.25)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


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
    direction = geodesic_gradient(tanh_vjp(w, 0.5), theta, j, dt / 2)
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
        direction = geodesic_gradient(tanh_vjp(w, 0.5), theta, j, dt / 2)
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
