"""Geodesic-corrected update directions and their brute-force oracles.

The production rule adds a single quadratic-form correction to the
regularized gradient J:

    T = J + kappa * G^-1 grad_theta( q ),   q(theta) = J0^T G(theta) J0

with J0 frozen ("no-grad") while q is differentiated over theta.  For the
rank-one metric G = I + u u^T, q = |J0|^2 + (u.J0)^2, so

    grad q = 2 (u.J0) (du/dtheta)^T J0,

one vector-Jacobian product of u with cotangent J0.  ``geodesic_gradient``
takes it from a caller-supplied ``u_vjp`` (for the metric net, that of
``rpg.metricnet.UField.at``: one forward and one reverse pass, whatever n
is).  ``geodesic_gradient_component`` rebuilds the same direction from
dense finite-difference metric partials (the component sum over
g^{dr} dg_{mn}/dtheta_r J^m J^n); and the oracles ``christoffel_fd`` /
``geodesic_ode_direction`` integrate the actual geodesic equation so the
direction can be checked against differential geometry rather than against
a second copy of the same algebra.

kappa bundles the two step hyper-parameters as zeta2/(1+zeta1); the leftover
positive scale (1+zeta1) is absorbed by the caller's learning rate, so both
forms here return T/(1+zeta1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, NonFiniteField
from .fields import default_fd_step, eval_points, require_finite
from .metric import MetricPoint, inverse_apply, metric_matrix


@dataclass(frozen=True)
class ChristoffelTensor:
    """gamma[d, m, n] — upper index first, symmetric in the lower pair."""

    gamma: np.ndarray

    def contract(self, w: np.ndarray) -> np.ndarray:
        """gamma[d, m, n] w^m w^n."""
        return np.einsum("dmn,m,n->d", self.gamma, w, w)


def _fd_points(theta: np.ndarray, step: float) -> np.ndarray:
    """Stack of theta +- step*e_mu: rows 0..n-1 are +, rows n..2n-1 are -."""
    n = theta.size
    eye = step * np.eye(n)
    return np.concatenate([theta + eye, theta - eye], axis=0)


def _metric_partials(u_field, theta: np.ndarray, step: float) -> np.ndarray:
    """partials[r, m, n] = d g_mn / d theta_r, by central FD on dense G."""
    n = theta.size
    us = eval_points(u_field, _fd_points(theta, step))
    require_finite(us, "metric factor field")
    partials = np.empty((n, n, n))
    for r in range(n):
        g_plus = metric_matrix(MetricPoint(us[r]))
        g_minus = metric_matrix(MetricPoint(us[n + r]))
        partials[r] = (g_plus - g_minus) / (2.0 * step)
    return partials


def christoffel_fd(u_field, theta: np.ndarray) -> ChristoffelTensor:
    """Christoffel symbols of G = I + u u^T from finite-difference partials.

    gamma^d_mn = 1/2 sum_r g^{dr} (d_m g_nr + d_n g_mr - d_r g_mn)
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 8:
        raise BadDimensions(f"christoffel_fd is an oracle (n <= 8), got n={n}")
    partials = _metric_partials(u_field, theta, default_fd_step(theta))
    # lowered[m, n, r] = d_m g_nr + d_n g_mr - d_r g_mn
    lowered = (partials
               + np.transpose(partials, (1, 0, 2))
               - np.moveaxis(partials, 0, 2))
    g_inv = np.linalg.inv(metric_matrix(MetricPoint(
        np.asarray(eval_points(u_field, theta[None])[0]))))
    gamma = 0.5 * np.einsum("dr,mnr->dmn", g_inv, lowered)
    return ChristoffelTensor(gamma=gamma)


def _check_kappa(kappa: float) -> None:
    if not np.isfinite(kappa) or kappa < 0:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")


def geodesic_gradient(u_vjp, theta: np.ndarray, grad_j: np.ndarray,
                      kappa: float) -> np.ndarray:
    """Update direction T = J + kappa * G^-1 grad(J^T G J), exactly.

    u_vjp(theta, cot) -> (u(theta), (du/dtheta)^T cot) at one point.
    grad_j is frozen inside the quadratic form: only the metric's
    theta-dependence is differentiated, by one u_vjp call with cotangent
    grad_j.  A non-finite grad_j, u or product raises NonFiniteField.
    """
    _check_kappa(kappa)
    theta = np.asarray(theta, dtype=np.float64)
    grad_j = np.asarray(grad_j, dtype=np.float64)
    if not np.all(np.isfinite(grad_j)):
        raise NonFiniteField(
            "geodesic_gradient requires a finite input direction")
    if kappa == 0.0:
        return grad_j.copy()
    u0, pullback = u_vjp(theta, grad_j)
    require_finite(pullback, "metric factor field product")
    mp = MetricPoint(u0)
    grad_q = (2.0 * float(mp.u @ grad_j)) * pullback
    return grad_j + kappa * inverse_apply(mp, grad_q)


def geodesic_gradient_component(u_field, theta: np.ndarray, grad_j: np.ndarray,
                                kappa: float) -> np.ndarray:
    """Component-form rebuild of the same direction from dense metric partials.

    T^d = J^d + kappa * sum_r g^{dr} sum_mn (d g_mn / d theta_r) J^m J^n,
    normalized to the same (1+zeta1) scale as ``geodesic_gradient``; the
    partials are central differences of u_field over 2n points.
    """
    _check_kappa(kappa)
    theta = np.asarray(theta, dtype=np.float64)
    grad_j = np.asarray(grad_j, dtype=np.float64)
    n = theta.size
    if n > 16:
        raise BadDimensions(f"component form is dense FD (n <= 16), got n={n}")
    if kappa == 0.0:
        return grad_j.copy()
    partials = _metric_partials(u_field, theta, default_fd_step(theta))
    contraction = np.einsum("rmn,m,n->r", partials, grad_j, grad_j)
    u0 = require_finite(eval_points(u_field, theta[None])[0],
                        "metric factor field")
    return grad_j + kappa * inverse_apply(MetricPoint(u0), contraction)


def geodesic_ode_direction(u_field, theta: np.ndarray, tangent: np.ndarray,
                           dt: float) -> np.ndarray:
    """Tangent after one midpoint-RK2 step of the geodesic equation.

    d theta/dt = w,  d w/dt = -gamma[w, w]; starting from (theta, tangent).
    The oracle against which the closed-form directions are checked at
    small dt.
    """
    theta = np.asarray(theta, dtype=np.float64)
    tangent = np.asarray(tangent, dtype=np.float64)
    if dt == 0.0:
        return tangent.copy()
    k1 = -christoffel_fd(u_field, theta).contract(tangent)
    theta_mid = theta + 0.5 * dt * tangent
    w_mid = tangent + 0.5 * dt * k1
    k2 = -christoffel_fd(u_field, theta_mid).contract(w_mid)
    return tangent + dt * k2


def covariant_metric_residual(u_field, theta: np.ndarray) -> float:
    """max | d_l g_mn - gamma^r_lm g_rn - gamma^r_ln g_mr |.

    Zero for a metric-compatible connection; ties the FD Christoffel symbols
    to the derivative operator they are supposed to induce.
    """
    theta = np.asarray(theta, dtype=np.float64)
    partials = _metric_partials(u_field, theta, default_fd_step(theta))
    gamma = christoffel_fd(u_field, theta).gamma
    g = metric_matrix(MetricPoint(np.asarray(
        eval_points(u_field, theta[None])[0])))
    covariant = (partials
                 - np.einsum("rlm,rn->lmn", gamma, g)
                 - np.einsum("rln,mr->lmn", gamma, g))
    return float(np.max(np.abs(covariant)))
