"""Divergence of the regularized gradient field, exactly and by probes.

For the rank-one metric the coordinate divergence of the field J = G^-1 grad f
splits into a Jacobian-trace part and a log-volume part:

    Div J = sum_m dJ^m/dtheta^m
          + sum_m J^m / (1 + u.u) * sum_n u^n du^n/dtheta^m

``divergence_exact`` computes this with one central difference per coordinate
(2n field evaluations).  ``divergence_report`` replaces the Jacobian trace
with Hutchinson probes and collapses the second double sum into a *single*
directional derivative along J — the identity

    sum_m J^m sum_n u^n du^n/dtheta^m = u . (D_J u)

is exact, which turns O(n^2) work into O(1) field evaluations per estimate.

Two independent oracles guard the algebra at small n: the volume-weighted
form (1/sqrt(g)) sum_m d_m(sqrt(g) J^m), and the Christoffel-corrected
covariant Laplacian sum g^{mn} (d_m d_n f - gamma^l_mn d_l f).  Metric
compatibility makes all of them equal on smooth fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions
from .fields import (FieldEvaluator, ProbeConfig, default_fd_step,
                     eval_points, require_finite)
from .metric import MetricPoint, inverse_apply
from .rng import RngStream, rademacher_matrix

RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class DivergenceReport:
    """Divergence, Hessian trace, and their guarded absolute ratio."""

    div: float
    hessian_trace: float
    ratio: float
    method: str  # "exact" | "estimated"
    probe_count: int = 0
    fd_step: float = 0.0


def divergence_ratio(div: float, trace: float) -> float:
    """|div| / max(|trace|, 1e-12) — the floor guards a vanishing trace."""
    return abs(div) / max(abs(trace), RATIO_FLOOR)


def _reg_field(fe: FieldEvaluator, pts: np.ndarray) -> np.ndarray:
    """J at a batch of points: G^-1 grad f with the local factor u."""
    return inverse_apply(MetricPoint(fe.factors(pts)), fe.gradients(pts))


def divergence_exact(fe: FieldEvaluator, theta: np.ndarray,
                     fd_step: float | None = None) -> float:
    """Coordinate divergence with every theta-partial by central differences.

    Cost: 2n+1 evaluations of (grad_fn, u_fn).  n <= 64.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 64:
        raise BadDimensions(f"divergence_exact is desk-scale (n <= 64), n={n}")
    step = fd_step if fd_step is not None else default_fd_step(theta)
    eye = step * np.eye(n)
    pts = np.concatenate([theta + eye, theta - eye, theta[None]], axis=0)
    us = fe.factors(pts)
    js = inverse_apply(MetricPoint(us), fe.gradients(pts))
    j_plus, j_minus = js[:n], js[n : 2 * n]
    u_plus, u_minus = us[:n], us[n : 2 * n]
    u0, j0 = us[-1], js[-1]

    jacobian_trace = float(np.sum((np.diagonal(j_plus) - np.diagonal(j_minus))
                                  / (2.0 * step)))
    # du[m, nn] = d u^nn / d theta^m
    du = (u_plus - u_minus) / (2.0 * step)
    volume_term = float(j0 @ (du @ u0)) / (1.0 + float(u0 @ u0))
    return jacobian_trace + volume_term


def divergence_report(fe: FieldEvaluator, theta: np.ndarray,
                      pc: ProbeConfig) -> DivergenceReport:
    """Estimated divergence and Hessian trace from one shared probe draw.

    Sharing the probe set makes the two estimates identical when u = 0
    (J = grad f exactly), so the reported ratio is exactly 1 at the
    Euclidean starting point rather than 1 +- probe noise.

    One gradient-field call covers rows [theta + eps*v; theta - eps*v;
    theta] (2K+1 rows).  The factor field is evaluated at theta, then at
    the 2K probe rows plus theta +- eps*J0; the volume term needs u alone
    at those last two rows.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    k = pc.probe_count
    eps = pc.step_at(theta)
    probes = rademacher_matrix(RngStream(pc.seed), k, n)

    probe_pts = np.concatenate([theta + eps * probes,     # rows 0..k-1
                                theta - eps * probes])    # rows k..2k-1
    u0 = fe.factors(theta[None])[0]
    gs = fe.gradients(np.concatenate([probe_pts, theta[None]]))
    j0 = inverse_apply(MetricPoint(u0), gs[2 * k])
    us = fe.factors(np.concatenate([probe_pts,
                                    theta[None] + eps * j0,   # row 2k
                                    theta[None] - eps * j0])) # row 2k+1
    js = inverse_apply(MetricPoint(us[:2 * k]), gs[:2 * k])

    j_diff = (js[:k] - js[k : 2 * k]) / (2.0 * eps)
    grad_diff = (gs[:k] - gs[k : 2 * k]) / (2.0 * eps)
    jacobian_term = float(np.sum(probes * j_diff)) / k
    hessian_trace = float(np.sum(probes * grad_diff)) / k

    du_along_j = (us[2 * k] - us[2 * k + 1]) / (2.0 * eps)
    volume_term = float(u0 @ du_along_j) / (1.0 + float(u0 @ u0))

    div = jacobian_term + volume_term
    return DivergenceReport(
        div=div,
        hessian_trace=hessian_trace,
        ratio=divergence_ratio(div, hessian_trace),
        method="estimated",
        probe_count=k,
        fd_step=eps,
    )


def hessian_trace_hutchinson(grad_fn, theta: np.ndarray,
                             pc: ProbeConfig) -> float:
    """(1/K) sum_k v_k . (grad f(theta + eps v_k) - grad f(theta - eps v_k)) / 2 eps."""
    theta = np.asarray(theta, dtype=np.float64)
    k = pc.probe_count
    eps = pc.step_at(theta)
    probes = rademacher_matrix(RngStream(pc.seed), k, theta.size)
    pts = np.concatenate([theta + eps * probes, theta - eps * probes], axis=0)
    gs = eval_points(grad_fn, pts)
    require_finite(gs, "gradient field")
    diffs = (gs[:k] - gs[k:]) / (2.0 * eps)
    return float(np.sum(probes * diffs)) / k


# ----------------------------------------------------------------- oracles


def _grad_of_scalar(f, theta: np.ndarray, step: float) -> np.ndarray:
    n = theta.size
    grad = np.empty(n)
    for m in range(n):
        bump = np.zeros(n)
        bump[m] = step
        grad[m] = (f(theta + bump) - f(theta - bump)) / (2.0 * step)
    return grad


def laplace_beltrami_oracle(f, u_fn, theta: np.ndarray,
                            fd_step: float | None = None) -> float:
    """(1/sqrt g) sum_m d_m ( sqrt(g) J^m ), everything by nested central FD.

    f is a scalar map; its gradient is itself finite-differenced, making this
    oracle completely independent of the production divergence algebra.
    n <= 8.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 8:
        raise BadDimensions(f"laplace_beltrami_oracle is n <= 8, got n={n}")
    step = fd_step if fd_step is not None else default_fd_step(theta)

    def weighted_field(point: np.ndarray) -> np.ndarray:
        u = np.asarray(eval_points(u_fn, point[None])[0])
        grad = _grad_of_scalar(f, point, step)
        j = inverse_apply(MetricPoint(u), grad)
        return np.sqrt(1.0 + float(u @ u)) * j

    total = 0.0
    for m in range(n):
        bump = np.zeros(n)
        bump[m] = step
        total += (weighted_field(theta + bump)[m]
                  - weighted_field(theta - bump)[m]) / (2.0 * step)
    u0 = np.asarray(eval_points(u_fn, theta[None])[0])
    return total / np.sqrt(1.0 + float(u0 @ u0))


def covariant_laplacian_oracle(f, u_fn, theta: np.ndarray,
                               fd_step: float | None = None) -> float:
    """sum_mn g^{mn} (d_m d_n f - sum_l gamma^l_mn d_l f), n <= 6.

    The Christoffel-corrected second derivative — equal to the other two
    divergence expressions by metric compatibility.
    """
    from .geodesic import christoffel_fd  # local import to keep modules acyclic

    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 6:
        raise BadDimensions(f"covariant_laplacian_oracle is n <= 6, got n={n}")
    step = fd_step if fd_step is not None else default_fd_step(theta)

    hessian = np.empty((n, n))
    f0 = f(theta)
    for m in range(n):
        em = np.zeros(n)
        em[m] = step
        hessian[m, m] = (f(theta + em) - 2.0 * f0 + f(theta - em)) / step**2
        for nn in range(m + 1, n):
            en = np.zeros(n)
            en[nn] = step
            cross = (f(theta + em + en) - f(theta + em - en)
                     - f(theta - em + en) + f(theta - em - en)) / (4.0 * step**2)
            hessian[m, nn] = cross
            hessian[nn, m] = cross
    grad = _grad_of_scalar(f, theta, step)
    gamma = christoffel_fd(u_fn, theta, step).gamma
    corrected = hessian - np.einsum("lmn,l->mn", gamma, grad)
    u0 = np.asarray(eval_points(u_fn, theta[None])[0])
    g_inv = np.eye(n) - np.outer(u0, u0) / (1.0 + float(u0 @ u0))
    return float(np.sum(g_inv * corrected))
