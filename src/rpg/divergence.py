"""Divergence of the regularized gradient field, exactly and by probes.

For the rank-one metric the coordinate divergence of the field J = G^-1 grad f
splits into a Jacobian-trace part and a log-volume part:

    Div J = sum_m dJ^m/dtheta^m
          + sum_m J^m / (1 + u.u) * sum_n u^n du^n/dtheta^m

``divergence_exact`` computes this with one central difference per coordinate
(2n field evaluations).  The probe estimator replaces the Jacobian trace
with Hutchinson probes and collapses the second double sum into a *single*
directional derivative along J — the identity

    sum_m J^m sum_n u^n du^n/dtheta^m = u . (D_J u)

is exact, which turns O(n^2) work into O(1) field evaluations per estimate.

An update draws its probe matrices at once (``draw_probes``) and calls the
field once at all their rows (``probe_field_rows``), which gives one
``ProbeRows`` per matrix.  ``probe_divergence`` is the estimator, with its
reverse pass to u, at one matrix's batch frozen in place by
``freeze_probe_batch``.  The metric net's loss and ``divergence_report``
both call it, so they agree bit for bit; both take the field only as
``ProbeRows``.

Two independent oracles guard the algebra at small n: the volume-weighted
form (1/sqrt(g)) sum_m d_m(sqrt(g) J^m), and the Christoffel-corrected
covariant Laplacian sum g^{mn} (d_m d_n f - gamma^l_mn d_l f).  Metric
compatibility makes all of them equal on smooth fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions
from .fields import default_fd_step, eval_points, require_finite
from .metric import MetricPoint, inverse_apply, metric_matrix
from .rng import RngStream, rademacher_matrix

RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class DivergenceReport:
    """Divergence, Hessian trace, and their guarded absolute ratio."""

    div: float
    hessian_trace: float
    ratio: float


def divergence_ratio(div: float, trace: float) -> float:
    """|div| / max(|trace|, 1e-12) — the floor guards a vanishing trace."""
    return abs(div) / max(abs(trace), RATIO_FLOOR)


def divergence_exact(grad_fn, u_fn, theta: np.ndarray) -> float:
    """Coordinate divergence with every theta-partial by central differences
    of step ``default_fd_step(theta)``.

    Cost: 2n+1 evaluations of (grad_fn, u_fn).  n <= 64.  Raises
    NonFiniteField when either field returns a non-finite value.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 64:
        raise BadDimensions(f"divergence_exact is desk-scale (n <= 64), n={n}")
    step = default_fd_step(theta)
    eye = step * np.eye(n)
    pts = np.concatenate([theta + eye, theta - eye, theta[None]], axis=0)
    us = require_finite(eval_points(u_fn, pts), "metric factor field")
    gs = require_finite(eval_points(grad_fn, pts), "gradient field")
    js = inverse_apply(MetricPoint(us), gs)
    j_plus, j_minus = js[:n], js[n : 2 * n]
    u_plus, u_minus = us[:n], us[n : 2 * n]
    u0, j0 = us[-1], js[-1]

    jacobian_trace = float(np.sum((np.diagonal(j_plus) - np.diagonal(j_minus))
                                  / (2.0 * step)))
    # du[m, nn] = d u^nn / d theta^m
    du = (u_plus - u_minus) / (2.0 * step)
    volume_term = float(j0 @ (du @ u0)) / (1.0 + float(u0 @ u0))
    return jacobian_trace + volume_term


# ------------------------------------------------------- probe estimator


@dataclass(frozen=True)
class ProbeRows:
    """One (K, n) probe matrix V laid out as its batch.

    points is the (2K + 3, n) batch: theta + eps*V, theta - eps*V, two
    rows for theta +- eps*J0 (``freeze_probe_batch``), then theta; grads
    is the (2K, n) field at its first 2K rows and g0 the field at theta.
    Nothing is checked for finiteness: each consumer checks the rows it
    uses.
    """

    probes: np.ndarray
    eps: float
    g0: np.ndarray
    grads: np.ndarray
    points: np.ndarray


def draw_probes(seed: int, count: int, iters: int, n: int) -> np.ndarray:
    """The (iters + 1, count, n) Rademacher probe matrices of one update.

    Metric training's iters matrices come first, drawn in iteration order
    from ``RngStream(seed).spawn("alg1-probes")``; the report's own comes
    last, from ``RngStream(seed)``, so the ratio is measured on probes
    the net did not train on.
    """
    train_rng = RngStream(seed).spawn("alg1-probes")
    mats = [rademacher_matrix(train_rng, count, n) for _ in range(iters)]
    mats.append(rademacher_matrix(RngStream(seed), count, n))
    return np.stack(mats)


def probe_field_rows(grad_fn, theta: np.ndarray, probes: np.ndarray) -> list:
    """One ``ProbeRows`` per matrix of the (I, K, n) probes, from one call.

    The call covers [theta; theta + eps*V_1; theta - eps*V_1; ...;
    theta - eps*V_I], eps = default_fd_step(theta); every matrix's rows
    are views of its result and of one (I, 2K + 3, n) array of points.
    """
    theta = np.asarray(theta, dtype=np.float64)
    eps, (count, k, n) = default_fd_step(theta), probes.shape
    step = eps * probes
    points = np.concatenate([theta + step, theta - step,
                             np.broadcast_to(theta, (count, 3, n))], axis=1)
    out = eval_points(grad_fn, np.concatenate(
        [theta[None], points[:, :2 * k].reshape(-1, n)]))
    grads = out[1:].reshape(count, 2 * k, n)
    return [ProbeRows(probes=probes[i], eps=eps, g0=out[0], grads=grads[i],
                      points=points[i]) for i in range(count)]


def freeze_probe_batch(rows: ProbeRows, u0: np.ndarray) -> ProbeRows:
    """Write theta +- eps*J0, J0 = G^-1 g0 at u0 = u(theta), into the
    batch in place, and return rows, for ``probe_divergence``.  Nothing
    is checked for finiteness: the report checks its inputs first, and a
    training pass checks g0 once and each iteration's rows before it.
    """
    points, g0 = rows.points, rows.g0
    k2 = len(rows.grads)
    theta = points[-1]
    # G^-1 g0 = g0 - u0 (u0.g0) / (1 + u0.u0), as ``metric.inverse_apply``
    j0 = g0 - u0 * (np.add.reduce(u0 * g0, axis=-1)
                    / (np.add.reduce(u0 * u0, axis=-1) + 1.0))
    step = rows.eps * j0
    points[k2] = theta + step
    points[k2 + 1] = theta - step
    return rows


def probe_divergence(u: np.ndarray, ctx: ProbeRows):
    """(div, vjp): the probe estimate of Div J from u at every row of the
    frozen batch ctx (``freeze_probe_batch``); vjp maps a cotangent of div
    to the cotangent of u."""
    # probe term: J = G^-1 grad at theta +- eps*v, differenced along v
    probes, x = ctx.probes, ctx.grads
    k = probes.shape[0]
    up = u[:2 * k]
    det = np.add.reduce(up * up, axis=-1, keepdims=True) + 1.0
    ux = np.add.reduce(up * x, axis=-1, keepdims=True)
    q = ux / det
    j = x - up * q
    scale = 1.0 / (2.0 * ctx.eps * k)
    term1 = np.add.reduce(probes * (j[:k] - j[k:]), axis=None) * scale
    # volume term: u(theta) . (u(theta + eps*J0) - u(theta - eps*J0))
    u_jp, u_jm, u_t = u[2 * k], u[2 * k + 1], u[2 * k + 2]
    du = u_jp - u_jm
    den = (np.add.reduce(u_t * u_t) + 1.0) * (2.0 * ctx.eps)
    num = np.add.reduce(u_t * du)
    div = term1 + num / den

    def vjp(g_div):
        # summing each row's terms in the order a reverse sweep over the
        # forward's operations would; det and den each enter through u
        # twice, so their terms are added twice
        g_j = probes * (g_div * scale)
        g_j = np.concatenate([g_j, -g_j])
        g_q = -np.add.reduce(g_j * up, axis=-1, keepdims=True)
        g_det = -g_q * ux / (det * det)
        g_u = np.empty_like(u)
        g_det_up = g_det * up
        g_u[:2 * k] = -g_j * q + (g_q / det) * x + g_det_up + g_det_up
        g_num = g_div / den
        g_det_t = -g_div * num / (den * den) * (2.0 * ctx.eps)
        g_u[2 * k] = g_num * u_t
        g_u[2 * k + 1] = -g_u[2 * k]
        g_det_u = g_det_t * u_t
        g_u[2 * k + 2] = g_num * du + g_det_u + g_det_u
        return g_u

    return div, vjp


def divergence_report(u_fn, field_rows: ProbeRows,
                      u0: np.ndarray) -> DivergenceReport:
    """Estimated divergence and Hessian trace from one shared probe draw.

    The trace is the same estimate at u = 0, where J = grad f and Div J is
    the Laplacian: its probe sum runs over the raw gradient rows.  So the
    two are identical when u = 0, and the ratio is exactly 1 at the
    Euclidean start rather than 1 +- probe noise.  field_rows is the
    report's probe matrix (the last of ``draw_probes``) with the field at
    theta and at its 2K rows; u0 is u(theta).  The batch is frozen in
    place and u_fn forwarded once over it.  A non-finite u or field value
    raises NonFiniteField.
    """
    require_finite(u0, "metric factor field")
    require_finite(field_rows.g0, "gradient field")
    require_finite(field_rows.grads, "gradient field")
    ctx = freeze_probe_batch(field_rows, u0)
    us = require_finite(eval_points(u_fn, ctx.points), "metric factor field")
    div, _ = probe_divergence(us, ctx)
    trace, _ = probe_divergence(np.zeros_like(ctx.points), ctx)
    div, trace = float(div), float(trace)
    return DivergenceReport(div=div, hessian_trace=trace,
                            ratio=divergence_ratio(div, trace))


def hessian_trace_hutchinson(grad_fn, theta: np.ndarray, count: int,
                             seed: int) -> float:
    """Hutchinson's trace of the Hessian over count probes drawn from
    seed: the report's trace, at u = 0."""
    theta = np.asarray(theta, dtype=np.float64)
    rows, = probe_field_rows(grad_fn, theta,
                             draw_probes(seed, count, 0, theta.size))
    return divergence_report(np.zeros_like, rows,
                             np.zeros_like(theta)).hessian_trace


# ----------------------------------------------------------------- oracles


def _grad_of_scalar(f, theta: np.ndarray, step: float) -> np.ndarray:
    n = theta.size
    grad = np.empty(n)
    for m in range(n):
        bump = np.zeros(n)
        bump[m] = step
        grad[m] = (f(theta + bump) - f(theta - bump)) / (2.0 * step)
    return grad


def laplace_beltrami_oracle(f, u_fn, theta: np.ndarray) -> float:
    """(1/sqrt g) sum_m d_m ( sqrt(g) J^m ), everything by nested central FD.

    f is a scalar map; its gradient is itself finite-differenced, making this
    oracle completely independent of the production divergence algebra.
    n <= 8.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 8:
        raise BadDimensions(f"laplace_beltrami_oracle is n <= 8, got n={n}")
    step = default_fd_step(theta)

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


def covariant_laplacian_oracle(f, u_fn, theta: np.ndarray) -> float:
    """sum_mn g^{mn} (d_m d_n f - sum_l gamma^l_mn d_l f), n <= 6.

    The Christoffel-corrected second derivative — equal to the other two
    divergence expressions by metric compatibility.
    """
    from .geodesic import christoffel_fd  # local import to keep modules acyclic

    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    if n > 6:
        raise BadDimensions(f"covariant_laplacian_oracle is n <= 6, got n={n}")
    step = default_fd_step(theta)

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
    gamma = christoffel_fd(u_fn, theta).gamma
    corrected = hessian - np.einsum("lmn,l->mn", gamma, grad)
    u0 = np.asarray(eval_points(u_fn, theta[None])[0])
    g_inv = np.linalg.inv(metric_matrix(MetricPoint(u0)))
    return float(np.sum(g_inv * corrected))
