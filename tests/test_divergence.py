"""Divergence tests: closed forms, probe estimates, and the two FD oracles.

The exact coordinate divergence is pinned against hand-computed values for
flat and constant-factor metrics, then against the volume-weighted
Laplace-Beltrami form and the Christoffel-corrected covariant Laplacian on a
genuinely curved fixture — three distinct discretizations of the same scalar.
"""

import numpy as np
import pytest

from helpers import probe_rows
from rpg.divergence import (DivergenceReport, covariant_laplacian_oracle,
                            divergence_exact,
                            divergence_ratio, divergence_report, draw_probes,
                            hessian_trace_hutchinson, laplace_beltrami_oracle,
                            probe_field_rows)
from rpg.errors import BadDimensions
from rpg.rng import RngStream, rademacher_matrix


def zero_u(p):
    return np.zeros_like(p)


def const_u(vec):
    return lambda p: np.broadcast_to(vec, p.shape)


def quad_grad(a):
    """Gradient field of f = 1/2 theta^T A theta (A symmetric)."""
    return lambda p: p @ a


def report(grad_fn, u_fn, theta, count, seed=0):
    """The divergence report on its own probe rows, at u0 = u(theta)."""
    theta = np.asarray(theta, dtype=float)
    return divergence_report(u_fn, probe_rows(grad_fn, theta, count, seed),
                             u_fn(theta[None])[0])


# ------------------------------------------------------------------ exact


def test_exact_flat_quadratic():
    """u = 0, f = ||theta||^2 / 2: the field is the identity, Div = n."""
    div = divergence_exact(lambda p: p, zero_u, np.zeros(2))
    assert div == pytest.approx(2.0, abs=1e-12)


def test_exact_constant_factor():
    """u = (1, 0) everywhere: Div = tr(G^-1) = 1/2 + 1 = 1.5."""
    div = divergence_exact(lambda p: p, const_u(np.array([1.0, 0.0])),
                           np.array([0.3, -0.7]))
    assert div == pytest.approx(1.5, abs=1e-9)


def test_exact_dimension_guard():
    with pytest.raises(BadDimensions):
        divergence_exact(lambda p: p, zero_u, np.zeros(65))


def test_exact_vs_laplace_beltrami_curved():
    """u(theta) = theta on n = 3 — a curved metric with moving volume."""
    theta = np.array([0.3, -0.2, 0.5])
    div = divergence_exact(lambda p: p, lambda p: p, theta)
    oracle = laplace_beltrami_oracle(lambda t: 0.5 * float(t @ t),
                                     lambda p: p, theta)
    assert div == pytest.approx(oracle, abs=1e-4)


# --------------------------------------------------------------- estimate


def test_estimate_flat_quadratic_is_exact():
    """Rademacher probes satisfy v_i^2 = 1, so the identity Jacobian gives
    exactly n per probe regardless of K."""
    est = report(lambda p: p, zero_u, np.zeros(6),
                 3).div
    assert est == pytest.approx(6.0, abs=1e-9)


def test_estimate_constant_field_first_term_zero():
    """A constant field has a zero Jacobian and zero volume term."""
    est = report(const_u(np.array([1.0, 2.0, 3.0])),
                 const_u(np.array([0.4, 0.1, -0.3])),
                 np.array([0.2, 0.0, -0.5]), 8).div
    assert abs(est) <= 1e-8


def test_estimate_tracks_exact_at_k64():
    """K = 64 probes land within 15% of the exact value (median of 20 draws)."""
    n = 16
    rng = RngStream(7)
    w = rng.normal((n, n), scale=0.3)
    a = 2.0 * np.eye(n) + 0.25 * (w + w.T)
    umat = rng.normal((n, n), scale=0.3)
    theta = rng.normal((n,), scale=0.5)
    fields = (quad_grad(a), lambda p: 0.6 * np.tanh(p @ umat.T))
    exact = divergence_exact(*fields, theta)
    errs = []
    for seed in range(20):
        est = report(*fields, theta,
                     64, seed).div
        errs.append(abs(est - exact) / abs(exact))
    assert np.median(errs) <= 0.15


def test_estimate_error_shrinks_with_probes():
    n = 8
    rng = RngStream(8)
    w = rng.normal((n, n), scale=0.4)
    a = 2.0 * np.eye(n) + 0.3 * (w + w.T)
    umat = rng.normal((n, n), scale=0.4)
    theta = rng.normal((n,), scale=0.5)
    fields = (quad_grad(a), lambda p: 0.5 * np.tanh(p @ umat.T))
    exact = divergence_exact(*fields, theta)
    medians = []
    for k in (4, 16, 64, 256):
        errs = [abs(report(
            *fields, theta, k, s).div - exact)
            for s in range(20)]
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_report_shared_probes_give_unit_ratio_when_flat():
    """With u = 0 the field equals the raw gradient, and because the report
    reuses one probe draw for both estimates, div == trace bitwise."""
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    rep = report(quad_grad(a), zero_u, np.array([0.1, 0.2, -0.3, 0.4]),
                 16, 3)
    assert rep.div == rep.hessian_trace
    assert rep.ratio == 1.0


@pytest.mark.parametrize("iters", [None, 1, 3, 7],
                         ids=["report", "1", "3", "7"])
def test_probe_field_rows_makes_one_field_call(iters):
    """The report's rows (iters None) or those of I probe matrices: one
    gradient call over theta and the 2K rows of each matrix; the two rows
    theta +- eps*J0 of a frozen batch need u alone."""
    calls = []

    def grad_fn(pts):
        calls.append(np.shape(pts))
        return 2.0 * pts

    theta = np.array([0.5, -0.5, 0.25])
    if iters is None:
        rows = [probe_rows(grad_fn, theta, 4, 9)]
    else:
        rng = RngStream(9)
        rows = probe_field_rows(grad_fn, theta, np.stack(
            [rademacher_matrix(rng, 4, 3) for _ in range(iters)]))
    assert calls == [(1 + 2 * 4 * len(rows), 3)]
    assert len(rows) == (1 if iters is None else iters)
    for one in rows:
        assert one.probes.shape == (4, 3)
        assert one.grads.shape == (2 * 4, 3)
        assert one.points.shape == (2 * 4 + 3, 3)


def test_update_draws_one_training_matrix_and_the_reports():
    """An update's probes: metric training's one matrix, the first draw of
    the "alg1-probes" stream, then the report's held-out one."""
    both = draw_probes(9, 4, 3)
    assert both.shape == (2, 4, 3)
    assert np.array_equal(both[0], rademacher_matrix(
        RngStream(9).spawn("alg1-probes"), 4, 3))
    assert np.array_equal(both[1], rademacher_matrix(RngStream(9), 4, 3))


def test_report_fields_populated():
    rep = report(lambda p: p, lambda p: 0.2 * p, np.array([0.5, -0.5, 0.25]),
                 4, 9)
    assert isinstance(rep, DivergenceReport)
    assert np.isfinite(rep.div) and np.isfinite(rep.hessian_trace)


# ----------------------------------------------------------------- oracles


def test_laplace_beltrami_flat_is_plain_laplacian():
    lb = laplace_beltrami_oracle(lambda t: 0.5 * float(t @ t), zero_u,
                                 np.array([0.4, -0.1]))
    assert lb == pytest.approx(2.0, abs=1e-6)


def test_laplace_beltrami_constant_factor_matches_exact():
    u_fn = const_u(np.array([1.0, 0.0]))
    theta = np.array([0.3, -0.7])
    lb = laplace_beltrami_oracle(lambda t: 0.5 * float(t @ t), u_fn, theta)
    assert lb == pytest.approx(divergence_exact(lambda p: p, u_fn, theta),
                               abs=1e-4)
    assert lb == pytest.approx(1.5, abs=1e-4)


def test_laplace_beltrami_dimension_guard():
    with pytest.raises(BadDimensions):
        laplace_beltrami_oracle(lambda t: 0.0, zero_u, np.zeros(9))


def test_covariant_flat_is_hessian_trace():
    d = np.array([1.0, 2.0, 3.0])
    out = covariant_laplacian_oracle(lambda t: 0.5 * float(t @ (d * t)),
                                     zero_u, np.array([0.2, 0.1, -0.4]))
    assert out == pytest.approx(6.0, abs=1e-6)


def test_covariant_matches_laplace_beltrami_curved():
    """Metric compatibility makes the two oracle discretizations agree."""
    w = RngStream(41).normal((3, 3), scale=0.6)
    u_fn = lambda p: 0.5 * np.tanh(p @ w.T)
    theta = np.array([0.3, -0.2, 0.5])
    f = lambda t: 0.5 * float(t @ t) + 0.25 * float(np.sum(t) ** 2)
    lb = laplace_beltrami_oracle(f, u_fn, theta)
    cov = covariant_laplacian_oracle(f, u_fn, theta)
    assert cov == pytest.approx(lb, abs=1e-3)


def test_covariant_matches_exact_curved():
    u_fn = lambda p: p
    theta = np.array([0.3, -0.2, 0.5])
    cov = covariant_laplacian_oracle(lambda t: 0.5 * float(t @ t), u_fn, theta)
    assert cov == pytest.approx(divergence_exact(lambda p: p, u_fn, theta),
                                abs=1e-3)


def test_covariant_dimension_guard():
    with pytest.raises(BadDimensions):
        covariant_laplacian_oracle(lambda t: 0.0, zero_u, np.zeros(7))


# -------------------------------------------------------------- hutchinson


def test_hutchinson_diagonal_is_exact():
    """Diagonal Hessians are estimated without probe variance: v_i^2 = 1."""
    d = np.array([1.0, 2.0, 3.0])
    est = hessian_trace_hutchinson(lambda p: p * d, np.array([0.2, -0.1, 0.4]),
                                   1, 5)
    assert est == pytest.approx(6.0, abs=1e-6)


def test_hutchinson_linear_function_is_zero():
    b = np.array([3.0, -1.0, 2.0, 0.5])
    est = hessian_trace_hutchinson(lambda p: np.broadcast_to(b, p.shape),
                                   np.zeros(4), 4, 0)
    assert abs(est) <= 1e-8


def test_hutchinson_diagonal_exact_any_seed():
    rng = RngStream(51)
    d = rng.normal((6,))
    theta = rng.normal((6,))
    for seed in range(5):
        est = hessian_trace_hutchinson(
            lambda p: p * d, theta, 1, seed)
        assert est == pytest.approx(float(np.sum(d)), abs=1e-8)


def test_hutchinson_dense_hessian_accuracy():
    """K = 256 probes give ~1% relative error on a trace-dominated Hessian;
    the median over 20 draws must stay within 10%."""
    n = 16
    w = RngStream(52).normal((n, n))
    a = 3.0 * np.eye(n) + 0.3 * (w + w.T)
    theta = RngStream(53).normal((n,), scale=0.5)
    exact = float(np.trace(a))
    errs = []
    for seed in range(20):
        est = hessian_trace_hutchinson(
            quad_grad(a), theta, 256, seed)
        errs.append(abs(est - exact) / abs(exact))
    assert np.median(errs) <= 0.10


# ------------------------------------------------------------------ ratio


def test_ratio_zero_divergence():
    assert divergence_ratio(0.0, 5.0) == 0.0


def test_ratio_signs_dropped():
    assert divergence_ratio(2.0, -4.0) == 0.5


def test_ratio_floor_guards_zero_trace():
    assert divergence_ratio(1.0, 0.0) == pytest.approx(1e12, rel=1e-9)
