"""Self-contained oracle suites behind `rpg verify`.

Each suite re-derives a core quantity through an independent route (dense
linear algebra, finite differences, closed forms, brute-force integration)
and compares against the fast implementation, printing one PASS/FAIL row
per check with the measured residual next to its bound. Everything is
seeded, needs no network or files, and finishes in well under five minutes.

One check is expected to fail by construction and is reported as
KNOWN-DEFECT instead of FAIL (and excluded from the exit status): the
truncated trigonometric rotation is provably not orthogonal — the defect
R^T R - I = -(Omega Ss Phi^T + Phi Ss Omega^T) is O(sin sigma) no matter
how orthonormal the retained basis columns are, so no multiple of the
basis Gram error can bound it. The corresponding identity is pinned
exactly in tests/test_fourier.py.
"""

import time
from dataclasses import dataclass

import numpy as np

from .divergence import (covariant_laplacian_oracle, divergence_exact,
                         draw_probes, freeze_probe_batch,
                         hessian_trace_hutchinson, laplace_beltrami_oracle,
                         probe_field_rows)
from .errors import DegenerateSpectrum
from .fourier import (build_fourier_pair, check_exp_decomposition,
                      dense_rotation, full_pair, rotate)
from .geodesic import (christoffel_fd, covariant_metric_residual,
                       geodesic_gradient, geodesic_gradient_component,
                       geodesic_ode_direction)
from .metric import MetricPoint, inverse_apply, metric_det, metric_matrix
from .metricnet import (LayerLayout, MetricNetConfig, UField,
                        evaluate_divergence_loss, init_params,
                        train_metric_net)
from .rng import RngStream, rademacher_matrix

PASS, FAIL, SKIP, DEFECT = "PASS", "FAIL", "SKIP", "KNOWN-DEFECT"


@dataclass
class CheckRow:
    label: str
    status: str
    detail: str


@dataclass
class SuiteResult:
    name: str
    rows: list
    seconds: float

    @property
    def failed(self):
        return any(r.status == FAIL for r in self.rows)


def _bound_row(label, measured, bound, extra=""):
    status = PASS if measured <= bound else FAIL
    detail = f"measured {measured:.3e} (bound {bound:g})"
    if extra:
        detail += f"  {extra}"
    return CheckRow(label, status, detail)


def _tanh_field(mat, scale):
    return lambda p: scale * np.tanh(p @ mat.T)


def _tanh_vjp(mat, scale):
    """(u, (du/dtheta)^T c) of ``_tanh_field`` at one point."""
    def vjp(theta, cot):
        t = np.tanh(theta @ mat.T)
        return scale * t, (scale * (1.0 - t * t) * cot) @ mat
    return vjp


# ---------------------------------------------------------------- suites


def suite_sherman_morrison():
    rng = RngStream(101)
    worst_inv, worst_det = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 17))
        u = rng.normal((n,), scale=1.5)
        mp = MetricPoint(u)
        g = metric_matrix(mp)
        x = rng.normal((n,))
        worst_inv = max(worst_inv, float(np.max(np.abs(
            inverse_apply(mp, x) - np.linalg.inv(g) @ x))))
        ref = float(np.linalg.det(g))
        worst_det = max(worst_det, abs(metric_det(mp) - ref) / abs(ref))
    return [
        _bound_row("rank-one inverse vs dense inverse (200 fixtures, n<=16)",
                   worst_inv, 1e-10),
        _bound_row("rank-one determinant vs dense determinant",
                   worst_det, 1e-10),
    ]


def _divergence_fixture(seed, n):
    rng = RngStream(seed)
    w = rng.normal((n, n), scale=0.4)
    a = 2.0 * np.eye(n) + 0.25 * (w + w.T)
    umat = rng.normal((n, n), scale=0.4)
    theta = rng.normal((n,), scale=0.5)
    f = lambda t: 0.5 * float(np.asarray(t) @ a @ np.asarray(t))
    grad_fn = lambda p: p @ a
    u_fn = _tanh_field(umat, 0.5)
    return f, grad_fn, u_fn, theta


def suite_divergence():
    worst_lb, worst_cov = 0.0, 0.0
    for k in range(20):
        n = 2 + (k % 5)
        f, grad_fn, u_fn, theta = _divergence_fixture(200 + k, n)
        exact = divergence_exact(grad_fn, u_fn, theta)
        lb = laplace_beltrami_oracle(f, u_fn, theta)
        cov = covariant_laplacian_oracle(f, u_fn, theta)
        worst_lb = max(worst_lb, abs(exact - lb))
        worst_cov = max(worst_cov, abs(exact - cov))
    return [
        _bound_row("exact divergence vs volume-weighted oracle "
                   "(20 fixtures, n<=6)", worst_lb, 1e-3),
        _bound_row("exact divergence vs connection-corrected oracle",
                   worst_cov, 1e-3),
    ]


def suite_rotation():
    rng = RngStream(301)
    worst, skips, checked = 0.0, 0, 0
    for k in range(50):
        n = 2 + (k % 11)
        m = rng.normal((n, n))
        a = 0.7 * (m - m.T)
        try:
            worst = max(worst, check_exp_decomposition(a))
            checked += 1
        except DegenerateSpectrum:
            skips += 1
    rows = [_bound_row(
        "exponential splits into cos/sin factors (50 fixtures, n<=12)",
        worst, 1e-7, extra=f"[{checked} checked, {skips} degenerate skipped]")]
    two = check_exp_decomposition(np.array([[0.0, 0.83], [-0.83, 0.0]]))
    rows.append(_bound_row("2x2 closed-form rotation", two, 1e-9))
    return rows


def suite_fourier():
    worst_phase = 0.0
    for n in (8, 32):
        fp = full_pair(n)
        rng = RngStream(n)
        sigma = rng.uniform(-np.pi, np.pi, size=fp.m_tilde)
        grid = np.arange(n)
        for i in range(1, fp.m_tilde + 1):
            x = fp.omega[:, i - 1]
            expected = np.sqrt(2.0 / n) * np.cos(
                2 * np.pi * i * grid / n + sigma[i - 1])
            worst_phase = max(worst_phase, float(np.max(np.abs(
                rotate(fp, sigma, x) - expected))))
    rows = [_bound_row("full-frame rotation shifts each phase by sigma "
                       "(n in {8, 32})", worst_phase, 1e-8)]

    fp = build_fourier_pair(16, 4)
    grid = np.arange(16)
    sigma = np.array([0.3, -1.2, 0.7, 2.0])
    worst_high = 0.0
    for freq in (5, 6, 7):
        for wave in (np.cos, np.sin):
            x = wave(2 * np.pi * freq * grid / 16)
            worst_high = max(worst_high, float(np.max(np.abs(
                rotate(fp, sigma, x) - x))))
    rows.append(_bound_row("truncated rotation leaves out-of-band waves "
                           "untouched", worst_high, 1e-12))

    rng = RngStream(401)
    violations, worst_defect, worst_allowance = 0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(8, 41))
        m_tilde = int(rng.integers(1, max(2, n // 4)))
        fp = build_fourier_pair(n, m_tilde)
        sigma = rng.uniform(-np.pi, np.pi, size=m_tilde)
        r = dense_rotation(fp, sigma)
        defect = float(np.max(np.abs(r.T @ r - np.eye(n))))
        allowance = 8.0 * fp.gram_error
        if defect > allowance:
            violations += 1
            if defect > worst_defect:
                worst_defect, worst_allowance = defect, allowance
    rows.append(CheckRow(
        "orthogonality defect within 8x the basis Gram error (100 fixtures)",
        PASS if violations == 0 else DEFECT,
        f"{violations}/100 fixtures violate; worst {worst_defect:.3e} vs "
        f"allowed {worst_allowance:.3e} — the defect is O(sin sigma) by "
        f"identity, independent of the Gram error; see "
        f"tests/test_fourier.py"))
    return rows


def suite_geodesic():
    rows = []
    worst_rel = 0.0
    for k in range(20):
        n = 2 + (k % 7)
        rng = RngStream(500 + k)
        mat = rng.normal((n, n), scale=0.6)
        theta = rng.normal((n,), scale=0.5)
        j = rng.normal((n,), scale=0.5)
        a = geodesic_gradient(_tanh_vjp(mat, 0.5), theta, j, 0.25)
        b = geodesic_gradient_component(_tanh_field(mat, 0.5), theta, j,
                                        0.25)
        scale = max(1.0, float(np.max(np.abs(a))))
        worst_rel = max(worst_rel, float(np.max(np.abs(a - b))) / scale)
    rows.append(_bound_row("VJP form vs component-sum form "
                           "(20 fixtures, n<=8)", worst_rel, 1e-4))

    rng = RngStream(510)
    theta, j = rng.normal((5,)), rng.normal((5,))
    flat = geodesic_gradient(
        lambda p, c: (np.zeros_like(p), np.zeros_like(p)), theta, j, 0.3)
    rows.append(CheckRow("flat field returns the input direction bit-exactly",
                         PASS if np.array_equal(flat, j) else FAIL,
                         "bitwise comparison"))

    worst_angle = 0.0
    dt = 1e-3
    for seed in (31, 32, 33):
        rng = RngStream(seed)
        mat = rng.normal((3, 3))
        theta = rng.normal((3,), scale=0.5)
        j = rng.normal((3,), scale=0.5)
        direction = geodesic_gradient(_tanh_vjp(mat, 0.5), theta, j, dt / 2)
        ode = geodesic_ode_direction(_tanh_field(mat, 0.5), theta, j, dt)
        cos = float(direction @ ode) / (np.linalg.norm(direction)
                                        * np.linalg.norm(ode))
        worst_angle = max(worst_angle,
                          float(np.arccos(np.clip(cos, -1.0, 1.0))))
    rows.append(_bound_row("closed-form direction vs integrated geodesic "
                           "step (dt = 1e-3)", worst_angle, 1e-2))

    worst_sym, worst_compat = 0.0, 0.0
    for seed in (21, 22, 23):
        rng = RngStream(seed)
        field = _tanh_field(rng.normal((4, 4), scale=0.8), 0.6)
        theta = rng.normal((4,), scale=0.4)
        gamma = christoffel_fd(field, theta).gamma
        worst_sym = max(worst_sym, float(np.max(np.abs(
            gamma - gamma.transpose(0, 2, 1)))))
        worst_compat = max(worst_compat,
                           covariant_metric_residual(field, theta))
    rows.append(_bound_row("connection symmetric in its lower index pair",
                           worst_sym, 1e-6))
    rows.append(_bound_row("connection is metric-compatible",
                           worst_compat, 1e-4))
    return rows


def suite_metric_training():
    d = np.arange(1.0, 9.0)
    grad_fn = lambda p: p * d
    theta = np.ones(8)
    layout = LayerLayout.from_vector(8)
    ratios = []
    for seed in range(10):
        phi = init_params(RngStream(seed), MetricNetConfig(m_tilde=3), layout)
        rows = probe_field_rows(grad_fn, theta,
                                draw_probes(seed, 64, 20, theta.size)[:-1])
        _, history = train_metric_net(phi, rows, seed, lr=0.1,
                                      kick_scale=0.05)
        ratios.append(history[-1][2] / history[0][2])
    rows = [_bound_row("median squared-divergence reduction over 10 seeds "
                       "(<= 20 iterations)", float(np.median(ratios)), 0.5)]

    phi = init_params(RngStream(32), MetricNetConfig(m_tilde=3), layout)
    r = RngStream(33)
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += r.uniform(-0.05, 0.05, a.shape)
    probes = rademacher_matrix(RngStream(0), 8, theta.size)
    field, = probe_field_rows(grad_fn, theta, probes[None])
    ctx = freeze_probe_batch(field, UField(phi)(theta))
    _, _, grad = evaluate_divergence_loss(phi, ctx)
    grads = phi.with_flat(grad).params_list()
    arrs = phi.params_list()
    picks = [(0, 0), (len(arrs) - 6, 0), (len(arrs) - 4, 0),
             (len(arrs) - 2, 0), (len(arrs) - 1, 0)]
    h = 1e-4
    worst_rel = 0.0
    for ai, flat in picks:
        a = arrs[ai]
        idx = np.unravel_index(flat, a.shape)
        a[idx] += h
        _, up, _ = evaluate_divergence_loss(phi, ctx)
        a[idx] -= 2 * h
        _, down, _ = evaluate_divergence_loss(phi, ctx)
        a[idx] += h
        fd = (up - down) / (2 * h)
        if abs(fd) > 1e-8:
            worst_rel = max(worst_rel, abs(grads[ai][idx] - fd) / abs(fd))
    rows.append(_bound_row("net-parameter gradient vs central differences",
                           worst_rel, 1e-3))
    return rows


def suite_hutchinson():
    rng = RngStream(601)
    d = rng.normal((6,))
    theta = rng.normal((6,))
    worst_diag = 0.0
    for seed in range(5):
        est = hessian_trace_hutchinson(lambda p: p * d, theta, 1, seed)
        worst_diag = max(worst_diag, abs(est - float(np.sum(d))))
    rows = [_bound_row("diagonal quadratics are probe-variance free",
                       worst_diag, 1e-8)]

    n = 16
    w = RngStream(52).normal((n, n))
    a = 3.0 * np.eye(n) + 0.3 * (w + w.T)
    point = RngStream(53).normal((n,), scale=0.5)
    exact = float(np.trace(a))
    errs = [abs(hessian_trace_hutchinson(lambda p: p @ a, point, 256, s)
                - exact) / abs(exact) for s in range(20)]
    rows.append(_bound_row("median relative error at 256 probes "
                           "(n = 16, 20 seeds)", float(np.median(errs)),
                           0.10))
    return rows


SUITES = {
    "sherman-morrison": suite_sherman_morrison,
    "divergence": suite_divergence,
    "rotation": suite_rotation,
    "fourier": suite_fourier,
    "geodesic": suite_geodesic,
    "metric-training": suite_metric_training,
    "hutchinson": suite_hutchinson,
}

ALIASES = {
    "prop1": "divergence",
    "prop2": "rotation",
    "prop3": "fourier",
    "prop4": "geodesic",
}


class UnknownSuite(KeyError):
    pass


def resolve_suite(name):
    canon = ALIASES.get(name, name)
    if canon not in SUITES:
        options = ", ".join(list(SUITES) + sorted(ALIASES))
        raise UnknownSuite(f"unknown suite {name!r} (choose from: {options})")
    return canon


def run_suites(names=None):
    """Run the requested suites (all by default) in declaration order and
    return SuiteResults; each suite seeds its own randomness."""
    chosen = list(SUITES) if names is None else [resolve_suite(n)
                                                 for n in names]
    results = []
    for name in chosen:
        start = time.perf_counter()
        rows = SUITES[name]()
        results.append(SuiteResult(name, rows, time.perf_counter() - start))
    return results


def format_results(results):
    lines = []
    defects = 0
    for res in results:
        lines.append(f"suite {res.name}  ({res.seconds:.2f} s)")
        for row in res.rows:
            lines.append(f"  {row.status:<12} {row.label}")
            lines.append(f"  {'':<12}   {row.detail}")
            if row.status == DEFECT:
                defects += 1
    failed = sum(1 for r in results if r.failed)
    if failed:
        lines.append(f"verify: {failed} suite(s) FAILED")
    else:
        note = (f" ({defects} known defect excluded)" if defects else "")
        lines.append(f"verify: all {len(results)} suite(s) clean{note}")
    return "\n".join(lines)


def exit_status(results):
    return 1 if any(r.failed for r in results) else 0
