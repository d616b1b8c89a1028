"""Metric network tests: forward structure, training loop, checkpoints.

The two load-bearing exact properties here are the Euclidean start (zero
heads make u identically zero, so the initial divergence coincides with the
Hessian trace bitwise) and the saddle at that start (every phi-derivative of
the loss carries a factor of u, so the gradient is exactly zero while the
loss is not — the training loop must kick its way off the plateau).
"""

import json
import time

import numpy as np
import pytest

import tape_reference as tape
from rpg.divergence import divergence_report, hessian_trace_hutchinson
from rpg.envs import make_env
from rpg.errors import BadDimensions, LayoutMismatch
from rpg.fields import ProbeConfig, default_fd_step
from rpg.metricnet import (LayerLayout, MetricNetConfig, build_u_field,
                           evaluate_divergence_loss, freeze_probe_batch,
                           init_params, load_params, metric_net_forward,
                           params_to_json, probe_field_rows, save_params,
                           train_metric_net)
from rpg.policy import LinearGainPolicy, PolicyMLP
from rpg.rng import RngStream, rademacher_matrix
from tape_reference import DiffGraph, add, mul, reduce_sum


def small_layout():
    return LayerLayout(shapes=((4, 4), (4,), (4, 2), (2,)))


def pointmass_layout():
    env = make_env("pointmass")
    return PolicyMLP(env.state_dim, env.action_dim, RngStream(0)).layout


def make_phi(seed=0, layout=None, m_tilde=3, heads="zero"):
    layout = layout or small_layout()
    cfg = MetricNetConfig(m_tilde=m_tilde)
    phi = init_params(RngStream(seed), cfg, layout)
    if heads == "random":
        r = RngStream(seed + 1000)
        for a in (phi.head_omega_w, phi.head_omega_b,
                  phi.head_sigma_w, phi.head_sigma_b):
            a += r.uniform(-0.1, 0.1, a.shape)
    return phi


# ------------------------------------------------------------------ layout


def test_layout_round_trip_exact():
    layout = small_layout()
    vec = RngStream(1).normal((layout.n,))
    assert np.array_equal(layout.flatten(layout.unflatten(vec)), vec)


def test_layout_unflatten_batch_shapes():
    layout = small_layout()
    parts = layout.unflatten_batch(np.zeros((7, layout.n)))
    assert [p.shape for p in parts] == [(7, 4, 4), (7, 4), (7, 4, 2), (7, 2)]


def test_layout_output_bias_rule():
    assert small_layout().output_bias_part == 3
    assert LayerLayout.from_vector(8).output_bias_part is None
    assert LayerLayout(shapes=((3, 3),)).output_bias_part is None


def test_layout_rejects_wrong_sizes():
    layout = small_layout()
    with pytest.raises(LayoutMismatch):
        layout.unflatten(np.zeros(layout.n + 1))
    with pytest.raises(LayoutMismatch):
        layout.flatten([np.zeros((4, 4))])


# ----------------------------------------------------------------- forward


def test_zero_heads_give_zero_outputs():
    phi = make_phi(seed=3)
    theta = RngStream(4).normal((phi.layout.n,))
    omega, sigma, graph = metric_net_forward(phi, phi.layout.unflatten(theta))
    assert graph is None
    assert np.array_equal(omega, np.zeros(3))
    assert np.array_equal(sigma, np.zeros(3))


def test_forward_deterministic():
    phi = make_phi(seed=5, heads="random")
    theta = RngStream(6).normal((phi.layout.n,))
    a = metric_net_forward(phi, phi.layout.unflatten(theta))
    b = metric_net_forward(phi, phi.layout.unflatten(theta))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_forward_batched_matches_single():
    phi = make_phi(seed=7, heads="random")
    pts = RngStream(8).normal((5, phi.layout.n))
    om_b, sg_b, _ = metric_net_forward(phi, phi.layout.unflatten_batch(pts))
    for i in range(5):
        om, sg, _ = metric_net_forward(phi, phi.layout.unflatten(pts[i]))
        assert np.allclose(om_b[i], om, atol=1e-14)
        assert np.allclose(sg_b[i], sg, atol=1e-14)


def test_forward_rejects_wrong_layout():
    phi = make_phi(seed=9)
    with pytest.raises(LayoutMismatch):
        metric_net_forward(phi, [np.zeros((4, 4))])
    with pytest.raises(LayoutMismatch):
        metric_net_forward(phi, [np.zeros((4, 4)), np.zeros(4),
                                 np.zeros((4, 2)), np.zeros(3)])


def test_trunk_perturbation_matches_backprop():
    """FD directional derivative of the summed outputs vs the tape gradient
    of the reference forward."""
    phi = make_phi(seed=11, heads="random")
    theta_parts = phi.layout.unflatten(RngStream(12).normal((phi.layout.n,)))

    graph = DiffGraph()
    var_phi = phi.with_arrays([graph.leaf(a) for a in phi.params_list()])
    omega, sigma, _ = tape.metric_net_forward(var_phi, theta_parts)
    total = add(reduce_sum(omega), reduce_sum(sigma))
    grads = graph.leaf_gradients(total)
    trunk_index = next(i for i, a in enumerate(phi.params_list())
                       if a is phi.trunk_w)
    predicted = grads[trunk_index][0, 0]
    assert abs(predicted) > 1e-12

    h = 1e-5
    for sign in (1.0, -1.0):
        phi.trunk_w[0, 0] += sign * h
        om, sg, _ = metric_net_forward(phi, theta_parts)
        if sign > 0:
            up = float(np.sum(om) + np.sum(sg))
        else:
            down = float(np.sum(om) + np.sum(sg))
        phi.trunk_w[0, 0] -= sign * h
    fd = (up - down) / (2 * h)
    assert abs(fd - predicted) <= 1e-3 * abs(fd)


# The front end built tap by tap and window by window from slice, mul, add
# and concat nodes: the reference that the tape's stage primitives must
# reproduce.


def per_tap_conv(x, kern, k, ndim):
    out = None
    if ndim == 2:
        ro, co = x.shape[1] - k + 1, x.shape[2] - k + 1
        for a in range(k):
            for b in range(k):
                seg = tape.slice_axis(x, (slice(None), slice(a, a + ro),
                                          slice(b, b + co)))
                term = tape.mul(seg, tape.slice_axis(kern, a * k + b))
                out = term if out is None else tape.add(out, term)
        return out
    lo = x.shape[1] - k + 1
    for j in range(k):
        seg = tape.slice_axis(x, (slice(None), slice(j, j + lo)))
        term = tape.mul(seg, tape.slice_axis(kern, j))
        out = term if out is None else tape.add(out, term)
    return out


def per_window_pool(x, size):
    b, length = x.shape
    cols = []
    for s in range(0, length, size):
        e = min(s + size, length)
        seg = tape.slice_axis(x, (slice(None), slice(s, e)))
        avg = tape.mul(tape.reduce_sum(seg, axis=1), 1.0 / (e - s))
        cols.append(tape.reshape(avg, (b, 1)))
    return cols[0] if len(cols) == 1 else tape.concat(cols, axis=1)


def outputs_and_phi_grads(phi, pts):
    """(omega, sigma) of the reference forward at pts, and the
    phi-gradient of a fixed mix of them."""
    graph = DiffGraph()
    var_phi = phi.with_arrays([graph.leaf(a) for a in phi.params_list()])
    om, sg, _ = tape.metric_net_forward(var_phi,
                                        phi.layout.unflatten_batch(pts))
    mix = RngStream(99).normal(np.shape(tape.value(om)))
    total = add(reduce_sum(mul(om, mix)), reduce_sum(mul(sg, sg)))
    return [tape.value(om), tape.value(sg)] + graph.leaf_gradients(total)


# the pointmass MLP, LQR, small and mixed 2-d/1-d layouts
over_layouts = pytest.mark.parametrize("layout", [
    pointmass_layout(),
    LinearGainPolicy(1, 1).layout,
    small_layout(),
    LayerLayout(shapes=((5, 4), (7, 3), (3,))),
], ids=["pointmass", "lqr", "small", "mixed-2d-1d"])


@over_layouts
def test_stage_primitives_match_per_tap_front_end(layout, monkeypatch):
    phi = make_phi(seed=50, layout=layout, m_tilde=min(3, layout.n - 1),
                   heads="random")
    pts = RngStream(51).normal((11, layout.n))
    got = outputs_and_phi_grads(phi, pts)
    monkeypatch.setattr(tape, "conv_valid", per_tap_conv)
    monkeypatch.setattr(tape, "avg_pool", per_window_pool)
    want = outputs_and_phi_grads(phi, pts)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(
            1.0, np.max(np.abs(b), initial=0.0))


@over_layouts
def test_fused_loss_matches_tape_reference(layout):
    """The numpy forward equals the tape forward bitwise; the hand-written
    backward gives the tape's loss and phi-gradients to 1e-12 relative."""
    phi = make_phi(seed=54, layout=layout, m_tilde=min(3, layout.n - 1),
                   heads="random")
    pts = RngStream(55).normal((11, layout.n))
    got = metric_net_forward(phi, layout.unflatten_batch(pts))
    want = tape.metric_net_forward(phi, layout.unflatten_batch(pts))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])

    d = 1.0 + np.arange(layout.n) / layout.n
    ctx = freeze(phi, pts[0], lambda p: p * d + np.sin(p),
                 ProbeConfig(probe_count=8, seed=6))
    div, loss, grads = evaluate_divergence_loss(phi, ctx)
    ref_div, ref_loss, ref_grads = tape.evaluate_divergence_loss(phi, ctx)
    assert abs(div - ref_div) <= 1e-12 * abs(ref_div)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert len(grads) == len(ref_grads) == len(phi.params_list())
    for a, b in zip(grads, ref_grads):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_forward_cost_scales_linearly():
    """Doubling the flat dimension must not double-plus the forward time.

    The layout carries one fixed 16x16 part so the constant share keeps the
    honest-linear ratio comfortably below the 2x bound (a quadratic scan
    would land far above it).
    """
    times = []
    for n in (256, 512):
        layout = LayerLayout(shapes=((16, 16), (n,)))
        phi = init_params(RngStream(13), MetricNetConfig(m_tilde=4), layout)
        parts = layout.unflatten(np.zeros(layout.n))
        metric_net_forward(phi, parts)  # warm up
        best = np.inf
        for _ in range(9):
            t0 = time.perf_counter()
            metric_net_forward(phi, parts)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    assert times[1] / times[0] <= 2.0


# -------------------------------------------------------------------- init


def test_init_heads_zero_trunk_varies_with_seed():
    a = make_phi(seed=21)
    b = make_phi(seed=22)
    assert np.array_equal(a.head_omega_w, np.zeros_like(a.head_omega_w))
    assert np.array_equal(a.head_sigma_w, np.zeros_like(a.head_sigma_w))
    assert not np.array_equal(a.trunk_w, b.trunk_w)


def test_init_rejects_large_m_tilde():
    layout = LayerLayout.from_vector(4)
    with pytest.raises(BadDimensions):
        init_params(RngStream(1), MetricNetConfig(m_tilde=4), layout)


def test_param_groups_partition():
    phi = make_phi(seed=23)
    groups = phi.param_groups()
    total = len(phi.params_list())
    joined = sorted(groups["shared"] + groups["phi1"] + groups["phi2"])
    assert joined == list(range(total))
    assert groups["phi1"] == [total - 4, total - 3]
    assert groups["phi2"] == [total - 2, total - 1]


def test_initial_ratio_is_exactly_one():
    """u = 0 at init, so the report's div and trace share every bit."""
    phi = make_phi(seed=24)
    n = phi.layout.n
    a = 2.0 * np.eye(n) + 0.1
    rep = divergence_report(lambda p: p @ a, build_u_field(phi),
                            RngStream(25).normal((n,)),
                            ProbeConfig(probe_count=8, seed=1))
    assert rep.div == rep.hessian_trace
    assert rep.ratio == 1.0


# ---------------------------------------------------------------- training


def quad_fixture(n=8):
    d = np.arange(1.0, n + 1.0)
    layout = LayerLayout.from_vector(n)
    grad_fn = lambda p: p * d
    theta = 0.5 * np.ones(n)
    return layout, grad_fn, theta, d


def freeze(phi, theta, grad_fn, pc):
    """One frozen batch at pc's own probe draw, field rows from one call."""
    probes = rademacher_matrix(RngStream(pc.seed), pc.probe_count, theta.size)
    eps = default_fd_step(theta)
    g0, probe_grads = probe_field_rows(grad_fn, theta, probes[None], eps)
    return freeze_probe_batch(build_u_field(phi)(theta), theta, g0, probes,
                              probe_grads[0], eps)


@pytest.mark.parametrize("layout, m_tilde", [
    (LayerLayout.from_vector(4), 3),
    (LayerLayout(shapes=((1, 1), (1,))), 1),
    (pointmass_layout(), 3),
], ids=["vector", "lqr", "pointmass"])
def test_report_div_is_loss_div_bitwise(layout, m_tilde):
    """The report and the metric loss share one probe estimator: for the
    same phi and probe draw their div agrees in every bit."""
    phi = make_phi(seed=26, layout=layout, m_tilde=m_tilde, heads="random")
    n = layout.n
    w = RngStream(27).normal((n, n))
    grad_fn = lambda p: np.tanh(p) @ (w + w.T)
    theta = RngStream(28).normal((n,), scale=0.5)
    pc = ProbeConfig(probe_count=8, seed=2)
    rep = divergence_report(grad_fn, build_u_field(phi), theta, pc)
    div, _, _ = evaluate_divergence_loss(phi, freeze(phi, theta, grad_fn, pc))
    assert rep.div == div


def test_zero_head_start_is_exact_saddle():
    """Loss positive, every phi-gradient exactly 0.0 — not approximately."""
    layout, grad_fn, theta, d = quad_fixture()
    phi = init_params(RngStream(30), MetricNetConfig(m_tilde=3), layout)
    ctx = freeze(phi, theta, grad_fn, ProbeConfig(probe_count=8))
    div, loss, grads = evaluate_divergence_loss(phi, ctx)
    assert div == pytest.approx(float(np.sum(d)), abs=1e-9)
    assert loss > 0
    assert all(np.all(g == 0.0) for g in grads)


def test_initial_divergence_matches_hutchinson():
    layout, grad_fn, theta, d = quad_fixture()
    phi = init_params(RngStream(31), MetricNetConfig(m_tilde=3), layout)
    pc = ProbeConfig(probe_count=8, seed=4)
    ctx = freeze(phi, theta, grad_fn, pc)
    div, _, _ = evaluate_divergence_loss(phi, ctx)
    trace = hessian_trace_hutchinson(grad_fn, theta, pc)
    assert div == pytest.approx(trace, rel=1e-12)


def test_phi_gradient_matches_fd():
    """Central FD over a handful of phi coordinates, frozen probe batch."""
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(32), MetricNetConfig(m_tilde=3), layout)
    r = RngStream(33)
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += r.uniform(-0.05, 0.05, a.shape)
    ctx = freeze(phi, theta, grad_fn, ProbeConfig(probe_count=8))
    _, _, grads = evaluate_divergence_loss(phi, ctx)

    arrs = phi.params_list()
    picks = [(0, 0), (len(arrs) - 6, 0), (len(arrs) - 4, 0),
             (len(arrs) - 2, 0), (len(arrs) - 1, 0)]
    # The loss sits near 1300, so a tiny step drowns the central difference
    # in rounding; 1e-4 keeps both truncation and cancellation far below
    # the 1e-3 gate.
    h = 1e-4
    for ai, flat in picks:
        a = arrs[ai]
        idx = np.unravel_index(flat, a.shape)
        a[idx] += h
        _, up, _ = evaluate_divergence_loss(phi, ctx)
        a[idx] -= 2 * h
        _, down, _ = evaluate_divergence_loss(phi, ctx)
        a[idx] += h
        fd = (up - down) / (2 * h)
        got = grads[ai][idx]
        if abs(fd) > 1e-8:
            assert abs(got - fd) <= 1e-3 * abs(fd)
        else:
            assert abs(got) <= 1e-6


def test_phi_gradient_matches_fd_on_2d_kernels():
    """Every tap of the first 2-d kernel of the pointmass layout, and of the
    second 2-d stage of its 16x16 part, against central differences."""
    layout = pointmass_layout()
    phi = make_phi(seed=52, layout=layout, heads="random")
    assert phi.plans[0] == ("2d", "1d") and phi.plans[2] == ("2d", "2d")
    theta = RngStream(53).normal((layout.n,))
    d = 1.0 + np.arange(layout.n) / layout.n
    ctx = freeze(phi, theta, lambda p: p * d, ProbeConfig(probe_count=8))
    _, _, grads = evaluate_divergence_loss(phi, ctx)

    arrs = phi.params_list()
    second_2d = next(i for i, a in enumerate(arrs)
                     if a is phi.part_convs[2][1])
    # The loss sits near 3.4e5 while these derivatives are ~1e-2 to 1e-1,
    # and the loss itself carries probe-difference rounding of ~1e-9, so
    # the step must be large; the loss is smooth enough in the kernel taps
    # that truncation stays ~1e-5 relative at 1e-2.
    h = 1e-2
    for ai in (0, second_2d):
        assert arrs[ai].shape == (9,)
        for t in range(9):
            arrs[ai][t] += h
            _, up, _ = evaluate_divergence_loss(phi, ctx)
            arrs[ai][t] -= 2 * h
            _, down, _ = evaluate_divergence_loss(phi, ctx)
            arrs[ai][t] += h
            fd = (up - down) / (2 * h)
            assert abs(fd) > 1e-8
            assert abs(grads[ai][t] - fd) <= 1e-3 * abs(fd)


def test_train_zero_field_is_noop():
    """J = 0 everywhere: loss exactly 0, phi returned bit-identical."""
    layout = LayerLayout.from_vector(6)
    phi = init_params(RngStream(34), MetricNetConfig(m_tilde=2), layout)
    before = [a.copy() for a in phi.params_list()]
    out, history = train_metric_net(phi, np.ones(6),
                                    lambda p: np.zeros_like(p),
                                    ProbeConfig(probe_count=4), max_iters=5)
    assert [(i, d, l) for i, d, l in history] == [(i, 0.0, 0.0)
                                                  for i in range(5)]
    assert all(np.array_equal(a, b)
               for a, b in zip(out.params_list(), before))


def test_train_history_loss_non_increasing():
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(35), MetricNetConfig(m_tilde=3), layout)
    _, history = train_metric_net(phi, theta, grad_fn,
                                  ProbeConfig(probe_count=8, seed=2),
                                  max_iters=8)
    losses = [l for _, _, l in history]
    assert len(losses) == 8
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] <= losses[0]


def test_train_deterministic():
    layout, grad_fn, theta, _ = quad_fixture()
    runs = []
    for _ in range(2):
        phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
        out, history = train_metric_net(phi, theta, grad_fn,
                                        ProbeConfig(probe_count=8, seed=3),
                                        max_iters=5)
        runs.append((out, history))
    assert runs[0][1] == runs[1][1]
    assert all(np.array_equal(a, b) for a, b in
               zip(runs[0][0].params_list(), runs[1][0].params_list()))


def test_train_aborts_on_non_finite():
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(37), MetricNetConfig(m_tilde=3), layout)
    phi.trunk_w[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        out, history = train_metric_net(
            phi, theta, grad_fn, ProbeConfig(probe_count=4), max_iters=5)
    assert history == []
    assert np.isinf(out.trunk_w[0, 0])

    # a NaN gradient field: same abort, phi untouched, nothing raised
    phi = init_params(RngStream(37), MetricNetConfig(m_tilde=3), layout)
    out, history = train_metric_net(
        phi, theta, lambda p: np.full_like(p, np.nan),
        ProbeConfig(probe_count=4), max_iters=5)
    assert history == []
    assert all(np.array_equal(a, b)
               for a, b in zip(out.params_list(), phi.params_list()))


def test_train_non_finite_row_ends_loop_at_its_iteration():
    """The field is evaluated for every iteration up front, yet a NaN row
    in iteration 2's probes ends the loop at iteration 2, not before."""
    layout, grad_fn, theta, d = quad_fixture()
    pc = ProbeConfig(probe_count=4, seed=5)
    probe_rng = RngStream(pc.seed).spawn("alg1-probes")
    draws = [rademacher_matrix(probe_rng, 4, theta.size) for _ in range(5)]
    bad = theta + default_fd_step(theta) * draws[2][0]
    # no row theta +- eps*v of iterations 0 and 1 is the bad point
    earlier = np.concatenate(draws[:2])
    assert not np.any(np.all(earlier == draws[2][0], axis=1))
    assert not np.any(np.all(-earlier == draws[2][0], axis=1))

    def field(pts):
        out = pts * d
        out[np.all(pts == bad, axis=1)] = np.nan
        return out

    phi = init_params(RngStream(39), MetricNetConfig(m_tilde=3), layout)
    _, history = train_metric_net(phi, theta, field, pc, max_iters=5)
    _, clean = train_metric_net(phi, theta, grad_fn, pc, max_iters=5)
    assert [it for it, _, _ in history] == [0, 1]
    assert history == clean[:2]


@pytest.mark.parametrize("max_iters", [1, 3, 7])
def test_train_evaluates_field_once_per_pass(max_iters):
    layout, _, theta, d = quad_fixture()
    calls = []

    def field(pts):
        calls.append(np.shape(pts))
        return pts * d

    phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
    train_metric_net(phi, theta, field, ProbeConfig(probe_count=4, seed=3),
                     max_iters=max_iters)
    assert calls == [(1 + 2 * 4 * max_iters, theta.size)]


def test_train_rejects_zero_iters():
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(38), MetricNetConfig(m_tilde=3), layout)
    with pytest.raises(ValueError):
        train_metric_net(phi, theta, grad_fn, ProbeConfig(probe_count=4),
                         max_iters=0)


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    phi = make_phi(seed=40, heads="random")
    path = str(tmp_path / "phi.bin")
    save_params(phi, path)
    back = load_params(path)
    assert back.m_tilde == phi.m_tilde
    assert back.plans == phi.plans
    assert back.layout.shapes == phi.layout.shapes
    for a, b in zip(phi.params_list(), back.params_list()):
        assert np.array_equal(a, b)
    theta = RngStream(41).normal((phi.layout.n,))
    before = metric_net_forward(phi, phi.layout.unflatten(theta))
    after = metric_net_forward(back, back.layout.unflatten(theta))
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


def test_checkpoint_round_trip_keeps_pool_exempt(tmp_path):
    """A PolicyMLP layout exempts its output bias, not its trailing log_std."""
    layout = PolicyMLP(4, 2, RngStream(0)).layout
    assert layout.output_bias_part == 5
    phi = make_phi(seed=48, layout=layout, heads="random")
    path = str(tmp_path / "phi.bin")
    save_params(phi, path)
    back = load_params(path)
    assert back.layout == layout
    for a, b in zip(phi.params_list(), back.params_list()):
        assert np.array_equal(a, b)
    theta = RngStream(49).normal((layout.n,))
    before = metric_net_forward(phi, layout.unflatten(theta))
    after = metric_net_forward(back, back.layout.unflatten(theta))
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


def test_checkpoint_reads_version_1(tmp_path):
    """A v1 file has no pool_exempt entry: the default exempt part applies."""
    phi = make_phi(seed=50, heads="random")
    path = tmp_path / "phi.bin"
    save_params(phi, str(path))

    def to_v1(header):
        header["version"] = 1
        del header["pool_exempt"]

    tamper_header(path, to_v1)
    path.write_bytes(b"RPGPHI1\n" + path.read_bytes()[8:])
    back = load_params(str(path))
    assert back.layout == phi.layout
    for a, b in zip(phi.params_list(), back.params_list()):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_params(str(path))


def tamper_header(path, edit):
    """Rewrite a checkpoint's JSON header through edit, payload untouched."""
    raw = path.read_bytes()
    at = 8 + 8
    size = int.from_bytes(raw[8:at], "little")
    header = json.loads(raw[at:at + size])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                     + raw[at + size:])


HEADER_KEYS = ("kernel", "pool_size", "m_tilde", "layout", "plans", "arrays")


@pytest.mark.parametrize("edit", [
    lambda h: h["plans"].__setitem__(0, ["1d", "1d"]),
    lambda h: h["arrays"].__setitem__(-6, h["arrays"][-6][::-1]),
    lambda h: h.pop("pool_exempt"),
    lambda h: h.__setitem__("pool_exempt", "1"),
    lambda h: h.__setitem__("pool_exempt", 1.0),
    lambda h: h.__setitem__("kernel", 5),
    lambda h: h.__setitem__("pool_size", 4),
] + [lambda h, key=key: h.pop(key) for key in HEADER_KEYS],
    ids=["plan", "array-shape", "pool-exempt-missing", "pool-exempt-str",
         "pool-exempt-float", "kernel", "pool-size"]
    + [f"{key}-missing" for key in HEADER_KEYS])
def test_checkpoint_rejects_header_that_mismatches_layout(tmp_path, edit):
    """A header edited so the payload size still adds up must not load.

    Headers still record kernel 3 and pool size 5, the values every v1 and
    v2 file was written with.
    """
    phi = make_phi(seed=47, heads="random")
    assert phi.plans[0] == ("2d", "1d")
    path = tmp_path / "phi.bin"
    save_params(phi, str(path))

    def check_then_edit(header):
        assert (header["kernel"], header["pool_size"]) == (3, 5)
        edit(header)

    tamper_header(path, check_then_edit)
    with pytest.raises(LayoutMismatch):
        load_params(str(path))


def test_checkpoint_header_missing_key_is_named(tmp_path):
    phi = make_phi(seed=47)
    path = tmp_path / "phi.bin"
    for key in HEADER_KEYS:
        save_params(phi, str(path))
        tamper_header(path, lambda h: h.pop(key))
        with pytest.raises(LayoutMismatch, match=f"lacks {key}$"):
            load_params(str(path))


def test_json_export_structure():
    phi = make_phi(seed=42)
    out = params_to_json(phi)
    assert out["m_tilde"] == 3
    assert len(out["arrays"]) == len(phi.params_list())
    assert sorted(out["groups"]) == ["phi1", "phi2", "shared"]


# ------------------------------------------------------------------ u field


def test_u_field_zero_at_init_and_batch_capable():
    phi = make_phi(seed=43)
    u_fn = build_u_field(phi)
    pts = RngStream(44).normal((6, phi.layout.n))
    out = u_fn(pts)
    assert out.shape == pts.shape
    assert np.array_equal(out, np.zeros_like(pts))
    single = u_fn(pts[0])
    assert single.shape == (phi.layout.n,)


def test_u_field_nonzero_after_head_kick():
    phi = make_phi(seed=45, heads="random")
    u_fn = build_u_field(phi)
    out = u_fn(RngStream(46).normal((3, phi.layout.n)))
    assert np.max(np.abs(out)) > 0
