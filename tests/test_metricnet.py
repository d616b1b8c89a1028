"""Metric network tests: forward structure, training loop, checkpoints.

The two load-bearing exact properties here are the Euclidean start (zero
heads make u identically zero, so the initial divergence coincides with the
Hessian trace bitwise) and the saddle at that start (every phi-derivative of
the loss carries a factor of u, so the gradient is exactly zero while the
loss is not — the training loop must kick its way off the plateau).
"""

import hashlib
import json
import os
import sys
import time

import numpy as np
import pytest

import rpg.metricnet
import tape_reference as tape
from helpers import (fd_geodesic_gradient, fd_pullback, net_arrays,
                     probe_rows, reference_net_backward,
                     reference_net_forward, reference_train_metric_net)
from rpg.divergence import (divergence_report, draw_probes,
                            hessian_trace_hutchinson, probe_field_rows)
from rpg.envs import make_env
from rpg.errors import BadDimensions, LayoutMismatch
from rpg.fields import default_fd_step
from rpg.geodesic import geodesic_gradient
from rpg.metricnet import (LayerLayout, MetricNetConfig, UField,
                           evaluate_divergence_loss, freeze_probe_batch,
                           init_params, load_params, metric_net_forward,
                           params_to_json, save_params,
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
    # the parts of unflatten_batch, laid end to end in layout order, give
    # the rows back bit for bit
    layout = small_layout()
    rows = RngStream(1).normal((3, layout.n))
    parts = layout.unflatten_batch(rows)
    back = np.concatenate([p.reshape(3, -1) for p in parts], axis=1)
    assert np.array_equal(back, rows)


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
    for bad in (np.zeros(layout.n), np.zeros((2, layout.n + 1))):
        with pytest.raises(LayoutMismatch):
            layout.unflatten_batch(bad)
    with pytest.raises(LayoutMismatch):
        LayerLayout(shapes=((4, 0), (2,)))


# ----------------------------------------------------------------- forward


def test_zero_heads_give_zero_outputs():
    phi = make_phi(seed=3)
    theta = RngStream(4).normal((1, phi.layout.n))
    omega, sigma, acts = metric_net_forward(phi, theta)
    # acts: the front, the points and the activations, last the trunk's
    assert np.array_equal(acts[1], theta)
    assert acts[-1].shape == (1, rpg.metricnet.TRUNK_WIDTH)
    assert np.array_equal(omega, np.zeros((1, 3)))
    assert np.array_equal(sigma, np.zeros((1, 3)))


def test_forward_deterministic():
    phi = make_phi(seed=5, heads="random")
    theta = RngStream(6).normal((1, phi.layout.n))
    a = metric_net_forward(phi, theta)
    b = metric_net_forward(phi, theta)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_forward_batched_matches_single():
    phi = make_phi(seed=7, heads="random")
    pts = RngStream(8).normal((5, phi.layout.n))
    om_b, sg_b, _ = metric_net_forward(phi, pts)
    for i in range(5):
        om, sg, _ = metric_net_forward(phi, pts[i:i + 1])
        assert np.allclose(om_b[i], om[0], atol=1e-14)
        assert np.allclose(sg_b[i], sg[0], atol=1e-14)


def test_forward_rejects_wrong_layout():
    phi = make_phi(seed=9)
    n = phi.layout.n
    for bad in (np.zeros(n), np.zeros(n - 1), np.zeros((2, n + 1)),
                np.zeros((2, 1, n)), np.zeros(())):
        with pytest.raises(LayoutMismatch):
            metric_net_forward(phi, bad)


def test_trunk_perturbation_matches_backprop():
    """FD directional derivative of the summed outputs vs the tape gradient
    of the reference forward."""
    phi = make_phi(seed=11, heads="random")
    theta = RngStream(12).normal((phi.layout.n,))
    theta_parts = [p[0] for p in phi.layout.unflatten_batch(theta[None])]

    graph = DiffGraph()
    arrays = phi.params_list()
    omega, sigma, _ = tape.metric_net_forward(
        phi, theta_parts, [graph.leaf(a) for a in arrays])
    total = add(reduce_sum(omega), reduce_sum(sigma))
    grads = graph.leaf_gradients(total)
    trunk_index = next(i for i, a in enumerate(arrays)
                       if a is net_arrays(phi, arrays).trunk_w)
    predicted = grads[trunk_index][0, 0]
    assert abs(predicted) > 1e-12

    h = 1e-5
    for sign in (1.0, -1.0):
        phi.trunk_w[0, 0] += sign * h
        om, sg, _ = metric_net_forward(phi, theta[None])
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
    om, sg, _ = tape.metric_net_forward(
        phi, phi.layout.unflatten_batch(pts),
        [graph.leaf(a) for a in phi.params_list()])
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
    """The numpy forward, whose chain is one product per part, gives the
    tape forward's outputs to 1e-15 relative; the hand-written backward
    gives the tape's loss and div to 1e-12 relative and its phi-gradients
    to 1e-12 of the largest gradient entry.  The loss differences rows
    theta +- eps*v, so a last-bit change in an activation comes back
    about 1/eps larger in a gradient, most visibly in one whose terms
    cancel; the bound is taken against the whole gradient's scale."""
    phi = make_phi(seed=54, layout=layout, m_tilde=min(3, layout.n - 1),
                   heads="random")
    pts = RngStream(55).normal((11, layout.n))
    got = metric_net_forward(phi, pts)
    want = tape.metric_net_forward(phi, layout.unflatten_batch(pts))
    for a, b in zip(got[:2], want[:2]):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    d = 1.0 + np.arange(layout.n) / layout.n
    ctx = freeze(phi, pts[0], lambda p: p * d + np.sin(p), 8, 6)
    div, loss, grad = evaluate_divergence_loss(phi, ctx)
    grads = phi.with_flat(grad).params_list()
    ref_div, ref_loss, ref_grads = tape.evaluate_divergence_loss(phi, ctx)
    assert abs(div - ref_div) <= 1e-12 * abs(ref_div)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert len(grads) == len(ref_grads) == len(phi.params_list())
    scale = max(np.max(np.abs(b)) for b in ref_grads)
    for a, b in zip(grads, ref_grads):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


@over_layouts
def test_collapsed_matrix_is_the_chain_on_identity_rows(layout):
    """A, built from phi right to left, is the per-tap chain
    (``helpers.reference_net_forward``) applied to the n identity rows:
    each part's pre-activation less its bias, in the part's block, and
    exact zeros outside it; to 1e-14 of A's largest entry (the worst
    measured is 1.1e-15, on the mixed layout)."""
    width = rpg.metricnet.PART_WIDTH
    phi = make_phi(seed=66, layout=layout, m_tilde=min(3, layout.n - 1))
    part_dense = net_arrays(phi).part_dense
    for _, b in part_dense:
        b += RngStream(67).uniform(-0.5, 0.5, b.shape)
    _, _, (part_acts, _, _, _) = reference_net_forward(
        phi, np.eye(layout.n), keep=True)
    want = np.concatenate([z - b for (_, _, z), (_, b) in
                           zip(part_acts, part_dense)], axis=1)
    _, a, bias, _ = rpg.metricnet._collapse(phi)
    assert a.shape == want.shape == (layout.n, width * len(layout.shapes))
    assert np.array_equal(bias, np.concatenate(
        [b for _, b in part_dense]))
    off_block = np.ones_like(a, dtype=bool)
    start = 0
    for i, size in enumerate(layout.sizes):
        off_block[start:start + size, width * i:width * (i + 1)] = False
        start += size
    assert not a[off_block].any()
    err = np.max(np.abs(a - want)) / np.max(np.abs(want))
    assert err <= 1e-14, err


@over_layouts
@pytest.mark.parametrize("rows", [1, 11, 200])
@pytest.mark.parametrize("to_theta", [False, True], ids=["phi", "theta"])
def test_backward_matches_per_tap_reference_bitwise(layout, rows, to_theta):
    """The forward and reverse pass through each part's collapsed matrix
    give the outputs, phi-gradient and theta-cotangent of the per-tap
    loops (``helpers.reference_net_forward`` and
    ``reference_net_backward``) to 1e-14 of each one's largest entry.
    They sum in another order, so they cannot agree bit for bit; the
    worst measured is 3.7e-16 (the LQR theta-cotangent at 11 rows)."""
    m_tilde = min(3, layout.n - 1)
    phi = make_phi(seed=64, layout=layout, m_tilde=m_tilde, heads="random")
    r = RngStream(65 + rows)
    pts = r.normal((rows, layout.n))
    omega, sigma, acts = metric_net_forward(phi, pts)
    ref_omega, ref_sigma, ref_acts = reference_net_forward(phi, pts,
                                                           keep=True)
    g_omega, g_sigma = r.normal((rows, m_tilde)), r.normal((rows, m_tilde))
    out = np.empty(phi.size)
    g_z = rpg.metricnet._net_backward(phi, acts, g_omega, g_sigma, out)
    want, want_theta = reference_net_backward(phi, ref_acts, g_omega,
                                              g_sigma, to_theta)
    pairs = [(omega, ref_omega), (sigma, ref_sigma), (out, want)]
    if to_theta:
        # the theta-cotangent g_z A^T, as UField.at's product forms it
        pairs.append((g_z @ acts[0][1].T, want_theta))
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


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
        theta = np.zeros((1, layout.n))
        metric_net_forward(phi, theta)  # warm up
        best = np.inf
        for _ in range(9):
            t0 = time.perf_counter()
            metric_net_forward(phi, theta)
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
    theta = RngStream(25).normal((n,))
    u_fn = UField(phi)
    rep = divergence_report(
        u_fn,
        probe_rows(lambda p: p @ a, theta, 8, 1),
        u_fn(theta))
    assert rep.div == rep.hessian_trace
    assert rep.ratio == 1.0


# ---------------------------------------------------------------- training


def quad_fixture(n=8, layout=None):
    layout = layout or LayerLayout.from_vector(n)
    n = layout.n
    d = np.arange(1.0, n + 1.0)
    grad_fn = lambda p: p * d
    theta = 0.5 * np.ones(n)
    return layout, grad_fn, theta, d


def freeze(phi, theta, grad_fn, count, seed=0):
    """One frozen batch at the report's probe draw, field rows from one
    call."""
    return freeze_probe_batch(probe_rows(grad_fn, theta, count, seed),
                              UField(phi)(theta))


# the bowl (4-vector), LQR and pointmass PolicyMLP policy layouts
POLICY_LAYOUTS = [
    (LayerLayout.from_vector(4), 3),
    (LayerLayout(shapes=((1, 1), (1,))), 1),
    (pointmass_layout(), 3),
]
over_policy_layouts = pytest.mark.parametrize(
    "layout, m_tilde", POLICY_LAYOUTS, ids=["vector", "lqr", "pointmass"])


@over_policy_layouts
def test_report_div_is_loss_div_bitwise(layout, m_tilde):
    """The report and the metric loss share one probe estimator: for the
    same phi and probe draw their div agrees in every bit."""
    phi = make_phi(seed=26, layout=layout, m_tilde=m_tilde, heads="random")
    n = layout.n
    w = RngStream(27).normal((n, n))
    grad_fn = lambda p: np.tanh(p) @ (w + w.T)
    theta = RngStream(28).normal((n,), scale=0.5)
    u_fn = UField(phi)
    rep = divergence_report(u_fn, probe_rows(grad_fn, theta, 8, 2),
                            u_fn(theta))
    div, _, _ = evaluate_divergence_loss(phi,
                                         freeze(phi, theta, grad_fn, 8, 2))
    assert rep.div == div


def test_zero_head_start_is_exact_saddle():
    """Loss positive, every phi-gradient exactly 0.0 — not approximately."""
    layout, grad_fn, theta, d = quad_fixture()
    phi = init_params(RngStream(30), MetricNetConfig(m_tilde=3), layout)
    ctx = freeze(phi, theta, grad_fn, 8)
    div, loss, grad = evaluate_divergence_loss(phi, ctx)
    assert div == pytest.approx(float(np.sum(d)), abs=1e-9)
    assert loss > 0
    assert grad.shape == (phi.size,) and np.all(grad == 0.0)


def test_initial_divergence_matches_hutchinson():
    layout, grad_fn, theta, d = quad_fixture()
    phi = init_params(RngStream(31), MetricNetConfig(m_tilde=3), layout)
    ctx = freeze(phi, theta, grad_fn, 8, 4)
    div, _, _ = evaluate_divergence_loss(phi, ctx)
    trace = hessian_trace_hutchinson(grad_fn, theta, 8, 4)
    assert div == pytest.approx(trace, rel=1e-12)


def test_phi_gradient_matches_fd():
    """Central FD over a handful of phi coordinates, frozen probe batch."""
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(32), MetricNetConfig(m_tilde=3), layout)
    r = RngStream(33)
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += r.uniform(-0.05, 0.05, a.shape)
    ctx = freeze(phi, theta, grad_fn, 8)
    grads = phi.with_flat(evaluate_divergence_loss(phi, ctx)[2]).params_list()

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
    ctx = freeze(phi, theta, lambda p: p * d, 8)
    grads = phi.with_flat(evaluate_divergence_loss(phi, ctx)[2]).params_list()

    arrs = phi.params_list()
    second_2d = next(i for i, a in enumerate(arrs)
                     if a is net_arrays(phi, arrs).part_convs[2][1])
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


@pytest.mark.parametrize(
    "layout, m_tilde",
    POLICY_LAYOUTS + [(LayerLayout(shapes=pointmass_layout().shapes), 3)],
    ids=["vector", "lqr", "pointmass", "pointmass-default-exempt"])
def test_params_list_views_values_end_to_end(layout, m_tilde):
    """Every array of params_list is a C-contiguous view into phi.values,
    the arrays laid end to end in order over all of it, and the named
    trunk and head arrays are the same views: a write into any of them
    writes phi.  The pointmass shapes with their default exempt part
    (the trailing log_std, not the output bias) pool another part."""
    phi = make_phi(seed=70, layout=layout, m_tilde=m_tilde, heads="random")
    start, at = phi.values.ctypes.data, 0
    arrays = phi.params_list()
    for a in arrays:
        assert a.base is phi.values and a.flags.c_contiguous
        assert a.ctypes.data == start + 8 * at
        at += a.size
    assert at == phi.size == phi.values.size
    named = (phi.trunk_w, phi.trunk_b, phi.head_omega_w, phi.head_omega_b,
             phi.head_sigma_w, phi.head_sigma_b)
    for a, b in zip(named, arrays[-6:]):
        assert a.base is phi.values
        assert (a.ctypes.data, a.shape) == (b.ctypes.data, b.shape)
    arrays[0][...] = 7.0
    phi.head_sigma_b[...] = -7.0
    assert np.all(phi.values[:arrays[0].size] == 7.0)
    assert np.all(phi.values[-m_tilde:] == -7.0)


# Adam's step and the kick scale of these direct train_metric_net calls
# (reference_train_metric_net's defaults); training passes TrainConfig's
STEP = dict(lr=1e-3, kick_scale=1e-2)


def test_train_zero_field_is_noop():
    """J = 0 everywhere: loss exactly 0, phi returned bit-identical."""
    layout = LayerLayout.from_vector(6)
    phi = init_params(RngStream(34), MetricNetConfig(m_tilde=2), layout)
    before = [a.copy() for a in phi.params_list()]
    out, history = train_metric_net(
        phi, probe_rows(np.zeros_like, np.ones(6), 4, train=True), 0, 5,
        **STEP)
    assert [(i, d, l) for i, d, l in history] == [(i, 0.0, 0.0)
                                                  for i in range(5)]
    assert all(np.array_equal(a, b)
               for a, b in zip(out.params_list(), before))


def test_train_history_loss_non_increasing():
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(35), MetricNetConfig(m_tilde=3), layout)
    rows = probe_rows(grad_fn, theta, 8, 2, train=True)
    _, history = train_metric_net(phi, rows, 2, 8, **STEP)
    losses = [l for _, _, l in history]
    assert len(losses) == 8
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] <= losses[0]


def test_train_deterministic():
    layout, grad_fn, theta, _ = quad_fixture()
    runs = []
    for _ in range(2):
        phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
        out, history = train_metric_net(
            phi, probe_rows(grad_fn, theta, 8, 3, train=True), 3, 5, **STEP)
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
            phi, probe_rows(grad_fn, theta, 4, train=True), 0, 5, **STEP)
    assert history == []
    assert np.isinf(out.trunk_w[0, 0])

    # a NaN gradient field: same abort, phi untouched, nothing raised
    phi = init_params(RngStream(37), MetricNetConfig(m_tilde=3), layout)
    out, history = train_metric_net(
        phi, probe_rows(lambda p: np.full_like(p, np.nan), theta, 4,
                        train=True), 0, 5, **STEP)
    assert history == []
    assert all(np.array_equal(a, b)
               for a, b in zip(out.params_list(), phi.params_list()))


@pytest.mark.parametrize("bad", [0, 3, 8], ids=["theta", "plus", "minus"])
def test_train_non_finite_row_ends_pass_before_its_first_iteration(
        bad, monkeypatch):
    """The field rows do not change over a pass, so they are checked once,
    first: a NaN at theta or at any probe row ends the pass before its
    first forward, with no history and phi returned bit for bit."""
    layout, grad_fn, theta, _ = quad_fixture()

    def field(pts):
        out = grad_fn(pts)
        out[bad] = np.nan
        return out

    forwards = []
    forward = rpg.metricnet.metric_net_forward
    monkeypatch.setattr(rpg.metricnet, "metric_net_forward",
                        lambda *a, **k: forwards.append(1) or forward(*a, **k))
    phi = init_params(RngStream(39), MetricNetConfig(m_tilde=3), layout)
    out, history = train_metric_net(phi, probe_rows(field, theta, 4, 5,
                                                    train=True), 5, 5,
                                  **STEP)
    assert history == [] and forwards == []
    assert np.array_equal(out.values, phi.values)


def test_train_every_iteration_reads_the_one_training_matrix(monkeypatch):
    """A pass freezes and differentiates the one ``ProbeRows`` it was given
    at every iteration: the training matrix, the first draw of the
    update's "alg1-probes" stream, and never the report's held-out one."""
    layout, grad_fn, theta, _ = quad_fixture()
    seen = []
    loss = rpg.metricnet.evaluate_divergence_loss

    def recording(phi, ctx, *args):
        seen.append((ctx, ctx.probes.copy()))
        return loss(phi, ctx, *args)

    monkeypatch.setattr(rpg.metricnet, "evaluate_divergence_loss", recording)
    train, report = probe_field_rows(grad_fn, theta,
                                     draw_probes(3, 4, theta.size))
    phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
    _, history = train_metric_net(phi, train, 3, 6, **STEP)
    assert len(history) == len(seen) == 6
    first = rademacher_matrix(RngStream(3).spawn("alg1-probes"), 4,
                              theta.size)
    for ctx, probes in seen:
        assert ctx is train
        assert np.array_equal(probes, first)
    assert np.array_equal(report.probes,
                          rademacher_matrix(RngStream(3), 4, theta.size))
    assert not np.array_equal(report.probes, first)


@over_policy_layouts
@pytest.mark.parametrize("case", ["kick", "nan-row", "inf-trunk"])
def test_train_matches_reference_loop_bitwise(layout, m_tilde, case,
                                              monkeypatch):
    """The loop that does its per-pass work once returns the phi arrays
    and history of the loop that redoes it every iteration, bit for bit:
    from the zero-head start (which kicks), with a NaN field row among
    the training probes' rows, and with an infinite trunk weight."""
    _, grad_fn, theta, d = quad_fixture(layout=layout)
    phi = init_params(RngStream(36), MetricNetConfig(m_tilde=m_tilde), layout)
    if case == "nan-row":
        def grad_fn(pts):
            # the pass's one call: theta, then the training matrix's
            # 2K rows (row 1 + K is its first theta - eps*v)
            out = pts * d
            out[1 + 4] = np.nan
            return out
    if case == "inf-trunk":
        phi.trunk_w[0, 0] = np.inf
    kicks = []
    kick = rpg.metricnet._kick_heads
    monkeypatch.setattr(rpg.metricnet, "_kick_heads",
                        lambda *args: kicks.append(kick(*args)))

    with np.errstate(invalid="ignore", over="ignore"):
        out, history = train_metric_net(
            phi, probe_rows(grad_fn, theta, 4, 3, train=True), 3, 5, **STEP)
        ref, ref_history = reference_train_metric_net(phi, theta, grad_fn, 4,
                                                      3, max_iters=5)
    assert history == ref_history
    assert all(np.array_equal(a, b)
               for a, b in zip(out.params_list(), ref.params_list()))
    if case == "kick":
        assert len(kicks) == 1 and len(history) == 5
    elif case == "nan-row":
        assert history == []
    else:
        assert history == [] and np.isinf(out.trunk_w[0, 0])


@pytest.mark.parametrize("max_iters", [1, 4])
def test_train_forwards_twice_per_iteration_via_module_names(max_iters,
                                                             monkeypatch):
    """Each iteration forwards u(theta) on one row and its frozen batch on
    2K + 3 rows, and no more.  The loop looks up the names that
    perfbench/tracer.py patches in rpg.metricnet at call time."""
    layout, grad_fn, theta, _ = quad_fixture()
    calls = {}
    for name in ("metric_net_forward", "build_u", "evaluate_divergence_loss",
                 "freeze_probe_batch"):
        def counting(*args, _fn=getattr(rpg.metricnet, name),
                     _seen=calls.setdefault(name, []), **kwargs):
            _seen.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rpg.metricnet, name, counting)

    phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
    field = probe_rows(grad_fn, theta, 4, 3, train=True)
    _, history = train_metric_net(phi, field, 3, max_iters, **STEP)
    assert len(history) == max_iters
    rows = [len(args[1]) for args in calls["metric_net_forward"]]
    assert rows == [1, 2 * 4 + 3] * max_iters
    assert len(calls["build_u"]) == max_iters    # u(theta); the loss has none
    assert len(calls["evaluate_divergence_loss"]) == max_iters
    assert len(calls["freeze_probe_batch"]) == max_iters


def test_plan_cache_results_do_not_depend_on_call_order():
    """The forward and backward read per-layout plans from one cache,
    keyed on the layout and m_tilde: forwards and backwards interleaved
    over the policy layouts, at 1 and 2K + 3 rows, leave one plan per
    layout, and give the bits that the same calls give when each case
    runs alone, in reverse order, from an empty cache.  A cache keyed on
    too little would hand one case's taps, pools or array slots to
    another.  Two layouts
    are added: the pointmass shapes with their default exempt part, and a
    2 x 2 part with the bowl vector's size and exempt part, so that the
    key must hold the exempt part and the shapes themselves."""
    pm = pointmass_layout()
    layouts = POLICY_LAYOUTS + [(LayerLayout(shapes=pm.shapes), 3),
                                (LayerLayout(shapes=((2, 2),)), 3)]
    assert layouts[-2][0].output_bias_part != pm.output_bias_part
    cases = []
    for layout, m_tilde in layouts:
        phi = make_phi(seed=60, layout=layout, m_tilde=m_tilde,
                       heads="random")
        for rows in (1, 2 * 4 + 3):
            cases.append((phi, RngStream(61 + rows).normal((rows, layout.n)),
                          RngStream(62 + rows).normal((rows, m_tilde))))

    def backward(phi, acts, cot):
        out = np.empty(phi.size)
        g_z = rpg.metricnet._net_backward(phi, acts, cot, 0.5 * cot, out)
        return out, g_z @ acts[0][1].T

    rpg.metricnet._net_plan.cache_clear()
    fwds = [metric_net_forward(phi, pts) for phi, pts, _ in cases]
    interleaved = [(om, sg) + backward(phi, acts, cot)
                   for (phi, _, cot), (om, sg, acts) in zip(cases, fwds)]
    assert rpg.metricnet._net_plan.cache_info().currsize == len(layouts)
    alone = []
    for phi, pts, cot in reversed(cases):
        rpg.metricnet._net_plan.cache_clear()
        om, sg, acts = metric_net_forward(phi, pts)
        alone.append((om, sg) + backward(phi, acts, cot))
    for got, want in zip(interleaved, reversed(alone)):
        assert all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in zip(got, want))


# Python calls into rpg of one warm bowl-layout training pass (K = 8, 20
# iterations), as the loop that reads per-layout plans makes them; the loop
# before them made 738.
TRAIN_PASS_CALL_BOUND = 398


def test_train_pass_python_calls_stay_within_bound():
    """Count the Python-level calls into src/rpg that one training pass on
    the bowl layout makes, with sys.setprofile, against a fixed bound:
    per-iteration bookkeeping that creeps back in shows up here."""
    layout, grad_fn, theta, _ = quad_fixture(n=4)
    phi = init_params(RngStream(36), MetricNetConfig(m_tilde=3), layout)
    field = probe_rows(grad_fn, theta, 8, 3, train=True)
    train_metric_net(phi, field, 3, 20, **STEP)    # builds the cached plans
    package = os.path.dirname(rpg.metricnet.__file__) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        _, history = train_metric_net(phi, field, 3, 20, **STEP)
    finally:
        sys.setprofile(None)
    assert len(history) == 20
    assert calls <= TRAIN_PASS_CALL_BOUND


def test_train_rejects_zero_iters():
    """A pass of no iterations is refused, not returned empty."""
    layout, grad_fn, theta, _ = quad_fixture()
    phi = init_params(RngStream(38), MetricNetConfig(m_tilde=3), layout)
    with pytest.raises(ValueError):
        train_metric_net(phi, probe_rows(grad_fn, theta, 4, train=True), 0,
                         0, **STEP)


@pytest.mark.parametrize("heads,iters", [("zero", 1), ("zero", 3),
                                          ("random", 1), ("random", 3)])
def test_train_steps_after_every_iteration_but_the_last(heads, iters,
                                                        monkeypatch):
    """An Adam step or a kick follows each iteration but the last: the phi
    it would make is never evaluated or returned.  From zero heads the
    first step is the kick, from random heads every step is Adam's."""
    layout, grad_fn, theta, _ = quad_fixture()
    phi = make_phi(seed=39, layout=layout, heads=heads)
    steps = []
    update, kick = rpg.metricnet.Adam.update, rpg.metricnet._kick_heads
    monkeypatch.setattr(rpg.metricnet.Adam, "update", lambda *args: (
        steps.append("adam"), update(*args)))
    monkeypatch.setattr(rpg.metricnet, "_kick_heads", lambda *args: (
        steps.append("kick"), kick(*args)))
    _, history = train_metric_net(
        phi, probe_rows(grad_fn, theta, 4, 3, train=True), 3, iters, **STEP)
    assert len(history) == iters
    first = "kick" if heads == "zero" else "adam"
    assert steps == ([] if iters == 1 else [first] + ["adam"] * (iters - 2))


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
    theta = RngStream(41).normal((1, phi.layout.n))
    before = metric_net_forward(phi, theta)
    after = metric_net_forward(back, theta)
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
    theta = RngStream(49).normal((1, layout.n))
    before = metric_net_forward(phi, theta)
    after = metric_net_forward(back, theta)
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


# SHA-256 of the save_params bytes of phi_0 (init_params at
# RngStream(11).spawn("phi-init"), m_tilde 3), as written while phi was
# held as separate arrays; phi_0 comes from RNG draws alone, so the bytes
# do not depend on BLAS
CHECKPOINT_SHA256 = {
    "bowl":
        "134298c5b47fcc32481392abe6975248a87717c40c184abfc44f1f311e9819d9",
    "pointmass":
        "476ada931ee1dff3ce2982a76226b3923a36a0639ec14ce225e4bf5b74247aca",
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_SHA256))
def test_initial_checkpoint_bytes_are_pinned(name, tmp_path):
    layout = {"bowl": LayerLayout.from_vector(4),
              "pointmass": pointmass_layout()}[name]
    phi = init_params(RngStream(11).spawn("phi-init"),
                      MetricNetConfig(m_tilde=3), layout)
    path = tmp_path / "phi.bin"
    save_params(phi, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        CHECKPOINT_SHA256[name]
    back = load_params(str(path))
    assert np.array_equal(back.values, phi.values)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_params(str(path))


@pytest.mark.parametrize("cut", [4, 8, 13])
def test_checkpoint_rejects_truncated_payload(tmp_path, cut):
    """A payload cut short, by whole float64s or not, is a LayoutMismatch
    that gives its byte count when the count is not a multiple of 8."""
    phi = make_phi(seed=47)
    path = tmp_path / "phi.bin"
    save_params(phi, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-cut])
    size = len(raw) - cut - 16 - int.from_bytes(raw[8:16], "little")
    match = f"payload of {size} bytes" if cut % 8 else "values of shape"
    with pytest.raises(LayoutMismatch, match=match):
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
    u_fn = UField(phi)
    pts = RngStream(44).normal((6, phi.layout.n))
    out = u_fn(pts)
    assert out.shape == pts.shape
    assert np.array_equal(out, np.zeros_like(pts))
    single = u_fn(pts[0])
    assert single.shape == (phi.layout.n,)


def test_u_field_nonzero_after_head_kick():
    phi = make_phi(seed=45, heads="random")
    u_fn = UField(phi)
    out = u_fn(RngStream(46).normal((3, phi.layout.n)))
    assert np.max(np.abs(out)) > 0


# ------------------------------------------------------------ u VJP


@over_layouts
def test_u_vjp_matches_fd_reference(layout):
    """With kicked heads, u_vjp's u is the u field's bitwise, its product
    matches central differences of u.c, and the direction built from it
    matches the finite-difference matrix form, both to 1e-6 relative."""
    phi = make_phi(seed=56, layout=layout, m_tilde=min(3, layout.n - 1),
                   heads="random")
    rng = RngStream(57)
    theta, cot = rng.normal((layout.n,)), rng.normal((layout.n,))
    u_field = UField(phi)
    u_at, u_vjp = u_field.at(theta)
    u, pullback = u_vjp(theta, cot)
    assert np.array_equal(u, u_field(theta)) and np.array_equal(u, u_at)
    want = fd_pullback(u_field, theta, cot)
    assert np.max(np.abs(pullback - want)) <= 1e-6 * np.max(np.abs(want))
    got = geodesic_gradient(u_vjp, theta, cot, 0.3)
    want = fd_geodesic_gradient(u_field, theta, cot, 0.3)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@over_layouts
def test_geodesic_zero_heads_and_zero_kappa_pass_through(layout):
    """Zero heads make u = 0 and the product 0, so T is J bitwise; kappa = 0
    returns a copy without taking the product."""
    phi = make_phi(seed=58, layout=layout, m_tilde=min(3, layout.n - 1))
    rng = RngStream(59)
    theta, j = rng.normal((layout.n,)), rng.normal((layout.n,))
    u_vjp = UField(phi).at(theta)[1]
    u, pullback = u_vjp(theta, j)
    assert not np.any(u) and not np.any(pullback)
    assert np.array_equal(geodesic_gradient(u_vjp, theta, j, 0.3), j)
    kicked = make_phi(seed=58, layout=layout, m_tilde=min(3, layout.n - 1),
                      heads="random")
    out = geodesic_gradient(UField(kicked).at(theta)[1], theta, j, 0.0)
    assert np.array_equal(out, j) and out is not j


def test_geodesic_forwards_one_row_whatever_n(monkeypatch):
    """One T correction on the pointmass layout (n = 388) forwards exactly
    one metric-net row, where the central-difference form forwarded
    2n + 1."""
    phi = make_phi(seed=60, layout=pointmass_layout(), heads="random")
    rows = []
    forward = rpg.metricnet.metric_net_forward

    def counted(phi_, points, front=None):
        rows.append(len(points))
        return forward(phi_, points, front)

    monkeypatch.setattr(rpg.metricnet, "metric_net_forward", counted)
    rng = RngStream(61)
    n = phi.layout.n
    theta = rng.normal((n,))
    out = geodesic_gradient(UField(phi).at(theta)[1], theta,
                            rng.normal((n,)), 0.3)
    assert n == 388 and out.shape == (n,)
    assert rows == [1]
