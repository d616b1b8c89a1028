"""Tape-built forms of hand-written library gradients, kept as references.

The library computes the metric-net loss and its phi-gradient with a plain
numpy forward and a hand-written backward
(``rpg.metricnet.evaluate_divergence_loss``), and the tanh MLP policy's
log-probability gradient in closed form
(``rpg.policy.PolicyMLP.row_logprob_grads``).  This module keeps the
earlier constructions: every step recorded on the general reverse-mode tape
of ``rpg.tape`` and differentiated by ``DiffGraph.leaf_gradients``.  It
holds the tape operations that only these constructions need (stage-sized
convolution and pooling, slicing, concatenation, softplus, cos, sin,
division, reshape), the tape forms of the Fourier maps and of the rank-one
inverse, the tape-built forward and loss, and the tape-built MLP
log-probability gradient.  Tests check the library against it; nothing
under ``src/`` imports it.

Import it as a module (``import tape_reference as tape``): it re-exports the
operations ``rpg.tape`` still has, so one name covers every tape operation.
"""

import numpy as np

from helpers import net_arrays
from rpg.errors import LayoutMismatch
from rpg.fourier import build_fourier_pair
from rpg.metricnet import KERNEL, POOL_SIZE
from rpg.tape import (DiffGraph, Var, _binary, _graph_of,  # noqa: F401
                      _unbroadcast, _val, add, matmul, mul, reduce_sum,
                      square, sub, tanh, value)


def backprop(graph: DiffGraph, output: Var) -> np.ndarray:
    """Flat vector of d(output)/d(leaf), leaves concatenated in order."""
    grads = graph.leaf_gradients(output)
    return np.concatenate([np.ravel(g) for g in grads]) if grads else np.zeros(0)


# ------------------------------------------------------------- operations


def div(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av / bv,
                   lambda g: _unbroadcast(g / bv, np.shape(av)),
                   lambda g: _unbroadcast(-g * av / (bv * bv), np.shape(bv)))


def conv_valid(a, kernel, k: int, ndim: int):
    """Valid cross-correlation over the trailing ndim (1 or 2) axes of a.

    kernel holds the k**ndim taps flat, row-major; the output is the sum of
    kernel[t] * (a shifted by tap t), accumulated in tap order.
    """
    av, kv = _val(a), _val(kernel)
    shape = np.shape(av)
    lead = (slice(None),) * (len(shape) - ndim)
    spans = [n - k + 1 for n in shape[-ndim:]]
    keys = [lead + tuple(slice(o, o + m) for o, m in zip(offsets, spans))
            for offsets in np.ndindex(*(k,) * ndim)]
    out = av[keys[0]] * kv[0]
    for t in range(1, len(keys)):
        out += av[keys[t]] * kv[t]

    def vjp_a(g):
        z = np.zeros_like(av)
        for t, key in enumerate(keys):
            z[key] += g * kv[t]
        return z

    def vjp_kernel(g):
        return np.array([np.sum(g * av[key]) for key in keys])

    return _binary(a, kernel, out, vjp_a, vjp_kernel)


def avg_pool(a, size: int):
    """Means of consecutive size-wide windows along the last axis of a.

    A partial trailing window is averaged over the entries it has.
    """
    av = _val(a)
    length = np.shape(av)[-1]
    starts = np.arange(0, length, size)
    counts = np.minimum(starts + size, length) - starts
    out = np.add.reduceat(av, starts, axis=-1) * (1.0 / counts)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,),
               lambda g: [np.repeat(g * (1.0 / counts), counts, axis=-1)])


def slice_axis(a, key):
    """a[key] with scatter-add backward (key is any basic-slicing tuple)."""
    av = _val(a)
    out = av[key]
    if not isinstance(a, Var):
        return out

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return [z]

    return Var(a.graph, out, (a,), vjp)


def concat(parts, axis=0):
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    g = _graph_of(*parts)
    if g is None:
        return out
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    parents, slots = [], []
    for i, p in enumerate(parts):
        if isinstance(p, Var):
            parents.append(p)
            slots.append(i)

    def vjp(grad):
        pieces = []
        for i in slots:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(index)])
        return pieces

    return Var(g, out, tuple(parents), vjp)


def reshape(a, shape):
    av = _val(a)
    out = np.reshape(av, shape)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [np.reshape(g, np.shape(av))])


def softplus(a):
    av = _val(a)
    out = np.logaddexp(0.0, av)
    if not isinstance(a, Var):
        return out
    sig = 0.5 * (1.0 + np.tanh(0.5 * av))  # numerically stable sigmoid
    return Var(a.graph, out, (a,), lambda g: [g * sig])


def cos(a):
    av = _val(a)
    out = np.cos(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [-g * np.sin(av)])


def sin(a):
    av = _val(a)
    out = np.sin(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [g * np.cos(av)])


# -------------------------------------------- Fourier maps and the metric


def build_u(fp, omega_tilde, sigma_tilde, theta):
    """u = (Omega omega_tilde) * (R theta), R the matrix-free rotation."""
    scale = matmul(omega_tilde, fp.omega.T)
    c = matmul(theta, fp.omega)
    shifted_cos = matmul(mul(cos(sigma_tilde), c), fp.omega.T)
    shifted_sin = matmul(mul(sin(sigma_tilde), c), fp.phi.T)
    residual = sub(theta, matmul(c, fp.omega.T))
    return mul(scale, add(sub(shifted_cos, shifted_sin), residual))


def _row_dot(a, b):
    s = reduce_sum(mul(a, b), axis=-1)
    if np.ndim(value(a)) == 2:
        return reshape(s, (np.shape(value(a))[0], 1))
    return s


def inverse_apply(u, x):
    """G^-1 x = x - u (u.x) / (1 + u.u) for G = I + u u^T."""
    det = add(_row_dot(u, u), 1.0)
    return sub(x, mul(u, div(_row_dot(u, x), det)))


# ------------------------------------------------- metric net and its loss


def _flatten(x):
    sh = x.shape
    if len(sh) == 2:
        return x
    return reshape(x, (sh[0], int(np.prod(sh[1:]))))


def _dense(x, w, b):
    return add(matmul(x, w), b)


def metric_net_forward(phi, theta_layers, arrays=None):
    """Tape forward; returns (omega_tilde, sigma_tilde, graph).

    The network runs on arrays, one per ``phi.params_list()`` entry, or on
    phi's own when None (``helpers.net_arrays`` splits them by role).
    They may be tape leaves (graph is then their DiffGraph) or arrays
    (graph is None and the outputs are arrays).  The conv and pool stages
    are looked up on this module at call time, so a test may swap them.
    """
    net = net_arrays(phi, arrays)
    parts = list(theta_layers)
    if len(parts) != len(phi.layout.shapes):
        raise LayoutMismatch(
            f"expected {len(phi.layout.shapes)} parts, got {len(parts)}")
    base0 = phi.layout.shapes[0]
    sh0 = np.shape(value(parts[0]))
    batched = len(sh0) == len(base0) + 1
    exempt = phi.layout.output_bias_part

    feats = []
    for i, (part, base) in enumerate(zip(parts, phi.layout.shapes)):
        x = part if batched else np.asarray(part, dtype=np.float64)[None]
        sh = np.shape(value(x))
        if sh[1:] != base:
            raise LayoutMismatch(f"part {i} shape {sh[1:]} != {base}")
        for stage, kern in zip(net.plans[i], net.part_convs[i]):
            if stage == "2d":
                x = conv_valid(x, kern, KERNEL, 2)
            elif stage == "1d":
                x = conv_valid(_flatten(x), kern, KERNEL, 1)
        x = _flatten(x)
        if i != exempt:
            x = avg_pool(x, POOL_SIZE)
        w, b = net.part_dense[i]
        feats.append(softplus(_dense(x, w, b)))

    h = feats[0] if len(feats) == 1 else concat(feats, axis=1)
    h = softplus(_dense(h, net.trunk_w, net.trunk_b))
    omega = _dense(h, net.head_omega_w, net.head_omega_b)
    sigma = _dense(h, net.head_sigma_w, net.head_sigma_b)
    if not batched:
        omega = reshape(omega, (phi.m_tilde,))
        sigma = reshape(sigma, (phi.m_tilde,))
    graph = omega.graph if isinstance(omega, Var) else None
    return omega, sigma, graph


def evaluate_divergence_loss(phi, ctx):
    """(div, loss, phi-gradients) for a frozen batch, on the tape.

    u is re-evaluated through the taped network at every frozen point, the
    gradient field enters as constants, and leaf_gradients gives the
    phi-gradients in ``phi.params_list()`` order.
    """
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    graph = DiffGraph()
    leaves = [graph.leaf(a) for a in phi.params_list()]

    points, probes = ctx.points, ctx.probes
    omega, sigma, _ = metric_net_forward(
        phi, phi.layout.unflatten_batch(points), leaves)
    u = build_u(fp, omega, sigma, points)

    k = probes.shape[0]
    u_probe = slice_axis(u, (slice(0, 2 * k), slice(None)))
    j = inverse_apply(u_probe, ctx.grads)
    j_diff = sub(slice_axis(j, (slice(0, k), slice(None))),
                 slice_axis(j, (slice(k, 2 * k), slice(None))))
    term1 = mul(reduce_sum(mul(probes, j_diff)),
                1.0 / (2.0 * ctx.eps * k))

    u_jp = slice_axis(u, 2 * k)
    u_jm = slice_axis(u, 2 * k + 1)
    u_t = slice_axis(u, 2 * k + 2)
    det_t = add(reduce_sum(mul(u_t, u_t)), 1.0)
    term2 = div(reduce_sum(mul(u_t, sub(u_jp, u_jm))),
                mul(det_t, 2.0 * ctx.eps))

    div_est = add(term1, term2)
    loss = mul(div_est, div_est)
    grads = graph.leaf_gradients(loss)
    return float(value(div_est)), float(value(loss)), grads


# ------------------------------------------- MLP policy log-probability


def mlp_logprob_grad(policy, states, actions, weights):
    """Flat d/dtheta sum_i w_i log pi(a_i | s_i) of a ``PolicyMLP``.

    The network part runs through the tape with the variance held
    constant; the log_std part has the closed form sum_i w_i (z_i^2 - 1)
    per action dimension, z = (a - mean)/sigma.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1, 1)
    parts = [p[0] for p in policy.layout.unflatten_batch(policy.theta[None])]
    inv_var = np.exp(-2.0 * parts[6])

    graph = DiffGraph()
    w1, b1, w2, b2, w3, b3 = [graph.leaf(a) for a in parts[:6]]
    h = tanh(add(matmul(states, w1), b1))
    h = tanh(add(matmul(h, w2), b2))
    mu = add(matmul(h, w3), b3)
    diff = sub(actions, mu)
    z2 = mul(square(diff), inv_var[None, :])
    loss = reduce_sum(mul(z2, -0.5 * weights))
    grads = graph.leaf_gradients(loss)

    mean = policy.row_forward([p[None] for p in parts], states[None])[-1][0]
    z2_val = (actions - mean) ** 2 * inv_var[None, :]
    grad_log_std = np.sum(weights * (z2_val - 1.0), axis=0)
    return np.concatenate([g.ravel() for g in grads + [grad_log_std]])
