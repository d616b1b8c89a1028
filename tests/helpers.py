"""Helpers shared by several test modules."""

from types import SimpleNamespace

import numpy as np

from rpg.divergence import ProbeRows, draw_probes, probe_field_rows
from rpg.envs import (_closed_loop, _gain_rows, _vec_kron,
                      default_init_second_moment, lqr_return_gradient)
from rpg.errors import BadDimensions, NonFiniteField
from rpg.fields import default_fd_step, eval_points, require_finite
from rpg.geodesic import _fd_points
from rpg.metric import MetricPoint, bilinear_form, inverse_apply
from rpg.metricnet import (KERNEL, POOL_SIZE, Adam, UField, _kick_heads,
                           evaluate_divergence_loss)
from rpg.policy import (LinearGainPolicy, Trajectory, _draw_episode_events,
                        _flat_rows, _reinforce_weights, _return_to_go,
                        reinforce_gradient_from_batch)
from rpg.rng import RngStream, rademacher_matrix


def lqr_analytic_gradient(k, env, gamma=0.99, init_second_moment=None):
    """Exact ascent-return gradient for the strictly linear policy a = -K s.

    Thin restriction of lqr_return_gradient to gain-only parameters (bias
    pinned at zero); `k` may be a (m, n) gain matrix or its flattening, and
    the result matches that shape.  At the riccati_gain optimum the closed
    loop is a strong contraction, so every term of the gradient sum decays
    geometrically and the whole gradient sits at ~1e-8 or below.
    """
    k = np.asarray(k, dtype=float)
    m, n = env.action_dim, env.state_dim
    flat = k.reshape(-1)
    if flat.shape[0] != m * n:
        raise BadDimensions(
            f"expected {m * n} gain parameters, got {flat.shape[0]}")
    point = np.concatenate([flat, np.zeros(m)])
    full = lqr_return_gradient(point, env, gamma,
                               init_second_moment=init_second_moment)
    return full[:m * n].reshape(k.shape)


def probe_rows(grad_fn, theta, count, seed=0, iters=None):
    """The list of ``ProbeRows`` of a metric-training pass of `iters`
    iterations (all but the last matrix of ``draw_probes``), or the
    ``ProbeRows`` of the divergence report when iters is None (its last),
    from one ``probe_field_rows`` call at the step
    ``default_fd_step(theta)``, as ``rpg.training.regularize_step`` draws
    and evaluates them."""
    theta = np.asarray(theta, dtype=np.float64)
    probes = draw_probes(seed, count, iters or 0, theta.size)
    if iters is None:
        return probe_field_rows(grad_fn, theta, probes[-1:])[0]
    return probe_field_rows(grad_fn, theta, probes[:-1])


def own_parts(policy):
    """The policy's own theta as the one-row parts of its row methods."""
    return policy.layout.unflatten_batch(policy.theta[None])


def logprob_grads(policy, parts, states, actions, weights):
    """``row_logprob_grads`` at (B, N, ·) steps, on the record of one
    ``row_forward`` over all of them."""
    return policy.row_logprob_grads(parts, states, actions,
                                    policy.row_forward(parts, states),
                                    weights)


def one_row_logprob_grad(policy, states, actions, weights):
    """d/dtheta sum_i w_i log pi(a_i | s_i) at the policy's own theta, for
    (N, state_dim) states: ``logprob_grads`` at one row."""
    return logprob_grads(policy, own_parts(policy), states[None],
                         actions[None], weights[None])[0]


def reference_rollout(env, policy, episodes, rng, explore=True):
    """``rpg.policy.rollout`` played one episode and one step at a time.

    The reference for the row engine: per episode a reset, then per step
    the mean at the one state (``row_means`` at one row and one state; when
    exploring, ``row_forward``, whose record is kept, plus sigma times a
    normal draw), the dynamics draw, the step's own rewards and the
    advance, the last step's included.  The per-step lists are joined by
    ``np.stack`` into a ``Trajectory`` of (E, H, ...) arrays.
    """
    parts = own_parts(policy)
    sigma = np.reshape(policy.row_sigmas(parts), -1)
    played = []
    for _ in range(episodes):
        state = env.reset(rng)
        steps = []
        for _ in range(env.horizon):
            if explore:
                record = policy.row_forward(parts, state[None, None])
                action = record[-1][0, 0] + sigma * rng.normal(
                    size=policy.action_dim)
            else:
                record = []
                action = policy.row_means(parts, state[None, None])[0, 0]
            noise = env.draw_noise(rng)
            steps.append((state, action, env.rewards(state, action),
                          *[r[0, 0] for r in record]))
            state = env.advance(state, action, noise)
        played.append([np.stack(column) for column in zip(*steps)])
    columns = [np.stack(column) for column in zip(*played)]
    return Trajectory(*columns[:3], tuple(columns[3:]) if explore else None)


def per_row_reinforce_field(env, policy, points, episodes, gamma, seed):
    """The REINFORCE field row by row, each row replaying RngStream(seed).

    The reference for ``rpg.policy.reinforce_field``: every row sets the
    policy to its point, plays `episodes` episodes one step at a time
    (``reference_rollout``) from a fresh stream and applies
    reinforce_gradient_from_batch, so all rows meet the same draws.
    """
    rows = []
    for point in np.atleast_2d(points):
        policy.set_theta(point)
        batch = reference_rollout(env, policy, episodes, RngStream(seed))
        rows.append(reinforce_gradient_from_batch(policy, batch, gamma))
    return np.stack(rows)


def reference_row_logprob_grads(parts, states, actions, weights,
                                record=None):
    """``PolicyMLP.row_logprob_grads`` with every temporary made out of
    place, the reference for the body that reads a kept record into
    work-area buffers: the same operations in the same order.  Without a
    `record` (h1, h2, mean) it forwards the MLP itself, out of place, over
    all N steps at once."""
    w1, b1, w2, b2, w3, b3, log_std = parts
    if record is None:
        h1 = np.tanh(states @ w1 + b1[:, None, :])
        h2 = np.tanh(h1 @ w2 + b2[:, None, :])
        record = h1, h2, h2 @ w3 + b3[:, None, :]
    h1, h2, mu = record
    inv_var = np.exp(-2.0 * log_std)[:, None, :]
    w = weights[:, :, None]
    diff = actions - mu
    g3 = w * diff * inv_var
    g2 = (g3 @ w3.swapaxes(1, 2)) * (1.0 - h2 * h2)
    g1 = (g2 @ w2.swapaxes(1, 2)) * (1.0 - h1 * h1)
    return _flat_rows([
        states.swapaxes(1, 2) @ g1, g1.sum(axis=1),
        h1.swapaxes(1, 2) @ g2, g2.sum(axis=1),
        h2.swapaxes(1, 2) @ g3, g3.sum(axis=1),
        np.sum(w * (diff * diff * inv_var - 1.0), axis=1)])


def scalar_evaluate_policy(env, policy, episodes, gamma, rng):
    """Mean discounted return of `episodes` episodes played one step at a
    time (``reference_rollout`` on the mean), each episode's return taken
    on its own.

    The reference for ``rpg.training.evaluate_policy``, which plays the
    same episodes together.
    """
    batch = reference_rollout(env, policy, int(episodes), rng, explore=False)
    total = 0.0
    for rewards in batch.rewards:
        total += float(_return_to_go(rewards, gamma)[0])
    return total / int(episodes)


def fd_pullback(u_field, theta, cot):
    """(du/dtheta)^T cot by central differences of theta -> u(theta).cot,
    with the step ``default_fd_step(theta)``; 2n field rows."""
    theta = np.asarray(theta, dtype=np.float64)
    step = default_fd_step(theta)
    q = eval_points(u_field, _fd_points(theta, step)) @ cot
    return (q[:theta.size] - q[theta.size:]) / (2.0 * step)


def fd_geodesic_gradient(u_field, theta, grad_j, kappa):
    """T = J + kappa * G^-1 grad(J^T G J), with grad q by central differences.

    The finite-difference matrix form that ``rpg.geodesic.geodesic_gradient``
    replaces, kept as its reference: 2n + 1 rows of the batch-capable
    u_field, against one vector-Jacobian product.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad_j = np.asarray(grad_j, dtype=np.float64)
    if kappa == 0.0:
        return grad_j.copy()
    n = theta.size
    step = default_fd_step(theta)
    us = require_finite(eval_points(u_field, _fd_points(theta, step)),
                        "metric factor field")
    q = bilinear_form(MetricPoint(us), np.broadcast_to(grad_j, us.shape),
                      np.broadcast_to(grad_j, us.shape))
    grad_q = (q[:n] - q[n:]) / (2.0 * step)
    u0 = require_finite(eval_points(u_field, theta[None])[0],
                        "metric factor field")
    return grad_j + kappa * inverse_apply(MetricPoint(u0), grad_q)


def reference_train_metric_net(phi, theta, grad_fn, count, seed,
                               max_iters=20, lr=1e-3, kick_scale=1e-2):
    """The metric-net training loop with every step redone per iteration.

    The reference for ``rpg.metricnet.train_metric_net``, which does the
    work that does not depend on phi once per pass.  Here each iteration
    builds a u field closure to forward u(theta), checks g0 and its own
    probe rows for finiteness, builds its 2K + 3 frozen points anew and
    takes J0 through a ``MetricPoint``; a NonFiniteField from any of these
    ends the loop.  The field is still called once, over theta and every
    iteration's probe rows.
    """
    theta = np.asarray(theta, dtype=np.float64)
    probe_rng = RngStream(seed).spawn("alg1-probes")
    kick_rng = RngStream(seed).spawn("alg1-kick")

    work = phi.with_flat(phi.values.copy())
    flat = work.values
    adam = Adam(flat.size, lr=lr)
    best = flat.copy()
    best_loss, best_div = np.inf, np.nan
    history = []

    probes = np.stack([rademacher_matrix(probe_rng, count, theta.size)
                       for _ in range(max_iters)])
    eps = default_fd_step(theta)
    shifted = np.stack([theta + eps * probes, theta - eps * probes], axis=1)
    out = eval_points(grad_fn, np.concatenate(
        [theta[None], shifted.reshape(-1, theta.size)]))
    g0, probe_grads = out[0], out[1:].reshape(max_iters, -1, theta.size)

    try:
        for it in range(max_iters):
            u0 = UField(work)(theta)
            require_finite(g0, "gradient field")
            grads = require_finite(probe_grads[it], "gradient field")
            j0 = inverse_apply(MetricPoint(u0), g0)
            pts = np.concatenate([theta + eps * probes[it],
                                  theta - eps * probes[it],
                                  (theta + eps * j0)[None],
                                  (theta - eps * j0)[None],
                                  theta[None]])
            ctx = ProbeRows(probes=probes[it], eps=eps, g0=g0, grads=grads,
                            points=pts)
            div, loss, grad = evaluate_divergence_loss(work, ctx)
            if not np.isfinite(loss):
                break
            if loss < best_loss:
                best_loss, best_div = loss, div
                best = flat.copy()
            history.append((it, best_div, best_loss))
            if loss > 0.0 and not np.any(grad):
                _kick_heads(work, kick_rng, kick_scale)
            else:
                adam.update(flat, grad)
    except NonFiniteField:
        pass
    return phi.with_flat(best), history


def reference_stages(shape):
    """(stage kinds, conv output length) of a part, by the architecture's
    rule, kept apart from ``rpg.metricnet._net_plan`` so that the
    reference does not share it: each of two stages is "2d" while the
    running shape is a matrix with both dims >= KERNEL, else "1d" on the
    flattened entries while there are >= KERNEL of them, else None."""
    kinds, cur = [], tuple(shape)
    for _ in range(2):
        flat = int(np.prod(cur))
        if len(cur) == 2 and min(cur) >= KERNEL:
            kinds.append("2d")
            cur = (cur[0] - KERNEL + 1, cur[1] - KERNEL + 1)
        elif flat >= KERNEL:
            kinds.append("1d")
            cur = (flat - KERNEL + 1,)
        else:
            kinds.append(None)
            cur = (flat,)
    return tuple(kinds), int(np.prod(cur))


def net_arrays(phi, arrays=None):
    """phi's arrays by role, split from ``phi.params_list()`` here rather
    than by ``rpg.metricnet._net_plan``: plans (each part's stage kinds by
    ``reference_stages``), part_convs (per part a kernel per stage, None
    for a skipped one), part_dense (per part [w, b]) and the trunk and
    head arrays by name.  arrays, one per ``params_list`` entry and in its
    order (tape leaves, say), stand in for phi's own; a count that does
    not fit raises."""
    it = iter(phi.params_list() if arrays is None else arrays)
    net = SimpleNamespace(plans=[], part_convs=[], part_dense=[])
    for shape in phi.layout.shapes:
        kinds = reference_stages(shape)[0]
        net.plans.append(kinds)
        net.part_convs.append([None if kind is None else next(it)
                               for kind in kinds])
        net.part_dense.append([next(it), next(it)])
    (net.trunk_w, net.trunk_b, net.head_omega_w, net.head_omega_b,
     net.head_sigma_w, net.head_sigma_b) = it
    return net


def _tap_keys(shape):
    """The window of a (B,) + spatial input under each valid KERNEL conv
    tap, taps flat and row-major."""
    spans = [d - KERNEL + 1 for d in shape[1:]]
    return [(slice(None),) + tuple(slice(o, o + m)
                                   for o, m in zip(offsets, spans))
            for offsets in np.ndindex(*(KERNEL,) * len(spans))]


def reference_net_forward(phi, points, keep=False):
    """The metric net's forward run tap by tap and window by window.

    The reference for ``rpg.metricnet.metric_net_forward``, which runs
    every part's conv -> conv -> pool -> dense chain as one product with
    a matrix built from phi.  Here each part of the (n,) or (B, n) points
    is convolved one kernel tap at a time, average-pooled one window at a
    time and then multiplied by its dense weights.  Returns (omega,
    sigma, acts), outputs mirroring the batching; acts, kept only with
    keep, is what ``reference_net_backward`` reads.
    """
    pts = np.asarray(points, dtype=np.float64)
    net = net_arrays(phi)
    feats, part_acts = [], []
    for i, x in enumerate(phi.layout.unflatten_batch(np.atleast_2d(pts))):
        kinds, length = reference_stages(phi.layout.shapes[i])
        stage_in = []
        for kind, kern in zip(kinds, net.part_convs[i]):
            if kind is None:
                continue
            if kind == "1d":
                x = x.reshape(len(x), -1)
            stage_in.append(x)
            keys = _tap_keys(x.shape)
            conv = x[keys[0]] * kern[0]
            for t, key in enumerate(keys[1:], 1):
                conv = conv + x[key] * kern[t]
            x = conv
        x = x.reshape(len(x), -1)
        if i != phi.layout.output_bias_part:
            starts = range(0, length, POOL_SIZE)
            x = np.stack([x[:, s:s + POOL_SIZE].sum(axis=1) /
                          (min(s + POOL_SIZE, length) - s) for s in starts],
                         axis=1)
        w, b = net.part_dense[i]
        z = x @ w + b
        feats.append(np.logaddexp(0.0, z))
        part_acts.append((stage_in, x, z))
    h_in = np.concatenate(feats, axis=1)
    z_trunk = h_in @ phi.trunk_w + phi.trunk_b
    h = np.logaddexp(0.0, z_trunk)
    omega = h @ phi.head_omega_w + phi.head_omega_b
    sigma = h @ phi.head_sigma_w + phi.head_sigma_b
    if pts.ndim == 1:
        omega, sigma = omega[0], sigma[0]
    return omega, sigma, (part_acts, h_in, z_trunk, h) if keep else None


def reference_net_backward(phi, acts, g_omega, g_sigma, to_theta=False):
    """The metric net's reverse pass with each conv tap in its own loop.

    The reference for ``rpg.metricnet._net_backward``, which carries the
    cotangent of the parts' collapsed matrices back to the kernels and
    dense weights.  Here it goes back through the acts of
    ``reference_net_forward``: each kernel-gradient tap is one slice and
    one sum, and each carried cotangent adds one slice per tap.  Returns
    the flat phi-gradient, in ``params_list`` order, and the (B, n)
    theta-cotangent, or None without to_theta.
    """
    part_acts, h_in, z_trunk, h = acts
    net = net_arrays(phi)

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    g_h = g_omega @ phi.head_omega_w.T + g_sigma @ phi.head_sigma_w.T
    g_trunk = g_h * sigmoid(z_trunk)
    g_feats = g_trunk @ phi.trunk_w.T
    grads, g_parts, col = [], [], 0
    for i, (stage_in, x, z) in enumerate(part_acts):
        w = net.part_dense[i][0]
        g_z = g_feats[:, col:col + w.shape[1]] * sigmoid(z)
        col += w.shape[1]
        kerns = [k for k in net.part_convs[i] if k is not None]
        kern_grads = [np.empty(k.size) for k in kerns]
        if stage_in or to_theta:
            g = g_z @ w.T
            if i != phi.layout.output_bias_part:
                length = reference_stages(phi.layout.shapes[i])[1]
                starts = np.arange(0, length, POOL_SIZE)
                counts = np.minimum(starts + POOL_SIZE, length) - starts
                g = np.repeat(g * (1.0 / counts), counts, axis=-1)
            for s in reversed(range(len(stage_in))):
                a = stage_in[s]
                keys = _tap_keys(a.shape)
                g = g.reshape((len(a),) + tuple(d - KERNEL + 1
                                                for d in a.shape[1:]))
                for t, key in enumerate(keys):
                    kern_grads[s][t] = (g * a[key]).sum()
                if s or to_theta:
                    g_in = np.zeros(a.shape)
                    for t, key in enumerate(keys):
                        g_in[key] += g * kerns[s][t]
                    g = g_in
            if to_theta:
                g_parts.append(g.reshape(len(g), -1))
        grads += kern_grads + [(x.T @ g_z).ravel(), g_z.sum(axis=0)]
    for x, g_z in ((h_in, g_trunk), (h, g_omega), (h, g_sigma)):
        grads += [(x.T @ g_z).ravel(), g_z.sum(axis=0)]
    g_theta = np.concatenate(g_parts, axis=1) if to_theta else None
    return np.concatenate(grads), g_theta


def reference_play_rows(env, policy, parts, events):
    """The row engine step by step, the reference for
    ``rpg.policy._play_rows``: every step advances and takes its own
    rewards, the last step's advance included, into per-step lists that
    ``np.stack`` then joins into (B, E, H, ...) arrays."""
    starts, xi, noise = events
    sigma = policy.row_sigmas(parts)
    state = np.broadcast_to(starts, (len(parts[0]),) + starts.shape)
    states, actions, rewards = [], [], []
    for t in range(env.horizon):
        action = policy.row_means(parts, state)
        if xi is not None:
            action = action + sigma * xi[t]
        states.append(state)
        actions.append(action)
        rewards.append(env.rewards(state, action))
        state = env.advance(state, action, None if noise is None else noise[t])
    return (np.stack(states, axis=2), np.stack(actions, axis=2),
            np.stack(rewards, axis=-1))


def reference_evaluation_returns(env, policy, episodes, gamma, rng):
    """``rpg.policy.evaluation_returns`` on ``reference_play_rows``."""
    events = _draw_episode_events(env, policy, episodes, rng, explore=False)
    parts = policy.layout.unflatten_batch(policy.theta[None])
    rewards = reference_play_rows(env, policy, parts, events)[2]
    return _return_to_go(rewards[0], gamma)[:, 0]


def reference_record(policy, parts, states):
    """The policy's record at (B, E, H, state_dim) states, forwarded out of
    place one step of (B, E) states at a time, the products' shapes of
    play: (h1, h2, mean) for the MLP, (mean,) for the gain policy, each
    (B, E, H, width).  The matrix kernel, and so the last bits, may depend
    on E; a forward over all E * H steps at once would take another."""
    steps = []
    for t in range(states.shape[2]):
        state = states[:, :, t]
        if isinstance(policy, LinearGainPolicy):
            k, b = parts
            steps.append((-state @ k.swapaxes(1, 2) + b[:, None, :],))
        else:
            w1, b1, w2, b2, w3, b3 = parts[:6]
            h1 = np.tanh(state @ w1 + b1[:, None, :])
            h2 = np.tanh(h1 @ w2 + b2[:, None, :])
            steps.append((h1, h2, h2 @ w3 + b3[:, None, :]))
    return [np.stack(column, axis=2) for column in zip(*steps)]


def reference_reinforce_field(env, policy, points, episodes, gamma, rng):
    """``rpg.policy.reinforce_field`` in one block on
    ``reference_play_rows``, episode-major rows stacked from per-step
    arrays, differentiated out of place on a forward of its own
    (``reference_record``): ``reference_row_logprob_grads`` for the MLP,
    the closed form for the gain policy."""
    events = _draw_episode_events(env, policy, episodes, rng)
    parts = policy.layout.unflatten_batch(np.asarray(points, dtype=float))
    states, actions, rewards = reference_play_rows(env, policy, parts,
                                                   events)
    rows = len(points)

    def steps(a):
        return a.reshape(rows, -1, a.shape[-1])

    record = [steps(r) for r in reference_record(policy, parts, states)]
    states, actions = steps(states), steps(actions)
    weights = _reinforce_weights(rewards, gamma).reshape(rows, -1)
    if not isinstance(policy, LinearGainPolicy):
        return reference_row_logprob_grads(parts, states, actions, weights,
                                           record)
    wz = weights[:, :, None] * ((actions - record[0]) / policy.sigma ** 2)
    return _flat_rows([-(wz.swapaxes(1, 2) @ states), wz.sum(axis=1)])


def _per_step_moments(a_cl, env, gamma, init_second_moment):
    """Yield vec(g^t M_t) as (N², B), one step at a time, overwriting one
    array."""
    if init_second_moment is None:
        init_second_moment = default_init_second_moment(env)
    nn, batch = a_cl.shape[0] ** 2, a_cl.shape[2]
    noise = np.diag([env.noise_scale ** 2] * env.state_dim + [0.0])
    kron = gamma * _vec_kron(a_cl.transpose(1, 0, 2))
    tmp, disc = np.empty((nn, nn, batch)), 1.0
    m_t = np.repeat(np.reshape(init_second_moment, (nn, 1)), batch, axis=1)
    for t in range(env.horizon):
        if t:
            np.multiply(kron, m_t[:, None], out=tmp)
            tmp.sum(0, out=m_t)
            disc *= gamma
            if env.noise_scale:
                m_t += disc * noise.reshape(nn, 1)
        yield m_t


def reference_lqr_expected_return(points, env, gamma):
    """``rpg.envs.lqr_expected_return`` with a running sum of the moments
    over t."""
    pts, single = _gain_rows(points, env)
    _, a_cl, cost = _closed_loop(pts, env)
    s_m = np.zeros_like(cost)
    for m_t in _per_step_moments(a_cl, env, gamma, None):
        s_m += m_t
    returns = -sum(c * m for c, m in zip(cost, s_m))
    return float(returns[0]) if single else returns


def reference_lqr_return_gradient(points, env, gamma):
    """``rpg.envs.lqr_return_gradient`` over every row, with the gradient
    accumulated step by step: grad += sum_i H_t[i] g^t M_t[i] for each t,
    beside the moment recursion."""
    pts, single = _gain_rows(points, env)
    rk, a_cl, cost = _closed_loop(pts, env)
    n, m, horizon = env.state_dim, env.action_dim, env.horizon
    n_aug, (nn, batch) = n + 1, cost.shape
    back = np.concatenate([gamma * _vec_kron(a_cl), (
        -gamma * np.vstack([env.b, np.zeros(m)])[:, None, None, :, None]
        * a_cl[None, :, :, None]).reshape(nn, n_aug * m, batch)], axis=1)
    tmp = np.empty((nn + 1,) + back.shape[1:])
    tmp[nn] = np.concatenate([cost, rk.transpose(1, 0, 2).reshape(-1, batch)])
    p_h = np.zeros(back.shape[1:])
    h = np.empty((horizon, n_aug * m, batch))
    for t in range(horizon - 1, -1, -1):
        np.multiply(back, p_h[:nn, None], out=tmp[:nn])
        h[t] = tmp.sum(0, out=p_h)[nn:]
    grad_aug = np.zeros((m, n_aug, batch))
    for h_t, m_t in zip(h, _per_step_moments(a_cl, env, gamma, None)):
        grad_aug += (h_t.reshape(n_aug, m, 1, batch)
                     * m_t.reshape(n_aug, 1, n_aug, batch)).sum(0)
    out = 2.0 * np.concatenate([-grad_aug[:, :n].reshape(-1, batch),
                                grad_aug[:, n]])
    return out[:, 0] if single else out.T
