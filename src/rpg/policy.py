"""Policies, trajectories, and the REINFORCE gradient estimator.

Three policy families cover the toy environments: a small tanh MLP with a
Gaussian head (state-independent learnable log-std), an affine gain
a = -K s + b with fixed exploration noise for linear-quadratic problems, and
a bare parameter vector for single-step landscape environments where the
action IS the parameter.  All of them expose the same flat-parameter
interface (`theta` / `set_theta`, a `layout` describing the parts), which is
what the metric machinery consumes.

Episodes are played on one engine, ``_play_rows``: B parameter rows,
each over the same E episodes, whose draws ``_draw_episode_events`` makes
beforehand, in the order of play.  Its horizon loop keeps only the
recurrence: each step's states and actions go into C-order (B, E, H, ·)
buffers, the environment's ``advance`` makes the next state, and one
``rewards`` call after the loop takes every step's rewards.  The policies
compute their mean, and the two stochastic ones their log-probability
gradient, in closed form over rows of parameters
(``LayerLayout.unflatten_batch``); a single parameter vector is the
one-row case.  When the episodes explore, each step's forward also keeps
the policy's record, what its log-probability gradient reads (the MLP's
two hidden layers and mean, the gain policy's mean), in (B, E, H, ·)
buffers, so the gradient never forwards the policy again.  ``rollout``
plays E episodes at the policy's own theta, one row, into a
``Trajectory``; ``evaluation_returns`` is a rollout on the mean and keeps
nothing.

The estimator is plain REINFORCE on return-to-go with a per-timestep mean
baseline over the episode batch — no critics, no bootstrapping.  Its one
step, ``_reinforce_rows``, takes the weights (``_reinforce_weights``) and
the log-probability gradient of B rows' batches from their records.
``reinforce_gradient_from_batch`` applies it to one rollout at the
policy's own theta.  ``reinforce_field`` applies it to B parameter rows at
once with common random numbers: every draw event of the episodes is made
once and shared by all rows, so row b equals the estimator at row b over
episodes replayed from the same stream.  It plays and differentiates
blocks of ROW_BLOCK rows in one work area (``_work``), kept for the life
of the process: a block's states, actions and records and the MLP
backward's (B, E*H, hidden) buffers are slices of it, so a call allocates
no array that size, and its cost does not depend on what ran before.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metricnet import LayerLayout

# parameter rows played and differentiated together by reinforce_field,
# and the rows of each work-area buffer.  It bounds the activations of one
# block: one `rpg train` pointmass J/T call at the defaults has
# 1 + 2*32*20 + 2*32 = 1,345 rows, which peak at 48 MB RSS in blocks of 32
# against 255 MB in one block (43 MB before the call)
ROW_BLOCK = 32


@lru_cache(maxsize=16)
def _work_area(slot, rows, steps, width):
    """The (rows, steps, width) buffer of one slot and shape."""
    return np.empty((rows, steps, width))


def _work(slot, rows, steps, width):
    """A (rows, steps, width) buffer of the work area: the first `rows`
    rows of the slot's buffer for that shape, made once per process, or a
    fresh array past ROW_BLOCK rows.  Its contents are whatever the last
    user left; it is the caller's until the next request for the same
    slot and shape, so one caller uses the area at a time."""
    if rows > ROW_BLOCK:
        return np.empty((rows, steps, width))
    return _work_area(slot, ROW_BLOCK, steps, width)[:rows]


def _fresh(slot, rows, steps, width):
    """A new (rows, steps, width) array, for records that outlive the call,
    such as ``rollout``'s."""
    return np.empty((rows, steps, width))


def _return_to_go(rewards, gamma):
    """G_t = r_t + gamma * G_{t+1} along the last axis, from the tail."""
    # time first; one episode stays 1-d, so its steps are numpy scalars
    steps = rewards.T
    out = np.zeros_like(steps)
    acc = 0.0
    for t in range(len(steps) - 1, -1, -1):
        acc = steps[t] + gamma * acc
        out[t] = acc
    return out.T


def _reinforce_weights(rewards, gamma):
    """Weights gamma^t * (G_t - baseline_t) / E for rewards shaped (..., E, H).

    The baseline is the per-timestep mean of the return-to-go across the E
    episodes (a constant-reward environment therefore yields an exactly
    zero advantage).
    """
    rtg = _return_to_go(rewards, gamma)
    episodes, horizon = rewards.shape[-2:]
    if episodes > 1:
        advantage = rtg - rtg.mean(axis=-2, keepdims=True)
    else:
        # the cross-episode mean of a single episode is itself, which would
        # zero the weights identically; fall back to raw return-to-go
        advantage = rtg
    discounts = gamma ** np.arange(horizon)
    return discounts * advantage / episodes


@dataclass
class Trajectory:
    """E episodes of H steps, played together: states (E, H, state_dim),
    actions (E, H, action_dim) and rewards (E, H), and, when they
    explored, the policy's record, one (E, H, width) array per entry of
    its ``record_widths``.  Its length is the number of steps, E * H."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    record: tuple = None

    def __len__(self):
        return self.rewards.size


def rollout(env, policy, episodes, rng, explore=True):
    """Play `episodes` episodes at the policy's own theta, together.

    The draws are made first (``_draw_episode_events``), then the episodes
    are played at one parameter row (``_play_rows``).  With explore=False
    the policy acts on its mean (evaluation protocol).
    """
    events = _draw_episode_events(env, policy, episodes, rng, explore)
    parts = policy.layout.unflatten_batch(policy.theta[None])
    states, actions, rewards, record = _play_rows(env, policy, parts, events)
    return Trajectory(states[0], actions[0], rewards[0],
                      None if record is None else tuple(r[0] for r in record))


def _draw_episode_events(env, policy, episodes, rng, explore=True):
    """Every draw of `episodes` episodes, in the order of play.

    Per episode: the reset, then per step the action noise (only when
    exploring) and the dynamics noise (an event only when the dynamics are
    noisy; once draw_noise has answered None, it is not asked again).
    This is the order in which episodes played one at a time, step by
    step, would draw.
    Returns the start states (E, state_dim), the action noise
    (H, E, action_dim) or None, and the dynamics noise (H, E, state_dim)
    or None.
    """
    starts, xi, noise = [], [], []
    noisy = True
    for _ in range(episodes):
        starts.append(env.reset(rng))
        for _ in range(env.horizon):
            if explore:
                xi.append(rng.normal(size=policy.action_dim))
            if noisy:
                noise.append(env.draw_noise(rng))
                noisy = noise[-1] is not None
    steps = (episodes, env.horizon, -1)
    xi = np.reshape(xi, steps).swapaxes(0, 1) if explore else None
    noise = np.reshape(noise, steps).swapaxes(0, 1) if noisy else None
    return np.array(starts), xi, noise


def _play_rows(env, policy, parts, events, buffer=_fresh):
    """Play the B x E trajectories of parameter rows `parts` on `events`.

    Returns the states (B, E, H, state_dim) and the actions
    (B, E, H, action_dim) in C order, the rewards (B, E, H) and the
    record.  The horizon loop keeps only the recurrence: it writes each
    step's states and actions into the buffers, makes no advance after the
    last step, whose result nothing reads, and one rewards call then takes
    every step's rewards.  Every episode runs the full horizon, as every
    environment's does.  Without action noise the policy acts on its mean
    and the record is None.  With it, each step's forward
    (``row_forward``) is also copied into the record.  The states, actions
    and record arrays are C-order (B, E, H, width) views of what
    ``buffer(slot, rows, E * H, width)`` hands out: new arrays by default
    (``_fresh``), or work-area slices (``_work``), valid until the next
    request for the same slot and shape.
    """
    starts, xi, noise = events
    sigma = policy.row_sigmas(parts)
    rows, (episodes, dim), horizon = len(parts[0]), starts.shape, env.horizon

    def steps(slot, width):
        return buffer(slot, rows, episodes * horizon, width).reshape(
            rows, episodes, horizon, width)

    states, actions = steps("states", dim), steps("actions", env.action_dim)
    record = None if xi is None else [
        steps(f"record{i}", width)
        for i, width in enumerate(policy.record_widths)]
    state = np.broadcast_to(starts, (rows, episodes, dim))
    for t in range(horizon):
        if record is None:
            action = policy.row_means(parts, state)
        else:
            layers = policy.row_forward(parts, state)
            for kept, layer in zip(record, layers):
                kept[:, :, t] = layer
            action = layers[-1] + sigma * xi[t]
        states[:, :, t] = state
        actions[:, :, t] = action
        if t + 1 < horizon:
            state = env.advance(state, action,
                                None if noise is None else noise[t])
    return states, actions, env.rewards(states, actions), record


def evaluation_returns(env, policy, episodes, gamma, rng):
    """Discounted returns of `episodes` episodes at the policy's own theta,
    acting on the mean: ``rollout(..., explore=False)``, then
    ``_return_to_go``."""
    rewards = rollout(env, policy, episodes, rng, explore=False).rewards
    return _return_to_go(rewards, gamma)[:, 0]


def _check_stochastic(policy):
    if not getattr(policy, "stochastic", False):
        raise ValueError("sampled policy gradients need a stochastic policy")


def _reinforce_rows(policy, parts, states, actions, rewards, record, gamma):
    """REINFORCE gradients of B parameter rows from their (B, E, H, ·)
    batches and records: ``_reinforce_weights``, then
    ``row_logprob_grads`` over the episode-major (B, E*H, ·) steps."""
    rows = len(parts[0])

    def steps(a):
        return a.reshape(rows, -1, a.shape[-1])

    return policy.row_logprob_grads(
        parts, steps(states), steps(actions), [steps(r) for r in record],
        _reinforce_weights(rewards, gamma).reshape(rows, -1))


def reinforce_gradient_from_batch(policy, batch, gamma):
    """REINFORCE at the policy's own theta over an exploring ``rollout``
    batch, from the record its play kept.

    The one-row case of ``_reinforce_rows``, the step every block of
    ``reinforce_field`` takes.
    """
    _check_stochastic(policy)
    if batch.record is None:
        raise ValueError("REINFORCE needs a batch played with exploration")
    parts = policy.layout.unflatten_batch(policy.theta[None])
    return _reinforce_rows(policy, parts, batch.states[None],
                           batch.actions[None], batch.rewards[None],
                           [r[None] for r in batch.record], gamma)[0]


def reinforce_field(env, policy, points, episodes, gamma, rng):
    """REINFORCE gradients at the (B, n) parameter rows, on common noise.

    Row b is reinforce_gradient_from_batch over a ``rollout`` of
    `episodes` episodes of the policy at points[b], every row replaying
    the same draws of `rng`: the E * (1 + H) draw events
    (E * (1 + 2H) with noisy dynamics) are made once, whatever B is, and
    broadcast over the rows.  `policy` supplies the layout and the row
    methods only; its own theta is not read.  Each block of ROW_BLOCK rows
    plays into the work area (``_work``) and its backward reads the kept
    records there; the returned rows are a new array.
    """
    _check_stochastic(policy)
    points = np.asarray(points, dtype=float)
    events = _draw_episode_events(env, policy, episodes, rng)
    out = np.empty(points.shape)
    for at in range(0, len(points), ROW_BLOCK):
        parts = policy.layout.unflatten_batch(points[at:at + ROW_BLOCK])
        out[at:at + ROW_BLOCK] = _reinforce_rows(
            policy, parts, *_play_rows(env, policy, parts, events, _work),
            gamma)
    return out


def _mlp_layers(parts, states):
    """Hidden activations and mean of the tanh MLP at B parameter rows,
    each layer's bias and tanh applied in place on its product."""
    w1, b1, w2, b2, w3, b3 = parts[:6]
    h1 = states @ w1
    h1 += b1[:, None, :]
    h2 = np.tanh(h1, out=h1) @ w2
    h2 += b2[:, None, :]
    mean = np.tanh(h2, out=h2) @ w3
    mean += b3[:, None, :]
    return h1, h2, mean


def _flat_rows(grads):
    return np.concatenate([g.reshape(len(g), -1) for g in grads], axis=1)


class PolicyMLP:
    """Two-hidden-layer tanh network with a Gaussian action head.

    mean(s) = tanh(tanh(s W1 + b1) W2 + b2) W3 + b3, and actions are drawn
    as mean + exp(log_std) * xi with a learnable state-independent log_std.
    Parameters flatten in layer order with log_std last; the output bias b3
    is flagged as the pooling-exempt part for downstream consumers.

    The row methods take ``layout.unflatten_batch(points)`` for B parameter
    rows and states shaped (B, N, state_dim).  The record, what
    ``row_logprob_grads`` reads of the forward, is h1, h2 and the mean.
    """

    stochastic = True

    def __init__(self, state_dim, action_dim, rng, hidden=(16, 16),
                 log_std_init=-0.5):
        h1, h2 = hidden
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.record_widths = (h1, h2, self.action_dim)
        dims = [(self.state_dim, h1), (h1,), (h1, h2), (h2,),
                (h2, self.action_dim), (self.action_dim,),
                (self.action_dim,)]
        self.layout = LayerLayout(tuple(dims), pool_exempt=5)
        self.arrays = []
        for shape in dims[:-1]:
            if len(shape) == 2:
                scale = 1.0 / np.sqrt(shape[0])
                self.arrays.append(rng.normal(size=shape, scale=scale))
            else:
                self.arrays.append(np.zeros(shape))
        self.arrays.append(np.full(self.action_dim, float(log_std_init)))

    @property
    def theta(self):
        return self.layout.flatten(self.arrays)

    def set_theta(self, vec):
        self.arrays = list(self.layout.unflatten(vec))

    def row_forward(self, parts, states):
        """The record (h1, h2, mean) at (B, N, state_dim) states."""
        return _mlp_layers(parts, states)

    def row_means(self, parts, states):
        return _mlp_layers(parts, states)[2]

    def row_sigmas(self, parts):
        return np.exp(parts[6])[:, None, :]

    def row_logprob_grads(self, parts, states, actions, record, weights):
        """Rows of d/dtheta sum_i w_i log pi(a_i | s_i), weights (B, N),
        from the record (h1, h2, mean) of ``row_forward`` at the states,
        kept by play: the policy is not forwarded again.

        With z = (a - mean)/sigma, the mean receives w z / sigma and the
        backward runs through the two tanh layers by hand; the log_std part
        is sum_i w_i (z_i^2 - 1) per action dimension.  The (B, N, hidden)
        buffers g1, g2 and the tanh slopes are work-area slices (``_work``;
        one caller at a time): a fresh array that size costs page faults.
        """
        w1, b1, w2, b2, w3, b3, log_std = parts
        h1, h2, mu = record
        rows, steps = weights.shape
        inv_var = np.exp(-2.0 * log_std)[:, None, :]
        w = weights[:, :, None]
        diff = actions - mu
        g3 = w * diff * inv_var
        g2 = np.matmul(g3, w3.swapaxes(1, 2),
                       out=_work("g2", rows, steps, h2.shape[-1]))
        slope = np.multiply(h2, h2,
                            out=_work("slope", rows, steps, h2.shape[-1]))
        g2 *= np.subtract(1.0, slope, out=slope)
        g1 = np.matmul(g2, w2.swapaxes(1, 2),
                       out=_work("g1", rows, steps, h1.shape[-1]))
        slope = np.multiply(h1, h1,
                            out=_work("slope", rows, steps, h1.shape[-1]))
        g1 *= np.subtract(1.0, slope, out=slope)
        return _flat_rows([
            states.swapaxes(1, 2) @ g1, g1.sum(axis=1),
            h1.swapaxes(1, 2) @ g2, g2.sum(axis=1),
            h2.swapaxes(1, 2) @ g3, g3.sum(axis=1),
            np.sum(w * (diff * diff * inv_var - 1.0), axis=1)])


class LinearGainPolicy:
    """Affine controller a = -K s + b with fixed Gaussian exploration.

    Exploration sigma is a constant, not a parameter: theta is exactly
    (K, b), which keeps the analytic return gradient applicable.  The row
    methods are PolicyMLP's, for parts (K, b); the record is the mean.
    """

    stochastic = True

    def __init__(self, state_dim, action_dim, sigma=0.1, k=None, b=None):
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.record_widths = (self.action_dim,)
        self.sigma = float(sigma)
        self.layout = LayerLayout(
            ((self.action_dim, self.state_dim), (self.action_dim,)))
        self.k = (np.zeros((action_dim, state_dim)) if k is None
                  else np.asarray(k, dtype=float).copy())
        self.b = (np.zeros(action_dim) if b is None
                  else np.asarray(b, dtype=float).copy())

    @property
    def theta(self):
        return self.layout.flatten([self.k, self.b])

    def set_theta(self, vec):
        self.k, self.b = self.layout.unflatten(vec)

    def row_forward(self, parts, states):
        return (self.row_means(parts, states),)

    def row_means(self, parts, states):
        k, b = parts
        return -states @ k.swapaxes(1, 2) + b[:, None, :]

    def row_sigmas(self, parts):
        return self.sigma

    def row_logprob_grads(self, parts, states, actions, record, weights):
        zs = (actions - record[0]) / self.sigma ** 2
        wz = weights[:, :, None] * zs
        return _flat_rows([-(wz.swapaxes(1, 2) @ states), wz.sum(axis=1)])


class ParamPolicy:
    """The parameter vector itself is the action (landscape environments)."""

    stochastic = False

    def __init__(self, dim, init=None):
        self.dim = int(dim)
        self.layout = LayerLayout.from_vector(self.dim)
        self._theta = (np.zeros(self.dim) if init is None
                       else np.asarray(init, dtype=float).copy())

    @property
    def theta(self):
        return self._theta.copy()

    def set_theta(self, vec):
        self._theta = np.asarray(vec, dtype=float).copy()

    def row_means(self, parts, states):
        return np.broadcast_to(parts[0][:, None, :],
                               states.shape[:-1] + (self.dim,))

    def row_sigmas(self, parts):
        return 0.0

