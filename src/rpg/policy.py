"""Policies, trajectories, and the REINFORCE gradient estimator.

Three policy families cover the toy environments: a small tanh MLP with a
Gaussian head (state-independent learnable log-std), an affine gain
a = -K s + b with fixed exploration noise for linear-quadratic problems, and
a bare parameter vector for single-step landscape environments where the
action IS the parameter.  All of them expose the same flat-parameter
interface (`theta` / `set_theta`, a `layout` describing the parts), which is
what the metric machinery consumes.

The estimator here is plain REINFORCE on return-to-go with a per-timestep
mean baseline over the episode batch — no critics, no bootstrapping.  It
comes in two forms that share the weights (``_reinforce_weights``) and the
log-probability gradient.  ``reinforce_gradient_from_batch`` serves one
parameter vector and a batch that ``rollout`` collected.
``reinforce_field`` serves B parameter rows at once with common random
numbers: every draw event of the episodes is made once, in the order
``rollout`` makes it, and shared by all rows, so row b equals the
estimator at row b over episodes replayed from the same stream.  The two
stochastic policies compute their mean and their log-probability gradient
in closed form over rows of parameters (``LayerLayout.unflatten_batch``);
a single parameter vector is the one-row case.  ``evaluation_returns``
plays evaluation episodes on the same engine, at one row and without
action noise.  The engine (``_play_rows``) keeps only the recurrence in
its horizon loop: each step's states and actions go into C-order
(B, E, H, ·) buffers, the environment's ``advance`` makes the next state,
and one ``rewards`` call after the loop takes every step's rewards.
"""

from dataclasses import dataclass

import numpy as np

from .metricnet import LayerLayout

# parameter rows played and differentiated together by reinforce_field.
# It bounds the activations of one block; at the `rpg train` pointmass
# defaults (1,281 rows in one call) blocks of 32 rows peak at 56 MB RSS
# against 275 MB for one block, at the same speed
ROW_BLOCK = 32


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
    """One episode: row t holds (state_t, action_t, reward_t)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.actions = np.atleast_2d(np.asarray(self.actions, dtype=float))
        self.rewards = np.asarray(self.rewards, dtype=float).reshape(-1)
        if not (len(self.states) == len(self.actions) == len(self.rewards)):
            raise ValueError("trajectory arrays disagree on episode length")

    def __len__(self):
        return len(self.rewards)

    def return_to_go(self, gamma):
        """G_t = r_t + gamma * G_{t+1}, accumulated from the tail."""
        return _return_to_go(self.rewards, gamma)

    def discounted_return(self, gamma):
        """Total discounted return; same accumulation as return_to_go."""
        return float(self.return_to_go(gamma)[0])


def rollout(env, policy, rng, explore=True):
    """Play one episode and return it as a Trajectory.

    With explore=False the policy acts on its mean (evaluation protocol).
    """
    states, actions, rewards = [], [], []
    state = env.reset(rng)
    for _ in range(env.horizon):
        action = policy.act(state, rng if explore else None)
        nxt, reward, done = env.step(state, action, rng)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        state = nxt
        if done:
            break
    return Trajectory(np.array(states), np.array(actions),
                      np.array(rewards))


def _draw_episode_events(env, policy, episodes, rng, explore=True):
    """Every draw of `episodes` rollouts, made in the order rollout makes it.

    Per episode: the reset, then per step the action noise (only when
    exploring) and the dynamics noise (an event only when the dynamics are
    noisy; once draw_noise has answered None, it is not asked again).
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


def _play_rows(env, policy, parts, events):
    """Play the B x E trajectories of parameter rows `parts` on `events`.

    Returns the states (B, E, H, state_dim) and the actions
    (B, E, H, action_dim) in C order, and the rewards (B, E, H).  The
    horizon loop keeps only the recurrence: it writes each step's states
    and actions into the buffers, makes no advance after the last step,
    whose result nothing reads, and one rewards call then takes every
    step's rewards.  Every episode runs the full horizon, as every
    environment's does.  Without action noise the policy acts on its mean.
    """
    starts, xi, noise = events
    sigma = policy.row_sigmas(parts)
    rows, (episodes, dim), horizon = len(parts[0]), starts.shape, env.horizon
    states = np.empty((rows, episodes, horizon, dim))
    actions = np.empty((rows, episodes, horizon, env.action_dim))
    state = np.broadcast_to(starts, (rows, episodes, dim))
    for t in range(horizon):
        action = policy.row_means(parts, state)
        if xi is not None:
            action = action + sigma * xi[t]
        states[:, :, t] = state
        actions[:, :, t] = action
        if t + 1 < horizon:
            state = env.advance(state, action,
                                None if noise is None else noise[t])
    return states, actions, env.rewards(states, actions)


def evaluation_returns(env, policy, episodes, gamma, rng):
    """Discounted returns of `episodes` episodes at the policy's own theta.

    The episodes act on the mean and are played together, at one parameter
    row.  Their draws are those of as many ``rollout(..., explore=False)``
    calls on `rng`, in the same order, and each return comes from the
    same ``_return_to_go``.
    """
    events = _draw_episode_events(env, policy, episodes, rng, explore=False)
    parts = policy.layout.unflatten_batch(policy.theta[None])
    rewards = _play_rows(env, policy, parts, events)[2]
    return _return_to_go(rewards[0], gamma)[:, 0]


def reinforce_field(env, policy, points, episodes, gamma, rng):
    """REINFORCE gradients at the (B, n) parameter rows, on common noise.

    Row b is reinforce_gradient_from_batch over `episodes` rollouts of the
    policy at points[b], every row replaying the same draws of `rng`: the
    E * (1 + H) draw events (E * (1 + 2H) with noisy dynamics) are made
    once, whatever B is, and broadcast over the rows.  `policy` supplies
    the layout and the row methods only; its own theta is not read.
    """
    if not getattr(policy, "stochastic", False):
        raise ValueError("sampled policy gradients need a stochastic policy")
    points = np.asarray(points, dtype=float)
    events = _draw_episode_events(env, policy, episodes, rng)
    out = []
    for at in range(0, len(points), ROW_BLOCK):
        parts = policy.layout.unflatten_batch(points[at:at + ROW_BLOCK])
        states, actions, rewards = _play_rows(env, policy, parts, events)
        # episode-major (B, E*H, d), as reinforce_gradient_from_batch
        # stacks its batch
        rows = len(parts[0])
        out.append(policy.row_logprob_grads(
            parts, states.reshape(rows, -1, states.shape[-1]),
            actions.reshape(rows, -1, actions.shape[-1]),
            _reinforce_weights(rewards, gamma).reshape(rows, -1)))
    return np.concatenate(out)


class _GaussianPolicy:
    """Shared single-vector gradient of the two Gaussian policies."""

    stochastic = True

    def weighted_logprob_grad(self, states, actions, weights):
        """Flat gradient of sum_i w_i * log pi(a_i | s_i) w.r.t. theta.

        The one-row case of ``row_logprob_grads``.
        """
        return self.row_logprob_grads(
            self.layout.unflatten_batch(self.theta[None]),
            np.atleast_2d(np.asarray(states, dtype=float))[None],
            np.atleast_2d(np.asarray(actions, dtype=float))[None],
            np.asarray(weights, dtype=float).reshape(1, -1))[0]


def _mlp_layers(parts, states):
    """Hidden activations and mean of the tanh MLP at B parameter rows."""
    w1, b1, w2, b2, w3, b3 = parts[:6]
    h1 = np.tanh(states @ w1 + b1[:, None, :])
    h2 = np.tanh(h1 @ w2 + b2[:, None, :])
    return h1, h2, h2 @ w3 + b3[:, None, :]


def _flat_rows(grads):
    return np.concatenate([g.reshape(len(g), -1) for g in grads], axis=1)


class PolicyMLP(_GaussianPolicy):
    """Two-hidden-layer tanh network with a Gaussian action head.

    mean(s) = tanh(tanh(s W1 + b1) W2 + b2) W3 + b3, and actions are drawn
    as mean + exp(log_std) * xi with a learnable state-independent log_std.
    Parameters flatten in layer order with log_std last; the output bias b3
    is flagged as the pooling-exempt part for downstream consumers.

    The row methods take ``layout.unflatten_batch(points)`` for B parameter
    rows and states shaped (B, N, state_dim).
    """

    def __init__(self, state_dim, action_dim, rng, hidden=(16, 16),
                 log_std_init=-0.5):
        h1, h2 = hidden
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
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

    def mean(self, states):
        w1, b1, w2, b2, w3, b3 = self.arrays[:6]
        h = np.tanh(states @ w1 + b1)
        h = np.tanh(h @ w2 + b2)
        return h @ w3 + b3

    def act(self, state, rng=None):
        mu = self.mean(np.asarray(state, dtype=float)[None, :])[0]
        if rng is None:
            return mu
        sigma = np.exp(self.arrays[6])
        return mu + sigma * rng.normal(size=self.action_dim)

    def row_means(self, parts, states):
        return _mlp_layers(parts, states)[2]

    def row_sigmas(self, parts):
        return np.exp(parts[6])[:, None, :]

    def row_logprob_grads(self, parts, states, actions, weights):
        """Rows of d/dtheta sum_i w_i log pi(a_i | s_i), weights (B, N).

        With z = (a - mean)/sigma, the mean receives w z / sigma and the
        backward runs through the two tanh layers by hand; the log_std part
        is sum_i w_i (z_i^2 - 1) per action dimension.  The (B, N, hidden)
        temporaries are made in place: each fresh array costs page faults.
        """
        w1, b1, w2, b2, w3, b3, log_std = parts
        h1, h2, mu = _mlp_layers(parts, states)
        inv_var = np.exp(-2.0 * log_std)[:, None, :]
        w = weights[:, :, None]
        diff = actions - mu
        g3 = w * diff * inv_var
        g2 = g3 @ w3.swapaxes(1, 2)
        slope = np.multiply(h2, h2)
        g2 *= np.subtract(1.0, slope, out=slope)
        g1 = g2 @ w2.swapaxes(1, 2)
        slope = np.multiply(h1, h1, out=slope if h1.shape == h2.shape
                            else None)
        g1 *= np.subtract(1.0, slope, out=slope)
        return _flat_rows([
            states.swapaxes(1, 2) @ g1, g1.sum(axis=1),
            h1.swapaxes(1, 2) @ g2, g2.sum(axis=1),
            h2.swapaxes(1, 2) @ g3, g3.sum(axis=1),
            np.sum(w * (diff * diff * inv_var - 1.0), axis=1)])


class LinearGainPolicy(_GaussianPolicy):
    """Affine controller a = -K s + b with fixed Gaussian exploration.

    Exploration sigma is a constant, not a parameter: theta is exactly
    (K, b), which keeps the analytic return gradient applicable.  The row
    methods are PolicyMLP's, for parts (K, b).
    """

    def __init__(self, state_dim, action_dim, sigma=0.1, k=None, b=None):
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
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

    def mean(self, states):
        return -np.atleast_2d(states) @ self.k.T + self.b

    def act(self, state, rng=None):
        mu = -self.k @ np.asarray(state, dtype=float) + self.b
        if rng is None:
            return mu
        return mu + self.sigma * rng.normal(size=self.action_dim)

    def row_means(self, parts, states):
        k, b = parts
        return -states @ k.swapaxes(1, 2) + b[:, None, :]

    def row_sigmas(self, parts):
        return self.sigma

    def row_logprob_grads(self, parts, states, actions, weights):
        zs = (actions - self.row_means(parts, states)) / self.sigma ** 2
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

    def act(self, state, rng=None):
        return self._theta.copy()

    def row_means(self, parts, states):
        return np.broadcast_to(parts[0][:, None, :],
                               states.shape[:-1] + (self.dim,))

    def row_sigmas(self, parts):
        return 0.0


def reinforce_gradient_from_batch(policy, trajectories, gamma):
    """REINFORCE on an already-collected batch of equal-length episodes.

    The ``_reinforce_weights`` of the batch's rewards applied to
    grad log pi at the policy's own theta.
    """
    if not getattr(policy, "stochastic", False):
        raise ValueError("sampled policy gradients need a stochastic policy")
    horizon = len(trajectories[0])
    if any(len(t) != horizon for t in trajectories):
        raise ValueError("episode batch must share one length")
    rewards = np.stack([t.rewards for t in trajectories])
    weights = _reinforce_weights(rewards, gamma).reshape(-1)
    states = np.concatenate([t.states for t in trajectories])
    actions = np.concatenate([t.actions for t in trajectories])
    return policy.weighted_logprob_grad(states, actions, weights)
