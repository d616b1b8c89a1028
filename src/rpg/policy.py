"""Policies, trajectories, and the REINFORCE gradient estimator.

Three policy families cover the toy environments: a small tanh MLP with a
Gaussian head (state-independent learnable log-std), an affine gain
a = -K s + b with fixed exploration noise for linear-quadratic problems, and
a bare parameter vector for single-step landscape environments where the
action IS the parameter.  All of them expose the same flat-parameter
interface (`theta` / `set_theta`, a `layout` describing the parts), which is
what the metric machinery consumes.

The estimator here is plain REINFORCE on return-to-go with a per-timestep
mean baseline over the episode batch — no critics, no bootstrapping.
"""

from dataclasses import dataclass

import numpy as np

from . import tape
from .metricnet import LayerLayout


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
        out = np.zeros_like(self.rewards)
        acc = 0.0
        for t in range(len(self.rewards) - 1, -1, -1):
            acc = self.rewards[t] + gamma * acc
            out[t] = acc
        return out

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


class PolicyMLP:
    """Two-hidden-layer tanh network with a Gaussian action head.

    mean(s) = tanh(tanh(s W1 + b1) W2 + b2) W3 + b3, and actions are drawn
    as mean + exp(log_std) * xi with a learnable state-independent log_std.
    Parameters flatten in layer order with log_std last; the output bias b3
    is flagged as the pooling-exempt part for downstream consumers.
    """

    stochastic = True

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

    def weighted_logprob_grad(self, states, actions, weights):
        """Flat gradient of sum_i w_i * log pi(a_i | s_i) w.r.t. theta.

        The network part runs through the reverse-mode tape with the
        variance held constant; the log_std part has the closed form
        sum_i w_i (z_i^2 - 1) per action dimension, z = (a - mean)/sigma.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        weights = np.asarray(weights, dtype=float).reshape(-1, 1)
        inv_var = np.exp(-2.0 * self.arrays[6])

        graph = tape.DiffGraph()
        leafs = [graph.leaf(a) for a in self.arrays[:6]]
        w1, b1, w2, b2, w3, b3 = leafs
        h = tape.tanh(tape.add(tape.matmul(states, w1), b1))
        h = tape.tanh(tape.add(tape.matmul(h, w2), b2))
        mu = tape.add(tape.matmul(h, w3), b3)
        diff = tape.sub(actions, mu)
        z2 = tape.mul(tape.square(diff), inv_var[None, :])
        loss = tape.reduce_sum(tape.mul(z2, -0.5 * weights))
        grads = graph.leaf_gradients(loss)

        mu_val = self.mean(states)
        z2_val = (actions - mu_val) ** 2 * inv_var[None, :]
        grad_log_std = np.sum(weights * (z2_val - 1.0), axis=0)
        return self.layout.flatten(grads + [grad_log_std])


class LinearGainPolicy:
    """Affine controller a = -K s + b with fixed Gaussian exploration.

    Exploration sigma is a constant, not a parameter: theta is exactly
    (K, b), which keeps the analytic return gradient applicable.
    """

    stochastic = True

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

    def weighted_logprob_grad(self, states, actions, weights):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        weights = np.asarray(weights, dtype=float).reshape(-1, 1)
        zs = (actions - self.mean(states)) / self.sigma ** 2
        wz = weights * zs
        grad_k = -np.einsum("bm,bn->mn", wz, states)
        grad_b = wz.sum(axis=0)
        return self.layout.flatten([grad_k, grad_b])


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


def reinforce_gradient_from_batch(policy, trajectories, gamma):
    """REINFORCE on an already-collected batch of equal-length episodes.

    Weights gamma^t * (G_t - baseline_t) / batch applied to grad log pi,
    with the baseline the per-timestep mean of the return-to-go across the
    batch (a constant-reward environment therefore yields an exactly zero
    advantage).
    """
    if not getattr(policy, "stochastic", False):
        raise ValueError("sampled policy gradients need a stochastic policy")
    horizon = len(trajectories[0])
    if any(len(t) != horizon for t in trajectories):
        raise ValueError("episode batch must share one length")
    rtg = np.stack([t.return_to_go(gamma) for t in trajectories])
    if len(trajectories) > 1:
        advantage = rtg - rtg.mean(axis=0, keepdims=True)
    else:
        # the cross-episode mean of a single episode is itself, which would
        # zero the weights identically; fall back to raw return-to-go
        advantage = rtg
    discounts = gamma ** np.arange(horizon)
    weights = (discounts[None, :] * advantage / len(trajectories)).reshape(-1)
    states = np.concatenate([t.states for t in trajectories])
    actions = np.concatenate([t.actions for t in trajectories])
    return policy.weighted_logprob_grad(states, actions, weights)
