"""Helpers shared by several test modules."""

import numpy as np

from rpg.envs import lqr_return_gradient
from rpg.errors import BadDimensions
from rpg.policy import reinforce_gradient_from_batch, rollout
from rpg.rng import RngStream


def lqr_analytic_gradient(k, env, horizon, gamma=0.99,
                          init_second_moment=None):
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
                               init_second_moment=init_second_moment,
                               horizon=horizon)
    return full[:m * n].reshape(k.shape)


def per_row_reinforce_field(env, policy, points, episodes, gamma, seed):
    """The REINFORCE field row by row, each row replaying RngStream(seed).

    The reference for ``rpg.policy.reinforce_field``: every row sets the
    policy to its point, plays `episodes` rollouts from a fresh stream and
    applies reinforce_gradient_from_batch, so all rows meet the same draws.
    """
    rows = []
    for point in np.atleast_2d(points):
        policy.set_theta(point)
        rng = RngStream(seed)
        batch = [rollout(env, policy, rng) for _ in range(episodes)]
        rows.append(reinforce_gradient_from_batch(policy, batch, gamma))
    return np.stack(rows)
