"""Helpers shared by several test modules."""

import numpy as np

from rpg.envs import lqr_return_gradient
from rpg.errors import BadDimensions


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
