"""Small control problems used to exercise the regularized trainer.

Every environment exposes the same surface:

    reset(rng)                -> initial state (numpy vector)
    step(state, action, rng)  -> (next_state, reward, done)
    state_dim, action_dim, horizon, kind

Environments hold a step counter that reset() clears, so `done` comes back
True once `horizon` transitions have been taken (landscape environments are
single-step and finish immediately).  Rewards are negated costs throughout:
trainers maximize return.

Every environment also splits a step into its draw event and its dynamics:
draw_noise(rng) makes the step's one draw (None when the dynamics are
noiseless, without drawing) and transition(state, action, noise) ->
(next_state, reward) is pure and takes states with leading row axes,
against which the noise broadcasts.  step is the two in sequence, so it
takes row axes too; a single state gives the same numbers as before
(``np.vecdot`` sums like the 1-d ``@`` it replaces, and the landscape
reward is the scalar objective of each row).  The batched rollouts of
``rpg.policy`` step many episodes at once through transition.

The module also carries the two closed-form references used to check learned
policies on the linear-quadratic problem: the discounted Riccati fixed point
(optimal gain) and the exact finite-horizon return gradient for affine
policies, batched over parameter points.
"""

import numpy as np

from .errors import BadDimensions

MAX_LQR_STATE_DIM = 4
MAX_HORIZON = 200


def _check_horizon(horizon):
    horizon = int(horizon)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in 1..{MAX_HORIZON}, got {horizon}")
    return horizon


def _action_rows(action, state, action_dim):
    """The action shaped (*rows, action_dim) for a (*rows, state_dim) state."""
    return np.asarray(action, dtype=float).reshape(
        state.shape[:-1] + (action_dim,))


class _SplitStepEnv:
    """step as draw_noise then transition, plus the step counter."""

    def draw_noise(self, rng):
        """The dynamics are deterministic: no draw event, no noise."""
        return None

    def step(self, state, action, rng=None):
        nxt, reward = self.transition(state, action, self.draw_noise(rng))
        self._t += 1
        # a float for one state, an array of per-row rewards for a batch
        reward = float(reward) if reward.ndim == 0 else reward
        return nxt, reward, self._t >= self.horizon


class LqrEnv(_SplitStepEnv):
    """Discrete-time linear dynamics with quadratic cost.

    s' = A s + B a + noise_scale * xi,   xi ~ N(0, I)
    reward(s, a) = -(s^T Q s + a^T R a)

    Costs are positive semidefinite, so returns are <= 0 and the optimum is
    the Riccati gain (see riccati_gain).  Initial states are uniform on
    [-1, 1]^state_dim.
    """

    kind = "lqr"

    def __init__(self, a, b, q, r, horizon=50, noise_scale=0.0):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.asarray(b, dtype=float)
        if self.b.ndim == 1:
            self.b = self.b.reshape(-1, 1)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.r = np.atleast_2d(np.asarray(r, dtype=float))
        n = self.a.shape[0]
        m = self.b.shape[1]
        if self.a.shape != (n, n) or self.b.shape != (n, m):
            raise BadDimensions("A must be square and B conformable")
        if self.q.shape != (n, n) or self.r.shape != (m, m):
            raise BadDimensions("Q/R shapes must match state/action dims")
        if n > MAX_LQR_STATE_DIM:
            raise BadDimensions(
                f"lqr state dimension capped at {MAX_LQR_STATE_DIM}, got {n}")
        self.horizon = _check_horizon(horizon)
        self.noise_scale = float(noise_scale)
        self._t = 0

    @property
    def state_dim(self):
        return self.a.shape[0]

    @property
    def action_dim(self):
        return self.b.shape[1]

    def reset(self, rng):
        self._t = 0
        return rng.uniform(-1.0, 1.0, size=self.state_dim)

    def draw_noise(self, rng):
        """xi of one step (one draw event), or None for noiseless dynamics."""
        if not self.noise_scale > 0.0:
            return None
        if rng is None:
            raise ValueError("noisy dynamics need an rng")
        return rng.normal(size=self.state_dim)

    def transition(self, state, action, noise=None):
        state = np.asarray(state, dtype=float)
        action = _action_rows(action, state, self.action_dim)
        reward = -(np.vecdot(state @ self.q, state)
                   + np.vecdot(action @ self.r, action))
        nxt = state @ self.a.T + action @ self.b.T
        if noise is not None:
            nxt = nxt + self.noise_scale * noise
        return nxt, reward


class PointmassEnv(_SplitStepEnv):
    """2-D double integrator steering toward the origin.

    State is [px, py, vx, vy]; the action is an acceleration, Euler-stepped
    with dt.  reward = -(|p|^2 + 0.1 |a|^2), so resting at the origin with
    zero action scores exactly zero.
    """

    kind = "pointmass"

    def __init__(self, horizon=50, dt=0.1):
        self.horizon = _check_horizon(horizon)
        self.dt = float(dt)
        self._t = 0

    state_dim = 4
    action_dim = 2

    def reset(self, rng):
        self._t = 0
        return rng.uniform(-1.0, 1.0, size=4)

    def transition(self, state, action, noise=None):
        state = np.asarray(state, dtype=float)
        action = _action_rows(action, state, 2)
        pos = state[..., :2]
        reward = -(np.vecdot(pos, pos) + 0.1 * np.vecdot(action, action))
        # [pos + dt vel, vel + dt action]
        nxt = state + self.dt * np.concatenate([state[..., 2:], action],
                                               axis=-1)
        return nxt, reward


def _bowl(x):
    return float(x @ x)


def _bowl_grad(x):
    return 2.0 * x


def _rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def _rosenbrock_grad(x):
    gx = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2)
    gy = 200.0 * (x[1] - x[0] ** 2)
    return np.array([gx, gy])


_LANDSCAPES = {
    "bowl": (_bowl, _bowl_grad, None),
    "rosenbrock": (_rosenbrock, _rosenbrock_grad, 2),
}


class LandscapeEnv(_SplitStepEnv):
    """Single-step environment: the action is a point, the reward is -f(point).

    Useful for driving the trainer on a deterministic optimization surface.
    analytic_gradient returns the exact ascent gradient of the return,
    i.e. -grad f, so gradient estimators can be checked without sampling.
    The quadratic bowl has its optimum (return 0) at the origin.
    """

    kind = "landscape"
    horizon = 1

    def __init__(self, objective="bowl", dim=4):
        if objective not in _LANDSCAPES:
            raise ValueError(f"unknown landscape objective: {objective!r}")
        f, grad, forced_dim = _LANDSCAPES[objective]
        self.objective = objective
        self.dim = int(forced_dim if forced_dim is not None else dim)
        if self.dim < 1:
            raise ValueError("landscape dim must be positive")
        self._f = f
        self._grad = grad
        self._t = 0

    @property
    def state_dim(self):
        return self.dim

    @property
    def action_dim(self):
        return self.dim

    def objective_value(self, point):
        return self._f(np.asarray(point, dtype=float))

    def analytic_gradient(self, point):
        """Ascent gradient of the return (= -grad f); rows batch.

        The bowl's gradient is elementwise, so all rows take one product.
        Rosenbrock's goes row by row: numpy-scalar and array squares round
        differently, so a vectorised form would move the last bit.
        """
        point = np.asarray(point, dtype=float)
        if self.objective == "bowl":
            return -2.0 * point
        if point.ndim == 1:
            return -self._grad(point)
        return -np.stack([self._grad(p) for p in point])

    def reset(self, rng):
        self._t = 0
        return np.zeros(self.dim)

    def transition(self, state, action, noise=None):
        state = np.asarray(state, dtype=float)
        action = _action_rows(action, state, self.dim)
        # f row by row: the scalar objective is the reference, and the
        # vectorised Rosenbrock differs from it in the last bit
        rows = action.reshape(-1, self.dim)
        reward = -np.array([self._f(a) for a in rows]).reshape(
            state.shape[:-1])
        return np.zeros_like(state), reward


def make_env(kind, **params):
    """Build one of the toy environments by name.

    kinds: "lqr" (params a, b, q, r, horizon, noise_scale; defaults to the
    scalar system a=b=q=r=1), "pointmass" (horizon, dt), "landscape"
    (objective = "bowl" | "rosenbrock", dim).
    """
    if kind == "lqr":
        params.setdefault("a", [[1.0]])
        params.setdefault("b", [[1.0]])
        params.setdefault("q", [[1.0]])
        params.setdefault("r", [[1.0]])
        return LqrEnv(**params)
    if kind == "pointmass":
        return PointmassEnv(**params)
    if kind == "landscape":
        return LandscapeEnv(**params)
    raise ValueError(f"unknown environment kind: {kind!r}")


def riccati_gain(env, gamma, tol=1e-13, max_iters=100_000):
    """Optimal discounted gain for an LqrEnv by value iteration.

    Iterates the discounted algebraic Riccati recursion to its fixed point

        P <- Q + g A^T P A - g^2 A^T P B (R + g B^T P B)^{-1} B^T P A

    and returns (K, P) with the greedy gain K = g (R + g B^T P B)^{-1} B^T P A,
    so the optimal policy is a = -K s.  The fixed point satisfies the
    stationarity of the closed-form return gradient (see
    lqr_return_gradient), which tests pin down to ~1e-8.
    """
    a, b, q, r = env.a, env.b, env.q, env.r
    p = q.copy()
    for _ in range(max_iters):
        gain = gamma * np.linalg.solve(r + gamma * b.T @ p @ b, b.T @ p @ a)
        p_next = q + gamma * a.T @ p @ a - gamma * a.T @ p @ b @ gain
        if np.max(np.abs(p_next - p)) <= tol * (1.0 + np.max(np.abs(p_next))):
            p = p_next
            break
        p = p_next
    gain = gamma * np.linalg.solve(r + gamma * b.T @ p @ b, b.T @ p @ a)
    return gain, p


def _augmented_system(env):
    """Ã, B̃, Q̃ over the homogeneous state [s; 1].

    The constant coordinate turns the affine policy a = -K s + b into the
    linear one a = -K_aug [s; 1] with K_aug = [K, -b], which keeps every
    recursion below purely quadratic.
    """
    n, m = env.state_dim, env.action_dim
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = env.a
    a_aug[n, n] = 1.0
    b_aug = np.zeros((n + 1, m))
    b_aug[:n, :] = env.b
    q_aug = np.zeros((n + 1, n + 1))
    q_aug[:n, :n] = env.q
    return a_aug, b_aug, q_aug


def default_init_second_moment(env):
    """E[[s;1][s;1]^T] for s uniform on [-1,1]^n: diag(I/3, 1)."""
    n = env.state_dim
    m0 = np.eye(n + 1) / 3.0
    m0[n, n] = 1.0
    return m0


def _unpack_gain_points(points, env):
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    n, m = env.state_dim, env.action_dim
    if pts.shape[1] != m * n + m:
        raise BadDimensions(
            f"expected {m * n + m} affine-gain parameters, got {pts.shape[1]}")
    k = pts[:, :m * n].reshape(-1, m, n)
    bias = pts[:, m * n:].reshape(-1, m)
    k_aug = np.concatenate([k, -bias[:, :, None]], axis=2)
    return k_aug, single


def _closed_loop(k_aug, env, a_aug, b_aug, q_aug):
    """Per-row Ãc = Ã - B̃ K̃, its transpose, and the stage cost Q̃ + K̃^T R K̃."""
    a_cl = a_aug - b_aug @ k_aug
    cost_mat = q_aug + k_aug.swapaxes(1, 2) @ env.r @ k_aug
    return a_cl, a_cl.swapaxes(1, 2), cost_mat


def lqr_expected_return(points, env, gamma, init_second_moment=None,
                        horizon=None):
    """Exact expected discounted return of affine policies a = -K s + b.

    `points` stacks flattened (K, b) parameter vectors, one per row.  With
    M_t = E[[s;1][s;1]^T] propagated through the closed loop, the return is

        J = -sum_t g^t tr((Q̃ + K̃^T R K̃) M_t),
        M_{t+1} = Ãc M_t Ãc^T + diag(noise_scale^2 I, 0),  Ãc = Ã - B̃ K̃.
    """
    k_aug, single = _unpack_gain_points(points, env)
    a_aug, b_aug, q_aug = _augmented_system(env)
    if init_second_moment is None:
        init_second_moment = default_init_second_moment(env)
    if horizon is None:
        horizon = env.horizon
    n_aug = a_aug.shape[0]
    noise = np.zeros((n_aug, n_aug))
    noise[:env.state_dim, :env.state_dim] = (
        env.noise_scale ** 2 * np.eye(env.state_dim))

    a_cl, a_cl_t, cost_mat = _closed_loop(k_aug, env, a_aug, b_aug, q_aug)
    m_t = np.broadcast_to(init_second_moment, a_cl.shape).copy()
    total = np.zeros(len(k_aug))
    disc = 1.0
    for _ in range(horizon):
        total += disc * np.einsum("bij,bji->b", cost_mat, m_t)
        m_t = a_cl @ m_t @ a_cl_t + noise
        disc *= gamma
    returns = -total
    return float(returns[0]) if single else returns


def lqr_return_gradient(points, env, gamma, init_second_moment=None,
                        horizon=None):
    """Exact gradient of lqr_expected_return w.r.t. the flat (K, b) params.

    Backward pass builds the discounted cost-to-go quadratics

        P_T = 0,   P_t = Q̃ + K̃^T R K̃ + g Ãc^T P_{t+1} Ãc,

    the forward pass propagates the state second moments M_t, and the
    cost gradient w.r.t. the augmented gain is the classic contraction

        dJ_cost/dK̃ = 2 sum_t g^t (R K̃ - g B̃^T P_{t+1} Ãc) M_t.

    Returned as the ascent gradient of the RETURN (cost gradient negated),
    with the bias column mapped back through K̃ = [K, -b].  Rows of `points`
    are handled in a single batched recursion.
    """
    k_aug, single = _unpack_gain_points(points, env)
    a_aug, b_aug, q_aug = _augmented_system(env)
    if init_second_moment is None:
        init_second_moment = default_init_second_moment(env)
    if horizon is None:
        horizon = env.horizon
    n_aug = a_aug.shape[0]
    noise = np.zeros((n_aug, n_aug))
    noise[:env.state_dim, :env.state_dim] = (
        env.noise_scale ** 2 * np.eye(env.state_dim))

    batch = len(k_aug)
    a_cl, a_cl_t, cost_mat = _closed_loop(k_aug, env, a_aug, b_aug, q_aug)

    p_stack = [np.zeros((batch, n_aug, n_aug))]
    for _ in range(horizon):
        p_stack.append(cost_mat + gamma * (a_cl_t @ p_stack[-1] @ a_cl))
    p_stack.reverse()  # p_stack[t] is now the cost-to-go at step t

    rk = env.r @ k_aug
    m_t = np.broadcast_to(init_second_moment, a_cl.shape).copy()
    grad_aug = np.zeros_like(k_aug)
    disc = 1.0
    for t in range(horizon):
        inner = rk - gamma * (b_aug.T @ p_stack[t + 1] @ a_cl)
        grad_aug += disc * 2.0 * (inner @ m_t)
        m_t = a_cl @ m_t @ a_cl_t + noise
        disc *= gamma
    # ascent on return = descent on cost; undo the K̃ = [K, -b] packing
    n = env.state_dim
    grad_k = -grad_aug[:, :, :n].reshape(batch, -1)
    grad_b = grad_aug[:, :, n]
    out = np.concatenate([grad_k, grad_b], axis=1)
    return out[0] if single else out
