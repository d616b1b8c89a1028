"""Small control problems used to exercise the regularized trainer.

Every environment exposes the same surface:

    reset(rng)                      -> initial state (numpy vector)
    draw_noise(rng)                 -> one episode's dynamics noise, or None
    advance(state, action, noise)   -> next state
    rewards(states, actions)        -> rewards
    state_dim, action_dim, horizon, kind

There is no step method, no step counter and no `done` flag: every
episode runs exactly `horizon` steps (landscape environments are
single-step).  Rewards are negated costs throughout: trainers maximize
return.

reset and draw_noise make the draws, one event each per episode.
draw_noise draws all `horizon` steps' noise, (horizon, state_dim), in its
one event, and answers None without drawing when the dynamics are
noiseless.
advance and rewards are pure: advance is the recurrence, and rewards
computes rewards that no later state reads.  They take float arrays with
leading row axes, (*rows, state_dim) and (*rows, action_dim), against
which a step's noise (row t of draw_noise's) broadcasts, and each row's
numbers do not depend on the rows around it.  The rollouts of
``rpg.policy`` advance many episodes at once, step by step, and then take
all their steps' rewards in one rewards call.

The module also carries the two closed-form references used to check learned
policies on the linear-quadratic problem: the discounted Riccati fixed point
(optimal gain) and the exact finite-horizon return gradient for affine
policies, batched over parameter points.
"""

import inspect

import numpy as np

from .errors import BadDimensions

MAX_LQR_STATE_DIM = 4
MAX_HORIZON = 200
# distinct parameter rows whose LQR recursions run together.  It bounds the
# (T, N, m, N, B) product of the gradient sum, about 20 KB a row at 4
# states, 2 actions and horizon 50
LQR_ROW_BLOCK = 512


def _check_horizon(horizon):
    horizon = int(horizon)
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in 1..{MAX_HORIZON}, got {horizon}")
    return horizon


class _Env:
    """Deterministic dynamics unless a subclass says otherwise."""

    def draw_noise(self, rng):
        """The dynamics are deterministic: no draw event, no noise."""
        return None


class LqrEnv(_Env):
    """Discrete-time linear dynamics with quadratic cost.

    s' = A s + B a + noise_scale * xi,   xi ~ N(0, I)
    reward(s, a) = -(s^T Q s + a^T R a)

    Q must be symmetric positive semidefinite and R symmetric positive
    definite, so returns are <= 0 and the optimum is the Riccati gain (see
    riccati_gain).  Initial states are uniform on [-1, 1]^state_dim.
    """

    kind = "lqr"

    def __init__(self, a=1.0, b=1.0, q=1.0, r=1.0, horizon=50,
                 noise_scale=0.0):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.asarray(b, dtype=float)
        if self.b.ndim < 2:
            self.b = self.b.reshape(-1, 1)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.r = np.atleast_2d(np.asarray(r, dtype=float))
        n = self.a.shape[0]
        m = self.b.shape[1]
        if self.a.shape != (n, n) or self.b.shape != (n, m):
            raise BadDimensions(
                f"a must be square and b conformable, got a {self.a.shape} "
                f"and b {self.b.shape}")
        if self.q.shape != (n, n) or self.r.shape != (m, m):
            raise BadDimensions(
                f"q and r must be {n}x{n} and {m}x{m} to match a and b, "
                f"got {self.q.shape} and {self.r.shape}")
        if n > MAX_LQR_STATE_DIM:
            raise BadDimensions(
                f"a is {n}x{n}, but the lqr state dimension is capped at "
                f"{MAX_LQR_STATE_DIM}")
        for key, m in zip("abqr", (self.a, self.b, self.q, self.r)):
            if not np.isfinite(m).all():
                raise ValueError(f"{key} must be finite, got {m.tolist()}")
        # costs >= 0 need q >= 0, and the Riccati gain needs r > 0; the
        # slack allows for eigvalsh's rounding of a singular q
        for key, m in (("q", self.q), ("r", self.r)):
            eigs = np.linalg.eigvalsh(m)
            slack = len(m) * np.finfo(float).eps * np.abs(eigs).max()
            least = eigs[0] + slack if key == "q" else eigs[0] - slack
            if not (np.array_equal(m, m.T) and least >= 0.0
                    and (key == "q" or least > 0.0)):
                kind = "semidefinite" if key == "q" else "definite"
                raise ValueError(f"{key} must be symmetric positive {kind}, "
                                 f"got {m.tolist()}")
        self.horizon = _check_horizon(horizon)
        self.noise_scale = float(noise_scale)
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError(f"noise_scale must be finite and >= 0, got "
                             f"{noise_scale}")

    @property
    def state_dim(self):
        return self.a.shape[0]

    @property
    def action_dim(self):
        return self.b.shape[1]

    def reset(self, rng):
        return rng.uniform(-1.0, 1.0, size=self.state_dim)

    def draw_noise(self, rng):
        """xi of one episode, (horizon, state_dim) in one draw event, or None
        for noiseless dynamics; step t reads row t."""
        if not self.noise_scale > 0.0:
            return None
        if rng is None:
            raise ValueError("noisy dynamics need an rng")
        return rng.normal(size=(self.horizon, self.state_dim))

    def advance(self, state, action, noise=None):
        nxt = state @ self.a.T + action @ self.b.T
        if noise is not None:
            nxt = nxt + self.noise_scale * noise
        return nxt

    def rewards(self, states, actions):
        return -(np.vecdot(states @ self.q, states)
                 + np.vecdot(actions @ self.r, actions))


class PointmassEnv(_Env):
    """2-D double integrator steering toward the origin.

    State is [px, py, vx, vy]; the action is an acceleration, Euler-stepped
    with dt.  reward = -(|p|^2 + 0.1 |a|^2), so resting at the origin with
    zero action scores exactly zero.
    """

    kind = "pointmass"

    def __init__(self, horizon=50, dt=0.1):
        self.horizon = _check_horizon(horizon)
        self.dt = float(dt)
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")

    state_dim = 4
    action_dim = 2

    def reset(self, rng):
        return rng.uniform(-1.0, 1.0, size=4)

    def advance(self, state, action, noise=None):
        # [pos + dt vel, vel + dt action]
        return state + self.dt * np.concatenate([state[..., 2:], action],
                                                axis=-1)

    def rewards(self, states, actions):
        pos = states[..., :2]
        return -(np.vecdot(pos, pos) + 0.1 * np.vecdot(actions, actions))


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


# objective: (f, grad f, its one dimension or None for any)
_LANDSCAPES = {
    "bowl": (_bowl, _bowl_grad, None),
    "rosenbrock": (_rosenbrock, _rosenbrock_grad, 2),
}


class LandscapeEnv(_Env):
    """Single-step environment: the action is a point, the reward is -f(point).

    Useful for driving the trainer on a deterministic optimization surface.
    analytic_gradient returns the exact ascent gradient of the return,
    i.e. -grad f, so gradient estimators can be checked without sampling.
    The quadratic bowl, of any dim (4 by default), has its optimum (return
    0) at the origin.  Rosenbrock is 2-d: another dim raises ValueError.
    """

    kind = "landscape"
    horizon = 1

    def __init__(self, objective="bowl", dim=None):
        if objective not in _LANDSCAPES:
            raise ValueError(f"objective must be one of "
                             f"{', '.join(_LANDSCAPES)}, got {objective!r}")
        f, grad, fixed = _LANDSCAPES[objective]
        self.objective = objective
        self.dim = int(dim if dim is not None else fixed or 4)
        if self.dim < 1 or fixed not in (None, self.dim):
            raise ValueError(f"dim must be {fixed or 'positive'} for "
                             f"objective {objective}, got {self.dim}")
        self._f = f
        self._grad = grad

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
        return np.zeros(self.dim)

    def advance(self, state, action, noise=None):
        return np.zeros_like(state)

    def rewards(self, states, actions):
        # f row by row: the scalar objective is the reference, and the
        # vectorised Rosenbrock differs from it in the last bit
        rows = actions.reshape(-1, self.dim)
        return -np.array([self._f(a) for a in rows]).reshape(
            states.shape[:-1])


_KINDS = {"lqr": LqrEnv, "pointmass": PointmassEnv,
          "landscape": LandscapeEnv}


def make_env(kind, **params):
    """Build one of the toy environments by name.

    kinds: "lqr" (params a, b, q, r, horizon, noise_scale; defaults to the
    scalar system a=b=q=r=1), "pointmass" (horizon, dt), "landscape"
    (objective = "bowl" | "rosenbrock", dim).  An unknown kind or a
    parameter the kind does not take raises ValueError, whose message
    starts with the offending name.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {', '.join(_KINDS)}, "
                         f"got {kind!r}")
    names = inspect.signature(_KINDS[kind]).parameters
    for key in params:
        if key not in names:
            raise ValueError(f"{key} is not a parameter of kind {kind} "
                             f"(its parameters: {', '.join(names)})")
    return _KINDS[kind](**params)


def riccati_gain(env, gamma):
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
    for _ in range(100_000):
        gain = gamma * np.linalg.solve(r + gamma * b.T @ p @ b, b.T @ p @ a)
        p_next = q + gamma * a.T @ p @ a - gamma * a.T @ p @ b @ gain
        if np.max(np.abs(p_next - p)) <= 1e-13 * (1 + np.max(np.abs(p_next))):
            p = p_next
            break
        p = p_next
    gain = gamma * np.linalg.solve(r + gamma * b.T @ p @ b, b.T @ p @ a)
    return gain, p


def default_init_second_moment(env):
    """E[[s;1][s;1]^T] for s uniform on [-1,1]^n: diag(I/3, 1)."""
    return np.diag([1.0 / 3.0] * env.state_dim + [1.0])


def _gain_rows(points, env):
    """`points` as (B, n) rows of flat (K, b) parameters, and whether it
    was one point; a row of the wrong width raises BadDimensions."""
    points = np.asarray(points, dtype=float)
    pts = np.atleast_2d(points)
    n, m = env.state_dim, env.action_dim
    if pts.shape[1] != m * n + m:
        raise BadDimensions(
            f"expected {m * n + m} affine-gain parameters, got {pts.shape[1]}")
    return pts, points.ndim == 1


def _closed_loop(pts, env):
    """R K̃ (m, N, B), Ãc = Ã - B̃ K̃ (N, N, B), vec(Q̃ + K̃^T R K̃) (N², B).

    Over the homogeneous state [s; 1] (N = n + 1) the affine policy
    a = -K s + b is linear, a = -K̃ [s; 1] with K̃ = [K, -b], which keeps
    every recursion quadratic.  The B rows of `pts` (``_gain_rows``) sit
    on the last axis.
    """
    n, m = env.state_dim, env.action_dim
    a_aug, b_aug = np.eye(n + 1), np.vstack([env.b, np.zeros(m)])
    a_aug[:n, :n] = env.a
    k_aug = np.concatenate([pts[:, :m * n].T.reshape(m, n, -1),
                            -pts[:, None, m * n:].T], axis=1)
    a_cl = a_aug[..., None] - (b_aug.T[:, :, None, None]
                               * k_aug[:, None]).sum(0)
    rk = (env.r.T[:, :, None, None] * k_aug[:, None]).sum(0)
    cost = (k_aug[:, :, None] * rk[:, None]).sum(0)
    cost[:n, :n] += env.q[..., None]
    return rk, a_cl, cost.reshape((n + 1) ** 2, len(pts))


def _vec_kron(x):
    """x ⊗ x of a batch-last (N, N, B) x, [(k,l),(i,j)] = x[k,i] x[l,j]."""
    nn = x.shape[0] ** 2
    return (x[:, None, :, None] * x[None, :, None, :]).reshape(nn, nn, -1)


def _discounted_moments(a_cl, env, gamma, init_second_moment):
    """vec(g^t M_t), t = 0 .. env.horizon-1, stacked as one (T, N², B) array.

    M_{t+1} = Ãc M_t Ãc^T + diag(noise_scale^2 I, 0), and with row-major
    vec, vec(Ãc M Ãc^T) = (Ãc ⊗ Ãc) vec(M): a step is one product and one
    sum over axis 0, written into the next slot.
    """
    if init_second_moment is None:
        init_second_moment = default_init_second_moment(env)
    nn, batch = a_cl.shape[0] ** 2, a_cl.shape[2]
    noise = np.diag([env.noise_scale ** 2] * env.state_dim + [0.0])
    kron = gamma * _vec_kron(a_cl.transpose(1, 0, 2))
    tmp, disc = np.empty((nn, nn, batch)), 1.0
    moments = np.empty((env.horizon, nn, batch))
    moments[0] = np.reshape(init_second_moment, (nn, 1))
    for t in range(1, env.horizon):
        np.multiply(kron, moments[t - 1, :, None], out=tmp)
        m_t = tmp.sum(0, out=moments[t])
        disc *= gamma
        if env.noise_scale:
            m_t += disc * noise.reshape(nn, 1)
    return moments


def lqr_expected_return(points, env, gamma, init_second_moment=None):
    """Exact expected discounted return of affine policies a = -K s + b.

    `points` stacks flattened (K, b) parameter vectors, one per row.  With
    the moments M_t = E[[s;1][s;1]^T] of _discounted_moments, the return is
    J = -sum_t g^t vec(Q̃ + K̃^T R K̃) . vec(M_t).
    """
    pts, single = _gain_rows(points, env)
    _, a_cl, cost = _closed_loop(pts, env)
    # one reduce over t, from 0.0 and in order, as a running sum adds
    s_m = np.add.reduce(_discounted_moments(a_cl, env, gamma,
                                            init_second_moment),
                        axis=0, initial=0.0)
    # term by term: a sum over the (N², 1) of one row would pair its terms
    returns = -sum(c * m for c, m in zip(cost, s_m))
    return float(returns[0]) if single else returns


def lqr_return_gradient(points, env, gamma, init_second_moment=None):
    """Exact gradient of lqr_expected_return w.r.t. the flat (K, b) params.

    With the cost-to-go P_T = 0, P_t = Q̃ + K̃^T R K̃ + g Ãc^T P_{t+1} Ãc and
    the moments M_t of _discounted_moments, the cost gradient is

        dJ_cost/dK̃ = 2 sum_t g^t H_t M_t,   H_t = R K̃ - g B̃^T P_{t+1} Ãc.

    Rows sit on the last axis: a step is a few whole-batch numpy calls, not
    one BLAS call per row.  In row-major vec form the backward step is
    vec(P_t) = vec(C) + g (Ãc ⊗ Ãc)^T vec(P_{t+1}), C = Q̃ + K̃^T R K̃, and
    H_t is R K̃ minus a fixed linear map of vec(P_{t+1}); that loop keeps
    only the recurrence and stores the H_t stack (T, Nm, B).  The sum over
    t then takes the stacked moments: one (T, N, m, N, B) product, summed
    over the moment's row index and then over t from 0.0, the additions of
    a running sum over t, which keeps the cancellation inside H_t.
    Every sum runs over axis 0, or over a later axis ahead of the row axis,
    so a row sees the same additions in any batch and one row alone equals
    that row in a batch bit for bit (a sum along the fastest axis, as over
    one row's (N², 1), pairs its terms).
    Hence rows that repeat bit for bit are computed once and gathered back:
    the result is the one the whole batch would give.  The byte keys merge
    only identical inputs (-0.0 and 0.0 stay apart; a NaN row merges only
    with its own copies).  Probe rows repeat often: theta +- eps*v with
    Rademacher v takes at most 2^n values in n dimensions, so a scalar-LQR
    J/T update's 673 rows hold 5 distinct points.  A single 1-D point skips
    the search.  For the same reason the distinct rows run in blocks of
    LQR_ROW_BLOCK, which bounds the product's memory, and an empty batch
    gives an empty result.

    Returned as the ascent gradient of the RETURN (cost gradient negated),
    with the bias column mapped back through K̃ = [K, -b].
    """
    pts, single = _gain_rows(points, env)
    if single:
        return _gradient_rows(pts, env, gamma, init_second_moment)[0]
    pts = np.ascontiguousarray(pts)
    keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1])))
    _, first, inverse = np.unique(keys[:, 0], return_index=True,
                                  return_inverse=True)
    pts = pts[first]
    out = np.empty(pts.shape)
    for at in range(0, len(pts), LQR_ROW_BLOCK):
        out[at:at + LQR_ROW_BLOCK] = _gradient_rows(
            pts[at:at + LQR_ROW_BLOCK], env, gamma, init_second_moment)
    return out[inverse]


def _gradient_rows(pts, env, gamma, init_second_moment):
    """lqr_return_gradient at the (B, n) rows `pts`, all computed."""
    rk, a_cl, cost = _closed_loop(pts, env)
    n, m, horizon = env.state_dim, env.action_dim, env.horizon
    n_aug, (nn, batch) = n + 1, cost.shape
    # A backward step is one product and one sum over the index (i,k) of
    # vec(P_{t+1}).  The columns of `back`, g (Ãc ⊗ Ãc) and then
    # -g B̃[i,a] Ãc[k,j], give vec(P_t) and H_t^T[(j,a)] but for the last
    # row of tmp, [vec(C) | R K̃^T], which the sum adds last.
    back = np.concatenate([gamma * _vec_kron(a_cl), (
        -gamma * np.vstack([env.b, np.zeros(m)])[:, None, None, :, None]
        * a_cl[None, :, :, None]).reshape(nn, n_aug * m, batch)], axis=1)
    tmp = np.empty((nn + 1,) + back.shape[1:])
    tmp[nn] = np.concatenate([cost, rk.transpose(1, 0, 2).reshape(-1, batch)])
    p_h = np.zeros(back.shape[1:])  # [vec(P_t) | H_t^T] after step t
    h = np.empty((horizon, n_aug * m, batch))
    for t in range(horizon - 1, -1, -1):
        np.multiply(back, p_h[:nn, None], out=tmp[:nn])
        h[t] = tmp.sum(0, out=p_h)[nn:]
    moments = _discounted_moments(a_cl, env, gamma, init_second_moment)
    grad_aug = np.add.reduce(
        (h.reshape(horizon, n_aug, m, 1, batch)
         * moments.reshape(horizon, n_aug, 1, n_aug, batch)).sum(1),
        axis=0, initial=0.0)
    # ascent on return = descent on cost; undo the K̃ = [K, -b] packing
    return 2.0 * np.concatenate([-grad_aug[:, :n].reshape(-1, batch),
                                 grad_aug[:, n]]).T
