"""Environment dynamics, the Riccati oracle, and the exact LQR gradient."""

import numpy as np
import pytest

from helpers import lqr_analytic_gradient
from rpg.envs import (LandscapeEnv, default_init_second_moment,
                      lqr_expected_return, lqr_return_gradient, make_env,
                      riccati_gain)
from rpg.errors import BadDimensions
from rpg.rng import RngStream

GAMMA = 0.99


def two_dim_env(horizon=40, noise=0.0):
    return make_env(
        "lqr",
        a=[[0.9, 0.2], [0.0, 0.8]],
        b=[[1.0, 0.0], [0.3, 1.0]],
        q=np.diag([1.0, 0.5]),
        r=np.diag([1.0, 0.7]),
        horizon=horizon,
        noise_scale=noise,
    )


def rollout_return(env, k, bias, s0, gamma=GAMMA):
    k = np.atleast_2d(k)
    s = np.asarray(s0, dtype=float).copy()
    total, disc = 0.0, 1.0
    for _ in range(env.horizon):
        a = -k @ s + bias
        total += disc * -(s @ env.q @ s + a @ env.r @ a)
        s = env.a @ s + env.b @ a
        disc *= gamma
    return total


def point_moment(s0):
    aug = np.concatenate([np.asarray(s0, dtype=float), [1.0]])
    return np.outer(aug, aug)


def test_default_lqr_is_scalar_system():
    env = make_env("lqr")
    assert env.state_dim == 1 and env.action_dim == 1
    assert env.horizon == 50 and env.noise_scale == 0.0
    assert env.a[0, 0] == 1.0 and env.b[0, 0] == 1.0


def test_lqr_step_matches_hand_computation():
    env = two_dim_env()
    s = np.array([0.5, -1.0])
    a = np.array([0.2, 0.1])
    nxt, reward, done = env.step(s, a)
    assert np.allclose(nxt, env.a @ s + env.b @ a, atol=1e-15)
    assert reward == pytest.approx(-(s @ env.q @ s + a @ env.r @ a), abs=1e-15)
    assert not done


def test_lqr_done_after_horizon():
    env = make_env("lqr", horizon=3)
    s = env.reset(RngStream(0))
    flags = []
    for _ in range(3):
        s, _, done = env.step(s, np.zeros(1))
        flags.append(done)
    assert flags == [False, False, True]


def test_lqr_rejects_large_state_dim():
    with pytest.raises(BadDimensions):
        make_env("lqr", a=np.eye(5), b=np.eye(5), q=np.eye(5), r=np.eye(5))


def test_make_env_rejects_unknown_kind_and_horizon():
    with pytest.raises(ValueError):
        make_env("cartpole")
    with pytest.raises(ValueError):
        make_env("lqr", horizon=0)
    with pytest.raises(ValueError):
        make_env("pointmass", horizon=500)


def test_noisy_lqr_needs_rng_and_is_seeded():
    env = make_env("lqr", noise_scale=0.1)
    with pytest.raises(ValueError):
        env.step(np.zeros(1), np.zeros(1))
    a = env.step(np.zeros(1), np.zeros(1), RngStream(9))[0]
    b = env.step(np.zeros(1), np.zeros(1), RngStream(9))[0]
    assert np.array_equal(a, b)


def test_single_state_step_keeps_its_formulas_bitwise():
    rng = RngStream(30)
    for env in (two_dim_env(noise=0.3), make_env("lqr", noise_scale=0.5),
                make_env("pointmass")):
        for seed in range(20):
            s = rng.normal(size=env.state_dim)
            a = rng.normal(size=env.action_dim)
            env.reset(RngStream(0))
            nxt, reward, _ = env.step(s, a, RngStream(seed))
            if env.kind == "lqr":
                want_reward = -(s @ env.q @ s + a @ env.r @ a)
                want = (env.a @ s + env.b @ a
                        + env.noise_scale * RngStream(seed).normal(
                            size=env.state_dim))
            else:
                pos, vel = s[:2], s[2:]
                want_reward = -(pos @ pos + 0.1 * (a @ a))
                want = np.concatenate([pos + env.dt * vel,
                                       vel + env.dt * a])
            assert reward == float(want_reward)
            assert np.array_equal(nxt, want)


def test_step_takes_leading_row_axes():
    rng = RngStream(31)
    for env in (two_dim_env(noise=0.3), make_env("pointmass")):
        states = rng.normal(size=(3, 5, env.state_dim))
        actions = rng.normal(size=(3, 5, env.action_dim))
        env.reset(RngStream(0))
        nxt, reward, done = env.step(states, actions, RngStream(4))
        assert nxt.shape == states.shape and reward.shape == (3, 5)
        assert not done
        for i, j in np.ndindex(3, 5):
            env.reset(RngStream(0))
            one, one_reward, _ = env.step(states[i, j], actions[i, j],
                                          RngStream(4))
            assert np.allclose(nxt[i, j], one, rtol=1e-15, atol=1e-15)
            assert reward[i, j] == pytest.approx(one_reward, rel=1e-15)


def test_noise_is_one_event_broadcast_over_rows():
    env = two_dim_env(noise=0.3)
    assert make_env("pointmass").draw_noise(RngStream(0)) is None
    assert make_env("lqr").draw_noise(RngStream(0)) is None
    stream = RngStream(5)
    xi = env.draw_noise(stream)
    assert xi.shape == (2,) and stream.counter == 1
    states = np.zeros((4, 2))
    nxt, _ = env.transition(states, np.zeros((4, 2)), xi)
    assert np.array_equal(nxt, np.broadcast_to(0.3 * xi, (4, 2)))


def test_pointmass_rest_at_origin_scores_zero():
    env = make_env("pointmass")
    s = np.zeros(4)
    total = 0.0
    for _ in range(env.horizon):
        s, r, done = env.step(s, np.zeros(2))
        total += r
    assert done and total == 0.0 and np.all(s == 0.0)


def test_pointmass_dynamics_hand_step():
    env = make_env("pointmass", dt=0.1)
    s = np.array([1.0, -2.0, 0.5, 0.25])
    nxt, reward, _ = env.step(s, np.array([2.0, 0.0]))
    assert np.allclose(nxt, [1.05, -1.975, 0.7, 0.25], atol=1e-15)
    assert reward == pytest.approx(-(1.0 + 4.0 + 0.1 * 4.0), abs=1e-12)


def test_bowl_optimum_is_origin():
    env = make_env("landscape", objective="bowl", dim=3)
    _, reward, done = env.step(np.zeros(3), np.zeros(3))
    assert done and reward == 0.0
    assert env.objective_value(np.zeros(3)) == 0.0
    assert env.step(np.zeros(3), np.array([0.1, 0.0, 0.0]))[1] < 0.0


def test_landscape_gradients_match_fd():
    h = 1e-6
    for objective, point in [("bowl", np.array([0.3, -0.7, 1.1, 0.2])),
                             ("rosenbrock", np.array([-0.4, 1.3]))]:
        env = make_env("landscape", objective=objective, dim=4)
        grad = env.analytic_gradient(point)
        for i in range(env.dim):
            up, dn = point.copy(), point.copy()
            up[i] += h
            dn[i] -= h
            fd = -(env.objective_value(up) - env.objective_value(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-4)


def test_rosenbrock_forces_two_dims_and_has_known_minimum():
    env = make_env("landscape", objective="rosenbrock", dim=7)
    assert env.dim == 2
    assert env.objective_value([1.0, 1.0]) == 0.0
    assert np.allclose(env.analytic_gradient([1.0, 1.0]), 0.0, atol=1e-14)


def test_landscape_is_single_step():
    env = LandscapeEnv("bowl", dim=2)
    env.reset(RngStream(0))
    _, _, done = env.step(np.zeros(2), np.zeros(2))
    assert done


def test_riccati_scalar_closed_form():
    # for a = b = q = r = 1 the fixed point solves .99 p^2 - .98 p - 1 = 0
    env = make_env("lqr")
    gain, p = riccati_gain(env, GAMMA)
    p_exact = (0.98 + np.sqrt(0.98 ** 2 + 4 * 0.99)) / (2 * 0.99)
    assert p[0, 0] == pytest.approx(p_exact, abs=1e-12)
    assert gain[0, 0] == pytest.approx(
        GAMMA * p_exact / (1 + GAMMA * p_exact), abs=1e-12)


def test_riccati_fixed_point_residual():
    for env in [make_env("lqr"), two_dim_env()]:
        gain, p = riccati_gain(env, GAMMA)
        a, b, q, r = env.a, env.b, env.q, env.r
        rhs = (q + GAMMA * a.T @ p @ a
               - GAMMA ** 2 * a.T @ p @ b @ np.linalg.solve(
                   r + GAMMA * b.T @ p @ b, b.T @ p @ a))
        assert np.max(np.abs(p - rhs)) <= 1e-10


def test_gradient_vanishes_at_riccati_optimum():
    for env in [make_env("lqr"), two_dim_env(horizon=50)]:
        gain, _ = riccati_gain(env, GAMMA)
        grad = lqr_analytic_gradient(gain, env, env.horizon, GAMMA)
        assert np.max(np.abs(grad)) <= 1e-8


def test_expected_return_with_point_moment_equals_rollout():
    env = two_dim_env()
    k = np.array([[0.3, 0.1], [0.0, 0.2]])
    bias = np.array([0.05, -0.1])
    s0 = np.array([0.4, -0.7])
    theta = np.concatenate([k.ravel(), bias])
    expected = lqr_expected_return(theta, env, GAMMA,
                                   init_second_moment=point_moment(s0))
    assert expected == pytest.approx(rollout_return(env, k, bias, s0),
                                     abs=1e-10)


def test_gradient_matches_fd_of_expected_return():
    rng = RngStream(12)
    for env in [make_env("lqr"), two_dim_env()]:
        n, m = env.state_dim, env.action_dim
        theta = rng.normal(size=m * n + m, scale=0.2)
        grad = lqr_return_gradient(theta, env, GAMMA)
        h = 1e-6
        for i in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd = (lqr_expected_return(up, env, GAMMA)
                  - lqr_expected_return(dn, env, GAMMA)) / (2 * h)
            scale = 1.0 + abs(fd)
            assert abs(grad[i] - fd) / scale <= 1e-6


def test_gradient_matches_rollout_fd_from_fixed_start():
    # K = 0 on a system that is already stable without feedback
    env = make_env("lqr", a=[[0.9]], b=[[1.0]])
    s0 = np.array([0.8])
    grad = lqr_analytic_gradient(np.zeros((1, 1)), env, env.horizon, GAMMA,
                                 init_second_moment=point_moment(s0))
    h = 1e-5
    fd = (rollout_return(env, [[h]], np.zeros(1), s0)
          - rollout_return(env, [[-h]], np.zeros(1), s0)) / (2 * h)
    assert abs(grad[0, 0] - fd) <= 1e-6

    env2 = two_dim_env()
    s0 = np.array([0.5, -0.3])
    k = np.array([[0.2, 0.0], [0.1, 0.3]])
    grad2 = lqr_analytic_gradient(k, env2, env2.horizon, GAMMA,
                                  init_second_moment=point_moment(s0))
    for i in range(2):
        for j in range(2):
            up, dn = k.copy(), k.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd = (rollout_return(env2, up, np.zeros(2), s0)
                  - rollout_return(env2, dn, np.zeros(2), s0)) / (2 * h)
            assert abs(grad2[i, j] - fd) <= 1e-6


def test_gradient_symmetric_under_state_sign_flip():
    env = two_dim_env()
    k = np.array([[0.25, -0.1], [0.05, 0.2]])
    s0 = np.array([0.6, -0.4])
    g_plus = lqr_analytic_gradient(k, env, env.horizon, GAMMA,
                                   init_second_moment=point_moment(s0))
    g_minus = lqr_analytic_gradient(k, env, env.horizon, GAMMA,
                                    init_second_moment=point_moment(-s0))
    assert np.max(np.abs(g_plus - g_minus)) <= 1e-12


def test_default_init_moment_is_uniform_cube_moment():
    env = two_dim_env()
    m0 = default_init_second_moment(env)
    assert np.allclose(m0, np.diag([1 / 3, 1 / 3, 1.0]), atol=1e-15)


def test_analytic_gradient_shapes_and_validation():
    env = two_dim_env()
    k = np.zeros((2, 2))
    as_matrix = lqr_analytic_gradient(k, env, env.horizon, GAMMA)
    as_flat = lqr_analytic_gradient(k.ravel(), env, env.horizon, GAMMA)
    assert as_matrix.shape == (2, 2) and as_flat.shape == (4,)
    assert np.array_equal(as_matrix.ravel(), as_flat)
    with pytest.raises(BadDimensions):
        lqr_analytic_gradient(np.zeros(3), env, env.horizon, GAMMA)


def test_batched_recursions_match_single_points():
    env = two_dim_env()
    rng = RngStream(77)
    pts = rng.normal(size=(5, 6), scale=0.3)
    rets = lqr_expected_return(pts, env, GAMMA)
    grads = lqr_return_gradient(pts, env, GAMMA)
    for i in range(5):
        assert rets[i] == pytest.approx(
            lqr_expected_return(pts[i], env, GAMMA), abs=1e-12)
        single = lqr_return_gradient(pts[i], env, GAMMA)
        assert np.max(np.abs(grads[i] - single)) <= 1e-12


def einsum_return_gradient(points, env, gamma):
    """Reference: the LQR return gradient as 3-operand einsum contractions."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = env.state_dim, env.action_dim
    k = pts[:, :m * n].reshape(-1, m, n)
    k_aug = np.concatenate([k, -pts[:, m * n:].reshape(-1, m)[:, :, None]],
                           axis=2)
    a_aug = np.zeros((n + 1, n + 1))
    a_aug[:n, :n] = env.a
    a_aug[n, n] = 1.0
    b_aug = np.zeros((n + 1, m))
    b_aug[:n, :] = env.b
    q_aug = np.zeros((n + 1, n + 1))
    q_aug[:n, :n] = env.q
    noise = np.zeros((n + 1, n + 1))
    noise[:n, :n] = env.noise_scale ** 2 * np.eye(n)

    batch = len(k_aug)
    a_cl = a_aug[None] - np.einsum("ij,bjk->bik", b_aug, k_aug)
    cost_mat = q_aug[None] + np.einsum(
        "bji,jk,bkl->bil", k_aug, env.r, k_aug)
    p_stack = [np.zeros((batch, n + 1, n + 1))]
    for _ in range(env.horizon):
        p_stack.append(cost_mat + gamma * np.einsum(
            "bji,bjk,bkl->bil", a_cl, p_stack[-1], a_cl))
    p_stack.reverse()
    rk = np.einsum("ij,bjk->bik", env.r, k_aug)
    m_t = np.broadcast_to(default_init_second_moment(env), a_cl.shape).copy()
    grad_aug = np.zeros_like(k_aug)
    disc = 1.0
    for t in range(env.horizon):
        inner = rk - gamma * np.einsum(
            "ji,bjk,bkl->bil", b_aug, p_stack[t + 1], a_cl)
        grad_aug += disc * 2.0 * np.einsum("bij,bjk->bik", inner, m_t)
        m_t = np.einsum("bij,bjk,blk->bil", a_cl, m_t, a_cl) + noise
        disc *= gamma
    return np.concatenate([-grad_aug[:, :, :n].reshape(batch, -1),
                           grad_aug[:, :, n]], axis=1)


@pytest.mark.parametrize("rows", [1, 33, 673])
@pytest.mark.parametrize("kind", ["scalar", "two-dim-noisy"])
def test_matmul_gradient_matches_einsum_reference(rows, kind):
    rng = RngStream(rows)
    if kind == "scalar":
        # gains around the stabilizing band 0 < k < 2 of a = b = 1
        env = make_env("lqr")
        pts = np.column_stack([rng.uniform(0.2, 1.6, size=rows),
                               rng.uniform(-0.5, 0.5, size=rows)])
    else:
        env = two_dim_env(noise=0.1)
        pts = rng.uniform(-0.3, 0.3, size=(rows, 6))
    got = lqr_return_gradient(pts, env, GAMMA)
    want = einsum_return_gradient(pts, env, GAMMA)
    assert got.shape == want.shape == pts.shape
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
