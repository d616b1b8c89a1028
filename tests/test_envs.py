"""Environment dynamics, the Riccati oracle, and the exact LQR gradient."""

import sys

import numpy as np
import pytest

import rpg.envs
from helpers import (lqr_analytic_gradient, reference_lqr_expected_return,
                     reference_lqr_return_gradient, reference_rollout)
from rpg.divergence import draw_probes, probe_field_rows
from rpg.envs import (MAX_LQR_STATE_DIM, LandscapeEnv, _bowl_grad,
                      default_init_second_moment, lqr_expected_return,
                      lqr_return_gradient, make_env, riccati_gain)
from rpg.errors import BadDimensions
from rpg.policy import ParamPolicy, rollout
from rpg.rng import RngStream
from rpg.training import TrainConfig, _build_policy, run_training

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


def four_state_env(noise=0.2):
    """A noisy coupled system at the largest LQR state dimension, 2 actions."""
    n = MAX_LQR_STATE_DIM
    return make_env(
        "lqr",
        a=0.85 * np.eye(n) + 0.05 * np.eye(n, k=1) - 0.04 * np.eye(n, k=-2),
        b=np.array([[1.0, 0.0], [0.2, 0.5], [0.0, 1.0], [-0.3, 0.4]]),
        q=np.diag([1.0, 0.5, 0.8, 0.3]),
        r=np.diag([0.6, 1.2]),
        horizon=30,
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


def test_scalar_lqr_parameters_make_one_by_one_matrices():
    # a config file gives plain numbers; b as a number was an IndexError
    env = make_env("lqr", a=0.9, b=2.0, q=1.5, r=0.5)
    assert env.a.shape == env.b.shape == env.q.shape == env.r.shape == (1, 1)
    assert env.b[0, 0] == 2.0 and env.action_dim == 1


def test_lqr_step_matches_hand_computation():
    env = two_dim_env()
    s = np.array([0.5, -1.0])
    a = np.array([0.2, 0.1])
    nxt = env.advance(s, a, env.draw_noise(RngStream(0)))
    reward = env.rewards(s, a)
    assert np.allclose(nxt, env.a @ s + env.b @ a, atol=1e-15)
    assert reward == pytest.approx(-(s @ env.q @ s + a @ env.r @ a), abs=1e-15)


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
        env.draw_noise(None)
    a, b = (env.advance(np.zeros(1), np.zeros(1),
                        env.draw_noise(RngStream(9))) for _ in range(2))
    assert np.array_equal(a, b) and a[0] != 0.0


def test_single_state_step_keeps_its_formulas_bitwise():
    rng = RngStream(30)
    for env in (two_dim_env(noise=0.3), make_env("lqr", noise_scale=0.5),
                make_env("pointmass")):
        for seed in range(20):
            s = rng.normal(size=env.state_dim)
            a = rng.normal(size=env.action_dim)
            nxt = env.advance(s, a, env.draw_noise(RngStream(seed)))
            reward = env.rewards(s, a)
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
            assert reward.shape == () and reward == want_reward
            assert np.array_equal(nxt, want)


def test_step_takes_leading_row_axes():
    rng = RngStream(31)
    for env in (two_dim_env(noise=0.3), make_env("pointmass")):
        states = rng.normal(size=(3, 5, env.state_dim))
        actions = rng.normal(size=(3, 5, env.action_dim))
        noise = env.draw_noise(RngStream(4))
        nxt = env.advance(states, actions, noise)
        reward = env.rewards(states, actions)
        assert nxt.shape == states.shape and reward.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            one = env.advance(states[i, j], actions[i, j], noise)
            one_reward = env.rewards(states[i, j], actions[i, j])
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
    nxt = env.advance(states, np.zeros((4, 2)), xi)
    assert np.array_equal(nxt, np.broadcast_to(0.3 * xi, (4, 2)))


def test_pointmass_rest_at_origin_scores_zero():
    env = make_env("pointmass")
    s, a = np.zeros(4), np.zeros(2)
    total = 0.0
    for _ in range(env.horizon):
        total += env.rewards(s, a)
        s = env.advance(s, a, env.draw_noise(RngStream(0)))
    assert total == 0.0 and np.all(s == 0.0)


def test_pointmass_dynamics_hand_step():
    env = make_env("pointmass", dt=0.1)
    s = np.array([1.0, -2.0, 0.5, 0.25])
    a = np.array([2.0, 0.0])
    nxt, reward = env.advance(s, a), env.rewards(s, a)
    assert np.allclose(nxt, [1.05, -1.975, 0.7, 0.25], atol=1e-15)
    assert reward == pytest.approx(-(1.0 + 4.0 + 0.1 * 4.0), abs=1e-12)


def test_bowl_optimum_is_origin():
    env = make_env("landscape", objective="bowl", dim=3)
    assert env.rewards(np.zeros(3), np.zeros(3)) == 0.0
    assert env.objective_value(np.zeros(3)) == 0.0
    assert env.rewards(np.zeros(3), np.array([0.1, 0.0, 0.0])) < 0.0


def test_landscape_gradients_match_fd():
    h = 1e-6
    for objective, point in [("bowl", np.array([0.3, -0.7, 1.1, 0.2])),
                             ("rosenbrock", np.array([-0.4, 1.3]))]:
        env = make_env("landscape", objective=objective, dim=point.size)
        grad = env.analytic_gradient(point)
        for i in range(env.dim):
            up, dn = point.copy(), point.copy()
            up[i] += h
            dn[i] -= h
            fd = -(env.objective_value(up) - env.objective_value(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-4)


def test_bowl_field_rows_equal_the_row_gradient():
    env = make_env("landscape", objective="bowl", dim=5)
    pts = RngStream(8).normal(size=(321, 5), scale=3.0)
    want = np.stack([-_bowl_grad(p) for p in pts])
    assert np.array_equal(env.analytic_gradient(pts), want)
    assert np.array_equal(env.analytic_gradient(pts[0]), want[0])


def test_rosenbrock_forces_two_dims_and_has_known_minimum():
    env = make_env("landscape", objective="rosenbrock")
    assert env.dim == 2
    # a dim the objective would ignore is refused, not silently dropped
    with pytest.raises(ValueError, match="^dim "):
        make_env("landscape", objective="rosenbrock", dim=7)
    assert env.objective_value([1.0, 1.0]) == 0.0
    assert np.allclose(env.analytic_gradient([1.0, 1.0]), 0.0, atol=1e-14)


def test_landscape_dim_defaults_per_objective():
    assert make_env("landscape").dim == 4
    assert make_env("landscape", objective="bowl", dim=7).dim == 7
    assert make_env("landscape", objective="rosenbrock", dim=2).dim == 2
    for dim in (0, 3):
        with pytest.raises(ValueError, match="^dim "):
            make_env("landscape", objective="rosenbrock", dim=dim)


@pytest.mark.parametrize("kind,params,key", [
    ("lqr", {"a": [[np.inf]]}, "a"),
    ("lqr", {"b": [[np.nan]]}, "b"),
    ("lqr", {"q": [[np.nan]]}, "q"),
    ("lqr", {"r": [[-np.inf]]}, "r"),
    ("pointmass", {"dt": np.nan}, "dt"),
    ("pointmass", {"dt": np.inf}, "dt"),
    ("pointmass", {"dt": -0.1}, "dt"),
    ("pointmass", {"dt": 0.0}, "dt"),
    ("lqr", {"q": -1.0}, "q"),
    ("lqr", {"a": np.eye(2), "b": np.ones((2, 1)),
             "q": [[1.0, 0.5], [0.4, 1.0]]}, "q"),
    ("lqr", {"r": 0.0}, "r"),
], ids=["inf-a", "nan-b", "nan-q", "inf-r", "nan-dt", "inf-dt",
        "negative-dt", "zero-dt", "negative-q", "asymmetric-q", "zero-r"])
def test_non_finite_or_non_positive_env_parameters_are_refused(kind, params,
                                                               key):
    # each such run used to abort at its first update, with no record; a
    # negative q trained toward unbounded positive returns, and r = 0
    # leaves the Riccati gain undefined
    with pytest.raises(ValueError, match=f"^{key} must be"):
        make_env(kind, **params)


def test_lqr_accepts_a_zero_or_singular_state_cost():
    assert not make_env("lqr", q=0.0).q.any()
    v = np.array([1.0, 2.0, 3.0])
    make_env("lqr", a=np.eye(3), b=np.ones((3, 1)), q=0.1 * np.outer(v, v))


def test_landscape_is_single_step():
    env = LandscapeEnv("bowl", dim=2)
    assert env.horizon == 1
    played = rollout(env, ParamPolicy(2, init=[0.5, 0.0]), 3, RngStream(0),
                     explore=False)
    assert played.rewards.shape == (3, 1)
    assert np.all(played.rewards == -0.25)


@pytest.mark.parametrize("kind,params", [
    ("lqr", {}), ("lqr", {"noise_scale": 0.3, "horizon": 7}),
    ("pointmass", {"horizon": 9}),
    ("landscape", {"objective": "bowl", "dim": 3}),
    ("landscape", {"objective": "rosenbrock"})],
    ids=["lqr", "lqr-noisy", "pointmass", "bowl", "rosenbrock"])
def test_every_env_steps_as_draw_then_transition(kind, params):
    # the contract the row engine relies on: played one step at a time,
    # an episode is draw_noise, rewards and advance in sequence, and
    # rollout makes the same draws and the same numbers: bitwise for one
    # episode; over several, the MLP's matrix products take all episodes'
    # states at once, whose kernel may round differently
    env = make_env(kind, **params)
    policy = _build_policy(env, TrainConfig(env_kind=kind, env_params=params),
                           RngStream(2))
    explore = getattr(policy, "stochastic", False)
    for episodes, rel in ((1, 0.0), (3, 1e-14)):
        engine_rng, step_rng = RngStream(4), RngStream(4)
        got = rollout(env, policy, episodes, engine_rng, explore=explore)
        want = reference_rollout(env, policy, episodes, step_rng,
                                 explore=explore)
        for g, w in zip((got.states, got.actions, got.rewards),
                        (want.states, want.actions, want.rewards)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))
        assert engine_rng.counter == step_rng.counter


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
        grad = lqr_analytic_gradient(gain, env, GAMMA)
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
    grad = lqr_analytic_gradient(np.zeros((1, 1)), env, GAMMA,
                                 init_second_moment=point_moment(s0))
    h = 1e-5
    fd = (rollout_return(env, [[h]], np.zeros(1), s0)
          - rollout_return(env, [[-h]], np.zeros(1), s0)) / (2 * h)
    assert abs(grad[0, 0] - fd) <= 1e-6

    env2 = two_dim_env()
    s0 = np.array([0.5, -0.3])
    k = np.array([[0.2, 0.0], [0.1, 0.3]])
    grad2 = lqr_analytic_gradient(k, env2, GAMMA,
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
    g_plus = lqr_analytic_gradient(k, env, GAMMA,
                                   init_second_moment=point_moment(s0))
    g_minus = lqr_analytic_gradient(k, env, GAMMA,
                                    init_second_moment=point_moment(-s0))
    assert np.max(np.abs(g_plus - g_minus)) <= 1e-12


def test_default_init_moment_is_uniform_cube_moment():
    env = two_dim_env()
    m0 = default_init_second_moment(env)
    assert np.allclose(m0, np.diag([1 / 3, 1 / 3, 1.0]), atol=1e-15)


def test_analytic_gradient_shapes_and_validation():
    env = two_dim_env()
    k = np.zeros((2, 2))
    as_matrix = lqr_analytic_gradient(k, env, GAMMA)
    as_flat = lqr_analytic_gradient(k.ravel(), env, GAMMA)
    assert as_matrix.shape == (2, 2) and as_flat.shape == (4,)
    assert np.array_equal(as_matrix.ravel(), as_flat)
    with pytest.raises(BadDimensions):
        lqr_analytic_gradient(np.zeros(3), env, GAMMA)


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


def field_case(kind, rows, rng):
    """(env, points) of a field call: rows of flat (K, b) parameters."""
    if kind == "scalar":
        # gains around the stabilizing band 0 < k < 2 of a = b = 1
        return make_env("lqr"), np.column_stack(
            [rng.uniform(0.2, 1.6, size=rows),
             rng.uniform(-0.5, 0.5, size=rows)])
    if kind == "two-dim-noisy":
        return two_dim_env(noise=0.1), rng.uniform(-0.3, 0.3, size=(rows, 6))
    return four_state_env(), rng.uniform(-0.3, 0.3, size=(rows, 10))


@pytest.mark.parametrize("rows", [1, 33, 673])
@pytest.mark.parametrize("kind",
                         ["scalar", "two-dim-noisy", "four-state-noisy"])
def test_matmul_gradient_matches_einsum_reference(rows, kind):
    env, pts = field_case(kind, rows, RngStream(rows))
    got = lqr_return_gradient(pts, env, GAMMA)
    want = einsum_return_gradient(pts, env, GAMMA)
    assert got.shape == want.shape == pts.shape
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("kind,rows", [
    ("scalar", 673), ("four-state-noisy", 97),
    # a J/T update's one call: theta, training's rows, the report's rows
    pytest.param("scalar", (1, 640, 32), id="scalar-1+640+32")])
def test_batched_rows_equal_single_row_calls_bitwise(kind, rows):
    # every sum of the recursions runs over axis 0, so a row's additions
    # do not depend on the batch around it: neither on single rows nor on
    # the row sets that one call merges
    parts = np.atleast_1d(rows)
    env, pts = field_case(kind, parts.sum(), RngStream(parts.sum() + 1))
    grads = lqr_return_gradient(pts, env, GAMMA)
    rets = lqr_expected_return(pts, env, GAMMA)
    for i, point in enumerate(pts):
        assert np.array_equal(lqr_return_gradient(point, env, GAMMA), grads[i])
        assert lqr_expected_return(point, env, GAMMA) == rets[i]
    sets = np.split(pts, np.cumsum(parts)[:-1])
    assert np.array_equal(np.concatenate(
        [lqr_return_gradient(p, env, GAMMA) for p in sets]), grads)


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_overflowing_row_leaves_the_other_rows_bitwise_unchanged(kind):
    env, pts = field_case(kind, 41, RngStream(6))
    wild = pts.copy()
    wild[17] = 1e7  # far outside the stabilizing set: the recursions overflow
    with np.errstate(over="ignore", invalid="ignore"):
        grads = lqr_return_gradient(wild, env, GAMMA)
        rets = lqr_expected_return(wild, env, GAMMA)
    assert not np.all(np.isfinite(grads[17])) and not np.isfinite(rets[17])
    keep = np.arange(41) != 17
    assert np.array_equal(grads[keep],
                          lqr_return_gradient(pts, env, GAMMA)[keep])
    assert np.array_equal(rets[keep],
                          lqr_expected_return(pts, env, GAMMA)[keep])


def j_update_rows(kind):
    """(env, rows) of a J/T update's one field call at K = 16 and 20
    training iterations: theta, then theta +- eps*V for every training
    probe matrix and the report's, built as ``regularize_step`` builds
    them."""
    env, theta = field_case(kind, 1, RngStream(5))
    theta = theta[0]
    seen = []
    probe_field_rows(lambda pts: seen.append(pts) or pts, theta,
                     draw_probes(3, 16, 20, theta.size))
    return env, seen[0]


def recursion_rows(monkeypatch):
    """The row count of every ``_closed_loop`` call made from now on."""
    rows, closed_loop = [], rpg.envs._closed_loop

    def counted(pts, env):
        rows.append(len(pts))
        return closed_loop(pts, env)

    monkeypatch.setattr(rpg.envs, "_closed_loop", counted)
    return rows


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_j_update_rows_equal_their_one_row_calls_bitwise(kind, monkeypatch):
    env, rows = j_update_rows(kind)
    assert len(rows) == 1 + 2 * 16 * 21
    seen = recursion_rows(monkeypatch)
    grads = lqr_return_gradient(rows, env, GAMMA)
    distinct = len(np.unique(rows, axis=0))
    assert seen == [distinct] and distinct < len(rows)
    if kind == "scalar":
        # theta and theta +- eps*v, v in {-1, 1}^2
        assert distinct == 5
    for row, grad in zip(rows, grads):
        assert np.array_equal(lqr_return_gradient(row, env, GAMMA), grad)


@pytest.mark.parametrize("variant,per_update", [
    ("baseline", 1), ("J", 5), ("T", 5)])
def test_scalar_lqr_update_runs_the_recursion_once_per_distinct_row(
        monkeypatch, variant, per_update):
    # a J/T update's call passes 673 rows; a baseline update's one 1-D
    # point skips the duplicate search
    seen = recursion_rows(monkeypatch)
    unique = np.unique
    searches = []

    def counted(*args, **kwargs):
        # only the duplicate search: a first build of the metric net's
        # plans calls np.unique too
        if sys._getframe(1).f_code is lqr_return_gradient.__code__:
            searches.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    summary = run_training(TrainConfig(env_kind="lqr", variant=variant,
                                       total_steps=150, probe_count=16))
    assert not summary.aborted and len(summary.records) == 3
    assert seen == [per_update] * 3
    assert len(searches) == (0 if variant == "baseline" else 3)


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_repeated_wild_rows_merge_only_with_their_own_copies(kind,
                                                             monkeypatch):
    env, pts = field_case(kind, 41, RngStream(6))
    wild = pts.copy()
    overflow = [0, 17, 18, 40]
    wild[overflow] = 1e7  # the recursions overflow
    wild[29, -1] = 0.0
    wild[30] = wild[29]
    wild[30, -1] = -0.0   # equal to row 29 as a number, not as bytes
    seen = recursion_rows(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        grads = lqr_return_gradient(wild, env, GAMMA)
        singles = [lqr_return_gradient(row, env, GAMMA) for row in wild]
    assert seen[0] == 41 - len(overflow) + 1
    assert not np.any(np.isfinite(grads[overflow]))
    for single, grad in zip(singles, grads):
        assert np.array_equal(single, grad, equal_nan=True)
    keep = np.ones(41, dtype=bool)
    keep[overflow + [29, 30]] = False
    assert np.array_equal(grads[keep],
                          lqr_return_gradient(pts, env, GAMMA)[keep])


def test_wrong_width_with_repeated_rows_raises():
    with pytest.raises(BadDimensions):
        lqr_return_gradient(np.ones((6, 3)), make_env("lqr"), GAMMA)


def random_lqr(n, m, noise, rng):
    """A random n-state, m-action LQR, open loop near the unit circle."""
    return make_env("lqr", a=0.5 * rng.normal(size=(n, n)),
                    b=rng.normal(size=(n, m)),
                    q=np.diag(rng.uniform(0.2, 1.0, size=n)),
                    r=np.diag(rng.uniform(0.2, 1.0, size=m)),
                    horizon=50, noise_scale=noise)


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_moments_equal_the_per_step_sums_bitwise(n, m, noise):
    # the moments stacked over t and summed by one reduce, and the
    # gradient's one (T, N, m, N, B) product, against running sums over t
    rng = RngStream(100 * n + 10 * m + int(noise > 0))
    env = random_lqr(n, m, noise, rng)
    pts = rng.normal(size=(9, m * n + m), scale=0.3)
    assert np.array_equal(lqr_return_gradient(pts, env, GAMMA),
                          reference_lqr_return_gradient(pts, env, GAMMA))
    assert np.array_equal(lqr_expected_return(pts, env, GAMMA),
                          reference_lqr_expected_return(pts, env, GAMMA))
    for point in pts[:2]:
        assert np.array_equal(
            lqr_return_gradient(point, env, GAMMA),
            reference_lqr_return_gradient(point, env, GAMMA))
        assert (lqr_expected_return(point, env, GAMMA)
                == reference_lqr_expected_return(point, env, GAMMA))


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_rows_in_several_blocks_equal_one_block_bitwise(kind, monkeypatch):
    env, pts = field_case(kind, 41, RngStream(12))
    pts[30:] = pts[:11]
    want = lqr_return_gradient(pts, env, GAMMA)
    seen = recursion_rows(monkeypatch)
    monkeypatch.setattr(rpg.envs, "LQR_ROW_BLOCK", 4)
    assert np.array_equal(lqr_return_gradient(pts, env, GAMMA), want)
    assert seen == [4] * 7 + [2]


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_return_gradient_of_an_empty_batch_is_empty(kind):
    env, pts = field_case(kind, 0, RngStream(0))
    grads = lqr_return_gradient(pts, env, GAMMA)
    assert grads.shape == pts.shape == (0, pts.shape[1])


@pytest.mark.parametrize("kind", ["scalar", "four-state-noisy"])
def test_expected_return_of_an_empty_batch_is_empty(kind):
    env, pts = field_case(kind, 0, RngStream(0))
    assert lqr_expected_return(pts, env, GAMMA).shape == (0,)
