"""Policies, trajectories, rollouts, and the REINFORCE estimator."""

import numpy as np
import pytest

import tape_reference
from helpers import lqr_analytic_gradient
from rpg.envs import make_env
from rpg.policy import (LinearGainPolicy, ParamPolicy, PolicyMLP, Trajectory,
                        reinforce_field, reinforce_gradient_from_batch,
                        rollout)
from rpg.rng import RngStream

GAMMA = 0.99


class ConstantRewardEnv:
    """Every transition pays +1; the advantage must cancel exactly."""

    kind = "const"
    horizon = 10
    state_dim = 2
    action_dim = 1

    def reset(self, rng):
        self._t = 0
        return rng.uniform(-1.0, 1.0, size=2)

    def step(self, state, action, rng=None):
        self._t += 1
        return state, 1.0, self._t >= self.horizon


def reinforce(env, policy, episodes, rng):
    """REINFORCE over a fresh batch of rollouts, as training collects it."""
    batch = [rollout(env, policy, rng) for _ in range(episodes)]
    return reinforce_gradient_from_batch(policy, batch, GAMMA)


def logprob_sum(policy, theta, states, actions, weights):
    """Reference sum_i w_i log pi(a_i|s_i), used as the FD target."""
    keep = policy.theta
    policy.set_theta(theta)
    mu = policy.mean(states)
    if isinstance(policy, PolicyMLP):
        log_std = policy.arrays[6]
        var = np.exp(2.0 * log_std)
        lp = (-0.5 * np.sum((actions - mu) ** 2 / var, axis=1)
              - np.sum(log_std))
    else:
        lp = -0.5 * np.sum((actions - mu) ** 2 / policy.sigma ** 2, axis=1)
    policy.set_theta(keep)
    return float(np.sum(np.asarray(weights) * lp))


def test_trajectory_rejects_inconsistent_lengths():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(3))


def test_return_to_go_matches_reversed_accumulation_exactly():
    rng = RngStream(4)
    rewards = rng.normal(size=12)
    traj = Trajectory(np.zeros((12, 1)), np.zeros((12, 1)), rewards)
    rtg = traj.return_to_go(GAMMA)
    acc = 0.0
    expected = np.zeros(12)
    for t in range(11, -1, -1):
        acc = rewards[t] + GAMMA * acc
        expected[t] = acc
    assert np.array_equal(rtg, expected)
    assert traj.discounted_return(GAMMA) == rtg[0]
    power_sum = float(np.sum(GAMMA ** np.arange(12) * rewards))
    assert traj.discounted_return(GAMMA) == pytest.approx(power_sum,
                                                          rel=1e-12)


def test_rollout_shapes_and_determinism():
    env = make_env("lqr")
    pol = LinearGainPolicy(1, 1, sigma=0.1, k=[[0.3]])
    t1 = rollout(env, pol, RngStream(5))
    t2 = rollout(env, pol, RngStream(5))
    assert len(t1) == env.horizon
    assert t1.states.shape == (50, 1) and t1.actions.shape == (50, 1)
    assert np.array_equal(t1.rewards, t2.rewards)
    assert np.array_equal(t1.actions, t2.actions)

    land = make_env("landscape", objective="bowl", dim=3)
    t3 = rollout(land, ParamPolicy(3, init=[0.1, 0.2, 0.3]), RngStream(0))
    assert len(t3) == 1
    assert t3.rewards[0] == pytest.approx(-0.14, abs=1e-12)


def test_mlp_flatten_unflatten_bijection():
    pol = PolicyMLP(3, 2, RngStream(8))
    theta = pol.theta
    assert theta.shape == (372,)
    pol.set_theta(theta)
    assert np.array_equal(pol.theta, theta)
    bumped = theta + 0.25
    pol.set_theta(bumped)
    assert np.array_equal(pol.theta, bumped)


def test_mlp_layout_marks_output_bias_not_log_std():
    pol = PolicyMLP(3, 2, RngStream(8))
    assert pol.layout.shapes[-1] == (2,)          # log_std is the last part
    assert pol.layout.output_bias_part == 5       # but b3 is the exempt one


def test_mlp_act_mean_vs_stochastic():
    pol = PolicyMLP(2, 1, RngStream(3))
    s = np.array([0.4, -0.2])
    mu = pol.act(s)
    assert np.array_equal(mu, pol.mean(s[None, :])[0])
    drawn = pol.act(s, RngStream(11))
    assert not np.array_equal(mu, drawn)
    assert np.array_equal(drawn, pol.act(s, RngStream(11)))


def test_mlp_logprob_gradient_matches_fd():
    rng = RngStream(13)
    pol = PolicyMLP(3, 2, rng)
    states = rng.normal(size=(6, 3))
    actions = rng.normal(size=(6, 2))
    weights = rng.normal(size=6)
    grad = pol.weighted_logprob_grad(states, actions, weights)
    theta = pol.theta
    h = 1e-6
    idx = np.linspace(0, len(theta) - 1, 25).astype(int)
    for i in idx:
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd = (logprob_sum(pol, up, states, actions, weights)
              - logprob_sum(pol, dn, states, actions, weights)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("seed,dims,rows", [
    (13, (3, 2), 6), (15, (4, 2), 200), (16, (2, 1), 1), (17, (5, 3), 40)])
def test_mlp_closed_form_gradient_matches_tape_reference(seed, dims, rows):
    rng = RngStream(seed)
    pol = PolicyMLP(*dims, rng)
    pol.set_theta(pol.theta + rng.normal(size=pol.theta.size, scale=0.3))
    states = rng.normal(size=(rows, dims[0]))
    actions = rng.normal(size=(rows, dims[1]))
    weights = rng.normal(size=rows)
    want = tape_reference.mlp_logprob_grad(pol, states, actions, weights)
    got = pol.weighted_logprob_grad(states, actions, weights)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mlp_gradient_rows_match_one_row_each():
    rng = RngStream(18)
    pol = PolicyMLP(4, 2, rng)
    points = pol.theta + rng.normal(size=(5, pol.theta.size), scale=0.2)
    states = rng.normal(size=(5, 30, 4))
    actions = rng.normal(size=(5, 30, 2))
    weights = rng.normal(size=(5, 30))
    got = pol.row_logprob_grads(pol.layout.unflatten_batch(points), states,
                                actions, weights)
    for b, point in enumerate(points):
        pol.set_theta(point)
        want = tape_reference.mlp_logprob_grad(pol, states[b], actions[b],
                                               weights[b])
        assert np.max(np.abs(got[b] - want)) <= 1e-12 * np.max(np.abs(want))


def test_linear_policy_logprob_gradient_matches_fd():
    rng = RngStream(14)
    pol = LinearGainPolicy(2, 2, sigma=0.3)
    pol.set_theta(rng.normal(size=6, scale=0.4))
    states = rng.normal(size=(7, 2))
    actions = rng.normal(size=(7, 2))
    weights = rng.normal(size=7)
    grad = pol.weighted_logprob_grad(states, actions, weights)
    theta = pol.theta
    h = 1e-6
    for i in range(6):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd = (logprob_sum(pol, up, states, actions, weights)
              - logprob_sum(pol, dn, states, actions, weights)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_param_policy_acts_its_vector():
    pol = ParamPolicy(3, init=[1.0, -2.0, 0.5])
    assert np.array_equal(pol.act(np.zeros(3)), [1.0, -2.0, 0.5])
    pol.set_theta(np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(pol.theta, [0.0, 0.0, 1.0])


def test_reinforce_zero_advantage_on_constant_rewards():
    grad = reinforce(ConstantRewardEnv(), LinearGainPolicy(2, 1), 100,
                     RngStream(5))
    assert np.max(np.abs(grad)) <= 1e-10


def test_reinforce_sign_agreement_with_analytic_oracle():
    # stable closed loop throughout the draw range; K* is ~0.615 so the
    # true gradient stays bounded away from zero on [0.05, 0.45]
    env = make_env("lqr")
    agree = 0
    for trial in range(100):
        rng = RngStream(1000 + trial)
        k0 = float(rng.uniform(0.05, 0.45, size=1)[0])
        pol = LinearGainPolicy(1, 1, sigma=0.1, k=[[k0]])
        est = reinforce(env, pol, 20, rng)
        oracle = lqr_analytic_gradient(pol.k, env, env.horizon, GAMMA)
        agree += int(np.sign(est[0]) == np.sign(oracle[0, 0]))
    assert agree >= 95


def test_reinforce_deterministic_given_stream():
    env = make_env("lqr")
    pol = LinearGainPolicy(1, 1, sigma=0.1, k=[[0.2]])
    g1 = reinforce(env, pol, 8, RngStream(21))
    g2 = reinforce(env, pol, 8, RngStream(21))
    assert np.array_equal(g1, g2)


def test_reinforce_requires_stochastic_policy():
    traj = Trajectory(np.zeros((3, 1)), np.zeros((3, 1)), np.ones(3))
    with pytest.raises(ValueError, match="stochastic"):
        reinforce_gradient_from_batch(ParamPolicy(1), [traj], GAMMA)


def test_reinforce_field_needs_stochastic_policy():
    land = make_env("landscape", objective="bowl", dim=2)
    with pytest.raises(ValueError, match="stochastic"):
        reinforce_field(land, ParamPolicy(2), np.zeros((3, 2)), 2, GAMMA,
                        RngStream(0))
