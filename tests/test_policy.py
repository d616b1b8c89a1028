"""Policies, trajectories, rollouts, and the REINFORCE estimator."""

import numpy as np
import pytest

import rpg.policy
import tape_reference
from helpers import (logprob_grads, lqr_analytic_gradient,
                     one_row_logprob_grad, own_parts, per_row_reinforce_field,
                     reference_evaluation_returns, reference_play_rows,
                     reference_reinforce_field, reference_row_logprob_grads)
from rpg.envs import LqrEnv, make_env
from rpg.errors import LayoutMismatch
from rpg.policy import (LinearGainPolicy, ParamPolicy, PolicyMLP, Trajectory,
                        _draw_episode_events, _play_rows, _return_to_go,
                        evaluation_returns, reinforce_field,
                        reinforce_gradient_from_batch, rollout)
from rpg.rng import RngStream
from rpg.training import TrainConfig, _build_policy

GAMMA = 0.99


class ConstantRewardEnv:
    """Every transition pays +1; the advantage must cancel exactly."""

    kind = "const"
    horizon = 10
    state_dim = 2
    action_dim = 1

    def reset(self, rng):
        return rng.uniform(-1.0, 1.0, size=2)

    def draw_noise(self, rng):
        return None

    def advance(self, state, action, noise=None):
        return state

    def rewards(self, states, actions):
        return np.ones(states.shape[:-1])


def reinforce(env, policy, episodes, rng):
    """REINFORCE over a fresh batch of rollouts, as training collects it."""
    return reinforce_gradient_from_batch(
        policy, rollout(env, policy, episodes, rng), GAMMA)


def logprob_sum(policy, theta, states, actions, weights):
    """Reference sum_i w_i log pi(a_i|s_i), used as the FD target."""
    keep = policy.theta
    policy.set_theta(theta)
    mu = policy.row_means(own_parts(policy), states[None])[0]
    if isinstance(policy, PolicyMLP):
        log_std = own_parts(policy)[6][0]
        var = np.exp(2.0 * log_std)
        lp = (-0.5 * np.sum((actions - mu) ** 2 / var, axis=1)
              - np.sum(log_std))
    else:
        lp = -0.5 * np.sum((actions - mu) ** 2 / policy.sigma ** 2, axis=1)
    policy.set_theta(keep)
    return float(np.sum(np.asarray(weights) * lp))


def test_return_to_go_matches_reversed_accumulation_exactly():
    rng = RngStream(4)
    rewards = rng.normal(size=12)
    rtg = _return_to_go(rewards, GAMMA)
    acc = 0.0
    expected = np.zeros(12)
    for t in range(11, -1, -1):
        acc = rewards[t] + GAMMA * acc
        expected[t] = acc
    assert np.array_equal(rtg, expected)
    power_sum = float(np.sum(GAMMA ** np.arange(12) * rewards))
    assert rtg[0] == pytest.approx(power_sum, rel=1e-12)
    # episodes on a leading axis take the same additions
    batch = np.stack([rewards, rewards[::-1]])
    assert np.array_equal(_return_to_go(batch, GAMMA)[0], expected)


def test_rollout_shapes_and_determinism():
    env = make_env("lqr")
    pol = LinearGainPolicy(1, 1, sigma=0.1, k=[[0.3]])
    t1 = rollout(env, pol, 3, RngStream(5))
    t2 = rollout(env, pol, 3, RngStream(5))
    assert len(t1) == 3 * env.horizon
    assert t1.states.shape == (3, 50, 1) and t1.actions.shape == (3, 50, 1)
    assert t1.rewards.shape == (3, 50)
    assert np.array_equal(t1.rewards, t2.rewards)
    assert np.array_equal(t1.actions, t2.actions)

    land = make_env("landscape", objective="bowl", dim=3)
    t3 = rollout(land, ParamPolicy(3, init=[0.1, 0.2, 0.3]), 1,
                 RngStream(0), explore=False)
    assert len(t3) == 1
    assert t3.rewards[0, 0] == pytest.approx(-0.14, abs=1e-12)


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
    # explore=False acts on the mean; exploring adds sigma times the
    # stream's draws, the same for the same stream
    env = make_env("pointmass", horizon=5)
    pol = PolicyMLP(4, 2, RngStream(3))
    mean = rollout(env, pol, 2, RngStream(11), explore=False)
    for t in range(env.horizon):
        assert np.array_equal(
            mean.actions[:, t],
            pol.row_means(own_parts(pol), mean.states[None, :, t])[0])
    drawn = rollout(env, pol, 2, RngStream(11))
    assert not np.array_equal(mean.actions[:, 0], drawn.actions[:, 0])
    assert np.array_equal(drawn.actions,
                          rollout(env, pol, 2, RngStream(11)).actions)


def test_mlp_logprob_gradient_matches_fd():
    rng = RngStream(13)
    pol = PolicyMLP(3, 2, rng)
    states = rng.normal(size=(6, 3))
    actions = rng.normal(size=(6, 2))
    weights = rng.normal(size=6)
    grad = one_row_logprob_grad(pol, states, actions, weights)
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
    got = one_row_logprob_grad(pol, states, actions, weights)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mlp_gradient_rows_match_one_row_each():
    rng = RngStream(18)
    pol = PolicyMLP(4, 2, rng)
    points = pol.theta + rng.normal(size=(5, pol.theta.size), scale=0.2)
    states = rng.normal(size=(5, 30, 4))
    actions = rng.normal(size=(5, 30, 2))
    weights = rng.normal(size=(5, 30))
    got = logprob_grads(pol, pol.layout.unflatten_batch(points), states,
                        actions, weights)
    for b, point in enumerate(points):
        pol.set_theta(point)
        want = tape_reference.mlp_logprob_grad(pol, states[b], actions[b],
                                               weights[b])
        assert np.max(np.abs(got[b] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("episodes", [1, 4])
@pytest.mark.parametrize("rows", [1, 25, 67])
@pytest.mark.parametrize("hidden", [(16, 16), (12, 8)])
def test_mlp_gradient_rows_equal_out_of_place_reference_bitwise(rows,
                                                                episodes,
                                                                hidden):
    # pointmass shapes: E episodes of its horizon per row
    env = make_env("pointmass")
    rng = RngStream(rows * 10 + episodes)
    pol = PolicyMLP(env.state_dim, env.action_dim, rng, hidden=hidden)
    parts = pol.layout.unflatten_batch(
        pol.theta + rng.normal(size=(rows, pol.theta.size), scale=0.3))
    steps = episodes * env.horizon
    states = rng.normal(size=(rows, steps, env.state_dim))
    actions = rng.normal(size=(rows, steps, env.action_dim))
    weights = rng.normal(size=(rows, steps))
    assert np.array_equal(
        logprob_grads(pol, parts, states, actions, weights),
        reference_row_logprob_grads(parts, states, actions, weights))


def test_linear_policy_logprob_gradient_matches_fd():
    rng = RngStream(14)
    pol = LinearGainPolicy(2, 2, sigma=0.3)
    pol.set_theta(rng.normal(size=6, scale=0.4))
    states = rng.normal(size=(7, 2))
    actions = rng.normal(size=(7, 2))
    weights = rng.normal(size=7)
    grad = one_row_logprob_grad(pol, states, actions, weights)
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
    assert np.array_equal(pol.row_means(own_parts(pol), np.zeros((1, 4, 3))),
                          np.tile([1.0, -2.0, 0.5], (1, 4, 1)))
    pol.set_theta(np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(pol.theta, [0.0, 0.0, 1.0])


POLICIES = {
    "mlp": lambda: PolicyMLP(3, 2, RngStream(8)),
    "gain": lambda: LinearGainPolicy(2, 1, k=[[0.3, -0.2]], b=[0.1]),
    "param": lambda: ParamPolicy(3, init=[1.0, -2.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_set_theta_rejects_a_wrong_shape(name):
    pol = POLICIES[name]()
    keep, n = pol.theta, pol.layout.n
    for bad in (np.zeros(n + 1), np.zeros((1, n)), np.zeros(())):
        with pytest.raises(LayoutMismatch):
            pol.set_theta(bad)
    assert np.array_equal(pol.theta, keep)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_theta_is_held_flat_and_copied_both_ways(name):
    pol = POLICIES[name]()
    n = pol.layout.n
    source = np.arange(n, dtype=np.float64)
    pol.set_theta(source)
    source[0] = 99.0
    pol.theta[1] = 99.0
    assert np.array_equal(pol.theta, np.arange(n, dtype=np.float64))
    pol.set_theta(range(n))               # integers, stored as float64
    assert pol.theta.dtype == np.float64


@pytest.mark.parametrize("k,b", [
    ([0.3, -0.2], None), ([[0.3], [-0.2]], None), ([[0.3, -0.2]], [0.1, 0.2]),
], ids=["flat-k", "transposed-k", "long-b"])
def test_gain_policy_constructor_checks_its_part_shapes(k, b):
    with pytest.raises(LayoutMismatch):
        LinearGainPolicy(2, 1, k=k, b=b)


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
        oracle = lqr_analytic_gradient(own_parts(pol)[0][0], env, GAMMA)
        agree += int(np.sign(est[0]) == np.sign(oracle[0, 0]))
    assert agree >= 95


def test_reinforce_deterministic_given_stream():
    env = make_env("lqr")
    pol = LinearGainPolicy(1, 1, sigma=0.1, k=[[0.2]])
    g1 = reinforce(env, pol, 8, RngStream(21))
    g2 = reinforce(env, pol, 8, RngStream(21))
    assert np.array_equal(g1, g2)


def test_reinforce_requires_stochastic_policy():
    traj = Trajectory(np.zeros((1, 3, 1)), np.zeros((1, 3, 1)),
                      np.ones((1, 3)))
    with pytest.raises(ValueError, match="stochastic"):
        reinforce_gradient_from_batch(ParamPolicy(1), [traj], GAMMA)


def test_reinforce_field_needs_stochastic_policy():
    land = make_env("landscape", objective="bowl", dim=2)
    with pytest.raises(ValueError, match="stochastic"):
        reinforce_field(land, ParamPolicy(2), np.zeros((3, 2)), 2, GAMMA,
                        RngStream(0))


NOISY_3X2 = dict(a=[[0.9, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.7]],
                 b=[[1.0, 0.0], [0.3, 1.0], [0.0, 0.5]],
                 q=np.diag([1.0, 0.5, 0.2]), r=np.diag([1.0, 0.7]),
                 horizon=30, noise_scale=0.3)
PLAY_CASES = [("lqr", {}), ("lqr", NOISY_3X2), ("pointmass", {}),
              ("landscape", {"objective": "bowl", "dim": 4}),
              ("landscape", {"objective": "rosenbrock"})]
PLAY_IDS = ["lqr", "lqr-noisy-3x2", "pointmass", "bowl", "rosenbrock"]


def play_case(env_kind, env_params, rows, seed):
    """env, the run's policy, and `rows` parameter rows around its theta."""
    env = make_env(env_kind, **env_params)
    policy = _build_policy(env, TrainConfig(env_kind=env_kind,
                                            env_params=env_params),
                           RngStream(seed).spawn("policy-init"))
    theta = policy.theta
    points = theta + RngStream(seed).normal(size=(rows, theta.size),
                                            scale=0.05 * (1 + abs(theta)))
    return env, policy, points


@pytest.mark.parametrize("rows", [1, 7, 32, 33])
@pytest.mark.parametrize("env_kind,env_params", PLAY_CASES, ids=PLAY_IDS)
def test_play_rows_equal_the_per_step_reference_bitwise(env_kind, env_params,
                                                       rows):
    # C-order buffers and one rewards call against per-step lists joined
    # by np.stack; ParamPolicy's actions are broadcast views
    env, policy, points = play_case(env_kind, env_params, rows, rows)
    stochastic = getattr(policy, "stochastic", False)
    events = _draw_episode_events(env, policy, 3, RngStream(rows),
                                  explore=stochastic)
    parts = policy.layout.unflatten_batch(points)
    got = _play_rows(env, policy, parts, events)
    want = reference_play_rows(env, policy, parts, events)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.flags.c_contiguous
        assert np.array_equal(g, w)
    if stochastic:
        assert np.array_equal(
            reinforce_field(env, policy, points, 3, GAMMA, RngStream(rows)),
            reference_reinforce_field(env, policy, points, 3, GAMMA,
                                      RngStream(rows)))


@pytest.mark.parametrize("env_kind,env_params", PLAY_CASES, ids=PLAY_IDS)
def test_evaluation_returns_equal_the_per_step_reference_bitwise(
        env_kind, env_params):
    for seed in range(3):
        env, policy, _ = play_case(env_kind, env_params, 1, seed)
        got = evaluation_returns(env, policy, 10, GAMMA, RngStream(seed))
        want = reference_evaluation_returns(env, policy, 10, GAMMA,
                                            RngStream(seed))
        assert got.tobytes() == want.tobytes()


def test_play_makes_one_rewards_call_and_no_advance_after_the_last_step():
    calls = []

    class Counted(LqrEnv):
        def advance(self, state, action, noise=None):
            calls.append("advance")
            return super().advance(state, action, noise)

        def rewards(self, states, actions):
            calls.append("rewards")
            return super().rewards(states, actions)

    env = Counted([[1.0]], [[1.0]], [[1.0]], [[1.0]], horizon=7)
    policy = LinearGainPolicy(1, 1, k=np.array([[0.5]]))
    evaluation_returns(env, policy, 4, GAMMA, RngStream(0))
    assert calls == ["advance"] * 6 + ["rewards"]
    calls.clear()
    reinforce_field(env, policy, np.zeros((5, 2)), 3, GAMMA, RngStream(0))
    assert calls == ["advance"] * 6 + ["rewards"]


def test_reinforce_field_work_area_leaks_nothing_between_calls():
    # the area outlives each call; blocks of 32 and 8 rows, a 5-row call
    # and a different E reuse or add its buffers, and gain-policy calls
    # come in between: every result equals the out-of-place reference
    env, policy, points = play_case("pointmass", {}, 40, 3)
    lqr, gain, gain_points = play_case("lqr", NOISY_3X2, 7, 4)
    for rows, episodes, seed in ((40, 4, 0), (5, 4, 1), (40, 3, 2)):
        for field_env, field_policy, at in ((env, policy, points[:rows]),
                                            (lqr, gain, gain_points)):
            got = reinforce_field(field_env, field_policy, at, episodes,
                                  GAMMA, RngStream(seed))
            want = reference_reinforce_field(field_env, field_policy, at,
                                             episodes, GAMMA,
                                             RngStream(seed))
            assert np.array_equal(got, want)


def test_reinforce_forwards_each_step_once(monkeypatch):
    # a field block forwards the MLP at each of its H steps and never
    # again; the fresh batch forwards only while it plays
    forwards = []
    layers = rpg.policy._mlp_layers

    def counted(parts, states):
        forwards.append(states.shape[:2])
        return layers(parts, states)

    monkeypatch.setattr(rpg.policy, "_mlp_layers", counted)
    env = make_env("pointmass", horizon=9)
    policy = PolicyMLP(env.state_dim, env.action_dim, RngStream(5))
    points = policy.theta + RngStream(6).normal(
        size=(rpg.policy.ROW_BLOCK + 3, policy.theta.size), scale=0.1)
    got = reinforce_field(env, policy, points, 4, GAMMA, RngStream(7))
    assert forwards == [(rpg.policy.ROW_BLOCK, 4)] * 9 + [(3, 4)] * 9
    forwards.clear()
    batch = rollout(env, policy, 2, RngStream(8))
    assert forwards == [(1, 2)] * 9
    grad = reinforce_gradient_from_batch(policy, batch, GAMMA)
    assert len(forwards) == 9
    monkeypatch.undo()
    assert np.array_equal(got, reference_reinforce_field(
        env, policy, points, 4, GAMMA, RngStream(7)))
    want = per_row_reinforce_field(env, policy, policy.theta, 2, GAMMA, 8)
    assert np.max(np.abs(grad - want[0])) <= 1e-14 * np.max(np.abs(want))


def test_reinforce_needs_an_exploring_batch():
    env = make_env("lqr")
    policy = LinearGainPolicy(1, 1, k=[[0.3]])
    batch = rollout(env, policy, 2, RngStream(0), explore=False)
    assert batch.record is None
    with pytest.raises(ValueError, match="exploration"):
        reinforce_gradient_from_batch(policy, batch, GAMMA)
