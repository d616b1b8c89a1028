"""Trainer tests: config validation, regularization step, full runs.

The expensive convergence claims (10-seed LQR parity, gated-fraction
statistics) live in test_acceptance.py; here we pin the step-level
contracts and the cheap end-to-end behaviours.
"""

import numpy as np
import pytest

import rpg.policy
from helpers import per_row_reinforce_field
from rpg.divergence import DivergenceReport, divergence_report
from rpg.envs import lqr_expected_return, make_env, riccati_gain
from rpg.errors import NonFiniteField
from rpg.fields import ProbeConfig
from rpg.metricnet import MetricNetConfig, build_u_field, init_params
from rpg.policy import LinearGainPolicy, ParamPolicy, rollout
from rpg.rng import RngStream
from rpg.training import (TrainConfig, _build_policy, _gradient_field,
                          evaluate_policy, regularize_step, run_training)


def bowl_field(dim):
    env = make_env("landscape", objective="bowl", dim=dim)
    return env, (lambda pts: env.analytic_gradient(pts))


def fresh_phi(dim, m_tilde=3, seed=7):
    return init_params(RngStream(seed).spawn("phi-init"),
                       MetricNetConfig(m_tilde=m_tilde),
                       ParamPolicy(dim).layout)


# ---------------------------------------------------------------- config


def test_config_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.variant == "baseline"
    assert cfg.gamma == 0.99
    assert cfg.update_interval == 50


@pytest.mark.parametrize("kwargs,field_name", [
    (dict(variant="Q"), "variant"),
    (dict(total_steps=10, update_interval=50), "total_steps"),
    (dict(update_interval=0), "update_interval"),
    (dict(policy_lr=0.0), "policy_lr"),
    (dict(gamma=1.5), "gamma"),
    (dict(gamma=0.0), "gamma"),
    (dict(probe_count=0), "probe_count"),
    (dict(kappa=-0.1), "kappa"),
    (dict(metric_iters=0), "metric_iters"),
    (dict(gradient_backend="sgd"), "gradient_backend"),
    (dict(eval_episodes=0), "eval_episodes"),
    (dict(probe_episodes=0), "probe_episodes"),
    (dict(policy_lr=float("nan")), "policy_lr"),
    (dict(seed=-1), "seed"),
    (dict(kappa=float("nan")), "kappa"),
    (dict(kappa=float("inf")), "kappa"),
    (dict(metric_lr=float("nan")), "metric_lr"),
    (dict(metric_lr=-0.01), "metric_lr"),
    (dict(metric_lr=0.0), "metric_lr"),
    (dict(metric_lr=float("inf")), "metric_lr"),
    (dict(kick_scale=float("nan")), "kick_scale"),
    (dict(kick_scale=-0.005), "kick_scale"),
    (dict(kick_scale=float("inf")), "kick_scale"),
    (dict(m_tilde=-1), "m_tilde"),
    (dict(explore_sigma=float("nan")), "explore_sigma"),
    (dict(explore_sigma=float("inf")), "explore_sigma"),
    (dict(explore_sigma=0.0), "explore_sigma"),
    (dict(explore_sigma=-0.1), "explore_sigma"),
])
def test_config_validation_names_offending_field(kwargs, field_name):
    with pytest.raises(ValueError, match=field_name):
        TrainConfig(**kwargs)


def test_invalid_gamma_message_carries_value():
    with pytest.raises(ValueError, match="1.5"):
        TrainConfig(gamma=1.5)


def test_gate_defaults_on_for_variant_t_only():
    assert not TrainConfig(variant="baseline").resolved_gate()
    assert not TrainConfig(variant="J").resolved_gate()
    assert TrainConfig(variant="T").resolved_gate()
    # explicit override wins in both directions
    assert TrainConfig(variant="T", gate_enabled=False).resolved_gate() is False
    assert TrainConfig(variant="J", gate_enabled=True).resolved_gate() is True


def test_gate_rule_needs_gate_on_and_ratio_at_least_one():
    """One predicate decides both the step and the recorded gate flag."""
    def report(ratio):
        return DivergenceReport(div=ratio, hessian_trace=1.0, ratio=ratio,
                                method="estimated")

    assert TrainConfig(variant="T").gates(report(1.0))
    assert not TrainConfig(variant="T").gates(report(0.5))
    assert not TrainConfig(variant="J").gates(report(2.0))
    assert TrainConfig(variant="J", gate_enabled=True).gates(report(2.0))


def test_kappa_defaults_to_half_policy_lr():
    assert TrainConfig(policy_lr=0.04).resolved_kappa() == 0.02
    assert TrainConfig(policy_lr=0.04, kappa=0.3).resolved_kappa() == 0.3


def test_backend_resolution():
    cfg = TrainConfig()
    assert cfg.resolved_backend("lqr") == "analytic"
    assert cfg.resolved_backend("landscape") == "analytic"
    assert cfg.resolved_backend("pointmass") == "reinforce"
    forced = TrainConfig(gradient_backend="reinforce")
    assert forced.resolved_backend("lqr") == "reinforce"


# ------------------------------------------------------- regularize_step


def test_baseline_is_passthrough():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="baseline")
    theta = np.array([0.3, -0.2, 0.5, 0.1])
    grad = grad_fn(theta)
    phi = object()  # must not be consulted at all
    direction, report, phi_out = regularize_step(
        theta, grad, phi, cfg, grad_fn, ProbeConfig(probe_count=8, seed=0))
    assert np.array_equal(direction, grad)
    assert direction is not grad          # caller may mutate safely
    assert phi_out is phi
    assert report.method == "none"
    assert report.div == 0.0 and report.ratio == 1.0


def test_nonfinite_gradient_is_rejected():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="baseline")
    bad = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteField):
        regularize_step(np.zeros(4), bad, None, cfg,
                        grad_fn, ProbeConfig(probe_count=8, seed=0))


def test_zero_head_variant_j_reduces_to_euclidean():
    # frozen zero heads mean u = 0 everywhere: the metric is the identity,
    # the direction is bitwise the plain gradient, and the shared-probe
    # construction makes the divergence ratio exactly 1
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    phi = fresh_phi(4)
    direction, report, phi_out = regularize_step(
        theta, grad, phi, cfg, grad_fn, ProbeConfig(probe_count=16, seed=3))
    assert np.array_equal(direction, grad)
    assert report.ratio == 1.0
    assert phi_out is phi


def test_gate_falls_back_at_ratio_one():
    # same zero-head fixture with the gate switched on: ratio = 1 trips the
    # >= 1 rule, so the returned direction must be the raw gradient
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True,
                      gate_enabled=True)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    direction, report, _ = regularize_step(
        theta, grad, fresh_phi(4), cfg, grad_fn,
        ProbeConfig(probe_count=16, seed=3))
    assert report.ratio >= 1.0
    assert np.array_equal(direction, grad)


def test_nonfinite_metric_falls_back_with_flagged_report():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    phi = fresh_phi(4)
    phi.head_omega_w[:] = np.inf
    with np.errstate(invalid="ignore"):
        direction, report, _ = regularize_step(
            theta, grad, phi, cfg, grad_fn, ProbeConfig(probe_count=8,
                                                        seed=0))
    assert np.array_equal(direction, grad)
    assert report.method == "fallback"
    assert np.isinf(report.ratio)


def test_variant_j_preserves_ascent_direction():
    # direction . grad = grad^T G^-1 grad > 0 for any positive-definite
    # metric; check it on trained (nonzero-head) metrics at random points
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", policy_lr=0.05,
                      probe_count=16, metric_iters=10)
    for seed in range(5):
        rng = RngStream(seed)
        theta = rng.uniform(-1.0, 1.0, size=4)
        grad = grad_fn(theta)
        direction, _, _ = regularize_step(
            theta, grad, fresh_phi(4, seed=seed), cfg, grad_fn,
            ProbeConfig(probe_count=16, seed=seed))
        assert float(direction @ grad) > 0.0


def test_algorithm_step_lowers_median_ratio_variant_t():
    # paired before/after comparison over 10 seeds on the quadratic bowl:
    # the metric refinement inside regularize_step should lower the
    # divergence ratio in median (heads start at a small random
    # perturbation so the "before" ratio is off the exact-1.0 reduction)
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="T", probe_count=16,
                      metric_iters=20, policy_lr=0.05)
    before, after = [], []
    for seed in range(10):
        rng = RngStream(seed)
        theta = rng.uniform(-1.0, 1.0, size=4)
        phi = fresh_phi(4, seed=seed)
        kick = rng.spawn("kick")
        phi.head_omega_w += kick.normal(size=phi.head_omega_w.shape,
                                        scale=0.1)
        phi.head_sigma_w += kick.normal(size=phi.head_sigma_w.shape,
                                        scale=0.1)
        probe_cfg = ProbeConfig(probe_count=16, seed=seed)
        before.append(divergence_report(grad_fn, build_u_field(phi), theta,
                                        probe_cfg).ratio)
        _, report, _ = regularize_step(theta, grad_fn(theta), phi, cfg,
                                       grad_fn, probe_cfg)
        after.append(report.ratio)
    assert np.median(after) < np.median(before)


# ----------------------------------------------------------- run_training


def test_bowl_baseline_converges():
    cfg = TrainConfig(env_kind="landscape",
                      env_params={"objective": "bowl", "dim": 4},
                      variant="baseline", total_steps=500, update_interval=1,
                      policy_lr=0.05, seed=0)
    summary = run_training(cfg)
    assert not summary.aborted
    assert len(summary.records) == 500
    assert np.linalg.norm(summary.final_theta) <= 1e-2


def test_bowl_variant_j_converges():
    cfg = TrainConfig(env_kind="landscape",
                      env_params={"objective": "bowl", "dim": 4},
                      variant="J", total_steps=500, update_interval=1,
                      policy_lr=0.05, probe_count=8, seed=0)
    summary = run_training(cfg)
    assert not summary.aborted
    assert np.linalg.norm(summary.final_theta) <= 1e-2


def test_gate_bookkeeping_is_exact():
    # with the gate on and ratio pinned to exactly 1.0 (frozen zero heads),
    # every record must be flagged and every step must have used the raw
    # gradient -- i.e. the theta trajectory matches baseline bit for bit
    base = dict(env_kind="landscape",
                env_params={"objective": "bowl", "dim": 3},
                total_steps=40, update_interval=1, policy_lr=0.05,
                probe_count=8, seed=11)
    gated = run_training(TrainConfig(variant="J", freeze_phi=True,
                                     gate_enabled=True, **base))
    plain = run_training(TrainConfig(variant="baseline", **base))
    assert all(r.gate for r in gated.records)
    assert all(r.ratio == 1.0 for r in gated.records)
    assert np.array_equal(gated.final_theta, plain.final_theta)


def test_baseline_equivalence_of_frozen_zero_head_j():
    base = dict(env_kind="lqr", total_steps=300, update_interval=50,
                policy_lr=0.02, probe_count=8, seed=4)
    plain = run_training(TrainConfig(variant="baseline", **base))
    frozen = run_training(TrainConfig(variant="J", freeze_phi=True, **base))
    assert np.array_equal(plain.final_theta, frozen.final_theta)
    assert [r.eval_return for r in plain.records] == \
           [r.eval_return for r in frozen.records]
    # the metric diagnostics differ (baseline logs the neutral report) but
    # the frozen-zero-head ratio is the exact Euclidean reduction
    assert all(r.ratio == 1.0 for r in frozen.records)


def test_identical_seed_reproduces_run():
    cfg = dict(env_kind="lqr", variant="T", total_steps=200,
               update_interval=50, probe_count=8, seed=9)
    a = run_training(TrainConfig(**cfg))
    b = run_training(TrainConfig(**cfg))
    assert np.array_equal(a.final_theta, b.final_theta)
    for ra, rb in zip(a.records, b.records):
        assert ra.step == rb.step
        assert ra.eval_return == rb.eval_return
        assert ra.div == rb.div
        assert ra.hessian_trace == rb.hessian_trace
        assert ra.ratio == rb.ratio
        assert ra.gate == rb.gate        # wall_ms is the only free column


def test_lqr_run_improves_exact_cost():
    # eval returns average 10 random-start episodes and are too noisy for a
    # progress comparison, so score the parameter vectors exactly; the
    # determinism contract makes the short run a prefix of the long one
    base = dict(env_kind="lqr", variant="baseline", update_interval=50,
                policy_lr=0.02, seed=2)
    early = run_training(TrainConfig(total_steps=100, **base))
    late = run_training(TrainConfig(total_steps=1500, **base))
    env = make_env("lqr")
    gamma = 0.99
    cost = lambda th: float(lqr_expected_return(th, env, gamma))
    k_opt, _ = riccati_gain(env, gamma)
    opt_cost = cost(np.concatenate([k_opt.ravel(), np.zeros(1)]))
    assert cost(late.final_theta) > cost(early.final_theta)
    assert cost(late.final_theta) >= opt_cost * 1.05  # within 5% (negative)


def test_abort_on_nonfinite_theta_returns_partial_summary():
    # a destructive step size blows the gains up within a few updates; the
    # run must stop early, keep the records it made, and say so
    cfg = TrainConfig(env_kind="lqr", variant="baseline", total_steps=2000,
                      update_interval=50, policy_lr=100.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_training(cfg)
    assert summary.aborted
    assert len(summary.records) < 40


def test_abort_on_nonfinite_evaluation_keeps_last_finite_return():
    # a step of 1e3 on the bowl overflows theta within ~100 updates; the
    # update whose evaluation is no longer finite must end the run without
    # leaving a record, so final_return is the last finite evaluation
    cfg = TrainConfig(env_kind="landscape",
                      env_params={"objective": "bowl", "dim": 4},
                      variant="baseline", total_steps=200, update_interval=1,
                      policy_lr=1e3, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_training(cfg)
    assert summary.aborted
    assert 0 < len(summary.records) < 200
    assert all(np.isfinite(r.eval_return) for r in summary.records)
    assert summary.final_return == summary.records[-1].eval_return
    assert np.isfinite(summary.final_return)


def test_records_fraction_matches_definition():
    cfg = TrainConfig(env_kind="lqr", variant="J", total_steps=500,
                      update_interval=50, probe_count=8, seed=1)
    summary = run_training(cfg)
    ratios = np.array([r.ratio for r in summary.records])
    assert summary.fraction_ratio_below_one == np.mean(ratios < 1.0)
    assert 0.0 <= summary.fraction_ratio_below_one <= 1.0
    assert summary.best_return == max(r.eval_return for r in summary.records)
    assert summary.config["variant"] == "J"


def test_reinforce_backend_smoke():
    # 200-step intervals give 4-episode batches, which keeps the baseline
    # active and the single-sample variance inside the stable band
    cfg = dict(env_kind="lqr", variant="baseline",
               gradient_backend="reinforce", total_steps=600,
               update_interval=200, policy_lr=0.002, seed=3)
    a = run_training(TrainConfig(**cfg))
    b = run_training(TrainConfig(**cfg))
    assert not a.aborted
    assert all(np.isfinite(r.eval_return) for r in a.records)
    assert np.array_equal(a.final_theta, b.final_theta)


def test_pointmass_variant_j_smoke():
    # exercises the REINFORCE probe field + metric net over the full MLP
    # parameter vector; tiny budgets keep it a wiring test, not a claim
    cfg = TrainConfig(env_kind="pointmass", variant="J", total_steps=100,
                      update_interval=50, probe_count=4, probe_episodes=2,
                      metric_iters=2, eval_episodes=2, policy_lr=0.001,
                      seed=0)
    summary = run_training(cfg)
    assert not summary.aborted
    assert len(summary.records) == 2
    assert all(np.isfinite(r.ratio) for r in summary.records)


# ------------------------------------------------ REINFORCE gradient field

NOISY_2D = dict(a=[[0.9, 0.2], [0.0, 0.8]], b=[[1.0, 0.0], [0.3, 1.0]],
                q=[[1.0, 0.0], [0.0, 0.5]], r=[[1.0, 0.0], [0.0, 0.7]],
                horizon=30, noise_scale=0.2)


def reinforce_case(env_kind, env_params, rows, seed):
    """A reinforce-backend field and `rows` points scattered around theta0."""
    cfg = TrainConfig(env_kind=env_kind, env_params=env_params,
                      gradient_backend="reinforce", probe_episodes=3)
    env = make_env(env_kind, **env_params)
    policy = _build_policy(env, cfg, RngStream(seed).spawn("policy-init"))
    theta = policy.theta
    points = theta + RngStream(seed).normal(size=(rows, theta.size),
                                            scale=0.05 * (1 + abs(theta)))
    field = _gradient_field(env, policy, cfg, "reinforce", 1000 + seed)
    return cfg, env, policy, points, field


@pytest.mark.parametrize("env_kind,env_params,rows", [
    ("pointmass", {}, 1), ("pointmass", {}, 9), ("pointmass", {}, 17),
    ("lqr", {}, 9), ("lqr", NOISY_2D, 9)],
    ids=["pointmass-1", "pointmass-9", "pointmass-17", "lqr", "lqr-noisy-2d"])
def test_batched_reinforce_field_matches_per_row_reference(
        env_kind, env_params, rows):
    cfg, env, policy, points, field = reinforce_case(env_kind, env_params,
                                                     rows, seed=rows)
    got = field(points)
    want = per_row_reinforce_field(env, policy, points, cfg.probe_episodes,
                                   cfg.gamma, 1000 + rows)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert got.shape == points.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.all(np.abs(field(points[0]) - got[0]) <= 1e-12 * scale[0])


def test_reinforce_field_rows_in_several_blocks(monkeypatch):
    cfg, env, policy, points, field = reinforce_case("pointmass", {}, 9, 9)
    want = field(points)
    monkeypatch.setattr(rpg.policy, "ROW_BLOCK", 4)
    assert np.array_equal(field(points), want)


@pytest.mark.parametrize("env_kind,env_params,events_per_step", [
    ("pointmass", {}, 1), ("lqr", NOISY_2D, 2)])
def test_reinforce_field_draw_events_do_not_depend_on_rows(
        monkeypatch, env_kind, env_params, events_per_step):
    counted = [0]
    draw = RngStream._next_generator

    def counting(stream):
        counted[0] += 1
        return draw(stream)

    cfg, env, _, points, field = reinforce_case(env_kind, env_params, 17, 5)
    monkeypatch.setattr(RngStream, "_next_generator", counting)
    expected = cfg.probe_episodes * (1 + events_per_step * env.horizon)
    for rows in (1, 4, 17):
        counted[0] = 0
        field(points[:rows])
        assert counted[0] == expected


def test_evaluate_policy_matches_manual_mean():
    env = make_env("lqr")
    policy = LinearGainPolicy(1, 1, sigma=0.1, k=np.array([[0.5]]))
    got = evaluate_policy(env, policy, 6, 0.99, RngStream(21))
    rng = RngStream(21)
    want = np.mean([rollout(env, policy, rng, explore=False)
                    .discounted_return(0.99) for _ in range(6)])
    assert got == want


def test_final_theta_is_the_policy_vector():
    cfg = TrainConfig(env_kind="lqr", total_steps=100, update_interval=50,
                      seed=6)
    summary = run_training(cfg)
    assert summary.final_theta.shape == (2,)    # gain + bias for 1-D plant
    assert np.all(np.isfinite(summary.final_theta))
