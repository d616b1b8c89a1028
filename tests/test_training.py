"""Trainer tests: config validation, regularization step, full runs.

The expensive convergence claims (10-seed LQR parity, gated-fraction
statistics) live in test_acceptance.py; here we pin the step-level
contracts and the cheap end-to-end behaviours.
"""

import inspect

import numpy as np
import pytest

import rpg.envs
import rpg.metricnet
import rpg.policy
import rpg.training
from helpers import (per_row_reinforce_field, probe_rows,
                     reference_rollout, scalar_evaluate_policy)
from rpg.divergence import DivergenceReport, divergence_report
from rpg.envs import lqr_expected_return, make_env, riccati_gain
from rpg.errors import NonFiniteField
from rpg.metric import MetricPoint, inverse_apply
from rpg.geodesic import geodesic_gradient
from rpg.metricnet import (MetricNetConfig, UField, init_params,
                           train_metric_net)
from rpg.policy import (LinearGainPolicy, ParamPolicy,
                        reinforce_gradient_from_batch)
from rpg.rng import RngStream
from rpg.reporting import ratio_fraction
from rpg.training import (FALLBACK_REPORT, TrainConfig, _build_policy,
                          _gradient_field, evaluate_policy, regularize_step,
                          run_training)
from test_acceptance import LQR_PROTOCOL


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


def test_gate_rule_needs_gate_on_and_ratio_at_least_one(monkeypatch):
    """One predicate decides both the step and the returned gate flag:
    regularize_step, its report's ratio set, returns the plain gradient
    exactly when it returns gated."""
    _, grad_fn = bowl_field(4)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    phi = fresh_phi(4)
    phi.head_omega_w += RngStream(11).uniform(-0.1, 0.1,
                                              phi.head_omega_w.shape)

    def gated(ratio, **kwargs):
        report = DivergenceReport(div=ratio, hessian_trace=1.0, ratio=ratio)
        monkeypatch.setattr(rpg.training, "divergence_report",
                            lambda *args: report)
        cfg = TrainConfig(env_kind="landscape", freeze_phi=True, **kwargs)
        direction, got, flag, _ = regularize_step(theta, grad, phi, cfg,
                                                  grad_fn, 0)
        assert got is report
        assert np.array_equal(direction, grad) == flag
        return flag

    assert gated(1.0, variant="T")
    assert not gated(0.5, variant="T")
    assert not gated(2.0, variant="J")
    assert gated(2.0, variant="J", gate_enabled=True)


def test_kappa_defaults_to_half_policy_lr():
    assert TrainConfig(policy_lr=0.04).resolved_kappa() == 0.02
    assert TrainConfig(policy_lr=0.04, kappa=0.3).resolved_kappa() == 0.3


def test_backend_resolution():
    for kind, backend in (("lqr", "analytic"), ("landscape", "analytic"),
                          ("pointmass", "reinforce")):
        assert TrainConfig(env_kind=kind).resolved_backend() == backend
    forced = TrainConfig(gradient_backend="reinforce")
    assert forced.resolved_backend() == "reinforce"


# ------------------------------------------------------- regularize_step


def test_baseline_is_passthrough():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="baseline",
                      probe_count=8)
    theta = np.array([0.3, -0.2, 0.5, 0.1])
    grad = grad_fn(theta)
    phi = object()  # must not be consulted at all
    direction, report, gated, phi_out = regularize_step(
        theta, grad, phi, cfg, grad_fn, 0)
    assert np.array_equal(direction, grad)
    assert direction is not grad          # caller may mutate safely
    assert phi_out is phi
    assert gated is False
    assert report.div == 0.0 and report.ratio == 1.0


def test_nonfinite_gradient_is_rejected():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="baseline",
                      probe_count=8)
    bad = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteField):
        regularize_step(np.zeros(4), bad, None, cfg, grad_fn, 0)


def test_zero_head_variant_j_reduces_to_euclidean():
    # frozen zero heads mean u = 0 everywhere: the metric is the identity,
    # the direction is bitwise the plain gradient, and the shared-probe
    # construction makes the divergence ratio exactly 1
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True,
                      probe_count=16)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    phi = fresh_phi(4)
    direction, report, gated, phi_out = regularize_step(
        theta, grad, phi, cfg, grad_fn, 3)
    assert np.array_equal(direction, grad)
    assert report.ratio == 1.0
    assert gated is False
    assert phi_out is phi


def test_j_step_draws_cfg_probe_count_in_one_field_call():
    """K = cfg.probe_count probes per matrix, one training matrix for all
    cfg.metric_iters iterations and the report's: one field call of theta
    and 4K probe rows."""
    _, grad_fn = bowl_field(4)
    calls = []

    def field(pts):
        calls.append(len(pts))
        return grad_fn(pts)

    cfg = TrainConfig(env_kind="landscape", variant="J", probe_count=5,
                      metric_iters=2)
    regularize_step(np.array([0.4, -0.7, 0.2, 0.9]), None, fresh_phi(4), cfg,
                    field, 0)
    assert calls == [1 + 4 * 5]


def test_gate_falls_back_at_ratio_one():
    # same zero-head fixture with the gate switched on: ratio = 1 trips the
    # >= 1 rule, so the returned direction must be the raw gradient
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True,
                      gate_enabled=True, probe_count=16)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    direction, report, gated, _ = regularize_step(
        theta, grad, fresh_phi(4), cfg, grad_fn, 3)
    assert report.ratio >= 1.0
    assert gated is True
    assert np.array_equal(direction, grad)


def test_nonfinite_metric_falls_back_with_flagged_report():
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant="J", freeze_phi=True,
                      probe_count=8)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    grad = grad_fn(theta)
    phi = fresh_phi(4)
    phi.head_omega_w[:] = np.inf
    with np.errstate(invalid="ignore"):
        direction, report, gated, _ = regularize_step(
            theta, grad, phi, cfg, grad_fn, 0)
    assert np.array_equal(direction, grad)
    assert gated is True
    assert np.isnan(report.div) and np.isinf(report.ratio)


@pytest.mark.parametrize("variant", ["J", "T"])
def test_nonfinite_direction_falls_back_in_both_variants(variant):
    # u ~ 1e155 and a gradient of 1e160 overflow G^-1 grad; T must fall
    # back to the plain gradient the way J does, not raise
    env, grad_fn = bowl_field(4)
    cfg = TrainConfig(env_kind="landscape", variant=variant,
                      freeze_phi=True, gate_enabled=False, probe_count=8)
    phi = fresh_phi(4)
    phi.head_omega_b[:] = 1e155
    grad = np.full(4, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        direction, report, gated, _ = regularize_step(
            np.array([0.4, -0.7, 0.2, 0.9]), grad, phi, cfg, grad_fn, 0)
    assert np.array_equal(direction, grad)
    assert gated is True
    assert np.isnan(report.div) and np.isinf(report.ratio)


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
        direction, _, _, _ = regularize_step(
            theta, grad, fresh_phi(4, seed=seed), cfg, grad_fn, seed)
        assert float(direction @ grad) > 0.0


def forward_rows_after_training(monkeypatch, cfg):
    """regularize_step on a 4-dim bowl, with the rows of every metric-net
    forward made after metric training and the number of ``_collapse``
    calls made then: (direction, report, gated, phi, rows, collapses)."""
    env, grad_fn = bowl_field(4)
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    forward = rpg.metricnet.metric_net_forward
    collapse = rpg.metricnet._collapse
    train = rpg.training.train_metric_net
    trained, rows, collapses = [False], [], [0]

    def counting(phi, points, front=None):
        if trained[0]:
            rows.append(len(points))
        return forward(phi, points, front)

    def counting_collapse(phi):
        collapses[0] += trained[0]
        return collapse(phi)

    def training(*args, **kwargs):
        out = train(*args, **kwargs)
        trained[0] = True
        return out

    monkeypatch.setattr(rpg.metricnet, "metric_net_forward", counting)
    monkeypatch.setattr(rpg.metricnet, "_collapse", counting_collapse)
    monkeypatch.setattr(rpg.training, "train_metric_net", training)
    out = regularize_step(theta, grad_fn(theta), fresh_phi(4), cfg, grad_fn,
                          2)
    return out + (rows, collapses[0])


def test_j_update_forwards_u_at_theta_once(monkeypatch):
    # after metric training, u(theta) is forwarded once, for the report's
    # frozen batch, and J = G^-1 grad reuses that row bitwise; both
    # forwards read one collapsed matrix of the final phi
    cfg = TrainConfig(env_kind="landscape", variant="J", probe_count=8,
                      metric_iters=3)
    direction, _, _, phi, rows, collapses = forward_rows_after_training(
        monkeypatch, cfg)
    assert rows == [1, 2 * 8 + 3]    # that row, then the frozen batch
    assert collapses == 1
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    u0 = UField(phi)(theta)
    assert np.array_equal(direction,
                          inverse_apply(MetricPoint(u0),
                                        bowl_field(4)[1](theta)))


def test_t_update_forwards_u_at_theta_once(monkeypatch):
    # T's vector-Jacobian product reuses the one-row forward at theta that
    # the report froze its batch with, and the collapsed matrix of both
    # forwards; T is the same bits as with a product that forwards theta
    # afresh
    cfg = TrainConfig(env_kind="landscape", variant="T", probe_count=8,
                      metric_iters=3, gate_enabled=False)
    direction, _, _, phi, rows, collapses = forward_rows_after_training(
        monkeypatch, cfg)
    assert rows == [1, 2 * 8 + 3]
    assert collapses == 1
    theta = np.array([0.4, -0.7, 0.2, 0.9])
    u0, u_vjp = UField(phi).at(theta)
    grad_j = inverse_apply(MetricPoint(u0), bowl_field(4)[1](theta))
    assert np.array_equal(direction, geodesic_gradient(
        u_vjp, theta, grad_j, cfg.resolved_kappa()))


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
        u_fn = UField(phi)
        before.append(divergence_report(
            u_fn, probe_rows(grad_fn, theta, 16, seed), u_fn(theta)).ratio)
        _, report, _, _ = regularize_step(theta, grad_fn(theta), phi, cfg,
                                          grad_fn, seed)
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


def test_frozen_zero_head_j_is_bitwise_baseline_on_pointmass():
    """The same reduction on the 7-part conv/pool layout of pointmass, at
    the rpg train defaults: zero heads give u = 0 whatever the collapsed
    chain holds, so every record and the final theta equal baseline's bit
    for bit, up to where the runs end (ROADMAP item 1)."""
    with np.errstate(all="ignore"):
        plain = run_training(TrainConfig(env_kind="pointmass",
                                         variant="baseline", seed=0))
        frozen = run_training(TrainConfig(env_kind="pointmass", variant="J",
                                          freeze_phi=True, seed=0))
    assert plain.records and plain.aborted == frozen.aborted
    assert np.array_equal(plain.final_theta, frozen.final_theta)
    assert [(r.step, r.eval_return) for r in plain.records] == \
           [(r.step, r.eval_return) for r in frozen.records]


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
    assert summary.aborted and summary.abort_reason == "evaluation"
    assert 0 < len(summary.records) < 200
    assert all(np.isfinite(r.eval_return) for r in summary.records)
    assert summary.final_return == summary.records[-1].eval_return
    assert np.isfinite(summary.final_return)
    # the failed step is undone: final_theta is the theta that the last
    # record's evaluation was measured at, as a run that stops there has
    shorter = run_training(TrainConfig(**{**vars(cfg),
                                          "total_steps":
                                          summary.records[-1].step}))
    assert not shorter.aborted
    assert shorter.final_return == summary.final_return
    assert np.array_equal(summary.final_theta, shorter.final_theta)


def test_abort_reason_names_the_check_that_ended_the_run(monkeypatch):
    # pointmass at the defaults: the third update's gradient is not
    # finite while theta still is (ROADMAP item 1)
    with np.errstate(over="ignore", invalid="ignore"):
        summary = run_training(TrainConfig(env_kind="pointmass"))
    assert summary.abort_reason == "gradient" and len(summary.records) == 2
    assert np.all(np.isfinite(summary.final_theta))
    finished = run_training(TrainConfig(total_steps=50))
    assert finished.abort_reason is None and not finished.aborted
    # a finite direction whose step overflows theta
    step = rpg.training.regularize_step

    def overflowing(theta, *args):
        direction, report, gated, phi = step(theta, *args)
        return np.full_like(direction, 1e308), report, gated, phi

    monkeypatch.setattr(rpg.training, "regularize_step", overflowing)
    cfg = TrainConfig(policy_lr=10.0)
    with np.errstate(over="ignore"):
        summary = run_training(cfg)
    assert summary.abort_reason == "parameters" and not summary.records
    # with no record, the run reports theta_0, not the overflowed step
    theta0 = _build_policy(make_env(cfg.env_kind), cfg,
                           RngStream(cfg.seed).spawn("policy-init")).theta
    assert np.array_equal(summary.final_theta, theta0)


FRACTION_CFG = TrainConfig(env_kind="lqr", variant="J", total_steps=500,
                           update_interval=50, probe_count=8, seed=1)


def check_fraction(summary):
    """The summary's ratio<1 fraction is the shared ``ratio_fraction`` of
    its records, which is the mean of ratio < 1 (0.0 with no record)."""
    ratios = np.array([r.ratio for r in summary.records])
    want = float(np.mean(ratios < 1.0)) if len(ratios) else 0.0
    assert summary.fraction_ratio_below_one == want
    assert summary.fraction_ratio_below_one == ratio_fraction(
        summary.records)
    assert 0.0 <= summary.fraction_ratio_below_one <= 1.0


def test_records_fraction_matches_definition():
    summary = run_training(FRACTION_CFG)
    check_fraction(summary)
    assert summary.best_return == max(r.eval_return for r in summary.records)
    assert summary.config["variant"] == "J"


@pytest.mark.parametrize("case", ["no-record", "fallback"])
def test_records_fraction_matches_definition_on_aborts_and_fallbacks(
        monkeypatch, case):
    step = rpg.training.regularize_step
    calls = []

    def patched(theta, *args):
        direction, report, gated, phi = step(theta, *args)
        calls.append(theta)
        if case == "no-record":
            # a finite direction whose step overflows theta
            return np.full_like(direction, 1e308), report, gated, phi
        if len(calls) == 2:
            return direction, FALLBACK_REPORT, True, phi
        return direction, report, gated, phi

    monkeypatch.setattr(rpg.training, "regularize_step", patched)
    if case == "no-record":
        with np.errstate(over="ignore"):
            summary = run_training(TrainConfig(policy_lr=10.0))
        assert summary.abort_reason == "parameters" and not summary.records
        assert summary.fraction_ratio_below_one == 0.0
    else:
        summary = run_training(FRACTION_CFG)
        assert not summary.aborted
        assert summary.records[1].ratio == np.inf and summary.records[1].gate
    check_fraction(summary)


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


def test_pointmass_reinforce_field_plays_the_runs_policy(monkeypatch):
    # the field reads the policy's layout and row methods, never its
    # theta, so a J run builds one policy and every field call plays it
    built, played = [], []
    build = rpg.training._build_policy
    reinforce_field = rpg.training.reinforce_field

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def recorded_reinforce(env, policy, *args):
        played.append(policy)
        return reinforce_field(env, policy, *args)

    monkeypatch.setattr(rpg.training, "_build_policy", counted_build)
    monkeypatch.setattr(rpg.training, "reinforce_field", recorded_reinforce)
    cfg = TrainConfig(env_kind="pointmass", variant="J", total_steps=100,
                      update_interval=50, probe_count=4, probe_episodes=2,
                      metric_iters=2, eval_episodes=2, policy_lr=0.001,
                      seed=0)
    summary = run_training(cfg)
    assert not summary.aborted and len(summary.records) == 2
    assert len(built) == 1
    assert len(played) == 2 and all(p is built[0] for p in played)


TWO_STATE = dict(a=[[0.9, 0.2], [0.0, 0.8]], b=[[1.0, 0.0], [0.3, 1.0]],
                 q=[[1.0, 0.0], [0.0, 0.5]], r=[[1.0, 0.0], [0.0, 0.7]],
                 horizon=40, noise_scale=0.1)


def fresh_gradients(monkeypatch, cfg):
    """(theta, update gradient) of every update of a run, as
    regularize_step receives them."""
    seen = []
    step = rpg.training.regularize_step

    def recorded(theta, grad, *args):
        seen.append((theta, grad))
        return step(theta, grad, *args)

    monkeypatch.setattr(rpg.training, "regularize_step", recorded)
    with np.errstate(all="ignore"):
        run_training(cfg)
    return seen


def reference_fresh_gradients(cfg, thetas):
    """The fresh batch at each theta, played one step at a time
    (``reference_rollout``) on the run's rollout stream."""
    env = make_env(cfg.env_kind, **cfg.env_params)
    root = RngStream(cfg.seed)
    policy = _build_policy(env, cfg, root.spawn("policy-init"))
    stream = root.spawn("rollout")
    episodes = -(-cfg.update_interval // env.horizon)
    out = []
    for theta in thetas:
        policy.set_theta(theta)
        with np.errstate(all="ignore"):
            batch = reference_rollout(env, policy, episodes, stream)
            out.append(reinforce_gradient_from_batch(policy, batch,
                                                     cfg.gamma))
    return out


@pytest.mark.parametrize("env_kind,env_params", [
    ("pointmass", {}), ("lqr", {"noise_scale": 0.3})],
    ids=["pointmass", "lqr-noisy"])
def test_one_episode_fresh_batch_equals_the_per_step_reference_bitwise(
        monkeypatch, env_kind, env_params):
    for seed in range(3):
        cfg = TrainConfig(env_kind=env_kind, env_params=env_params,
                          gradient_backend="reinforce", total_steps=150,
                          seed=seed)
        seen = fresh_gradients(monkeypatch, cfg)
        want = reference_fresh_gradients(cfg, [theta for theta, _ in seen])
        assert seen
        for (_, got), ref in zip(seen, want):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("env_kind,env_params,interval,episodes", [
    ("pointmass", {}, 120, 3), ("lqr", TWO_STATE, 80, 2)],
    ids=["pointmass-120", "lqr-two-state-80"])
def test_several_episode_fresh_batch_agrees_with_the_per_step_reference(
        monkeypatch, env_kind, env_params, interval, episodes):
    # the episodes' matrix products run over E states at once, which may
    # round differently from one state at a time
    cfg = TrainConfig(env_kind=env_kind, env_params=env_params,
                      gradient_backend="reinforce", update_interval=interval,
                      total_steps=3 * interval, policy_lr=0.001, seed=1)
    env = make_env(env_kind, **env_params)
    assert -(-interval // env.horizon) == episodes
    seen = fresh_gradients(monkeypatch, cfg)
    want = reference_fresh_gradients(cfg, [theta for theta, _ in seen])
    assert len(seen) == 3
    for (_, got), ref in zip(seen, want):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_reinforce_update_plays_its_fresh_batch_in_one_engine_call(
        monkeypatch):
    # baseline calls no field: per update one exploring play (the fresh
    # batch, E = 3 episodes at one row) and one evaluation play on the mean
    plays = []
    play = rpg.policy._play_rows

    def counted(env, policy, parts, events):
        plays.append((len(parts[0]), len(events[0]), events[1] is not None))
        return play(env, policy, parts, events)

    monkeypatch.setattr(rpg.policy, "_play_rows", counted)
    cfg = TrainConfig(env_kind="pointmass", gradient_backend="reinforce",
                      update_interval=120, total_steps=240, eval_episodes=2,
                      policy_lr=0.001, seed=0)
    summary = run_training(cfg)
    assert [r.step for r in summary.records] == [150, 300]
    assert plays == [(1, 3, True), (1, 2, False)] * 2


def test_metric_core_takes_field_rows_not_a_gradient_field():
    # the field reaches metric training and the report only as the rows
    # of one probe_field_rows call; neither can call a field itself
    for fn in (train_metric_net, divergence_report):
        params = list(inspect.signature(fn).parameters.values())
        assert "grad_fn" not in [p.name for p in params]
        assert params[1].name in ("rows", "field_rows")
        assert params[1].default is inspect.Parameter.empty
    # theta is the batch's last row, and the iterations are a count
    params = inspect.signature(train_metric_net).parameters
    assert "theta" not in params and "max_iters" not in params
    assert params["iters"].default is inspect.Parameter.empty
    # Adam's step and the kick scale come from the caller (TrainConfig)
    for name in ("lr", "kick_scale"):
        assert params[name].default is inspect.Parameter.empty


# K = 4 probes, I = 3 metric iterations: a J/T update's one field call
# holds theta, then the training matrix's 2K rows, which all I iterations
# read, then the report's 2K rows
MERGED = dict(probe_count=4, metric_iters=3)
MERGED_ROWS = 1 + 4 * 4


@pytest.mark.parametrize("variant,backend,freeze_phi,per_update", [
    ("baseline", "analytic", False, [1]),
    ("J", "analytic", False, [MERGED_ROWS]),
    ("T", "analytic", False, [MERGED_ROWS]),
    ("J", "analytic", True, [1 + 2 * 4]),
    ("baseline", "reinforce", False, []),
    ("J", "reinforce", False, [MERGED_ROWS]),
    ("T", "reinforce", False, [MERGED_ROWS]),
], ids=["baseline-analytic", "J-analytic", "T-analytic", "J-analytic-frozen",
        "baseline-reinforce", "J-reinforce", "T-reinforce"])
def test_one_field_call_per_update(monkeypatch, variant, backend, freeze_phi,
                                   per_update):
    # every field call's row count, at the names the trainer looks up
    rows = []
    lqr_field = rpg.training.lqr_return_gradient
    reinforce_field = rpg.training.reinforce_field

    def counted_lqr(pts, *args):
        rows.append(len(np.atleast_2d(pts)))
        return lqr_field(pts, *args)

    def counted_reinforce(env, policy, points, *args):
        rows.append(len(points))
        return reinforce_field(env, policy, points, *args)

    monkeypatch.setattr(rpg.training, "lqr_return_gradient", counted_lqr)
    monkeypatch.setattr(rpg.training, "reinforce_field", counted_reinforce)
    cfg = TrainConfig(env_kind="lqr", variant=variant,
                      gradient_backend=backend, freeze_phi=freeze_phi,
                      total_steps=600, update_interval=200, policy_lr=0.002,
                      probe_episodes=2, eval_episodes=2, seed=3, **MERGED)
    summary = run_training(cfg)
    assert not summary.aborted and len(summary.records) == 3
    assert rows == per_update * 3


def test_lqr_baseline_update_takes_no_reward_inside_its_horizon_loop(
        monkeypatch):
    # a baseline update is the closed-form field at theta and one
    # evaluation play: 49 advances, then one rewards call for all
    # 10 x 50 steps; the field plays no episode
    calls = []
    advance, rewards = rpg.envs.LqrEnv.advance, rpg.envs.LqrEnv.rewards

    def counted_advance(self, state, action, noise=None):
        calls.append("advance")
        return advance(self, state, action, noise)

    def counted_rewards(self, states, actions):
        calls.append(("rewards", states.shape))
        return rewards(self, states, actions)

    monkeypatch.setattr(rpg.envs.LqrEnv, "advance", counted_advance)
    monkeypatch.setattr(rpg.envs.LqrEnv, "rewards", counted_rewards)
    summary = run_training(TrainConfig(env_kind="lqr", total_steps=100,
                                       update_interval=50, seed=1))
    assert not summary.aborted and len(summary.records) == 2
    assert calls == (["advance"] * 49 + [("rewards", (1, 10, 50, 1))]) * 2


@pytest.mark.parametrize("case", ["training", "report", "theta"])
def test_non_finite_row_of_the_one_field_call_routes_by_index(monkeypatch,
                                                            case):
    """A NaN at one row of an analytic J update's field call: in a
    training row it ends metric training before its first iteration, with
    no history and no fallback; in a report row the report falls back and
    the direction is the plain gradient; at theta the run aborts and that
    update leaves no record."""
    bad = {"training": 1 + 4 + 2, "report": 1 + 2 * 4 + 5,
           "theta": 0}[case]
    calls, histories, steps = [], [], []
    lqr_field = rpg.training.lqr_return_gradient
    train = rpg.training.train_metric_net
    step = rpg.training.regularize_step

    def poisoned(pts, *args):
        out = lqr_field(pts, *args)
        calls.append(out)
        if len(calls) == 2:         # the second update's one call
            out[bad] = np.nan
        return out

    def recorded_train(*args, **kwargs):
        out = train(*args, **kwargs)
        histories.append(len(out[1]))
        return out

    def recorded_step(*args):
        steps.append(step(*args))
        return steps[-1]

    monkeypatch.setattr(rpg.training, "lqr_return_gradient", poisoned)
    monkeypatch.setattr(rpg.training, "train_metric_net", recorded_train)
    monkeypatch.setattr(rpg.training, "regularize_step", recorded_step)
    cfg = TrainConfig(env_kind="lqr", variant="J", total_steps=150,
                      update_interval=50, seed=0, **MERGED)
    summary = run_training(cfg)
    assert [len(c) for c in calls] == [MERGED_ROWS] * len(calls)
    if case == "theta":
        assert summary.aborted and len(summary.records) == 1
        assert len(calls) == 2 and histories == [3]
        return
    assert not summary.aborted and len(summary.records) == 3
    direction, report, gated, _ = steps[1]
    if case == "training":
        assert histories == [3, 0, 3]
        assert not gated and np.isfinite(report.ratio)
        assert not summary.records[1].gate
    else:
        assert histories == [3, 3, 3]
        assert gated and np.isinf(report.ratio)
        assert summary.records[1].gate
        assert np.array_equal(direction, calls[1][0])


# float.hex of the first history entry (iter, div, loss) of update 0's
# metric-training pass on LQR_PROTOCOL, variant J, seed 0, taken when
# every iteration drew its own probe matrix: iteration 0 read the first
# draw of the pass's probe stream then, as the one matrix of a pass does
# now, over the same field rows
FIRST_ENTRY_HEX = (0, "-0x1.367bd6ee572dep+8", "0x1.78902871789e4p+16")


def test_first_history_entry_of_lqr_j_update_0_is_pinned(monkeypatch):
    histories = []
    train = rpg.training.train_metric_net

    def recorded_train(*args, **kwargs):
        out = train(*args, **kwargs)
        histories.append(out[1])
        return out

    monkeypatch.setattr(rpg.training, "train_metric_net", recorded_train)
    run_training(TrainConfig(variant="J", seed=0, **dict(
        LQR_PROTOCOL, total_steps=LQR_PROTOCOL["update_interval"])))
    it, div, loss = histories[0][0]
    assert (it, float(div).hex(), float(loss).hex()) == FIRST_ENTRY_HEX


def test_pointmass_j_update_at_the_defaults_makes_one_129_row_call(
        monkeypatch):
    # theta, then K = 32 probes' 2K rows for training and 2K for the
    # report: 1 + 4 * 32 REINFORCE rows, whatever metric_iters is
    rows = []
    reinforce_field = rpg.training.reinforce_field

    def counted(env, policy, points, *args):
        rows.append(len(points))
        return reinforce_field(env, policy, points, *args)

    monkeypatch.setattr(rpg.training, "reinforce_field", counted)
    cfg = TrainConfig(env_kind="pointmass", variant="J",
                      total_steps=TrainConfig.update_interval)
    with np.errstate(all="ignore"):
        summary = run_training(cfg)
    assert len(summary.records) == 1
    assert rows == [1 + 4 * cfg.probe_count] == [129]


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


def test_reinforce_field_streams_share_no_seed_with_the_probes(monkeypatch):
    """An update's REINFORCE field plays on a stream of its own: no
    update's probe seed, which ``draw_probes`` draws from, is a field
    seed of the run."""
    field_seeds, probe_seeds = [], []
    gradient_field = rpg.training._gradient_field
    regularize = rpg.training.regularize_step

    def recording_field(env, policy, cfg, backend, field_seed):
        field_seeds.append(field_seed)
        return gradient_field(env, policy, cfg, backend, field_seed)

    def recording_step(theta, grad, phi, cfg, grad_fn, probe_seed):
        probe_seeds.append(probe_seed)
        return regularize(theta, grad, phi, cfg, grad_fn, probe_seed)

    monkeypatch.setattr(rpg.training, "_gradient_field", recording_field)
    monkeypatch.setattr(rpg.training, "regularize_step", recording_step)
    run_training(TrainConfig(env_kind="lqr", variant="J",
                             gradient_backend="reinforce", total_steps=600,
                             update_interval=200, policy_lr=0.002, seed=3))
    assert len(probe_seeds) >= 2 and len(field_seeds) == len(probe_seeds)
    assert not set(field_seeds) & set(probe_seeds)


def test_reinforce_field_rows_in_several_blocks(monkeypatch):
    cfg, env, policy, points, field = reinforce_case("pointmass", {}, 9, 9)
    want = field(points)
    monkeypatch.setattr(rpg.policy, "ROW_BLOCK", 4)
    assert np.array_equal(field(points), want)


@pytest.mark.parametrize("env_kind,env_params,parts", [
    ("pointmass", {}, (17, 9)), ("pointmass", {}, (641, 33)),
    ("lqr", NOISY_2D, (17, 9))],
    ids=["pointmass-17+9", "pointmass-641+33", "lqr-noisy-2d-17+9"])
def test_reinforce_field_merged_rows_equal_separate_calls_bitwise(
        env_kind, env_params, parts):
    # a J/T update merges training's and the report's rows into one call;
    # no row may depend on the rows called with it, across ROW_BLOCK
    # blocks included
    cfg, env, policy, points, field = reinforce_case(env_kind, env_params,
                                                     sum(parts), seed=4)
    first = parts[0]
    assert np.array_equal(field(points), np.concatenate(
        [field(points[:first]), field(points[first:])]))


@pytest.mark.parametrize("env_kind,env_params,kinds", [
    ("pointmass", {}, 1), ("lqr", NOISY_2D, 2)])
def test_reinforce_field_draw_events_do_not_depend_on_rows(
        monkeypatch, env_kind, env_params, kinds):
    # per episode the reset and one event per noise kind (action noise,
    # and dynamics noise when the dynamics are noisy), whatever the horizon
    counted = [0]
    draw = RngStream._next_generator

    def counting(stream):
        counted[0] += 1
        return draw(stream)

    cfg, env, _, points, field = reinforce_case(env_kind, env_params, 17, 5)
    monkeypatch.setattr(RngStream, "_next_generator", counting)
    expected = cfg.probe_episodes * (1 + kinds)
    for rows in (1, 4, 17):
        counted[0] = 0
        field(points[:rows])
        assert counted[0] == expected


# the benchmark's pointmass protocol (perfbench/workloads.py), cut to the
# three updates its J run plays at seed 0: two records, then the abort
# (ROADMAP item 1)
POINTMASS_BENCH = dict(env_kind="pointmass", probe_count=4, metric_iters=2,
                       total_steps=150)


@pytest.mark.parametrize("protocol,expected", [
    # 2 probe draws, 4 field episodes x (reset, action noise), the fresh
    # batch's episode x (reset, action noise), 10 evaluation resets
    (POINTMASS_BENCH, 2 + 8 + 2 + 10),
    # 2 probe draws and 10 evaluation resets; the closed form draws nothing
    (dict(LQR_PROTOCOL, total_steps=3 * LQR_PROTOCOL["update_interval"]),
     2 + 10)], ids=["pointmass", "lqr"])
def test_update_draw_event_budget(monkeypatch, protocol, expected):
    """The draw events of a J update, counted from the end of the first
    update's evaluation (the first update can add head-kick draws) to the
    end of the second's: no draw schedule that grows with the horizon or
    the rows comes back unnoticed."""
    counted, marks = [0], []
    draw, evaluate = RngStream._next_generator, rpg.training.evaluate_policy

    def counting(stream):
        counted[0] += 1
        return draw(stream)

    def marking(*args):
        out = evaluate(*args)
        marks.append(counted[0])
        return out

    monkeypatch.setattr(RngStream, "_next_generator", counting)
    monkeypatch.setattr(rpg.training, "evaluate_policy", marking)
    summary = run_training(TrainConfig(variant="J", **protocol))
    assert len(summary.records) >= 2
    assert marks[1] - marks[0] == expected


def test_evaluate_policy_matches_manual_mean():
    env = make_env("lqr")
    policy = LinearGainPolicy(1, 1, sigma=0.1, k=np.array([[0.5]]))
    got = evaluate_policy(env, policy, 6, 0.99, RngStream(21))
    assert got == scalar_evaluate_policy(env, policy, 6, 0.99,
                                         RngStream(21))


NOISY_3X2 = dict(a=[[0.9, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.7]],
                 b=[[1.0, 0.0], [0.3, 1.0], [0.0, 0.5]],
                 q=np.diag([1.0, 0.5, 0.2]), r=np.diag([1.0, 0.7]),
                 horizon=30, noise_scale=0.3)
# (env kind, env params, relative tolerance): 0 means bitwise.  The MLP and
# a multi-dim gain take matrix products over all episodes at once, whose
# BLAS kernel may round differently from the one-state product.
EVAL_CASES = [
    ("lqr", {}, 0.0),
    ("lqr", {"noise_scale": 0.3}, 0.0),
    ("landscape", {"objective": "bowl", "dim": 4}, 0.0),
    ("landscape", {"objective": "rosenbrock"}, 0.0),
    ("pointmass", {}, 1e-14),
    ("lqr", NOISY_3X2, 1e-14),
]
EVAL_IDS = ["lqr", "lqr-noisy", "bowl", "rosenbrock", "pointmass",
            "lqr-noisy-3x2"]


def eval_case(env_kind, env_params, seed):
    cfg = TrainConfig(env_kind=env_kind, env_params=env_params)
    env = make_env(env_kind, **env_params)
    policy = _build_policy(env, cfg, RngStream(seed).spawn("policy-init"))
    return cfg, env, policy


@pytest.mark.parametrize("env_kind,env_params,rel", EVAL_CASES, ids=EVAL_IDS)
def test_evaluate_policy_matches_scalar_rollouts(env_kind, env_params, rel):
    for seed in range(5):
        cfg, env, policy = eval_case(env_kind, env_params, seed)
        got = evaluate_policy(env, policy, cfg.eval_episodes, cfg.gamma,
                              RngStream(seed).spawn("eval-0"))
        want = scalar_evaluate_policy(env, policy, cfg.eval_episodes,
                                      cfg.gamma,
                                      RngStream(seed).spawn("eval-0"))
        assert abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("env_kind,env_params",
                         [case[:2] for case in EVAL_CASES], ids=EVAL_IDS)
def test_evaluate_policy_draws_what_scalar_rollouts_draw(
        monkeypatch, env_kind, env_params):
    # no action noise: a reset per episode, plus one dynamics draw per
    # episode of a noisy LQR; the landscapes draw nothing
    counted = [0]
    draw = RngStream._next_generator

    def counting(stream):
        counted[0] += 1
        return draw(stream)

    cfg, env, policy = eval_case(env_kind, env_params, 0)
    episodes = cfg.eval_episodes
    if env_kind == "landscape":
        expected = 0
    elif env_kind == "lqr" and env.noise_scale > 0:
        expected = 2 * episodes
    else:
        expected = episodes
    monkeypatch.setattr(RngStream, "_next_generator", counting)
    evaluate_policy(env, policy, episodes, cfg.gamma, RngStream(1))
    assert counted[0] == expected


def test_final_theta_is_the_policy_vector():
    cfg = TrainConfig(env_kind="lqr", total_steps=100, update_interval=50,
                      seed=6)
    summary = run_training(cfg)
    assert summary.final_theta.shape == (2,)    # gain + bias for 1-D plant
    assert np.all(np.isfinite(summary.final_theta))
