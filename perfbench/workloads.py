"""Workload definitions and the checks that judge each training run.

A workload is a fixed list of `TrainConfig`s, one per variant, built from
the workload seed.  The checks recompute what a correct run must reach
without calling into `rpg`: the LQR optimum from the scalar discounted
Riccati equation, the bowl minimiser (the origin), and the pointmass
learning criterion.
"""

import math

import numpy as np

from rpg.envs import make_env
from rpg.metricnet import MetricNetConfig, init_params
from rpg.policy import LinearGainPolicy, ParamPolicy, PolicyMLP
from rpg.rng import RngStream
from rpg.training import VARIANTS, TrainConfig

# Copies of LQR_PROTOCOL and BOWL_PROTOCOL in tests/test_acceptance.py; the
# benchmark does not import the test suite.
LQR_PROTOCOL = dict(env_kind="lqr", total_steps=3000, update_interval=50,
                    policy_lr=0.02, probe_count=16)
BOWL_PROTOCOL = dict(env_kind="landscape",
                     env_params={"objective": "bowl", "dim": 4},
                     total_steps=200, update_interval=1, policy_lr=0.05,
                     probe_count=8)
# `rpg train` defaults for everything that governs learning; only the inner
# metric loop is sized down, so that a J/T update takes about 0.2 s and a
# run times enough of them.
POINTMASS_PROTOCOL = dict(env_kind="pointmass", probe_count=4, metric_iters=2)
# The acceptance gates train at these seeds; lqr and bowl pick one by
# --seed.  Other seeds are left out because J or T diverges on some of them
# (LQR: J at seed 22, T at seed 19), which would make the failed share
# depend on the seed; see CHANGES.md.
ACCEPTANCE_SEEDS = range(10)
# pointmass fails at every seed (see README); its inputs are pinned to the
# `rpg train` default seed so the failure is the same in every run.
POINTMASS_SEED = TrainConfig().seed

# Baseline runs go before each J and T run, so that baseline updates are
# timed throughout a round and not in one short stretch (the host's speed
# changes every few seconds).  A baseline run of bowl or pointmass takes
# ~40 ms, so it is repeated to give as many samples as one of several seconds.
BASELINE_REPEATS = {"lqr": 1, "bowl": 5, "pointmass": 5}

# --quick shortens each protocol; it only exercises the output format.
QUICK_STEPS = {"lqr": 300, "bowl": 20, "pointmass": 50}

LQR_GAP = 0.05          # criterion 9: within 5% of the optimum
BOWL_RADIUS = 1e-2      # criterion 9: |theta_final| <= 1e-2


def _protocol(name):
    if name == "lqr":
        return LQR_PROTOCOL
    if name == "bowl":
        return BOWL_PROTOCOL
    if name == "pointmass":
        return POINTMASS_PROTOCOL
    raise ValueError(f"unknown workload {name!r}")


def configs(name, seed, quick=False):
    """The TrainConfigs of one round: J and T, each after its baselines.

    BASELINE_REPEATS[name] baseline runs go before each regularized run.
    """
    proto = dict(_protocol(name))
    if quick:
        proto["total_steps"] = QUICK_STEPS[name]
    if name == "pointmass":
        seed = POINTMASS_SEED
    else:
        seed = ACCEPTANCE_SEEDS[seed % len(ACCEPTANCE_SEEDS)]
    round_ = []
    for variant in VARIANTS:
        if variant != "baseline":
            round_ += [TrainConfig(variant="baseline", seed=seed, **proto)
                       for _ in range(BASELINE_REPEATS[name])]
            round_.append(TrainConfig(variant=variant, seed=seed, **proto))
    return round_


def initial_state(cfg):
    """Environment, policy template and initial metric-net state of a run."""
    env = make_env(cfg.env_kind, **cfg.env_params)
    root = RngStream(cfg.seed)
    if env.kind == "lqr":
        policy = LinearGainPolicy(env.state_dim, env.action_dim,
                                  sigma=cfg.explore_sigma)
    elif env.kind == "landscape":
        policy = ParamPolicy(env.dim)
    else:
        policy = PolicyMLP(env.state_dim, env.action_dim,
                           root.spawn("policy-init"))
    n = policy.theta.size
    phi = init_params(root.spawn("phi-init"),
                      MetricNetConfig(m_tilde=max(1, min(3, n - 1))),
                      policy.layout)
    return env, policy, phi


# ------------------------------------------------------------------ checks


def scalar_riccati_gain(a, b, q, r, gamma):
    """Stationary optimal gain k of a = -k s for the scalar discounted LQR.

    The cost-to-go p solves p = q + g a^2 p - g^2 a^2 b^2 p^2 / (r + g b^2 p),
    i.e. g b^2 p^2 + (r - g a^2 r - g b^2 q) p - q r = 0 (positive root).
    """
    c2 = gamma * b * b
    c1 = r - gamma * a * a * r - gamma * b * b * q
    c0 = -q * r
    p = (-c1 + math.sqrt(c1 * c1 - 4.0 * c2 * c0)) / (2.0 * c2)
    return gamma * a * b * p / (r + gamma * b * b * p)


def scalar_affine_return(k, c, a, b, q, r, gamma, horizon, noise):
    """Expected discounted return of a = -k s + c over `horizon` steps.

    s0 is uniform on [-1, 1] (mean 0, second moment 1/3); the state's mean
    and second moment are propagated through s' = (a - b k) s + b c + noise.
    """
    mean, second = 0.0, 1.0 / 3.0
    total, disc = 0.0, 1.0
    alpha = a - b * k
    for _ in range(horizon):
        total += disc * (q * second
                         + r * (k * k * second - 2.0 * k * c * mean + c * c))
        second = (alpha * alpha * second + 2.0 * alpha * b * c * mean
                  + b * b * c * c + noise * noise)
        mean = alpha * mean + b * c
        disc *= gamma
    return -total


def check(name, cfg, summary):
    """None when the run meets its workload's criterion, else the reason."""
    n_up = len(summary.records)
    if summary.aborted:
        return f"aborted after {n_up} updates: parameters or gradient non-finite"
    if n_up == 0:
        return "no update completed"
    theta = np.asarray(summary.final_theta, dtype=float)
    if name == "lqr":
        env = make_env(cfg.env_kind, **cfg.env_params)
        if env.state_dim != 1 or env.action_dim != 1:
            raise ValueError("the lqr check covers the scalar system only")
        a, b, q, r = (float(m.item()) for m in (env.a, env.b, env.q, env.r))
        args = (a, b, q, r, cfg.gamma, env.horizon, env.noise_scale)
        k_opt = scalar_riccati_gain(a, b, q, r, cfg.gamma)
        opt = scalar_affine_return(k_opt, 0.0, *args)
        ret = scalar_affine_return(float(theta[0]), float(theta[1]), *args)
        gap = (opt - ret) / abs(opt)
        if not gap <= LQR_GAP:
            return f"return {ret:.6g} is {gap:.2%} below the optimum {opt:.6g}"
        return None
    if name == "bowl":
        dist = math.sqrt(float(np.sum(theta * theta)))
        if not dist <= BOWL_RADIUS:
            return f"|theta_final| = {dist:.3e} > {BOWL_RADIUS:g}"
        return None
    first, last = summary.records[0].eval_return, summary.records[-1].eval_return
    if not last > first:
        return f"final eval return {last:.6g} does not beat the first {first:.6g}"
    return None


def fingerprint(summary):
    """Exact training outputs: final theta and each record's eval/div/ratio/gate."""
    rows = tuple((float(r.eval_return).hex(), float(r.div).hex(),
                  float(r.ratio).hex(), bool(r.gate))
                 for r in summary.records)
    return (np.asarray(summary.final_theta, dtype=float).tobytes(), rows,
            bool(summary.aborted))
