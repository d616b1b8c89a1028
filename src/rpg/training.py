"""Outer training loop: policy ascent with metric-regularized directions.

One update cycle = advance `update_interval` environment steps (whole
episodes, played only by the reinforce backend), estimate an ascent
gradient with the configured backend, optionally regularize it through the
learned metric (variant J applies the inverse metric, variant T follows
the geodesic direction), gate back to the plain gradient when the
divergence ratio says the metric is not helping, then take one ascent step
and evaluate.

Determinism contract: every stochastic concern draws from its own named
substream of the run seed (policy init, metric-net init, rollouts, one eval
stream per update, one probe seed per update), so two runs with the same
config and seed produce identical records, and runs that differ only in
metric bookkeeping (baseline vs J with frozen zero heads) consume identical
rollout randomness and hence identical theta trajectories.
"""

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .divergence import DivergenceReport, divergence_report
from .envs import lqr_return_gradient, make_env
from .errors import NonFiniteField
from .fields import ProbeConfig
from .geodesic import geodesic_gradient
from .metric import MetricPoint, inverse_apply
from .metricnet import (MetricNetConfig, build_u_field, init_params,
                        train_metric_net)
from .policy import (LinearGainPolicy, ParamPolicy, PolicyMLP,
                     reinforce_field, reinforce_gradient_from_batch, rollout)
from .rng import RngStream

VARIANTS = ("baseline", "J", "T")
BACKENDS = ("", "analytic", "reinforce")


@dataclass
class TrainConfig:
    """Everything a run needs; validation errors name the offending field."""

    env_kind: str = "lqr"
    env_params: dict = field(default_factory=dict)
    variant: str = "baseline"
    total_steps: int = 1000
    update_interval: int = 50
    policy_lr: float = 0.02
    gamma: float = 0.99
    probe_count: int = 32
    kappa: float | None = None      # None = policy_lr / 2 (ODE scaling)
    m_tilde: int = 0                # 0 = auto: min(3, n_params - 1)
    metric_iters: int = 20
    metric_lr: float = 0.01
    kick_scale: float = 0.005
    gate_enabled: bool | None = None  # None = on exactly for variant T
    gradient_backend: str = ""      # "" = analytic where available
    freeze_phi: bool = False
    explore_sigma: float = 0.1
    eval_episodes: int = 10
    probe_episodes: int = 4         # rollouts per field probe (reinforce)
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, "
                             f"got {self.variant!r}")
        if self.update_interval < 1:
            raise ValueError("update_interval must be >= 1")
        if self.total_steps < self.update_interval:
            raise ValueError("total_steps must be >= update_interval")
        if not self.policy_lr > 0:
            raise ValueError("policy_lr must be > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.probe_count < 1:
            raise ValueError("probe_count must be >= 1")
        if self.kappa is not None and not (np.isfinite(self.kappa)
                                           and self.kappa >= 0):
            raise ValueError("kappa must be none, or finite and >= 0")
        if self.m_tilde < 0:
            raise ValueError("m_tilde must be >= 0")
        if self.metric_iters < 1:
            raise ValueError("metric_iters must be >= 1")
        if not (np.isfinite(self.metric_lr) and self.metric_lr > 0):
            raise ValueError("metric_lr must be finite and > 0")
        if not (np.isfinite(self.kick_scale) and self.kick_scale >= 0):
            raise ValueError("kick_scale must be finite and >= 0")
        if self.gradient_backend not in BACKENDS:
            raise ValueError(f"gradient_backend must be one of {BACKENDS}, "
                             f"got {self.gradient_backend!r}")
        if not (np.isfinite(self.explore_sigma) and self.explore_sigma > 0):
            raise ValueError("explore_sigma must be finite and > 0")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.probe_episodes < 1:
            raise ValueError("probe_episodes must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_gate(self):
        if self.gate_enabled is None:
            return self.variant == "T"
        return bool(self.gate_enabled)

    def gates(self, report):
        """True when the gate sends this report's step back to the plain
        gradient: gating is on and the divergence ratio is >= 1."""
        return self.resolved_gate() and report.ratio >= 1.0

    def resolved_kappa(self):
        """Geodesic weight; the flow expansion pairs kappa with half the step."""
        if self.kappa is None:
            return self.policy_lr / 2.0
        return self.kappa

    def resolved_backend(self, env_kind):
        if self.gradient_backend:
            return self.gradient_backend
        return "reinforce" if env_kind == "pointmass" else "analytic"


@dataclass
class StepRecord:
    step: int
    eval_return: float
    div: float
    hessian_trace: float
    ratio: float
    gate: bool
    wall_ms: float


@dataclass
class RunSummary:
    final_return: float
    best_return: float
    fraction_ratio_below_one: float
    records: list
    config: dict
    final_theta: np.ndarray = None
    final_phi: object = None        # metric-net state, variants J/T only
    aborted: bool = False


def _neutral_report():
    """Placeholder diagnostics for variants that skip the metric entirely."""
    return DivergenceReport(div=0.0, hessian_trace=0.0, ratio=1.0,
                            method="none")


def _fallback_report():
    """Diagnostics for a record whose metric machinery hit non-finite values."""
    return DivergenceReport(div=float("nan"), hessian_trace=float("nan"),
                            ratio=float("inf"), method="fallback")


def regularize_step(theta, grad, phi, cfg, grad_fn, probe_cfg):
    """One metric-regularization pass: (theta, grad) -> (direction, report, phi').

    baseline: the gradient passes through untouched and phi is not consulted.
    J/T: the metric net is refined in place (<= cfg.metric_iters iterations,
    warm-started from phi) unless cfg.freeze_phi, the divergence diagnostics
    are computed with shared probes, and the direction is G^-1 grad (J) or
    the geodesic direction built on top of it (T).  If gating is enabled and
    the divergence ratio is >= 1, or if any field evaluation turns
    non-finite, the direction falls back to the plain gradient; the
    fallback marks the report with ratio = inf so the record stays visibly
    flagged while keeping the gate bookkeeping exact.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteField("gradient passed to regularize_step")
    if cfg.variant == "baseline":
        return grad.copy(), _neutral_report(), phi

    new_phi = phi
    if not cfg.freeze_phi:
        try:
            new_phi, _ = train_metric_net(
                phi, theta, grad_fn, probe_cfg, max_iters=cfg.metric_iters,
                lr=cfg.metric_lr, kick_scale=cfg.kick_scale)
        except NonFiniteField:
            return grad.copy(), _fallback_report(), phi

    try:
        u_field = build_u_field(new_phi)
        report = divergence_report(grad_fn, u_field, theta, probe_cfg)
        u0 = u_field(theta)
        direction = inverse_apply(MetricPoint(u0), grad)
        if cfg.variant == "T":
            direction = geodesic_gradient(u_field, theta, direction,
                                          cfg.resolved_kappa())
        if not np.all(np.isfinite(direction)):
            raise NonFiniteField("regularized direction")
    except NonFiniteField:
        return grad.copy(), _fallback_report(), new_phi

    if cfg.gates(report):
        return grad.copy(), report, new_phi
    return direction, report, new_phi


def _build_policy(env, cfg, rng):
    if env.kind == "lqr":
        # gains drawn inside the comfortably-stabilizing band: the K = 0
        # edge pairs a huge gradient with marginal stability, which a
        # constant-step ascent handles badly
        k0 = rng.uniform(0.0, 0.8, size=(env.action_dim, env.state_dim))
        return LinearGainPolicy(env.state_dim, env.action_dim,
                                sigma=cfg.explore_sigma, k=k0)
    if env.kind == "landscape":
        return ParamPolicy(env.dim, init=rng.uniform(-1.0, 1.0,
                                                     size=env.dim))
    if env.kind == "pointmass":
        return PolicyMLP(env.state_dim, env.action_dim, rng)
    raise ValueError(f"no policy template for environment {env.kind!r}")


def _gradient_field(env, policy, cfg, backend, probe_seed):
    """Batched ascent-gradient field over policy parameters.

    analytic: exact closed forms (LQR recursion / landscape gradient); the
    update's own gradient is this field at theta.
    reinforce: REINFORCE at every parameter row with common random
    numbers: one ``reinforce_field`` call per field call plays all rows on
    the same draws of ``RngStream(probe_seed)``, which keeps the field
    smooth enough to probe with finite differences.  The update's own
    gradient comes from the freshly collected batch instead.

    Each metric-regularization pass calls the field twice: once in
    ``train_metric_net`` for theta and every inner iteration's probe rows,
    once in ``divergence_report`` for its 2K probe rows and theta.
    """
    if backend == "analytic":
        if env.kind == "lqr":
            return lambda pts: lqr_return_gradient(pts, env, cfg.gamma)
        if env.kind == "landscape":
            return lambda pts: env.analytic_gradient(pts)
        raise ValueError(f"no analytic gradient for {env.kind!r}")

    probe_policy = _build_policy(env, cfg, RngStream(0))

    def field_fn(points):
        out = reinforce_field(env, probe_policy, np.atleast_2d(points),
                              cfg.probe_episodes, cfg.gamma,
                              RngStream(probe_seed))
        return out[0] if np.ndim(points) == 1 else out

    return field_fn


def evaluate_policy(env, policy, episodes, gamma, rng):
    """Mean discounted return over evaluation episodes (no exploration)."""
    total = 0.0
    for _ in range(int(episodes)):
        total += rollout(env, policy, rng, explore=False).discounted_return(
            gamma)
    return total / int(episodes)


def _probe_seed(seed, update_idx):
    # distinct deterministic probe draw per update
    return (seed * 1_000_003 + update_idx) % (2 ** 63)


def run_training(cfg):
    """Run one configured training session and return its RunSummary.

    Each update advances the step count by whole episodes of at least
    update_interval steps.  Only the reinforce backend plays them, as the
    fresh batch its update gradient comes from; the analytic backend takes
    the closed-form field at theta and counts the episodes unplayed.

    Aborts with a partial summary (records so far, aborted=True) as soon as
    the policy parameters, or the evaluation of a new policy, stop being
    finite; the update that failed leaves no record, so final_return is the
    last finite evaluation.
    """
    root = RngStream(cfg.seed)
    env = make_env(cfg.env_kind, **cfg.env_params)
    policy = _build_policy(env, cfg, root.spawn("policy-init"))
    n_params = policy.theta.size
    backend = cfg.resolved_backend(env.kind)

    phi = None
    if cfg.variant in ("J", "T"):
        m_tilde = cfg.m_tilde or max(1, min(3, n_params - 1))
        phi = init_params(root.spawn("phi-init"),
                          MetricNetConfig(m_tilde=m_tilde), policy.layout)

    rollout_rng = root.spawn("rollout")
    records = []
    steps = 0
    update_idx = 0
    aborted = False

    while steps < cfg.total_steps:
        started = time.perf_counter()
        theta = policy.theta
        grad_fn = _gradient_field(env, policy, cfg, backend,
                                  _probe_seed(cfg.seed, update_idx) + 1)
        if backend == "analytic":
            # the closed form reads no episode, and LQR and landscape
            # episodes always run their full horizon: count whole
            # episodes without playing them
            steps += -(-cfg.update_interval // env.horizon) * env.horizon
            grad = grad_fn(theta)
        else:
            fresh = []
            collected = 0
            while collected < cfg.update_interval:
                traj = rollout(env, policy, rollout_rng)
                fresh.append(traj)
                collected += len(traj)
            steps += collected
            grad = reinforce_gradient_from_batch(policy, fresh, cfg.gamma)
        if not np.all(np.isfinite(grad)):
            aborted = True
            break

        probe_cfg = ProbeConfig(probe_count=cfg.probe_count,
                                seed=_probe_seed(cfg.seed, update_idx))
        direction, report, phi = regularize_step(theta, grad, phi, cfg,
                                                 grad_fn, probe_cfg)
        policy.set_theta(theta + cfg.policy_lr * direction)
        if not np.all(np.isfinite(policy.theta)):
            aborted = True
            break

        eval_return = evaluate_policy(env, policy, cfg.eval_episodes,
                                      cfg.gamma,
                                      root.spawn(f"eval-{update_idx}"))
        if not np.isfinite(eval_return):
            aborted = True
            break
        if cfg.variant == "baseline":
            gate_flag = False
        else:
            gate_flag = report.method == "fallback" or cfg.gates(report)
        records.append(StepRecord(
            step=steps,
            eval_return=float(eval_return),
            div=float(report.div),
            hessian_trace=float(report.hessian_trace),
            ratio=float(report.ratio),
            gate=bool(gate_flag),
            wall_ms=(time.perf_counter() - started) * 1000.0,
        ))
        update_idx += 1

    returns = [r.eval_return for r in records]
    ratios = [r.ratio for r in records]
    return RunSummary(
        final_return=returns[-1] if returns else float("nan"),
        best_return=max(returns) if returns else float("nan"),
        fraction_ratio_below_one=(
            float(np.mean([r < 1.0 for r in ratios])) if ratios else 0.0),
        records=records,
        config=asdict(cfg),
        final_theta=policy.theta,
        final_phi=phi,
        aborted=aborted,
    )
