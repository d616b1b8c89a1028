"""Outer training loop: policy ascent with metric-regularized directions.

One update cycle = advance `update_interval` environment steps (whole
episodes, played only by the reinforce backend), estimate an ascent
gradient with the configured backend, optionally regularize it through the
learned metric (variant J applies the inverse metric, variant T follows
the geodesic direction), gate back to the plain gradient when the
divergence ratio says the metric is not helping, then take one ascent step
and evaluate the new policy on its mean, all evaluation episodes played
together (``evaluate_policy``).

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

from .divergence import (DivergenceReport, divergence_report,
                         probe_field_rows, report_probes)
from .envs import lqr_return_gradient, make_env
from .errors import BadDimensions, ConfigError, NonFiniteField
from .fields import ProbeConfig, default_fd_step
from .geodesic import geodesic_gradient
from .metric import MetricPoint, inverse_apply
from .metricnet import (MetricNetConfig, UField, init_params,
                        train_metric_net, training_probes)
from .policy import (LinearGainPolicy, ParamPolicy, PolicyMLP,
                     evaluation_returns, reinforce_field,
                     reinforce_gradient_from_batch, rollout)
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
        try:
            make_env(self.env_kind, **self.env_params)
        except BadDimensions as err:
            raise ValueError(str(err))
        backend = self.resolved_backend(self.env_kind)
        if (backend, self.env_kind) in (("analytic", "pointmass"),
                                        ("reinforce", "landscape")):
            raise ValueError(f"gradient_backend = {backend} cannot train "
                             f"kind {self.env_kind}")

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
    # the check that ended the run early: "gradient", "parameters" or
    # "evaluation"; None for a run that finished
    abort_reason: str | None = None

    @property
    def aborted(self):
        return self.abort_reason is not None


def _neutral_report():
    """Placeholder diagnostics for variants that skip the metric entirely."""
    return DivergenceReport(div=0.0, hessian_trace=0.0, ratio=1.0,
                            method="none")


def _fallback_report():
    """Diagnostics for a record whose metric machinery hit non-finite values."""
    return DivergenceReport(div=float("nan"), hessian_trace=float("nan"),
                            ratio=float("inf"), method="fallback")


def _finite_gradient(grad):
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteField("gradient at theta")
    return grad


def regularize_step(theta, grad, phi, cfg, grad_fn, probe_cfg):
    """One metric-regularization pass: (theta, grad) -> (direction, report, phi').

    grad is the update's ascent gradient, or None to take grad f(theta)
    from grad_fn (the analytic backend).  A non-finite gradient raises
    NonFiniteField.
    baseline: the gradient passes through untouched and phi is not
    consulted; a None grad costs one grad_fn call at theta alone.
    J/T: one grad_fn call (``probe_field_rows``) covers theta (row 0, the
    gradient when grad is None), the probe rows of every metric-training
    iteration (``training_probes``; none with cfg.freeze_phi) and the
    report's probe rows (``report_probes``, a draw of its own, so the
    ratio is measured on probes the net did not train on):
    1 + 2K * metric_iters + 2K rows, K = probe_count.  Unless
    cfg.freeze_phi, the metric net is refined on the training slice,
    warm-started from phi; the report reads the last matrix's slice.
    The final phi is read through one ``UField``, which builds its
    collapsed matrix once: u(theta) is forwarded once (``UField.at``), the
    report freezes its batch with it and forwards that batch, J = G^-1
    grad uses it, and T's geodesic correction takes its one
    vector-Jacobian product of u over that forward.  If gating is enabled
    and the divergence ratio is >= 1, or if a report row or the direction
    turns non-finite, the direction falls back to the plain gradient; the
    fallback marks the report with ratio = inf so the record stays
    visibly flagged while keeping the gate bookkeeping exact.
    """
    theta = np.asarray(theta, dtype=float)
    if grad is not None:
        grad = _finite_gradient(grad)
    if cfg.variant == "baseline":
        if grad is None:
            grad = _finite_gradient(grad_fn(theta))
        return grad.copy(), _neutral_report(), phi

    iters = 0 if cfg.freeze_phi else cfg.metric_iters
    probes = report_probes(probe_cfg, theta.size)[None]
    if iters:
        probes = np.concatenate(
            [training_probes(probe_cfg, iters, theta.size), probes])
    field = probe_field_rows(grad_fn, theta, probes, default_fd_step(theta))
    if grad is None:
        grad = _finite_gradient(field.g0)

    new_phi = phi
    if iters:
        new_phi, _ = train_metric_net(phi, theta, field[:-1], probe_cfg,
                                      lr=cfg.metric_lr,
                                      kick_scale=cfg.kick_scale)

    try:
        u_field = UField(new_phi)
        u0, u_vjp = u_field.at(theta)
        report = divergence_report(u_field, theta, field[-1:], u0)
        direction = inverse_apply(MetricPoint(u0), grad)
        if cfg.variant == "T":
            direction = geodesic_gradient(u_vjp, theta, direction,
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
    smooth enough to probe with finite differences; policy supplies the
    layout and row methods, not its theta.  The update's own gradient
    comes from the freshly collected batch instead.

    A J/T update calls the field once (``regularize_step``); a baseline
    update calls the analytic field at theta alone, and the reinforce
    field not at all.
    """
    if backend == "analytic":
        if env.kind == "lqr":
            return lambda pts: lqr_return_gradient(pts, env, cfg.gamma)
        if env.kind == "landscape":
            return lambda pts: env.analytic_gradient(pts)
        raise ValueError(f"no analytic gradient for {env.kind!r}")

    def field_fn(points):
        out = reinforce_field(env, policy, np.atleast_2d(points),
                              cfg.probe_episodes, cfg.gamma,
                              RngStream(probe_seed))
        return out[0] if np.ndim(points) == 1 else out

    return field_fn


def evaluate_policy(env, policy, episodes, gamma, rng):
    """Mean discounted return over evaluation episodes (no exploration).

    All episodes are played at once (``evaluation_returns``); their
    returns are summed in sequence and divided by their count, as a loop
    over episodes played one at a time would.
    """
    total = 0.0
    for ret in evaluation_returns(env, policy, int(episodes), gamma, rng):
        total += float(ret)
    return total / int(episodes)


def _probe_seed(seed, update_idx):
    # distinct deterministic probe draw per update
    return (seed * 1_000_003 + update_idx) % (2 ** 63)


def run_training(cfg):
    """Run one configured training session and return its RunSummary.

    Each update advances the step count by E * horizon, the
    E = ceil(update_interval / horizon) whole episodes of at least
    update_interval steps.  Only the reinforce backend plays them, in one
    ``rollout``, as the fresh batch its update gradient comes from; the
    analytic backend takes the closed-form field at theta, in
    regularize_step's field call, and counts the episodes unplayed.

    Raises ConfigError when a J/T run's m_tilde is not below the policy's
    parameter count.  Aborts with a partial summary (records so far) as
    soon as the update gradient, the policy parameters, or the evaluation
    of a new policy stop being finite; abort_reason names that check
    ("gradient", "parameters" or "evaluation").  The update that failed
    leaves no record, so final_return is the last finite evaluation.
    """
    root = RngStream(cfg.seed)
    env = make_env(cfg.env_kind, **cfg.env_params)
    policy = _build_policy(env, cfg, root.spawn("policy-init"))
    n_params = policy.theta.size
    backend = cfg.resolved_backend(env.kind)

    phi = None
    if cfg.variant in ("J", "T"):
        m_tilde = cfg.m_tilde or max(1, min(3, n_params - 1))
        if not m_tilde < n_params:
            raise ConfigError(
                f"m_tilde = {m_tilde} must be below n = {n_params}, the "
                f"policy's parameter count")
        phi = init_params(root.spawn("phi-init"),
                          MetricNetConfig(m_tilde=m_tilde), policy.layout)

    rollout_rng = root.spawn("rollout")
    # whole episodes of at least update_interval steps per update
    episodes = -(-cfg.update_interval // env.horizon)
    records = []
    steps = 0
    update_idx = 0
    abort_reason = None

    while steps < cfg.total_steps:
        started = time.perf_counter()
        theta = policy.theta
        grad_fn = _gradient_field(env, policy, cfg, backend,
                                  _probe_seed(cfg.seed, update_idx) + 1)
        steps += episodes * env.horizon
        if backend == "analytic":
            # the closed form reads no episode: regularize_step takes the
            # gradient from the field at theta
            grad = None
        else:
            grad = reinforce_gradient_from_batch(
                policy, rollout(env, policy, episodes, rollout_rng),
                cfg.gamma)

        probe_cfg = ProbeConfig(probe_count=cfg.probe_count,
                                seed=_probe_seed(cfg.seed, update_idx))
        try:
            direction, report, phi = regularize_step(theta, grad, phi, cfg,
                                                     grad_fn, probe_cfg)
        except NonFiniteField:
            abort_reason = "gradient"
            break
        policy.set_theta(theta + cfg.policy_lr * direction)
        if not np.all(np.isfinite(policy.theta)):
            abort_reason = "parameters"
            break

        eval_return = evaluate_policy(env, policy, cfg.eval_episodes,
                                      cfg.gamma,
                                      root.spawn(f"eval-{update_idx}"))
        if not np.isfinite(eval_return):
            abort_reason = "evaluation"
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
        abort_reason=abort_reason,
    )
