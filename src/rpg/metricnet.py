"""The metric network: layered policy parameters in, (omega_tilde, sigma_tilde) out.

Architecture, per parameter part (weight matrix or bias vector): two valid
convolutions (3x3 while the part is a matrix with both dims >= 3, length-3 on
the flattened part otherwise, skipped when the part is smaller than the
kernel) -> flatten -> average pool (size 5, stride 5, partial trailing
window; the policy's output bias part is exempt) -> dense -> softplus.  Part
features are concatenated into a shared dense trunk (softplus), which feeds
two zero-initialized *linear* heads producing omega_tilde and sigma_tilde.
Each convolution stage and each pool is one tape operation
(``tape.conv_valid``, ``tape.avg_pool``), so a batch of points costs one
graph node per stage, not one per kernel tap or pooling window.

Zero heads mean u = 0 identically at initialization: the learned metric
starts exactly Euclidean and the step-0 regularized gradient equals the raw
gradient bitwise.

``train_metric_net`` drives the squared probe-estimated divergence toward
zero in the network parameters phi.  No gradient-field value depends on phi,
so the probe vectors of every iteration are drawn up front and the field is
evaluated once per pass, at theta and at every iteration's theta +- eps*v
rows.  Per iteration those values, the probe vectors, and the two points
theta +- eps*J displaced along the current field are frozen as constants;
only u(., phi) re-enters the graph, so the loss is differentiable in phi
without differentiating the objective's gradient field.  The zero-head
start is an exact saddle — every phi-derivative carries a factor of u or
u.g, which is exactly 0.0 — so when the loss is positive but the
phi-gradient is identically zero the loop applies one small seeded kick to
the head parameters and resumes descent.  The returned phi is the best
recorded iterate, never the last one; a non-finite loss, u value or
gradient row aborts the loop at its iteration and returns that incumbent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import fields, tape
from .errors import BadDimensions, LayoutMismatch, NonFiniteField
from .fields import ProbeConfig, require_finite
from .fourier import TransformParams, build_fourier_pair, build_u
from .metric import MetricPoint, inverse_apply
from .rng import RngStream, rademacher_matrix
from .tape import Adam, DiffGraph, Var

CHECKPOINT_MAGIC = b"RPGPHI1\n"


# ------------------------------------------------------------------ layout


@dataclass(frozen=True)
class LayerLayout:
    """Shapes of the policy's parameter parts and the flat total dimension.

    pool_exempt overrides which part skips average pooling (the policy's
    output bias); by default it is the trailing part when that part is a
    vector in a multi-part layout.
    """

    shapes: tuple
    pool_exempt: int | None = None
    n: int = field(init=False)

    def __post_init__(self):
        norm = tuple(tuple(int(d) for d in s) for s in self.shapes)
        if not norm or any(int(np.prod(s)) < 1 for s in norm):
            raise LayoutMismatch(f"bad layout shapes: {self.shapes}")
        if self.pool_exempt is not None and not (
                0 <= self.pool_exempt < len(norm)):
            raise LayoutMismatch(
                f"pool_exempt {self.pool_exempt} out of range")
        object.__setattr__(self, "shapes", norm)
        object.__setattr__(self, "n", int(sum(np.prod(s) for s in norm)))

    @classmethod
    def from_vector(cls, n: int) -> "LayerLayout":
        return cls(shapes=((n,),))

    @property
    def sizes(self) -> tuple:
        return tuple(int(np.prod(s)) for s in self.shapes)

    @property
    def output_bias_part(self):
        """Index of the part exempt from pooling: a trailing 1-d part."""
        if self.pool_exempt is not None:
            return self.pool_exempt
        if len(self.shapes) > 1 and len(self.shapes[-1]) == 1:
            return len(self.shapes) - 1
        return None

    def flatten(self, parts) -> np.ndarray:
        if len(parts) != len(self.shapes):
            raise LayoutMismatch(
                f"expected {len(self.shapes)} parts, got {len(parts)}")
        flats = []
        for part, shape in zip(parts, self.shapes):
            part = np.asarray(part, dtype=np.float64)
            if part.shape != shape:
                raise LayoutMismatch(f"part shape {part.shape} != {shape}")
            flats.append(part.ravel())
        return np.concatenate(flats)

    def unflatten(self, vec: np.ndarray) -> list:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n,):
            raise LayoutMismatch(f"vector shape {vec.shape} != ({self.n},)")
        parts, at = [], 0
        for shape, size in zip(self.shapes, self.sizes):
            parts.append(vec[at:at + size].reshape(shape))
            at += size
        return parts

    def unflatten_batch(self, pts: np.ndarray) -> list:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise LayoutMismatch(f"batch shape {pts.shape} != (B, {self.n})")
        parts, at = [], 0
        for shape, size in zip(self.shapes, self.sizes):
            parts.append(pts[:, at:at + size].reshape((pts.shape[0],) + shape))
            at += size
        return parts


def _conv_plan(shape, kernel: int):
    """Two conv stages chosen by the running shape; returns (stages, out_len)."""
    stages, cur = [], tuple(shape)
    for _ in range(2):
        if len(cur) == 2 and cur[0] >= kernel and cur[1] >= kernel:
            stages.append("2d")
            cur = (cur[0] - kernel + 1, cur[1] - kernel + 1)
        else:
            flat = int(np.prod(cur))
            if flat >= kernel:
                stages.append("1d")
                cur = (flat - kernel + 1,)
            else:
                stages.append(None)
                cur = (flat,)
    return tuple(stages), int(np.prod(cur))


# ------------------------------------------------------------------ params


@dataclass(frozen=True)
class MetricNetConfig:
    """m_tilde frequencies; the rest mirror the reference architecture."""

    m_tilde: int
    pool_size: int = 5
    kernel: int = 3
    part_width: int = 8
    trunk_width: int = 16
    init_scale: float = 0.3


@dataclass
class MetricNetParams:
    """All trainable arrays plus the structural metadata to interpret them.

    Parameter partition: everything up to the trunk is shared, the
    omega-head pair is phi1, the sigma-head pair is phi2 (the shared/exclusive
    split of the two overlapping parameter sets is a structural guess — the
    reference figure draws the trunk inside both).
    """

    layout: LayerLayout
    m_tilde: int
    pool_size: int
    kernel: int
    plans: tuple
    part_convs: list
    part_dense: list
    trunk_w: object
    trunk_b: object
    head_omega_w: object
    head_omega_b: object
    head_sigma_w: object
    head_sigma_b: object

    def params_list(self) -> list:
        out = []
        for kerns, (w, b) in zip(self.part_convs, self.part_dense):
            out.extend(k for k in kerns if k is not None)
            out.extend([w, b])
        out.extend([self.trunk_w, self.trunk_b,
                    self.head_omega_w, self.head_omega_b,
                    self.head_sigma_w, self.head_sigma_b])
        return out

    def param_groups(self) -> dict:
        total = len(self.params_list())
        return {"shared": list(range(total - 4)),
                "phi1": [total - 4, total - 3],
                "phi2": [total - 2, total - 1]}

    def with_arrays(self, arrays: list) -> "MetricNetParams":
        it = iter(arrays)
        convs, dense = [], []
        for kerns in self.part_convs:
            convs.append([None if k is None else next(it) for k in kerns])
            dense.append([next(it), next(it)])
        rest = [next(it) for _ in range(6)]
        leftovers = sum(1 for _ in it)
        if leftovers:
            raise LayoutMismatch(f"{leftovers} extra parameter arrays")
        return replace(self, part_convs=convs, part_dense=dense,
                       trunk_w=rest[0], trunk_b=rest[1],
                       head_omega_w=rest[2], head_omega_b=rest[3],
                       head_sigma_w=rest[4], head_sigma_b=rest[5])

    def copy(self) -> "MetricNetParams":
        return self.with_arrays([np.array(a) for a in self.params_list()])


def _pooled_len(length: int, pool: int) -> int:
    return -(-length // pool)


def init_params(rng: RngStream, cfg: MetricNetConfig,
                layout: LayerLayout) -> MetricNetParams:
    """Scaled-uniform trunk/conv/dense parameters, exactly-zero heads."""
    if not 1 <= cfg.m_tilde < layout.n:
        raise BadDimensions(
            f"m_tilde must satisfy 1 <= m_tilde < n, got {cfg.m_tilde} vs "
            f"n={layout.n}")

    def uniform(shape, fan_in):
        s = cfg.init_scale / max(1.0, np.sqrt(fan_in))
        return rng.uniform(-s, s, shape)

    plans, part_convs, part_dense = [], [], []
    exempt = layout.output_bias_part
    for i, shape in enumerate(layout.shapes):
        stages, conv_len = _conv_plan(shape, cfg.kernel)
        plans.append(stages)
        kerns = []
        for st in stages:
            if st == "2d":
                kerns.append(uniform((cfg.kernel * cfg.kernel,),
                                     cfg.kernel * cfg.kernel))
            elif st == "1d":
                kerns.append(uniform((cfg.kernel,), cfg.kernel))
            else:
                kerns.append(None)
        feat = conv_len if i == exempt else _pooled_len(conv_len, cfg.pool_size)
        part_convs.append(kerns)
        part_dense.append([uniform((feat, cfg.part_width), feat),
                           np.zeros(cfg.part_width)])
    trunk_in = len(layout.shapes) * cfg.part_width
    return MetricNetParams(
        layout=layout, m_tilde=cfg.m_tilde, pool_size=cfg.pool_size,
        kernel=cfg.kernel, plans=tuple(plans),
        part_convs=part_convs, part_dense=part_dense,
        trunk_w=uniform((trunk_in, cfg.trunk_width), trunk_in),
        trunk_b=np.zeros(cfg.trunk_width),
        head_omega_w=np.zeros((cfg.trunk_width, cfg.m_tilde)),
        head_omega_b=np.zeros(cfg.m_tilde),
        head_sigma_w=np.zeros((cfg.trunk_width, cfg.m_tilde)),
        head_sigma_b=np.zeros(cfg.m_tilde))


# ----------------------------------------------------------------- forward


def _flatten(x):
    sh = x.shape
    if len(sh) == 2:
        return x
    return tape.reshape(x, (sh[0], int(np.prod(sh[1:]))))


def _dense(x, w, b):
    return tape.add(tape.matmul(x, w), b)


def metric_net_forward(phi: MetricNetParams, theta_layers):
    """Network forward pass; returns (omega_tilde, sigma_tilde, graph).

    theta_layers follows phi.layout — a list of parts, each either a single
    part or a (B, ...) stack.  Outputs mirror the batching; graph is the
    DiffGraph when phi holds tape variables, else None.
    """
    parts = list(theta_layers)
    if len(parts) != len(phi.layout.shapes):
        raise LayoutMismatch(
            f"expected {len(phi.layout.shapes)} parts, got {len(parts)}")
    base0 = phi.layout.shapes[0]
    sh0 = np.shape(tape.value(parts[0]))
    batched = len(sh0) == len(base0) + 1
    exempt = phi.layout.output_bias_part

    feats = []
    for i, (part, base) in enumerate(zip(parts, phi.layout.shapes)):
        x = part if batched else np.asarray(part, dtype=np.float64)[None]
        sh = np.shape(tape.value(x))
        if sh[1:] != base:
            raise LayoutMismatch(f"part {i} shape {sh[1:]} != {base}")
        for stage, kern in zip(phi.plans[i], phi.part_convs[i]):
            if stage == "2d":
                x = tape.conv_valid(x, kern, phi.kernel, 2)
            elif stage == "1d":
                x = tape.conv_valid(_flatten(x), kern, phi.kernel, 1)
        x = _flatten(x)
        if i != exempt:
            x = tape.avg_pool(x, phi.pool_size)
        w, b = phi.part_dense[i]
        feats.append(tape.softplus(_dense(x, w, b)))

    h = feats[0] if len(feats) == 1 else tape.concat(feats, axis=1)
    h = tape.softplus(_dense(h, phi.trunk_w, phi.trunk_b))
    omega = _dense(h, phi.head_omega_w, phi.head_omega_b)
    sigma = _dense(h, phi.head_sigma_w, phi.head_sigma_b)
    if not batched:
        omega = tape.reshape(omega, (phi.m_tilde,))
        sigma = tape.reshape(sigma, (phi.m_tilde,))
    graph = omega.graph if isinstance(omega, Var) else None
    return omega, sigma, graph


def build_u_field(phi: MetricNetParams):
    """Numeric, batch-capable u(theta) closure over fixed phi."""
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    layout = phi.layout

    def u_fn(pts):
        pts = np.asarray(pts, dtype=np.float64)
        single = pts.ndim == 1
        batch = pts[None] if single else pts
        omega, sigma, _ = metric_net_forward(phi, layout.unflatten_batch(batch))
        u = build_u(fp, TransformParams(omega_tilde=omega, sigma_tilde=sigma),
                    batch)
        return u[0] if single else u

    return u_fn


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class StepConfig:
    """Optimizer settings for the phi loop, plus the saddle-escape kick."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    kick_scale: float = 1e-2


@dataclass(frozen=True)
class FrozenProbes:
    """One iteration's constants: probe points, field values, and step.

    Rows of points: [0:K] theta+eps*v, [K:2K] theta-eps*v, then theta+eps*J0,
    theta-eps*J0, theta itself.  grads holds the gradient field at the first
    2K rows only — the volume term needs no gradients — sliced from the
    pass's single field call (``probe_field_rows``).
    """

    points: np.ndarray
    probes: np.ndarray
    grads: np.ndarray
    eps: float
    theta: np.ndarray


def probe_field_rows(grad_fn, theta: np.ndarray, probes: np.ndarray,
                     eps: float):
    """Gradient field at theta and at every probe row, in one field call.

    probes stacks I probe matrices, shape (I, K, n).  The call covers
    [theta; theta + eps*V_1; theta - eps*V_1; ...; theta - eps*V_I] and
    returns (g0, grads) with g0 = grad f(theta) and grads[i] the (2K, n)
    rows of iteration i, plus rows first.  Nothing is checked for
    finiteness here: each consumer checks the rows it uses.
    """
    theta = np.asarray(theta, dtype=np.float64)
    shifted = np.stack([theta + eps * probes, theta - eps * probes], axis=1)
    pts = np.concatenate([theta[None], shifted.reshape(-1, theta.size)])
    # looked up on the module, so wrappers installed on
    # rpg.fields.eval_points also see this call
    out = fields.eval_points(grad_fn, pts)
    return out[0], out[1:].reshape(shifted.shape[0], -1, theta.size)


def freeze_probe_batch(phi: MetricNetParams, theta: np.ndarray,
                       g0: np.ndarray, probes: np.ndarray,
                       probe_grads: np.ndarray, eps: float) -> FrozenProbes:
    """Freeze one iteration's batch from precomputed gradient-field values.

    g0 is grad f(theta) and probe_grads the (2K, n) field rows at
    [theta + eps*probes; theta - eps*probes] (see ``probe_field_rows``).
    Raises NonFiniteField when g0, probe_grads or u(theta) is not finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    u0 = require_finite(fields.eval_points(build_u_field(phi), theta[None]),
                        "metric factor field")[0]
    g0 = require_finite(g0, "gradient field")
    grads = require_finite(probe_grads, "gradient field")
    j0 = inverse_apply(MetricPoint(u0), g0)
    pts = np.concatenate([
        theta + eps * probes,
        theta - eps * probes,
        (theta + eps * j0)[None],
        (theta - eps * j0)[None],
        theta[None],
    ], axis=0)
    return FrozenProbes(points=pts, probes=probes, grads=grads, eps=eps,
                        theta=theta)


def evaluate_divergence_loss(phi: MetricNetParams, ctx: FrozenProbes):
    """(div, loss, phi-gradients) for the frozen probe batch.

    Builds the squared divergence estimate as a tape over phi: u is
    re-evaluated through the network at every frozen point, the gradient
    field enters as constants.
    """
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    graph = DiffGraph()
    var_phi = phi.with_arrays([graph.leaf(a) for a in phi.params_list()])

    omega, sigma, _ = metric_net_forward(
        var_phi, phi.layout.unflatten_batch(ctx.points))
    u = build_u(fp, TransformParams(omega_tilde=omega, sigma_tilde=sigma),
                ctx.points)

    k = ctx.probes.shape[0]
    u_probe = tape.slice_axis(u, (slice(0, 2 * k), slice(None)))
    j = inverse_apply(MetricPoint(u_probe), ctx.grads)
    j_diff = tape.sub(tape.slice_axis(j, (slice(0, k), slice(None))),
                      tape.slice_axis(j, (slice(k, 2 * k), slice(None))))
    term1 = tape.mul(tape.reduce_sum(tape.mul(ctx.probes, j_diff)),
                     1.0 / (2.0 * ctx.eps * k))

    u_jp = tape.slice_axis(u, 2 * k)
    u_jm = tape.slice_axis(u, 2 * k + 1)
    u_t = tape.slice_axis(u, 2 * k + 2)
    det_t = tape.add(tape.reduce_sum(tape.mul(u_t, u_t)), 1.0)
    term2 = tape.div(tape.reduce_sum(tape.mul(u_t, tape.sub(u_jp, u_jm))),
                     tape.mul(det_t, 2.0 * ctx.eps))

    div = tape.add(term1, term2)
    loss = tape.mul(div, div)
    grads = graph.leaf_gradients(loss)
    return float(tape.value(div)), float(tape.value(loss)), grads


def _kick_heads(phi: MetricNetParams, rng: RngStream, scale: float) -> None:
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += rng.uniform(-scale, scale, a.shape)


def train_metric_net(phi: MetricNetParams, theta: np.ndarray, grad_fn,
                     pc: ProbeConfig, max_iters: int = 20,
                     step_cfg: StepConfig | None = None):
    """Descend (divergence estimate)^2 in phi; return (best phi, history).

    history records one (iter, div, loss) triple per completed iteration,
    always describing the best iterate seen so far — the curve is exactly
    non-increasing in loss, and the final entry describes the returned phi.
    The gradient field is evaluated once, over theta and all max_iters
    iterations' probe rows.  A non-finite loss, u field, or gradient row
    of the current iteration aborts the loop there; the incumbent is
    returned unchanged.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    cfg = step_cfg if step_cfg is not None else StepConfig()
    theta = np.asarray(theta, dtype=np.float64)
    probe_rng = RngStream(pc.seed).spawn("alg1-probes")
    kick_rng = RngStream(pc.seed).spawn("alg1-kick")

    work = phi.copy()
    arrs = work.params_list()
    adam = Adam([a.shape for a in arrs], lr=cfg.lr, beta1=cfg.beta1,
                beta2=cfg.beta2, eps=cfg.eps)
    best_arrays = [a.copy() for a in arrs]
    best_loss, best_div = np.inf, np.nan
    history = []

    probes = np.stack([rademacher_matrix(probe_rng, pc.probe_count, theta.size)
                       for _ in range(max_iters)])
    eps = pc.step_at(theta)
    g0, probe_grads = probe_field_rows(grad_fn, theta, probes, eps)

    for it in range(max_iters):
        try:
            ctx = freeze_probe_batch(work, theta, g0, probes[it],
                                     probe_grads[it], eps)
            div, loss, grads = evaluate_divergence_loss(work, ctx)
        except NonFiniteField:
            break
        if not np.isfinite(loss):
            break
        if loss < best_loss:
            best_loss, best_div = loss, div
            best_arrays = [a.copy() for a in arrs]
        history.append((it, best_div, best_loss))
        grad_peak = max(float(np.max(np.abs(g))) for g in grads)
        if grad_peak == 0.0 and loss > 0.0:
            # Exact saddle of the zero-head start: every loss derivative
            # carries a factor of u, which is identically 0.0 here.
            _kick_heads(work, kick_rng, cfg.kick_scale)
        else:
            adam.step(arrs, grads)
    return work.with_arrays(best_arrays), history


# ------------------------------------------------------------- checkpoints


def save_params(phi: MetricNetParams, path: str) -> None:
    """Versioned binary checkpoint: magic, JSON header, raw f8 payload."""
    arrs = phi.params_list()
    header = {
        "version": 1,
        "layout": [list(s) for s in phi.layout.shapes],
        "m_tilde": phi.m_tilde,
        "pool_size": phi.pool_size,
        "kernel": phi.kernel,
        "plans": [[s for s in p] for p in phi.plans],
        "arrays": [list(a.shape) for a in arrs],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                              for a in arrs]).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)


def load_params(path: str) -> MetricNetParams:
    """Read a ``save_params`` checkpoint, checking its header first.

    The header's plans and array shapes must be exactly those that
    ``init_params`` builds for its layout, kernel, pool size and widths;
    any difference raises LayoutMismatch.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a metric-net checkpoint: {path}")
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    layout = LayerLayout(shapes=tuple(tuple(s) for s in header["layout"]))
    shapes = [tuple(s) for s in header["arrays"]]
    if len(shapes) < 6 or len(shapes[-6]) != 2:
        raise LayoutMismatch("checkpoint arrays do not end in a dense trunk")
    trunk_in, trunk_width = shapes[-6]
    cfg = MetricNetConfig(m_tilde=int(header["m_tilde"]),
                          pool_size=int(header["pool_size"]),
                          kernel=int(header["kernel"]),
                          part_width=trunk_in // len(layout.shapes),
                          trunk_width=trunk_width)
    # the network the header describes, holding throwaway values
    template = init_params(RngStream(0), cfg, layout)
    plans = tuple(tuple(p) for p in header["plans"])
    if plans != template.plans:
        raise LayoutMismatch(f"checkpoint plans {plans} differ from "
                             f"{template.plans}, implied by its layout")
    expected = [a.shape for a in template.params_list()]
    if shapes != expected:
        raise LayoutMismatch(f"checkpoint array shapes {shapes} differ from "
                             f"{expected}, implied by its header")
    ends = np.cumsum([int(np.prod(s)) for s in shapes])
    if ends[-1] != payload.size:
        raise ValueError(
            f"checkpoint payload mismatch: {ends[-1]} != {payload.size}")
    return template.with_arrays([
        payload[end - a.size:end].reshape(a.shape).copy()
        for a, end in zip(template.params_list(), ends)])


def params_to_json(phi: MetricNetParams) -> dict:
    """Inspection-friendly export; lossy only in that floats print as JSON."""
    return {
        "layout": [list(s) for s in phi.layout.shapes],
        "m_tilde": phi.m_tilde,
        "pool_size": phi.pool_size,
        "kernel": phi.kernel,
        "plans": [[s for s in p] for p in phi.plans],
        "groups": phi.param_groups(),
        "arrays": [np.asarray(a).tolist() for a in phi.params_list()],
    }
