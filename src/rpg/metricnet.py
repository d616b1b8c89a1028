"""The metric network: layered policy parameters in, (omega_tilde, sigma_tilde) out.

Architecture, per parameter part (weight matrix or bias vector): two valid
convolutions (KERNEL = 3: 3x3 while the part is a matrix with both dims >= 3,
length-3 on the flattened part otherwise, skipped when the part is smaller)
-> flatten -> average pool (POOL_SIZE = 5, stride 5, partial trailing window;
the policy's output bias part is exempt) -> dense (PART_WIDTH) -> softplus.
Part features are concatenated into a shared dense trunk (TRUNK_WIDTH,
softplus), which feeds two zero-initialized *linear* heads producing
omega_tilde and sigma_tilde.  Only m_tilde varies between networks.
The forward is plain numpy over a batch of points; each convolution stage
is one sum over the kernel taps and each pool one ``np.add.reduceat``.

Zero heads mean u = 0 identically at initialization: the learned metric
starts exactly Euclidean and the step-0 regularized gradient equals the raw
gradient bitwise.

``train_metric_net`` drives the squared probe-estimated divergence toward
zero in the network parameters phi.  No gradient-field value depends on phi,
so the probe vectors of every iteration are drawn up front and the field is
evaluated once per pass, at theta and at every iteration's theta +- eps*v
rows.  Per iteration those values, the probe vectors, and the two points
theta +- eps*J displaced along the current field are frozen as constants;
only u(., phi) depends on phi, so the loss is differentiable in phi
without differentiating the objective's gradient field.  The loss squares
the divergence report's own estimate (``rpg.divergence.probe_divergence``),
whose reverse pass ends at u; from there a pass written out by hand for
this fixed architecture carries the gradient to phi
(``evaluate_divergence_loss``); ``tests/tape_reference.py`` builds the same
loss on the general tape as the reference.  The zero-head start is an
exact saddle — every phi-derivative carries a factor of u or u.g, which is
exactly 0.0 — so when the loss is positive but the phi-gradient is
identically zero the loop applies one small seeded kick to the head
parameters and resumes descent.  The returned phi is the best
recorded iterate, never the last one; a non-finite loss, u value or
gradient row aborts the loop at its iteration and returns that incumbent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .divergence import (FrozenProbes, freeze_probe_batch, probe_divergence,
                         probe_field_rows)
from .errors import BadDimensions, LayoutMismatch, NonFiniteField
from .fields import ProbeConfig, default_fd_step
from .fourier import build_fourier_pair, build_u, rotate, scaling_vector
from .rng import RngStream, rademacher_matrix

# v2 headers record LayerLayout.pool_exempt; v1 files still load, with the
# default exempt part
CHECKPOINT_MAGIC = b"RPGPHI2\n"
CHECKPOINT_MAGIC_V1 = b"RPGPHI1\n"

# the fixed architecture; headers still record KERNEL and POOL_SIZE
KERNEL = 3
POOL_SIZE = 5
PART_WIDTH = 8
TRUNK_WIDTH = 16
INIT_SCALE = 0.3        # uniform init bound, before dividing by sqrt(fan_in)


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


def _conv_plan(shape):
    """Two conv stages chosen by the running shape; returns (stages, out_len)."""
    stages, cur = [], tuple(shape)
    for _ in range(2):
        if len(cur) == 2 and cur[0] >= KERNEL and cur[1] >= KERNEL:
            stages.append("2d")
            cur = (cur[0] - KERNEL + 1, cur[1] - KERNEL + 1)
        else:
            flat = int(np.prod(cur))
            if flat >= KERNEL:
                stages.append("1d")
                cur = (flat - KERNEL + 1,)
            else:
                stages.append(None)
                cur = (flat,)
    return tuple(stages), int(np.prod(cur))


# ------------------------------------------------------------------ params


@dataclass(frozen=True)
class MetricNetConfig:
    """m_tilde frequencies; every other size is a module constant."""

    m_tilde: int


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

    def with_flat(self, vec: np.ndarray) -> "MetricNetParams":
        """The same network with every array a view into the flat vec,
        arrays laid end to end in ``params_list`` order."""
        arrays, at = [], 0
        for a in self.params_list():
            arrays.append(vec[at:at + a.size].reshape(a.shape))
            at += a.size
        if at != vec.size:
            raise LayoutMismatch(f"flat vector of {vec.size} values for "
                                 f"{at} parameters")
        return self.with_arrays(arrays)


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
        s = INIT_SCALE / max(1.0, np.sqrt(fan_in))
        return rng.uniform(-s, s, shape)

    plans, part_convs, part_dense = [], [], []
    exempt = layout.output_bias_part
    for i, shape in enumerate(layout.shapes):
        stages, conv_len = _conv_plan(shape)
        plans.append(stages)
        kerns = []
        for st in stages:
            if st == "2d":
                kerns.append(uniform((KERNEL * KERNEL,), KERNEL * KERNEL))
            elif st == "1d":
                kerns.append(uniform((KERNEL,), KERNEL))
            else:
                kerns.append(None)
        feat = conv_len if i == exempt else _pooled_len(conv_len, POOL_SIZE)
        part_convs.append(kerns)
        part_dense.append([uniform((feat, PART_WIDTH), feat),
                           np.zeros(PART_WIDTH)])
    trunk_in = len(layout.shapes) * PART_WIDTH
    return MetricNetParams(
        layout=layout, m_tilde=cfg.m_tilde, plans=tuple(plans),
        part_convs=part_convs, part_dense=part_dense,
        trunk_w=uniform((trunk_in, TRUNK_WIDTH), trunk_in),
        trunk_b=np.zeros(TRUNK_WIDTH),
        head_omega_w=np.zeros((TRUNK_WIDTH, cfg.m_tilde)),
        head_omega_b=np.zeros(cfg.m_tilde),
        head_sigma_w=np.zeros((TRUNK_WIDTH, cfg.m_tilde)),
        head_sigma_b=np.zeros(cfg.m_tilde))


# ----------------------------------------------------------------- forward


@lru_cache(maxsize=64)
def _taps(shape: tuple, k: int, ndim: int):
    """Windows of a valid k-wide correlation over the trailing ndim axes.

    Returns (keys, out_shape): keys[t] indexes the input window under
    kernel tap t (taps flat, row-major); out_shape is the output's shape.
    """
    lead = (slice(None),) * (len(shape) - ndim)
    spans = [s - k + 1 for s in shape[-ndim:]]
    keys = [lead + tuple(slice(o, o + m) for o, m in zip(offsets, spans))
            for offsets in np.ndindex(*(k,) * ndim)]
    return keys, shape[:-ndim] + tuple(spans)


def _conv_valid(x, kernel, k: int, ndim: int):
    """sum_t kernel[t] * (x shifted by tap t), accumulated in tap order."""
    keys, _ = _taps(x.shape, k, ndim)
    out = x[keys[0]] * kernel[0]
    for t in range(1, len(keys)):
        out += x[keys[t]] * kernel[t]
    return out


@lru_cache(maxsize=64)
def _pool_windows(length: int, size: int):
    """(starts, counts) of the size-wide windows along a length-long axis;
    a partial trailing window counts the entries it has.  Both are shared
    between callers, so both are read-only."""
    starts = np.arange(0, length, size)
    counts = np.minimum(starts + size, length) - starts
    starts.flags.writeable = False
    counts.flags.writeable = False
    return starts, counts


def _flatten(x):
    return x if x.ndim == 2 else x.reshape(len(x), -1)


def _sigmoid(z):
    """The derivative of softplus, in the overflow-free tanh form."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def metric_net_forward(phi: MetricNetParams, theta_layers, keep=False):
    """Network forward pass; returns (omega_tilde, sigma_tilde, acts).

    theta_layers follows phi.layout — a list of parts, each either a single
    part or a (B, ...) stack.  Outputs mirror the batching.  acts is None
    unless keep, when it holds the activations ``_net_backward`` reads;
    without keep none of them is collected.
    """
    parts = list(theta_layers)
    if len(parts) != len(phi.layout.shapes):
        raise LayoutMismatch(
            f"expected {len(phi.layout.shapes)} parts, got {len(parts)}")
    batched = np.ndim(parts[0]) == len(phi.layout.shapes[0]) + 1
    exempt = phi.layout.output_bias_part

    feats, part_acts = [], []
    for i, (part, base) in enumerate(zip(parts, phi.layout.shapes)):
        x = np.asarray(part, dtype=np.float64)
        if not batched:
            x = x[None]
        if x.shape[1:] != base:
            raise LayoutMismatch(f"part {i} shape {x.shape[1:]} != {base}")
        stage_in = []
        for stage, kern in zip(phi.plans[i], phi.part_convs[i]):
            if stage is not None:
                x = x if stage == "2d" else _flatten(x)
                if keep:
                    stage_in.append(x)
                x = _conv_valid(x, kern, KERNEL, x.ndim - 1)
        x = _flatten(x)
        flat_len = x.shape[1]
        if i != exempt:
            starts, counts = _pool_windows(flat_len, POOL_SIZE)
            x = np.add.reduceat(x, starts, axis=-1) * (1.0 / counts)
        w, b = phi.part_dense[i]
        z = x @ w + b
        feats.append(np.logaddexp(0.0, z))
        if keep:
            part_acts.append((stage_in, flat_len, x, z))

    h_in = feats[0] if len(feats) == 1 else np.concatenate(feats, axis=1)
    z_trunk = h_in @ phi.trunk_w + phi.trunk_b
    h = np.logaddexp(0.0, z_trunk)
    omega = h @ phi.head_omega_w + phi.head_omega_b
    sigma = h @ phi.head_sigma_w + phi.head_sigma_b
    if not batched:
        omega = omega.reshape(phi.m_tilde)
        sigma = sigma.reshape(phi.m_tilde)
    acts = (part_acts, h_in, z_trunk, h) if keep else None
    return omega, sigma, acts


def _net_backward(phi: MetricNetParams, acts, g_omega, g_sigma) -> list:
    """phi-gradients, in ``params_list`` order, of a batched forward whose
    (B, m_tilde) outputs carry the cotangents g_omega and g_sigma.

    theta is a constant, so the first conv stage of a part needs only its
    kernel gradient; the second also passes a cotangent to its input.
    """
    part_acts, h_in, z_trunk, h = acts
    g_h = g_omega @ phi.head_omega_w.T + g_sigma @ phi.head_sigma_w.T
    g_z = g_h * _sigmoid(z_trunk)
    tail = [h_in.T @ g_z, g_z.sum(axis=0),
            h.T @ g_omega, g_omega.sum(axis=0),
            h.T @ g_sigma, g_sigma.sum(axis=0)]
    g_feats = g_z @ phi.trunk_w.T

    grads, at = [], 0
    for i, (stage_in, flat_len, x, z) in enumerate(part_acts):
        w = phi.part_dense[i][0]
        g_z = g_feats[:, at:at + w.shape[1]] * _sigmoid(z)
        at += w.shape[1]
        kern_grads = []
        if stage_in:
            g = g_z @ w.T
            if i != phi.layout.output_bias_part:
                _, counts = _pool_windows(flat_len, POOL_SIZE)
                g = np.repeat(g * (1.0 / counts), counts, axis=-1)
            kerns = [kern for kern in phi.part_convs[i] if kern is not None]
            for s in reversed(range(len(stage_in))):
                a = stage_in[s]
                keys, out_shape = _taps(a.shape, KERNEL, a.ndim - 1)
                g = g.reshape(out_shape)
                kern_grads.insert(0, np.array([np.sum(g * a[key])
                                               for key in keys]))
                if s:
                    g_in = np.zeros(a.shape)
                    for t, key in enumerate(keys):
                        g_in[key] += g * kerns[s][t]
                    g = g_in
        grads.extend(kern_grads + [x.T @ g_z, g_z.sum(axis=0)])
    return grads + tail


def build_u_field(phi: MetricNetParams):
    """Numeric, batch-capable u(theta) closure over fixed phi."""
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    layout = phi.layout

    def u_fn(pts):
        pts = np.asarray(pts, dtype=np.float64)
        single = pts.ndim == 1
        batch = pts[None] if single else pts
        omega, sigma, _ = metric_net_forward(phi, layout.unflatten_batch(batch))
        u = build_u(fp, omega, sigma, batch)
        return u[0] if single else u

    return u_fn


# ---------------------------------------------------------------- training


class Adam:
    """Plain Adam over one flat parameter vector (updated in place), with
    Kingma & Ba's (2015) recommended decays and epsilon."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        self.m += (1.0 - self.beta1) * (grads - self.m)
        self.v += (1.0 - self.beta2) * (grads * grads - self.v)
        params -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def evaluate_divergence_loss(phi: MetricNetParams, ctx: FrozenProbes):
    """(div, loss, phi-gradients) for the frozen probe batch.

    One numpy forward re-evaluates u through the network at every frozen
    point and keeps its activations; the gradient field enters as
    constants.  ``probe_divergence`` carries d loss back to u; a reverse
    pass continues through the Fourier scaling and rotation and the
    network (``_net_backward``).  The gradients come in
    ``phi.params_list()`` order.
    """
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    pts = ctx.points
    omega, sigma, acts = metric_net_forward(
        phi, phi.layout.unflatten_batch(pts), keep=True)
    u = build_u(fp, omega, sigma, pts)
    div, vjp = probe_divergence(u, ctx)
    g_u = vjp(2.0 * div)
    # through u = (Omega omega_tilde) * (R theta) to the network outputs
    c = pts @ fp.omega
    g_rot = g_u * scaling_vector(fp, omega)
    g_omega = (g_u * rotate(fp, sigma, pts)) @ fp.omega
    g_sigma = (-(g_rot @ fp.phi) * c) * np.cos(sigma) \
        - ((g_rot @ fp.omega) * c) * np.sin(sigma)
    grads = _net_backward(phi, acts, g_omega, g_sigma)
    return float(div), float(div * div), grads


def _kick_heads(phi: MetricNetParams, rng: RngStream, scale: float) -> None:
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += rng.uniform(-scale, scale, a.shape)


def train_metric_net(phi: MetricNetParams, theta: np.ndarray, grad_fn,
                     pc: ProbeConfig, max_iters: int = 20, lr: float = 1e-3,
                     kick_scale: float = 1e-2):
    """Descend (divergence estimate)^2 in phi; return (best phi, history).

    lr is Adam's step size; a kick at an exact saddle adds uniform
    +-kick_scale noise to the heads.
    history records one (iter, div, loss) triple per completed iteration,
    always describing the best iterate seen so far — the curve is exactly
    non-increasing in loss, and the final entry describes the returned phi.
    The gradient field is evaluated once, over theta and all max_iters
    iterations' probe rows; a non-finite value at theta ends the pass
    before its first iteration.  A non-finite loss, u field, or gradient
    row of the current iteration aborts the loop there; the incumbent is
    returned unchanged.  Adam works on one flat copy of phi's arrays.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    theta = np.asarray(theta, dtype=np.float64)
    probe_rng = RngStream(pc.seed).spawn("alg1-probes")
    kick_rng = RngStream(pc.seed).spawn("alg1-kick")

    flat = np.concatenate([np.ravel(a) for a in phi.params_list()])
    work = phi.with_flat(flat)
    adam = Adam(flat.size, lr=lr)
    best = flat.copy()
    best_loss, best_div = np.inf, np.nan
    history = []

    probes = np.stack([rademacher_matrix(probe_rng, pc.probe_count, theta.size)
                       for _ in range(max_iters)])
    eps = default_fd_step(theta)
    g0, probe_grads = probe_field_rows(grad_fn, theta, probes, eps)

    try:
        for it in range(max_iters):
            ctx = freeze_probe_batch(build_u_field(work)(theta), theta, g0,
                                     probes[it], probe_grads[it], eps)
            div, loss, grads = evaluate_divergence_loss(work, ctx)
            if not np.isfinite(loss):
                break
            if loss < best_loss:
                best_loss, best_div = loss, div
                best = flat.copy()
            history.append((it, best_div, best_loss))
            grad = np.concatenate([np.ravel(g) for g in grads])
            if loss > 0.0 and not np.any(grad):
                # Exact saddle of the zero-head start: every loss derivative
                # carries a factor of u, which is identically 0.0 here.
                _kick_heads(work, kick_rng, kick_scale)
            else:
                adam.step(flat, grad)
    except NonFiniteField:
        pass  # the incumbent stands
    return phi.with_flat(best), history


# ------------------------------------------------------------- checkpoints


def save_params(phi: MetricNetParams, path: str) -> None:
    """Versioned binary checkpoint: magic, JSON header, raw f8 payload."""
    arrs = phi.params_list()
    header = {
        "version": 2,
        "layout": [list(s) for s in phi.layout.shapes],
        "pool_exempt": phi.layout.pool_exempt,
        "m_tilde": phi.m_tilde,
        "pool_size": POOL_SIZE,
        "kernel": KERNEL,
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


_HEADER_KEYS = ("kernel", "pool_size", "m_tilde", "layout", "plans", "arrays")


def load_params(path: str) -> MetricNetParams:
    """Read a ``save_params`` checkpoint, checking its header first.

    The header's kernel and pool size must be KERNEL and POOL_SIZE, and
    its plans and array shapes exactly those that ``init_params`` builds
    for its layout and m_tilde; any difference, or a missing key, raises
    LayoutMismatch.  A v2 header must hold an int or null pool_exempt; a v1
    file has none and loads with the layout's default exempt part.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic not in (CHECKPOINT_MAGIC, CHECKPOINT_MAGIC_V1):
            raise ValueError(f"not a metric-net checkpoint: {path}")
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise LayoutMismatch(f"checkpoint header lacks {', '.join(missing)}")
    exempt = None
    if magic == CHECKPOINT_MAGIC:
        exempt = header.get("pool_exempt", "missing")
        if exempt is not None and type(exempt) is not int:
            raise LayoutMismatch(
                f"checkpoint pool_exempt {exempt!r} is not an int or null")
    if (header["kernel"], header["pool_size"]) != (KERNEL, POOL_SIZE):
        raise LayoutMismatch(f"checkpoint kernel/pool size {header['kernel']}"
                             f"/{header['pool_size']} != {KERNEL}/{POOL_SIZE}")
    layout = LayerLayout(shapes=tuple(tuple(s) for s in header["layout"]),
                         pool_exempt=exempt)
    # the network the header describes, holding throwaway values
    template = init_params(RngStream(0),
                           MetricNetConfig(m_tilde=int(header["m_tilde"])),
                           layout)
    plans = tuple(tuple(p) for p in header["plans"])
    if plans != template.plans:
        raise LayoutMismatch(f"checkpoint plans {plans} differ from "
                             f"{template.plans}, implied by its layout")
    shapes = [tuple(s) for s in header["arrays"]]
    expected = [a.shape for a in template.params_list()]
    if shapes != expected:
        raise LayoutMismatch(f"checkpoint array shapes {shapes} differ from "
                             f"{expected}, implied by its header")
    total = sum(int(np.prod(s)) for s in shapes)
    if total != payload.size:
        raise ValueError(
            f"checkpoint payload mismatch: {total} != {payload.size}")
    return template.with_flat(payload.copy())


def params_to_json(phi: MetricNetParams) -> dict:
    """Inspection-friendly export; lossy only in that floats print as JSON."""
    return {
        "layout": [list(s) for s in phi.layout.shapes],
        "m_tilde": phi.m_tilde,
        "pool_size": POOL_SIZE,
        "kernel": KERNEL,
        "plans": [[s for s in p] for p in phi.plans],
        "groups": phi.param_groups(),
        "arrays": [np.asarray(a).tolist() for a in phi.params_list()],
    }
