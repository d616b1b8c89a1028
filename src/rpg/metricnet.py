"""The metric network: layered policy parameters in, (omega_tilde, sigma_tilde) out.

Architecture, per parameter part (weight matrix or bias vector): two valid
convolutions (KERNEL = 3: 3x3 while the part is a matrix with both dims >= 3,
length-3 on the flattened part otherwise, skipped when the part is smaller)
-> flatten -> average pool (POOL_SIZE = 5, stride 5, partial trailing window;
the policy's output bias part is exempt) -> dense (PART_WIDTH) -> softplus.
Part features are concatenated into a shared dense trunk (TRUNK_WIDTH,
softplus), which feeds two zero-initialized *linear* heads producing
omega_tilde and sigma_tilde.  Only m_tilde varies between networks.
Nothing before a part's first softplus is nonlinear, so its pre-activation
is x_i A_i + b_i with one (part size x PART_WIDTH) matrix A_i = C1 C2 P W_i,
the convolutions being banded maps (Goodfellow, Bengio & Courville, *Deep
Learning*, 2016, section 9.1).  ``_collapse`` builds the block-diagonal A
of all parts from phi, and a forward over flat points is one x @ A + b.
phi is one flat vector, and the layout and m_tilde fix all of its
structure, which ``_net_plan`` alone derives, once per layout: each part's
stage kinds, conv taps, pool windows and dense input size, and the one
table of every phi array's slot and shape.  Values, views, phi-gradients,
Adam's copy and checkpoints all use that one layout.

Zero heads mean u = 0 identically at initialization: the learned metric
starts exactly Euclidean and the step-0 regularized gradient equals the raw
gradient bitwise.

``train_metric_net`` drives the squared probe-estimated divergence toward
zero in the network parameters phi.  No gradient-field value depends on
phi, so it is all computed before the pass: one probe matrix, its field
values and its batch of points come in as one ``ProbeRows``, views of
the one field call of a training update (``rpg.training.regularize_step``),
which every iteration reads (Algorithm 1 draws fresh probes per
iteration).  Per iteration the loop builds A once,
forwards u(theta) and writes, in place, the batch's two points theta +-
eps*J displaced along the current field; the batch is then frozen as
constants, and the loss forward reuses that A.  Only u(., phi) depends on
phi, so the loss is differentiable in phi without differentiating the
objective's gradient field.  The loss squares the divergence report's own
estimate (``rpg.divergence.probe_divergence``), whose reverse pass ends at
u; from there a pass written out by hand for this fixed architecture
carries the gradient to phi (``evaluate_divergence_loss``);
``tests/tape_reference.py`` builds the same loss on the general tape as the
reference.  The zero-head
start is an exact saddle — every phi-derivative carries a factor of u or
u.g, which is exactly 0.0 — so when the loss is positive but the
phi-gradient is identically zero the loop applies one small seeded kick to
the head parameters and resumes descent.  The phi-gradient is written
straight into one flat vector, laid out like the copy of phi.values that
Adam steps.  The returned phi is the best recorded iterate, never the last one;
a non-finite field row ends the pass before its first iteration, and a
non-finite loss or u value at its iteration, each returning that incumbent.

Outside the loop the network is read through one ``UField`` per phi,
which builds A once: called, it gives u at a batch of points, and its
``at`` forwards one point and returns u there with the vector-Jacobian
product of u that the geodesic correction needs
(``rpg.geodesic.geodesic_gradient``), the same reverse pass carried on to
theta over that one forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .divergence import ProbeRows, freeze_probe_batch, probe_divergence
from .errors import BadDimensions, LayoutMismatch
from .fourier import (build_fourier_pair, build_u, rotate_parts,
                      rotate_transpose, scaling_vector)
from .rng import RngStream

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

    theta is one flat vector, its parts laid end to end in C order;
    ``unflatten_batch`` is the one split of (B, n) rows of it into parts.
    pool_exempt overrides which part skips average pooling (the policy's
    output bias); by default it is the trailing part when that part is a
    vector in a multi-part layout.  output_bias_part is the index of the
    part that skips it, or None.
    """

    shapes: tuple
    pool_exempt: int | None = None
    n: int = field(init=False)
    sizes: tuple = field(init=False)    # entries per part
    output_bias_part: int | None = field(init=False)

    def __post_init__(self):
        norm = tuple(tuple(int(d) for d in s) for s in self.shapes)
        sizes = tuple(int(np.prod(s)) for s in norm)
        if not norm or any(size < 1 for size in sizes):
            raise LayoutMismatch(f"bad layout shapes: {self.shapes}")
        if self.pool_exempt is not None and not (
                0 <= self.pool_exempt < len(norm)):
            raise LayoutMismatch(
                f"pool_exempt {self.pool_exempt} out of range")
        object.__setattr__(self, "shapes", norm)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n", sum(sizes))
        exempt = self.pool_exempt
        if exempt is None and len(norm) > 1 and len(norm[-1]) == 1:
            exempt = len(norm) - 1
        object.__setattr__(self, "output_bias_part", exempt)

    @classmethod
    def from_vector(cls, n: int) -> "LayerLayout":
        return cls(shapes=((n,),))

    def unflatten_batch(self, pts: np.ndarray) -> list:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise LayoutMismatch(f"batch shape {pts.shape} != (B, {self.n})")
        parts, at = [], 0
        for shape, size in zip(self.shapes, self.sizes):
            parts.append(pts[:, at:at + size].reshape((pts.shape[0],) + shape))
            at += size
        return parts


# ------------------------------------------------------------------ params


@dataclass(frozen=True)
class MetricNetConfig:
    """m_tilde frequencies; every other size is a module constant."""

    m_tilde: int


@dataclass
class MetricNetParams:
    """phi: every trainable value in one flat float64 vector, laid out by
    the plan of the layout and m_tilde (``_net_plan``).  ``params_list``
    gives each array as a view into values: per part its conv kernels and
    dense (weight, bias), then the trunk's and the two heads' (weight,
    bias), which are also views by name: trunk_w, trunk_b, head_omega_w,
    head_omega_b, head_sigma_w and head_sigma_b.

    Parameter partition: everything up to the trunk is shared, the
    omega-head pair is phi1, the sigma-head pair is phi2 (the shared/exclusive
    split of the two overlapping parameter sets is a structural guess — the
    reference figure draws the trunk inside both).
    """

    layout: LayerLayout
    m_tilde: int
    values: np.ndarray

    def __post_init__(self):
        (self.trunk_w, self.trunk_b, self.head_omega_w, self.head_omega_b,
         self.head_sigma_w, self.head_sigma_b) = self.params_list()[-6:]

    @property
    def size(self) -> int:
        """Number of trainable values, the length of values."""
        return self.values.size

    @property
    def plans(self) -> tuple:
        """Each part's two stage kinds ("2d", "1d" or None)."""
        plan = _net_plan(self.layout.shapes, self.layout.output_bias_part,
                         self.m_tilde)
        return tuple(pp.kinds for pp in plan.parts)

    def params_list(self) -> list:
        plan = _net_plan(self.layout.shapes, self.layout.output_bias_part,
                         self.m_tilde)
        if np.shape(self.values) != (plan.size,):
            raise LayoutMismatch(f"values of shape {np.shape(self.values)} "
                                 f"for {plan.size} parameters")
        return [self.values[slot].reshape(shape)
                for slot, shape in plan.arrays]

    def param_groups(self) -> dict:
        total = len(self.params_list())
        return {"shared": list(range(total - 4)),
                "phi1": [total - 4, total - 3],
                "phi2": [total - 2, total - 1]}

    def with_flat(self, vec: np.ndarray) -> "MetricNetParams":
        """The same network holding vec, its arrays views into vec."""
        return replace(self, values=vec)


def init_params(rng: RngStream, cfg: MetricNetConfig,
                layout: LayerLayout) -> MetricNetParams:
    """Scaled-uniform conv, dense and trunk weights, drawn part by part
    into their slots of phi's flat vector along the plan
    (``_net_plan``); zero biases and exactly-zero heads."""
    plan = _net_plan(layout.shapes, layout.output_bias_part, cfg.m_tilde)
    values = np.zeros(plan.size)

    def draw(slot, fan_in):
        s = INIT_SCALE / max(1.0, np.sqrt(fan_in))
        values[slot] = rng.uniform(-s, s, slot.stop - slot.start)

    for pp in plan.parts:
        for taps, _, slot in pp.stages:     # one weight per tap
            draw(slot, len(taps))
        draw(pp.weights, pp.features)
    trunk, (trunk_in, _) = plan.arrays[-6]
    draw(trunk, trunk_in)
    return MetricNetParams(layout, cfg.m_tilde, values)


# ----------------------------------------------------------------- forward


@dataclass(frozen=True)
class _PartPlan:
    """One parameter part: its rows of A (its entries in flat theta) and
    columns (in the trunk input); the kind of each of its two conv stages
    ("2d", "1d" or None for a skipped stage); per stage that runs (taps,
    inverse, kernel slot), where taps[t, o] is the flat input tap t reads
    for output o and inverse[t, i] the output reading input i under tap t
    (the output length where none does); the average pool P as (window
    of each conv output, 1 / (pooled, 1) window sizes), None for the part
    exempt from pooling; its dense layer's input size; and the slots of
    its dense weights and bias."""

    rows: slice
    cols: slice
    kinds: tuple
    stages: tuple
    pool: tuple | None
    features: int
    weights: slice
    bias: slice


@dataclass(frozen=True)
class _NetPlan:
    parts: tuple
    arrays: tuple           # (slot, shape) of every phi array, in order
    size: int               # phi's length


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _net_plan(shapes: tuple, exempt: int | None, m_tilde: int) -> _NetPlan:
    """What a layout (its part shapes and the part exempt from pooling)
    and m_tilde fix: per part, each stage's kind by the running shape
    (see the module docstring), conv taps and their inverse, pool windows
    and dense input size; and the one table of every phi array's slot in
    phi's flat vector and shape, which the values and their gradients
    share.  Callers share the plan, so its arrays are read-only."""
    arrays = []

    def take(*shape):       # the next array's slot, entered in the table
        at = arrays[-1][0].stop if arrays else 0
        arrays.append((slice(at, at + math.prod(shape)), shape))
        return arrays[-1][0]

    parts, start = [], 0
    for i, shape in enumerate(shapes):
        cur, kinds, stages = shape, [], []
        for _ in range(2):
            flat = int(np.prod(cur))
            if len(cur) == 2 and min(cur) >= KERNEL:
                kinds.append("2d")
            elif flat >= KERNEL:
                kinds.append("1d")
                cur = (flat,)
            else:
                kinds.append(None)
                continue
            # the flat C-order input index under each tap (row-major) for
            # each output, and for each input the output reading it
            flat_in = np.arange(flat).reshape(cur)
            windows = np.lib.stride_tricks.sliding_window_view(
                flat_in, (KERNEL,) * flat_in.ndim)
            cur = windows.shape[:flat_in.ndim]
            taps = windows.reshape(-1, KERNEL ** flat_in.ndim).T.copy()
            inverse = np.full((len(taps), flat_in.size), taps.shape[1])
            np.put_along_axis(inverse, taps, np.arange(taps.shape[1]), 1)
            stages.append((_read_only(taps), _read_only(inverse),
                           take(len(taps))))
        pool, features = None, int(np.prod(cur))    # the conv output
        if i != exempt:
            # a partial trailing window averages the entries it has
            window = np.arange(features) // POOL_SIZE
            counts = np.unique(window, return_counts=True)[1]
            pool = (_read_only(window), _read_only(1.0 / counts[:, None]))
            features = len(counts)
        weights = take(features, PART_WIDTH)
        size = int(np.prod(shape))
        parts.append(_PartPlan(slice(start, start + size),
                               slice(i * PART_WIDTH, (i + 1) * PART_WIDTH),
                               tuple(kinds), tuple(stages), pool, features,
                               weights, take(PART_WIDTH)))
        start += size
    if not 1 <= m_tilde < start:
        raise BadDimensions(f"m_tilde must satisfy 1 <= m_tilde < n, got "
                            f"{m_tilde} vs n={start}")
    trunk_in = len(shapes) * PART_WIDTH
    for shape in ((trunk_in, TRUNK_WIDTH), (TRUNK_WIDTH,),
                  (TRUNK_WIDTH, m_tilde), (m_tilde,),      # omega head
                  (TRUNK_WIDTH, m_tilde), (m_tilde,)):     # sigma head
        take(*shape)
    return _NetPlan(tuple(parts), tuple(arrays), arrays[-1][0].stop)


def _collapse(phi: MetricNetParams):
    """(plan, A, b, gathered): every part's conv -> conv -> pool -> dense
    chain as one product.

    A_i = C1 C2 P W_i is built right to left: P W_i, row j being W_i's row
    of j's window over the window size (W_i for the part exempt from
    pooling), then each conv stage C applied to the product R on its right
    as the sum over taps of kernel[t] * R[inverse[t]] (R padded with a zero
    row), every array read from its slot of phi.values.  A is the
    block-diagonal (n, PART_WIDTH * parts) matrix of the A_i and b the
    parts' dense biases end to end.  gathered holds, per part and stage in
    stage order, the (taps, stage input length, PART_WIDTH) array
    R[inverse] that the reverse pass reads for the kernel gradient.
    """
    plan = _net_plan(phi.layout.shapes, phi.layout.output_bias_part,
                     phi.m_tilde)
    values = phi.values
    a = np.zeros((phi.layout.n, len(plan.parts) * PART_WIDTH))
    zero_row = np.zeros((1, PART_WIDTH))
    gathered, biases = [], []
    for pp in plan.parts:
        w = values[pp.weights].reshape(-1, PART_WIDTH)
        r, kept = w if pp.pool is None else (w * pp.pool[1])[pp.pool[0]], []
        for _, inverse, slot in reversed(pp.stages):
            g = np.concatenate([r, zero_row])[inverse]
            kept.append(g)
            r = (values[slot] @ g.reshape(len(g), -1)).reshape(g.shape[1:])
        a[pp.rows, pp.cols] = r
        gathered.append(kept[::-1])
        biases.append(values[pp.bias])
    return plan, a, np.concatenate(biases), gathered


def _sigmoid(z):
    """The derivative of softplus, in the overflow-free tanh form."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def metric_net_forward(phi: MetricNetParams, points, front=None):
    """Network forward pass over (B, n) flat points laid out by phi.layout:
    (omega_tilde, sigma_tilde, acts), outputs (B, m_tilde).  front is phi's
    ``_collapse``, built here when None; acts is what ``_net_backward``
    reads: the front, the points and the activations."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != phi.layout.n:
        raise LayoutMismatch(f"points shape {x.shape} != (B, {phi.layout.n})")
    if front is None:
        front = _collapse(phi)
    _, a, bias, _ = front
    z = x @ a + bias
    h_in = np.logaddexp(0.0, z)
    z_trunk = h_in @ phi.trunk_w + phi.trunk_b
    h = np.logaddexp(0.0, z_trunk)
    omega = h @ phi.head_omega_w + phi.head_omega_b
    sigma = h @ phi.head_sigma_w + phi.head_sigma_b
    return omega, sigma, (front, x, z, h_in, z_trunk, h)


def _net_backward(phi: MetricNetParams, acts, g_omega, g_sigma, out):
    """The cotangent g_z of the parts' pre-activations (the theta-cotangent
    is g_z A^T) for a forward whose (B, m_tilde) outputs carry the
    cotangents g_omega and g_sigma; the phi-gradients go to out.

    out is one flat vector of ``phi.size`` values, and each phi-gradient
    is written straight into its array's slot of the plan, laid out as
    phi.values is.  g_z gives A_i's cotangent x_i^T g_z_i, one matmul
    whatever the row count, which is carried back through the chain
    A_i = C1 C2 P W_i to each kernel (one product with the forward's
    gathered R[inverse]) and through each stage (a gather at the stage's
    taps) to W_i.
    """
    (plan, _, _, gathered), x, z, h_in, z_trunk, h = acts
    values = phi.values
    g_h = g_omega @ phi.head_omega_w.T + g_sigma @ phi.head_sigma_w.T
    g_trunk = g_h * _sigmoid(z_trunk)
    g_z = (g_trunk @ phi.trunk_w.T) * _sigmoid(z)
    for pp, kept in zip(plan.parts, gathered):
        g = x[:, pp.rows].T @ g_z[:, pp.cols]
        for (taps, _, slot), r in zip(pp.stages, kept):
            np.matmul(r.reshape(len(r), -1), g.reshape(-1), out=out[slot])
            g = (values[slot] @ g[taps].reshape(len(taps), -1)).reshape(
                -1, PART_WIDTH)
        if pp.pool is not None:
            # P^T g: each window's sum (zero-padded to whole windows) / count
            pad = np.zeros((-len(g) % POOL_SIZE, PART_WIDTH))
            g = np.concatenate([g, pad]).reshape(-1, POOL_SIZE, PART_WIDTH)
            g = g.sum(axis=1) * pp.pool[1]
        out[pp.weights] = g.ravel()
        np.add.reduce(g_z[:, pp.cols], axis=0, out=out[pp.bias])
    dense = plan.arrays[-6:]        # the trunk's, then the heads' (w, b)
    for x_in, g_out, (w, shape), (b, _) in zip(
            (h_in, h, h), (g_trunk, g_omega, g_sigma), dense[::2],
            dense[1::2]):
        # the (weight, bias) gradients of a dense layer x_in @ w + b
        np.matmul(x_in.T, g_out, out=out[w].reshape(shape))
        np.add.reduce(g_out, axis=0, out=out[b])
    return g_z


def _u_forward(phi: MetricNetParams, fp, pts, front):
    """(u, record) at (B, n) points: one forward, then u = scale * rot with
    scale = Omega omega_tilde and rot = R theta, ``build_u``'s value
    bitwise.  record, what ``_u_backward`` reads, is the forward's acts,
    sigma_tilde, scale, rot, Omega^T theta, cos and sin sigma_tilde."""
    omega, sigma, acts = metric_net_forward(phi, pts, front)
    scale = scaling_vector(fp, omega)
    rot, c, cos, sin = rotate_parts(fp, sigma, pts)
    return scale * rot, (acts, sigma, scale, rot, c, cos, sin)


def _u_backward(phi: MetricNetParams, fp, record, g_u, out):
    """Carry a cotangent g_u of ``_u_forward``'s u back through the network
    (``_net_backward``, phi-gradients into out); returns (g_rot, g_z),
    the cotangents of R theta and of the parts' pre-activations."""
    acts, _, scale, rot, c, cos, sin = record
    g_rot = g_u * scale
    g_omega = (g_u * rot) @ fp.omega
    g_sigma = (-(g_rot @ fp.phi) * c) * cos - ((g_rot @ fp.omega) * c) * sin
    return g_rot, _net_backward(phi, acts, g_omega, g_sigma, out)


class UField:
    """The metric factor u(theta) of G = I + u u^T over one fixed phi,
    whose Fourier pair and A (``_collapse``) every forward shares.  Called
    on (n,) or (B, n) points it returns u there, the ``u_fn`` that
    ``rpg.divergence.divergence_report`` and the oracles take."""

    def __init__(self, phi: MetricNetParams):
        self.phi = phi
        self.fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
        self.front = _collapse(phi)

    def __call__(self, pts):
        batch = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        omega, sigma, _ = metric_net_forward(self.phi, batch, self.front)
        u = build_u(self.fp, omega, sigma, batch)
        return u[0] if np.ndim(pts) == 1 else u

    def at(self, theta):
        """(u(theta), u_vjp) from one one-row forward.

        u_vjp(theta, cot) returns (u(theta), (du/dtheta)^T cot) at this
        theta only (``rpg.geodesic.geodesic_gradient``'s contract) and
        runs only the reverse pass.  theta enters u twice: in R theta,
        which gives R^T (cot * Omega omega_tilde), and through the
        network's outputs, which give g_z A^T."""
        phi, fp = self.phi, self.fp
        pts = np.asarray(theta, dtype=np.float64)[None]
        u, record = _u_forward(phi, fp, pts, self.front)

        def u_vjp(_, cot):
            g_rot, g_z = _u_backward(
                phi, fp, record, np.asarray(cot, dtype=np.float64)[None],
                np.empty(phi.size))
            return u[0], (rotate_transpose(fp, record[1], g_rot)
                          + g_z @ self.front[1].T)[0]

        return u[0], u_vjp


# ---------------------------------------------------------------- training


class Adam:
    """Plain Adam over one flat parameter vector (updated in place), with
    Kingma & Ba's (2015) recommended decays and epsilon."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        # the update params -= lr * (m / b1c) / (sqrt(v / b2c) + eps),
        # each operation in place in two scratch buffers
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        a, b = self._a, self._b
        np.subtract(grads, self.m, out=a)
        a *= 1.0 - self.beta1
        self.m += a
        np.multiply(grads, grads, out=a)
        a -= self.v
        a *= 1.0 - self.beta2
        self.v += a
        np.divide(self.m, b1c, out=a)
        a *= self.lr
        np.divide(self.v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def evaluate_divergence_loss(phi: MetricNetParams, ctx: ProbeRows,
                             out: np.ndarray | None = None, front=None):
    """(div, loss, phi-gradient) for the frozen batch ctx.

    One numpy forward re-evaluates u through the network at every frozen
    point and keeps its record (``_u_forward``); the gradient field enters
    as constants.  ``probe_divergence`` carries d loss back to u; a reverse
    pass continues through the Fourier scaling and rotation and the
    network (``_u_backward``).  The gradient is one flat vector laid out
    like phi.values, written into out when given.  front is phi's
    ``_collapse``, built by the forward when None.
    """
    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    u, record = _u_forward(phi, fp, ctx.points, front)
    div, vjp = probe_divergence(u, ctx)
    if out is None:
        out = np.empty(phi.size)
    _u_backward(phi, fp, record, vjp(2.0 * div), out)
    return float(div), float(div * div), out


def _kick_heads(phi: MetricNetParams, rng: RngStream, scale: float) -> None:
    for a in (phi.head_omega_w, phi.head_omega_b,
              phi.head_sigma_w, phi.head_sigma_b):
        a += rng.uniform(-scale, scale, a.shape)


def train_metric_net(phi: MetricNetParams, rows: ProbeRows, seed: int,
                     iters: int, lr: float, kick_scale: float):
    """Descend (divergence estimate)^2 in phi; return (best phi, history).

    lr is Adam's step size; a kick at an exact saddle adds uniform
    +-kick_scale noise to the heads, drawn from seed's kick stream.
    Training passes TrainConfig's metric_lr and kick_scale.
    history records one (iter, div, loss) triple per completed iteration,
    always describing the best iterate seen so far — the curve is exactly
    non-increasing in loss, and the final entry describes the returned phi.

    rows is one ``ProbeRows`` (a view of one ``probe_field_rows`` call),
    and theta is its batch's last row; every one of the iters iterations
    reads it, and iters < 1 raises ValueError.  A non-finite field value
    at theta or at a probe row ends the pass before its first iteration.
    Per iteration, only what depends on phi: A (``_collapse``), which
    both forwards share, u(theta) (one one-row forward), the batch frozen
    in place (``freeze_probe_batch``), the loss and its phi-gradient
    (``evaluate_divergence_loss``, into one flat buffer), then an Adam
    step or a kick, but for the last iteration, whose next phi nothing
    would read.  A non-finite u(theta) or loss ends the loop at its
    iteration, and the incumbent is returned unchanged.  Adam steps a
    copy of phi.values, which the working network's arrays view.
    """
    if iters < 1:
        raise ValueError("metric training needs iters >= 1")
    theta_row = rows.points[-1:]
    kick_rng = RngStream(seed).spawn("alg1-kick")

    work = phi.with_flat(phi.values.copy())
    best = phi.values.copy()
    grad = np.empty_like(best)
    adam = Adam(best.size, lr=lr)
    best_loss, best_div = np.inf, np.nan
    history = []

    fp = build_fourier_pair(phi.layout.n, phi.m_tilde)
    finite = np.isfinite(rows.g0).all() and np.isfinite(rows.grads).all()
    for it in range(iters if finite else 0):
        front = _collapse(work)
        omega, sigma, _ = metric_net_forward(work, theta_row, front=front)
        u0 = build_u(fp, omega, sigma, theta_row)[0]
        if not np.isfinite(u0).all():
            break
        freeze_probe_batch(rows, u0)
        div, loss, _ = evaluate_divergence_loss(work, rows, grad, front)
        if not math.isfinite(loss):
            break
        if loss < best_loss:
            best_loss, best_div = loss, div
            best[:] = work.values
        history.append((it, best_div, best_loss))
        if it + 1 == iters:
            # no phi after the last iteration's is evaluated or returned
            break
        if loss > 0.0 and not grad.any():
            # Exact saddle of the zero-head start: every loss derivative
            # carries a factor of u, which is identically 0.0 here.
            _kick_heads(work, kick_rng, kick_scale)
        else:
            adam.update(work.values, grad)
    return phi.with_flat(best), history


# ------------------------------------------------------------- checkpoints


def _describe(layout: LayerLayout, m_tilde: int) -> dict:
    """The header fields that ``save_params`` writes and ``load_params``
    checks for the network a layout and m_tilde describe, from its plan;
    ``params_to_json`` shares all but the array shapes."""
    plan = _net_plan(layout.shapes, layout.output_bias_part, m_tilde)
    return {"layout": [list(s) for s in layout.shapes],
            "m_tilde": m_tilde,
            "pool_size": POOL_SIZE,
            "kernel": KERNEL,
            "plans": [list(pp.kinds) for pp in plan.parts],
            "arrays": [list(shape) for _, shape in plan.arrays]}


def save_params(phi: MetricNetParams, path: str) -> None:
    """Versioned binary checkpoint: magic, JSON header, phi.values as raw
    little-endian f8."""
    header = {"version": 2, **_describe(phi.layout, phi.m_tilde),
              "pool_exempt": phi.layout.pool_exempt}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(phi.values.astype("<f8").tobytes())


_HEADER_KEYS = ("kernel", "pool_size", "m_tilde", "layout", "plans", "arrays")


def load_params(path: str) -> MetricNetParams:
    """Read a ``save_params`` checkpoint, checking its header first.

    The header's kernel, pool size, plans and array shapes must be
    exactly what ``save_params`` writes for the network that its layout
    and m_tilde describe; any difference, a missing key or a payload of
    another length raises LayoutMismatch, as does a payload that is not a
    whole number of float64s.  A v2 header must hold an int or null
    pool_exempt; a v1 file has none and loads with the layout's default
    exempt part.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic not in (CHECKPOINT_MAGIC, CHECKPOINT_MAGIC_V1):
            raise ValueError(f"not a metric-net checkpoint: {path}")
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size).decode("utf-8"))
        blob = fh.read()
    if len(blob) % 8:
        raise LayoutMismatch(f"checkpoint payload of {len(blob)} bytes is "
                             f"not a whole number of float64s")
    payload = np.frombuffer(blob, dtype="<f8")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise LayoutMismatch(f"checkpoint header lacks {', '.join(missing)}")
    exempt = None
    if magic == CHECKPOINT_MAGIC:
        exempt = header.get("pool_exempt", "missing")
        if exempt is not None and type(exempt) is not int:
            raise LayoutMismatch(
                f"checkpoint pool_exempt {exempt!r} is not an int or null")
    layout = LayerLayout(shapes=tuple(tuple(s) for s in header["layout"]),
                         pool_exempt=exempt)
    m_tilde = int(header["m_tilde"])
    for key, want in _describe(layout, m_tilde).items():
        if header[key] != want:
            raise LayoutMismatch(f"checkpoint {key} {header[key]} differs "
                                 f"from {want}, implied by its layout")
    return MetricNetParams(layout, m_tilde, payload.astype(np.float64))


def params_to_json(phi: MetricNetParams) -> dict:
    """Inspection-friendly export; lossy only in that floats print as JSON."""
    return {**_describe(phi.layout, phi.m_tilde),
            "groups": phi.param_groups(),
            "arrays": [a.tolist() for a in phi.params_list()]}
