"""Reverse-mode automatic differentiation over array-valued graphs.

Only the metric-network parameters ever need derivatives in this package, so
the engine is deliberately small: leaves are float64 arrays registered on a
DiffGraph, every operation produces a Var holding a numpy array, and
``backprop`` replays the recorded nodes once in reverse.  Values are allowed
to carry a leading batch axis; parameters broadcast against it and the
backward pass sums the broadcast axes away (see ``_unbroadcast``).
Besides elementwise maps, slicing and matmul, two stage-sized primitives
serve the metric network's front end: ``conv_valid`` (a whole valid
convolution) and ``avg_pool`` (every pooling window), one node each.

Constants never enter the graph: any plain ndarray argument is treated as a
fixed value, so an expression built entirely from ndarrays evaluates to an
ndarray with zero bookkeeping.  That property is used heavily — the same
forward code serves both the differentiable path and the fast numeric path.
"""

from __future__ import annotations

import numpy as np


class Var:
    """One recorded value; ``parents`` and ``vjp`` define the backward step."""

    __slots__ = ("value", "parents", "vjp", "grad", "graph")

    def __init__(self, graph, value, parents=(), vjp=None):
        self.graph = graph
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        graph.nodes.append(self)

    @property
    def shape(self):
        return np.shape(self.value)


class DiffGraph:
    """Recording tape plus the ordered list of parameter leaves."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.leaves: list[Var] = []

    def leaf(self, value) -> Var:
        v = Var(self, np.asarray(value, dtype=np.float64))
        self.leaves.append(v)
        return v

    def leaf_gradients(self, output: Var) -> list[np.ndarray]:
        """d(output)/d(leaf) for every registered leaf, in order."""
        if np.size(output.value) != 1:
            raise ValueError("backprop output must be scalar")
        for node in self.nodes:
            node.grad = None
        output.grad = np.ones_like(np.asarray(output.value, dtype=np.float64))
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, contribution in zip(node.parents, node.vjp(node.grad)):
                if contribution is None:
                    continue
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad = parent.grad + contribution
        return [
            leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for leaf in self.leaves
        ]


def backprop(graph: DiffGraph, output: Var) -> np.ndarray:
    """Flat vector of d(output)/d(leaf), leaves concatenated in order."""
    grads = graph.leaf_gradients(output)
    return np.concatenate([np.ravel(g) for g in grads]) if grads else np.zeros(0)


# --------------------------------------------------------------------------
# operations: Var|ndarray in, Var out when any input is a Var, ndarray else
# --------------------------------------------------------------------------


def _val(x):
    return x.value if isinstance(x, Var) else x


def _graph_of(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.graph
    return None


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if np.shape(grad) == tuple(shape):
        return grad
    extra = np.ndim(grad) - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and np.shape(grad)[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(a, b, out, vjp_a, vjp_b):
    g = _graph_of(a, b)
    if g is None:
        return out
    parents, vjps = [], []
    if isinstance(a, Var):
        parents.append(a)
        vjps.append(vjp_a)
    if isinstance(b, Var):
        parents.append(b)
        vjps.append(vjp_b)
    return Var(g, out, tuple(parents), lambda grad: [f(grad) for f in vjps])


def add(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av + bv,
                   lambda g: _unbroadcast(g, np.shape(av)),
                   lambda g: _unbroadcast(g, np.shape(bv)))


def sub(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av - bv,
                   lambda g: _unbroadcast(g, np.shape(av)),
                   lambda g: _unbroadcast(-g, np.shape(bv)))


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av * bv,
                   lambda g: _unbroadcast(g * bv, np.shape(av)),
                   lambda g: _unbroadcast(g * av, np.shape(bv)))


def div(a, b):
    av, bv = _val(a), _val(b)
    return _binary(a, b, av / bv,
                   lambda g: _unbroadcast(g / bv, np.shape(av)),
                   lambda g: _unbroadcast(-g * av / (bv * bv), np.shape(bv)))


def neg(a):
    av = _val(a)
    if not isinstance(a, Var):
        return -av
    return Var(a.graph, -av, (a,), lambda g: [-g])


def matmul(a, b):
    """2-d @ 2-d, 1-d @ 2-d, or 2-d @ 1-d (the shapes the nets use)."""
    av, bv = _val(a), _val(b)
    out = av @ bv

    def vjp_a(g):
        if np.ndim(av) == 1:
            return g @ np.transpose(bv) if np.ndim(bv) == 2 else g * bv
        if np.ndim(bv) == 1:
            return np.outer(g, bv)
        return g @ np.transpose(bv)

    def vjp_b(g):
        if np.ndim(bv) == 1:
            return np.transpose(av) @ g if np.ndim(av) == 2 else av * g
        if np.ndim(av) == 1:
            return np.outer(av, g)
        return np.transpose(av) @ g

    return _binary(a, b, out, vjp_a, vjp_b)


def conv_valid(a, kernel, k: int, ndim: int):
    """Valid cross-correlation over the trailing ndim (1 or 2) axes of a.

    kernel holds the k**ndim taps flat, row-major; the output is the sum of
    kernel[t] * (a shifted by tap t), accumulated in tap order.
    """
    av, kv = _val(a), _val(kernel)
    shape = np.shape(av)
    lead = (slice(None),) * (len(shape) - ndim)
    spans = [n - k + 1 for n in shape[-ndim:]]
    keys = [lead + tuple(slice(o, o + m) for o, m in zip(offsets, spans))
            for offsets in np.ndindex(*(k,) * ndim)]
    out = av[keys[0]] * kv[0]
    for t in range(1, len(keys)):
        out += av[keys[t]] * kv[t]

    def vjp_a(g):
        z = np.zeros_like(av)
        for t, key in enumerate(keys):
            z[key] += g * kv[t]
        return z

    def vjp_kernel(g):
        return np.array([np.sum(g * av[key]) for key in keys])

    return _binary(a, kernel, out, vjp_a, vjp_kernel)


def avg_pool(a, size: int):
    """Means of consecutive size-wide windows along the last axis of a.

    A partial trailing window is averaged over the entries it has.
    """
    av = _val(a)
    length = np.shape(av)[-1]
    starts = np.arange(0, length, size)
    counts = np.minimum(starts + size, length) - starts
    out = np.add.reduceat(av, starts, axis=-1) * (1.0 / counts)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,),
               lambda g: [np.repeat(g * (1.0 / counts), counts, axis=-1)])


def slice_axis(a, key):
    """a[key] with scatter-add backward (key is any basic-slicing tuple)."""
    av = _val(a)
    out = av[key]
    if not isinstance(a, Var):
        return out

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return [z]

    return Var(a.graph, out, (a,), vjp)


def concat(parts, axis=0):
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    g = _graph_of(*parts)
    if g is None:
        return out
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    parents, slots = [], []
    for i, p in enumerate(parts):
        if isinstance(p, Var):
            parents.append(p)
            slots.append(i)

    def vjp(grad):
        pieces = []
        for i in slots:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(index)])
        return pieces

    return Var(g, out, tuple(parents), vjp)


def reshape(a, shape):
    av = _val(a)
    out = np.reshape(av, shape)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [np.reshape(g, np.shape(av))])


def reduce_sum(a, axis=None):
    av = _val(a)
    out = np.sum(av, axis=axis)
    if not isinstance(a, Var):
        return out

    def vjp(g):
        if axis is None:
            return [np.broadcast_to(g, np.shape(av)).copy()]
        gg = np.expand_dims(g, axis)
        return [np.broadcast_to(gg, np.shape(av)).copy()]

    return Var(a.graph, out, (a,), vjp)


def softplus(a):
    av = _val(a)
    out = np.logaddexp(0.0, av)
    if not isinstance(a, Var):
        return out
    sig = 0.5 * (1.0 + np.tanh(0.5 * av))  # numerically stable sigmoid
    return Var(a.graph, out, (a,), lambda g: [g * sig])


def tanh(a):
    av = _val(a)
    out = np.tanh(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [g * (1.0 - out * out)])


def cos(a):
    av = _val(a)
    out = np.cos(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [-g * np.sin(av)])


def sin(a):
    av = _val(a)
    out = np.sin(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [g * np.cos(av)])


def square(a):
    return mul(a, a)


def value(a) -> np.ndarray:
    """Detach: the numeric payload of a Var, or the array itself."""
    return np.asarray(_val(a))


# --------------------------------------------------------------------------
# Adam, used by the inner metric-training loop
# --------------------------------------------------------------------------


class Adam:
    """Plain Adam over a list of parameter arrays (updates in place)."""

    def __init__(self, shapes, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
