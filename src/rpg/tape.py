"""Reverse-mode automatic differentiation over array-valued graphs.

No library module calls the general tape any more: the metric-net loss
and the MLP policy's log-probability gradient have hand-written backward
passes (``metricnet.evaluate_divergence_loss``,
``policy.PolicyMLP.row_logprob_grads``).  The module stays because the
benchmark's tracer (``perfbench/tracer.py``) patches
``DiffGraph.leaf_gradients`` and reads ``value``, and the tests' tape
references (``tests/tape_reference.py``) build on it.

Leaves are float64 arrays registered on a DiffGraph, every operation
produces a Var holding a numpy array, and ``DiffGraph.leaf_gradients``
replays the recorded nodes once in reverse.  Values may carry a leading
batch axis; parameters broadcast against it and the backward pass sums the
broadcast axes away (see ``_unbroadcast``).  Constants never enter the
graph: a plain ndarray argument is a fixed value, and an expression built
only from ndarrays evaluates to an ndarray.
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


def tanh(a):
    av = _val(a)
    out = np.tanh(av)
    if not isinstance(a, Var):
        return out
    return Var(a.graph, out, (a,), lambda g: [g * (1.0 - out * out)])


def square(a):
    return mul(a, a)


def value(a) -> np.ndarray:
    """Detach: the numeric payload of a Var, or the array itself."""
    return np.asarray(_val(a))
