import numpy as np
import pytest

import tape_reference as tape
from rpg.metricnet import Adam
from rpg.rng import RngStream
from tape_reference import DiffGraph, backprop


def fd_gradient(fn, xs, step=1e-5):
    """Central finite differences of a scalar fn over a list of arrays."""
    grads = []
    for i, x in enumerate(xs):
        g = np.zeros_like(x)
        flat = g.reshape(-1)
        for k in range(x.size):
            bump = np.zeros_like(x).reshape(-1)
            bump[k] = step
            bump = bump.reshape(x.shape)
            hi = [v.copy() for v in xs]
            lo = [v.copy() for v in xs]
            hi[i] = x + bump
            lo[i] = x - bump
            flat[k] = (fn(hi) - fn(lo)) / (2 * step)
        grads.append(g)
    return grads


def test_square_at_three():
    g = DiffGraph()
    x = g.leaf(3.0)
    y = tape.mul(x, x)
    assert backprop(g, y) == pytest.approx([6.0])


def test_product_partials():
    g = DiffGraph()
    x = g.leaf(2.0)
    y = g.leaf(5.0)
    out = tape.mul(x, y)
    assert np.allclose(backprop(g, out), [5.0, 2.0])


def test_constants_stay_out_of_graph():
    a = np.arange(4.0)
    b = np.ones(4)
    out = tape.add(tape.mul(a, b), b)
    assert isinstance(out, np.ndarray)  # no Var wrapping, pure numpy path


def test_unused_leaf_gets_zero_gradient():
    g = DiffGraph()
    x = g.leaf(1.0)
    _ = g.leaf(np.ones(3))
    y = tape.mul(x, x)
    flat = backprop(g, y)
    assert flat.shape == (4,)
    assert np.allclose(flat[1:], 0.0)


def test_three_layer_graph_matches_fd():
    rng = RngStream(5)
    w1 = rng.normal(size=(4, 3))
    w2 = rng.normal(size=(3, 2))
    w3 = rng.normal(size=2)
    x = rng.normal(size=4)

    def forward(params):
        a, b, c = params
        h1 = tape.tanh(tape.matmul(x, a))
        h2 = tape.softplus(tape.matmul(h1, b))
        out = tape.reduce_sum(tape.mul(h2, c))
        return float(tape.value(out))

    g = DiffGraph()
    leaves = [g.leaf(w1), g.leaf(w2), g.leaf(w3)]
    h1 = tape.tanh(tape.matmul(x, leaves[0]))
    h2 = tape.softplus(tape.matmul(h1, leaves[1]))
    out = tape.reduce_sum(tape.mul(h2, leaves[2]))
    auto = g.leaf_gradients(out)
    numeric = fd_gradient(forward, [w1, w2, w3])
    for a, n in zip(auto, numeric):
        assert np.max(np.abs(a - n)) <= 1e-4 * max(1.0, np.max(np.abs(n)))


@pytest.mark.parametrize("op,ref", [
    (tape.add, lambda a, b: a + b),
    (tape.sub, lambda a, b: a - b),
    (tape.mul, lambda a, b: a * b),
    (tape.div, lambda a, b: a / b),
])
def test_binary_ops_with_broadcast(op, ref):
    rng = RngStream(17)
    a0 = rng.normal(size=(5, 3))
    b0 = rng.normal(size=3) + 3.0  # keep denominators away from zero

    def forward(params):
        return float(np.sum(ref(params[0], params[1])))

    g = DiffGraph()
    a, b = g.leaf(a0), g.leaf(b0)
    out = tape.reduce_sum(op(a, b))
    auto = g.leaf_gradients(out)
    numeric = fd_gradient(forward, [a0, b0])
    for x, y in zip(auto, numeric):
        assert np.max(np.abs(x - y)) <= 1e-6 * max(1.0, np.max(np.abs(y)))


def test_trig_and_slice_and_concat_gradients():
    rng = RngStream(23)
    x0 = rng.normal(size=6)

    def forward(params):
        (p,) = params
        left = np.cos(p[:3])
        right = np.sin(p[3:])
        both = np.concatenate([left, right])
        return float(np.sum(both * both))

    g = DiffGraph()
    x = g.leaf(x0)
    left = tape.cos(tape.slice_axis(x, np.s_[:3]))
    right = tape.sin(tape.slice_axis(x, np.s_[3:]))
    both = tape.concat([left, right])
    out = tape.reduce_sum(tape.square(both))
    auto = g.leaf_gradients(out)[0]
    numeric = fd_gradient(forward, [x0])[0]
    assert np.max(np.abs(auto - numeric)) <= 1e-6


def reference_conv(a, kernel, k, ndim):
    """Valid cross-correlation of each row of a, written out directly."""
    if ndim == 1:
        return np.stack([np.correlate(row, kernel, mode="valid") for row in a])
    taps = kernel.reshape(k, k)
    rows, cols = a.shape[1] - k + 1, a.shape[2] - k + 1
    return np.array([[[np.sum(x[i:i + k, j:j + k] * taps)
                       for j in range(cols)] for i in range(rows)]
                     for x in a])


@pytest.mark.parametrize("ndim,shape", [(1, (3, 7)), (2, (2, 5, 4))],
                         ids=["1d", "2d"])
def test_conv_valid_gradients(ndim, shape):
    """Forward against the direct sum; both operands against central FD."""
    rng = RngStream(29)
    a0 = rng.normal(size=shape)
    k0 = rng.normal(size=3 ** ndim)
    weights = rng.normal(size=reference_conv(a0, k0, 3, ndim).shape)
    assert np.allclose(tape.conv_valid(a0, k0, 3, ndim),
                       reference_conv(a0, k0, 3, ndim), rtol=0, atol=1e-14)

    def forward(params):
        return float(np.sum(weights * reference_conv(*params, 3, ndim)))

    g = DiffGraph()
    a, k = g.leaf(a0), g.leaf(k0)
    out = tape.reduce_sum(tape.mul(tape.conv_valid(a, k, 3, ndim), weights))
    auto = g.leaf_gradients(out)
    numeric = fd_gradient(forward, [a0, k0])
    for x, y in zip(auto, numeric):
        assert x.shape == y.shape
        assert np.max(np.abs(x - y)) <= 1e-6


def test_pick_and_reshape_gradients():
    """Scalar elements picked by slice_axis, directly and through a reshape."""
    rng = RngStream(31)
    k0 = rng.normal(size=9)

    def forward(params):
        m = params[0].reshape(3, 3)
        return float(m[0, 0] * 2.0 + params[0][4] ** 2)

    g = DiffGraph()
    k = g.leaf(k0)
    m = tape.reshape(k, (3, 3))
    out = tape.add(tape.mul(tape.slice_axis(m, (0, 0)), 2.0),
                   tape.square(tape.slice_axis(k, 4)))
    auto = g.leaf_gradients(out)[0]
    numeric = fd_gradient(forward, [k0])[0]
    assert np.max(np.abs(auto - numeric)) <= 1e-6


def test_avg_pool_gradient():
    """Windows of 5 over 12 entries: two full windows and a partial one of 2."""
    rng = RngStream(31)
    x0 = rng.normal(size=24)
    weights = rng.normal(size=(2, 3))

    def reference(x):
        m = x.reshape(2, 12)
        return np.stack([m[:, 0:5].mean(axis=1), m[:, 5:10].mean(axis=1),
                         m[:, 10:12].mean(axis=1)], axis=1)

    g = DiffGraph()
    x = g.leaf(x0)
    pooled = tape.avg_pool(tape.reshape(x, (2, 12)), 5)
    assert np.allclose(tape.value(pooled), reference(x0), rtol=0, atol=1e-15)
    out = tape.reduce_sum(tape.mul(pooled, weights))
    auto = g.leaf_gradients(out)[0]
    numeric = fd_gradient(lambda p: float(np.sum(weights * reference(p[0]))),
                          [x0])[0]
    assert np.max(np.abs(auto - numeric)) <= 1e-6


def test_matmul_vector_matrix_cases():
    rng = RngStream(37)
    w0 = rng.normal(size=(4, 3))
    v0 = rng.normal(size=4)

    def forward(params):
        return float(np.sum(params[1] @ params[0]))

    g = DiffGraph()
    w, v = g.leaf(w0), g.leaf(v0)
    out = tape.reduce_sum(tape.matmul(v, w))
    auto = g.leaf_gradients(out)
    numeric = fd_gradient(forward, [w0, v0])
    for a, n in zip(auto, numeric):
        assert np.max(np.abs(a - n)) <= 1e-6


def test_backprop_rejects_non_scalar_output():
    g = DiffGraph()
    x = g.leaf(np.ones(3))
    y = tape.mul(x, 2.0)
    with pytest.raises(ValueError):
        backprop(g, y)


def test_gradient_reuse_same_graph_is_repeatable():
    g = DiffGraph()
    x = g.leaf(np.array([1.0, 2.0]))
    out = tape.reduce_sum(tape.square(x))
    first = backprop(g, out)
    second = backprop(g, out)
    assert np.array_equal(first, second)


def test_adam_descends_quadratic():
    theta = np.array([5.0, -3.0])
    opt = Adam(theta.size, lr=0.1)
    for _ in range(200):
        opt.update(theta, 2.0 * theta)
    assert np.max(np.abs(theta)) < 1e-2


def test_adam_is_deterministic():
    def run():
        p = np.array([1.0, 1.0])
        opt = Adam(2, lr=0.05)
        for _ in range(50):
            opt.update(p, p ** 2 + 1.0)
        return p.copy()

    assert np.array_equal(run(), run())
