"""The rank-one metric G = I + u u^T and its O(n) operations.

Everything a caller needs from G is available without materializing it:

    det G        = 1 + u.u                     (matrix determinant lemma)
    G^-1 x       = x - u (u.x) / (1 + u.u)     (rank-one inverse update)
    x^T G y      = x.y + (u.x)(u.y)

``metric_matrix`` builds the dense G for oracle comparisons only.  Since
1 + u.u >= 1 always, no damping floor is needed anywhere — the metric
dominates the Euclidean one by construction.

Operations accept plain ndarrays or tape Vars, single vectors or batches of
row vectors, like the rest of the numeric stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .errors import BadDimensions, NonFiniteField


def _row_dot(a, b):
    """Inner product along the last axis, keeping a broadcastable tail dim."""
    s = tape.reduce_sum(tape.mul(a, b), axis=-1)
    if np.ndim(tape.value(a)) == 2:
        n_rows = np.shape(tape.value(a))[0]
        return tape.reshape(s, (n_rows, 1))
    return s


@dataclass(frozen=True)
class MetricPoint:
    """The metric at one parameter point, described by its rank-one factor."""

    u: object  # (n,) or (B, n); ndarray or tape Var
    g_det: object = None  # filled by __post_init__: 1 + u.u

    def __post_init__(self):
        u = self.u
        if isinstance(u, np.ndarray) and not np.all(np.isfinite(u)):
            raise NonFiniteField("metric factor u contains non-finite entries")
        det = tape.add(_row_dot(u, u), 1.0)
        object.__setattr__(self, "g_det", det)


def metric_matrix(mp: MetricPoint) -> np.ndarray:
    """Dense I + u u^T (oracle use only, n <= 64)."""
    u = np.asarray(tape.value(mp.u), dtype=np.float64)
    if u.ndim != 1:
        raise BadDimensions("metric_matrix expects a single point, not a batch")
    if u.size > 64:
        raise BadDimensions(f"dense metric is desk-scale only, got n={u.size}")
    return np.eye(u.size) + np.outer(u, u)


def metric_det(mp: MetricPoint):
    """det G = 1 + u.u, exact by the determinant lemma."""
    return mp.g_det


def inverse_apply(mp: MetricPoint, x):
    """G^-1 x = x - u (u.x) / (1 + u.u), O(n) per point."""
    return tape.sub(x, tape.mul(mp.u, tape.div(_row_dot(mp.u, x), mp.g_det)))


def bilinear_form(mp: MetricPoint, x, y):
    """x^T G y = x.y + (u.x)(u.y), O(n) per point."""
    out = tape.add(_row_dot(x, y), tape.mul(_row_dot(mp.u, x), _row_dot(mp.u, y)))
    if np.ndim(tape.value(out)) == 2:
        n_rows = np.shape(tape.value(out))[0]
        return tape.reshape(out, (n_rows,))
    return out
