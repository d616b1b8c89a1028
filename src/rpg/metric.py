"""The rank-one metric G = I + u u^T and its O(n) operations.

Everything a caller needs from G is available without materializing it:

    det G        = 1 + u.u                     (matrix determinant lemma)
    G^-1 x       = x - u (u.x) / (1 + u.u)     (rank-one inverse update)
    x^T G y      = x.y + (u.x)(u.y)

``metric_matrix`` builds the dense G for oracle comparisons only.  Since
1 + u.u >= 1 always, no damping floor is needed anywhere — the metric
dominates the Euclidean one by construction.

Operations are plain numpy over single vectors or batches of row vectors,
like the rest of the numeric stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, NonFiniteField


def _row_dot(a, b):
    """Inner product along the last axis, keeping a broadcastable tail dim."""
    s = (a * b).sum(axis=-1)
    if np.ndim(a) == 2:
        return s.reshape(len(a), 1)
    return s


@dataclass(frozen=True)
class MetricPoint:
    """The metric at one parameter point, described by its rank-one factor."""

    u: np.ndarray  # (n,) or (B, n)
    g_det: np.ndarray = None  # filled by __post_init__: 1 + u.u

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        if not np.all(np.isfinite(u)):
            raise NonFiniteField("metric factor u contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "g_det", _row_dot(u, u) + 1.0)


def metric_matrix(mp: MetricPoint) -> np.ndarray:
    """Dense I + u u^T (oracle use only, n <= 64)."""
    u = mp.u
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
    return x - mp.u * (_row_dot(mp.u, x) / mp.g_det)


def bilinear_form(mp: MetricPoint, x, y):
    """x^T G y = x.y + (u.x)(u.y), O(n) per point."""
    out = _row_dot(x, y) + _row_dot(mp.u, x) * _row_dot(mp.u, y)
    if np.ndim(out) == 2:
        return out.reshape(len(out))
    return out
