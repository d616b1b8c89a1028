"""Shared plumbing for evaluating vector fields over parameter space.

A "field" here is any callable mapping a parameter point to a vector of the
same dimension: the gradient field grad_fn (ascent convention), or the metric
factor field u_fn.  Both must be deterministic for fixed inputs (sampling
noise frozen by seed) and batch-capable — given a (B, n) stack of row points
they return a (B, n) stack — because every finite-difference sweep and probe
sweep in the package evaluates many points in one call.  ``eval_points``
calls the field once and raises BadDimensions when the result is not shaped
like the points; any error the field itself raises propagates unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimensions, NonFiniteField


def default_fd_step(theta: np.ndarray) -> float:
    """Central-difference step scaled to the point: 1e-4 * (1 + ||theta||_inf)."""
    norm = float(np.max(np.abs(theta))) if theta.size else 0.0
    return 1e-4 * (1.0 + norm)


def fd_points(theta: np.ndarray, step: float) -> np.ndarray:
    """Stack of theta +- step*e_mu: rows 0..n-1 are +, rows n..2n-1 are -."""
    eye = step * np.eye(theta.size)
    return np.concatenate([theta + eye, theta - eye], axis=0)


def eval_points(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a batch-capable field at a (B, n) stack of points."""
    pts = np.asarray(pts, dtype=np.float64)
    out = np.asarray(fn(pts), dtype=np.float64)
    if out.shape != pts.shape:
        raise BadDimensions(f"field returned shape {out.shape} for points "
                            f"of shape {pts.shape}")
    return out


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFiniteField(f"{what} evaluation returned non-finite values")
    return values

