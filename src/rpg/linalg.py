"""Dense linear-algebra oracles: inverse, determinant, SVD, matrix exponential.

Everything here is written against plain float64 numpy arrays and sized for
desk-scale matrices (n <= 64).  These routines are the *reference* side of the
package: the production code paths use rank-one identities and matrix-free
forms, and the tests check them against the dense computations below.

    dense_inverse   Gauss-Jordan with partial pivoting
    dense_det       LU with partial pivoting (sign-tracked pivot product)
    svd             one-sided Jacobi, square matrices
    matrix_exp      scaling-and-squaring, degree-12 truncated series
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimensions, NoConvergence, SingularMatrix

_PIVOT_FLOOR = 1e-14
_JACOBI_SWEEPS = 50


def _require_square(m: np.ndarray, op: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadDimensions(f"{op} requires a square matrix, got shape {a.shape}")
    return a


def dense_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a well-conditioned square matrix by Gauss-Jordan elimination.

    Raises SingularMatrix when a pivot magnitude falls below 1e-14; for
    well-conditioned inputs the residual ||M @ inv - I||_max stays below
    1e-9 * ||M||_max.
    """
    a = _require_square(m, "dense_inverse").copy()
    n = a.shape[0]
    inv = np.eye(n)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) < _PIVOT_FLOOR:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {_PIVOT_FLOOR:g} at column {col}"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        scale = 1.0 / pivot
        a[col] *= scale
        inv[col] *= scale
        for row in range(n):
            if row != col and a[row, col] != 0.0:
                factor = a[row, col]
                a[row] -= factor * a[col]
                inv[row] -= factor * inv[col]
    return inv


def dense_det(m: np.ndarray) -> float:
    """Determinant via LU with partial pivoting; returns 0.0 for singular input."""
    a = _require_square(m, "dense_det").copy()
    n = a.shape[0]
    sign = 1.0
    det = 1.0
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if pivot == 0.0:
            return 0.0
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            sign = -sign
        det *= pivot
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / pivot, a[col, col:])
    return sign * det


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a square matrix (n <= 64).

    Returns (U, s, V) with M = U @ diag(s) @ V.T, singular values
    non-negative and descending, U and V orthonormal within 1e-9.
    Raises NoConvergence if the column Grams have not annihilated after
    50 sweeps.
    """
    a = _require_square(m, "svd")
    n = a.shape[0]
    if n > 64:
        raise BadDimensions(f"svd is desk-scale only (n <= 64), got n={n}")
    b = a.copy()
    v = np.eye(n)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                bi = b[:, i]
                bj = b[:, j]
                alpha = float(bi @ bi)
                beta = float(bj @ bj)
                gamma = float(bi @ bj)
                if alpha == 0.0 or beta == 0.0:
                    continue
                if abs(gamma) <= 1e-15 * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                sgn = 1.0 if zeta >= 0.0 else -1.0
                t = sgn / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                b_i_new = c * bi - s * bj
                b[:, j] = s * bi + c * bj
                b[:, i] = b_i_new
                v_i_new = c * v[:, i] - s * v[:, j]
                v[:, j] = s * v[:, i] + c * v[:, j]
                v[:, i] = v_i_new
        if not rotated:
            break
    else:
        raise NoConvergence(f"jacobi svd did not converge in {_JACOBI_SWEEPS} sweeps")

    norms = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-norms)
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]

    u = np.zeros_like(b)
    zero_cut = max(norms[0], 1.0) * n * np.finfo(np.float64).eps
    live = norms > zero_cut
    u[:, live] = b[:, live] / norms[live]
    # Null columns: complete to an orthonormal basis so U stays orthogonal,
    # each with the basis vector that keeps the largest residual against
    # the columns so far (at least 1/sqrt(n), so the division is safe).
    for col in np.flatnonzero(~live):
        residuals = np.eye(n) - u @ u.T
        best = int(np.argmax(np.sum(residuals * residuals, axis=0)))
        u[:, col] = residuals[:, best] / np.linalg.norm(residuals[:, best])
    return u, norms, v


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(A) by scaling-and-squaring over a degree-12 truncated series.

    exp(A) = (exp(A / 2^s))^(2^s): the scaled series converges fast once
    ||A/2^s||_1 <= 1/2, and twelve terms leave the truncation error at the
    round-off floor.  For antisymmetric A the result is orthogonal within
    1e-9 at desk scale.
    """
    a = _require_square(a, "matrix_exp")
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=0))) if n else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    scaled = a / (2.0**squarings)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 13):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result
