"""Truncated cosine/sine bases and the scaling/rotation maps built on them.

A direction field u over parameter space is assembled from two elementary
frequency-domain operations on theta:

    scaling   u_mag = Omega @ omega_tilde          (low-frequency amplitudes)
    rotation  R x   = Omega Sc Omega^T x - Phi Ss Omega^T x + x - Omega Omega^T x

with Sc = diag(cos sigma_tilde), Ss = diag(sin sigma_tilde).  The rotation is
never materialized in production paths: ``rotate`` is the O(n*m) matrix-free
form, ``rotate_transpose`` its adjoint, and ``dense_rotation`` exists
purely as the oracle.

``check_exp_decomposition`` checks the cos/sin split of exp(A) for
antisymmetric A, with ``np.linalg.svd`` on one side and ``matrix_exp``, a
truncated series numpy has no counterpart for, on the other.

All maps are plain numpy over either a single vector or a batch of row
vectors.  Their derivatives in omega_tilde and sigma_tilde are written out
by hand where the metric net needs them (``metricnet._u_backward``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimensions, DegenerateSpectrum


@dataclass(frozen=True)
class FourierPair:
    """Cosine basis ``omega`` and sine basis ``phi``, each n x m_tilde.

    ``gram_error`` is the worst Gram deviation max|B^T B - I| over both bases,
    recorded at build time.  Frequencies run 1..m_tilde; the constant (zero
    frequency) component is excluded.
    """

    n: int
    m_tilde: int
    omega: np.ndarray
    phi: np.ndarray
    gram_error: float


@lru_cache(maxsize=16)
def build_fourier_pair(n: int, m_tilde: int) -> FourierPair:
    """Sampled cosine/sine columns sqrt(2/n)*cos|sin(2*pi*i*j/n), i=1..m_tilde.

    Built once per (n, m_tilde) and shared: both bases are read-only.
    """
    if not (1 <= m_tilde < n):
        raise BadDimensions(f"need 1 <= m_tilde < n, got m_tilde={m_tilde}, n={n}")
    j = np.arange(n)[:, None]
    i = np.arange(1, m_tilde + 1)[None, :]
    angle = 2.0 * np.pi * i * j / n
    scale = np.sqrt(2.0 / n)
    omega = scale * np.cos(angle)
    phi = scale * np.sin(angle)
    eye = np.eye(m_tilde)
    gram_error = max(
        float(np.max(np.abs(omega.T @ omega - eye))),
        float(np.max(np.abs(phi.T @ phi - eye))),
    )
    omega.flags.writeable = False
    phi.flags.writeable = False
    return FourierPair(n=n, m_tilde=m_tilde, omega=omega, phi=phi,
                       gram_error=gram_error)


def full_pair(n: int) -> FourierPair:
    """All shiftable frequencies (m_tilde = n/2 - 1): the full-frame fixture.

    At this width the Grams are still exactly orthonormal, so the rotation
    acts as an independent phase shift on every retained frequency.
    """
    if n < 4 or n % 2:
        raise BadDimensions(f"full frame needs even n >= 4, got {n}")
    return build_fourier_pair(n, n // 2 - 1)


def scaling_vector(fp: FourierPair, omega_tilde):
    """omega = Omega @ omega_tilde; the diagonal scaling is applied elementwise."""
    return omega_tilde @ fp.omega.T


def rotate(fp: FourierPair, sigma_tilde, x):
    """R x, matrix-free: Omega(cos st * c) - Phi(sin st * c) + x - Omega c.

    c = Omega^T x holds the low-frequency cosine coefficients; everything
    orthogonal to the retained cosine columns passes through untouched.
    """
    return rotate_parts(fp, sigma_tilde, x)[0]


def rotate_parts(fp: FourierPair, sigma_tilde, x):
    """(R x, c, cos st, sin st): ``rotate`` and the intermediates that its
    derivative reads (``metricnet._u_backward``)."""
    c = x @ fp.omega
    cos, sin = np.cos(sigma_tilde), np.sin(sigma_tilde)
    shifted_cos = (cos * c) @ fp.omega.T
    shifted_sin = (sin * c) @ fp.phi.T
    residual = x - c @ fp.omega.T
    return (shifted_cos - shifted_sin) + residual, c, cos, sin


def rotate_transpose(fp: FourierPair, sigma_tilde, y):
    """R^T y, matrix-free: Omega(cos st * c - sin st * Phi^T y - c) + y.

    c = Omega^T y; the adjoint of ``rotate``, which carries a cotangent of
    R theta back to theta.
    """
    c = y @ fp.omega
    mixed = np.cos(sigma_tilde) * c - np.sin(sigma_tilde) * (y @ fp.phi)
    return (mixed - c) @ fp.omega.T + y


def build_u(fp: FourierPair, omega_tilde, sigma_tilde, theta):
    """u = omega * (R theta): scale applied after rotation.

    omega_tilde holds the scaling amplitudes, sigma_tilde the rotation phases
    (radians, mod 2pi); each is (m_tilde,), or (B, m_tilde) for a batch.
    """
    scale = scaling_vector(fp, omega_tilde)
    return scale * rotate_parts(fp, sigma_tilde, theta)[0]


def dense_rotation(fp: FourierPair, sigma_tilde: np.ndarray) -> np.ndarray:
    """Materialized R — oracle use only."""
    sc = np.diag(np.cos(sigma_tilde))
    ss = np.diag(np.sin(sigma_tilde))
    omega, phi = fp.omega, fp.phi
    return (omega @ sc @ omega.T - phi @ ss @ omega.T
            + np.eye(fp.n) - omega @ omega.T)


def _pair_cluster_gap(s: np.ndarray) -> float:
    """Smallest spacing between distinct singular-value clusters.

    Antisymmetric spectra come in duplicated pairs {s, s} (plus a zero for odd
    n), so "distinct singular values" can only mean distinct *clusters*: the
    duplicated partner is collapsed before measuring gaps.
    """
    n = len(s)
    reps = [0.5 * (s[k] + s[k + 1]) for k in range(0, n - 1, 2)]
    if n % 2:
        reps.append(s[-1])  # the structural zero
    reps = sorted(set(float(r) for r in reps), reverse=True)
    if len(reps) <= 1:
        return np.inf
    return min(reps[k] - reps[k + 1] for k in range(len(reps) - 1))


def check_exp_decomposition(a: np.ndarray) -> float:
    """Residual of exp(A) = U Sc U^T - V Ss U^T for antisymmetric A.

    (U, s, V) is the singular value decomposition of A, Sc = diag(cos s),
    Ss = diag(sin s).  Returns the max-entry deviation from the
    series-computed exponential.  Raises DegenerateSpectrum when the
    singular-value clusters are closer than 1e-6 (the factors stop being
    unique enough to compare reliably).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[0] != a.shape[1] or n > 16:
        raise BadDimensions(f"need a square matrix with n <= 16, got {a.shape}")
    if np.max(np.abs(a + a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise BadDimensions("input is not antisymmetric")
    u, s, vt = np.linalg.svd(a)
    v = vt.T
    gap = _pair_cluster_gap(s)
    if gap < 1e-6:
        raise DegenerateSpectrum(
            f"singular-value cluster gap {gap:.2e} below 1e-6"
        )
    reconstructed = (u * np.cos(s)) @ u.T - (v * np.sin(s)) @ u.T
    return float(np.max(np.abs(reconstructed - matrix_exp(a))))


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(A) by scaling-and-squaring over a degree-12 truncated series.

    exp(A) = (exp(A / 2^s))^(2^s): the scaled series converges fast once
    ||A/2^s||_1 <= 1/2, and twelve terms leave the truncation error at the
    round-off floor.  For antisymmetric A the result is orthogonal within
    1e-9 at desk scale.
    """
    a = np.asarray(a, dtype=np.float64)
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
