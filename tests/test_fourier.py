import numpy as np
import pytest

from rpg.errors import BadDimensions, DegenerateSpectrum
from rpg.fourier import (build_fourier_pair, build_u, check_exp_decomposition,
                         dense_rotation, full_pair, matrix_exp, rotate,
                         scaling_vector)
from rpg.rng import RngStream


def rotation_block(alpha):
    return np.array([[0.0, alpha], [-alpha, 0.0]])


# ------------------------------------------------------------- basis build


def test_basis_columns_n4():
    fp = build_fourier_pair(4, 1)
    root_half = np.sqrt(0.5)
    assert np.allclose(fp.omega[:, 0], root_half * np.array([1, 0, -1, 0]),
                       atol=1e-15)
    assert np.allclose(fp.phi[:, 0], root_half * np.array([0, 1, 0, -1]),
                       atol=1e-15)


def test_gram_error_small_for_low_frequencies():
    fp = build_fourier_pair(64, 8)
    assert fp.gram_error <= 0.05
    # Below half the spectrum the trigonometric sums cancel exactly.
    assert fp.gram_error <= 1e-13


def test_pair_is_built_once_and_read_only():
    fp = build_fourier_pair(24, 5)
    assert build_fourier_pair(24, 5) is fp
    with pytest.raises(ValueError):
        fp.omega[0, 0] = 1.0
    with pytest.raises(ValueError):
        fp.phi[0, 0] = 1.0


def test_bad_dimensions_rejected():
    with pytest.raises(BadDimensions):
        build_fourier_pair(4, 4)
    with pytest.raises(BadDimensions):
        build_fourier_pair(4, 0)
    with pytest.raises(BadDimensions):
        full_pair(7)


# ------------------------------------------------------------- scaling


def test_scaling_zero():
    fp = build_fourier_pair(8, 2)
    assert np.allclose(scaling_vector(fp, np.zeros(2)), np.zeros(8), atol=0)


def test_scaling_single_column():
    fp = build_fourier_pair(4, 1)
    out = scaling_vector(fp, np.array([np.sqrt(2.0)]))
    assert np.allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_scaling_matches_dense_product():
    fp = build_fourier_pair(16, 4)
    rng = RngStream(3)
    w = rng.normal(size=4)
    assert np.allclose(scaling_vector(fp, w), fp.omega @ w, atol=1e-14)


# ------------------------------------------------------------- rotation


def test_rotate_identity_at_zero_phase():
    fp = build_fourier_pair(16, 4)
    rng = RngStream(4)
    x = rng.normal(size=16)
    assert np.max(np.abs(rotate(fp, np.zeros(4), x) - x)) <= 1e-12


def test_rotate_quarter_phase_turns_cos_into_minus_sin():
    fp = build_fourier_pair(64, 4)
    sigma = np.array([0.0, np.pi / 2, 0.0, 0.0])
    x = fp.omega[:, 1]
    out = rotate(fp, sigma, x)
    assert np.max(np.abs(out + fp.phi[:, 1])) <= 3 * max(fp.gram_error, 1e-15)


def test_rotate_leaves_high_frequencies_untouched():
    fp = build_fourier_pair(16, 4)
    # A frequency above the retained band is orthogonal to every omega column.
    j = np.arange(16)
    x = np.cos(2 * np.pi * 6 * j / 16)
    sigma = np.array([0.3, -1.2, 0.7, 2.0])
    assert np.max(np.abs(rotate(fp, sigma, x) - x)) <= 1e-12


def test_rotate_matches_dense_oracle():
    fp = build_fourier_pair(24, 5)
    rng = RngStream(5)
    sigma = rng.uniform(-np.pi, np.pi, size=5)
    r = dense_rotation(fp, sigma)
    for _ in range(5):
        x = rng.normal(size=24)
        assert np.max(np.abs(rotate(fp, sigma, x) - r @ x)) <= 1e-12


def test_rotate_batched_rows_match_single():
    fp = build_fourier_pair(12, 3)
    rng = RngStream(6)
    sigma = rng.uniform(-np.pi, np.pi, size=3)
    xs = rng.normal(size=(7, 12))
    batched = rotate(fp, sigma, xs)
    for k in range(7):
        assert np.allclose(batched[k], rotate(fp, sigma, xs[k]), atol=1e-14)


def test_full_frame_phase_shift_every_frequency():
    for n in (8, 32):
        fp = full_pair(n)
        rng = RngStream(n)
        sigma = rng.uniform(-np.pi, np.pi, size=fp.m_tilde)
        j = np.arange(n)
        for i in range(1, fp.m_tilde + 1):
            x = fp.omega[:, i - 1]
            expected = np.sqrt(2.0 / n) * np.cos(2 * np.pi * i * j / n
                                                 + sigma[i - 1])
            assert np.max(np.abs(rotate(fp, sigma, x) - expected)) <= 1e-8


def test_rotation_gram_defect_identity():
    # R^T R - I collapses exactly to -(Omega Ss Phi^T + Phi Ss Omega^T):
    # the truncated construction shears the retained cosine components toward
    # the sine columns and is NOT orthogonal for sigma != 0.
    fp = build_fourier_pair(20, 4)
    rng = RngStream(7)
    sigma = rng.uniform(-np.pi, np.pi, size=4)
    r = dense_rotation(fp, sigma)
    ss = np.diag(np.sin(sigma))
    predicted = -(fp.omega @ ss @ fp.phi.T + fp.phi @ ss @ fp.omega.T)
    assert np.max(np.abs((r.T @ r - np.eye(20)) - predicted)) <= 1e-12


# ------------------------------------------------------------- build_u


def test_build_u_zero_scaling_annihilates():
    fp = build_fourier_pair(8, 2)
    rng = RngStream(8)
    u = build_u(fp, np.zeros(2), np.array([0.4, -0.9]), rng.normal(size=8))
    assert np.allclose(u, np.zeros(8), atol=0)


def test_build_u_identity_rotation_case():
    fp = build_fourier_pair(4, 1)
    u = build_u(fp, np.array([np.sqrt(2.0)]), np.zeros(1), np.ones(4))
    assert np.allclose(u, [1.0, 0.0, -1.0, 0.0], atol=1e-14)


def test_build_u_matches_dense_construction():
    fp = build_fourier_pair(16, 4)
    rng = RngStream(9)
    omega, sigma = rng.normal(size=4), rng.uniform(-np.pi, np.pi, size=4)
    theta = rng.normal(size=16)
    dense = np.diag(fp.omega @ omega) @ dense_rotation(fp, sigma) @ theta
    assert np.max(np.abs(build_u(fp, omega, sigma, theta) - dense)) <= 1e-12


def test_build_u_linear_in_theta():
    fp = build_fourier_pair(16, 4)
    rng = RngStream(10)
    tp = (rng.normal(size=4), rng.uniform(-np.pi, np.pi, size=4))
    t1, t2 = rng.normal(size=16), rng.normal(size=16)
    combined = build_u(fp, *tp, 0.3 * t1 - 1.7 * t2)
    split = 0.3 * build_u(fp, *tp, t1) - 1.7 * build_u(fp, *tp, t2)
    assert np.max(np.abs(combined - split)) <= 1e-10


# ------------------------------------------------- exponential decomposition


def test_exp_decomposition_zero_matrix():
    assert check_exp_decomposition(np.zeros((3, 3))) <= 1e-12


def test_exp_decomposition_2x2_closed_form():
    assert check_exp_decomposition(rotation_block(0.7)) <= 1e-9


def test_exp_decomposition_random_8x8():
    rng = RngStream(11)
    for _ in range(10):
        m = rng.normal(size=(8, 8))
        a = m - m.T
        assert check_exp_decomposition(a) <= 1e-7


@pytest.mark.parametrize("n, seed", [(5, 12), (9, 0), (13, 0), (15, 12)])
def test_exp_decomposition_odd_dimension(n, seed):
    # Odd n forces a structural zero singular value; the formula must still
    # reproduce exp(A) = identity on the null direction.  At n = 13 and 15
    # the null vector has no entry above 0.5, where completing U from basis
    # vectors past a fixed residual threshold leaves a column empty.
    m = RngStream(seed).normal(size=(n, n))
    a = m - m.T
    assert check_exp_decomposition(a) <= 1e-7


def test_exp_decomposition_degenerate_cluster_raises():
    a = np.zeros((4, 4))
    a[:2, :2] = rotation_block(0.5)
    a[2:, 2:] = rotation_block(0.5 + 5e-7)
    with pytest.raises(DegenerateSpectrum):
        check_exp_decomposition(a)


def test_exp_decomposition_rejects_non_antisymmetric():
    with pytest.raises(BadDimensions):
        check_exp_decomposition(np.eye(3))


def test_exp_decomposition_matches_exp_oracle_values():
    a = rotation_block(1.3)
    expected = np.array([[np.cos(1.3), np.sin(1.3)],
                         [-np.sin(1.3), np.cos(1.3)]])
    assert np.max(np.abs(matrix_exp(a) - expected)) <= 1e-12
    assert check_exp_decomposition(a) <= 1e-9


# ---------------------------------------------------------------- matrix_exp


def test_exp_zero_is_identity():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=0)


def test_exp_quarter_turn():
    a = rotation_block(np.pi / 2)
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(matrix_exp(a) - expected)) <= 1e-9


def test_exp_antisymmetric_is_orthogonal():
    rng = RngStream(31)
    for _ in range(5):
        m = rng.normal(size=(8, 8))
        e = matrix_exp(m - m.T)
        assert np.max(np.abs(e.T @ e - np.eye(8))) <= 1e-8
        assert np.linalg.det(e) == pytest.approx(1.0, abs=1e-6)


def test_exp_matches_series_small_norm():
    rng = RngStream(32)
    a = 0.01 * rng.normal(size=(4, 4))
    a2 = a @ a
    series = np.eye(4) + a + a2 / 2 + a2 @ a / 6 + a2 @ a2 / 24
    assert np.max(np.abs(matrix_exp(a) - series)) <= 1e-10


def test_exp_large_norm_scaling_path():
    # Norm >> 1 exercises the squaring loop.
    e = matrix_exp(rotation_block(20.0))
    expected = np.array([[np.cos(20.0), np.sin(20.0)],
                         [-np.sin(20.0), np.cos(20.0)]])
    assert np.max(np.abs(e - expected)) <= 1e-9
