import numpy as np
import pytest

from rpg.errors import BadDimensions, SingularMatrix
from rpg.fourier import check_exp_decomposition
from rpg.linalg import dense_det, dense_inverse, matrix_exp, svd
from rpg.rng import RngStream


def random_well_conditioned(rng, n):
    # Diagonally dominated draw keeps the condition number tame.
    m = rng.normal(size=(n, n))
    return m + n * np.eye(n)


def random_antisymmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m - m.T


# ---------------------------------------------------------------- inverse


def test_inverse_identity():
    assert np.allclose(dense_inverse(np.eye(3)), np.eye(3), atol=0)


def test_inverse_diagonal_closed_form():
    inv = dense_inverse(np.diag([2.0, 4.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-15)


def test_inverse_residual_random_8x8():
    rng = RngStream(11)
    for _ in range(20):
        m = random_well_conditioned(rng, 8)
        x = dense_inverse(m)
        assert np.max(np.abs(m @ x - np.eye(8))) <= 1e-9


def test_inverse_matches_numpy():
    rng = RngStream(12)
    m = random_well_conditioned(rng, 6)
    assert np.allclose(dense_inverse(m), np.linalg.inv(m), atol=1e-10)


def test_inverse_rejects_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        dense_inverse(m)


def test_inverse_rejects_rectangular():
    with pytest.raises(BadDimensions):
        dense_inverse(np.ones((2, 3)))


# ---------------------------------------------------------------- determinant


def test_det_identity():
    assert dense_det(np.eye(4)) == pytest.approx(1.0, abs=0)


def test_det_diagonal():
    assert dense_det(np.diag([2.0, 3.0])) == pytest.approx(6.0)


def test_det_rank_one_update_example():
    u = np.array([1.0, 2.0])
    m = np.eye(2) + np.outer(u, u)
    assert dense_det(m) == pytest.approx(6.0, rel=1e-12)


def test_det_singular_returns_zero():
    assert dense_det(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0


def test_det_matches_numpy_and_permutation_sign():
    rng = RngStream(13)
    m = rng.normal(size=(5, 5))
    assert dense_det(m) == pytest.approx(float(np.linalg.det(m)), rel=1e-9)
    p = np.eye(4)[[1, 0, 3, 2]]
    assert dense_det(p) == pytest.approx(1.0)  # two swaps
    assert dense_det(np.eye(3)[[1, 0, 2]]) == pytest.approx(-1.0)


# ---------------------------------------------------------------- svd


def test_svd_already_diagonal():
    u, s, v = svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_svd_antisymmetric_2x2_pair():
    a = np.array([[0.0, 0.7], [-0.7, 0.0]])
    _, s, _ = svd(a)
    assert np.allclose(s, [0.7, 0.7], atol=1e-12)


def test_svd_reconstruction_random():
    rng = RngStream(21)
    for _ in range(10):
        m = rng.normal(size=(6, 6))
        u, s, v = svd(m)
        assert np.max(np.abs(u @ np.diag(s) @ v.T - m)) <= 1e-8
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-9
        assert np.all(np.diff(s) <= 1e-12)  # descending
        assert np.all(s >= 0)


def test_svd_matches_numpy_singular_values():
    rng = RngStream(22)
    m = rng.normal(size=(9, 9))
    _, s, _ = svd(m)
    assert np.allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-10)


def test_svd_handles_singular_input():
    # Rank-1 matrix: null columns of U must still be orthonormal.
    m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    u, s, v = svd(m)
    assert np.max(np.abs(u @ np.diag(s) @ v.T - m)) <= 1e-9
    assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-9
    assert s[1] <= 1e-12 and s[2] <= 1e-12


def test_svd_completes_null_column_of_odd_antisymmetric():
    # An odd antisymmetric matrix has a zero singular value.  Here every
    # entry of its null vector is below 0.5, so no basis vector clears a
    # fixed residual threshold: the completion must take the best one.
    a = random_antisymmetric(RngStream(0), 13)
    u, s, v = svd(a)
    assert s[-1] <= 1e-12
    assert np.max(np.abs(u.T @ u - np.eye(13))) <= 1e-9
    assert check_exp_decomposition(a) <= 1e-7


def test_svd_size_guard():
    with pytest.raises(BadDimensions):
        svd(np.zeros((65, 65)))


# ---------------------------------------------------------------- matrix_exp


def test_exp_zero_is_identity():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=0)


def test_exp_quarter_turn():
    a = np.array([[0.0, np.pi / 2], [-np.pi / 2, 0.0]])
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(matrix_exp(a) - expected)) <= 1e-9


def test_exp_antisymmetric_is_orthogonal():
    rng = RngStream(31)
    for _ in range(5):
        a = random_antisymmetric(rng, 8)
        e = matrix_exp(a)
        assert np.max(np.abs(e.T @ e - np.eye(8))) <= 1e-8
        assert dense_det(e) == pytest.approx(1.0, abs=1e-6)


def test_exp_matches_series_small_norm():
    rng = RngStream(32)
    a = 0.01 * rng.normal(size=(4, 4))
    a2 = a @ a
    series = np.eye(4) + a + a2 / 2 + a2 @ a / 6 + a2 @ a2 / 24
    assert np.max(np.abs(matrix_exp(a) - series)) <= 1e-10


def test_exp_large_norm_scaling_path():
    # Norm >> 1 exercises the squaring loop.
    a = np.array([[0.0, 20.0], [-20.0, 0.0]])
    e = matrix_exp(a)
    expected = np.array([[np.cos(20.0), np.sin(20.0)],
                         [-np.sin(20.0), np.cos(20.0)]])
    assert np.max(np.abs(e - expected)) <= 1e-9
