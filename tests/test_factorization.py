import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.errors import NotPositiveDefinite, SingularShape


def random_correlation(rng, n):
    A = rng.standard_normal((n, n + 2))
    C = A @ A.T
    d = np.sqrt(np.diag(C))
    R = C / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    return R


@pytest.fixture(scope="module")
def r3():
    return np.array(
        [[1.0, 0.6361, -0.7102], [0.6361, 1.0, -0.3422], [-0.7102, -0.3422, 1.0]]
    )


def test_symmetric_sqrt_squares_back(r3):
    H = cq.symmetric_sqrt(r3)
    np.testing.assert_allclose(H @ H, r3, atol=1e-12)
    np.testing.assert_allclose(H, H.T, atol=1e-14)


def test_identity_factor_is_r_itself(r3):
    np.testing.assert_array_equal(cq.identity_factor(r3), r3)


def test_eigen_factor_reconstructs(r3):
    H = cq.eigen_factor(r3)
    np.testing.assert_allclose(H @ H.T, r3, atol=1e-12)
    # columns ordered by descending eigenvalue
    norms = np.linalg.norm(H, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)
    # canonical sign: first nonzero entry of each column positive
    for k in range(H.shape[1]):
        col = H[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
        assert lead > 0


def test_cholesky_lower_triangular(r3):
    L = cq.cholesky_lower(r3)
    np.testing.assert_allclose(L @ L.T, r3, atol=1e-12)
    assert np.array_equal(L, np.tril(L))
    assert np.all(np.diag(L) > 0)


def test_upper_factor_triangular(r3):
    U = cq.upper_factor(r3)
    np.testing.assert_allclose(U @ U.T, r3, atol=1e-12)
    assert np.array_equal(U, np.triu(U))
    assert np.all(np.diag(U) > 0)


def test_core_shape_matrix_dispatch(r3):
    rules = {
        V.MP1: cq.identity_factor,
        V.MP2: cq.symmetric_sqrt,
        V.RECT: cq.eigen_factor,
        V.LTRI: cq.cholesky_lower,
        V.UTRI: cq.upper_factor,
    }
    for variant, rule in rules.items():
        np.testing.assert_array_equal(cq.core_shape_matrix(variant, r3), rule(r3))
    with pytest.raises(ValueError):
        cq.core_shape_matrix(V.ME, r3)


def test_not_pd_raised():
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    for fn in (cq.symmetric_sqrt, cq.eigen_factor, cq.cholesky_lower, cq.upper_factor):
        with pytest.raises(NotPositiveDefinite):
            fn(bad)


def row_weights(H):
    """The row normalization of a factor: w_i = 1/Σ_j |H_ij|."""
    return 1.0 / np.abs(H).sum(axis=1)


def test_shape_matrix_row_sums(r3):
    for variant in (V.MP1, V.MP2, V.RECT, V.LTRI, V.UTRI):
        H = cq.core_shape_matrix(variant, r3)
        S = cq.shape_matrix(H)
        np.testing.assert_allclose(
            np.abs(S.entries).sum(axis=1), np.ones(3), atol=1e-13
        )
        # S is H with each row scaled by its weight
        np.testing.assert_allclose(S.entries, H * row_weights(H)[:, None], atol=1e-14)


def test_shape_matrix_singular_rejected():
    with pytest.raises(SingularShape):
        cq.shape_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularShape, match="zero row"):
        cq.shape_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_shape_matrix_accepts_well_conditioned_wide_model():
    """At n = 30 a well-conditioned RectMP shape has det S near 3e-20,
    far below any absolute floor; against Hadamard's bound it is
    √det R ≈ 0.8."""
    u = np.clip(np.random.default_rng(0).standard_normal((1000, 30)) / 4.5, -1, 1)
    R = cq.fit_correlation_matrix("scc", V.RECT, u)
    S = cq.shape_matrix(cq.core_shape_matrix(V.RECT, R)).entries
    assert abs(np.linalg.det(S)) < 1e-19
    hadamard = np.prod(np.linalg.norm(S, axis=1))
    assert abs(np.linalg.det(S)) / hadamard == pytest.approx(np.sqrt(np.linalg.det(R.entries)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_factor_products_recover_weighted_r(n, seed):
    """For every variant except MP-I, S·Sᵀ equals the congruence T·R·T of
    the correlation matrix by the row-normalization weights; this is what
    makes uniform box draws reproduce R exactly."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    R = random_correlation(rng, n)
    if np.linalg.eigvalsh(R)[0] < 1e-6:
        return
    for variant in (V.MP2, V.RECT, V.LTRI, V.UTRI):
        H = cq.core_shape_matrix(variant, R)
        S = cq.shape_matrix(H)
        T = np.diag(row_weights(H))
        np.testing.assert_allclose(S.entries @ S.entries.T, T @ R @ T, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_mp1_product_is_weighted_r_squared(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    R = random_correlation(rng, n)
    if np.linalg.eigvalsh(R)[0] < 1e-6:
        return
    H = cq.core_shape_matrix(V.MP1, R)
    S = cq.shape_matrix(H)
    T = np.diag(row_weights(H))
    np.testing.assert_allclose(S.entries @ S.entries.T, T @ R @ R @ T, atol=1e-10)
