"""Core-of-shape-matrix factor rules and shape-matrix row normalization.

Each parallelepiped variant derives its domain from a factor H of the
correlation matrix (H·Hᵀ = R except for the MP-I rule where H = R), then
normalizes rows to unit absolute sum: S = T·H with T = diag(w),
w_i = 1/Σ_j |H_ij|. The row normalization is what pins the domain's
marginal intervals to the spec intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix, ModelVariant
from .domain import read_only
from .errors import NotPositiveDefinite, SingularShape

_SINGULAR_DET = 1e-14


@dataclass(frozen=True)
class ShapeMatrix:
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", read_only(self.entries))


def _checked_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, vec = np.linalg.eigh(matrix)
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (smallest eigenvalue {lam[0]:.3e})",
            lambda_min=float(lam[0]),
        )
    return lam, vec


def _symmetric_sqrt(R: np.ndarray) -> np.ndarray:
    """Principal symmetric square root H with H·H = R."""
    lam, vec = _checked_eigh(R)
    H = (vec * np.sqrt(lam)) @ vec.T
    return (H + H.T) / 2.0


def _identity_factor(R: np.ndarray) -> np.ndarray:
    """MP-I rule: the factor is the correlation matrix itself."""
    return R.copy()


def _eigen_factor(R: np.ndarray) -> np.ndarray:
    """H = Q·Λ^(1/2) from R = QΛQᵀ, eigenvalues descending, each
    eigenvector's sign fixed so its first nonzero component is positive
    (canonical choice; the induced domain is unaffected)."""
    lam, vec = _checked_eigh(R)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vec = vec[:, order]
    for k in range(vec.shape[1]):
        col = vec[:, k]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if nonzero.size and col[nonzero[0]] < 0:
            vec[:, k] = -col
    return vec * np.sqrt(lam)


def _cholesky_lower(R: np.ndarray) -> np.ndarray:
    """Lower-triangular L with positive diagonal and L·Lᵀ = R."""
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky factorization failed; matrix not PD") from None


def _upper_factor(R: np.ndarray) -> np.ndarray:
    """Upper-triangular U with positive diagonal and U·Uᵀ = R, obtained by
    reversing row/column order, taking a Cholesky factor, and reversing
    back (U = J·chol(J·R·J)·J with J the reversal permutation)."""
    U = _cholesky_lower(R[::-1, ::-1])[::-1, ::-1]
    # exact zeros below the diagonal (the reversal guarantees the pattern)
    return np.triu(U)


_FACTOR_RULES = {
    ModelVariant.MP1: _identity_factor,
    ModelVariant.MP2: _symmetric_sqrt,
    ModelVariant.RECT: _eigen_factor,
    ModelVariant.LTRI: _cholesky_lower,
    ModelVariant.UTRI: _upper_factor,
}


def core_shape_matrix(variant: ModelVariant, R: CorrelationMatrix | np.ndarray) -> np.ndarray:
    """The factor H of R by the variant's rule: R itself (MP-I), its
    symmetric square root (MP-II), its eigen factor (RectMP), its lower or
    upper Cholesky factor (LTriMP, UTriMP). The ellipsoid has none."""
    if variant is ModelVariant.ME:
        raise ValueError("the ellipsoid model has no core shape matrix")
    entries = R.entries if isinstance(R, CorrelationMatrix) else np.asarray(R, dtype=float)
    return _FACTOR_RULES[variant](entries)


def shape_matrix(H: np.ndarray) -> ShapeMatrix:
    """Row-normalize the factor: S = diag(w)·H with w_i = 1/Σ_j |H_ij|.

    S is singular when |det S| falls below _SINGULAR_DET times Hadamard's
    bound ∏‖S_i‖₂ (the det of S with unit-length rows), so the test does
    not tighten with n; the ratio is √det R for every variant but MP-I."""
    entries = np.asarray(H, dtype=float)
    row_sums = np.sum(np.abs(entries), axis=1)
    if np.any(row_sums == 0.0):
        raise SingularShape("factor has a zero row")
    weights = 1.0 / row_sums
    S = entries * weights[:, None]
    if abs(np.linalg.det(S / np.linalg.norm(S, axis=1)[:, None])) < _SINGULAR_DET:
        raise SingularShape(
            f"shape matrix determinant below {_SINGULAR_DET:g} of Hadamard's bound"
        )
    return ShapeMatrix(entries=S)
