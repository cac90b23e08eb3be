"""Finite-rank perturbations and annihilator duality at truncation scale.

Everything here works with orthonormal bases as matrix columns and Euclidean
(l2) duality: annihilators are orthogonal complements.  Containment A inside
B is always tested as the relative residual of (I - P_B) applied to A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, AssumptionError
from ._linalg import null_space, orthonormal_columns, svd_rank
from .operators import OperatorModel, _readonly

__all__ = [
    "PerturbationWitness",
    "AdjointReport",
    "minimal_defect_space",
    "build_perturbation",
    "adjoint_halfspace",
    "containment_residual",
]

#: Smallest admissible principal angle (as sigma_min of the stacked bases)
#: between Y and F before the oblique projection is declared ill-posed.
ANGLE_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationWitness:
    """Finite-rank K with (T+K)-invariance of Y.

    ``invariance_residual`` is max over basis columns y of
    dist((T+K)y, Y) / ||(T+K)y||.
    """

    K: np.ndarray
    rank_K: int
    invariance_residual: float


@dataclass(frozen=True, eq=False)
class AdjointReport:
    """Z = (Y+F)^perp with the adjoint-invariance residual and dimensions."""

    z_basis: np.ndarray
    residual: float
    dim_z: int
    dim_y_perp: int
    dim_f: int


def _check_orthonormal(q: np.ndarray, name: str) -> np.ndarray:
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[1] == 0:
        raise ArgumentError(f"{name} must be a nonempty matrix of columns")
    gram = q.conj().T @ q
    if not np.allclose(gram, np.eye(q.shape[1]), atol=1e-8):
        raise ArgumentError(f"{name} columns are not orthonormal")
    return q


def _worst_ratio(parts: np.ndarray, vectors: np.ndarray) -> float:
    """max over columns j of ||parts_j|| / ||vectors_j||, skipping zero columns (0 if none)."""
    norms = np.linalg.norm(vectors, axis=0)
    live = norms != 0.0
    return float(np.max(np.linalg.norm(parts[:, live], axis=0) / norms[live], initial=0.0))


def containment_residual(vectors: np.ndarray, basis: np.ndarray | None) -> float:
    """max over columns v of ||(I - P_B) v|| / ||v|| (0 for zero columns)."""
    v = np.asarray(vectors, dtype=np.complex128)
    return _worst_ratio(v if basis is None else v - basis @ (basis.conj().T @ v), v)


def minimal_defect_space(op: OperatorModel, basis_y: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the numerical range of (I - P_Y) T on Y.

    The returned F is orthogonal to Y by construction, and its dimension is
    the numerical rank of the projected image at ``Tolerances.tol_rank``
    relative to ||T Y||_2 — the smallest defect space witnessing T(Y) in Y + F.
    """
    q = _check_orthonormal(basis_y, "basis_y")
    image = op.matrix @ q
    projected = image - q @ (q.conj().T @ image)
    scale = float(np.linalg.norm(image, 2)) if image.size else 0.0
    if scale == 0.0:
        return np.zeros((op.dim, 0), dtype=np.complex128), 0
    u, s, _ = np.linalg.svd(projected, full_matrices=False)
    keep = svd_rank(s, reference=scale)
    return _readonly(u[:, :keep]), keep


def build_perturbation(
    op: OperatorModel, basis_y: np.ndarray, f_basis: np.ndarray
) -> PerturbationWitness:
    """K = -P~ T, where P~ projects onto F along Y and kills (Y+F)^perp.

    With this K, (T+K) maps Y into Y whenever T(Y) is contained in Y + F.
    Rank of K is at most dim F.  Requires Y and F to meet only at 0 with a
    healthy principal angle.
    """
    q = _check_orthonormal(basis_y, "basis_y")
    f = np.asarray(f_basis, dtype=np.complex128)
    if f.ndim != 2:
        raise ArgumentError("f_basis must be a matrix of columns")
    n, dim_f = op.dim, f.shape[1]

    if dim_f == 0:
        k = np.zeros((n, n), dtype=np.complex128)
        resid = containment_residual(op.matrix @ q, q)
        return PerturbationWitness(K=_readonly(k), rank_K=0, invariance_residual=resid)

    f = _check_orthonormal(f, "f_basis")
    stacked = np.hstack([q, f])
    smin = np.linalg.svd(stacked, compute_uv=False)[-1]
    if smin < ANGLE_FLOOR:
        raise AssumptionError(
            f"Y and F are nearly degenerate (sigma_min {smin:.3e} < {ANGLE_FLOOR:.1e})"
        )
    # oblique projector onto F along Y, zero on (Y+F)^perp:
    # coordinates gamma = pinv([Q F]) x, keep the F block
    pinv = np.linalg.pinv(stacked, rcond=1e-13)
    p_tilde = f @ pinv[q.shape[1] :, :]
    k = -(p_tilde @ op.matrix)

    moved = (op.matrix + k) @ q
    resid = containment_residual(moved, q)
    rank_k = svd_rank(np.linalg.svd(k, compute_uv=False))
    return PerturbationWitness(K=_readonly(k), rank_K=rank_k, invariance_residual=resid)


def adjoint_halfspace(
    op: OperatorModel, basis_y: np.ndarray, f_basis: np.ndarray
) -> AdjointReport:
    """Z = (Y+F)^perp and the residual of T* mapping Z into Y^perp.

    dist(v, Y^perp) equals ||P_Y v||, so the residual is computed directly
    from the Y basis without forming Y^perp.
    """
    q = _check_orthonormal(basis_y, "basis_y")
    f = np.asarray(f_basis, dtype=np.complex128)
    combined = np.hstack([q, f]) if f.size else q
    z = null_space(combined.conj().T)
    if z.shape[1] == 0:
        return AdjointReport(
            z_basis=_readonly(z),
            residual=0.0,
            dim_z=0,
            dim_y_perp=op.dim - q.shape[1],
            dim_f=orthonormal_columns(f).shape[1] if f.size else 0,
        )
    image = op.adjoint_apply(z)
    return AdjointReport(
        z_basis=_readonly(z),
        residual=_worst_ratio(q.conj().T @ image, image),
        dim_z=z.shape[1],
        dim_y_perp=op.dim - q.shape[1],
        dim_f=orthonormal_columns(f).shape[1] if f.size else 0,
    )
