"""Small shared linear-algebra helpers.

All subspaces are handled through explicit column matrices.  Columns with
wildly different magnitudes are common here (orbit tails decay fast), so every
span computation normalizes columns first; that changes nothing about the
span but keeps the SVD/QR honest.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Tolerances

__all__ = [
    "as_complex_matrix",
    "unit_columns",
    "svd_rank",
    "orthonormal_columns",
    "distance_to_span",
    "numerical_rank",
    "smallest_singular_value",
    "min_norm_dual",
    "null_space",
    "used_rows",
    "project_off",
    "extend_basis",
]


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m


def unit_columns(a: np.ndarray) -> np.ndarray:
    """Scale each nonzero column to unit Euclidean norm (zero columns dropped)."""
    a = as_complex_matrix(a)
    norms = np.linalg.norm(a, axis=0)
    keep = norms > 0.0
    return a[:, keep] / norms[keep]


def svd_rank(s: np.ndarray, rtol: float = Tolerances.tol_rank, reference: float | None = None
             ) -> int:
    """Number of singular values ``s`` above ``rtol * reference``.

    The reference defaults to the largest singular value ``s[0]``; a
    reference that is not positive (or an empty ``s``) gives rank 0.
    """
    if reference is None:
        reference = s[0] if s.size else 0.0
    if not reference > 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * reference))


def orthonormal_columns(a: np.ndarray, rtol: float = Tolerances.tol_rank) -> np.ndarray:
    """Orthonormal basis of the column span, robust to column scaling."""
    u, s, _ = np.linalg.svd(unit_columns(a), full_matrices=False)
    return u[:, : svd_rank(s, rtol)]


def distance_to_span(v: np.ndarray, a: np.ndarray, rtol: float = Tolerances.tol_rank) -> float:
    """Euclidean distance from ``v`` to the column span of ``a``."""
    v = np.asarray(v, dtype=np.complex128)
    q = orthonormal_columns(a, rtol)
    return float(np.linalg.norm(v - q @ (q.conj().T @ v)))


def numerical_rank(a: np.ndarray, rtol: float = Tolerances.tol_rank) -> int:
    """Rank of the column span with columns normalized to unit scale."""
    return svd_rank(np.linalg.svd(unit_columns(a), compute_uv=False), rtol)


def smallest_singular_value(a: np.ndarray) -> float:
    s = np.linalg.svd(as_complex_matrix(a), compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def min_norm_dual(q: np.ndarray, r_inverse: np.ndarray, scales: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Minimum-norm ``f`` with ``f^H x_n = values[n]``, from the orbit's QR factor.

    With ``x_n = s_n Q R e_n`` (:class:`aihs.operators.OrbitData`) the
    constraints read ``S R^H Q^H f = conj(v)``, so ``f = Q R^-H (conj(v) / s)``.
    ``values`` is an ``(L, k)`` block, giving ``(dim, k)``.  Each column
    takes its own matrix-vector products, so a block matches ``k`` one-column
    blocks bit for bit.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != scales.size:
        raise ValueError(f"expected an ({scales.size}, k) block of values, got {v.shape}")
    w = np.conj(v).T / scales  # one row per column of values
    return (q @ (r_inverse.conj().T @ w[..., None]))[..., 0].T


def null_space(a: np.ndarray, rtol: float = Tolerances.tol_rank) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``a``."""
    _, s, vh = np.linalg.svd(as_complex_matrix(a))
    return vh[svd_rank(s, rtol):].conj().T


def used_rows(a: np.ndarray) -> int:
    """One past the last row of ``a`` (along its first axis) holding an entry ``!= 0``.

    Read on the float64 view, so a complex entry counts when either part
    does: ``-0.0`` counts as zero and nan as nonzero.  0 when no row does.
    """
    nonzero = np.ascontiguousarray(a).reshape(-1).view(np.float64) != 0
    hits = np.flatnonzero(nonzero)  # on booleans: several times faster than on the floats
    return int(hits[-1]) // (nonzero.size // len(a)) + 1 if hits.size else 0


def greedy_column_order(a: np.ndarray) -> np.ndarray:
    """Column order of a pivoted QR: each step takes the largest remaining norm.

    This is the order LAPACK's ``geqp3`` picks, read from a pivoted Cholesky
    of the Gram matrix ``a^H a``.  The Gram matrix is only n x n for n
    columns, and only the order is taken from it, not the factor.
    """
    gram = a.conj().T @ a
    n = gram.shape[0]
    rows = np.zeros((n, n), dtype=gram.dtype)  # rows of R in pivot order
    residual = np.real(np.diagonal(gram)).copy()  # squared norms off the chosen span
    order = np.empty(n, dtype=int)
    for k in range(n):
        j = order[k] = residual.argmax()
        if residual[j] > 0.0:  # math.sqrt rounds as np.sqrt does, at less cost per call
            rows[k] = (gram[j] - rows[:k, j].conj() @ rows[:k]) / math.sqrt(residual[j])
            residual -= np.abs(rows[k]) ** 2
        residual[order[:k + 1]] = -np.inf  # also after a nan update: the order stays a permutation
    return order


def qr_basis(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of the column span by column-pivoted QR, and its factor R.

    Callers pass unit columns (:func:`unit_columns`), so a caller that needs
    them for more than the basis normalizes once.  Columns are ordered as
    :func:`greedy_column_order` gives and then factored by Householder QR,
    so a nearly dependent column comes last.  ``unit[:, order] = Q R``, so
    the small R has the singular values of ``unit``.
    """
    return np.linalg.qr(unit[:, greedy_column_order(unit)])


def project_off(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - Q Q^H) v, applied twice so the result is orthogonal to Q to working precision."""
    q_h = q.conj().T
    for _ in range(2):
        v = v - q @ (q_h @ v)
    return v


def extend_basis(q: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """[Q, u / ||u||] with u the unit vector ``unit`` projected off the orthonormal Q.

    Gram-Schmidt, twice (enough: Giraud, Langou and Rozloznik 2005), so Q
    grows by one column without re-factoring its others.  A ``unit`` inside
    span Q leaves u = 0 and adds a zero column: nothing is divided by zero.
    """
    u = project_off(q, unit)
    return np.column_stack((q, u / (np.linalg.norm(u) or 1.0)))
