"""Chains of functionals driving the dichotomy at truncation scale.

A depth-n chain carries vectors z_1..z_n and functionals f_1..f_n, stored as
dual vectors (f(x) = phi^H x).  The nested subspaces are never stored: Y_n is
the joint kernel of f_1..f_n, so its annihilator Y_n^perp is
span{phi_1..phi_n}, and every subspace and every chain property comes from
those n vectors.  Q_n below is an orthonormal basis of span{phi_1..phi_n},
derived once per level, and P_{Y_n} = I - Q_n Q_n^H is the orthogonal
projection onto Y_n.  The operator acts only through ``op.apply`` and
``op.adjoint_apply``, so a step costs O(N n^2) with no N x N matrix.

Each extension pushes the previous functional through the operator and
projects off the finished directions, f_{n+1} = f_n o T o P_n with P_n the
oblique projection off z_1..z_n.  In dual form, with v = T* phi_n,

    phi_{n+1} = P_n^H v = v - sum_k phi_k (z_k^H v) / conj(f_k(z_k)),
    z_{n+1}   = P_{Y_n} phi_{n+1} / ||P_{Y_n} phi_{n+1}||,

the unit vector of Y_n on which f_{n+1} is largest.  When f_{n+1} dies on
all of Y_n the chain has found an invariant subspace instead, and
``extend_chain`` raises :class:`~aihs.errors.ChainTerminated` carrying the
verified witness.  That exhaustive either/or is the dichotomy the sweep in
the acceptance suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .duality import containment_residual
from .errors import ArgumentError, AssumptionError, ChainTerminated
from ._linalg import null_space, numerical_rank, qr_basis, svd_rank, unit_columns
from .operators import Family, OperatorModel, build_operator, _readonly

__all__ = [
    "ChainState",
    "init_chain",
    "extend_chain",
    "build_chain",
    "verify_chain",
    "build_non_ai_halfspace_witness",
    "codim_n_subspace",
    "WitnessReport",
]

#: Relative floor for "the next functional vanishes on the current subspace".
TOL_CHAIN = 1e-12

#: Invariance residual below which the termination witness counts as verified.
INVARIANCE_TOL = 1e-9

#: Ceiling for the internally re-verified chain properties after each step.
PROPERTY_TOL = 1e-8

#: Property residuals that must stay below PROPERTY_TOL (see verify_chain).
RESIDUAL_KEYS = ("z_in_previous", "recurrence_norm", "adjoint_map", "biorthogonality_off")

#: Report keys a chain aggregates by their smallest value; all others by the largest.
_MIN_KEYS = ("biorthogonality_diag_min", "functional_sigma_min", "codim_exact")


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable snapshot: the vectors z_k and the dual vectors phi_k.

    Y_n is the joint kernel of phi_1..phi_n; no basis of it is stored.  ``q``
    is Q_n, the orthonormal basis of span{phi_1..phi_n}, and ``reports[k-1]``
    is the property report of levels 1..k (see :func:`verify_chain`).  Both
    are derived once, as :func:`init_chain` and :func:`extend_chain` make
    each level; :func:`verify_chain` reads neither.
    """

    zs: tuple
    phis: tuple
    q: np.ndarray = field(repr=False)
    reports: tuple = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.zs)


def _project_off(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - Q Q^H) v, applied twice so the result is orthogonal to Q to working precision."""
    for _ in range(2):
        v = v - q @ (q.conj().T @ v)
    return v


def init_chain(op: OperatorModel, z1: np.ndarray | None = None) -> ChainState:
    """Depth-1 chain: z_1 = e_1 unless given, and phi_1 = z_1, so f_1(z_1) = ||z_1||^2 > 0."""
    n = op.dim
    if z1 is None:
        z1 = np.zeros(n, dtype=np.complex128)
        z1[0] = 1.0
    else:
        z1 = np.asarray(z1, dtype=np.complex128).reshape(-1)
        if z1.shape[0] != n or not np.linalg.norm(z1) > 0:
            raise ArgumentError("z1 must be a nonzero vector of the operator dimension")
    zs = (_readonly(z1),)
    q, report = _derive_level(op, zs, zs, None)
    return ChainState(zs=zs, phis=zs, q=q, reports=(report,))


def extend_chain(op: OperatorModel, state: ChainState) -> ChainState:
    """One step deeper, or raise ChainTerminated on the invariant branch.

    phi_{n+1} = P_n^H T* phi_n and z_{n+1} = P_{Y_n} phi_{n+1} / ||.|| as in
    the module docstring.  The construction keeps f_{n+1} = f_n o T on Y_n
    and T(Y_{n+1}) inside Y_n exactly, so termination (||P_{Y_n} phi_{n+1}||
    below TOL_CHAIN * ||phi_n|| ||T||) makes Y_n invariant.  The invariance
    residual is checked dually, T*(Y_n^perp) in Y_n^perp: the largest
    ||P_{Y_n} T* q|| / ||T* q|| over the columns q of Q_n.  Only the new
    level's properties are re-verified; any residual at or above
    PROPERTY_TOL raises AssumptionError.
    """
    depth = state.depth
    if depth >= op.dim:
        raise ArgumentError("chain is exhausted: Y_n is already trivial")
    phis = np.stack(state.phis, axis=1)
    zs = np.stack(state.zs, axis=1)
    q = state.q

    v = op.adjoint_apply(state.phis[-1])
    phi_next = v - phis @ ((zs.conj().T @ v) / np.sum(zs.conj() * phis, axis=0))
    on_y = _project_off(q, phi_next)  # f_{n+1} restricted to Y_n

    norm_on_y = float(np.linalg.norm(on_y))
    scale = float(np.linalg.norm(state.phis[-1])) * max(op.norm_estimate(), 1e-300)
    if norm_on_y < TOL_CHAIN * scale:
        resid = containment_residual(op.adjoint_apply(q), q)
        raise ChainTerminated(state, invariance_residual=resid, verified=resid < INVARIANCE_TOL)

    new_zs = state.zs + (_readonly(on_y / norm_on_y),)
    new_phis = state.phis + (_readonly(phi_next),)
    q_next, level = _derive_level(op, new_zs, new_phis, q)
    bad = {key: level[key] for key in RESIDUAL_KEYS if level[key] >= PROPERTY_TOL}
    if bad or level["biorthogonality_diag_min"] < PROPERTY_TOL:
        raise AssumptionError(f"chain properties degraded at depth {depth + 1}: {bad}")
    return ChainState(new_zs, new_phis, q_next, state.reports + (_fold(state.reports[-1], level),))


def build_chain(op: OperatorModel, depth: int, z1: np.ndarray | None = None) -> ChainState:
    """Extend from depth 1 to the requested depth (ChainTerminated passes through)."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    state = init_chain(op, z1=z1)
    while state.depth < depth:
        state = extend_chain(op, state)
    return state


def _derive_level(
    op: OperatorModel, zs: tuple, phis: tuple, q_prev: np.ndarray | None
) -> tuple[np.ndarray, dict]:
    """(Q_k, the properties level k = ``len(zs)`` adds to levels 1..k-1); keys as in verify_chain.

    ``zs`` and ``phis`` hold z_1..z_k and phi_1..phi_k; ``q_prev`` is
    Q_{k-1}, ``None`` at k = 1.
    """
    k = len(zs)
    phis = np.stack(phis, axis=1)
    zs = np.stack(zs, axis=1)
    q = qr_basis(phis)
    s = np.linalg.svd(unit_columns(phis), compute_uv=False)
    # bio[i, j] = |f_i(z_j)| / (||phi_i|| ||z_j||); level k adds the last row and column
    norms = np.outer(np.linalg.norm(phis, axis=0), np.linalg.norm(zs, axis=0))
    bio = np.abs(phis.conj().T @ zs) / norms
    off = np.concatenate([bio[-1, :-1], bio[:-1, -1]])
    out = {
        "z_in_previous": 0.0,
        "recurrence_norm": 0.0,
        "adjoint_map": 0.0,
        "biorthogonality_off": float(np.max(off, initial=0.0)),
        "biorthogonality_diag_min": float(bio[-1, -1]),
        "functional_sigma_min": float(s[-1]),
        "codim_exact": svd_rank(s) == k,
    }
    if k > 1:
        z_next, phi_next, phi_prev = unit_columns(zs[:, -1:]), phis[:, -1], phis[:, -2]
        out["z_in_previous"] = float(np.linalg.norm(q_prev.conj().T @ z_next))
        mismatch = _project_off(q_prev, phi_next - op.adjoint_apply(phi_prev))
        scale = np.linalg.norm(phi_next) + np.linalg.norm(phi_prev) * op.norm_estimate()
        out["recurrence_norm"] = float(np.linalg.norm(mismatch) / scale)
        out["adjoint_map"] = containment_residual(op.adjoint_apply(q_prev), q)
    return q, out


def _fold(report: dict, level: dict) -> dict:
    """The report of levels 1..k from that of levels 1..k-1 and level k's own.

    min over the booleans of codim_exact is their conjunction.
    """
    return {key: (min if key in _MIN_KEYS else max)(report[key], level[key]) for key in report}


def verify_chain(op: OperatorModel, state: ChainState) -> dict:
    """Re-derive the chain properties from the raw state, as residuals.

    Every level n + 1 is checked against level n, in dual form.  Keys (all
    relative, the worst level's value):
      z_in_previous        ||Q_n^H z_{n+1}|| / ||z_{n+1}||: z_{n+1} lies in Y_n
      recurrence_norm      ||P_{Y_n}(phi_{n+1} - T* phi_n)||
                           / (||phi_{n+1}|| + ||phi_n|| ||T||):
                           f_{n+1} = f_n o T on Y_n
      adjoint_map          max over the columns q of Q_n of
                           ||(I - Q_{n+1} Q_{n+1}^H) T* q|| / ||T* q||:
                           T*(Y_n^perp) in Y_{n+1}^perp, the dual of
                           T(Y_{n+1}) in Y_n
      biorthogonality_off  max |f_k(z_i)| / (||phi_k|| ||z_i||), i != k
    plus biorthogonality_diag_min (the smallest |f_k(z_k)| / (||phi_k||
    ||z_k||), which should stay away from 0), functional_sigma_min (the
    smallest singular value of the stacked unit phi's) and codim_exact
    (phi_1..phi_n have numerical rank n at every level, so dim Y_n = N - n).

    Every level is re-derived from ``state.zs`` and ``state.phis`` alone, by
    the derivation the walk itself ran, so the result equals
    ``state.reports[-1]`` for a chain that init_chain and extend_chain made.
    """
    q, report = _derive_level(op, state.zs[:1], state.phis[:1], None)
    for k in range(2, state.depth + 1):
        q, level = _derive_level(op, state.zs[:k], state.phis[:k], q)
        report = _fold(report, level)
    return report


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Even-index half-space witness with its rank-growth evidence.

    ``evaluations[i, k]`` is the normalized f_{2i+1}(T z_{2k+2}); the lower
    triangle (i < k) must vanish while the diagonal stays away from zero.
    ``ranks[k]`` is the rank of the first k+1 projected images, which must
    grow by one each step — the failure of any finite defect space.
    """

    z_basis: np.ndarray
    ranks: tuple
    evaluations: np.ndarray
    diagonal_min: float
    cross_max: float


def build_non_ai_halfspace_witness(op: OperatorModel, state: ChainState) -> WitnessReport:
    """Span of the even vectors of a built chain, plus evidence its defect never closes."""
    if state.depth < 2:
        raise ArgumentError("need depth >= 2 for at least one even vector")
    pairs = state.depth // 2
    evens = np.stack(state.zs[1 : 2 * pairs : 2], axis=1)  # z_2, z_4, ..., z_{2 pairs}
    z_basis = qr_basis(evens)

    images = op.apply(evens)  # T z_{2k}
    projected = images - z_basis @ (z_basis.conj().T @ images)
    ranks = tuple(numerical_rank(projected[:, : k + 1]) for k in range(pairs))

    odd = np.stack(state.phis[0 : 2 * pairs : 2], axis=1)  # f_1, f_3, ..., f_{2 pairs - 1}
    image_norms = np.maximum(np.linalg.norm(images, axis=0), 1e-300)
    norms = np.outer(np.linalg.norm(odd, axis=0), image_norms)
    evals = np.triu(np.abs(odd.conj().T @ images) / norms)
    diag = float(np.min(np.diagonal(evals)))
    cross = float(np.max(np.triu(evals, k=1)))
    return WitnessReport(
        z_basis=z_basis, ranks=ranks, evaluations=evals, diagonal_min=diag, cross_max=cross
    )


def codim_n_subspace(
    op: OperatorModel, n: int, walk: ChainState | ChainTerminated | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Codimension-n subspace Y with a single defect direction e_Y.

    Happy path: the depth-n chain from e_1 gives Y = Y_n and e_Y = z_n, since
    T(Y_n) lands in Y_{n-1} = Y_n + span z_n.  ``walk``, a chain from e_1 or
    the ChainTerminated that ended one, is continued (or cut at depth n)
    instead of walked again; a chain is deterministic, so the result is the
    same.  If the chain terminates first the terminal Y_d is invariant; the
    construction restricts T to it and recurses for the remaining
    codimension, so the dichotomy never leaves the caller empty-handed.  The
    returned basis of Y is the one place a chain builds a basis of its
    subspace: the null space of the stacked phi^H, once, at the end.
    Residual is dist(Ty, Y + span e_Y), relative.
    """
    if not 1 <= n < op.dim:
        raise ArgumentError("need 1 <= n < dim")
    if isinstance(walk, ChainTerminated):
        state = walk.state  # extending it would terminate again
    else:
        state = init_chain(op) if walk is None else walk
        try:
            while state.depth < n:
                state = extend_chain(op, state)
        except ChainTerminated as term:
            state = term.state  # depth strictly below n
    phis, zs = state.phis[:n], state.zs[:n]
    y_basis = null_space(np.stack(phis).conj())
    e_y = np.asarray(zs[-1])
    if len(zs) < n:
        q = y_basis
        restricted = build_operator(Family.DENSE, q.shape[1], matrix=q.conj().T @ op.apply(q))
        y_sub, e_sub, _ = codim_n_subspace(restricted, n - len(zs))
        y_basis, e_y = q @ y_sub, q @ e_sub

    if np.linalg.norm(e_y) > 0:
        enlarged = qr_basis(np.hstack([y_basis, e_y[:, None]]))
    else:
        enlarged = y_basis
    return y_basis, e_y, containment_residual(op.apply(y_basis), enlarged)
