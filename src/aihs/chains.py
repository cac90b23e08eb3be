"""Chains of functionals driving the dichotomy at truncation scale.

A depth-n chain carries vectors z_1..z_n, functionals f_1..f_n (stored as
dual vectors, f(x) = phi^H x) and nested subspaces Y_n = the joint kernel of
f_1..f_n.  Each extension pushes the previous functional through the
operator and projects off the finished directions; when the new functional
dies on all of Y_n the chain has found an invariant subspace instead, and
``extend_chain`` raises :class:`~aihs.errors.ChainTerminated` carrying the
verified witness.  That exhaustive either/or is the dichotomy the sweep in
the acceptance suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import containment_residual
from .errors import ArgumentError, AssumptionError, ChainTerminated
from ._linalg import null_space, numerical_rank, qr_basis
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


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable snapshot: z_k, dual vectors phi_k, and bases of Y_k."""

    zs: tuple
    phis: tuple
    y_bases: tuple
    depth: int

    def f(self, n: int, x: np.ndarray) -> complex:
        """Value f_n(x), 1-indexed."""
        return complex(np.vdot(self.phis[n - 1], x))

    @property
    def dim(self) -> int:
        return self.zs[0].shape[0]


def _projector_off_chain(state: ChainState) -> np.ndarray:
    """P(x) = x - sum_k (f_k(x) / f_k(z_k)) z_k, as a matrix."""
    n = state.dim
    p = np.eye(n, dtype=np.complex128)
    for z, phi in zip(state.zs, state.phis):
        p -= np.outer(z, phi.conj()) / np.vdot(phi, z)
    return p


def init_chain(
    op: OperatorModel,
    z1: np.ndarray | None = None,
    phi1: np.ndarray | None = None,
) -> ChainState:
    """Depth-1 chain: z_1 = e_1 and f_1 its dual direction unless overridden."""
    n = op.dim
    if z1 is None:
        z1 = np.zeros(n, dtype=np.complex128)
        z1[0] = 1.0
    else:
        z1 = np.asarray(z1, dtype=np.complex128).reshape(-1)
        if z1.shape[0] != n or not np.linalg.norm(z1) > 0:
            raise ArgumentError("z1 must be a nonzero vector of the operator dimension")
    phi1 = z1.copy() if phi1 is None else np.asarray(phi1, dtype=np.complex128).reshape(-1)
    if phi1.shape[0] != n:
        raise ArgumentError("phi1 must match the operator dimension")
    if abs(np.vdot(phi1, z1)) <= 0:
        raise ArgumentError("f_1(z_1) must be nonzero")
    y1 = null_space(phi1.conj()[None, :])
    return ChainState(zs=(_readonly(z1),), phis=(_readonly(phi1),), y_bases=(y1,), depth=1)


def extend_chain(op: OperatorModel, state: ChainState) -> ChainState:
    """One step deeper, or raise ChainTerminated on the invariant branch.

    f_{n+1} = (f_n o T) o P_n with P_n the projection off z_1..z_n; the new
    z_{n+1} is the basis direction of Y_n where f_{n+1} is largest.  The
    construction keeps f_{n+1}(y) = f_n(Ty) on Y_n and T(Y_{n+1}) inside Y_n
    exactly, so termination (f_{n+1} vanishing on Y_n) makes Y_n invariant.
    """
    depth = state.depth
    if depth >= op.dim:
        raise ArgumentError("chain is exhausted: Y_n is already trivial")
    q = state.y_bases[-1]
    phi_prev = state.phis[-1]

    phi_next = _projector_off_chain(state).conj().T @ (op.matrix.conj().T @ phi_prev)
    psi = q.conj().T @ phi_next  # f_{n+1} in Y_n coordinates

    scale = float(np.linalg.norm(phi_prev)) * max(op.norm_estimate(), 1e-300)
    if float(np.linalg.norm(psi)) < TOL_CHAIN * scale:
        resid = containment_residual(op.matrix @ q, q)
        raise ChainTerminated(state, invariance_residual=resid, verified=resid < INVARIANCE_TOL)

    z_next = q[:, int(np.argmax(np.abs(psi)))].copy()
    y_next = q @ null_space(psi.conj()[None, :])
    new_state = ChainState(
        zs=state.zs + (_readonly(z_next),),
        phis=state.phis + (_readonly(phi_next),),
        y_bases=state.y_bases + (y_next,),
        depth=depth + 1,
    )
    report = verify_chain(op, new_state)
    bad = {
        key: report[key]
        for key in (
            "z_in_previous",
            "kernel_intersection",
            "recurrence",
            "direct_sum",
            "forward_map",
            "biorthogonality_off",
        )
        if report[key] >= PROPERTY_TOL
    }
    if bad or report["biorthogonality_diag_min"] < PROPERTY_TOL:
        raise AssumptionError(f"chain properties degraded at depth {depth + 1}: {bad}")
    return new_state


def build_chain(op: OperatorModel, depth: int, z1: np.ndarray | None = None) -> ChainState:
    """Extend from depth 1 to the requested depth (ChainTerminated passes through)."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    state = init_chain(op, z1=z1)
    while state.depth < depth:
        state = extend_chain(op, state)
    return state


def verify_chain(op: OperatorModel, state: ChainState) -> dict:
    """Re-derive the chain properties from the raw state, as residuals.

    Keys (all relative):
      z_in_previous        z_{n+1} lies in Y_n
      kernel_intersection  Y_n annihilated by every f_k, k <= n
      recurrence           f_{n+1}(y) = f_n(Ty) on a basis of Y_n
      direct_sum           Y_n splits as Y_{n+1} + span z_{n+1}
      forward_map          T(Y_{n+1}) contained in Y_n
      biorthogonality_off  f_n(z_i) = 0 for i != n
    plus biorthogonality_diag_min (should be away from 0), codim_exact
    (every dim Y_n equals N - n) and functional_sigma_min (smallest singular
    value of the stacked unit functionals — independence certifies the
    codimension count).
    """
    t = op.matrix
    depth = state.depth
    stacked = np.stack([phi / np.linalg.norm(phi) for phi in state.phis], axis=0)
    smin = float(np.linalg.svd(stacked.conj(), compute_uv=False)[-1])
    out = {
        "z_in_previous": 0.0,
        "kernel_intersection": 0.0,
        "recurrence": 0.0,
        "direct_sum": 0.0,
        "forward_map": 0.0,
        "biorthogonality_off": 0.0,
        "biorthogonality_diag_min": np.inf,
        "functional_sigma_min": smin,
        "codim_exact": all(
            state.y_bases[n].shape[1] == op.dim - (n + 1) for n in range(depth)
        ),
    }

    for n in range(1, depth):  # pairs (n, n+1), 1-indexed level n
        q_prev, q_next = state.y_bases[n - 1], state.y_bases[n]
        z_next, phi_next, phi_prev = state.zs[n], state.phis[n], state.phis[n - 1]

        out["z_in_previous"] = max(
            out["z_in_previous"], containment_residual(z_next[:, None], q_prev)
        )
        union = qr_basis(np.hstack([q_next, z_next[:, None]]))
        out["direct_sum"] = max(out["direct_sum"], containment_residual(q_prev, union))
        out["forward_map"] = max(out["forward_map"], containment_residual(t @ q_next, q_prev))

        scale = np.linalg.norm(phi_next) + np.linalg.norm(phi_prev) * op.norm_estimate()
        mismatch = phi_next.conj() @ q_prev - (phi_prev.conj() @ t) @ q_prev
        out["recurrence"] = max(out["recurrence"], float(np.max(np.abs(mismatch))) / scale)

    for n in range(depth):
        phi = state.phis[n]
        pn = float(np.linalg.norm(phi))
        q = state.y_bases[n]
        if q.shape[1]:
            out["kernel_intersection"] = max(
                out["kernel_intersection"],
                max(
                    float(np.max(np.abs(state.phis[k].conj() @ q)))
                    / float(np.linalg.norm(state.phis[k]))
                    for k in range(n + 1)
                ),
            )
        for i in range(depth):
            val = abs(np.vdot(phi, state.zs[i])) / (pn * float(np.linalg.norm(state.zs[i])))
            if i == n:
                out["biorthogonality_diag_min"] = min(out["biorthogonality_diag_min"], val)
            else:
                out["biorthogonality_off"] = max(out["biorthogonality_off"], val)
    return out


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


def build_non_ai_halfspace_witness(
    op: OperatorModel, depth: int, z1: np.ndarray | None = None
) -> WitnessReport:
    """Span of the even chain vectors, plus evidence its defect never closes."""
    if depth < 2:
        raise ArgumentError("need depth >= 2 for at least one even vector")
    state = build_chain(op, depth, z1=z1)
    pairs = depth // 2
    evens = np.stack([state.zs[2 * k + 1] for k in range(pairs)], axis=1)
    z_basis = qr_basis(evens)

    images = op.matrix @ evens  # T z_{2k}
    projected = images - z_basis @ (z_basis.conj().T @ images)
    ranks = tuple(numerical_rank(projected[:, : k + 1]) for k in range(pairs))

    evals = np.zeros((pairs, pairs))
    for i in range(pairs):
        phi = state.phis[2 * i]  # f_{2i+1}, 1-indexed f_{2i-1} for k=i+1
        pn = float(np.linalg.norm(phi))
        for k in range(i, pairs):
            evals[i, k] = abs(np.vdot(phi, images[:, k])) / (
                pn * max(float(np.linalg.norm(images[:, k])), 1e-300)
            )
    diag = float(np.min(np.diagonal(evals)))
    cross = float(np.max(np.triu(evals, k=1))) if pairs > 1 else 0.0
    return WitnessReport(
        z_basis=z_basis, ranks=ranks, evaluations=evals, diagonal_min=diag, cross_max=cross
    )


def codim_n_subspace(op: OperatorModel, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Codimension-n subspace Y with a single defect direction e_Y.

    Happy path: the depth-n chain gives Y = Y_n and e_Y = z_n, since
    T(Y_n) lands in Y_{n-1} = Y_n + span z_n.  If the chain terminates first
    the terminal Y_d is invariant; the construction restricts T to it and
    recurses for the remaining codimension, so the dichotomy never leaves
    the caller empty-handed.  Residual is dist(Ty, Y + span e_Y), relative.
    """
    if not 1 <= n < op.dim:
        raise ArgumentError("need 1 <= n < dim")
    try:
        state = build_chain(op, n)
    except ChainTerminated as term:
        q = term.state.y_bases[-1]
        d = term.state.depth  # strictly below n: extension stops once depth reaches n
        restricted = build_operator(Family.DENSE, q.shape[1], matrix=q.conj().T @ op.matrix @ q)
        y_sub, e_sub, _ = codim_n_subspace(restricted, n - d)
        y_basis = q @ y_sub
        e_y = q @ e_sub
    else:
        y_basis = state.y_bases[-1]
        e_y = np.asarray(state.zs[-1])

    if np.linalg.norm(e_y) > 0:
        enlarged = qr_basis(np.hstack([y_basis, e_y[:, None]]))
    else:
        enlarged = y_basis
    return y_basis, e_y, containment_residual(op.matrix @ y_basis, enlarged)
