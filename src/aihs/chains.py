"""Chains of functionals driving the dichotomy at truncation scale.

A depth-n chain carries vectors z_1..z_n and functionals f_1..f_n, stored as
dual vectors (f(x) = phi^H x).  The nested subspaces are never stored: Y_n is
the joint kernel of f_1..f_n, so its annihilator Y_n^perp is
span{phi_1..phi_n}, and every subspace and every chain property comes from
those n vectors.  Q_n below is an orthonormal basis of span{phi_1..phi_n},
and P_{Y_n} = I - Q_n Q_n^H is the orthogonal projection onto Y_n.  Each
level grows it by one column, Q_n = [Q_{n-1}, u / ||u||] with u the unit
phi_n projected off Q_{n-1} twice (Gram-Schmidt, ``_linalg.extend_basis``),
so no level re-factors phi_1..phi_n.  The operator acts only through
``op.apply`` and ``op.adjoint_apply``, with no N x N matrix, and each
level runs on the rows its vectors reach
(``OperatorModel.on_support``): k rows, one past the last nonzero row of the
z's and phi's plus the row T* moves into.  The basis then costs O(k n) per
level; the level's SVD of the n unit phi's and its adjoint_map check of
T* Q_{n-1} against Q_n cost O(k n^2).  A chain on a weighted shift from e_1
reaches one row per level, so k = n + 1 whatever N is; a dense operator
keeps k = N.

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

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from .duality import containment_residual
from .errors import ArgumentError, AssumptionError, ChainTerminated
from ._linalg import (extend_basis, null_space, numerical_rank, project_off, qr_basis, svd_rank,
                      unit_columns, used_rows)
from .operators import Family, OperatorModel, build_operator, _readonly, _zero_rows

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

    ``zs`` and ``phis`` are read-only (N, n) arrays, column k - 1 holding z_k
    and phi_k.  Y_n is the joint kernel of phi_1..phi_n; no basis of it is
    stored.  ``q`` is Q_n, the orthonormal basis of span{phi_1..phi_n}, and
    ``reports[k-1]`` is the property report of levels 1..k (see
    :func:`verify_chain`).  Both are derived once, as :func:`init_chain` and
    :func:`extend_chain` make each level, Q_n as Q_{n-1} and one column;
    :func:`verify_chain` reads neither.

    The state holds only the k leading rows of the three arrays that its last
    level ran on (``_zs``, ``_phis`` and ``_q``; every later row is zero), and
    ``zs``, ``phis`` and ``q`` pad them to ``dim`` rows on first read.
    """

    dim: int
    _zs: np.ndarray = field(repr=False)
    _phis: np.ndarray = field(repr=False)
    _q: np.ndarray = field(repr=False)
    reports: tuple = field(repr=False)

    @property
    def depth(self) -> int:
        return self._zs.shape[1]

    @functools.cached_property
    def zs(self) -> np.ndarray:
        return _zero_rows(self._zs, self.dim)

    @functools.cached_property
    def phis(self) -> np.ndarray:
        return _zero_rows(self._phis, self.dim)

    @functools.cached_property
    def q(self) -> np.ndarray:
        return _zero_rows(self._q, self.dim)


def init_chain(op: OperatorModel, z1: np.ndarray | None = None) -> ChainState:
    """Depth-1 chain: z_1 = e_1 unless given, and phi_1 = z_1, so f_1(z_1) = ||z_1||^2 > 0."""
    n = op.dim
    if z1 is None:
        z1 = np.zeros(n, dtype=np.complex128)
        z1[0] = 1.0
    with _step(1):  # the norm of a huge finite z1 overflows
        z1 = np.asarray(z1, dtype=np.complex128).reshape(-1)
        head = z1[:used_rows(z1)]  # every nonzero entry, nan and inf too, lies in these rows
        if z1.shape[0] != n or not (np.all(np.isfinite(head)) and np.linalg.norm(head) > 0):
            raise ArgumentError("z1 must be a finite nonzero vector of the operator dimension")
        # Q_0 has no columns
        zs, phis, q, report = _derive_level(op, head[:, None], head[:, None], np.zeros((0, 0)))
    return ChainState(n, zs, phis, q, (report,))


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
    zs, phis, q = state._zs, state._phis, state._q
    lead = op.section(slice(0, len(zs)))  # the state's rows hold T* of its vectors

    with _step(depth + 1):
        v = lead.adjoint_apply(phis[:, -1])
        phi_next = v - phis @ ((zs.conj().T @ v) / np.sum(zs.conj() * phis, axis=0))
        on_y = project_off(q, phi_next)  # f_{n+1} restricted to Y_n

        norm_on_y = float(np.linalg.norm(on_y))
        # ||T|| is the whole operator's, not the truncation's
        scale = float(np.linalg.norm(phis[:, -1])) * max(op.norm_estimate, 1e-300)
        if norm_on_y < TOL_CHAIN * scale:
            resid = containment_residual(lead.adjoint_apply(q), q)
            raise ChainTerminated(state, invariance_residual=resid, verified=resid < INVARIANCE_TOL)

        zs, phis, q_next, level = _derive_level(
            op, np.column_stack((zs, on_y / norm_on_y)), np.column_stack((phis, phi_next)), q)
    bad = {key: level[key] for key in RESIDUAL_KEYS if level[key] >= PROPERTY_TOL}
    if bad or level["biorthogonality_diag_min"] < PROPERTY_TOL:
        raise AssumptionError(f"chain properties degraded at depth {depth + 1}: {bad}")
    return ChainState(op.dim, zs, phis, q_next, state.reports + (_fold(state.reports[-1], level),))


def build_chain(op: OperatorModel, depth: int, z1: np.ndarray | None = None) -> ChainState:
    """Extend from depth 1 to the requested depth (ChainTerminated passes through)."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    state = init_chain(op, z1=z1)
    while state.depth < depth:
        state = extend_chain(op, state)
    return state


@contextlib.contextmanager
def _step(depth: int):
    """Run a chain step with overflow and invalid values raising, as AssumptionError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise AssumptionError(f"chain step to depth {depth} left the float range ({exc})") from None


def _derive_level(
    op: OperatorModel, zs: np.ndarray, phis: np.ndarray, q_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(z's, phi's, Q_k, the properties level k adds to levels 1..k-1); keys as in verify_chain.

    ``zs`` and ``phis`` hold columns z_1..z_k and phi_1..phi_k, and
    ``q_prev`` is Q_{k-1} (no columns at k = 1), each with at least the rows
    that hold their nonzero entries.  The level runs on the rows
    ``op.on_support`` reads off them, and the three arrays it returns hold
    those rows; ||T|| stays the whole operator's.
    """
    k = zs.shape[1]
    lead, (zs, phis, q_prev) = op.on_support(zs, phis, q_prev)
    # a prefix view of verify_chain's state is strided, and BLAS rounds strided
    # operands differently: copies keep its levels equal to the walk's in every
    # product here, not only in the operator applications
    zs, phis = np.ascontiguousarray(zs), np.ascontiguousarray(phis)
    phi_norms, z_norms = np.linalg.norm(phis, axis=0), np.linalg.norm(zs, axis=0)
    unit = phis / phi_norms
    q = extend_basis(q_prev, unit[:, -1])
    s = np.linalg.svd(unit, compute_uv=False)
    # |f_i(z_j)| / (||phi_i|| ||z_j||): level k adds row i = k and column j = k
    row = np.abs(phis[:, -1].conj() @ zs) / (phi_norms[-1] * z_norms)
    col = np.abs(phis[:, :-1].conj().T @ zs[:, -1]) / (phi_norms[:-1] * z_norms[-1])
    out = {
        "z_in_previous": 0.0,
        "recurrence_norm": 0.0,
        "adjoint_map": 0.0,
        "biorthogonality_off": float(np.max(np.concatenate([row[:-1], col]), initial=0.0)),
        "biorthogonality_diag_min": float(row[-1]),
        "functional_sigma_min": float(s[-1]),
        "codim_exact": svd_rank(s) == k,
    }
    if k > 1:
        out["z_in_previous"] = float(np.linalg.norm(q_prev.conj().T @ zs[:, -1]) / z_norms[-1])
        mismatch = project_off(q_prev, phis[:, -1] - lead.adjoint_apply(phis[:, -2]))
        scale = phi_norms[-1] + phi_norms[-2] * op.norm_estimate
        out["recurrence_norm"] = float(np.linalg.norm(mismatch) / scale)
        out["adjoint_map"] = containment_residual(lead.adjoint_apply(q_prev), q)
    return _readonly(zs), _readonly(phis), q, out


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

    Every level is re-derived from the z's and phi's alone, by the
    derivation the walk itself ran, on the rows it reads off them, so the
    result equals ``state.reports[-1]`` for a chain that init_chain and
    extend_chain made.
    """
    zs, phis = state._zs, state._phis
    *_, q, report = _derive_level(op, zs[:, :1], phis[:, :1], np.zeros((0, 0)))
    for k in range(2, state.depth + 1):
        *_, q, level = _derive_level(op, zs[:, :k], phis[:, :k], q)
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
    evens = state.zs[:, 1 : 2 * pairs : 2]  # z_2, z_4, ..., z_{2 pairs}
    z_basis, _ = qr_basis(unit_columns(evens))

    images = op.apply(evens)  # T z_{2k}
    projected = images - z_basis @ (z_basis.conj().T @ images)
    ranks = tuple(numerical_rank(projected[:, : k + 1]) for k in range(pairs))

    odd = state.phis[:, 0 : 2 * pairs : 2]  # f_1, f_3, ..., f_{2 pairs - 1}
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
    depth = min(state.depth, n)
    y_basis = null_space(state.phis[:, :depth].conj().T)
    e_y = state.zs[:, depth - 1]
    if depth < n:
        q = y_basis
        restricted = build_operator(Family.DENSE, q.shape[1], matrix=q.conj().T @ op.apply(q))
        y_sub, e_sub, _ = codim_n_subspace(restricted, n - depth)
        y_basis, e_y = q @ y_sub, q @ e_sub

    enlarged = extend_basis(y_basis, e_y / (np.linalg.norm(e_y) or 1.0))
    return y_basis, e_y, containment_residual(op.apply(y_basis), enlarged)
