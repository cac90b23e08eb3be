"""Resolvent-type vectors h(lam, e) solving (1/lam - T) h = e, plus checks.

For the truncated shift families the matrix ``1/lam - T`` is triangular with
constant diagonal, so every nonzero ``lam`` is admissible and the Neumann sum

    h = lam * sum_{n >= 0} lam^n T^n e

terminates exactly at the nilpotency index.  Identity checks are reported as
residuals relative to the scale of the solve (``|e| + |h|/|lam| + |T h|``),
since the vectors involved routinely span hundreds of orders of magnitude.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, AssumptionError, SingularResolventError
from .config import Tolerances
from .operators import Family, OperatorModel, _readonly

__all__ = [
    "ResolventVector",
    "ResolventSolver",
    "neumann_resolvent",
    "check_th_identity",
    "check_replacement",
    "lambda_grid",
    "filter_lambda_gap",
    "dense_subsequence_probe",
    "probe_tail_oracle",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ResolventVector:
    """One solve of ``(1/lam - T) h = e``; ``defect`` is its residual over the solve scale."""

    lam: complex
    vector: np.ndarray
    defect: float


def _relative_defect(op: OperatorModel, lam: complex, h: np.ndarray, e: np.ndarray) -> float:
    """``||(1/lam) h - T h - e||`` over the solve scale ``|e| + |h|/|lam| + |T h|``."""
    th = op.apply(h)
    resid = (1.0 / lam) * h - th - e
    scale = np.linalg.norm(e) + abs(1.0 / lam) * np.linalg.norm(h) + np.linalg.norm(th)
    return float(np.linalg.norm(resid)) / float(scale)


class ResolventSolver:
    """Direct solver for ``(1/lam - T) h = e``, reusable across right-hand sides.

    The solve is :meth:`OperatorModel.shifted_solver`: a substitution that
    stops at the exact zero tail of ``h`` for the shift families,
    ``numpy.linalg.solve`` for dense operators.  Every solve is checked
    against ``op.apply``, on the rows the solve wrote and the one row ``T``
    moves them into: ``h``, ``e`` and ``T h`` vanish on every other row.  A
    dense solve writes, and so checks, all N rows.  The condition estimate
    is opt-in.
    """

    def __init__(
        self, op: OperatorModel, lam: complex, defect_tol: float = Tolerances.resolvent_defect_tol
    ):
        if lam == 0:
            raise ArgumentError("lam must be nonzero")
        self.op = op
        self.lam = complex(lam)
        self.defect_tol = float(defect_tol)
        self._solve = op.shifted_solver(1.0 / self.lam)

    def solve(self, e: np.ndarray) -> ResolventVector:
        e = np.asarray(e, dtype=np.complex128).reshape(-1)
        try:
            h, written = self._solve(e)
        except np.linalg.LinAlgError as exc:
            raise SingularResolventError(self.lam, str(exc)) from exc
        op, part, rhs = self.op, h, e
        if written + 1 < op.dim:  # the rows written and the one T moves into
            start = op.dim - written - 1 if op.family is Family.DONOGHUE else 0
            rows = slice(start, start + written + 1)
            op, part, rhs = op.section(start, written + 1), h[rows], e[rows]
        if not np.all(np.isfinite(part)):
            raise SingularResolventError(self.lam, "solve produced non-finite entries")
        defect = _relative_defect(op, self.lam, part, rhs)
        if defect > self.defect_tol:
            raise SingularResolventError(
                self.lam, f"relative defect {defect:.3e} exceeds {self.defect_tol:.1e}"
            )
        return ResolventVector(lam=self.lam, vector=_readonly(h), defect=defect)

    def condition_estimate(self) -> float:
        """sigma_max / sigma_min of the dense ``1/lam - T`` by SVD; inf if that sigma_min is 0."""
        a = np.diag(np.full(self.op.dim, 1.0 / self.lam)) - self.op.matrix
        return float(np.linalg.cond(a))


def neumann_resolvent(op: OperatorModel, lam: complex, e: np.ndarray) -> ResolventVector:
    """The Neumann sum ``lam * sum_{n<dim} lam^n T^n e`` of a nilpotent truncation.

    It is exact there: every later term vanishes.  A term whose norm leaves
    the float range raises :class:`~aihs.errors.AssumptionError`.
    """
    if lam == 0:
        raise ArgumentError("lam must be nonzero")
    if not op.is_nilpotent:
        raise ArgumentError("the Neumann sum needs a nilpotent operator")
    lam = complex(lam)
    e = np.asarray(e, dtype=np.complex128).reshape(-1)
    acc = np.zeros(op.dim, dtype=np.complex128)
    term = lam * e  # n = 0 contribution
    with np.errstate(over="ignore"):  # an overflow shows as a norm beyond the float range
        for _ in range(op.dim - 1):
            acc += term
            term = lam * op.apply(term)
            norm = float(np.linalg.norm(term))
            if not math.isfinite(norm):
                raise AssumptionError(f"Neumann series diverges at lambda = {lam!r} (term norm "
                                      f"grew to {norm:.3e}); use the direct solve instead")
    acc += term
    return ResolventVector(lam=lam, vector=_readonly(acc), defect=_relative_defect(op, lam, acc, e))


# ----------------------------------------------------------------------------
# identity checks


def check_th_identity(op: OperatorModel, rv: ResolventVector, e: np.ndarray) -> float:
    """Relative residual of ``T h = h / lam - e``."""
    return _relative_defect(op, rv.lam, rv.vector, np.asarray(e, dtype=np.complex128).reshape(-1))


def check_replacement(
    op: OperatorModel,
    lam: complex,
    mu: complex,
    e: np.ndarray,
    solver_lam: ResolventSolver | None = None,
    solver_mu: ResolventSolver | None = None,
) -> float:
    """Relative residual of the two-point identity

        h(lam, e) - h(mu, e) = (1/mu - 1/lam) h(lam, h(mu, e)).

    Solvers may be passed in to reuse them across many checks.
    """
    if lam == mu:
        raise ArgumentError("replacement identity needs distinct points")
    sl = solver_lam if solver_lam is not None else ResolventSolver(op, lam)
    sm = solver_mu if solver_mu is not None else ResolventSolver(op, mu)
    h_lam = sl.solve(e).vector
    h_mu = sm.solve(e).vector
    nested = sl.solve(h_mu).vector
    lhs = h_lam - h_mu
    rhs = (1.0 / mu - 1.0 / lam) * nested
    scale = max(
        float(np.linalg.norm(h_lam)),
        float(np.linalg.norm(h_mu)),
        float(np.linalg.norm(rhs)),
    )
    return float(np.linalg.norm(lhs - rhs)) / scale


# ----------------------------------------------------------------------------
# lam grids


def lambda_grid(radii, per_ring: int, phase: float = 0.0) -> np.ndarray:
    """Points ``r * exp(i(2 pi j / per_ring + phase))`` for each ring radius."""
    if per_ring < 1:
        raise ArgumentError("per_ring must be >= 1")
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise ArgumentError("ring radii must be positive")
        for j in range(per_ring):
            out.append(r * np.exp(1j * (2.0 * np.pi * j / per_ring + phase)))
    return np.array(out, dtype=np.complex128)


def filter_lambda_gap(
    op: OperatorModel, lams, gap_rtol: float = Tolerances.eigen_gap_rtol
) -> np.ndarray:
    """Drop lam whose reciprocal sits too close to an eigenvalue of T.

    The gap is relative to ``max(|1/lam|, spectral radius)``; for nilpotent
    truncations (all eigenvalues zero) every nonzero lam survives.  Their
    gap is ``|1/lam|`` itself, so no N-length scan of the eigenvalues runs.
    """
    eig = op.eigenvalues
    rho = op.spectral_radius()
    keep = []
    for lam in np.asarray(lams, dtype=np.complex128).reshape(-1):
        if lam == 0:
            continue
        z = 1.0 / lam
        gap = float(np.abs(z) if op.is_nilpotent else np.min(np.abs(eig - z)))
        if gap >= gap_rtol * max(abs(z), rho):
            keep.append(lam)
        else:
            log.debug("dropping lam=%s (eigen-gap %.3e)", lam, gap)
    return np.array(keep, dtype=np.complex128)


# ----------------------------------------------------------------------------
# factorial-decay probe for the plain backward shift


def dense_subsequence_probe(
    dim: int,
    k_max: int,
    n_max: int = 12,
    p: float = 1.0,
) -> np.ndarray:
    """Convergence profile of rescaled shifted tails of ``x_j = 1/(j-1)!``.

    The plain (unweighted) backward shift ``B`` moves ``x`` to
    ``(B^n x)_j = 1/(n+j-1)!``.  Zero the first ``k-1`` coordinates, rescale
    by ``(n+k-1)!`` and the result converges to the basis vector ``e_k``:

        err[k-1, n-1] = || (n+k-1)! * P_{>=k} B^n x  -  e_k ||_p

    Row ``k-1`` holds ``err_k(n)`` for ``n = 1 .. n_max``.  ``B`` moves each
    entry one place up, so it is applied by slicing; the rescaling uses
    exact integer factorials.  ``dim <= 171`` keeps 1/(dim-1)! and every
    rescale (n+k-1)! inside the float range.
    """
    if k_max < 1 or n_max < 1:
        raise ArgumentError("k_max and n_max must be >= 1")
    if n_max + k_max >= dim:
        raise ArgumentError("dim too small for requested probe range")
    if dim > 171:
        raise ArgumentError(f"factorial orbit entry 1/{dim - 1}! leaves the float range; "
                            "dim must be <= 171")
    xn = np.array([1.0 / math.factorial(j) for j in range(dim)])
    err = np.empty((k_max, n_max))
    for n in range(1, n_max + 1):
        xn = np.append(xn[1:], 0.0)  # (B^n x)_j = 1/(n+j)!  (0-based j)
        for k in range(1, k_max + 1):
            z = xn.copy()
            z[: k - 1] = 0.0
            z *= float(math.factorial(n + k - 1))
            z[k - 1] -= 1.0
            err[k - 1, n - 1] = float(np.sum(np.abs(z) ** p) ** (1.0 / p))
    return err


def probe_tail_oracle(k: int, n: int, p: float = 1.0, terms: int = 300) -> float:
    """Independent closed-form tail for the probe error.

    The surviving coordinates after rescaling are products of reciprocals,
    so ``err_k(n) = ( sum_{t>=1} prod_{s=1..t} (n+k-1+s)^{-p} )^{1/p}``.
    Plus, for ``k >= 2``, nothing else: the zeroed head is exact.
    """
    total = 0.0
    prod = 1.0
    for t in range(1, terms + 1):
        prod /= n + k - 1 + t
        total += prod**p
        if prod**p < 1e-320:
            break
    return total ** (1.0 / p)
