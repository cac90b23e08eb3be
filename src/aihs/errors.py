"""Exception types shared across the package.

The split mirrors how failures are treated downstream: bad caller input
(`ArgumentError`), a numerical precondition that did not hold at run time
(`AssumptionError`, whose one subclass, `SingularResolventError`, is the one
a handler catches), and pipeline failures that carry the stage at which a
half-space construction gave up (`StageError`).
"""

from __future__ import annotations

__all__ = [
    "AihsError",
    "ArgumentError",
    "AssumptionError",
    "SingularResolventError",
    "ChainTerminated",
    "StageError",
]


class AihsError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(AihsError):
    """A caller supplied an argument that violates an interface contract."""


class AssumptionError(AihsError):
    """A numerical assumption required by an operation failed to hold."""


class SingularResolventError(AssumptionError):
    """The resolvent system at a given point is singular or unusable."""

    def __init__(self, lam: complex, detail: str = ""):
        self.lam = lam
        msg = f"resolvent solve failed at lambda = {lam!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ChainTerminated(AihsError):
    """A functional chain hit the invariant-subspace branch.

    Raised by ``extend_chain`` when the next functional vanishes on the whole
    current subspace.  Carries the terminal state so callers can inspect the
    dichotomy witness.
    """

    def __init__(self, state, invariance_residual: float, verified: bool):
        self.state = state
        self.invariance_residual = invariance_residual
        self.verified = verified
        super().__init__(
            "invariant subspace found: the next functional vanishes on the "
            f"current subspace (invariance residual {invariance_residual:.3e})"
        )


class StageError(AihsError):
    """A half-space construction failed at a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"half-space construction failed at stage '{stage}': {cause}")
