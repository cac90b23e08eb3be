"""Numerical laboratory for almost invariant half-spaces of truncated operators.

The package builds machine-checkable certificates that a subspace Y spanned
by resolvent-type vectors satisfies T(Y) ⊆ Y + span{e} on an N×N truncation,
together with independent annihilating functionals witnessing codimension.
Supporting modules cover the operator families and orbits, resolvent solves
and identities, entire-function and unit-disk zero machinery, finite-rank
perturbation duality, and the functional-chain dichotomy; everything not
re-exported here is imported from its submodule.
"""

from .config import Tolerances
from .errors import AihsError
from .halfspace import HalfSpaceCertificate, build_blaschke, build_entire, verify_certificate
from .operators import (
    Family,
    OperatorModel,
    build_operator,
    factorial_decay_weights,
    geometric_weights,
    operator_from_config,
)
from .serialize import read_certificate, write_certificate

__version__ = "0.1.0"

__all__ = [
    "Tolerances",
    "Family",
    "OperatorModel",
    "build_operator",
    "operator_from_config",
    "geometric_weights",
    "factorial_decay_weights",
    "build_entire",
    "build_blaschke",
    "verify_certificate",
    "HalfSpaceCertificate",
    "read_certificate",
    "write_certificate",
    "AihsError",
    "__version__",
]
