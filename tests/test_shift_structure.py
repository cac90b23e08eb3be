"""Structured shift operators: O(N) apply and solve against the dense matrix.

The shift families never build their N x N matrix on the certificate path;
these tests pin the structured kernels to the dense ``op.matrix`` and guard
that the build and audit paths stay off the dense LU and the opt-in
condition estimate.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aihs.errors import SingularResolventError
from aihs.halfspace import build_entire, verify_certificate
from aihs.operators import Family, build_operator, geometric_weights
from aihs.resolvent import ResolventSolver

SHIFTS = (Family.FORWARD, Family.DONOGHUE)


@st.composite
def shift_operators(draw, min_dim=2, max_dim=64):
    """A shift of either family with random nonzero complex weights.

    Moduli lie on a 0.01 grid in [0.05, 2] and are distinct, so sorting
    them gives the strictly decreasing sequence the Donoghue family
    requires, with gaps that survive rounding of the complex weights.
    """
    family = draw(st.sampled_from(SHIFTS))
    dim = draw(st.integers(min_dim, max_dim))
    steps = draw(
        st.lists(st.integers(5, 200), min_size=dim - 1, max_size=dim - 1, unique=True)
    )
    mods = [k / 100 for k in steps]
    phases = draw(
        st.lists(st.floats(0.0, 2 * np.pi), min_size=dim - 1, max_size=dim - 1)
    )
    if family is Family.DONOGHUE:
        mods = sorted(mods, reverse=True)
    weights = [m * np.exp(1j * p) for m, p in zip(mods, phases)]
    return build_operator(family, dim, weights=weights)


def _random_block(seed, dim, cols):
    rng = np.random.default_rng(seed)
    shape = (dim,) if cols == 0 else (dim, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _shift_point(seed, op):
    """A point z with |z| at least max|w|: cond(z - T) stays below about 2N,
    so two backward-stable solvers agree to a few ulps times N."""
    rng = np.random.default_rng(seed)
    radius = op.norm_estimate() * rng.uniform(1.0, 3.0)
    return radius * np.exp(1j * rng.uniform(0.0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(op=shift_operators(), cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_structured_apply_matches_dense_matrix(op, cols, seed):
    x = _random_block(seed, op.dim, cols)
    assert op.apply(x).shape == x.shape
    assert_allclose(op.apply(x), op.matrix @ x, rtol=1e-14, atol=0)
    assert_allclose(op.adjoint_apply(x), op.matrix.conj().T @ x, rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(op=shift_operators(), cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_banded_solve_matches_dense_lu(op, cols, seed):
    z = _shift_point(seed, op)
    rhs = _random_block(seed + 1, op.dim, cols)
    h = op.shifted_solver(z)(rhs)
    a = np.diag(np.full(op.dim, z)) - op.matrix
    ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), rhs)
    assert np.linalg.norm(h - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(op=shift_operators(min_dim=12, max_dim=12), seed=st.integers(0, 2**32 - 1))
def test_condition_estimate_on_shift_matches_svd(op, seed):
    lam = 1.0 / _shift_point(seed, op)
    s = np.linalg.svd(np.diag(np.full(12, 1.0 / lam)) - op.matrix, compute_uv=False)
    exact = s[0] / s[-1]
    solver = ResolventSolver(op, lam)
    assert 0.5 * exact <= solver.condition_estimate() <= 1.01 * exact


def test_solve_reports_no_condition_unless_asked():
    op = build_operator(Family.FORWARD, 16, weights=geometric_weights(16, 0.9))
    solver = ResolventSolver(op, 2.0)
    assert np.isnan(solver.solve(np.ones(16)).condition)
    estimate = solver.condition_estimate()
    assert solver.solve(np.ones(16)).condition == estimate


@pytest.mark.parametrize("family", SHIFTS)
def test_exactly_singular_shift_solve_is_a_singular_resolvent(family):
    # lam = inf puts z = 1/lam = 0, and z - T = -T is nilpotent
    op = build_operator(family, 4, weights=[0.5, 0.25, 0.125])
    with pytest.raises(SingularResolventError):
        ResolventSolver(op, np.inf).solve(np.ones(4))


@pytest.fixture
def spies(monkeypatch):
    calls = {"lu_factor": 0, "condition_estimate": 0}
    lu_factor = scipy.linalg.lu_factor
    condition_estimate = ResolventSolver.condition_estimate

    def counted_lu(*args, **kwargs):
        calls["lu_factor"] += 1
        return lu_factor(*args, **kwargs)

    def counted_condition(self, *args, **kwargs):
        calls["condition_estimate"] += 1
        return condition_estimate(self, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted_lu)
    monkeypatch.setattr(ResolventSolver, "condition_estimate", counted_condition)
    return calls


def _build_and_verify(op):
    e = np.zeros(op.dim, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, m=8, k_max=5)
    report = verify_certificate(op, cert)
    assert cert.passed and report["passed"]


def test_shift_build_and_verify_skip_dense_lu_and_condition(spies):
    op = build_operator(Family.FORWARD, 512, weights=geometric_weights(512, 0.9))
    _build_and_verify(op)
    assert spies == {"lu_factor": 0, "condition_estimate": 0}
    assert "matrix" not in vars(op)  # the N x N matrix was never built


def test_dense_build_and_verify_still_use_lu(spies):
    shift = build_operator(Family.FORWARD, 64, weights=geometric_weights(64, 0.9))
    op = build_operator(Family.DENSE, 64, matrix=shift.matrix)
    _build_and_verify(op)
    assert spies["lu_factor"] > 0
    assert spies["condition_estimate"] == 0
