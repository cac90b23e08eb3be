"""Resolvent solves, the two identities, grids, and the factorial probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aihs._linalg import smallest_singular_value, unit_columns
from aihs.errors import ArgumentError, NeumannDivergenceError, SingularResolventError
from aihs.operators import Family, build_operator, geometric_weights
from aihs.resolvent import (
    ResolventSolver,
    check_replacement,
    check_th_identity,
    dense_subsequence_probe,
    filter_lambda_gap,
    lambda_grid,
    neumann_resolvent,
    probe_tail_oracle,
)

IDENT_TOL = 1e-12


def basis(n, i):
    e = np.zeros(n, dtype=np.complex128)
    e[i] = 1.0
    return e


def solve(op, lam, e):
    return ResolventSolver(op, lam).solve(e)


def independence_smin(rows):
    """The certificate's independence score of the row vectors."""
    return smallest_singular_value(unit_columns(np.asarray(rows).T))


def diag_op(*diag):
    return build_operator(Family.DENSE, len(diag), matrix=np.diag(diag).astype(complex))


# ----------------------------------------------------------------------------
# solves against closed forms


def test_two_by_two_neumann_closed_form():
    # h = lam e_1 + lam^2 w_1 e_2, worked by hand for the 2x2 forward shift.
    op = build_operator(Family.FORWARD, 2, weights=[0.25])
    lam = 0.5
    rv = neumann_resolvent(op, lam, basis(2, 0))
    assert_allclose(rv.vector, [0.5, 0.0625], rtol=0, atol=1e-16)
    direct = solve(op, lam, basis(2, 0))
    assert_allclose(direct.vector, rv.vector, rtol=1e-14)


def test_diagonal_resolvent_closed_form():
    # (1/lam - d_i)^-1 entrywise: lam = 2, d = (0.1, -0.3) -> (2.5, 1.25).
    op = diag_op(0.1, -0.3)
    rv = solve(op, 2.0, np.ones(2))
    assert_allclose(rv.vector, [2.5, 1.25], rtol=1e-14)
    assert rv.defect < IDENT_TOL


def test_neumann_equals_direct_for_nilpotent_family():
    op = build_operator(Family.FORWARD, 32, weights=geometric_weights(32, 0.5))
    for lam in [0.3, 1.0, 2.0 + 1.0j, -4.0]:
        a = solve(op, lam, basis(32, 0)).vector
        b = neumann_resolvent(op, lam, basis(32, 0)).vector
        assert_allclose(b, a, rtol=1e-13, atol=0)


def test_th_identity_residual_is_tiny():
    op = build_operator(Family.DONOGHUE, 16, weights=geometric_weights(16, 0.5))
    rng = np.random.default_rng(5)
    e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    rv = solve(op, 1.5 - 0.5j, e)
    assert check_th_identity(op, rv, e) < IDENT_TOL


def test_replacement_identity_residual_is_tiny():
    op = build_operator(Family.FORWARD, 24, weights=geometric_weights(24, 0.5))
    assert check_replacement(op, 1.2, 0.7j, basis(24, 0)) < IDENT_TOL


def test_replacement_requires_distinct_points():
    op = diag_op(0.1, 0.2)
    with pytest.raises(ArgumentError):
        check_replacement(op, 1.0, 1.0, np.ones(2))


# ----------------------------------------------------------------------------
# failure modes


def test_singular_resolvent_is_detected():
    op = diag_op(2.0, 0.5)
    with pytest.raises(SingularResolventError):
        solve(op, 0.5, np.ones(2))  # 1/lam hits the eigenvalue 2


def test_neumann_divergence_is_detected():
    # unimodular weights: the k-th term has norm 1e3^(k+1), past the float range at k = 102
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 255)
    op = build_operator(Family.FORWARD, 256, weights=np.exp(1j * phases))
    with pytest.raises(NeumannDivergenceError):  # with no RuntimeWarning on the way
        neumann_resolvent(op, 1e3, basis(256, 0))


def test_neumann_rejects_dense():
    with pytest.raises(ArgumentError, match="nilpotent"):
        neumann_resolvent(diag_op(0.1, 0.2), 1.0, np.ones(2))


def test_zero_lam_rejected():
    op = diag_op(0.1, 0.2)
    with pytest.raises(ArgumentError):
        solve(op, 0.0, np.ones(2))


# ----------------------------------------------------------------------------
# condition estimate


def test_condition_estimate_matches_svd_on_diagonal_case():
    # A = I - diag(0.9, 0.5, 0.1) has cond = 0.9 / 0.1 = 9.
    solver = ResolventSolver(diag_op(0.9, 0.5, 0.1), 1.0)
    assert solver.condition_estimate() == pytest.approx(9.0, rel=1e-3)


def test_condition_estimate_is_inf_on_an_exactly_singular_dense_matrix():
    # 1/lam = 0.5 is an exact eigenvalue of this non-diagonal T, and the SVD of
    # 1/lam - T returns sigma_min exactly 0
    m = np.array([[0.5, 0.25, 1.0], [0.0, 0.3, 2.0], [0.0, 0.0, 0.7]], dtype=complex)
    solver = ResolventSolver(build_operator(Family.DENSE, 3, matrix=m), 2.0)
    assert solver.condition_estimate() == math.inf


def test_condition_estimate_close_for_random_matrix():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    op = build_operator(Family.DENSE, 12, matrix=0.2 * m)
    solver = ResolventSolver(op, 1.3)
    s = np.linalg.svd(np.diag(np.full(12, 1 / 1.3)) - op.matrix, compute_uv=False)
    exact = s[0] / s[-1]
    est = solver.condition_estimate()
    assert 0.5 * exact <= est <= 1.01 * exact


# ----------------------------------------------------------------------------
# independence score


def test_independence_smin_orthogonal_and_degenerate():
    v = np.eye(3, 5, dtype=complex)
    assert independence_smin(v) == pytest.approx(1.0, rel=1e-12)
    dup = np.vstack([v[0], v[0]])
    assert independence_smin(dup) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    perm=st.permutations(range(4)),
    scales=st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=4
    ),
)
def test_independence_smin_invariant_under_permutation_and_scaling(perm, scales):
    rng = np.random.default_rng(9)
    v = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    base = independence_smin(v)
    tweaked = np.array([scales[i] * v[p] for i, p in enumerate(perm)])
    assert independence_smin(tweaked) == pytest.approx(base, rel=1e-9)


# ----------------------------------------------------------------------------
# grids


def test_lambda_grid_layout():
    g = lambda_grid([1.0, 2.0], 4)
    assert g.shape == (8,)
    assert_allclose(np.abs(g[:4]), 1.0, rtol=1e-14)
    assert_allclose(np.abs(g[4:]), 2.0, rtol=1e-14)
    assert_allclose(g[0], 1.0 + 0j, atol=1e-15)


def test_filter_keeps_everything_for_nilpotent():
    op = build_operator(Family.FORWARD, 8, weights=geometric_weights(8, 0.5))
    g = lambda_grid([0.1, 1.0, 10.0], 10)
    assert len(filter_lambda_gap(op, g)) == 30


def test_filter_drops_eigenvalue_collision():
    op = diag_op(0.5, 0.25)
    lams = np.array([2.0, 3.0])  # 1/2 hits the eigenvalue 0.5 exactly
    kept = filter_lambda_gap(op, lams)
    assert_allclose(kept, [3.0])


# ----------------------------------------------------------------------------
# factorial-decay probe


def test_probe_errors_strictly_decrease_in_n():
    err = dense_subsequence_probe(40, k_max=3, n_max=12)
    assert err.shape == (3, 12)
    assert np.all(np.diff(err, axis=1) < 0)


def test_probe_matches_tail_oracle():
    err = dense_subsequence_probe(40, k_max=3, n_max=10)
    for k in range(1, 4):
        for n in range(1, 11):
            assert err[k - 1, n - 1] == pytest.approx(
                probe_tail_oracle(k, n), rel=1e-12
            )


def test_probe_frozen_value_at_n6():
    # sum of 1/7 + 1/(7*8) + 1/(7*8*9) + ... worked out by partial sums.
    err = dense_subsequence_probe(40, k_max=1, n_max=6)
    assert err[0, 5] == pytest.approx(0.16291649, rel=1e-6)


def test_probe_l2_norm_variant():
    err = dense_subsequence_probe(40, k_max=1, n_max=4, p=2.0)
    oracle = probe_tail_oracle(1, 4, p=2.0)
    assert err[0, 3] == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("dim, k_max, n_max", [(20, 1, 4), (64, 5, 12), (171, 5, 12)])
def test_probe_at_p_one_is_the_same_for_an_int_and_a_float(dim, k_max, n_max):
    # x ** 1 and x ** 1.0 are exact, so the p-norm form is the sum of moduli for either
    as_int = dense_subsequence_probe(dim, k_max=k_max, n_max=n_max, p=1)
    assert as_int.tobytes() == dense_subsequence_probe(dim, k_max=k_max, n_max=n_max,
                                                        p=1.0).tobytes()


def test_probe_dim_guard():
    with pytest.raises(ArgumentError):
        dense_subsequence_probe(10, k_max=5, n_max=8)
