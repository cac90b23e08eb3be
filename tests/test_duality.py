import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aihs.duality import (
    adjoint_halfspace,
    build_perturbation,
    containment_residual,
    minimal_defect_space,
)
from aihs.errors import ArgumentError, AssumptionError
from aihs.operators import Family, build_operator
from aihs._linalg import distance_to_span, numerical_rank, orthonormal_columns


def dense_op(matrix):
    return build_operator(Family.DENSE, matrix.shape[0], matrix=matrix)


def random_orthonormal(rng, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return q


def basis_span(indices, n):
    q = np.zeros((n, len(indices)), dtype=np.complex128)
    for j, i in enumerate(indices):
        q[i, j] = 1.0
    return q


def test_invariant_subspace_has_no_defect():
    # diag(1, 2, 3, 4) leaves span{e1, e2} invariant
    op = dense_op(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    y = basis_span([0, 1], 4)
    f, dim_f = minimal_defect_space(op, y)
    assert dim_f == 0
    assert f.shape == (4, 0)


def test_y_in_the_kernel_has_no_defect():
    # T e_N = 0 for the forward shift: T Y is zero, so F is empty
    op = build_operator(Family.FORWARD, 6, weights=np.ones(5))
    f, dim_f = minimal_defect_space(op, basis_span([5], 6))
    assert dim_f == 0
    assert f.shape == (6, 0) and f.dtype == np.complex128


@pytest.mark.parametrize("columns", [np.zeros((5, 0)), np.zeros((5, 3))],
                         ids=["no-columns", "zero-columns"])
def test_an_empty_span_has_no_basis_and_rank_zero(columns):
    v = np.arange(5.0) + 1j
    assert orthonormal_columns(columns).shape == (5, 0)
    assert numerical_rank(columns) == 0
    assert distance_to_span(v, columns) == float(np.linalg.norm(v))


def test_shift_hyperplane_defect_is_one_dimensional():
    # forward shift on span{e2..eN}: T e_N leaves the span through e_? no —
    # take Y = span{e1..e(N-1)}; T(Y) adds the single direction e_N
    op = build_operator(Family.FORWARD, 6, weights=np.ones(5))
    y = basis_span(range(5), 6)
    f, dim_f = minimal_defect_space(op, y)
    assert dim_f == 1
    # the defect direction is e_6 up to phase
    assert abs(abs(f[5, 0]) - 1.0) < 1e-12
    assert np.linalg.norm(f[:5, 0]) < 1e-12


def test_defect_is_orthogonal_to_y():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    op = dense_op(a)
    y = random_orthonormal(rng, 12, 5)
    f, dim_f = minimal_defect_space(op, y)
    assert dim_f == 5  # generic dense operator: full defect rank
    assert np.max(np.abs(y.conj().T @ f)) < 1e-10


def test_containment_residual_basics():
    y = basis_span([0, 1], 4)
    inside = np.array([[1.0], [2.0], [0.0], [0.0]], dtype=complex)
    outside = np.array([[0.0], [0.0], [1.0], [0.0]], dtype=complex)
    assert containment_residual(inside, y) < 1e-15
    assert containment_residual(outside, y) == pytest.approx(1.0)


def _containment_per_column(vectors, basis):
    """The per-column loop containment_residual replaced, kept as the reference."""
    worst = 0.0
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            continue
        resid = col if basis is None or basis.shape[1] == 0 else col - basis @ (basis.conj().T @ col)
        worst = max(worst, float(np.linalg.norm(resid)) / norm)
    return worst


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    cols=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    zero_cols=st.lists(st.booleans(), min_size=6, max_size=6),
    basis_kind=st.sampled_from(["none", "empty", "span"]),
    rank=st.integers(1, 8),
)
def test_containment_residual_matches_the_per_column_loop(n, cols, seed, zero_cols, basis_kind,
                                                          rank):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    v[:, np.array(zero_cols[:cols], dtype=bool)] = 0.0
    basis = {"none": None, "empty": np.zeros((n, 0), dtype=np.complex128),
             "span": random_orthonormal(rng, n, min(rank, n))}[basis_kind]
    # the ratio is already relative to ||v||, so atol is its round-off floor
    # (a basis of the whole space leaves only round-off)
    assert np.isclose(containment_residual(v, basis), _containment_per_column(v, basis),
                      rtol=1e-12, atol=1e-14)


def test_perturbation_restores_invariance_dense():
    rng = np.random.default_rng(11)
    n = 16
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = dense_op(a)
    y = random_orthonormal(rng, n, 6)
    f, dim_f = minimal_defect_space(op, y)
    w = build_perturbation(op, y, f)
    assert w.invariance_residual < 1e-9
    assert w.rank_K == dim_f
    # K acts only through F: its range sits inside span F
    assert containment_residual(w.K, f) < 1e-9


def test_zero_defect_gives_zero_perturbation():
    op = dense_op(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    y = basis_span([0, 1], 4)
    f, _ = minimal_defect_space(op, y)
    w = build_perturbation(op, y, f)
    assert np.all(w.K == 0)
    assert w.rank_K == 0
    assert w.invariance_residual < 1e-12


def test_converse_rank_containment():
    # T(Y) must land inside Y + range(K)
    rng = np.random.default_rng(23)
    n = 10
    op = dense_op(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    y = random_orthonormal(rng, n, 4)
    f, _ = minimal_defect_space(op, y)
    w = build_perturbation(op, y, f)
    u, s, _ = np.linalg.svd(w.K)
    range_k = u[:, : w.rank_K]
    enlarged = np.linalg.qr(np.hstack([y, range_k]))[0]
    assert containment_residual(op.matrix @ y, enlarged) < 1e-9


def test_near_degenerate_angle_rejected():
    op = dense_op(np.eye(4, dtype=complex))
    y = basis_span([0, 1], 4)
    # F almost inside Y: angle ~1e-9
    f = np.zeros((4, 1), dtype=complex)
    f[0, 0] = np.sqrt(1.0 - 1e-18)
    f[2, 0] = 1e-9
    with pytest.raises(AssumptionError):
        build_perturbation(op, y, f)


def test_non_orthonormal_basis_rejected():
    op = dense_op(np.eye(3, dtype=complex))
    bad = np.ones((3, 2), dtype=complex)
    with pytest.raises(ArgumentError):
        minimal_defect_space(op, bad)


def test_adjoint_halfspace_diagonal():
    op = dense_op(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex))
    y = basis_span([0, 1], 5)
    f, _ = minimal_defect_space(op, y)  # empty
    rep = adjoint_halfspace(op, y, f)
    assert rep.dim_f == 0
    assert rep.dim_z == 3
    assert rep.dim_y_perp == rep.dim_z + rep.dim_f
    assert rep.residual < 1e-12
    # Z is exactly span{e3, e4, e5}
    assert np.linalg.norm(rep.z_basis[:2, :]) < 1e-12


def test_adjoint_halfspace_of_the_whole_space_is_empty():
    # Y + F is the whole space, so Z = {0} and nothing is left to map
    op = build_operator(Family.FORWARD, 8, weights=np.full(7, 0.5))
    y = basis_span(range(7), 8)
    f, dim_f = minimal_defect_space(op, y)
    rep = adjoint_halfspace(op, y, f)
    assert (dim_f, rep.dim_z, rep.dim_f, rep.dim_y_perp) == (1, 0, 1, 1)
    assert rep.z_basis.shape == (8, 0)
    assert rep.residual == 0.0


def test_adjoint_dimension_split_dense():
    rng = np.random.default_rng(5)
    n = 14
    op = dense_op(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    y = random_orthonormal(rng, n, 6)
    f, dim_f = minimal_defect_space(op, y)
    rep = adjoint_halfspace(op, y, f)
    assert rep.dim_y_perp == n - 6
    assert rep.dim_z == n - 6 - dim_f
    assert rep.dim_y_perp == rep.dim_z + rep.dim_f
    # Z is orthogonal to both Y and F
    assert np.max(np.abs(y.conj().T @ rep.z_basis)) < 1e-10
    assert np.max(np.abs(f.conj().T @ rep.z_basis)) < 1e-10


def test_adjoint_residual_for_shift():
    # forward shift, Y = span{e1..e4}, F = span{e5}; Z = span{e6..e8};
    # T* maps Z into span{e5..e7} inside Y^perp exactly
    op = build_operator(Family.FORWARD, 8, weights=np.full(7, 0.5))
    y = basis_span(range(4), 8)
    f, dim_f = minimal_defect_space(op, y)
    assert dim_f == 1
    rep = adjoint_halfspace(op, y, f)
    assert rep.dim_z == 3
    assert rep.residual < 1e-14


def test_round_trip_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(6, 24))
        m = int(rng.integers(1, n - 1))
        op = dense_op(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        y = random_orthonormal(rng, n, m)
        f, dim_f = minimal_defect_space(op, y)
        w = build_perturbation(op, y, f)
        rep = adjoint_halfspace(op, y, f)
        assert w.invariance_residual < 1e-9
        assert w.rank_K <= dim_f
        assert rep.dim_y_perp == rep.dim_z + rep.dim_f
