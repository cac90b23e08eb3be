"""Operator families, weight generators, and orbit computation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aihs.errors import ArgumentError, AssumptionError
from aihs.operators import (
    Family,
    build_operator,
    compute_orbit,
    factorial_decay_weights,
    geometric_weights,
    max_orbit_length,
    operator_from_config,
    weights_from_config,
    _as_complex,
)


def basis(n, i):
    e = np.zeros(n, dtype=np.complex128)
    e[i] = 1.0
    return e


# ----------------------------------------------------------------------------
# construction and basis action


def test_forward_shift_basis_action_is_exact():
    w = [0.5, 0.25, 0.125]
    op = build_operator(Family.FORWARD, 4, weights=w)
    for i in range(3):
        assert np.array_equal(op.apply(basis(4, i)), w[i] * basis(4, i + 1))
    assert np.array_equal(op.apply(basis(4, 3)), np.zeros(4))


def test_donoghue_shift_basis_action_is_exact():
    w = [0.5, 0.25, 0.125]
    op = build_operator("donoghue-backward-shift", 4, weights=w)
    assert np.array_equal(op.apply(basis(4, 0)), np.zeros(4))
    for i in range(1, 4):
        assert np.array_equal(op.apply(basis(4, i)), w[i - 1] * basis(4, i - 1))


def test_dense_matrix_is_passed_through():
    m = np.array([[1.0, 2.0], [3.0, 4.0j]])
    op = build_operator(Family.DENSE, 2, matrix=m)
    assert np.array_equal(op.matrix, m.astype(np.complex128))
    assert op.weights is None


def test_adjoint_apply_matches_conjugate_transpose():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = build_operator(Family.DENSE, 5, matrix=m)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert_allclose(op.adjoint_apply(v), m.conj().T @ v, rtol=1e-14)


def test_matrices_are_read_only():
    op = build_operator(Family.FORWARD, 3, weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


@pytest.mark.parametrize(
    "family,kwargs",
    [
        (Family.FORWARD, dict(weights=[1.0, 0.0, 1.0])),
        (Family.DONOGHUE, dict(weights=[0.5, 0.5, 0.25])),  # not strictly decreasing
        (Family.DONOGHUE, dict(weights=[0.25, 0.5, 0.125])),
        (Family.FORWARD, dict(weights=[1.0, 1.0])),  # wrong count for dim 4
        (Family.FORWARD, dict(matrix=np.eye(4))),
        (Family.DENSE, dict(matrix=np.eye(3))),  # wrong shape for dim 4
        (Family.DENSE, dict(matrix=np.eye(4), weights=[1, 1, 1])),
        (Family.DENSE, dict()),
        (Family.FORWARD, dict(weights=[1.0, np.inf, 1.0])),  # inf * 0 is nan off the orbit
        (Family.FORWARD, dict(weights=[complex(np.nan, 1.0), 0.5, 0.25])),
    ],
)
def test_invalid_construction_is_rejected(family, kwargs):
    with pytest.raises(ArgumentError):
        build_operator(family, 4, **kwargs)


def _donoghue_error_by_loop(weights):
    """The Python-abs loop the Donoghue rule once ran: its message, or None."""
    mods = [abs(x) for x in weights]
    for i in range(len(mods) - 1):
        if not mods[i + 1] < mods[i]:
            return ("Donoghue weights must be strictly decreasing in modulus; "
                    f"|w_{i + 1}| = {mods[i]:.6g} vs |w_{i + 2}| = {mods[i + 1]:.6g}")
    return None


def test_donoghue_rule_matches_python_abs_at_near_ties():
    rng = np.random.default_rng(3)
    rejected = 0
    for _ in range(300):
        count = int(rng.integers(1, 24))
        mods = np.sort(rng.uniform(0.1, 2.0, count))[::-1]
        # a neighbour of equal modulus and another phase: the rounding of |w| decides
        ties = rng.uniform(size=count) < 0.1
        mods[1:][ties[1:]] = mods[:-1][ties[1:]]
        weights = mods * np.exp(2j * np.pi * rng.uniform(size=count))
        expected = _donoghue_error_by_loop(weights.tolist())
        try:
            build_operator(Family.DONOGHUE, count + 1, weights=weights)
            message = None
        except ArgumentError as exc:
            message = str(exc)
        assert message == expected
        rejected += expected is not None
    assert 0 < rejected < 300


@pytest.mark.parametrize("weights", [[[0.5, 0.25], [0.125, 0.0625]], 0.5],
                         ids=["two-dimensional", "scalar"])
def test_weights_that_are_not_one_dimensional_are_rejected(weights):
    with pytest.raises(ArgumentError, match="weights must be one-dimensional") as info:
        build_operator(Family.FORWARD, 5, weights=weights)
    assert "\n" not in str(info.value)


def test_dim_below_two_is_rejected():
    with pytest.raises(ArgumentError):
        build_operator(Family.FORWARD, 1, weights=[])


# ----------------------------------------------------------------------------
# structural spectrum and norms


@pytest.mark.parametrize("family", [Family.FORWARD, Family.DONOGHUE])
def test_shift_truncations_are_nilpotent(family):
    op = build_operator(family, 6, weights=geometric_weights(6, 0.5))
    assert op.is_nilpotent
    assert op.spectral_radius() == 0.0
    assert np.array_equal(op.eigenvalues, np.zeros(6))
    # matrix power N is exactly zero
    p = np.linalg.matrix_power(op.matrix, 6)
    assert np.array_equal(p, np.zeros((6, 6)))


def test_dense_spectral_radius_matches_eigvals():
    m = np.diag([1.0, -2.0, 0.5]).astype(complex)
    op = build_operator(Family.DENSE, 3, matrix=m)
    assert not op.is_nilpotent
    assert op.spectral_radius() == pytest.approx(2.0, rel=1e-12)


def test_shift_norm_estimate_is_max_weight():
    op = build_operator(Family.FORWARD, 5, weights=[0.5, 2.0, 0.25, 1.0])
    assert op.norm_estimate == 2.0


def test_dense_norm_estimate_tracks_sigma_max():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    op = build_operator(Family.DENSE, 20, matrix=m)
    sigma = np.linalg.svd(m, compute_uv=False)[0]
    assert op.norm_estimate == pytest.approx(sigma, rel=0.05)


def test_dense_norm_estimate_finds_a_top_vector_orthogonal_to_ones():
    # the top right singular vector (1, -1, 0) is orthogonal to the flat
    # vector, so power iteration from it would stall at 0.5
    m = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    op = build_operator(Family.DENSE, 3, matrix=m)
    assert op.norm_estimate == pytest.approx(2.0, rel=1e-12)


# ----------------------------------------------------------------------------
# weight generators and configs


def test_geometric_weights_values():
    assert geometric_weights(4, 0.5) == (0.5, 0.25, 0.125)


def _bits(values) -> list:
    return np.array(values, dtype=np.complex128).view(np.uint64).tolist()


@pytest.mark.parametrize("dim", [2, 100, 101, 102, 1024])
@pytest.mark.parametrize("ratio", [0.9, 0.5, 0.995, 1.3, -0.7, 0.6 + 0.2j])
def test_geometric_weights_keep_the_bits_of_the_complex_power(ratio, dim):
    # CPython squares up to exponent 100 and takes pow(|z|, i) at z's phase past it
    got = geometric_weights(dim, ratio)
    assert type(got) is tuple and {type(w) for w in got} <= {complex}
    assert _bits(got) == _bits(tuple(complex(ratio) ** i for i in range(1, dim)))


def test_geometric_weights_past_the_float_range_are_one_line():
    with pytest.raises(OverflowError):
        complex(2) ** 1024
    with pytest.raises(ArgumentError) as info:
        geometric_weights(1100, 2)
    assert str(info.value) == ("geometric weights overflow: |ratio|**1099 with |ratio| = 2 "
                               "leaves the float range")


def test_geometric_weights_that_underflow_are_a_zero_weight():
    cfg = {"family": "forward-weighted-shift", "dim": 200,
           "weights": {"kind": "geometric", "params": {"ratio": 1e-3}}}
    with pytest.raises(ArgumentError) as info:
        operator_from_config(cfg)
    assert str(info.value) == "weight 108 is 0j; all weights must be finite and nonzero"


def test_factorial_decay_weights_values():
    w = factorial_decay_weights(5)
    assert w == (1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0)


def test_factorial_decay_underflow_is_rejected():
    with pytest.raises(ArgumentError):
        factorial_decay_weights(200)


def test_factorial_decay_weights_end_at_170():
    assert factorial_decay_weights(171)[-1] == 1.0 / math.factorial(170) > 0.0
    with pytest.raises(ArgumentError, match="factorial-decay weight 171 underflows to zero"):
        factorial_decay_weights(172)


def test_operator_from_config_explicit_complex_weights():
    cfg = {
        "family": "forward-weighted-shift",
        "dim": 3,
        "weights": {"kind": "explicit", "params": {"values": [[0.0, 1.0], 0.5]}},
    }
    op = operator_from_config(cfg)
    assert op.weights.tolist() == [1j, 0.5]
    with pytest.raises(ValueError):  # read-only
        op.weights[0] = 1.0


@pytest.mark.parametrize("values", [
    [[1, 2], [-3, 0], [0, 7]],
    [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]],
    [[1e308, -1e308], [5e-324, 2.2250738585072014e-308]],
    [[2**60 + 1, -(2**60 + 1)], [2**70 + 12345, 3], [0.1, 1 / 3]],
    [0.5, [0.25, -0.5], 1, [1.0, 0], -0.0, [2**60 + 1, 0]],
    [[True, 0], [1, 2]],
], ids=["ints", "signed-zeros", "extremes", "large-ints", "numbers-and-pairs", "bool"])
def test_explicit_weights_keep_the_bits_of_each_entry(values):
    # one pass over a list of pairs; the per-entry parse is the reference
    cfg = {"kind": "explicit", "params": {"values": values}}
    got = np.asarray(weights_from_config(cfg, len(values) + 1))
    want = np.array([_as_complex(v) for v in values], dtype=np.complex128)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_operator_from_config_random_dense_is_seed_deterministic():
    cfg = {
        "family": "dense",
        "dim": 8,
        "matrix": {"kind": "random-gaussian", "scale": 2.0},
    }
    a = operator_from_config(cfg, np.random.default_rng(42))
    b = operator_from_config(cfg, np.random.default_rng(42))
    c = operator_from_config(cfg, np.random.default_rng(43))
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_dense_without_rng_is_rejected():
    cfg = {"family": "dense", "dim": 4, "matrix": {"kind": "random-gaussian"}}
    with pytest.raises(ArgumentError):
        operator_from_config(cfg)


# ----------------------------------------------------------------------------
# orbits


def test_orbit_vectors_and_biorthogonal_norms_for_dyadic_forward_shift():
    # w_i = 2^-i sends e_1 along scaled basis vectors:
    #   x_0 = e_1, x_1 = 2^-1 e_2, x_2 = 2^-3 e_3.
    # Orthogonality makes dist(x_n, others) = |x_n|, so r = (1, 2, 8) exactly.
    op = build_operator(Family.FORWARD, 8, weights=geometric_weights(8, 0.5))
    data = compute_orbit(op, basis(8, 0), 3)
    assert np.array_equal(data.vectors[0], basis(8, 0))
    assert np.array_equal(data.vectors[1], 0.5 * basis(8, 1))
    assert np.array_equal(data.vectors[2], 0.125 * basis(8, 2))
    assert_allclose(data.biorthogonal_norms, [1.0, 2.0, 8.0], rtol=1e-12)


def test_biorthogonal_norms_match_least_squares_oracle():
    # Independent route: r_n = 1 / ||x_n - X_others c*|| with c* from lstsq.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    op = build_operator(Family.DENSE, 9, matrix=0.4 * m)
    data = compute_orbit(op, rng.standard_normal(9) + 0j, 5)
    x = data.vectors
    expected = []
    for n in range(5):
        others = np.delete(x, n, axis=0).T
        coef, *_ = np.linalg.lstsq(others, x[n], rcond=None)
        expected.append(1.0 / np.linalg.norm(x[n] - others @ coef))
    assert_allclose(data.biorthogonal_norms, expected, rtol=1e-9)


def test_dense_orbit_past_the_squared_norm_overflow_is_minimal():
    # ||x_3||^2 ~ 5e363 overflows; scaling x_n by 1e-60n leaves every span, so
    # r_n is the diag(1, 2, 3, 4) orbit's r_n over 1e60n
    op = build_operator(Family.DENSE, 4, matrix=np.diag([1e60, 2e60, 3e60, 4e60]))
    data = compute_orbit(op, np.ones(4), 4)
    assert data.length == 4
    small = compute_orbit(build_operator(Family.DENSE, 4, matrix=np.diag([1.0, 2, 3, 4])),
                          np.ones(4), 4)
    assert_allclose(data.biorthogonal_norms * 1e60 ** np.arange(4), small.biorthogonal_norms,
                    rtol=1e-9)


def test_a_cap_past_the_floor_returns_the_live_prefix():
    op = build_operator(Family.FORWARD, 4, weights=[1.0, 1.0, 1.0])
    data = compute_orbit(op, basis(4, 3), 2)  # T e_4 = 0
    assert data.length == 1
    assert np.array_equal(data.vectors, [basis(4, 3)])
    assert_allclose(data.biorthogonal_norms, [1.0], rtol=1e-15)


def test_identity_orbit_is_not_minimal():
    op = build_operator(Family.DENSE, 4, matrix=np.eye(4))
    with pytest.raises(AssumptionError, match="^orbit is not minimal: vector 1 is within "):
        compute_orbit(op, np.ones(4), 3)


def test_orbit_argument_validation():
    op = build_operator(Family.FORWARD, 4, weights=[1.0, 1.0, 1.0])
    with pytest.raises(ArgumentError):
        compute_orbit(op, np.zeros(4), 2)
    with pytest.raises(ArgumentError):
        compute_orbit(op, basis(4, 0), 5)  # longer than dim
    with pytest.raises(ArgumentError):
        compute_orbit(op, basis(3, 0), 2)  # wrong shape


def test_max_orbit_length_counts_live_vectors():
    op = build_operator(Family.FORWARD, 8, weights=geometric_weights(8, 0.5))
    assert max_orbit_length(op, basis(8, 0), cap=20) == 8
    assert max_orbit_length(op, basis(8, 0), cap=3) == 3


@pytest.mark.parametrize("family", list(Family))
def test_products_do_not_depend_on_the_operand_layout(family):
    # BLAS rounds a strided column or a Fortran-ordered block differently from
    # a contiguous one; apply and adjoint_apply take the same numbers the same way
    rng = np.random.default_rng(3)
    dim = 30
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if family is Family.DENSE:
        op = build_operator(family, dim, matrix=cplx(dim, dim))
    else:
        op = build_operator(family, dim, weights=np.linspace(2.0, 1.0, dim - 1)
                             * np.exp(2j * np.pi * rng.random(dim - 1)))
    block = cplx(dim, 7)
    for product in (op.apply, op.adjoint_apply):
        for j in range(block.shape[1]):
            assert np.array_equal(product(block[:, j]), product(block[:, j].copy()))
        fortran = np.asfortranarray(block)
        assert np.array_equal(product(fortran), product(block))
