import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from aihs import _linalg, chains
from aihs.chains import (
    build_chain,
    build_non_ai_halfspace_witness,
    codim_n_subspace,
    extend_chain,
    init_chain,
    verify_chain,
)
from aihs.duality import containment_residual
from aihs.errors import ArgumentError, ChainTerminated
from aihs.operators import Family, build_operator, geometric_weights
from aihs._linalg import null_space, qr_basis, unit_columns

RESIDUAL_KEYS = ("z_in_previous", "recurrence_norm", "adjoint_map", "biorthogonality_off")


def dense_op(matrix):
    return build_operator(Family.DENSE, matrix.shape[0], matrix=matrix)


def basis_vec(n, i):
    v = np.zeros(n, dtype=np.complex128)
    v[i] = 1.0
    return v


def assert_properties(op, state, tol=1e-8):
    report = verify_chain(op, state)
    for key in RESIDUAL_KEYS:
        assert report[key] < tol, (key, report[key])
    assert report["biorthogonality_diag_min"] > tol
    if report["functional_sigma_min"] > 1e-10:
        assert report["codim_exact"]
    return report


def test_two_by_two_hand_oracle():
    # T maps e2 -> e1; starting from z1 = e1 the chain walks to e2 and stops
    op = dense_op(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    state = init_chain(op)
    assert state.depth == 1
    # Y_1 = ker f_1 = span{e2}
    y1 = null_space(state.phis[:, 0].conj()[None, :])
    assert y1.shape == (2, 1) and abs(abs(y1[1, 0]) - 1.0) < 1e-14
    extended = extend_chain(op, state)
    assert extended.depth == 2
    # hand simulation: f_2 = e_2 dual, z_2 = e_2, Y_2 = {0}
    assert abs(np.vdot(extended.phis[:, 1], basis_vec(2, 1)) - 1.0) < 1e-14
    np.testing.assert_allclose(np.abs(extended.zs[:, 1]), [0.0, 1.0], atol=1e-14)
    assert null_space(extended.phis.conj().T).shape == (2, 0)
    with pytest.raises(ArgumentError):
        extend_chain(op, extended)  # exhausted


def test_identity_terminates_at_depth_one():
    op = dense_op(np.eye(8, dtype=complex))
    state = init_chain(op)
    with pytest.raises(ChainTerminated) as exc:
        extend_chain(op, state)
    assert exc.value.state.depth == 1
    assert exc.value.verified
    assert exc.value.invariance_residual < 1e-12


def test_forward_shift_seeded_at_origin_hits_invariant_branch():
    # T(span{e2..eN}) stays inside span{e3..eN}: genuine invariant subspace
    op = build_operator(Family.FORWARD, 16, weights=np.ones(15))
    with pytest.raises(ChainTerminated) as exc:
        build_chain(op, 4)
    assert exc.value.verified


def test_forward_shift_seeded_at_top_runs_deep():
    n = 64
    op = build_operator(Family.FORWARD, n, weights=np.ones(n - 1))
    state = build_chain(op, 10, z1=basis_vec(n, n - 1))
    assert state.depth == 10
    report = assert_properties(op, state)
    assert report["codim_exact"]
    # the walk descends the basis: z_k = e_{N+1-k} up to phase
    for k in range(10):
        assert abs(abs(state.zs[n - 1 - k, k]) - 1.0) < 1e-12


def test_donoghue_shift_runs_deep_from_default_seed():
    n = 64
    w = 2.0 ** -np.arange(1, n, dtype=float)
    op = build_operator(Family.DONOGHUE, n, weights=w)
    state = build_chain(op, 10)
    assert_properties(op, state)
    # z_k climbs the basis: z_k = e_k up to phase
    for k in range(10):
        assert abs(abs(state.zs[k][k]) - 1.0) < 1e-12


def test_random_dense_ten_extensions():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    op = dense_op(a)
    state = build_chain(op, 11)  # ten extensions past the seed
    report = assert_properties(op, state)
    assert report["functional_sigma_min"] > 1e-10
    assert report["codim_exact"]


def test_verify_chain_detects_tampering():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    op = dense_op(a)
    state = build_chain(op, 4)
    tampered = dataclasses.replace(
        state, _zs=np.column_stack((state.zs[:, :-1], rng.standard_normal(12) + 0j))
    )
    report = verify_chain(op, tampered)
    assert max(report[k] for k in RESIDUAL_KEYS) > 1e-4


def test_verify_chain_reads_only_the_vectors():
    # Q_n and the per-level reports are the walk's by-products; the audit
    # re-derives every level from z_k and phi_k and must not read them
    rng = np.random.default_rng(8)
    op = dense_op(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    state = build_chain(op, 5)
    garbage = dataclasses.replace(
        state, _q=np.full_like(state._q, np.nan), reports=({"bogus": -1.0},) * state.depth
    )
    assert verify_chain(op, garbage) == verify_chain(op, state) == state.reports[-1]


def _random_walk(seed: int) -> tuple:
    """(operator, the states of depth 1..d) of a seeded random chain from a random complex seed.

    Dense, Donoghue and forward operators in turn, N = 12..80; the shifts
    take weights of falling modulus (as Donoghue needs) and random phases.
    The walk stops at depth 10 or where it terminates.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(12, 81))
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    family = (Family.DENSE, Family.DONOGHUE, Family.FORWARD)[seed % 3]
    if family is Family.DENSE:
        op = dense_op(cplx(dim, dim))
    else:
        moduli = np.sort(rng.uniform(0.5, 2.0, dim - 1))[::-1]
        op = build_operator(family, dim, weights=moduli * np.exp(2j * np.pi * rng.random(dim - 1)))
    states = [init_chain(op, z1=cplx(dim))]
    with contextlib.suppress(ChainTerminated):
        while states[-1].depth < 10:
            states.append(extend_chain(op, states[-1]))
    return op, states


@pytest.mark.parametrize("seed", range(12))
def test_grown_basis_spans_the_functionals(seed):
    # Q_k grows by one Gram-Schmidt column per level; it must span what a
    # pivoted QR of the unit phi_1..phi_k spans, and keep Q_{k-1} as its prefix
    op, states = _random_walk(seed)
    assert len(states) >= 2
    for state in states:
        k = state.depth
        q = state.q
        assert np.allclose(q.conj().T @ q, np.eye(k), rtol=0.0, atol=1e-12)
        reference, _ = qr_basis(unit_columns(state.phis))
        cosines = np.linalg.svd(q.conj().T @ reference, compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-12
        assert verify_chain(op, state) == state.reports[-1]
    for shorter, longer in zip(states, states[1:]):
        assert np.array_equal(longer.q[:, :-1], shorter.q)


def test_functional_inside_the_span_gives_a_finite_report():
    # phi_3 := phi_2 leaves nothing of phi_3 off Q_2: the grown column is zero,
    # divided by nothing, and the report flags the lost rank
    op = build_operator(Family.DONOGHUE, 64, weights=0.995 ** np.arange(1, 64))
    state = build_chain(op, 5)
    phis = state._phis.copy()
    phis[:, 2] = phis[:, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_chain(op, dataclasses.replace(state, _phis=phis))
    assert all(np.isfinite(report[key]) for key in report)
    assert report["codim_exact"] is False
    assert report["functional_sigma_min"] == 0.0


def test_witness_forward_shift_oracle():
    n = 64
    op = build_operator(Family.FORWARD, n, weights=np.ones(n - 1))
    rep = build_non_ai_halfspace_witness(op, build_chain(op, 12, z1=basis_vec(n, n - 1)))
    assert rep.ranks == tuple(range(1, 7))  # strict growth, one new direction per k
    assert rep.diagonal_min > 1e-10
    assert rep.cross_max < 1e-10
    assert rep.z_basis.shape == (n, 6)


def test_witness_depth_two_single_vector():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    op = dense_op(a)
    rep = build_non_ai_halfspace_witness(op, build_chain(op, 2))
    assert rep.ranks == (1,)
    assert rep.evaluations.shape == (1, 1)
    assert rep.cross_max == 0.0


def test_witness_identity_propagates_termination():
    op = dense_op(np.eye(6, dtype=complex))
    with pytest.raises(ChainTerminated):
        build_non_ai_halfspace_witness(op, build_chain(op, 4))


def test_witness_rank_growth_random_dense():
    rng = np.random.default_rng(99)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    op = dense_op(a)
    rep = build_non_ai_halfspace_witness(op, build_chain(op, 10))
    assert all(b > a for a, b in zip(rep.ranks, rep.ranks[1:]))
    assert rep.diagonal_min > 1e-10
    assert rep.cross_max < 1e-10


def test_codim_one_any_hyperplane():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = dense_op(a)
    y, e_y, resid = codim_n_subspace(op, 1)
    assert y.shape == (8, 7)
    assert np.linalg.norm(e_y) > 0
    # Y + span{e_Y} is everything, so the residual vanishes identically
    assert resid < 1e-12


def test_codim_three_forward_shift():
    op = build_operator(Family.FORWARD, 32, weights=np.ones(31))
    y, e_y, resid = codim_n_subspace(op, 3)
    assert y.shape == (32, 29)
    assert resid < 1e-9
    # external re-check of the defining property
    enlarged, _ = qr_basis(np.hstack([y, e_y[:, None]]))
    assert containment_residual(op.matrix @ y, enlarged) < 1e-9


def test_codim_two_identity_invariant_branch():
    op = dense_op(np.eye(12, dtype=complex))
    y, e_y, resid = codim_n_subspace(op, 2)
    assert y.shape == (12, 10)
    assert resid < 1e-12


def test_codim_validates_range():
    op = dense_op(np.eye(4, dtype=complex))
    with pytest.raises(ArgumentError):
        codim_n_subspace(op, 0)
    with pytest.raises(ArgumentError):
        codim_n_subspace(op, 4)


def _codim_operators():
    rng = np.random.default_rng(7)
    dense = [dense_op(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
             for dim in (16, 40)]
    return [*dense, build_operator(Family.FORWARD, 48, weights=geometric_weights(48, 0.9)),
            build_operator(Family.DONOGHUE, 64, weights=geometric_weights(64, 0.995)),
            dense_op(np.eye(12, dtype=complex))]  # the chain ends at once: the invariant branch


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("index", range(5))
def test_codim_residual_matches_a_pivoted_qr_enlargement(index, n):
    # Y + span e_Y grows Y's orthonormal basis by one Gram-Schmidt column; a
    # pivoted QR of [Y, e_Y] spans the same space
    op = _codim_operators()[index]
    y, e_y, resid = codim_n_subspace(op, n)
    enlarged = qr_basis(unit_columns(np.hstack([y, e_y[:, None]])))[0] if np.any(e_y) else y
    assert abs(resid - containment_residual(op.apply(y), enlarged)) <= 1e-14


def test_codim_enlarges_y_without_a_qr(monkeypatch):
    op = build_operator(Family.DONOGHUE, 256, weights=geometric_weights(256, 0.995))
    walk = build_chain(op, 10)
    calls = []
    for module, name in ((_linalg, "greedy_column_order"), (np.linalg, "qr"), (chains, "qr_basis")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    y, _, resid = codim_n_subspace(op, 3, walk)
    assert y.shape == (256, 253) and resid < 1e-12
    assert calls == []


def test_dichotomy_sweep_small():
    # every instance lands in exactly one branch
    rng = np.random.default_rng(2)
    outcomes = []
    for _ in range(10):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        op = dense_op(a)
        try:
            rep = build_non_ai_halfspace_witness(op, build_chain(op, 8))
        except ChainTerminated as term:
            assert term.verified
            outcomes.append("invariant")
        else:
            assert all(b > a for a, b in zip(rep.ranks, rep.ranks[1:]))
            outcomes.append("witness")
    assert len(outcomes) == 10


def test_init_chain_seed_validation():
    op = dense_op(np.eye(4, dtype=complex))
    with pytest.raises(ArgumentError):
        init_chain(op, z1=np.zeros(4))
    with pytest.raises(ArgumentError):
        init_chain(op, z1=np.ones(3))
