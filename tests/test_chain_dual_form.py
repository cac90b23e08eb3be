"""Chains in dual form: the primal properties as a reference, and a structure guard.

A chain keeps only its vectors z_k and dual vectors phi_k.  The reference
test rebuilds every Y_n in primal form, as the null space of the stacked
phi^H, and checks the subspace properties against the dense matrix.  The
guard pins that the recursion itself never forms an N x N matrix or a basis
of Y_n.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aihs import chains
from aihs.chains import (
    PROPERTY_TOL,
    build_chain,
    build_non_ai_halfspace_witness,
    verify_chain,
)
from aihs.duality import containment_residual
from aihs.errors import ChainTerminated
from aihs.operators import Family, build_operator, geometric_weights
from aihs._linalg import null_space, qr_basis


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(2, 6),
    extra=st.integers(1, 18),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_chain_satisfies_the_primal_properties(depth, extra, seed):
    dim = depth + extra
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = build_operator(Family.DENSE, dim, matrix=t)
    try:
        state = build_chain(op, depth)
    except ChainTerminated:
        assume(False)
    assume(verify_chain(op, state)["functional_sigma_min"] > 1e-10)

    norm_t = np.linalg.norm(t, 2)
    ys = [null_space(state.phis[:, :n].conj().T) for n in range(1, depth + 1)]
    for n, y in enumerate(ys, start=1):
        assert y.shape == (dim, dim - n)  # dim Y_n = N - n
    for n in range(1, depth):  # the pair (n, n+1), 1-indexed
        y_prev, y_next = ys[n - 1], ys[n]
        z_next, phi_next, phi_prev = state.zs[:, n], state.phis[:, n], state.phis[:, n - 1]
        # z_{n+1} lies in Y_n
        assert containment_residual(z_next[:, None], y_prev) < PROPERTY_TOL
        # f_{n+1}(y) = f_n(Ty) on a basis of Y_n
        mismatch = phi_next.conj() @ y_prev - (phi_prev.conj() @ t) @ y_prev
        scale = np.linalg.norm(phi_next) + np.linalg.norm(phi_prev) * norm_t
        assert np.max(np.abs(mismatch)) / scale < PROPERTY_TOL
        # T(Y_{n+1}) lies in Y_n
        assert containment_residual(t @ y_next, y_prev) < PROPERTY_TOL
        # Y_n = Y_{n+1} + span z_{n+1}
        union, _ = qr_basis(np.hstack([y_next, z_next[:, None]]))
        assert containment_residual(y_prev, union) < PROPERTY_TOL


def test_donoghue_chain_and_witness_at_n1024_stay_structured(monkeypatch):
    calls = []
    real_null_space = chains.null_space

    def counted(*args, **kwargs):
        calls.append(args)
        return real_null_space(*args, **kwargs)

    monkeypatch.setattr(chains, "null_space", counted)
    op = build_operator(Family.DONOGHUE, 1024, weights=geometric_weights(1024, 0.5))
    state = build_chain(op, 10)
    assert state.depth == 10
    assert len(calls) == 0  # no basis of any Y_n
    witness = build_non_ai_halfspace_witness(op, state)
    assert witness.ranks == (1, 2, 3, 4, 5)
    assert "matrix" not in vars(op)  # the N x N matrix was never built
