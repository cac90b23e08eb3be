"""The orbit stage: one walk and one QR factor per dense orbit, which give both
the biorthogonal norms and the annihilating functionals' dual vectors.

The norms are pinned to an independent per-n least-squares distance, the
dual vectors to a least-squares minimum-norm solve and a block of columns to
one-column blocks.  Guards check that a full-length (L = N) Blaschke
build stays off the per-n distance helper; that a shift seeded at e_0
neither walks nor factors its orbit, in the build or the audit; and that a
dense orbit is walked and factored once by the build and once by the audit,
with no least-squares solve.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aihs import _linalg, operators
from aihs.errors import AssumptionError
from aihs.halfspace import build_blaschke, verify_certificate
from aihs.operators import (
    Family,
    _biorthogonal_norms,
    build_operator,
    compute_orbit,
)


def _lstsq_norms(x: np.ndarray) -> np.ndarray:
    """Reference ``r_n = 1 / ||x_n - X_others c*||`` with ``c*`` from lstsq, per n.

    The other vectors are scaled to unit norm first, which keeps their span:
    lstsq's default cutoff is relative to the largest singular value, so it
    would drop the span of short orbit vectors next to long ones.
    """
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    out = []
    for n in range(x.shape[0]):
        others = np.delete(unit, n, axis=0).T
        coef, *_ = np.linalg.lstsq(others, x[n], rcond=None)
        out.append(1.0 / np.linalg.norm(x[n] - others @ coef))
    return np.array(out)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def dense_orbits(draw, max_dim=24):
    """Rows ``x_n = T^n e`` of a random dense complex ``T``, ``L <= dim``."""
    dim = draw(st.integers(2, max_dim))
    length = draw(st.integers(1, dim))
    scale = draw(st.floats(0.3, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _random_complex(rng, dim, dim) * (scale / np.sqrt(2 * dim))
    x = np.empty((length, dim), dtype=np.complex128)
    v = _random_complex(rng, dim)
    for n in range(length):
        x[n] = v
        v = t @ v
    return x


@settings(max_examples=60, deadline=None)
@given(x=dense_orbits())
def test_biorthogonal_norms_match_per_n_lstsq_distance(x):
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    assume(np.linalg.cond(unit.T) < 1e6)
    norms, *_ = _biorthogonal_norms(x)
    assert_allclose(norms, _lstsq_norms(x), rtol=1e-10)


def test_exactly_zero_pivot_is_a_minimality_error_at_its_index():
    # the identity repeats e_1 exactly, so the QR has an exact zero at R[1, 1]
    op = build_operator(Family.DENSE, 4, matrix=np.eye(4))
    with pytest.raises(AssumptionError) as info:
        compute_orbit(op, np.eye(4)[0], 3)
    assert str(info.value) == ("orbit is not minimal: vector 1 is within 0.000e+00 "
                               "of the span of the remaining vectors (norm 1.000e+00)")


def test_zero_pivot_past_the_first_inverse_block_is_a_minimality_error():
    # a zero pivot deep in the orbit is named by its index: x_40 repeats x_3 exactly;
    # unit basis vectors leave Householder QR exact
    vectors = np.eye(41, 64, dtype=np.complex128)
    vectors[40] = vectors[3]
    with pytest.raises(AssumptionError) as info:
        _biorthogonal_norms(vectors)
    assert str(info.value) == ("orbit is not minimal: vector 40 is within 0.000e+00 "
                               "of the span of the remaining vectors (norm 1.000e+00)")


def _lstsq_duals(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reference minimum-norm ``f`` with ``f^H x_n = values[n]``, by lstsq.

    Row ``n`` of the system, ``x_n^H f = conj(v_n)``, is scaled to unit
    norm; that keeps the solution set and tames the orbit's dynamic range.
    """
    norms = np.linalg.norm(x, axis=1)
    f, *_ = np.linalg.lstsq((x / norms[:, None]).conj(), np.conj(values) / norms, rcond=None)
    return f


@settings(max_examples=60, deadline=None)
@given(x=dense_orbits(), seed=st.integers(0, 2**32 - 1))
def test_duals_from_the_factor_match_the_lstsq_minimum_norm_solution(x, seed):
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    assume(np.linalg.cond(unit.T) < 1e6)
    values = _random_complex(np.random.default_rng(seed), x.shape[0])
    _, q, r_inverse, scales = _biorthogonal_norms(x)
    f = _linalg.min_norm_dual(q, r_inverse, scales, values[:, None])[:, 0]
    reference = _lstsq_duals(x, values)
    assert np.max(np.abs(f - reference)) <= 1e-9 * np.max(np.abs(reference))
    residual = np.abs(x.conj() @ f - np.conj(values)) / (np.linalg.norm(f) * scales)
    assert np.max(residual) <= 1e-13


def _orbit_factor(orbit_columns):
    _, q, r_inverse, scales = _biorthogonal_norms(orbit_columns.T)
    return q, r_inverse, scales


@pytest.mark.parametrize("k", [1, 3, 6])
def test_block_min_norm_dual_equals_column_calls(k):
    rng = np.random.default_rng(k)
    orbit = _random_complex(rng, 40, 12) * np.logspace(0, -8, 12)  # decaying columns
    values = _random_complex(rng, 12, k)
    factor = _orbit_factor(orbit)
    block = _linalg.min_norm_dual(*factor, values)
    assert block.shape == (40, k)
    for j in range(k):
        column = _linalg.min_norm_dual(*factor, values[:, j:j + 1])
        assert column.shape == (40, 1)
        assert np.array_equal(block[:, j], column[:, 0])


def test_min_norm_dual_rejects_a_wrong_value_count():
    factor = _orbit_factor(np.eye(5, 3, dtype=np.complex128))
    for values in (np.ones((4, 1)), np.ones((4, 2)), np.ones(3), np.ones((3, 1, 1))):
        with pytest.raises(ValueError):
            _linalg.min_norm_dual(*factor, values)


@pytest.fixture
def spies(monkeypatch):
    """Count calls at every ``aihs`` module-level name bound to the two helpers."""
    calls = {"distance_to_span": 0, "min_norm_dual": 0}
    for name in calls:
        original = getattr(_linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "aihs" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _unimodular_shift(dim):
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, dim - 1)
    return build_operator(Family.FORWARD, dim, weights=np.exp(1j * phases))


def _e0(dim):
    e = np.zeros(dim, dtype=np.complex128)
    e[0] = 1.0
    return e


def test_full_length_blaschke_orbit_uses_no_distance_to_span(spies):
    # unimodular weights: the orbit never decays, so L = N = 256; a shift
    # seeded at e_0 writes its duals in closed form, without the factor
    dim = 256
    cert = build_blaschke(_unimodular_shift(dim), _e0(dim), m=8, m_max=5)
    assert cert.passed
    assert spies == {"distance_to_span": 0, "min_norm_dual": 0}


@pytest.fixture
def orbit_spies(monkeypatch):
    """Count orbit walks, one-vector matvecs, QRs by shape and lstsq calls."""
    calls = {"orbit_walk": 0, "matvec": 0, "qr_shapes": [], "lstsq": 0}
    walk, apply = operators.orbit_walk, operators.OperatorModel.apply
    qr, lstsq = np.linalg.qr, np.linalg.lstsq

    def counted_walk(*args, **kwargs):
        calls["orbit_walk"] += 1
        return walk(*args, **kwargs)

    def counted_apply(self, vec):
        calls["matvec"] += np.ndim(vec) == 1
        return apply(self, vec)

    def counted_qr(a, *args, **kwargs):
        calls["qr_shapes"].append(np.shape(a))
        return qr(a, *args, **kwargs)

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(operators, "orbit_walk", counted_walk)
    monkeypatch.setattr(operators.OperatorModel, "apply", counted_apply)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    return calls


def _orbit_qrs(spies, cert):
    """QRs of a dim x L matrix: the orbit's factor (the basis QRs have m columns)."""
    return spies["qr_shapes"].count((cert.defect_vector.size, cert.orbit_length))


def test_full_length_shift_build_and_audit_never_walk_or_factor_the_orbit(orbit_spies):
    dim = 256
    op = _unimodular_shift(dim)
    cert = build_blaschke(op, _e0(dim), m=8, m_max=5)
    assert cert.passed and cert.orbit_length == dim and not cert.excluded_lambdas
    # the only matvecs are the resolvent solves' defect checks, one per lambda
    assert (orbit_spies["orbit_walk"], orbit_spies["matvec"]) == (0, 8)
    assert (_orbit_qrs(orbit_spies, cert), orbit_spies["lstsq"]) == (0, 0)
    assert verify_certificate(op, cert)["passed"]
    assert (orbit_spies["orbit_walk"], orbit_spies["matvec"]) == (0, 16)
    assert (_orbit_qrs(orbit_spies, cert), orbit_spies["lstsq"]) == (0, 0)


def test_dense_build_walks_and_factors_its_orbit_once(orbit_spies):
    # a unimodular shift in a random unitary basis: a dense operator whose
    # orbit is well conditioned, so it stays minimal at L = N = 64; the audit
    # factors it once more, for the norm-sum hypothesis it re-derives
    dim = 64
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(_random_complex(rng, dim, dim))
    orbit_spies["qr_shapes"].clear()  # the QR that drew u has the orbit's shape
    shift = _unimodular_shift(dim).matrix
    op = build_operator(Family.DENSE, dim, matrix=u @ shift @ u.conj().T)
    cert = build_blaschke(op, u[:, 0], m=8, m_max=5)
    assert cert.passed and cert.orbit_length == dim
    assert (orbit_spies["orbit_walk"], _orbit_qrs(orbit_spies, cert)) == (1, 1)
    assert verify_certificate(op, cert)["passed"]
    assert (orbit_spies["orbit_walk"], _orbit_qrs(orbit_spies, cert)) == (2, 2)
    assert orbit_spies["lstsq"] == 0
