"""The orbit stage: biorthogonal norms from one triangular inverse, and all
annihilating functionals from one least-squares solve.

The norms are pinned to an independent per-n least-squares distance, the
block dual solve to column-by-column solves, and a guard checks that a
full-length (L = N) Blaschke build stays off the per-n distance helper.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aihs import _linalg
from aihs.errors import MinimalityError
from aihs.halfspace import build_blaschke
from aihs.operators import (
    INVERSE_LEAF,
    Family,
    _biorthogonal_norms,
    build_operator,
    compute_orbit,
    upper_triangular_inverse,
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
    assert_allclose(_biorthogonal_norms(x), _lstsq_norms(x), rtol=1e-10)


def test_exactly_zero_pivot_is_a_minimality_error_at_its_index():
    # the identity repeats e_1 exactly, so the QR has an exact zero at R[1, 1]
    op = build_operator(Family.DENSE, 4, matrix=np.eye(4))
    with pytest.raises(MinimalityError) as info:
        compute_orbit(op, np.eye(4)[0], 3)
    assert (info.value.index, info.value.distance, info.value.scale) == (1, 0.0, 1.0)


def test_zero_pivot_past_the_first_inverse_block_is_a_minimality_error():
    # x_40 repeats x_3 exactly; unit basis vectors leave Householder QR exact
    vectors = np.eye(41, 64, dtype=np.complex128)
    vectors[40] = vectors[3]
    assert 40 > INVERSE_LEAF
    with pytest.raises(MinimalityError) as info:
        _biorthogonal_norms(vectors)
    assert (info.value.index, info.value.distance, info.value.scale) == (40, 0.0, 1.0)


@pytest.mark.parametrize("length", [1, 31, 32, 33, 256])
def test_upper_triangular_inverse_matches_dense_solve(length):
    rng = np.random.default_rng(length)
    _, r = np.linalg.qr(_random_complex(rng, length, length))
    inverse = upper_triangular_inverse(r)
    assert_allclose(inverse, np.linalg.solve(r, np.eye(length)), rtol=1e-12, atol=0)
    assert not np.any(np.tril(inverse, -1))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_block_min_norm_dual_equals_column_calls(k):
    rng = np.random.default_rng(k)
    orbit = _random_complex(rng, 40, 12) * np.logspace(0, -8, 12)  # decaying columns
    values = _random_complex(rng, 12, k)
    block = _linalg.min_norm_dual(orbit, values)
    assert block.shape == (40, k)
    for j in range(k):
        assert np.array_equal(block[:, j], _linalg.min_norm_dual(orbit, values[:, j]))


def test_min_norm_dual_rejects_a_wrong_value_count():
    orbit = np.eye(5, 3, dtype=np.complex128)
    with pytest.raises(ValueError):
        _linalg.min_norm_dual(orbit, np.ones(4))
    with pytest.raises(ValueError):
        _linalg.min_norm_dual(orbit, np.ones((4, 2)))


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


def test_full_length_blaschke_orbit_uses_no_distance_to_span(spies):
    # unimodular weights: the orbit never decays, so L = N = 256
    dim = 256
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, dim - 1)
    op = build_operator(Family.FORWARD, dim, weights=np.exp(1j * phases))
    e = np.zeros(dim, dtype=np.complex128)
    e[0] = 1.0
    cert = build_blaschke(op, e, m=8, m_max=5)
    assert cert.passed
    assert spies == {"distance_to_span": 0, "min_norm_dual": 1}
