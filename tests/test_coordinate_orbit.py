"""The coordinate orbit: a shift seeded at c e_j, in closed form.

Its walk is checked bit for bit against the stepwise walk, ``orbit_walk``,
and its norms and duals against the factor path that every dense orbit
takes, ``_biorthogonal_norms`` plus ``min_norm_dual``.  The cases cover
both shift families, decaying, unimodular and growing weights, and orbits
that end at the norm floor, at overflow, at the end of the index range and
at the cap.  An N = 4096 build and audit is bounded by the memory it uses.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aihs._linalg import min_norm_dual
from aihs.halfspace import build_blaschke, verify_certificate
from aihs.operators import (
    ORBIT_NORM_FLOOR,
    CoordinateOrbit,
    DenseOrbit,
    Family,
    _biorthogonal_norms,
    build_operator,
    orbit_form,
    orbit_walk,
)

RTOL = 2e-15


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)


def _shift(family, moduli, phases):
    if family is Family.DONOGHUE:  # strictly decreasing moduli
        moduli = np.sort(moduli)[::-1] * (1.0 - 1e-9 * np.arange(moduli.size))
    return build_operator(family, moduli.size + 1, weights=moduli * np.exp(1j * phases))


_LOG_MODULI = {"decaying": (-40.0, -1.0), "unimodular": (0.0, 0.0), "growing": (1.0, 40.0)}


@st.composite
def coordinate_orbits(draw):
    """A shift, a seed c e_j and a cap; any of the walk's four ends can come first."""
    family = draw(st.sampled_from([Family.FORWARD, Family.DONOGHUE]))
    dim = draw(st.integers(2, 40))
    low, high = _LOG_MODULI[draw(st.sampled_from(sorted(_LOG_MODULI)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = _shift(family, 10.0 ** rng.uniform(low, high, dim - 1),
                rng.uniform(0.0, 2.0 * np.pi, dim - 1))
    e = np.zeros(dim, dtype=np.complex128)
    j = draw(st.integers(0, dim - 1))
    e[j] = 10.0 ** draw(st.floats(-149.0, 300.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    return op, e, draw(st.integers(1, dim))


def _check_against_the_stepwise_walk(op, e, cap):
    orbit = orbit_form(op, e, cap)
    rows = orbit_walk(op, e, cap)
    assert isinstance(orbit, CoordinateOrbit)
    assert orbit.length == len(rows)
    assert np.array_equal(orbit.vectors, rows)  # +-0 off the path compare equal
    on_path = rows[np.arange(len(rows)), orbit.positions]
    assert np.array_equal(_bits(orbit.amplitudes), _bits(on_path))
    return orbit, rows


def _check_against_the_factor(op, e, rows, rng):
    """Norms and duals of the prefix whose ||x_n||^2 is finite, which the factor can scale."""
    length = int(np.argmin(np.append(np.isfinite(np.linalg.norm(rows, axis=1)), False)))
    if not length:
        return
    orbit = orbit_form(op, e, length)
    norms, q, r_inverse, scales = _biorthogonal_norms(rows[:length])
    assert np.all(np.abs(orbit.biorthogonal_norms - norms) <= RTOL * norms)
    values = rng.standard_normal((length, 3)) + 1j * rng.standard_normal((length, 3))
    values[rng.random(length) < 0.3] = 0.0  # exact zeros, whose duals are +0.0
    closed, reference = orbit.min_norm_duals(values), min_norm_dual(q, r_inverse, scales, values)
    # the factor's round-off is normwise: R's off-diagonal ulps couple entries
    # whose scales differ by up to 1e300, so each column is compared at its own
    # largest entry; the closed form replays every value to its own ulps
    assert np.all(np.abs(closed - reference) <= RTOL * np.max(np.abs(reference), axis=0))
    assert not np.any(np.signbit(closed.view(np.float64)[closed.view(np.float64) == 0]))
    replayed = orbit.replay(closed)
    assert np.all(np.abs(replayed - values.T) <= RTOL * np.abs(values.T))
    dense = DenseOrbit(op.dim, rows[:length]).replay(closed)
    assert np.all(np.abs(replayed - dense) <= RTOL * np.abs(dense))
    assert np.array_equal(_bits(orbit.min_norm_duals(values[:, :1])), _bits(closed[:, :1]))


@settings(max_examples=200, deadline=None)
@given(case=coordinate_orbits(), seed=st.integers(0, 2**32 - 1))
def test_coordinate_orbit_matches_the_walk_and_the_factor(case, seed):
    op, e, cap = case
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan past the overflow
        _, rows = _check_against_the_stepwise_walk(op, e, cap)
        _check_against_the_factor(op, e, rows, np.random.default_rng(seed))


def _case(family, dim, modulus, j, c):
    phases = np.random.default_rng(dim).uniform(0.0, 2.0 * np.pi, dim - 1)
    op = _shift(family, np.full(dim - 1, modulus), phases)
    e = np.zeros(dim, dtype=np.complex128)
    e[j] = c
    return op, e


_ENDS = {
    # name: (family, dim, weight modulus, j, c, expected length)
    "forward-floor": (Family.FORWARD, 40, 1e-20, 3, 2 - 1j, 8),
    "forward-overflow": (Family.FORWARD, 40, 1e30, 5, 1e150j, 6),
    "forward-range": (Family.FORWARD, 40, 1.0, 7, -0.5 + 0.5j, 33),
    "donoghue-floor": (Family.DONOGHUE, 40, 1e-20, 30, 2 - 1j, 8),
    "donoghue-overflow": (Family.DONOGHUE, 40, 1e30, 30, 1e150j, 6),
    "donoghue-range": (Family.DONOGHUE, 40, 1.0, 11, 3j, 12),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan past the overflow
@pytest.mark.parametrize("name", _ENDS)
def test_each_end_of_the_walk_is_where_the_stepwise_walk_ends(name):
    family, dim, modulus, j, c, length = _ENDS[name]
    op, e = _case(family, dim, modulus, j, c)
    orbit, rows = _check_against_the_stepwise_walk(op, e, dim)
    assert orbit.length == length
    assert orbit_form(op, e, length - 1).length == length - 1  # the cap ends it too
    _check_against_the_factor(op, e, rows, np.random.default_rng(0))


@pytest.mark.parametrize("step", [-2, -1, 0, 1, 2])
def test_a_walk_on_the_floor_stops_where_the_stepwise_walk_stops(step):
    # real unit weights keep every amplitude exactly c, within ulps of the floor
    c = ORBIT_NORM_FLOOR
    for _ in range(abs(step)):
        c = math.nextafter(c, math.copysign(math.inf, step))
    op = build_operator(Family.FORWARD, 12, weights=np.ones(11))
    e = np.zeros(12, dtype=np.complex128)
    e[2] = c
    _check_against_the_stepwise_walk(op, e, 12)


def test_a_seed_off_one_basis_vector_is_a_dense_orbit():
    op = build_operator(Family.FORWARD, 6, weights=np.ones(5))
    e = np.zeros(6, dtype=np.complex128)
    e[[1, 3]] = 1.0
    assert isinstance(orbit_form(op, e, 6), DenseOrbit)
    assert isinstance(orbit_form(build_operator(Family.DENSE, 6, matrix=op.matrix), e[::-1], 6),
                      DenseOrbit)


def test_closed_form_duals_take_an_l_by_k_block_only():
    op, e = _case(Family.FORWARD, 12, 0.5, 2, 1.0)
    orbit = orbit_form(op, e, 12)
    assert orbit.min_norm_duals(np.ones((orbit.length, 2))).shape == (12, 2)
    for values in (np.ones(orbit.length), np.ones((orbit.length + 1, 1))):
        with pytest.raises(ValueError):
            orbit.min_norm_duals(values)


def test_n4096_build_and_audit_stay_under_64_mb():
    # the dense orbit matrix alone would be 4096^2 complex doubles, 268 MB
    dim = 4096
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, dim - 1)
    op = build_operator(Family.FORWARD, dim, weights=np.exp(1j * phases))
    e = np.zeros(dim, dtype=np.complex128)
    e[0] = 1.0
    tracemalloc.start()
    try:
        cert = build_blaschke(op, e, m=8, m_max=5)
        report = verify_certificate(op, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and report["passed"] and cert.orbit_length == dim
    assert peak < 64 * 2**20
