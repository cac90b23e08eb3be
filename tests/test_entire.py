"""Coefficient construction, the termwise bound, shifts, and zero finding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from aihs.entire import (
    CoefficientSequence,
    apply_picard_shift,
    coefficients_from_norms,
    find_zeros,
    poly_eval_normalized,
    shifted_coefficients,
)
from aihs.errors import ArgumentError


def dyadic_norms(count):
    # r_n = 2^(n(n+1)/2): the orbit norms of the 2^-i weighted shift from e_1
    return np.array([2.0 ** (n * (n + 1) // 2) for n in range(count)])


# ----------------------------------------------------------------------------
# coefficients_from_norms


def test_unit_norms_give_pure_dyadic_coefficients():
    cs = coefficients_from_norms(np.ones(10), k_max=2)
    assert cs.degree == 7  # 10 - 2 - 1
    assert np.array_equal(cs.coefficients.real, 0.5 ** np.arange(8))
    # beta_0 = truncated geometric sum, exact in binary
    assert cs.norm_bounds[0] == 2.0 - 2.0**-7
    assert cs.norm_bounds.shape == (3,)


def test_dyadic_orbit_norms_frozen_values():
    cs = coefficients_from_norms(dyadic_norms(8), k_max=1)
    # c_1 = (1/2) min{1/r_1, 1/r_2} = (1/2)(1/8); powers of two stay exact
    assert cs.coefficients[1] == 2.0**-4
    assert cs.coefficients[2] == 0.25 / 2.0**10
    assert cs.coefficients[0] == 1.0


def test_termwise_bound_is_exact_for_power_of_two_norms():
    r = dyadic_norms(12)
    k_max = 3
    cs = coefficients_from_norms(r, k_max=k_max)
    c = cs.coefficients.real
    for k in range(k_max + 1):
        for i in range(k, cs.degree + 1):
            # exact dyadic arithmetic: no rounding slack at all
            assert c[i] * r[i + k] <= 2.0**-i


def test_linear_norms_keep_beta_finite():
    r = np.arange(1.0, 30.0)
    cs = coefficients_from_norms(r, k_max=2)
    c = cs.coefficients.real
    for k in range(3):
        for i in range(k, cs.degree + 1):
            assert c[i] * r[i + k] <= 2.0**-i * (1 + 1e-12)
    assert np.all(cs.norm_bounds > 0)
    assert np.all(np.isfinite(cs.norm_bounds))


@settings(max_examples=40, deadline=None)
@given(
    r=st.lists(st.floats(min_value=0.05, max_value=500.0), min_size=6, max_size=24),
    k_max=st.integers(min_value=0, max_value=3),
)
def test_termwise_bound_property(r, k_max):
    # at i = k = 0 the bound degenerates to r_0 <= 1, which only holds for
    # orthogonal-seeded orbits; the construction guarantees i >= max(k, 1)
    r = np.asarray(r)
    if r.size < k_max + 3:
        r = np.concatenate([r, np.ones(k_max + 3 - r.size)])
    cs = coefficients_from_norms(r, k_max=k_max)
    c = cs.coefficients.real
    for k in range(k_max + 1):
        for i in range(max(k, 1), cs.degree + 1):
            assert c[i] * r[i + k] <= 2.0**-i * (1 + 1e-12)


def test_insufficient_norms_error_names_required_length():
    with pytest.raises(ArgumentError) as exc:
        coefficients_from_norms(np.ones(6), k_max=2, degree=5)
    assert "8" in str(exc.value)


def test_degree_is_capped_at_64():
    cs = coefficients_from_norms(np.ones(200), k_max=0)
    assert cs.degree == 64


# ----------------------------------------------------------------------------
# Picard shift


def test_explicit_shift_example():
    cs = coefficients_from_norms(np.ones(6), k_max=0)
    out = apply_picard_shift(cs, -1.0)
    assert out.coefficients[0] == 2.0  # c_0 - d_shift = 1 - (-1)
    assert out.picard_shift == -1.0
    assert np.array_equal(out.coefficients[1:], cs.coefficients[1:])


def test_unit_shift_default():
    cs = coefficients_from_norms(np.ones(6), k_max=0)
    out = apply_picard_shift(cs)
    assert out.picard_shift == -1.0
    assert out.coefficients[0] == 2.0
    assert poly_eval_normalized(out.coefficients, 0.0) == 2.0  # F(0) != 0


def test_shift_refuses_double_application_and_positive_values():
    cs = coefficients_from_norms(np.ones(6), k_max=0)
    shifted = apply_picard_shift(cs)
    with pytest.raises(ArgumentError):
        apply_picard_shift(shifted)
    with pytest.raises(ArgumentError):
        apply_picard_shift(cs, 0.5)


def test_shift_recomputes_norm_bounds():
    cs = coefficients_from_norms(np.ones(8), k_max=0)
    out = apply_picard_shift(cs, -1.0)
    # beta_0 gains exactly the extra unit of c_0
    assert out.norm_bounds[0] == cs.norm_bounds[0] + 1.0


# ----------------------------------------------------------------------------
# shifted coefficients


def test_shifted_coefficients_examples():
    cs = CoefficientSequence.from_coefficients([1.0, 0.5], k_max=1)
    assert np.array_equal(shifted_coefficients(cs, 0), cs.coefficients)
    assert np.array_equal(shifted_coefficients(cs, 1), [0.0, 1.0, 0.5])


def test_shifted_coefficients_evaluate_to_zk_times_f():
    cs = CoefficientSequence.from_coefficients([2.0, -1.0, 0.25, 0.125], k_max=2)
    rng = np.random.default_rng(1)
    zs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for k in range(3):
        ck = shifted_coefficients(cs, k)
        for z in zs:
            lhs = npoly.polyval(z, ck)
            rhs = z**k * npoly.polyval(z, cs.coefficients)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shifted_coefficients_bounds_k():
    cs = CoefficientSequence.from_coefficients([1.0, 1.0], k_max=1)
    with pytest.raises(ArgumentError):
        shifted_coefficients(cs, 2)


# ----------------------------------------------------------------------------
# zeros


def test_quadratic_zeros():
    cs = CoefficientSequence.from_coefficients([-1.0, 0.0, 1.0])
    zs = find_zeros(cs, 2)
    assert_allclose(sorted(zs.lambdas, key=lambda z: z.real), [-1.0, 1.0], atol=1e-14)
    assert np.all(np.diff(np.abs(zs.lambdas)) >= 0)  # ascending in modulus
    assert np.all(zs.residuals < 1e-12)


def test_linear_zero():
    cs = CoefficientSequence.from_coefficients([1.0, 1.0])
    zs = find_zeros(cs, 1)
    assert_allclose(zs.lambdas, [-1.0], atol=1e-15)


def test_degree_twelve_dyadic_zeros_polish_and_separate():
    cs = apply_picard_shift(coefficients_from_norms(dyadic_norms(13), k_max=0, degree=12))
    zs = find_zeros(cs, 6)
    assert len(zs.lambdas) == 6
    mods = np.abs(zs.lambdas)
    assert np.all(np.diff(mods) >= 0)  # ascending modulus
    # direct plain-Horner evaluation as the independent residual route
    max_c = np.max(np.abs(cs.coefficients))
    for lam, stored in zip(zs.lambdas, zs.residuals):
        direct = abs(npoly.polyval(lam, cs.coefficients))
        assert direct < 1e-10 * max_c * max(1.0, abs(lam)) ** 12
        assert stored < 1e-10 * max_c
    # pairwise separation far beyond the enforced floor
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(zs.lambdas[i] - zs.lambdas[j]) > 1e-6


def test_full_degree_reconstruction_matches_coefficients():
    # moderate dynamic range so the symmetric-function products stay
    # cancellation-free; zeros sit on rings near 1-2
    cs = apply_picard_shift(coefficients_from_norms(np.ones(9), k_max=0))
    zs = find_zeros(cs, cs.degree)
    rebuilt = npoly.polyfromroots(zs.lambdas) * cs.coefficients[cs.degree]
    assert_allclose(rebuilt, cs.coefficients, rtol=1e-8)


def test_partial_request_returns_subset_of_largest_zeros():
    cs = apply_picard_shift(coefficients_from_norms(dyadic_norms(13), k_max=0, degree=12))
    all_zs = find_zeros(cs, 12).lambdas
    top = find_zeros(cs, 6).lambdas
    for z in top:
        assert np.min(np.abs(all_zs - z)) < 1e-9 * abs(z)
    # and they really are the largest six
    assert np.min(np.abs(top)) >= np.sort(np.abs(all_zs))[5] * (1 - 1e-12)


def test_find_zeros_argument_guards():
    cs = CoefficientSequence.from_coefficients([1.0, 1.0, 0.0])
    with pytest.raises(ArgumentError):
        find_zeros(cs, 2)  # leading coefficient vanishes
    cs2 = CoefficientSequence.from_coefficients([1.0, 1.0])
    with pytest.raises(ArgumentError):
        find_zeros(cs2, 2)  # m > degree


# ----------------------------------------------------------------------------
# overflow-safe evaluation


def test_normalized_eval_survives_huge_arguments():
    c = np.array([1.0, 1.0])
    v = poly_eval_normalized(c, 1e200)
    assert np.isfinite(v)
    assert v == pytest.approx(1.0, rel=1e-15)
    assert abs(poly_eval_normalized(c, 1e200)) == pytest.approx(1.0, rel=1e-15)


def test_normalized_eval_matches_plain_horner_in_unit_disk():
    c = np.array([0.5, -0.25, 1.0, 0.125])
    for z in [0.3, -0.7j, 0.2 + 0.4j]:
        assert poly_eval_normalized(c, z) == pytest.approx(npoly.polyval(z, c), rel=1e-14)


def test_normalized_eval_phase_outside_disk():
    c = np.array([2.0, 0.0, 1.0])  # z^2 + 2
    z = 3.0 + 4.0j  # |z| = 5
    expected = (z**2 + 2.0) / 25.0
    assert poly_eval_normalized(c, z) == pytest.approx(expected, rel=1e-14)
