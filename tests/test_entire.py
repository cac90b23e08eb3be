"""Coefficient construction, the termwise bound, shifts, and zero finding."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from aihs import entire as entire_mod
from aihs.entire import (
    apply_picard_shift,
    coefficients_from_norms,
    evaluation_noise,
    find_zeros,
    poly_eval_normalized,
    shifted_coefficients,
)
from aihs.errors import ArgumentError
from aihs.halfspace import build_entire
from aihs.operators import Family, build_operator, compute_orbit, geometric_weights


def dyadic_norms(count):
    # r_n = 2^(n(n+1)/2): the orbit norms of the 2^-i weighted shift from e_1
    return np.array([2.0 ** (n * (n + 1) // 2) for n in range(count)])


# ----------------------------------------------------------------------------
# coefficients_from_norms


def test_unit_norms_give_pure_dyadic_coefficients():
    c = coefficients_from_norms(np.ones(10), k_max=2)
    assert c.size - 1 == 7  # degree 10 - 2 - 1
    assert np.array_equal(c.real, 0.5 ** np.arange(8))
    assert c.dtype == np.complex128 and not c.flags.writeable


def test_dyadic_orbit_norms_frozen_values():
    c = coefficients_from_norms(dyadic_norms(8), k_max=1)
    # c_1 = (1/2) min{1/r_1, 1/r_2} = (1/2)(1/8); powers of two stay exact
    assert c[1] == 2.0**-4
    assert c[2] == 0.25 / 2.0**10
    assert c[0] == 1.0


def test_termwise_bound_is_exact_for_power_of_two_norms():
    r = dyadic_norms(12)
    k_max = 3
    c = coefficients_from_norms(r, k_max=k_max).real
    for k in range(k_max + 1):
        for i in range(k, c.size):
            # exact dyadic arithmetic: no rounding slack at all
            assert c[i] * r[i + k] <= 2.0**-i


def test_linear_norms_keep_beta_finite():
    r = np.arange(1.0, 30.0)
    c = coefficients_from_norms(r, k_max=2).real
    for k in range(3):
        for i in range(k, c.size):
            assert c[i] * r[i + k] <= 2.0**-i * (1 + 1e-12)


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
    c = coefficients_from_norms(r, k_max=k_max).real
    for k in range(k_max + 1):
        for i in range(max(k, 1), c.size):
            assert c[i] * r[i + k] <= 2.0**-i * (1 + 1e-12)


def test_insufficient_norms_error_names_required_length():
    with pytest.raises(ArgumentError) as exc:
        coefficients_from_norms(np.ones(6), k_max=2, degree=5)
    assert "8" in str(exc.value)


def test_degree_is_capped_at_64():
    assert coefficients_from_norms(np.ones(200), k_max=0).size == 65


# ----------------------------------------------------------------------------
# Picard shift


def test_explicit_shift_example():
    c = coefficients_from_norms(np.ones(6), k_max=0)
    out = apply_picard_shift(c)  # the unit shift: d_shift = -max(1, c_0) = -1
    assert out[0] == 2.0  # c_0 - d_shift = 1 - (-1)
    assert np.array_equal(out[1:], c[1:])
    assert c[0] == 1.0 and not out.flags.writeable  # a new array; the input keeps its c_0


def test_unit_shift_default():
    out = apply_picard_shift(coefficients_from_norms(np.ones(6), k_max=0))
    assert out[0] == 2.0
    assert poly_eval_normalized(out, 0.0) == 2.0  # F(0) != 0


# ----------------------------------------------------------------------------
# shifted coefficients


def test_shifted_coefficients_examples():
    c = np.array([1.0, 0.5], dtype=np.complex128)
    assert np.array_equal(shifted_coefficients(c, 0), c)
    assert np.array_equal(shifted_coefficients(c, 1), [0.0, 1.0, 0.5])


def test_shifted_coefficients_evaluate_to_zk_times_f():
    c = np.array([2.0, -1.0, 0.25, 0.125], dtype=np.complex128)
    rng = np.random.default_rng(1)
    zs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for k in range(3):
        ck = shifted_coefficients(c, k)
        for z in zs:
            lhs = npoly.polyval(z, ck)
            rhs = z**k * npoly.polyval(z, c)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shifted_coefficients_bounds_k():
    with pytest.raises(ArgumentError):
        shifted_coefficients(np.ones(2, dtype=np.complex128), -1)


# ----------------------------------------------------------------------------
# zeros


def test_quadratic_zeros():
    c = np.array([-1.0, 0.0, 1.0])
    zs, _ = find_zeros(c)
    assert_allclose(sorted(zs, key=lambda z: z.real), [-1.0, 1.0], atol=1e-14)
    assert np.all(np.diff(np.abs(zs)) >= 0)  # ascending in modulus
    assert all(abs(npoly.polyval(z, c)) < 1e-12 for z in zs)


def test_linear_zero():
    zs, _ = find_zeros([1.0, 1.0])
    assert_allclose(zs, [-1.0], atol=1e-15)


def test_degree_twelve_dyadic_zeros_polish_and_separate():
    c = apply_picard_shift(coefficients_from_norms(dyadic_norms(13), k_max=0, degree=12))
    zs, _ = find_zeros(c)
    assert len(zs) == 12 and not zs.flags.writeable
    # ascending by Python abs, the finder's sort key (numpy's vector abs can
    # order a conjugate pair the other way round)
    mods = [abs(complex(z)) for z in zs]
    assert mods == sorted(mods)
    # direct plain-Horner evaluation as the independent residual route
    max_c = np.max(np.abs(c))
    for lam in zs:
        direct = abs(npoly.polyval(lam, c))
        assert direct < 1e-10 * max_c * max(1.0, abs(lam)) ** 12
        assert abs(poly_eval_normalized(c, lam)) < 1e-10 * max_c
    # pairwise separation far beyond the enforced floor
    for i in range(12):
        for j in range(i + 1, 12):
            assert abs(zs[i] - zs[j]) > 1e-6


def test_full_degree_reconstruction_matches_coefficients():
    # moderate dynamic range so the symmetric-function products stay
    # cancellation-free; zeros sit on rings near 1-2
    c = apply_picard_shift(coefficients_from_norms(np.ones(9), k_max=0))
    zs, _ = find_zeros(c)
    assert len(zs) == c.size - 1
    rebuilt = npoly.polyfromroots(zs) * c[-1]
    assert_allclose(rebuilt, c, rtol=1e-8)


def test_find_zeros_argument_guards():
    with pytest.raises(ArgumentError):
        find_zeros([1.0, 1.0, 0.0])  # leading coefficient vanishes
    with pytest.raises(ArgumentError):
        find_zeros([1.0])  # degree 0


# ----------------------------------------------------------------------------
# the noise-floor stop


EPS = np.finfo(np.float64).eps


def _reference_horner(c, z):
    """The previous evaluation: numpy scalars, F and F' only."""
    d = c.size - 1
    if abs(z) <= 1.0:
        f = fp = complex(0.0)
        for i in range(d, -1, -1):
            fp = fp * z + f
            f = f * z + c[i]
        return f, fp, False
    u = 1.0 / z
    f = complex(0.0)
    for i in range(d + 1):
        f = f * u + c[i]
    fp = complex(0.0)
    for i in range(1, d + 1):
        fp = fp * u + i * c[i]
    return f, fp, True


def _reference_polish(c, z):
    """The previous polish: all 40 Newton steps unless the step drops below 1e-16 |z|."""
    best_z, best_r = z, abs(_reference_horner(c, z)[0])
    for _ in range(40):
        f, fp, rescaled = _reference_horner(c, z)
        if fp == 0:
            break
        step = (f / fp) * (z if rescaled else 1.0)
        z = z - step
        r = abs(_reference_horner(c, z)[0])
        if r < best_r:
            best_z, best_r = z, r
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    return best_z


def _reference_zeros(c):
    # the same balanced companion-matrix seeds as find_zeros
    d = c.size - 1
    s = (abs(c[0]) / abs(c[d])) ** (1.0 / d)
    b = c * s ** np.arange(d + 1)
    b /= np.max(np.abs(b))
    return np.array([_reference_polish(c, complex(z0)) for z0 in npoly.polyroots(b) * s])


def test_geometric_build_stops_each_seed_at_the_noise_floor(monkeypatch):
    calls = []
    horner = entire_mod._horner

    def counting(c, z):
        calls.append(z)
        return horner(c, z)

    monkeypatch.setattr(entire_mod, "_horner", counting)
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, 0.9))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, m=8, k_max=5)
    assert cert.passed
    # one evaluation at the seed and one after the first step, plus one noise
    # check per candidate in the selection; the 40-step polish made about 78
    assert len(calls) <= 4 * cert.degree


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(min_value=0.3, max_value=0.96),
    length=st.integers(min_value=5, max_value=129),
    jitter=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polished_zeros_sit_at_the_noise_floor(ratio, length, jitter, seed):
    # law-like: the biorthogonal norms of a forward shift orbit from e_1 whose
    # weights are ratio^i times a factor in [1 - jitter, 1], cut at the orbit
    # floor, with the build's degree rule; this reaches degrees 2..64.
    # (Between ratios of about 0.963 and 0.984 at degree 64 some companion
    # seeds start too far out for 40 Newton steps, before and after the stop.)
    rng = np.random.default_rng(seed)
    weights = ratio ** np.arange(1, length) * rng.uniform(1.0 - jitter, 1.0, length - 1)
    orbit_norms = np.concatenate([[1.0], np.cumprod(weights)])
    orbit_norms = orbit_norms[orbit_norms >= 1e-150]
    degree = min((orbit_norms.size - 1) // 2, 64)
    assume(degree >= 2)
    c = apply_picard_shift(coefficients_from_norms(1.0 / orbit_norms, 0, degree=degree))
    zs, noises = find_zeros(c)
    reference = _reference_zeros(c)
    for z, noise in zip(zs, noises):
        f, fp, rescaled, a = entire_mod._horner(c.tolist(), complex(z))
        assert abs(f) <= EPS * a
        assert float(noise).hex() == evaluation_noise(c, z).hex()  # kept from the polish
        radius = EPS * a / abs(fp) * (abs(z) if rescaled else 1.0)  # eps a(z) / |F'(z)|
        assert np.min(np.abs(reference - z)) <= 2.0 * radius


def test_kept_noise_is_the_evaluation_noise_bit_for_bit():
    # the build's law at N = 1024 (every zero outside the unit disk), and a
    # law with zeros on both sides of it
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, 0.9))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    norms = compute_orbit(op, e, 1024).biorthogonal_norms
    laws = [apply_picard_shift(coefficients_from_norms(norms, 5, degree=40)),
            npoly.polyfromroots([0.5, -0.3j, 0.9 + 0.1j, 2.0, -30.0 + 1.0j])]
    for c in laws:
        zs, noises = find_zeros(c)
        for z, noise in zip(zs, noises):
            assert float(noise).hex() == evaluation_noise(c, z).hex()
    assert np.min(np.abs(zs)) < 1.0 < np.max(np.abs(zs))


def test_evaluation_noise_matches_the_direct_sum_and_saturates():
    c = np.array([2.0, -1.0 + 1.0j, 0.25, 0.125j])
    for z in (0.3 - 0.2j, 4.0 + 3.0j):
        direct = EPS * np.sum(np.abs(c) * abs(z) ** np.arange(4))
        assert evaluation_noise(c, z) == pytest.approx(direct, rel=1e-14)
    assert evaluation_noise(c, 1e200) == np.inf


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
