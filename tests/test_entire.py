"""Coefficient construction, the termwise bound, shifts, and zero finding."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from aihs import entire as entire_mod
from aihs.cli import main
from aihs.entire import (
    DISTINCT_RTOL,
    apply_picard_shift,
    coefficients_from_norms,
    evaluation_noise,
    find_zeros,
    poly_eval_normalized,
    shifted_coefficients,
)
from aihs.errors import ArgumentError, AssumptionError
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
    with pytest.raises(ArgumentError, match="must be real"):
        find_zeros([1.0, 1j, 1.0])


def _scalar_pair_rule(lambdas):
    """The message of the pair loop find_zeros ran on numpy scalars, or None."""
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            pair_scale = max(abs(lambdas[i]), abs(lambdas[j]))
            if abs(lambdas[i] - lambdas[j]) <= DISTINCT_RTOL * pair_scale:
                return (f"zeros {i} and {j} coincide within {DISTINCT_RTOL:.1e} "
                        f"of their modulus {pair_scale:.6g}; raise the degree")
    return None


def _distinctness_verdict(monkeypatch, zeros):
    """What find_zeros says of ``zeros``, fed in as its polished zeros, or None."""
    polishes = iter([(z, 0.0, 0.0) for z in zeros])
    monkeypatch.setattr(entire_mod, "_newton_polish", lambda law, z0: next(polishes))
    try:
        # a law with well-separated real zeros 1, 2, ..., so one polish per seed
        find_zeros(npoly.polyfromroots(np.arange(1.0, len(zeros) + 1.0)))
        verdict = None
    except AssumptionError as exc:
        verdict = str(exc)
    assert next(polishes, None) is None
    return verdict


def test_distinctness_is_the_scalar_pair_rule(monkeypatch):
    # a pair whose gap numpy's vectorised abs puts one ulp below the scalar
    # abs, with DISTINCT_RTOL * |z| on the lower of the two: the scalar rule
    # keeps it apart, a rule on np.abs would not
    z = complex(float.fromhex("0x1.bc0d2e3671dfdp+0"), 0.0)
    w = complex(float.fromhex("0x1.bc0d2e32e03bcp+0"), float.fromhex("0x1.a28698ec030dcp-30"))
    others = [0.01 + 0.2j, -3.0, 7.5 - 1.0j, 40.0j]
    for zeros in ([z, w] + others, others[:2] + [w, z] + others[2:]):
        expected = _scalar_pair_rule(np.array(sorted(zeros, key=abs)))
        assert expected is None
        assert _distinctness_verdict(monkeypatch, zeros) == expected
    # coincident pairs near the edge: the first (i, j) and the message
    rng = np.random.default_rng(5)
    raised = 0
    for _ in range(200):
        zeros = [complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3) for _ in range(5)]
        base, turn = zeros[rng.integers(5)], complex(*rng.standard_normal(2))
        zeros.append(base + DISTINCT_RTOL * abs(base) * rng.uniform(0.5, 1.5) * turn / abs(turn))
        expected = _scalar_pair_rule(np.array(sorted(zeros, key=abs)))
        raised += expected is not None
        assert _distinctness_verdict(monkeypatch, zeros) == expected
    assert 0 < raised < 200


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
    # balanced seeds from the complex companion matrix, independent of the
    # real one find_zeros takes
    d = c.size - 1
    s = (abs(c[0]) / abs(c[d])) ** (1.0 / d)
    b = c * s ** np.arange(d + 1)
    b /= np.max(np.abs(b))
    return np.array([_reference_polish(c, complex(z0)) for z0 in npoly.polyroots(b) * s])


def test_geometric_build_stops_each_seed_at_the_noise_floor(monkeypatch):
    calls, polishes = [], []
    horner, polish = entire_mod._horner, entire_mod._newton_polish

    def counting(law, z):
        calls.append(z)
        return horner(law, z)

    def polishing(law, z):
        before = len(calls)
        result = polish(law, z)
        polishes.append((z, len(calls) - before))
        return result

    monkeypatch.setattr(entire_mod, "_horner", counting)
    monkeypatch.setattr(entire_mod, "_newton_polish", polishing)
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, 0.9))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    cert = build_entire(op, e, m=8, k_max=5)
    assert cert.passed
    # one evaluation at the seed and one after the first step, normally, and
    # every evaluation is the polish's; the 40-step polish made about 78
    assert len(calls) <= 4 * cert.degree
    # the real law's polish starts only from seeds with Im >= 0, each within
    # the step cap; the other member of each conjugate pair is mirrored
    assert all(z.imag >= 0 and evaluations <= entire_mod.NEWTON_CAP + 1
               for z, evaluations in polishes)
    assert sum(evaluations for _, evaluations in polishes) == len(calls)
    pairs = sum(1 for z, _ in polishes if z.imag > 0)
    assert pairs > 0 and len(polishes) + pairs == cert.degree


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _assert_real_law_zeros(c):
    """A real law's zeros: closed under conjugation bit for bit, real ones at Im +0.0.

    Also pins the two identities the finder rests on, from the seeds it
    takes (the balanced real companion matrix): the float polish of a real
    seed is the complex polish of that seed, and the polish of a seed with
    Im < 0 is the conjugate of its partner's.  Returns how many real seeds
    and conjugate pairs it saw.
    """
    zs, noises = find_zeros(c)
    zeros = list(zip(zs.tolist(), noises.tolist()))
    assert all(math.copysign(1.0, z.imag) == 1.0 for z, _ in zeros if z.imag == 0)
    nonreal = Counter((_bits(z), noise.hex()) for z, noise in zeros if z.imag != 0)
    assert nonreal == Counter((_bits(z.conjugate()), noise.hex()) for z, noise in zeros
                              if z.imag != 0)

    d = c.size - 1
    s = (abs(c[0]) / abs(c[d])) ** (1.0 / d)
    b = c.real * s ** np.arange(d + 1)
    b /= np.max(np.abs(b))
    law, real_law = entire_mod._tables(c.tolist()), entire_mod._tables(c.real.tolist())
    polished = Counter()
    reals = pairs = 0
    for z0 in (npoly.polyroots(b) * s).tolist():
        z, r, noise = entire_mod._newton_polish(law, complex(z0))
        if z0.imag == 0:
            x, rx, noise_x = entire_mod._newton_polish(real_law, z0.real)
            assert isinstance(x, float) and z.imag == 0
            assert (x.hex(), rx.hex(), noise_x.hex()) == (z.real.hex(), r.hex(), noise.hex())
            z, reals = complex(x), reals + 1
        else:
            partner = entire_mod._newton_polish(law, z0.conjugate())
            assert _bits(partner[0]) == _bits(z.conjugate()) and partner[1:] == (r, noise)
            pairs += z0.imag > 0
        polished[(_bits(z), noise.hex())] += 1
    # the finder returns exactly these polishes
    assert polished == Counter((_bits(z), noise.hex()) for z, noise in zeros)
    return reals, pairs


# the ratios of the entire-n1024 benchmark workload (0.885 .. 0.92)
BUILD_RATIOS = tuple(round(0.885 + 0.0025 * i, 4) for i in range(15))


@pytest.mark.parametrize("ratio", BUILD_RATIOS)
def test_real_law_zeros_are_conjugate_closed_bit_for_bit(ratio):
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, ratio))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    c = build_entire(op, e, m=8, k_max=5).law.coefficients
    reals, pairs = _assert_real_law_zeros(c)
    assert reals > 0 and pairs > 0 and reals + 2 * pairs == c.size - 1


@pytest.mark.parametrize("seed", range(6))
def test_entire_n1024_verdicts_hold(tmp_path, capsys, seed):
    # the benchmark workload's inputs for these seeds: build and audit both pass with all 8 zeros
    cfg = {
        "schema": "aihs-run/1",
        "operator": {"family": "forward-weighted-shift", "dim": 1024,
                     "weights": {"kind": "geometric",
                                 "params": {"ratio": random.Random(seed).choice(BUILD_RATIOS)}}},
        "construction": "entire", "m": 8, "k_max": 5, "seed": 0, "label": "entire-n1024",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["build", "--config", str(path), "--out", str(tmp_path)]) == 0
    cert = tmp_path / "entire-n1024.cert.json"
    doc = json.loads(cert.read_text(encoding="utf-8"))
    assert doc["m_achieved"] == 8 and all(entry["passed"] for entry in doc["checks"].values())
    assert main(["verify", str(cert)]) == 0
    assert "audit PASS" in capsys.readouterr().out


def _orbit_law(ratio, length, jitter, seed):
    """A law-like real law, or None below degree 2.

    The biorthogonal norms of a forward shift orbit from e_1 whose weights
    are ratio^i times a factor in [1 - jitter, 1], cut at the orbit floor,
    with the build's degree rule; this reaches degrees 2..64.
    """
    rng = np.random.default_rng(seed)
    weights = ratio ** np.arange(1, length) * rng.uniform(1.0 - jitter, 1.0, length - 1)
    orbit_norms = np.concatenate([[1.0], np.cumprod(weights)])
    orbit_norms = orbit_norms[orbit_norms >= 1e-150]
    degree = min((orbit_norms.size - 1) // 2, 64)
    if degree < 2:
        return None
    return apply_picard_shift(coefficients_from_norms(1.0 / orbit_norms, 0, degree=degree))


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(min_value=0.3, max_value=0.96),
    length=st.integers(min_value=5, max_value=129),
    jitter=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(ratio=0.9599999999999999, length=121, jitter=0.0, seed=0)
def test_polished_zeros_sit_at_the_noise_floor(ratio, length, jitter, seed):
    # (Between ratios of about 0.963 and 0.984 at degree 64 some companion
    # seeds start too far out for 40 Newton steps, before and after the stop.)
    c = _orbit_law(ratio, length, jitter, seed)
    assume(c is not None)
    zs, noises = find_zeros(c)
    _assert_real_law_zeros(c)
    radii = []
    for z, noise in zip(zs, noises):
        f, fp, rescaled, a = entire_mod._horner(entire_mod._tables(c.tolist()), complex(z))
        assert abs(f) <= EPS * a
        assert float(noise).hex() == evaluation_noise(c, z).hex()  # kept from the polish
        radii.append(EPS * a / abs(fp) * (abs(z) if rescaled else 1.0))  # eps a(z) / |F'(z)|
    # every zero the complex seeds reach at the noise floor is one found.
    # They may reach some zero twice and miss another, or stall off every
    # zero: the @example polishes to -50.2044 twice, loses the zeros near
    # -59.23 and -82.10, and stalls at -78.94+0.29i with |F| = 466 eps a(z)
    law = entire_mod._tables(c.tolist())
    for z in _reference_zeros(c):
        f, _, _, a = entire_mod._horner(law, complex(z))
        if abs(f) <= EPS * a:
            assert np.any(np.abs(zs - z) <= 2.0 * np.array(radii))


def test_real_seeds_keep_the_ill_conditioned_real_zeros():
    # at ratio 0.96 and degree 60 the law's zeros on the negative real axis are
    # so ill-conditioned that seeds from the complex companion matrix polish
    # to -50.2044 twice and lose the zeros near -59.23 and -82.10; the real
    # companion matrix keeps one seed per real zero.  The zeros are mpmath
    # polyroots of the same coefficients at 200 digits.
    c = _orbit_law(0.9599999999999999, 121, 0.0, 0)
    assert c.size - 1 == 60
    zs, _ = find_zeros(c)
    for true in (-43.89511260948691, -50.20438358975837, -59.23134485994588,
                 -69.73121685445098, -82.10198612919922, -96.66208180591454):
        near = zs[np.abs(zs - true) <= 1e-4 * abs(true)]
        assert near.size == 1 and near[0].imag == 0


def test_kept_noise_is_the_evaluation_noise_bit_for_bit():
    # the build's law at N = 1024 (every zero outside the unit disk), and a
    # law with zeros on both sides of it
    op = build_operator(Family.FORWARD, 1024, weights=geometric_weights(1024, 0.9))
    e = np.zeros(1024, dtype=np.complex128)
    e[0] = 1.0
    norms = compute_orbit(op, e, 1024).biorthogonal_norms
    laws = [apply_picard_shift(coefficients_from_norms(norms, 5, degree=40)),
            npoly.polyfromroots([0.5, 0.3j, -0.3j, 0.9 + 0.1j, 0.9 - 0.1j, 2.0,
                                 -30.0 + 1.0j, -30.0 - 1.0j]).real]
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
