"""Blaschke sequences, Taylor products, and the F_m coefficient tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aihs import blaschke
from aihs.blaschke import (
    blaschke_sequence,
    blaschke_taylor,
    evaluate_product,
    evaluate_taylor,
    fm_coefficient_table,
)
from aihs import halfspace
from aihs.errors import ArgumentError, StageError
from aihs.halfspace import build_blaschke
from aihs.operators import Family, build_operator


def test_inverse_square_first_three():
    assert_allclose(
        blaschke_sequence("inverse-square", 3), [0.75, 8.0 / 9.0, 15.0 / 16.0], rtol=0
    )


def test_inverse_square_defect_partial_sums_stay_under_pi_squared_sixth():
    lams = blaschke_sequence("inverse-square", 1000)
    assert np.all(np.abs(lams) < 1.0)
    assert float(np.sum(1.0 - np.abs(lams))) < np.pi**2 / 6.0


def test_geometric_sequence_values():
    assert_allclose(blaschke_sequence("geometric", 3, ratio=0.5), [0.5, 0.75, 0.875])
    # the vectorised power may differ from a Python loop in the last bit only
    loop = [1.0 - 0.8**n for n in range(1, 41)]
    assert_allclose(blaschke_sequence("geometric", 40, ratio=0.8), loop, rtol=4e-16, atol=0)


def test_explicit_sequence_and_validation():
    lams = blaschke_sequence("explicit", 2, values=[0.3j, -0.5])
    assert_allclose(lams, [0.3j, -0.5])
    with pytest.raises(ArgumentError):
        blaschke_sequence("explicit", 2, values=[0.5, 1.0])  # on the circle
    with pytest.raises(ArgumentError):
        blaschke_sequence("explicit", 2, values=[0.5, 0.0])  # zero forbidden
    with pytest.raises(ArgumentError):
        blaschke_sequence("no-such-kind", 2)


# ----------------------------------------------------------------------------
# Taylor coefficients


def test_single_factor_half_matches_symbolic_series():
    # (1/2 - z)/(1 - z/2) = 1/2 - (3/4) z - (3/8) z^2 - ... by hand
    bd = blaschke_taylor([0.5], order=6)
    assert bd.taylor[0] == pytest.approx(0.5, abs=1e-15)
    assert bd.taylor[1] == pytest.approx(-0.75, abs=1e-12)
    assert bd.taylor[2] == pytest.approx(-0.375, abs=1e-12)
    assert bd.defect_sum == pytest.approx(0.5)


def test_single_real_factor_taylor_vanishes_at_its_zero():
    bd = blaschke_taylor([0.5], order=100)
    assert abs(evaluate_taylor(bd.taylor, 0.5)) < 1e-14


def test_two_factor_coefficients_are_the_convolution_of_singles():
    a, b = 0.4 + 0.2j, -0.6
    single_a = blaschke_taylor([a], order=12).taylor
    single_b = blaschke_taylor([b], order=12).taylor
    both = blaschke_taylor([a, b], order=12).taylor
    assert_allclose(both, np.convolve(single_a, single_b)[:13], rtol=1e-13)


def _convolution_product(lams, order):
    """The product as the convolution of each factor's own series, cut at ``order``.

    Factor lam: b_0 = |lam|, b_j = (|lam|/lam)(|lam|^2 - 1) conj(lam)^(j-1).
    """
    series = np.zeros(order + 1, dtype=np.complex128)
    series[0] = 1.0
    for lam in lams:
        factor = np.empty(order + 1, dtype=np.complex128)
        factor[0] = abs(lam)
        factor[1:] = (abs(lam) / lam) * (abs(lam) ** 2 - 1.0) * np.conj(lam) ** np.arange(order)
        series = np.convolve(series, factor)[: order + 1]
    return series


# |lam| = 1 - 10^t, from about 1e-3 up to 1 - 1e-6, at any angle
_ZEROS = st.lists(
    st.tuples(st.floats(-6.0, -5e-4), st.floats(0.0, 2 * math.pi)).map(
        lambda p: (1.0 - 10.0 ** p[0]) * complex(math.cos(p[1]), math.sin(p[1]))),
    min_size=1, max_size=10)


@settings(max_examples=100, deadline=None)
@given(lams=_ZEROS, order=st.integers(0, 600))
def test_recurrence_product_matches_the_convolution(lams, order):
    got = blaschke_taylor(lams, order).taylor
    want = _convolution_product(lams, order)
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


class _Counted(np.ndarray):
    """An array that counts the in-place additions made to it or to its views."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.add and out is not None:
            _Counted.passes += 1
        plain = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        if out is None:
            return getattr(ufunc, method)(*plain, **kwargs)
        getattr(ufunc, method)(*plain, out=tuple(a.view(np.ndarray) for a in out), **kwargs)
        return out[0]  # in place: the counted array itself


class _CountingNumpy:
    """numpy, except that ``zeros`` hands out counted arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(*args, **kwargs):
        return np.zeros(*args, **kwargs).view(_Counted)


@pytest.mark.parametrize("order", [255, 1023, 4095])
def test_the_product_makes_a_logarithmic_number_of_vector_passes(monkeypatch, order):
    # each factor: ceil(log2(order + 1)) scan passes, then one product pass
    lams = blaschke_sequence("inverse-square", 8)
    monkeypatch.setattr(blaschke, "np", _CountingNumpy())
    _Counted.passes = 0
    counted = blaschke_taylor(lams, order)
    monkeypatch.undo()
    assert _Counted.passes == lams.size * (math.ceil(math.log2(order + 1)) + 1)
    assert np.array_equal(counted.taylor, blaschke_taylor(lams, order).taylor)


def test_product_form_has_exact_zeros():
    lams = blaschke_sequence("explicit", 3, values=[0.3, 0.5j, -0.6])
    vals = evaluate_product(lams, lams)
    assert np.max(np.abs(vals)) < 1e-15


def test_boundedness_on_disk_grid():
    lams = blaschke_sequence("inverse-square", 8)
    rng = np.random.default_rng(4)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    assert np.max(np.abs(evaluate_product(lams, z))) <= 1.0 + 1e-12


def test_growth_constant_matches_brute_force():
    bd = blaschke_taylor(blaschke_sequence("inverse-square", 6), order=50)
    brute = max(abs(bd.taylor[n]) * (n + 1) for n in range(51))
    assert bd.growth_constant == pytest.approx(brute, rel=1e-15)
    assert np.isfinite(bd.growth_constant)


def _counted_taylor(monkeypatch) -> list:
    calls = []
    real = halfspace.blaschke_taylor

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(halfspace, "blaschke_taylor", counted)
    return calls


def _e0(dim):
    e = np.zeros(dim, dtype=np.complex128)
    e[0] = 1.0
    return e


def test_defect_cap_is_enforced(monkeypatch):
    # sum(1 - |lam|) = 1.8 > 1, checked in the taylor stage on the law's own series
    calls = _counted_taylor(monkeypatch)
    op = build_operator(Family.FORWARD, 16, weights=np.full(15, 0.5))
    with pytest.raises(StageError) as exc:
        build_blaschke(op, _e0(16), m=2, m_max=1, lambdas=[0.1, 0.1], defect_cap=1.0)
    assert exc.value.stage == "taylor"
    assert str(exc.value.cause) == "sum of (1 - |lam|) = 1.8 exceeds the cap 1"
    assert len(calls) == 1


def test_a_capped_build_derives_its_series_once(monkeypatch):
    calls = _counted_taylor(monkeypatch)
    op = build_operator(Family.FORWARD, 16, weights=np.full(15, 0.5))
    capped = build_blaschke(op, _e0(16), m=2, m_max=1, lambdas=[0.1, 0.1], defect_cap=2.0)
    assert len(calls) == 1
    plain = build_blaschke(op, _e0(16), m=2, m_max=1, lambdas=[0.1, 0.1])
    assert capped.metrics == plain.metrics


def test_taylor_agrees_with_product_inside_disk():
    lams = [0.3, -0.4j, 0.2]
    bd = blaschke_taylor(lams, order=200)
    for z in [0.1, -0.3j, 0.45 + 0.2j]:
        assert evaluate_taylor(bd.taylor, z) == pytest.approx(
            complex(evaluate_product(lams, z)), rel=1e-12
        )


# ----------------------------------------------------------------------------
# F_m tables


def test_fm_table_row_zero_is_the_taylor_series():
    bd = blaschke_taylor([0.5], order=8)
    a = fm_coefficient_table(bd, m_max=3, n_max=8)
    assert_allclose(a[0], bd.taylor)


def test_fm_table_examples():
    bd = blaschke_taylor([0.5], order=8)
    a = fm_coefficient_table(bd, m_max=2, n_max=8)
    assert a[2, 1] == 0.0  # n < m
    assert a[1, 2] == pytest.approx(-0.75, abs=1e-12)  # b_1 shifted once


def test_fm_table_shift_structure():
    bd = blaschke_taylor(blaschke_sequence("inverse-square", 4), order=20)
    a = fm_coefficient_table(bd, m_max=4, n_max=20)
    for m in range(1, 5):
        for n in range(m, 21):
            assert a[m, n] == a[0, n - m]


def test_fm_table_insufficient_order_names_requirement():
    bd = blaschke_taylor([0.5], order=5)
    with pytest.raises(ArgumentError) as exc:
        fm_coefficient_table(bd, m_max=2, n_max=9)
    assert "9" in str(exc.value)


def test_fm_rows_vanish_at_every_blaschke_zero():
    lams = blaschke_sequence("explicit", 3, values=[0.3, 0.5j, -0.6])
    bd = blaschke_taylor(lams, order=300)
    a = fm_coefficient_table(bd, m_max=3, n_max=300)
    for m in range(4):
        for lam in lams:
            assert abs(evaluate_taylor(a[m], lam)) < 1e-9
        if m >= 1:
            assert a[m, 0] == 0.0  # F_m(0) = 0 exactly


def test_fm_rows_are_linearly_independent():
    bd = blaschke_taylor(blaschke_sequence("inverse-square", 5), order=40)
    a = fm_coefficient_table(bd, m_max=4, n_max=40)
    rows = a / np.linalg.norm(a, axis=1, keepdims=True)
    smin = np.linalg.svd(rows, compute_uv=False)[-1]
    assert smin > 1e-10
