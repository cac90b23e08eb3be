"""Blaschke sequences, truncated Blaschke products, and F_m tables.

A Blaschke factor for a zero ``lam`` in the punctured open unit disk is

    phi(z) = (|lam| / lam) * (lam - z) / (1 - conj(lam) z)

(the normalization makes phi(0) = |lam| > 0).  The product over a finite
zero set is evaluated either directly (factor by factor, used for
boundedness and zero checks) or through its Taylor coefficients b_0..b_M at
0, built one factor at a time by a first-order recurrence.
``F_m(z) = z^m B(z)`` shifts the coefficient sequence m places; the table
a[m][n] = b_{n-m} feeds the halfspace functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ArgumentError, AssumptionError
from .operators import _readonly

__all__ = [
    "BlaschkeData",
    "blaschke_sequence",
    "blaschke_taylor",
    "fm_coefficient_table",
    "evaluate_product",
    "evaluate_taylor",
]

#: |B(z)| may exceed 1 on the disk by at most this much (round-off only).
BOUNDEDNESS_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class BlaschkeData:
    """Taylor coefficients and diagnostics of a truncated product.

    ``growth_constant`` is the smallest C with |b_n| <= C/(n+1) over the
    computed range; ``defect_sum`` is sum(1 - |lam_n|) over its zeros.
    """

    taylor: np.ndarray
    growth_constant: float
    defect_sum: float


def blaschke_sequence(kind: str, count: int, **params) -> np.ndarray:
    """The zero sequences in the disk; the one place any of them is built.

    ``inverse-square``: lam_n = 1 - 1/(n+1)^2 (summable defects, the default
    elsewhere); ``geometric``: lam_n = 1 - ratio^n for 0 < ratio < 1;
    ``explicit``: pass ``values=...`` (complex numbers).  Raises when a zero
    leaves the punctured open disk, e.g. a geometric tail rounding to 1.
    """
    if count < 1:
        raise ArgumentError("count must be >= 1")
    n = np.arange(1, count + 1, dtype=float)
    if kind == "inverse-square":
        lams = 1.0 - 1.0 / (n + 1.0) ** 2
    elif kind == "geometric":
        ratio = float(params.get("ratio", 0.5))
        if not 0.0 < ratio < 1.0:
            raise ArgumentError(f"ratio must lie in (0, 1), got {ratio}")
        lams = 1.0 - ratio**n
    elif kind == "explicit":
        vals = params.get("values")
        if vals is None or len(vals) != count:
            raise ArgumentError(f"explicit kind needs exactly {count} values")
        lams = np.asarray(vals, dtype=np.complex128)
    else:
        raise ArgumentError(f"unknown sequence kind {kind!r}")
    lams = lams.astype(np.complex128)
    _check_disk(lams)
    return lams


def _check_disk(lams: np.ndarray) -> None:
    mods = np.abs(lams)
    if np.any(mods >= 1.0):
        raise ArgumentError("Blaschke zeros must lie strictly inside the unit disk")
    if np.any(mods == 0.0):
        raise ArgumentError("Blaschke zeros must be nonzero")


def _times_factor(series: np.ndarray, lam: complex) -> None:
    """Multiply a truncated series S in place by the factor for ``lam``.

    The factor is |lam| + c z / (1 - conj(lam) z), c = (|lam|/lam)(|lam|^2 - 1),
    so the product is |lam| S + c z U for U = S / (1 - conj(lam) z).  U is the
    recurrence U_n = S_n + conj(lam) U_{n-1}, stable since |lam| < 1, run as a
    doubling scan (Kogge and Stone, IEEE Trans. Comput. C-22, 1973): pass k
    adds conj(lam)^k U_{n-k} for k = 1, 2, 4, ..., each right-hand side read
    before its pass writes.  Near the circle c is small, so the scan's
    round-off stays as small as that of convolving with the factor's series.
    """
    quotient = series.copy()
    step, power = 1, lam.conjugate()
    while step < quotient.size:
        quotient[step:] += power * quotient[:-step]
        step, power = 2 * step, power * power
    series *= abs(lam)
    series[1:] += (abs(lam) / lam) * (abs(lam) ** 2 - 1.0) * quotient[:-1]


def blaschke_taylor(lambdas, order: int) -> BlaschkeData:
    """Taylor coefficients to ``order`` of the product with the given zeros.

    One in-place step per zero, each ceil(log2(order + 1)) scan passes and
    one product pass over at most order + 1 entries: count * (ceil(log2(order
    + 1)) + 1) vector passes, O(count * order * log(order)) work.  Boundedness
    |B| <= 1 is spot-checked on a small internal disk grid through the
    product form.
    """
    lams = np.asarray(lambdas, dtype=np.complex128).reshape(-1)
    if lams.size == 0:
        raise ArgumentError("need at least one factor")
    if order < 0:
        raise ArgumentError("order must be >= 0")
    _check_disk(lams)

    taylor = np.zeros(order + 1, dtype=np.complex128)
    taylor[0] = 1.0
    for lam in lams.tolist():
        _times_factor(taylor, lam)

    growth = float(np.max(np.abs(taylor) * (np.arange(order + 1) + 1)))

    spot = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    worst = float(np.max(np.abs(evaluate_product(lams, spot))))
    if worst > 1.0 + BOUNDEDNESS_SLACK:
        raise AssumptionError(f"|B| reached {worst} on the disk spot grid")

    return BlaschkeData(
        taylor=_readonly(taylor),
        growth_constant=growth,
        defect_sum=float(np.sum(1.0 - np.abs(lams))),
    )


def evaluate_product(lambdas, z):
    """B(z) through the factor product; exact zeros at each lam_n."""
    lams = np.asarray(lambdas, dtype=np.complex128).reshape(-1)
    z = np.asarray(z, dtype=np.complex128)
    out = np.ones_like(z)
    for lam in lams:
        out = out * (abs(lam) / lam) * (lam - z) / (1.0 - np.conj(lam) * z)
    return out


def evaluate_taylor(coeffs, z):
    """Plain Horner; intended for |z| < 1 where the series lives."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    return npoly.polyval(np.asarray(z, dtype=np.complex128), c)


def fm_coefficient_table(bd: BlaschkeData, m_max: int, n_max: int) -> np.ndarray:
    """a[m][n] = nth Taylor coefficient of F_m = z^m B, i.e. b_{n-m}.

    Row 0 needs b_{n_max}, so the data must carry order >= n_max (the
    stated shift bound alone would leave the early rows short).
    """
    if m_max < 0 or n_max < 0:
        raise ArgumentError("m_max and n_max must be >= 0")
    order = bd.taylor.size - 1
    if n_max > order:
        raise ArgumentError(f"table needs Taylor order {n_max}, data has {order}")
    a = np.zeros((m_max + 1, n_max + 1), dtype=np.complex128)
    for m in range(m_max + 1):
        take = n_max + 1 - m
        if take > 0:
            a[m, m:] = bd.taylor[:take]
    return a
